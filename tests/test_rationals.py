"""Exact linear algebra checks: small frozen cases plus random properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import RowReducerByDivision, mat_det, rref_by_row_reducer

from orbitscope import rationals as ra
from orbitscope.params import Coefficient


def rand_matrix(rng, n, m):
    return tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m))
        for _ in range(n)
    )


def test_det_and_inverse_exact():
    a = ra.mat([[1, 2], [3, 5]])
    assert mat_det(a) == Fraction(-1)
    inv = ra.mat_inverse(a)
    assert ra.mat_mul(a, inv) == ra.mat_identity(2)


def test_inverse_random_property():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        if mat_det(a) == 0:
            continue
        inv = ra.mat_inverse(a)
        assert ra.mat_mul(inv, a) == ra.mat_identity(n)


def test_rref_pivots_increasing():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix(rng, n, m)
        red, pivots = ra.rref(rows)
        assert pivots == sorted(pivots)
        for r, pc in enumerate(pivots):
            assert red[r][pc] == 1
            for rr in range(len(red)):
                if rr != r:
                    assert red[rr][pc] == 0


def test_nullspace_annihilates():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        rows = rand_matrix(rng, n, m)
        basis = ra.nullspace(rows, m)
        red, pivots = ra.rref(rows)
        assert len(basis) == m - len(pivots)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def linear_system(cols, target) -> ra.RowReducer:
    """Rows of sum_j x_j * cols[j] == target, one per coordinate."""
    rr = ra.RowReducer(len(cols))
    for r, t in enumerate(target):
        rr.add({**{j: col[r] for j, col in enumerate(cols)}, ra.RHS: t})
    return rr


def test_solve_free_unknown_is_zero():
    cols = [ra.vec([1, 0, 1]), ra.vec([0, 1, 1]), ra.vec([1, 1, 2])]
    target = ra.vec([2, 3, 5])
    rr = linear_system(cols, target)
    assert rr.consistent
    x = rr.solve()
    # third column depends on the first two, so the canonical solution
    # leaves the trailing free unknown at zero
    assert x.get(2, 0) == 0
    for r in range(3):
        assert sum(x.get(j, 0) * cols[j][r] for j in range(3)) == target[r]


def test_solve_detects_inconsistent_system():
    cols = [ra.vec([1, 0]), ra.vec([2, 0])]
    assert not linear_system(cols, ra.vec([0, 1])).consistent


def test_row_reducer_rank():
    rr = ra.RowReducer(3)
    assert rr.add(ra.vec([1, 1, 0]))
    assert not rr.add(ra.vec([2, 2, 0]))
    assert rr.add(ra.vec([0, 1, 1]))
    assert not rr.residual(ra.vec([1, 0, -1]))
    assert rr.residual(ra.vec([0, 0, 1]))
    assert rr.rank == 2


def test_row_reducer_divides_ints_exactly():
    # residual and pivot rows are primitive integer rows; only a right-hand
    # side and solve's values are Fractions, never the float 0.5
    rr = ra.RowReducer()
    rr.add([2, 1])
    got = rr.residual([3, 1])
    assert got == {1: -1} and type(got[1]) is int
    got = rr.residual([Fraction(3, 2), Fraction(1, 4)])
    assert got == {1: -2} and type(got[1]) is int
    rr = ra.RowReducer()
    rr.add({0: 2, ra.RHS: 1})
    assert rr.pivot_rows == {0: {0: 1, ra.RHS: Fraction(1, 2)}}
    assert type(rr.pivot_rows[0][0]) is int
    got = rr.solve()
    assert got == {0: Fraction(1, 2)} and type(got[0]) is Fraction


def test_row_width_must_match_ncols():
    with pytest.raises(ValueError):
        ra.rref([[1, 2, 3], [4, 5]])
    with pytest.raises(ValueError):
        ra.rref([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        ra.nullspace([{0: 1, 5: 2}], 3)
    with pytest.raises(ValueError):
        ra.RowReducer(3).add({0: 1, 7: 2})


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def matrices(rows=st.integers(1, 5), cols=st.integers(1, 5), entries=fractions):
    return st.tuples(rows, cols).flatmap(
        lambda nm: st.lists(
            st.lists(entries, min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0],
        )
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(st.just(n), st.just(n))))
def test_inverse_property(a):
    a = ra.mat(a)
    if mat_det(a) == 0:
        with pytest.raises(ValueError):
            ra.mat_inverse(a)
    else:
        assert ra.mat_mul(ra.mat_inverse(a), a) == ra.mat_identity(len(a))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_property(rows):
    red, pivots = ra.rref(rows)
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    assert ra.rref(red) == (red, pivots)


# entries with large coprime denominators: products of them never cancel
big_fractions = st.builds(
    Fraction,
    st.integers(-10**6, 10**6),
    st.sampled_from([10007, 65537, 2**31 - 1, 2**61 - 1]),
)
entry_kinds = {
    "int": st.integers(-10**4, 10**4),
    "small": st.one_of(st.integers(-6, 6), fractions),
    "big": st.one_of(st.just(0), fractions, big_fractions),
}


@st.composite
def oracle_cases(draw):
    """Rows (dense or dict) with zero and repeated rows, and an ``ncols``
    at least the width of the data: dense rows are padded with zeros to
    ``ncols``, dict rows leave the trailing columns out."""
    entries = entry_kinds[draw(st.sampled_from(sorted(entry_kinds)))]
    m = draw(st.integers(0, 6))
    rows = draw(matrices(st.integers(0, 7), st.just(m), entries))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * m)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    pad = draw(st.integers(0, 2))
    if draw(st.booleans()):
        rows = [ra.sparse(row) for row in rows]
    else:
        rows = [row + [0] * pad for row in rows]
    return rows, m + pad


def nullspace_from(red, pivots, ncols):
    """The free-column null space basis read off a reduced echelon form."""
    return [
        tuple(
            ra.ONE if c == fc else -red[pivots.index(c)][fc] if c in pivots else ra.ZERO
            for c in range(ncols)
        )
        for fc in range(ncols)
        if fc not in pivots
    ]


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
@example(([], 0))
@example(([], 3))
def test_rref_and_nullspace_match_the_row_reducer(case):
    rows, ncols = case
    want = rref_by_row_reducer(rows, ncols)
    got = ra.rref(iter(rows), ncols)
    assert got == want
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert ra.nullspace(rows, ncols) == nullspace_from(*want, ncols)
    if not rows or not isinstance(rows[0], dict):
        assert ra.rref(rows) == rref_by_row_reducer(rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: matrices(st.just(n), st.just(n), entry_kinds["big"])
))
def test_mat_inverse_matches_the_row_reducer(a):
    a = ra.mat(a)
    n = len(a)
    red, pivots = rref_by_row_reducer(r + e for r, e in zip(a, ra.mat_identity(n)))
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            ra.mat_inverse(a)
    else:
        assert ra.mat_inverse(a) == tuple(tuple(row[n:]) for row in red)


def no_floats(values) -> bool:
    return all(type(x) in (int, Fraction) for x in values)


@settings(max_examples=100, deadline=None)
@given(
    matrices(st.integers(1, 6), st.integers(2, 6), st.integers(-6, 6)),
    st.lists(st.integers(-6, 6), min_size=6, max_size=6),
)
def test_row_reducer_on_ints_matches_fractions(rows, probe):
    # the last entry of each row is its right-hand side
    def system(row):
        return {**ra.sparse(row[:-1]), ra.RHS: row[-1]}

    ints, fracs = ra.RowReducer(), ra.RowReducer()
    for row in rows:
        grew = ints.add(system(row))
        assert grew == fracs.add(system([Fraction(x) for x in row]))
    assert ints.pivot_rows == fracs.pivot_rows
    assert list(ints.pivot_rows) == list(fracs.pivot_rows)
    assert all(no_floats(prow.values()) for prow in ints.pivot_rows.values())
    assert ints.consistent == fracs.consistent
    got = ints.solve()
    assert got == fracs.solve() and no_floats(got.values())
    probe = probe[: len(rows[0]) - 1]
    got = ints.residual(probe)
    assert got == fracs.residual([Fraction(x) for x in probe])
    assert no_floats(got.values())


A, B = Coefficient.parameter("a"), Coefficient.parameter("b")


@st.composite
def laurent_coefficients(draw):
    """A ``Coefficient`` in a, b over a power of a.  With a monomial
    denominator its printed form is canonical, so it cannot depend on the
    order in which an eliminator combined the right-hand sides."""
    terms = draw(st.lists(st.tuples(fractions, st.integers(0, 2), st.integers(0, 2)),
                          min_size=1, max_size=3))
    num = sum((c * math.prod([A] * i + [B] * j, start=ra.ONE) for c, i, j in terms), ra.ZERO)
    return num / math.prod([A] * draw(st.integers(0, 2)), start=ra.ONE)


rhs_kinds = {
    "fraction": st.one_of(st.integers(-6, 6), fractions, big_fractions),
    "coefficient": laurent_coefficients(),
}


@st.composite
def systems(draw):
    """``oracle_cases`` rows, each given a right-hand side of one kind, or
    none."""
    rows, ncols = draw(oracle_cases())
    kind = draw(st.sampled_from([None, *sorted(rhs_kinds)]))
    if kind is None:
        return rows, ncols
    return [{**ra.sparse(row), ra.RHS: draw(rhs_kinds[kind])} for row in rows], ncols


def rational_ratio(x, y):
    """x / y when it is a rational number, else None."""
    if not isinstance(x, Coefficient) and not isinstance(y, Coefficient):
        return Fraction(x) / y
    q = Coefficient.coerce(x) / y
    m = next(iter(q.den.terms))
    c = q.num.terms.get(m, 0) / q.den.terms[m]
    return c if q == c else None


def is_rational_multiple(got: dict, want: dict) -> bool:
    """got == lam * want, entry by entry, for one nonzero rational lam."""
    if got.keys() != want.keys():
        return False
    if not got:
        return True
    col = max(got)
    lam = rational_ratio(got[col], want[col])
    return bool(lam) and all(got[v] == lam * want[v] for v in got)


def no_float_entries(values) -> bool:
    return all(type(x) is not float for x in values)


@settings(max_examples=200, deadline=None)
@given(systems())
@example(([{0: 2, 1: 4, ra.RHS: 1}, {0: 3, 1: 6, ra.RHS: A}], 2))
def test_row_reducer_matches_the_dividing_oracle(case):
    rows, ncols = case
    got, want = ra.RowReducer(ncols), RowReducerByDivision()
    for row in rows:
        residual = got.residual(row)
        assert is_rational_multiple(residual, want.residual(row))
        assert no_float_entries(residual.values())
        assert got.add(row) == want.add(row)
        assert list(got.pivot_rows) == list(want.pivot_rows)
        assert got.rank == want.rank and got.consistent == want.consistent
    assert all(no_float_entries(prow.values()) for prow in got.pivot_rows.values())
    values, expected = got.solve(), want.solve()
    assert values == expected and no_float_entries(values.values())
    assert {v: str(x) for v, x in values.items()} == {v: str(x) for v, x in expected.items()}
