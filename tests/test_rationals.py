"""Exact linear algebra checks: small frozen cases plus random properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import rationals as ra


def rand_matrix(rng, n, m):
    return tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m))
        for _ in range(n)
    )


def test_det_and_inverse_exact():
    a = ra.mat([[1, 2], [3, 5]])
    assert ra.mat_det(a) == Fraction(-1)
    inv = ra.mat_inverse(a)
    assert ra.mat_mul(a, inv) == ra.mat_identity(2)


def test_inverse_random_property():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        if ra.mat_det(a) == 0:
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
                assert ra.dot(row, v) == 0


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
    assert rr.contains(ra.vec([1, 0, -1]))
    assert not rr.contains(ra.vec([0, 0, 1]))
    assert rr.rank == 2


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda nm: st.lists(
            st.lists(fractions, min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0],
        )
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(st.just(n), st.just(n))))
def test_inverse_property(a):
    a = ra.mat(a)
    if ra.mat_det(a) == 0:
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


@settings(max_examples=80, deadline=None)
@given(matrices(cols=st.integers(1, 6)))
def test_row_reducer_respects_admissible(rows):
    def integral(c):
        return c.denominator == 1

    rr = ra.RowReducer(admissible=integral)
    for row in rows:
        residual = rr.residual(row)
        pivot = rr.push(residual)
        passing = [c for c in sorted(residual) if integral(residual[c])]
        assert pivot == (passing[0] if passing else None)
    for col, prow in rr.pivot_rows.items():
        assert integral(prow[col])
