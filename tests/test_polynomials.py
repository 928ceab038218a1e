"""Polynomial algebra: ring axioms, group action, Reynolds, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import rationals as ra
from orbitscope.errors import KindMismatch, PolynomialParseError
from orbitscope.polynomials import (
    J_KIND,
    NumericPoly,
    Polynomial,
    act,
    compile_gradient,
    compile_polynomial,
    compose,
    monomials_of_degree,
    parse_polynomial,
    reynolds,
    substitute,
)

X2 = Polynomial(2, {(2, 0): 1})
XY = Polynomial(2, {(1, 1): 1})
Y2 = Polynomial(2, {(0, 2): 1})


def random_poly(rng, nvars=2, max_degree=3, kind="x"):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Polynomial(nvars, terms, kind)


def test_zero_terms_dropped():
    p = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert list(p.terms) == [(0, 1)]
    assert Polynomial.zero(2).is_zero()


def test_canonical_term_order():
    p = X2 + XY + Y2 + Polynomial.constant(2, 7)
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_monomials_of_degree_order():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomials_of_degree(4, 8)) == 165


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(monos2, small_fracs, max_size=5).map(
    lambda d: Polynomial(2, d)
)


@settings(max_examples=60, deadline=None)
@given(polys2, polys2, polys2)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


def test_scale_and_pow():
    p = X2 + XY
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    assert p ** 2 == p * p
    assert p ** 0 == Polynomial.constant(2, 1)


def test_kind_mismatch():
    xp = Polynomial(2, {(1, 0): 1}, "x")
    jp = Polynomial(2, {(1, 0): 1}, "J")
    with pytest.raises(KindMismatch):
        xp + jp
    with pytest.raises(KindMismatch):
        xp * jp


def test_act_rotation():
    # x -> p(Tx): first coordinate of rot90 @ (x, y) is -y
    rot90 = ra.mat([[0, -1], [1, 0]])
    x1 = Polynomial.variable(0, 2)
    assert act(rot90, x1) == Polynomial(2, {(0, 1): -1})
    # x1^2 + x2^2 is rotation invariant
    r2 = X2 + Y2
    assert act(rot90, r2) == r2


def test_act_composition_contravariant():
    # act(A, act(B, p)) substitutes B @ A
    rng = random.Random(3)
    a = ra.mat([[1, 1], [0, 1]])
    b = ra.mat([[2, 0], [1, 1]])
    for _ in range(5):
        p = random_poly(rng)
        assert act(a, act(b, p)) == act(ra.mat_mul(b, a), p)


def test_act_chain_rule():
    # gradient of p(Tx) equals T^T (grad p)(Tx)
    rng = random.Random(5)
    t = ra.mat([[1, 2], [-1, 1]])
    tt = ra.mat_transpose(t)
    for _ in range(5):
        p = random_poly(rng)
        lhs = act(t, p).gradient()
        gp = [act(t, q) for q in p.gradient()]
        rhs = [
            gp[0].scale(tt[i][0]) + gp[1].scale(tt[i][1]) for i in range(2)
        ]
        assert lhs == rhs


def test_reynolds_projection(z2_plane):
    p = Polynomial(2, {(1, 0): 1, (2, 0): 3})
    rp = reynolds(z2_plane, p)
    # odd part averages away
    assert rp == Polynomial(2, {(2, 0): 3})
    assert reynolds(z2_plane, rp) == rp
    for t in z2_plane.elements:
        assert act(t, rp) == rp


def test_reynolds_d4_degree4(d4):
    assert reynolds(d4, Polynomial(2, {(4, 0): 1})) == (
        Polynomial(2, {(4, 0): Fraction(1, 2), (0, 4): Fraction(1, 2)})
    )
    assert reynolds(d4, Polynomial(2, {(3, 1): 1})).is_zero()
    assert reynolds(d4, Polynomial(2, {(2, 2): 1})) == Polynomial(2, {(2, 2): 1})


def test_gradient():
    p = Polynomial(2, {(2, 1): 1})
    assert p.gradient() == [Polynomial(2, {(1, 1): 2}), Polynomial(2, {(2, 0): 1})]


def test_evaluate_exact_and_float():
    p = X2 + XY.scale(Fraction(1, 2))
    v = p.evaluate((Fraction(1, 3), Fraction(3)))
    assert v == Fraction(1, 9) + Fraction(1, 2)
    f = p.evaluate((0.5, 2.0))
    assert abs(f - (0.25 + 0.5)) < 1e-15


def test_substitute_footnote_relation():
    # J1*J2 - J3^2 with J = (x^2, y^2, xy) collapses to zero
    psi = Polynomial(3, {(1, 1, 0): 1, (0, 0, 2): -1}, J_KIND)
    assert substitute(psi, [X2, Y2, XY]).is_zero()


def test_substitute_chain_rule():
    # d/dx_a Psi(J(x)) = sum_i (dPsi/dJ_i)(J(x)) * dJ_i/dx_a
    rng = random.Random(9)
    maps = [X2 + Y2, XY]
    for _ in range(5):
        psi = random_poly(rng, nvars=2, max_degree=2, kind="J")
        phi = substitute(psi, maps)
        for a in range(2):
            lhs = phi.partial(a)
            rhs = Polynomial.zero(2)
            for i in range(2):
                rhs = rhs + substitute(psi.partial(i), maps) * maps[i].partial(a)
            assert lhs == rhs


def test_compose_matches_pointwise():
    rng = random.Random(11)
    maps = [X2 + XY, Y2 - X2]
    for _ in range(5):
        p = random_poly(rng)
        q = compose(p, maps)
        for _ in range(4):
            pt = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            mapped = tuple(m.evaluate(pt) for m in maps)
            assert q.evaluate(pt) == p.evaluate(mapped)


def test_text_round_trip():
    rng = random.Random(13)
    for kind in ("x", "J"):
        for _ in range(30):
            p = random_poly(rng, nvars=3, kind=kind)
            assert parse_polynomial(p.to_text(), 3, kind) == p


def test_text_format_explicit():
    p = Polynomial(2, {(2, 1): Fraction(3, 2), (0, 0): -1})
    assert p.to_text() == "3/2 * x1^2 x2^1 + -1"
    assert parse_polynomial("3/2 * x1^2 x2^1 + -1", 2) == p


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1 * y1^2", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("one", 2)


def test_pretty_smoke():
    p = X2 - XY.scale(2) + Polynomial.constant(2, 1)
    assert p.pretty() == "x1^2 - 2*x1*x2 + 1"


def test_numeric_compile_matches_exact():
    rng = random.Random(17)
    for _ in range(10):
        p = random_poly(rng, nvars=3)
        np_eval = NumericPoly(p)
        pt = [rng.uniform(-2, 2) for _ in range(3)]
        assert abs(np_eval(pt) - p.evaluate(pt)) < 1e-9 * (1 + abs(np_eval(pt)))
    many = NumericPoly(X2 + Y2).eval_many([[1.0, 2.0], [3.0, 4.0]])
    assert many.tolist() == [5.0, 25.0]


monos3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys3 = st.dictionaries(monos3, small_fracs, max_size=8).map(lambda d: Polynomial(3, d))
points3 = st.lists(
    st.floats(-3, 3, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
)


@settings(max_examples=80, deadline=None)
@given(st.lists(polys3, min_size=1, max_size=4), points3)
def test_kernel_over_a_map_is_bit_identical(polys, x):
    # one stacked kernel computes each output with exactly the operations
    # of that output's own kernel, so equality is exact, not approximate
    p = polys[0]
    grad = compile_gradient(p)(x)
    assert grad.shape == (3,)
    for i in range(3):
        assert grad[i] == compile_polynomial(p.partial(i))(x)
    values = compile_polynomial(polys)(x)
    assert values.tolist() == [compile_polynomial(q)(x) for q in polys]
    pts = [x, [-c for c in x]]
    many = compile_polynomial(polys).eval_many(pts)
    assert many.shape == (2, len(polys))
    for j, q in enumerate(polys):
        assert many[:, j].tolist() == compile_polynomial(q).eval_many(pts).tolist()
