"""Polynomial algebra: ring axioms, group action, Reynolds, serialization."""

import gc
import io
import math
import random
import re
import sys
import tokenize
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from conftest import cli_default_assignment, compiled_sources, poly_pow

from orbitscope import dynamics, landau, rationals as ra
from orbitscope.errors import KindMismatch
from orbitscope.invariants import compute_mib
from orbitscope.landau import build_generic
from orbitscope.polynomials import (
    J_KIND,
    NumericPoly,
    Polynomial,
    act,
    compile_gradient,
    compile_polynomial,
    compose,
    monomials_of_degree,
    power_products,
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
    assert poly_pow(p, 2) == p * p
    assert poly_pow(p, 3) == p * p * p
    assert poly_pow(p, 0) == Polynomial.constant(2, 1)


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
    tt = tuple(zip(*t))
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


def test_power_products_table_is_freed_without_the_cycle_collector():
    # the table is no reference cycle, so it goes when its last user does,
    # not whenever the cyclic garbage collector next runs
    maps = [X2 + XY, Y2 - X2]
    want = compose(Polynomial(2, {(3, 2): 1}), maps)
    gc.collect()
    gc.disable()
    try:
        image = power_products(maps)
        assert image((3, 2)) == want
        del image
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monomials_of_degree_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert len(monomials_of_degree(3, 9)) == 55
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_text_format_explicit():
    p = Polynomial(2, {(2, 1): Fraction(3, 2), (0, 0): -1})
    assert p.to_text() == "3/2 * x1^2 x2^1 + -1"


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


def _assert_map_is_bit_identical(polys, x):
    # each output of a map runs the statements of that output's own kernel
    # over the same shared powers, so equality is exact, not approximate
    p = polys[0]
    grad = compile_gradient(p)(x)
    assert isinstance(grad, tuple) and len(grad) == p.nvars
    for i in range(p.nvars):
        assert grad[i] == compile_polynomial(p.partial(i))(x)
    values = compile_polynomial(polys)(x)
    assert values == tuple(compile_polynomial(q)(x) for q in polys)
    pts = [x, [-c for c in x]]
    many = compile_polynomial(polys).eval_many(pts)
    assert many.shape == (2, len(polys))
    for j, q in enumerate(polys):
        assert many[:, j].tolist() == compile_polynomial(q).eval_many(pts).tolist()
        assert many[:, j].tolist() == [compile_polynomial(q)(pt) for pt in pts]


@settings(max_examples=80, deadline=None)
@given(st.lists(polys3, min_size=1, max_size=4), points3)
def test_kernel_over_a_map_is_bit_identical(polys, x):
    _assert_map_is_bit_identical(polys, x)


@pytest.mark.parametrize("group", ["d4", "o_rot"])
def test_report_kernel_over_a_map_is_bit_identical(request, group):
    # minimize reports phi, its gradient and its Hessian from one kernel of
    # [phi, *grads, *hess]: each reads as from a kernel of its own
    model = build_generic(compute_mib(request.getfixturevalue(group)))
    phi = model.potential(cli_default_assignment(model))
    grads = phi.gradient()
    hess = [g.partial(j) for g in grads for j in range(phi.nvars)]
    rng = random.Random(3)
    for _ in range(3):
        x = [rng.uniform(-2, 2) for _ in range(phi.nvars)]
        _assert_map_is_bit_identical([phi, *grads, *hess], x)


def _kernel_bound(p, point):
    """C * eps * Sum |c_m x^m| with C = degree + number of terms.

    A term takes `degree` float multiplications after the coefficient is
    rounded, and the left-to-right sum of N terms adds N - 1 roundings, so
    the computed value is within gamma_(degree + N) * Sum |c_m x^m| of the
    exact one (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1 and 4.2), with gamma_k = k u / (1 - k u) < k eps for unit roundoff
    u = eps / 2.
    """
    c_factor = max(p.degree(), 0) + len(p.terms)
    magnitude = sum(
        abs(c) * abs(math.prod(x**e for x, e in zip(point, m))) for m, c in p.terms.items()
    )
    return c_factor * Fraction(sys.float_info.epsilon) * magnitude


def test_kernel_within_rounding_bound_of_exact_value():
    rng = random.Random(29)
    for _ in range(200):
        p = random_poly(rng, nvars=3, max_degree=4)
        p = p + Polynomial(3, {(0, 0, 0): Fraction(rng.randint(-9, 9), rng.randint(1, 7))})
        # dyadic rationals are floats exactly, so only the kernel rounds
        point = [Fraction(rng.randint(-2048, 2048), 1024) for _ in range(3)]
        got = compile_polynomial(p)([float(c) for c in point])
        assert abs(Fraction(got) - p.evaluate(point)) <= _kernel_bound(p, point)


def test_kernel_compiles_five_thousand_terms():
    # one expression of this many terms overflows compile's recursion
    rng = random.Random(5)
    terms = {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
             for d in range(31) for m in monomials_of_degree(3, d)}
    p = Polynomial(3, terms)
    assert len(p.terms) >= 5000
    kernel = compile_polynomial(p)
    point = [Fraction(1, 2), Fraction(-3, 4), Fraction(7, 8)]
    pts = [[float(c) for c in point], [0.25, 0.5, -1.0]]
    value = kernel(pts[0])
    assert abs(Fraction(value) - p.evaluate(point)) <= _kernel_bound(p, point)
    assert kernel.eval_many(pts).tolist() == [kernel(pt) for pt in pts]


def test_kernel_constant_and_zero_outputs():
    pts = [[1.5, -2.0], [0.0, 3.0], [-1.0, -1.0]]
    linear = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(-2, 5)})
    grad = compile_gradient(linear)
    assert grad(pts[0]) == (3.0, -0.4)
    assert grad.eval_many(pts).tolist() == [[3.0, -0.4]] * 3
    zero = compile_polynomial(Polynomial.zero(2))
    assert zero(pts[0]) == 0.0 and isinstance(zero(pts[0]), float)
    assert zero.eval_many(pts).tolist() == [0.0] * 3
    assert compile_gradient(Polynomial.constant(2, 5)).eval_many(pts).tolist() == [[0.0, 0.0]] * 3
    mixed = compile_polynomial([X2, Polynomial.zero(2), Polynomial.constant(2, 7)])
    assert mixed(pts[0]) == (2.25, 0.0, 7.0)
    assert mixed.eval_many(pts).tolist() == [[2.25, 0.0, 7.0], [0.0, 0.0, 7.0], [1.0, 0.0, 7.0]]


_PLAIN_OPS = {"(", ")", ",", ":", "=", "*", "+", "-"}
# the fused descent and Runge-Kutta templates also divide, compare, index
# and build lists
_FUSED_OPS = _PLAIN_OPS | {"/", ">", "<", "<=", "==", "[", "]"}
# every number the templates write; no coefficient is written at all
_TEMPLATE_LITERALS = {"0", "1", "2", "3", "40", "0.0", "0.5", "1.0", "2.0", "6.0",
                      "100.0", "0.001", "0.0001", "1e-18"}


def _source_tokens(source: str, ops: set) -> tuple[set, set, set]:
    """The names, number literals and string literals of generated source,
    which may hold no other tokens than the operators ``ops`` and layout."""
    names, literals, strings = set(), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            names.add(tok.string)
        elif tok.type == tokenize.NUMBER:
            literals.add(tok.string)
        elif tok.type == tokenize.STRING:
            strings.add(tok.string)
        elif tok.type == tokenize.OP:
            assert tok.string in ops, tok
        else:
            assert tok.type in {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER}, tok
    return names, literals, strings


def _kernels(polys, phi, field, energy):
    """The plain, descent and Runge-Kutta kernels, each with the
    coefficients it should bind, in the order of its bodies."""
    def values(ps):
        return [float(c) for p in ps for _, c in p.sorted_terms()]

    grads = phi.gradient()
    hess = [g.partial(j) for g in grads for j in range(phi.nvars)]
    descent = values([*grads, phi, *hess]) + values([phi]) + values(grads)
    return {
        "plain": (compile_polynomial(polys)._fn, values(polys)),
        "descent": (landau._descent(phi, grads, hess), descent),
        "rk4": (dynamics._rk4_kernel(field, energy), 4 * values(field) + values([energy])),
    }


def test_kernel_source_holds_only_floats_and_coordinate_names(
    monkeypatch, fresh_kernel_cache
):
    # no coefficient reaches compile, as text or as a literal: every
    # source compiled is a function of the polynomials' supports alone,
    # and each coefficient is bound as a parameter default equal to
    # float(c), in the plain kernel and in the fused descent and
    # Runge-Kutta kernels built around it
    compiled = compiled_sources(monkeypatch)
    rng = random.Random(11)
    long_poly = Polynomial(2, {m: Fraction(rng.randint(1, 9), 3)
                               for d in range(25) for m in monomials_of_degree(2, d)})
    assert len(long_poly.terms) > 300
    odd = X2.scale(Fraction(-1, 3)) + Polynomial.constant(2, 10**30)
    polys = [long_poly, Polynomial.zero(2), odd]
    # the gradient of phi holds the constants 10**30 and -1/3
    phi = long_poly + Polynomial(2, {(1, 0): 10**30, (0, 1): Fraction(-1, 3)})
    kernels = _kernels(polys, phi, polys[:2], odd)
    assert len(compiled) == 3
    generated = re.compile(
        r"(x|[tgyzwnud]|k\d_)\d+"            # coordinates, stage points, stage values
        r"|(g_|t_|u_|k\d_|p_)?[xtyzwnu]\d+_\d+"  # powers, tagged by inlined body
        r"|(g_|t_|u_|k\d_|p_)?[sc]\d+"  # long sums and coefficients of a body
    )
    keywords = {"def", "_k", "return", "for", "in", "while", "if", "not", "and",
                "else", "break", "True", "None"}
    template = {"tol", "gtol", "escape", "steps", "newton_steps", "i", "j", "k", "p",
                "r", "m", "a", "d", "fx", "gn", "step", "damp", "h", "half", "sixth"}
    builtins = {"hypot", "isfinite", "abs", "range"}
    for kind, (fn, want) in kernels.items():
        plain = kind == "plain"
        assert fn.source in compiled, kind
        names, literals, strings = _source_tokens(fn.source, _PLAIN_OPS if plain else _FUSED_OPS)
        allowed = keywords | (set() if plain else template | builtins)
        assert {n for n in names - allowed if not generated.fullmatch(n)} == set(), kind
        assert literals <= _TEMPLATE_LITERALS, kind
        assert strings <= (set() if plain else {"'ok'", "'escaped'", "'unconverged'"}), kind
        bound = fn.__defaults__
        assert [v.hex() for v in bound] == [v.hex() for v in want], kind
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        assert all(re.fullmatch(r"([a-z]\d?_)?c\d+", p) for p in params[-len(bound):]), kind
    assert {"1e+30", "0.3333333333333333"} & set().union(
        *(_source_tokens(s, _FUSED_OPS)[1] for s in compiled)) == set()
    # other coefficients on the same supports: the same sources
    scaled = [p.scale(Fraction(-7, 5)) for p in (*polys, phi)]
    again = _kernels(scaled[:3], scaled[3], scaled[:2], scaled[2])
    assert {kind: fn.source for kind, (fn, _) in again.items()} == {
        kind: fn.source for kind, (fn, _) in kernels.items()}
    assert all(again[k][0].__defaults__ != kernels[k][0].__defaults__ for k in kernels)
    plain = _source_tokens(kernels["plain"][0].source, _PLAIN_OPS)[0]
    assert {"x0", "x1", "x0_24", "s0", "c0"} <= plain
    assert {n for n in plain if not re.fullmatch(r"[xc]\d+(_\d+)?|s\d+|def|_k|return", n)} == set()
    descent = _source_tokens(kernels["descent"][0].source, _FUSED_OPS)[0]
    assert {"hypot", "isfinite", "g_s0", "t_s0", "u_c0"} <= descent
    assert {"k1_s0", "k4_w1_24", "p_n0_2", "k4_c0"} <= _source_tokens(
        kernels["rk4"][0].source, _FUSED_OPS)[0]
