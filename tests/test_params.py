"""Rational-function coefficients and parameter-carrying polynomials."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import orbitscope
from orbitscope.errors import UnknownParameter
from orbitscope.params import P_KIND, Coefficient, compose_param, substitute_param
from orbitscope.polynomials import J_KIND, X_KIND, Polynomial, compose


def rand_coeff(rng, names, depth=2):
    c = Coefficient.number(rng.randint(-4, 4))
    for _ in range(depth):
        pick = rng.choice(names)
        op = rng.randint(0, 2)
        term = Coefficient.parameter(pick)
        if op == 0:
            c = c + term
        elif op == 1:
            c = c * term
        else:
            c = c - Coefficient.number(rng.randint(1, 3)) * term
    return c


def test_number_and_parameter_basics():
    a = Coefficient.parameter("a")
    two = Coefficient.number(2)
    assert (a + a) == two * a
    assert (a - a).is_zero()
    assert a.parameters() == {"a"}
    five = two + Coefficient.number(3)
    assert five.parameters() == set() and five == Coefficient.number(5)
    assert Coefficient.number(0).is_zero()
    # a Fraction operand reads as a constant, on either side
    half = Fraction(1, 2)
    assert half / a == Coefficient.number(half) / a
    assert half + a == a + half == Coefficient.number(half) + a
    assert half * a == Coefficient.number(half) * a


def test_field_identities_random():
    rng = random.Random(2)
    names = ["a", "b", "c"]
    for _ in range(30):
        x = rand_coeff(rng, names)
        y = rand_coeff(rng, names)
        z = rand_coeff(rng, names)
        assert (x + y) * z == x * z + y * z
        assert x + y == y + x
        assert (x - y) + y == x
        if not z.is_zero():
            assert (x * z) / z == x
            assert (x / z) * z == x


def test_division_normalization():
    # -c / (16 b): denominator is made monic, scale moves to the numerator
    c = Coefficient.parameter("c")
    b = Coefficient.parameter("b")
    kappa = (-c) / (Coefficient.number(16) * b)
    assert str(kappa) == "(-1/16*c)/(b)"
    assert kappa.num.kind == kappa.den.kind == P_KIND
    assert kappa.num == c.num.scale(Fraction(-1, 16))
    assert kappa.den == b.num
    assert kappa * Coefficient.number(16) * b == -c


def test_monomial_cancellation():
    a = Coefficient.parameter("a")
    b = Coefficient.parameter("b")
    x = (a * b) / (b * b)
    assert x.num == a.num
    assert x.den == b.num
    assert str(x) == "(a)/(b)"


def test_exact_cancellation_of_critical_factor():
    # 16*a*k^2 + 12*a*mu with mu = -4 k^2 / 3 vanishes identically
    a = Coefficient.parameter("a")
    c = Coefficient.parameter("c")
    b = Coefficient.parameter("b")
    kappa = (-c) / (Coefficient.number(16) * b)
    mu = Coefficient.number(Fraction(-4, 3)) * kappa * kappa
    total = Coefficient.number(16) * a * kappa * kappa + Coefficient.number(12) * a * mu
    assert total.is_zero()


def test_uniform_nonzero():
    a = Coefficient.parameter("a")
    b = Coefficient.parameter("b")
    assert not a.uniform_nonzero({"a"})
    assert b.uniform_nonzero({"a"})
    assert (a + b).uniform_nonzero({"a"})
    assert not (a * b).uniform_nonzero({"a"})
    assert Coefficient.number(3).uniform_nonzero({"a", "b"})
    assert not Coefficient.number(0).uniform_nonzero(set())


def test_evaluate():
    a = Coefficient.parameter("a")
    b = Coefficient.parameter("b")
    expr = (a * a - b) / (b + Coefficient.number(1))
    val = expr.evaluate({"a": Fraction(3), "b": Fraction(2)})
    assert val == Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        expr.evaluate({"a": 1, "b": -1})


def test_evaluate_names_missing_parameters():
    a = Coefficient.parameter("a")
    b = Coefficient.parameter("b")
    with pytest.raises(UnknownParameter) as err:
        (a / b).evaluate({"a": 1})
    assert "unassigned parameters: b" in str(err.value)
    assert not isinstance(err.value, KeyError)
    # a parameter the coefficient does not involve may be left out
    assert (a + 1).evaluate({"a": 2}) == 3


ORACLE_NAMES = ["a", "b", "a2", "a10"]
oracle_leaves = st.one_of(
    st.sampled_from(ORACLE_NAMES),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
oracle_trees = st.recursive(
    oracle_leaves,
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
    max_leaves=8,
)
OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def fold(tree, leaf):
    """The value of an expression tree, its leaves read by ``leaf``."""
    if isinstance(tree, tuple):
        op, left, right = tree
        return OPS[op](fold(left, leaf), fold(right, leaf))
    return leaf(tree)


@settings(max_examples=60, deadline=None)
@given(
    oracle_trees,
    st.fixed_dictionaries(
        {n: st.fractions(min_value=-5, max_value=5, max_denominator=7) for n in ORACLE_NAMES}
    ),
)
def test_evaluate_commutes_with_arithmetic(tree, point):
    # the tree's value with Fractions at the leaves, off every pole on the way
    try:
        expect = fold(tree, lambda t: point[t] if isinstance(t, str) else t)
    except ZeroDivisionError:
        assume(False)
    coeff = fold(
        tree, lambda t: Coefficient.parameter(t) if isinstance(t, str) else t
    )
    coeff = Coefficient.coerce(coeff)
    assert coeff.evaluate(point) == expect


INTERNING_SCRIPT = """
import sys
from orbitscope.params import Coefficient as C

def exprs():
    a, b, a2, a10 = (C.parameter(n) for n in ("a", "b", "a2", "a10"))
    return [
        a10 + a2,
        (a10 * a2 - 3 * b) / (2 * a2 + a10),
        (a * a - b * b + a * b) / (b * b + 4 * a10),
        (a2 * a10) / (a10 * a10 * b),
    ]

for name in sys.argv[1:]:
    C.parameter(name)
before = [C.parameter("a10") + 1, C.parameter("a10") / 3]
later = C.parameter("zz")
after = [C.parameter("a10") + 1, C.parameter("a10") / 3]
for x, y in zip(before, after):
    assert x == y and y == x and str(x) == str(y)
    assert x + y == 2 * y and y + x == 2 * y
    assert x * y == y * y and (x - y).is_zero()
    assert x * later == y * later and x + later == later + y
for coeff in before + exprs():
    assert coeff.uniform_nonzero({"never-interned"})
    assert coeff.denominator_survives({"never-interned"})
point = {"a": 2, "b": 3, "a2": 5, "a10": 7}
print("\\n".join(f"{c} = {c.evaluate(point)}" for c in exprs()))
"""


def test_interning_order_does_not_matter():
    # the name table lives for the process: each order gets a fresh one
    src = str(Path(orbitscope.__file__).resolve().parents[1])

    def printed(order):
        run = subprocess.run(
            [sys.executable, "-c", INTERNING_SCRIPT, *order],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr
        return run.stdout

    first = printed(["a10", "b", "a2", "a"])
    assert first == printed(["a", "a2", "b", "a10"])
    assert "a2" in first and first.index("a2") < first.index("a10")


def test_sum_over_a_common_denominator_keeps_it():
    a = Coefficient.parameter("a")
    den = a + Coefficient.number(1)
    total = Coefficient.number(1) / den + Coefficient.number(2) / den
    assert total.den == den.num
    assert total == Coefficient.number(3) / den


def test_zero_division_guard():
    a = Coefficient.parameter("a")
    with pytest.raises(ZeroDivisionError):
        a / (a - a)


def test_str_forms():
    a = Coefficient.parameter("a")
    b = Coefficient.parameter("b")
    assert str(Coefficient.number(Fraction(3, 2))) == "3/2"
    assert str(a) == "a"
    assert "/" in str(a / b)


def lift(p):
    """The same polynomial with every coefficient a constant Coefficient."""
    return Polynomial(p.nvars, {m: Coefficient.number(c) for m, c in p.terms.items()}, p.kind)



def test_parampoly_arithmetic_matches_plain():
    rng = random.Random(9)
    for _ in range(10):
        terms1 = {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        }
        terms2 = {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        }
        p1 = Polynomial(2, terms1)
        p2 = Polynomial(2, terms2)
        q1 = lift(p1)
        q2 = lift(p2)
        assert (q1 * q2).evaluate_params({}) == p1 * p2
        assert (q1 + q2).evaluate_params({}) == p1 + p2
        assert (q1 - q2).evaluate_params({}) == p1 - p2
        for i in range(2):
            assert q1.partial(i).evaluate_params({}) == p1.partial(i)


def test_compose_param_matches_plain_compose():
    psi = Polynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-2)}, J_KIND)
    m1 = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    m2 = Polynomial(2, {(1, 1): Fraction(3)})
    direct = compose(psi, [m1, m2])
    lifted = compose_param(lift(psi), [lift(m1), lift(m2)])
    assert lifted.evaluate_params({}) == direct


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys2 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fracs, max_size=4
).map(lambda d: Polynomial(2, d))


@settings(max_examples=40, deadline=None)
@given(polys2, polys2, polys2, polys2, st.integers(0, 6))
def test_lifted_coefficients_match_fractions(p1, p2, m1, m2, cap):
    # Fraction and constant-Coefficient polynomials are one type: every
    # operation agrees once the parameters (there are none) are pinned
    q1, q2 = lift(p1), lift(p2)
    assert (q1 * q2).evaluate_params({}) == p1 * p2
    assert (q1 + q2).evaluate_params({}) == p1 + p2
    assert (q1 - q2).evaluate_params({}) == p1 - p2
    assert (q1 * p2).evaluate_params({}) == p1 * p2        # mixed operands
    for i in range(2):
        assert q1.partial(i).evaluate_params({}) == p1.partial(i)
    full = compose(p1, [m1, m2])
    for maps in ([lift(m1), lift(m2)], [m1, lift(m2)]):
        cut = compose(q1, maps, truncate_at=cap)
        assert cut.evaluate_params({}) == full.truncate(cap)
        assert compose(q1, maps).evaluate_params({}) == full


def test_weighted_parts_and_truncate():
    a = Coefficient.parameter("a")
    p = Polynomial(1, {(1,): a, (2,): 1, (3,): a}, J_KIND)
    weights = (2,)
    assert p.homogeneous_parts(weights)[4].terms == {(2,): Coefficient.number(1)}
    assert p.truncate(4, weights) == Polynomial(1, {(1,): a, (2,): 1}, J_KIND)
    assert p.degree(weights) == 6
    assert p.parameters() == {"a"}


def test_compose_param_truncation():
    # x -> x + x^2 truncated at degree 3 agrees with full expansion cut off
    p = Polynomial(1, {(4,): Fraction(1)})
    shift = Polynomial(1, {(1,): Fraction(1), (2,): Fraction(1)})
    full = compose_param(p, [shift])
    cut = compose_param(p, [shift], truncate_at=5)
    assert cut == full.truncate(5)


def test_substitute_param_with_parameters():
    a = Coefficient.parameter("a")
    psi = Polynomial(1, {(1,): a, (2,): 1}, J_KIND)
    basis = [Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})]
    phi = substitute_param(psi, basis)
    assert phi.kind == X_KIND
    pinned = phi.evaluate_params({"a": Fraction(-1)})
    expect = Polynomial(
        2,
        {
            (2, 0): Fraction(-1),
            (0, 2): Fraction(-1),
            (4, 0): Fraction(1),
            (2, 2): Fraction(2),
            (0, 4): Fraction(1),
        },
    )
    assert pinned == expect
