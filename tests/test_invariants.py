"""Invariant-theory layer: Molien counts, integrity bases, relations, P-matrix.

The independent oracle here is brute force: the dimension of the degree-d
invariant space is the exact rank of the Reynolds images of all degree-d
monomials, computed by row reduction with no series arithmetic involved.
Frozen values below were produced by that oracle and cross-checked by hand.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    A4_ROT_GENS,
    B3_GENS,
    B4_ROT_GENS,
    FLIP_X,
    FLIP_Y,
    O_ROT_GENS,
    REFLECT_LINE,
    ROT90,
    S3_PERM_GENS,
    S4_PERM_GENS,
    S5_GENS,
    char_poly_by_minors,
    conjugate,
    metric_by_fraction_sum,
    orbit,
    permutation_matrix,
    poly_pow,
    rational_conjugators,
)
from orbitscope import invariants, polynomials, rationals as ra
from orbitscope.errors import NotExpressible, NotInvariant
from orbitscope.groups import FiniteGroupRep, close_generators, invariant_metric
from orbitscope.invariants import (
    IntegrityBasis,
    _jacobian_determinant,
    compute_mib,
    express_in_basis,
    find_relations,
    invariant_space_basis,
    is_coregular,
    jmonomials_of_xdegree,
    molien_series,
    p_matrix,
)
from orbitscope.polynomials import (
    J_KIND,
    Polynomial,
    act,
    compose,
    linear_forms,
    monomials_of_degree,
    reynolds,
    substitute,
)


def brute_force_invariant_dim(rep, d):
    """Oracle: rank of {Reynolds(m) : m degree-d monomial}, exact."""
    monos = monomials_of_degree(rep.dim, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        img = reynolds(rep, Polynomial.monomial(m, 1))
        row = [Fraction(0)] * len(monos)
        for mm, c in img.terms.items():
            row[index[mm]] = c
        rows.append(row)
    reduced, _ = ra.rref(rows)
    return len(reduced)


def xpoly(nvars, terms):
    return Polynomial(nvars, {m: Fraction(c) for m, c in terms.items()})


def jpoly(k, terms):
    return Polynomial(k, {m: Fraction(c) for m, c in terms.items()}, J_KIND)


def elementary_symmetric(n, k):
    terms = {}
    for combo in itertools.combinations(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] = 1
        terms[tuple(e)] = 1
    return xpoly(n, terms)


def random_rational_point(rng, n):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))


def row_space(polys, monos):
    """The RREF of the coefficient rows of ``polys`` over ``monos``."""
    rows = [[p.terms.get(m, Fraction(0)) for m in monos] for p in polys]
    reduced, _ = ra.rref(rows, len(monos))
    return reduced


# the hyperoctahedral group B4 on R^4, order 384
B4_GENS = (
    permutation_matrix((1, 0, 2, 3)),
    permutation_matrix((1, 2, 3, 0)),
    ra.mat([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
)


# ------------------------------------------------------------ Molien series


def test_molien_matches_bruteforce(z2_line, z2_plane, z2xz2, z4, d4, d4_sheared, s3_perm):
    for rep in (z2_line, z2_plane, z2xz2, z4, d4, d4_sheared, s3_perm):
        series = molien_series(rep, 8)
        for d in range(9):
            assert series.coefficient(d) == brute_force_invariant_dim(rep, d)


def test_molien_matches_bruteforce_s4(s4_perm):
    series = molien_series(s4_perm, 6)
    for d in range(7):
        assert series.coefficient(d) == brute_force_invariant_dim(s4_perm, d)


def test_molien_frozen_z2_plane(z2_plane):
    assert molien_series(z2_plane, 4).coefficients == (1, 0, 3, 0, 5)


def test_molien_frozen_d4(d4):
    assert molien_series(d4, 4).coefficients == (1, 0, 1, 0, 2)


def test_molien_trivial_group_counts_all_monomials():
    rep = close_generators([ra.mat_identity(3)], name="trivial3")
    series = molien_series(rep, 8)
    for d in range(9):
        assert series.coefficient(d) == math.comb(3 + d - 1, d)


def test_molien_basic_shape(z2_plane, z4, s3_perm):
    for rep in (z2_plane, z4, s3_perm):
        series = molien_series(rep, 6)
        assert series.coefficient(0) == 1
        assert all(c >= 0 for c in series.coefficients)


def test_molien_invariant_under_conjugation(d4, d4_sheared):
    # similar representations have equal graded dimensions
    assert molien_series(d4, 8).coefficients == molien_series(d4_sheared, 8).coefficients


# the ladder groups, and o-rot, a4-rot and b4-rot, by generators
SUMMED_GROUPS = {
    "z2-line": (REFLECT_LINE,),
    "z2xz2": (FLIP_X, FLIP_Y),
    "d4": (ROT90, FLIP_Y),
    "s3-perm": S3_PERM_GENS,
    "s4-perm": S4_PERM_GENS,
    "b3": B3_GENS,
    "s5-std": S5_GENS,
    "o-rot": O_ROT_GENS,
    "a4-rot": A4_ROT_GENS,
    "b4-rot": B4_ROT_GENS,
}


@functools.cache
def _summed_group(name):
    return close_generators(SUMMED_GROUPS[name], name=name)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SUMMED_GROUPS)).flatmap(
    lambda name: st.tuples(
        st.just(name), rational_conjugators(len(SUMMED_GROUPS[name][0]))
    )
))
def test_group_sums_on_rational_conjugates(case):
    # the integer sums against the Fraction oracles, on S^-1 G S
    name, s = case
    assume(ra.mat_det(s) != 0)
    rep = close_generators(conjugate(SUMMED_GROUPS[name], s))
    assert invariants._char_polys(rep) == char_poly_by_minors(rep)
    assert molien_series(rep, 8) == molien_series(_summed_group(name), 8)
    eta = invariant_metric(rep).eta
    assert eta == metric_by_fraction_sum(rep)
    for t in rep.elements:
        assert ra.mat_mul(ra.mat_mul(tuple(zip(*t)), eta), t) == eta


@pytest.mark.parametrize("element, why", [
    (((Fraction(1, 2),),), "non-integral trace"),
    (((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-1))), "non-integral char poly"),
], ids=["trace", "coefficient"])
def test_non_integral_char_poly_raises(element, why):
    # {I, T} with T^2 = I by its table: T = (1/2) has a non-integral trace;
    # T = diag(2, -1) has tr T = 1 and tr T^2 read as tr I = 2, so the
    # t^2 coefficient (1^2 - 2) / 2 is not an integer
    n = len(element)
    rep = FiniteGroupRep(n, [ra.mat_identity(n), element], [[0, 1], [1, 0]], [0, 1], [1])
    with pytest.raises(ArithmeticError, match=why):
        molien_series(rep, 4)


# ------------------------------------------------- graded invariant spaces


def test_invariant_space_sizes_and_contents(z2_plane, z2xz2, z4, d4, s3_perm):
    for rep in (z2_plane, z2xz2, z4, d4, s3_perm):
        series = molien_series(rep, 6)
        for d in range(7):
            basis = invariant_space_basis(rep, d)
            assert len(basis) == series.coefficient(d)
            for p in basis:
                assert all(sum(m) == d for m in p.terms)
                for g in rep.elements:
                    assert act(g, p) == p


def test_invariant_space_degree0(z4):
    assert invariant_space_basis(z4, 0) == [Polynomial.constant(2, 1)]


def test_invariant_space_z2_degree2_span(z2_plane):
    got = invariant_space_basis(z2_plane, 2)
    want = [xpoly(2, {(2, 0): 1}), xpoly(2, {(0, 2): 1}), xpoly(2, {(1, 1): 1})]
    monos = monomials_of_degree(2, 2)
    assert row_space(got, monos) == row_space(want, monos)


def test_invariant_space_is_the_reynolds_span(
    z2_line, z2_plane, z2xz2, z4, d4, d4_sheared, s3_perm, s4_perm, b3, b3_conj
):
    # the kernel of the generators' action spans what the group average of
    # every monomial spans
    for rep in (z2_line, z2_plane, z2xz2, z4, d4, d4_sheared, s3_perm, s4_perm, b3, b3_conj):
        for d in range(7):
            monos = monomials_of_degree(rep.dim, d)
            images = [reynolds(rep, Polynomial.monomial(m, 1)) for m in monos]
            assert row_space(invariant_space_basis(rep, d), monos) == row_space(images, monos)


def test_basis_and_p_matrix_act_by_generators_only(monkeypatch):
    # group matrices enter through their linear forms; a fresh rep, since
    # the session fixture's memo already holds the generator tables
    b3 = close_generators(B3_GENS, name="b3")
    generator_matrices = {b3.elements[s] for s in b3.generators}
    assert len(generator_matrices) == 3
    acted = []

    def counted(matrix):
        acted.append(matrix)
        return linear_forms(matrix)

    monkeypatch.setattr(invariants, "linear_forms", counted)
    monkeypatch.setattr(polynomials, "linear_forms", counted)
    p_matrix(b3, compute_mib(b3))
    assert acted and set(acted) <= generator_matrices


def test_p_matrix_acts_with_no_element(monkeypatch, b3):
    # each entry is expressed at its known degree; the consistent solve
    # already puts it in the algebra, so no invariance test runs
    basis = compute_mib(b3)
    acted = []

    def counted(matrix, p):
        acted.append(matrix)
        return act(matrix, p)

    monkeypatch.setattr(invariants, "act", counted)
    p_matrix(b3, basis)
    assert acted == []


def test_invariant_space_d4_degree2(d4):
    assert invariant_space_basis(d4, 2) == [xpoly(2, {(2, 0): 1, (0, 2): 1})]


# ------------------------------------------------- minimal integrity basis


def test_mib_z2_plane_footnote_basis(z2_plane):
    basis = compute_mib(z2_plane)
    assert basis.degrees == (2, 2, 2)
    assert basis.polys == (
        xpoly(2, {(2, 0): 1}),
        xpoly(2, {(0, 2): 1}),
        xpoly(2, {(1, 1): 1}),
    )


def test_mib_d4(d4):
    basis = compute_mib(d4)
    assert basis.degrees == (2, 4)
    assert basis.polys == (
        xpoly(2, {(2, 0): 1, (0, 2): 1}),
        xpoly(2, {(2, 2): 1}),
    )


def test_mib_z4(z4):
    basis = compute_mib(z4)
    assert basis.degrees == (2, 4, 4)
    assert basis.polys == (
        xpoly(2, {(2, 0): 1, (0, 2): 1}),
        xpoly(2, {(3, 1): 1, (1, 3): -1}),
        xpoly(2, {(2, 2): 1}),
    )


def test_mib_z2xz2(z2xz2):
    basis = compute_mib(z2xz2)
    assert basis.degrees == (2, 2)
    assert basis.polys == (xpoly(2, {(2, 0): 1}), xpoly(2, {(0, 2): 1}))


def test_mib_z2_line(z2_line):
    basis = compute_mib(z2_line)
    assert basis.degrees == (2,)
    assert basis.polys == (xpoly(1, {(2,): 1}),)


def test_mib_s3_elementary_symmetric(s3_perm):
    basis = compute_mib(s3_perm)
    assert basis.degrees == (1, 2, 3)
    assert basis.polys == tuple(elementary_symmetric(3, k) for k in (1, 2, 3))


def test_mib_s4_elementary_symmetric(s4_perm):
    basis = compute_mib(s4_perm, degree_cap=6)
    assert basis.degrees == (1, 2, 3, 4)
    assert basis.polys == tuple(elementary_symmetric(4, k) for k in (1, 2, 3, 4))


def test_mib_sheared_rep(d4_sheared):
    basis = compute_mib(d4_sheared)
    assert basis.degrees == (2, 4)
    for p in basis.polys:
        for g in d4_sheared.elements:
            assert act(g, p) == p


def test_mib_elements_invariant_homogeneous(z2_plane, z4, d4, s3_perm):
    for rep in (z2_plane, z4, d4, s3_perm):
        basis = compute_mib(rep)
        assert basis.degrees == tuple(sorted(basis.degrees))
        for p, d in zip(basis.polys, basis.degrees):
            assert not p.is_zero() and all(sum(m) == d for m in p.terms)
            for g in rep.elements:
                assert act(g, p) == p


def test_mib_minimality(z2_plane, z4, d4):
    # no generator lies in the algebra spanned by the others up to its degree
    for rep in (z2_plane, z4, d4):
        basis = compute_mib(rep)
        for a in range(basis.k):
            others = [p for i, p in enumerate(basis.polys) if i != a]
            degs = [d for i, d in enumerate(basis.degrees) if i != a]
            d_a = basis.degrees[a]
            monos = monomials_of_degree(rep.dim, d_a)
            index = {m: i for i, m in enumerate(monos)}
            span = ra.RowReducer(len(monos))
            for expo in jmonomials_of_xdegree(degs, d_a):
                prod = Polynomial.constant(rep.dim, 1)
                for i, e in enumerate(expo):
                    if e:
                        prod = prod * poly_pow(others[i], e)
                vec = [Fraction(0)] * len(monos)
                for m, c in prod.terms.items():
                    vec[index[m]] = c
                span.add(vec)
            target = [Fraction(0)] * len(monos)
            for m, c in basis.polys[a].terms.items():
                target[index[m]] = c
            assert span.residual(target)


def product_span_rank(rep, basis, d):
    """Oracle: exact rank of the degree-d power products of the basis."""
    monos = monomials_of_degree(rep.dim, d)
    index = {m: i for i, m in enumerate(monos)}
    span = ra.RowReducer(len(monos))
    for expo in jmonomials_of_xdegree(basis.degrees, d):
        prod = Polynomial.constant(rep.dim, 1)
        for i, e in enumerate(expo):
            if e:
                prod = prod * poly_pow(basis.polys[i], e)
        vec = [Fraction(0)] * len(monos)
        for m, c in prod.terms.items():
            vec[index[m]] = c
        span.add(vec)
    return span.rank


def test_hilbert_series_of_mib_matches_molien(z2_plane, z4, d4, s3_perm):
    # products of the basis exhaust every graded invariant space
    for rep in (z2_plane, z4, d4, s3_perm):
        basis = compute_mib(rep)
        series = molien_series(rep, 6)
        for d in range(1, 7):
            assert product_span_rank(rep, basis, d) == series.coefficient(d)


# -------------------------------------------------- completeness certificate


def test_certified_stop_is_not_early(z2xz2, d4, d4_sheared, s3_perm):
    # the certified basis spans every graded invariant space through |G|,
    # checked by rank, without the certificate
    for rep in (z2xz2, d4, d4_sheared, s3_perm):
        basis = compute_mib(rep)
        assert is_coregular(basis)
        series = molien_series(rep, rep.order)
        for d in range(1, rep.order + 1):
            assert product_span_rank(rep, basis, d) == series.coefficient(d)


def test_certificate_rejects_a_short_hilbert_series(z2_plane):
    # k = n and the Jacobian is nonzero, but (1 - t^2)^2 * Molien = 1 + t^2
    x2, y2, xy = compute_mib(z2_plane).polys
    for polys in [(x2, y2), (x2, xy)]:
        assert not _jacobian_determinant(polys).is_zero()
        assert not is_coregular(IntegrityBasis(z2_plane, polys, (2, 2)))


def test_certificate_rejects_a_vanishing_jacobian(d4):
    j1, _ = compute_mib(d4).polys
    polys = (j1, j1 * j1)
    assert _jacobian_determinant(polys).is_zero()
    assert not is_coregular(IntegrityBasis(d4, polys, (2, 4)))


def test_certificate_rejects_a_truncated_basis(d4):
    basis = compute_mib(d4, degree_cap=3)
    assert basis.degrees == (2,)
    assert not is_coregular(basis)


def test_jacobian_of_elementary_symmetric_is_vandermonde():
    # det d(e1, e2, e3) / d(x1, x2, x3) = (x1 - x2)(x1 - x3)(x2 - x3)
    x = [Polynomial.variable(i, 3) for i in range(3)]
    vandermonde = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
    polys = [elementary_symmetric(3, k) for k in (1, 2, 3)]
    assert _jacobian_determinant(polys) == vandermonde


# ------------------------------------------------------------ hsop degree bound


NON_COREGULAR = ["z3_hex", "z4", "neg_identity_3", "z3_perm", "a4_rot", "o_rot", "o_rot_conj"]


def refuse_hsop(monkeypatch):
    monkeypatch.setattr(invariants, "_hsop_bound", lambda thetas: None)


def basis_and_stop(rep, **kwargs):
    """The basis and the top degree the search spans products at."""
    seen = []
    real = invariants.jmonomials_of_xdegree

    def spy(degrees, xdegree):
        seen.append(xdegree)
        return real(degrees, xdegree)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(invariants, "jmonomials_of_xdegree", spy)
        basis = compute_mib(rep, **kwargs)
    return basis, max(seen)


def test_hsop_certificate_accepts_the_cube_primaries(o_rot):
    thetas = compute_mib(o_rot).polys[:3]
    assert [p.degree() for p in thetas] == [2, 4, 6]
    assert invariants._hsop_bound(thetas) == 9


def test_hsop_certificate_refuses_a_common_zero():
    # x1^2 and x1*x2 both vanish on the line x1 = 0
    x1, x2 = (Polynomial.variable(i, 2) for i in range(2))
    assert invariants._hsop_bound([x1 * x1, x1 * x2]) is None
    assert invariants._hsop_bound([x1 * x1, x2 * x2]) == 2


def test_search_stops_at_the_hsop_bound(o_rot, monkeypatch):
    basis, stop = basis_and_stop(o_rot)
    assert (basis.degrees, stop) == ((2, 4, 6, 9), 9)
    refuse_hsop(monkeypatch)
    assert basis_and_stop(o_rot)[1] == 18


def test_b4_rot_basis_at_the_default_cap(b4_rot):
    # Noether's bound is 192, the Domokos-Hegedus bound 144; the hsop
    # (2, 4, 6, 8) bounds the generators by 16
    assert b4_rot.order == 192
    basis, stop = basis_and_stop(b4_rot)
    assert (basis.degrees, stop) == ((2, 4, 6, 8, 16), 16)
    assert not is_coregular(basis)


def test_hsop_bound_is_checked_against_molien(o_rot):
    basis = compute_mib(o_rot)
    series = molien_series(o_rot, 18)
    assert invariants._certified_stop(basis, series, 18) == 9
    assert invariants._certified_stop(basis, series, 9) == 9
    wrong = invariants.MolienSeries(24, series.coefficients[:10] + (0,) * 9)
    with pytest.raises(ArithmeticError):
        invariants._certified_stop(basis, wrong, 18)


def test_fallback_bound_when_the_certificate_refuses(a4_rot, z4, monkeypatch):
    # a4-rot is not cyclic: floor(3 * 12 / 4) = 9; z4 is cyclic: |G| = 4
    certified = {rep.name: compute_mib(rep) for rep in (a4_rot, z4)}
    refuse_hsop(monkeypatch)
    for rep, stop in [(a4_rot, 9), (z4, 4)]:
        basis, seen = basis_and_stop(rep)
        assert seen == stop
        assert basis.polys == certified[rep.name].polys
    assert basis_and_stop(a4_rot, degree_cap=11)[1] == 11


@pytest.mark.parametrize("name", NON_COREGULAR)
def test_same_basis_without_the_certificate(name, request, monkeypatch):
    rep = request.getfixturevalue(name)
    basis = compute_mib(rep)
    assert not is_coregular(basis)
    refuse_hsop(monkeypatch)
    plain = compute_mib(rep)
    assert (plain.polys, plain.degrees) == (basis.polys, basis.degrees)


def test_generator_tables_do_not_outlive_the_search(o_rot):
    compute_mib(o_rot)
    assert "generator_images" not in o_rot.memo


# ----------------------------------------------------------------- relations


def test_b4_basis_is_coregular():
    rep = close_generators(B4_GENS, name="b4")
    assert rep.order == 384
    basis = compute_mib(rep)
    assert basis.degrees == (2, 4, 6, 8)
    assert is_coregular(basis)
    pm = p_matrix(rep, basis)
    assert all(pm.entries[i][h] == pm.entries[h][i] for i in range(4) for h in range(4))
    # J1 = |x|^2, so P_11 = |grad J1|^2 = 4 J1
    squares = {tuple(2 * (i == j) for j in range(4)): 1 for i in range(4)}
    assert basis.polys[0] == xpoly(4, squares)
    assert pm.entries[0][0] == jpoly(4, {(1, 0, 0, 0): 4})


def test_relations_z2_footnote(z2_plane):
    basis = compute_mib(z2_plane)
    rels = find_relations(basis)
    assert rels == (jpoly(3, {(1, 1, 0): 1, (0, 0, 2): -1}),)


def test_relations_d4_none(d4):
    basis = compute_mib(d4)
    assert find_relations(basis) == ()
    assert is_coregular(basis)


def test_relations_z4_frozen(z4):
    basis = compute_mib(z4)
    rels = find_relations(basis)
    assert len(rels) == 1
    rel = rels[0]
    assert rel == jpoly(3, {(2, 0, 1): 1, (0, 2, 0): -1, (0, 0, 2): -4})
    assert substitute(rel, basis.polys).is_zero()


def test_relations_substitute_to_zero(z2_plane, z4):
    for rep in (z2_plane, z4):
        basis = compute_mib(rep)
        for rel in find_relations(basis):
            assert substitute(rel, basis.polys).is_zero()


def test_relations_empty_for_free_actions(z2xz2, s3_perm, d4_sheared):
    for rep in (z2xz2, s3_perm, d4_sheared):
        basis = compute_mib(rep)
        assert find_relations(basis) == ()


def test_is_coregular_cases(z2_plane, z4, d4, z2xz2, s3_perm):
    assert not is_coregular(compute_mib(z2_plane))
    assert not is_coregular(compute_mib(z4))
    assert is_coregular(compute_mib(d4))
    assert is_coregular(compute_mib(z2xz2))
    assert is_coregular(compute_mib(s3_perm))
    trivial = close_generators([ra.mat_identity(1)], name="trivial1")
    assert is_coregular(compute_mib(trivial, degree_cap=4))


# ------------------------------------------------------- expression in basis


def test_express_power_on_line(z2_line):
    basis = compute_mib(z2_line)
    p = xpoly(1, {(4,): 1})
    assert express_in_basis(z2_line, basis, p) == jpoly(1, {(2,): 1})


def test_express_d4_quartic(d4):
    basis = compute_mib(d4)
    p = xpoly(2, {(4, 0): 1, (0, 4): 1})
    assert express_in_basis(d4, basis, p) == jpoly(2, {(2, 0): 1, (0, 1): -2})


def test_express_canonical_choice_under_relation(z2_plane):
    basis = compute_mib(z2_plane)
    p = xpoly(2, {(3, 1): 1})
    psi = express_in_basis(z2_plane, basis, p)
    assert psi == jpoly(3, {(1, 0, 1): 1})
    assert substitute(psi, basis.polys) == p


def test_express_inhomogeneous(z2_line):
    basis = compute_mib(z2_line)
    p = xpoly(1, {(0,): 3, (2,): 1, (4,): 1})
    assert express_in_basis(z2_line, basis, p) == jpoly(
        1, {(0,): 3, (1,): 1, (2,): 1}
    )


def test_express_rejects_noninvariant(z2_plane):
    basis = compute_mib(z2_plane)
    with pytest.raises(NotInvariant):
        express_in_basis(z2_plane, basis, xpoly(2, {(3, 0): 1}))


def test_express_rejects_what_one_generator_moves(d4):
    basis = compute_mib(d4)
    x1_squared = xpoly(2, {(2, 0): 1})
    rotation, mirror = (d4.elements[s] for s in d4.generators)
    assert (rotation, mirror) == (ROT90, FLIP_Y)
    assert act(mirror, x1_squared) == x1_squared
    assert act(rotation, x1_squared) != x1_squared
    with pytest.raises(NotInvariant):
        express_in_basis(d4, basis, x1_squared)


def test_express_incomplete_basis(d4):
    truncated = compute_mib(d4, degree_cap=2)
    assert truncated.degrees == (2,)
    with pytest.raises(NotExpressible):
        express_in_basis(d4, truncated, xpoly(2, {(4, 0): 1, (0, 4): 1}))


def test_express_roundtrip_random(z2_plane, z4, d4, s3_perm):
    rng = random.Random(7)
    for rep in (z2_plane, z4, d4, s3_perm):
        basis = compute_mib(rep)
        for _ in range(5):
            psi_terms = {}
            for _ in range(3):
                expo = tuple(rng.randint(0, 2) for _ in range(basis.k))
                psi_terms[expo] = Fraction(rng.randint(-5, 5))
            psi = Polynomial(basis.k, psi_terms, J_KIND)
            p = substitute(psi, basis.polys)
            back = express_in_basis(rep, basis, p)
            assert substitute(back, basis.polys) == p


def test_jmonomial_images_match_powers(z2xz2, d4, d4_sheared, s3_perm, b3):
    # the power-product table against products of powers by repeated
    # squaring, which it does not use
    for rep in (z2xz2, d4, d4_sheared, s3_perm, b3):
        basis = compute_mib(rep)
        for xdeg in range(2 * basis.max_degree + 1):
            jmonos, rows = basis.jmonomial_images(xdeg)
            for col, expo in enumerate(jmonos):
                image = Polynomial(
                    rep.dim, {m: row[col] for m, row in rows.items() if col in row}
                )
                want = Polynomial.constant(rep.dim, 1)
                for i, e in enumerate(expo):
                    want = want * poly_pow(basis.polys[i], e)
                assert image == want, (rep.name, expo)


def test_truncated_compose_is_the_truncated_composition():
    rng = random.Random(11)

    def random_poly(nvars, degree, terms):
        return Polynomial(nvars, {
            tuple(rng.randint(0, degree) for _ in range(nvars)):
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(terms)
        })

    for _ in range(25):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        p = random_poly(k, 3, 5)
        # maps with constant terms as well as higher ones
        maps = [random_poly(n, 2, 4) + Fraction(rng.randint(-2, 2)) for _ in range(k)]
        full = compose(p, maps)
        for cap in range(-1, 8):
            assert compose(p, maps, truncate_at=cap) == full.truncate(cap)


# ------------------------------------------------------------------ P-matrix


def test_p_matrix_line(z2_line):
    basis = compute_mib(z2_line)
    pm = p_matrix(z2_line, basis)
    assert pm.entries == ((jpoly(1, {(1,): 4}),),)


def test_p_matrix_sign_flips(z2xz2):
    basis = compute_mib(z2xz2)
    pm = p_matrix(z2xz2, basis)
    zero = Polynomial.zero(2, J_KIND)
    assert pm.entries == (
        (jpoly(2, {(1, 0): 4}), zero),
        (zero, jpoly(2, {(0, 1): 4})),
    )


def test_p_matrix_d4(d4):
    basis = compute_mib(d4)
    pm = p_matrix(d4, basis)
    assert pm.entries[0][0] == jpoly(2, {(1, 0): 4})
    assert pm.entries[0][1] == jpoly(2, {(0, 1): 8})
    assert pm.entries[1][1] == jpoly(2, {(1, 1): 4})


def test_p_matrix_z2_plane(z2_plane):
    basis = compute_mib(z2_plane)
    pm = p_matrix(z2_plane, basis)
    assert pm.entries[0][0] == jpoly(3, {(1, 0, 0): 4})
    assert pm.entries[0][1].is_zero()
    assert pm.entries[0][2] == jpoly(3, {(0, 0, 1): 2})
    assert pm.entries[1][2] == jpoly(3, {(0, 0, 1): 2})
    assert pm.entries[2][2] == jpoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})


def test_p_matrix_substitution_identity(z2_plane, z4, d4, s3_perm, d4_sheared):
    for rep in (z2_plane, z4, d4, s3_perm, d4_sheared):
        basis = compute_mib(rep)
        pm = p_matrix(rep, basis)
        metric = invariant_metric(rep)
        grads = [p.gradient() for p in basis.polys]
        for i in range(basis.k):
            for h in range(basis.k):
                assert pm.entries[i][h] == pm.entries[h][i]
                direct = Polynomial.zero(rep.dim)
                for a in range(rep.dim):
                    for b in range(rep.dim):
                        w = metric.eta_inv[a][b]
                        if w != 0:
                            direct = direct + (grads[i][a] * grads[h][b]).scale(w)
                assert substitute(pm.entries[i][h], basis.polys) == direct


def test_p_matrix_psd_at_points(z2_plane, z4, d4, s3_perm):
    rng = random.Random(11)
    for rep in (z2_plane, z4, d4, s3_perm):
        basis = compute_mib(rep)
        pm = p_matrix(rep, basis)
        for _ in range(100):
            x = [rng.uniform(-2, 2) for _ in range(rep.dim)]
            jvals = orbit_map(basis, x)
            num = np.array(
                [
                    [float(pm.entries[i][h].evaluate(jvals)) for h in range(basis.k)]
                    for i in range(basis.k)
                ]
            )
            assert np.linalg.eigvalsh(num).min() >= -1e-10


# ------------------------------------------------------------------ orbit map


def orbit_map(basis, x) -> list:
    """The basis values J(x): exact for a rational point."""
    return [p.evaluate(x) for p in basis.polys]


def test_orbit_map_values(z2_plane):
    basis = compute_mib(z2_plane)
    assert orbit_map(basis, (1, 2)) == [1, 4, 2]
    assert orbit_map(basis, (-1, -2)) == [1, 4, 2]


def test_orbit_map_d4_vertex(d4):
    basis = compute_mib(d4)
    assert orbit_map(basis, (1, 0)) == [1, 0]
    assert orbit_map(basis, (0, -1)) == [1, 0]


def test_orbit_map_constant_on_orbits(z2_plane, z4, d4, s3_perm):
    rng = random.Random(3)
    for rep in (z2_plane, z4, d4, s3_perm):
        basis = compute_mib(rep)
        for _ in range(100):
            x = random_rational_point(rng, rep.dim)
            ref = orbit_map(basis, x)
            for y in orbit(rep, x):
                assert orbit_map(basis, y) == ref
