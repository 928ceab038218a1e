"""Graded potentials, homological operators, removability, reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import rationals as ra
from orbitscope.errors import KindMismatch, VerificationFailed
from orbitscope.groups import invariant_metric
from orbitscope.invariants import (
    compute_mib,
    express_homogeneous,
    jmonomials_of_xdegree,
    p_matrix,
)
from orbitscope.landau import build_generic, make_model, minimize
from orbitscope.params import Coefficient, substitute_param
from orbitscope.polynomials import J_KIND, Polynomial, act, mono_degree, substitute
from orbitscope.reduction import (
    GradedPotential,
    PoincareGenerator,
    ReductionReport,
    delta_J,
    homological_image,
    is_compatible,
    poincare_generator,
    reduce,
    removable_form,
    removable_terms,
    u_functions,
    verify_reduction,
)

F = Fraction


def cf(name):
    return Coefficient.parameter(name)


def jpp(k, terms):
    return Polynomial(k, {m: Coefficient.coerce(c) for m, c in terms.items()}, J_KIND)


def inner_image_oracle(rep, basis, psi_term, h):
    """<grad(Psi o basis), eta_inv grad(H o basis)> computed in x-space.

    Independent of the P-matrix: only the chain rule and the metric."""
    n = rep.dim
    eta_inv = invariant_metric(rep).eta_inv
    px = substitute_param(psi_term, basis.polys)
    hx = substitute_param(h, basis.polys)
    dp = [px.partial(i) for i in range(n)]
    dh = [hx.partial(j) for j in range(n)]
    acc = Polynomial.zero(n, "x")
    for i in range(n):
        for j in range(n):
            w = eta_inv[i][j]
            if w and not dp[i].is_zero() and not dh[j].is_zero():
                acc = acc + (dp[i] * dh[j]).scale(w)
    return acc


@pytest.fixture(scope="module")
def z2_setup(z2_line):
    basis = compute_mib(z2_line)
    return z2_line, basis, p_matrix(z2_line, basis)


@pytest.fixture(scope="module")
def z2xz2_setup(z2xz2):
    basis = compute_mib(z2xz2)
    return z2xz2, basis, p_matrix(z2xz2, basis)


def sextic(basis, critical=("a",)):
    return GradedPotential.from_psi(
        basis, jpp(1, {(1,): cf("a"), (2,): cf("b"), (3,): cf("c")}), critical
    )


# -------------------------------------------------------------- delta_J / U


def test_delta_j_z2_square(z2_setup):
    _, _, P = z2_setup
    (dj,) = delta_J(Polynomial(1, {(2,): F(1)}, J_KIND), P)
    assert dj == Polynomial(1, {(2,): F(8)}, J_KIND)      # 4J * 2J


def test_delta_j_constant(z2_setup):
    _, _, P = z2_setup
    (dj,) = delta_J(Polynomial(1, {(0,): F(3)}, J_KIND), P)
    assert dj.is_zero()


def test_delta_j_z2xz2_product(z2xz2_setup):
    rep, basis, P = z2xz2_setup
    h = jpp(2, {(1, 1): 1})
    d1, d2 = delta_J(h, P)
    expected = jpp(2, {(1, 1): 4})
    assert d1 == expected and d2 == expected
    # substitution oracle: delta_J_a must equal <grad J_a, eta_inv grad H>
    for a in range(2):
        unit = jpp(2, {tuple(1 if i == a else 0 for i in range(2)): 1})
        lhs = substitute_param(delta_J(h, P)[a], basis.polys)
        rhs = inner_image_oracle(rep, basis, unit, h)
        assert lhs == rhs


def test_u_functions_z2(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), {"a"})
    (u,) = u_functions(psi, P)
    assert u == jpp(1, {(1,): cf("a") * 4, (2,): cf("b") * 8})


def test_u_functions_zero(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential(basis, {}, frozenset())
    (u,) = u_functions(psi, P)
    assert u.is_zero()


def test_u_functions_z2xz2(z2xz2_setup):
    _, basis, P = z2xz2_setup
    psi = GradedPotential.from_psi(basis, jpp(2, {(1, 0): cf("a"), (0, 1): cf("b")}), {"a"})
    u1, u2 = u_functions(psi, P)
    assert u1 == jpp(2, {(1, 0): cf("a") * 4})
    assert u2 == jpp(2, {(0, 1): cf("b") * 4})


# ------------------------------------------------------- homological images


def test_homological_image_z2_frozen(z2_setup):
    rep, basis, P = z2_setup
    term = jpp(1, {(1,): cf("a")})
    # a J against h J^3: a * 4J * 3h J^2
    img = homological_image(term, jpp(1, {(3,): cf("h")}), P)
    assert img == jpp(1, {(3,): cf("a") * cf("h") * 12})
    img2 = homological_image(term, jpp(1, {(2,): cf("h")}), P)
    assert img2 == jpp(1, {(2,): cf("a") * cf("h") * 8})
    const = homological_image(jpp(1, {(0,): cf("a")}), jpp(1, {(3,): cf("h")}), P)
    assert const.is_zero()


def test_homological_image_matches_substitution(z2xz2_setup):
    rep, basis, P = z2xz2_setup
    cases = [
        (jpp(2, {(1, 0): cf("a"), (0, 1): 2}), jpp(2, {(1, 1): cf("h")})),
        (jpp(2, {(2, 0): 1, (1, 1): cf("e")}), jpp(2, {(0, 2): 1})),
        (jpp(2, {(1, 1): cf("a")}), jpp(2, {(2, 1): cf("h"), (0, 3): 1})),
    ]
    for term, h in cases:
        img = homological_image(term, h, P)
        assert substitute_param(img, basis.polys) == inner_image_oracle(rep, basis, term, h)


def test_grading_law(z2xz2_setup):
    # x-degree of the image is s + t - 2, exactly
    rep, basis, P = z2xz2_setup
    weights = basis.degrees
    for s_mono in [(1, 0), (1, 1), (2, 1)]:
        for t_mono in [(2, 0), (1, 1), (0, 2), (2, 1)]:
            s = sum(e * w for e, w in zip(s_mono, weights))
            t = sum(e * w for e, w in zip(t_mono, weights))
            img = homological_image(jpp(2, {s_mono: 1}), jpp(2, {t_mono: 1}), P)
            if img.is_zero():
                continue
            degs = {mono_degree(m, weights) for m in img.terms}
            assert degs == {s + t - 2}


# ------------------------------------------------- compatibility / Q-forms


def test_gradient_q_is_compatible(z2xz2_setup):
    _, basis, _ = z2xz2_setup
    gen = poincare_generator(jpp(2, {(2, 0): cf("q"), (1, 1): 3}), basis)
    assert gen.degree == 4
    assert is_compatible(gen.q_vector())


def test_non_gradient_q_detected():
    # Q = (J2, 0): dQ1/dJ2 = 1 but dQ2/dJ1 = 0
    q = (jpp(2, {(0, 1): 1}), Polynomial.zero(2, J_KIND))
    assert not is_compatible(q)


def test_constant_q_removable_form(z2_setup):
    # constant Q is trivially curl-free and contributes Q * U itself
    _, basis, P = z2_setup
    psi = sextic(basis)
    (u,) = u_functions(psi, P)
    q = (jpp(1, {(0,): cf("q")}),)
    assert is_compatible(q)
    assert removable_form(q, [u]) == u.scale(1) * jpp(1, {(0,): cf("q")})


# ----------------------------------------------------------- removable sets


def test_removable_z2_sextic_direction(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), {"a"})
    sub = removable_terms(psi, 6, P)
    assert sub.removable_monomials == ((3,),)
    assert sub.non_removable == ()
    assert sub.dimension == 1
    assert "b" in sub.constraints[0]
    # the spanning image comes from the degree-4 generator paired with b J^2
    assert sub.basis[0] == jpp(1, {(3,): cf("b") * 16})


def test_removable_all_critical_empty(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(
        basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), critical={"a", "b"}
    )
    for degree in (4, 6, 8):
        sub = removable_terms(psi, degree, P)
        assert sub.removable_monomials == ()
        assert sub.basis == ()


def test_removable_constant_q_gives_u_direction(z2_setup):
    # admitting linear changes (generator degree 2) makes the U-component
    # itself removable
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), {"a"})
    sub = removable_terms(psi, 4, P, min_generator_degree=2)
    assert sub.removable_monomials == ((2,),)
    (u,) = u_functions(psi, P)
    assert sub.basis[0] == u.homogeneous_parts(basis.degrees)[4]


def z2xz2_degree6_potential(basis):
    return GradedPotential.from_psi(
        basis,
        jpp(2, {
            (1, 0): cf("a"), (0, 1): cf("a"),
            (2, 0): 1, (1, 1): Coefficient.number(2) + cf("eps"), (0, 2): 1,
            (3, 0): cf("c1"), (2, 1): cf("c2"), (1, 2): cf("c3"), (0, 3): cf("c4"),
        }),
        critical={"a"},
    )


def test_removable_z2xz2_rank_oracle(z2xz2_setup):
    _, basis, P = z2xz2_setup
    psi = z2xz2_degree6_potential(basis)
    sub = removable_terms(psi, 6, P)
    assert sub.removable_monomials == ((3, 0), (2, 1), (1, 2))
    assert sub.non_removable == ((0, 3),)

    # oracle: rank of the image matrix at the critical limit a = 0 with a
    # generic value for eps, over exact rationals
    lam = {"a": F(0), "eps": F(1, 3), "c1": F(1), "c2": F(1), "c3": F(1), "c4": F(1)}
    monos6 = jmonomials_of_xdegree(basis.degrees, 6)
    rows = []
    for m in jmonomials_of_xdegree(basis.degrees, 4):
        img = homological_image(
            psi.component(4).evaluate_params(lam), Polynomial(2, {m: F(1)}, J_KIND), P
        )
        rows.append(tuple(img.terms.get(mu, F(0)) for mu in monos6))
    _, pivots = ra.rref(rows)
    assert len(pivots) == 3
    # J2^3 is not reachable: adding its unit vector must raise the rank
    unit = tuple(F(1) if mu == (0, 3) else F(0) for mu in monos6)
    _, pivots_with = ra.rref(list(rows) + [unit])
    assert len(pivots_with) == 4


# ---------------------------------------------------------------- reduce


def test_reduce_z2_sextic_exact(z2_setup):
    _, basis, P = z2_setup
    psi = sextic(basis)
    report = reduce(psi, 6, P)

    a, b, c = cf("a"), cf("b"), cf("c")
    # quadratic part untouched, including its internal representation
    red2 = report.reduced.component(2).terms
    orig2 = psi.component(2).terms
    assert red2.keys() == orig2.keys()
    for m in orig2:
        assert red2[m].num == orig2[m].num and red2[m].den == orig2[m].den

    assert report.reduced.component(4) == jpp(1, {(2,): b - a * c / (b * 2)})
    assert report.reduced.component(6).is_zero()
    assert report.removed_terms == ((6, (3,)),)

    degs = [g.degree for g in report.generators]
    assert degs == [4, 6]
    kappa = -c / (b * 16)
    assert report.generators[0].h_poly == jpp(1, {(2,): kappa})
    # after the flow of H1 = kappa J^2 the J^3 coefficient is
    # (1/2) L_H1^2 (a J) = 64 kappa^2 a, and L_{mu J^3}(a J) = 12 mu a J^3,
    # so mu = -16 kappa^2 / 3 (the composition with y + h gave -4/3)
    assert report.generators[1].h_poly == jpp(1, {(3,): kappa * kappa * F(-16, 3)})


def test_reduce_fixed_point(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), {"a"})
    report = reduce(psi, 6, P)
    assert report.generators == ()
    assert report.removed_terms == ()
    for d in psi.degrees():
        assert report.reduced.component(d) == psi.component(d)


def test_reduce_all_critical_removes_nothing(z2_setup):
    _, basis, P = z2_setup
    psi = sextic(basis, critical=("a", "b", "c"))
    report = reduce(psi, 6, P)
    assert report.generators == ()
    assert report.removed_terms == ()
    # zero divisions: every surviving coefficient still has a bare denominator
    for d in psi.degrees():
        comp = report.reduced.component(d)
        assert comp == psi.component(d)
        for coeff in comp.terms.values():
            assert coeff.den == Coefficient.number(1).den


def test_reduce_z2xz2_degree6(z2xz2_setup):
    rep, basis, P = z2xz2_setup
    psi = z2xz2_degree6_potential(basis)
    report = reduce(psi, 6, P)
    assert report.removed_terms == ((6, (3, 0)), (6, (2, 1)), (6, (1, 2)))
    assert [g.degree for g in report.generators] == [4, 6]
    assert report.reduced.component(2) == psi.component(2)
    survivors = report.survivors()
    assert (6, (0, 3)) in [(d, m) for d, m, _ in survivors]
    c6 = report.reduced.component(6)
    assert set(c6.terms) == {(0, 3)}

    lam = {"a": F(-1, 3), "eps": F(1, 5), "c1": F(1, 2),
           "c2": F(-1, 3), "c3": F(2, 7), "c4": F(1, 4)}
    phi = report.reduced.x_polynomial(lam)
    for t in rep.elements:
        assert act(t, phi) == phi


def test_reduce_z2_plane_keeps_the_canonical_representative(z2_plane):
    # J1 = x1^2, J2 = x2^2, J3 = x1 x2 satisfy J1 J2 = J3^2, so a J-space
    # potential has many representatives; reduce keeps the canonical one
    basis = compute_mib(z2_plane)
    psi = GradedPotential.from_psi(
        basis,
        jpp(3, {(1, 0, 0): cf("a"), (0, 1, 0): 1, (2, 0, 0): cf("b"),
                (1, 0, 1): cf("c"), (0, 2, 0): cf("e")}),
        critical={"a"},
    )
    report = reduce(psi, 6, p_matrix(z2_plane, basis))
    assert [g.degree for g in report.generators] == [4, 6]
    assert set(report.generators[1].h_poly.terms) == {
        (0, 3, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)
    }
    assert report.removed_terms == ((4, (1, 0, 1)), (4, (0, 2, 0)))
    assert [(d, m) for d, m, _ in report.survivors()] == [(4, (2, 0, 0)), (6, (3, 0, 0))]
    for d in report.reduced.degrees():
        comp = report.reduced.component(d)
        canonical = express_homogeneous(basis, substitute(comp, basis.polys), d)
        assert comp == Polynomial(3, canonical, J_KIND)
    lam = {"a": F(1, 5), "b": F(1, 3), "c": F(2, 5), "e": F(1, 7)}
    assert verify_reduction(psi, report, [lam]).min_slope == 8


def test_reduce_generic_d4_sheared(d4_sheared):
    # a non-orthogonal action: the P-matrix carries the invariant metric
    basis = compute_mib(d4_sheared)
    psi = GradedPotential.from_model(build_generic(basis, degree_x=6))
    report = reduce(psi, 6, p_matrix(d4_sheared, basis))
    lam = {name: F(1, k + 2) for k, name in enumerate(sorted(psi.parameters()))}
    assert verify_reduction(psi, report, [lam]).min_slope > 6


def test_reduce_requires_quadratic_part(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(2,): cf("b")}), {"a"})
    with pytest.raises(ValueError):
        reduce(psi, 6, P)


def test_reduce_rejects_foreign_pmatrix(z2_setup, z2xz2_setup):
    _, basis, _ = z2_setup
    _, _, P_other = z2xz2_setup
    with pytest.raises(KindMismatch):
        reduce(sextic(basis), 6, P_other)


# ------------------------------------------------------------ verification


ACCEPTANCE_LAMBDAS = (
    {"a": -0.5, "b": 1.0, "c": 0.3},
    {"a": 0.2, "b": 1.0, "c": -0.4},
    {"a": 0.0, "b": 1.0, "c": 1.0},
)


def test_verify_z2_sextic_slopes(z2_setup):
    _, basis, P = z2_setup
    psi = sextic(basis)
    report = reduce(psi, 6, P)
    stats = verify_reduction(psi, report, ACCEPTANCE_LAMBDAS)
    assert stats.min_slope >= 7.0


def test_verify_empty_generators_zero_residual(z2_setup):
    _, basis, P = z2_setup
    psi = GradedPotential.from_psi(basis, jpp(1, {(1,): cf("a"), (2,): cf("b")}), {"a"})
    report = reduce(psi, 6, P)
    lam = {"a": F(-3, 10), "b": F(1)}
    stats = verify_reduction(psi, report, [lam])
    assert stats.min_slope == report.residual_degree + 2
    assert report.reduced.x_polynomial(lam) == psi.x_polynomial(lam)


def test_verify_corrupted_generator_fails(z2_setup):
    _, basis, P = z2_setup
    psi = sextic(basis)
    report = reduce(psi, 6, P)
    good = report.generators[0]
    bad_h = jpp(1, {(2,): good.h_poly.terms[(2,)] + Coefficient.number(F(1, 100))})
    corrupted = ReductionReport(
        reduced=report.reduced,
        generators=(PoincareGenerator(bad_h, 4),) + report.generators[1:],
        removed_terms=report.removed_terms,
        residual_degree=report.residual_degree,
    )
    with pytest.raises(VerificationFailed):
        verify_reduction(psi, corrupted, [{"a": -0.5, "b": 1.0, "c": 0.3}])


def test_verify_z2xz2(z2xz2_setup):
    _, basis, P = z2xz2_setup
    psi = z2xz2_degree6_potential(basis)
    report = reduce(psi, 6, P)
    lam = {"a": -0.3, "eps": 0.2, "c1": 0.5, "c2": -0.33, "c3": 0.28, "c4": 0.25}
    stats = verify_reduction(psi, report, [lam])
    assert stats.min_slope >= 7.0


def _without_term(reduced: GradedPotential, degree, mono) -> GradedPotential:
    comp = reduced.component(degree)
    kept = {m: c for m, c in comp.terms.items() if m != mono}
    components = {**reduced.components, degree: Polynomial(comp.nvars, kept, J_KIND)}
    return GradedPotential(reduced.basis, components, reduced.critical)


@pytest.mark.parametrize("group, ell", [("z2_line", 6), ("z2xz2", 4), ("d4", 4)])
def test_verify_names_the_degree_of_a_dropped_term(request, group, ell):
    # every term the reduced potential keeps is needed: without it the
    # residual starts at that term's x-degree
    rep = request.getfixturevalue(group)
    basis = compute_mib(rep)
    psi = GradedPotential.from_model(build_generic(basis, degree_x=ell))
    report = reduce(psi, ell, p_matrix(rep, basis))
    lam = {name: F(1, k + 2) for k, name in enumerate(sorted(psi.parameters()))}
    assert verify_reduction(psi, report, [lam]).min_slope > ell
    dropped = 0
    for d in report.reduced.degrees():
        for mono in report.reduced.component(d).terms:
            mutant = ReductionReport(
                reduced=_without_term(report.reduced, d, mono),
                generators=report.generators,
                removed_terms=report.removed_terms,
                residual_degree=report.residual_degree,
            )
            with pytest.raises(VerificationFailed, match=f"residual term of degree {d} "):
                verify_reduction(psi, mutant, [lam])
            dropped += 1
    assert dropped >= 2


nonzero = st.fractions(-3, 3, max_denominator=7).filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.fractions(-3, 3, max_denominator=7), nonzero, st.fractions(-3, 3, max_denominator=7))
def test_verify_z2_sextic_at_random_rationals(z2_setup, a, b, c):
    # the reduction divides by b (the quartic coefficient), never by a
    _, basis, P = z2_setup
    psi = sextic(basis)
    report = reduce(psi, 6, P)
    stats = verify_reduction(psi, report, [{"a": a, "b": b, "c": c}])
    assert stats.min_slope > 6


# --------------------------------------------------- structure preservation


def test_pitchfork_structure_preserved(z2_setup):
    # global-minimizer symmetry type agrees before and after reduction
    _, basis, P = z2_setup
    psi = sextic(basis)
    report = reduce(psi, 6, P)
    for a in (F(-6, 10), F(-2, 10), F(1, 10), F(4, 10), F(8, 10)):
        lam = {"a": a, "b": F(1), "c": F(3, 10)}
        orig_model = make_model(basis, psi.total(), critical={"a"})
        red_model = make_model(basis, report.reduced.total(), critical={"a"})
        best_orig = minimize(orig_model, lam)[0]
        best_red = minimize(red_model, lam)[0]
        assert best_orig.symmetry.label == best_red.symmetry.label


# -------------------------------------------------------------- containers


def test_graded_potential_validation(z2_line):
    basis = compute_mib(z2_line)
    with pytest.raises(ValueError):
        GradedPotential(basis, {4: jpp(1, {(1,): 1})}, frozenset())
    with pytest.raises(ValueError):
        GradedPotential(basis, {0: jpp(1, {(0,): 1})}, frozenset())


def test_graded_potential_from_model(z2_line):
    from orbitscope.landau import build_generic

    basis = compute_mib(z2_line)
    model = build_generic(basis)
    psi = GradedPotential.from_model(model)
    assert psi.degrees() == (2, 4)
    assert psi.critical == frozenset({"a1"})
    assert psi.total() == model.psi


def test_generator_must_be_homogeneous(z2_line):
    basis = compute_mib(z2_line)
    with pytest.raises(ValueError):
        poincare_generator(jpp(1, {(1,): 1, (2,): 1}), basis)
