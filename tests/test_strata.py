"""Symmetry types, lattice order, and principal critical orbit families."""

import math
import random
from fractions import Fraction

import pytest

from conftest import B3_GENS, FLIP_Y, ROT90, orbit, realized_by_stabilizer

from orbitscope import groups, rationals as ra, strata
from orbitscope.groups import (
    close_generators,
    fixed_subspace,
    invariant_metric,
    isotropy_subgroup,
)
from orbitscope.invariants import compute_mib, jmonomials_of_xdegree
from orbitscope.landau import build_generic, classify_symmetry, minimize
from orbitscope.polynomials import J_KIND, Polynomial, substitute
from orbitscope.strata import (
    isotropy_lattice,
    principal_critical_orbits,
    principal_stratum,
    symmetry_types,
)


def random_invariant(rng, basis, max_xdegree):
    """Random rational-coefficient invariant built over the basis."""
    terms = {}
    for d in range(2, max_xdegree + 1):
        for expo in jmonomials_of_xdegree(basis.degrees, d):
            c = rng.randint(-6, 6)
            if c:
                terms[expo] = Fraction(c)
    psi = Polynomial(basis.k, terms, J_KIND)
    return substitute(psi, basis.polys)


def parallel_exact(u, v):
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


# -------------------------------------------------------------- symmetry types


def test_types_z2_plane(z2_plane):
    types = symmetry_types(z2_plane)
    assert len(types) == 2
    by_order = {t.order: t for t in types}
    assert by_order[2].fix_dim == 0 and by_order[2].realized
    assert by_order[1].fix_dim == 2 and by_order[1].realized


def test_types_z2xz2(z2xz2):
    types = symmetry_types(z2xz2)
    assert len(types) == 5
    assert all(len(t.conjugates) == 1 for t in types)
    realized = [t for t in types if t.realized]
    assert len(realized) == 4
    unrealized = [t for t in types if not t.realized]
    assert len(unrealized) == 1 and unrealized[0].fix_dim == 0
    assert unrealized[0].order == 2
    # the unrealized order-2 subgroup is the diagonal {I, -I}
    rep_sub = unrealized[0].representative
    assert len(fixed_subspace(z2xz2, rep_sub)) == 0
    axis_types = [t for t in realized if t.fix_dim == 1]
    assert len(axis_types) == 2


def test_types_d4(d4):
    types = symmetry_types(d4)
    assert sum(len(t.conjugates) for t in types) == 10
    assert len(types) == 8
    realized = [t for t in types if t.realized]
    assert len(realized) == 4
    assert sorted((t.order, t.fix_dim) for t in realized) == [
        (1, 2),
        (2, 1),
        (2, 1),
        (8, 0),
    ]


def test_types_s3(s3_perm):
    types = symmetry_types(s3_perm)
    assert len(types) == 4
    realized = {(t.order, t.fix_dim) for t in types if t.realized}
    # full group fixes the diagonal line; C3 shares that line and is shadowed
    assert realized == {(1, 3), (2, 2), (6, 1)}
    c3 = next(t for t in types if t.order == 3)
    assert c3.fix_dim == 1 and not c3.realized


@pytest.mark.parametrize("name", [
    "z2_line", "z2_plane", "z2xz2", "z4", "d4", "d4_sheared", "s3_perm",
    "s4_perm", "o_rot", "o_rot_conj", "z3_hex", "neg_identity_3", "z3_perm",
    "a4_rot", "b3", "b3_conj", "b4_rot", "s5_std",
])
def test_realized_matches_pointwise_stabilizer(request, name):
    # the flag read off the subgroup lattice against the pointwise
    # stabilizer of each representative's fixed space, by matrices; and
    # the fix dimension, a mean trace, against that space's exact basis
    rep = request.getfixturevalue(name)
    for t in symmetry_types(rep):
        fix = fixed_subspace(rep, t.representative)
        assert t.fix_dim == len(fix), t.label
        assert t.realized == realized_by_stabilizer(rep, t.representative, fix), t.label


def test_types_deterministic():
    # two closures of the same generators, so neither reads the other's memo
    first, second = (close_generators([ROT90, FLIP_Y], name="d4") for _ in range(2))
    assert symmetry_types(first) == symmetry_types(second)


def test_isotropy_lattice_built_once():
    # kept in rep.memo, so cmd_strata and principal_stratum share one lattice
    rep = close_generators([ROT90, FLIP_Y], name="d4-lattice")
    assert isotropy_lattice(rep) is isotropy_lattice(rep)


@pytest.mark.parametrize("gens", [(ROT90, FLIP_Y), B3_GENS], ids=["d4", "b3"])
def test_isotropy_lattice_conjugates_each_class_once(monkeypatch, gens):
    # all_subgroups conjugates each member of a new class once by each
    # generator, walking the class as an orbit; the lattice reads the
    # classes it returns and conjugates nothing again
    calls = []
    conjugate = groups.conjugate_subgroup

    def counted(*args):
        calls.append(args)
        return conjugate(*args)

    monkeypatch.setattr(groups, "conjugate_subgroup", counted)
    monkeypatch.setattr(strata, "conjugate_subgroup", counted, raising=False)
    rep = close_generators(gens)
    lattice = isotropy_lattice(rep)
    conjugates = sum(len(t.conjugates) for t in lattice.types if t.order > 1)
    assert len(calls) == conjugates * len(rep.generators)


def test_symmetry_types_enumerated_once(monkeypatch):
    # every consumer of the types reads them from rep.memo, so one group
    # runs the subgroup search once however many of them are called
    calls = []

    def counted(rep, *args, **kwargs):
        calls.append(rep.name)
        return groups.all_subgroups(rep, *args, **kwargs)

    monkeypatch.setattr(strata, "all_subgroups", counted)
    rep = close_generators([ROT90, FLIP_Y], name="d4-fresh")
    symmetry_types(rep)
    isotropy_lattice(rep)
    principal_stratum(rep)
    principal_critical_orbits(rep)
    classify_symmetry(rep, (0.3, 0.0))
    model = build_generic(compute_mib(rep), degree_x=4)
    lam = {name: Fraction(1, 4) for name in model.parameters()}
    lam["a1"] = Fraction(-1)
    minimize(model, lam)
    assert calls == ["d4-fresh"]


def test_conjugates_share_order_and_fixdim(d4, s3_perm):
    for rep in (d4, s3_perm):
        for t in symmetry_types(rep):
            for c in t.conjugates:
                assert c.order == t.order
                assert len(fixed_subspace(rep, c)) == t.fix_dim


# ------------------------------------------------------- the type of a point


def stratum_of(rep, point):
    """The symmetry type that holds the isotropy subgroup of an exact point."""
    iso = isotropy_subgroup(rep, point)
    (t,) = [t for t in symmetry_types(rep) if t.contains_subgroup(iso)]
    return t


def test_stratum_of_d4_points(d4):
    axis = stratum_of(d4, (1, 0))
    diag = stratum_of(d4, (1, 1))
    generic = stratum_of(d4, (2, 1))
    assert axis.order == 2 and axis.fix_dim == 1
    assert diag.order == 2 and diag.fix_dim == 1
    assert axis != diag
    assert generic.order == 1 and generic.fix_dim == 2
    assert stratum_of(d4, (0, 0)).order == 8


def test_stratum_constant_on_orbits(d4, s3_perm):
    rng = random.Random(5)
    for rep in (d4, s3_perm):
        for _ in range(25):
            x = tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rep.dim)
            )
            t = stratum_of(rep, x)
            for y in orbit(rep, x):
                assert stratum_of(rep, y) == t


# --------------------------------------------------------------------- lattice


def test_lattice_z2(z2_plane):
    lat = isotropy_lattice(z2_plane)
    trivial = next(i for i, t in enumerate(lat.types) if t.order == 1)
    full = next(i for i, t in enumerate(lat.types) if t.order == 2)
    assert lat.order_pairs == frozenset({(trivial, full)})


def test_lattice_z2xz2(z2xz2):
    lat = isotropy_lattice(z2xz2)
    trivial = next(i for i, t in enumerate(lat.types) if t.order == 1)
    full = next(i for i, t in enumerate(lat.types) if t.order == 4)
    mids = [i for i, t in enumerate(lat.types) if t.order == 2]
    assert len(mids) == 3
    for m in mids:
        assert (trivial, m) in lat.order_pairs and (m, full) in lat.order_pairs
    realized_mids = [m for m in mids if lat.types[m].realized]
    assert len(realized_mids) == 2


def test_lattice_d4(d4):
    lat = isotropy_lattice(d4)
    trivial = next(i for i, t in enumerate(lat.types) if t.order == 1)
    full = next(i for i, t in enumerate(lat.types) if t.order == 8)
    reflections = [
        i for i, t in enumerate(lat.types) if t.order == 2 and t.fix_dim == 1
    ]
    assert len(reflections) == 2
    for r in reflections:
        assert (trivial, r) in lat.order_pairs and (r, full) in lat.order_pairs
    assert not any(i == full for i, _ in lat.order_pairs)


def test_lattice_strict_partial_order(d4, s3_perm, z2xz2):
    for rep in (d4, s3_perm, z2xz2):
        lat = isotropy_lattice(rep)
        less = lat.order_pairs
        for i, j in less:
            assert i != j
            for j2, k in less:
                if j2 == j:
                    assert (i, k) in less


def test_lattice_order_respects_fixed_spaces(d4, s3_perm, z2xz2):
    # [H] < [K] forces Fix(K) inside the fixed space of the contained conjugate
    for rep in (d4, s3_perm, z2xz2):
        lat = isotropy_lattice(rep)
        for (i, j) in lat.order_pairs:
            ti, tj = lat.types[i], lat.types[j]
            assert ti.fix_dim >= tj.fix_dim
            high = set(tj.representative.members)
            witness = next(
                c for c in ti.conjugates if set(c.members) < high
            )
            low_fix = fixed_subspace(rep, witness)
            reducer = ra.RowReducer(rep.dim)
            for row in low_fix:
                reducer.add(list(row))
            for v in fixed_subspace(rep, tj.representative):
                assert not reducer.residual(list(v))


def test_hasse_edges_d4(d4):
    lat = isotropy_lattice(d4)
    edges = lat.hasse_edges()
    assert all((i, j) in lat.order_pairs for i, j in edges)
    trivial = next(i for i, t in enumerate(lat.types) if t.order == 1)
    full = next(i for i, t in enumerate(lat.types) if t.order == 8)
    # trivial < full is implied through intermediate classes, never a cover
    assert (trivial, full) not in edges


# ----------------------------------------------------------- principal stratum


def test_principal_stratum(z2_plane, d4, s3_perm):
    for rep in (z2_plane, d4, s3_perm):
        p = principal_stratum(rep)
        assert p.order == 1 and p.fix_dim == rep.dim


def test_principal_stratum_trivial_group():
    rep = close_generators([ra.mat_identity(2)], name="trivial2")
    p = principal_stratum(rep)
    assert p.order == 1 and p.fix_dim == 2


# ----------------------------------------------------- principal critical orbits


def test_rays_d4(d4):
    rays = principal_critical_orbits(d4)
    assert len(rays) == 2
    directions = sorted(tuple(r.direction) for r in rays)
    assert directions == [(1, 0), (1, 1)] or directions == [(0, 1), (1, 1)]
    for r in rays:
        assert r.symmetry.realized and r.symmetry.fix_dim == 1
        norm = sum(c * c for c in r.unit)
        assert abs(norm - 1.0) < 1e-12


def test_rays_z2_plane_empty(z2_plane):
    assert principal_critical_orbits(z2_plane) == ()


def test_rays_z2xz2(z2xz2):
    rays = principal_critical_orbits(z2xz2)
    assert sorted(tuple(r.direction) for r in rays) == [(0, 1), (1, 0)]


def test_rays_s3_diagonal(s3_perm):
    rays = principal_critical_orbits(s3_perm)
    assert len(rays) == 1
    assert tuple(rays[0].direction) == (1, 1, 1)
    assert rays[0].symmetry.order == 6


# ------------------------------------------------------------ Michel property


def test_rays_are_gradient_parallel(d4, z2xz2, s3_perm):
    rng = random.Random(17)
    for rep in (d4, z2xz2, s3_perm):
        basis = compute_mib(rep)
        rays = principal_critical_orbits(rep)
        assert rays
        for _ in range(20):
            phi = random_invariant(rng, basis, 2 * basis.max_degree)
            for ray in rays:
                grad = [g.evaluate(ray.direction) for g in phi.gradient()]
                assert parallel_exact(grad, ray.direction)


def test_rays_parallel_in_sheared_frame(d4_sheared):
    # non-orthogonal action: parallelism holds for the metric gradient
    # eta_inv grad(phi), exactly; the plain gradient is c * eta v with eta v
    # off the ray, so it is parallel only where it vanishes
    rng = random.Random(23)
    basis = compute_mib(d4_sheared)
    metric = invariant_metric(d4_sheared)
    rays = principal_critical_orbits(d4_sheared)
    assert len(rays) == 2
    for _ in range(10):
        phi = random_invariant(rng, basis, 2 * basis.max_degree)
        for ray in rays:
            grad = tuple(g.evaluate(ray.direction) for g in phi.gradient())
            w = ra.mat_vec(metric.eta_inv, grad)
            assert parallel_exact(w, ray.direction)
            assert parallel_exact(grad, ray.direction) == (not any(grad))


def test_principal_points_not_critical(d4, z2xz2):
    rng = random.Random(29)
    for rep in (d4, z2xz2):
        basis = compute_mib(rep)
        phi = random_invariant(rng, basis, 2 * basis.max_degree)
        grads = phi.gradient()
        found = 0
        for _ in range(20):
            theta = rng.uniform(0.05, 1.5)
            v = (math.cos(theta), math.sin(theta))
            g = [float(gr.evaluate(v)) for gr in grads]
            dot = sum(gi * vi for gi, vi in zip(g, v))
            tangential = [gi - dot * vi for gi, vi in zip(g, v)]
            if sum(t * t for t in tangential) ** 0.5 > 1e-8:
                found += 1
        assert found == 20
