"""Top-level acceptance criteria, one test per criterion.

Each test registers a PASS/FAIL line that the terminal summary prints at
the end of the run (see conftest.pytest_terminal_summary).
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from test_invariants import brute_force_invariant_dim

from orbitscope.cli import main as cli_main
from orbitscope.dynamics import gradient_field, integrate
from orbitscope.groups import invariant_metric, isotropy_subgroup
from orbitscope.invariants import (
    compute_mib,
    find_relations,
    jmonomials_of_xdegree,
    molien_series,
    p_matrix,
)
from orbitscope.landau import (
    classify_symmetry,
    make_model,
    minimize,
    sweep,
)
from orbitscope.params import Coefficient
from orbitscope.polynomials import J_KIND, Polynomial, substitute
from orbitscope.reduction import (
    reduce,
    removable_terms,
    verify_reduction,
)
from orbitscope.strata import principal_critical_orbits

F = Fraction


def jpp(k, terms):
    return Polynomial(k, {m: Coefficient.coerce(c) for m, c in terms.items()}, J_KIND)


def criterion(n, body):
    try:
        ok, detail = body()
    except Exception as exc:
        conftest.ACCEPTANCE_RESULTS[n] = (False, f"{type(exc).__name__}: {exc}")
        raise
    conftest.ACCEPTANCE_RESULTS[n] = (ok, detail)
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_footnote_fixture(z2_plane):
    def body():
        t0 = time.perf_counter()
        basis = compute_mib(z2_plane)
        relations = find_relations(basis)
        elapsed = time.perf_counter() - t0
        want = (
            Polynomial(2, {(2, 0): F(1)}, "x"),
            Polynomial(2, {(0, 2): F(1)}, "x"),
            Polynomial(2, {(1, 1): F(1)}, "x"),
        )
        ideal = Polynomial(3, {(1, 1, 0): F(1), (0, 0, 2): F(-1)}, J_KIND)
        ok = (
            basis.degrees == (2, 2, 2)
            and basis.polys == want
            and relations == (ideal,)
            and elapsed < 1.0
        )
        return ok, (
            f"degrees {list(basis.degrees)}, relation ideal "
            f"(J1*J2 - J3^2), {elapsed:.3f}s"
        )

    criterion(1, body)


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_molien_brute_force(z2_plane, z2xz2, z4, d4, s3_perm, s4_perm):
    reps = [z2_plane, z2xz2, z4, d4, s3_perm, s4_perm]

    def body():
        t0 = time.perf_counter()
        for rep in reps:
            mol = molien_series(rep, 8)
            for d in range(9):
                assert mol.coefficient(d) == brute_force_invariant_dim(rep, d), (
                    f"{rep.name} degree {d}"
                )
        elapsed = time.perf_counter() - t0
        return elapsed < 60.0, (
            f"6 groups, d<=8, exact match with Reynolds ranks, {elapsed:.1f}s"
        )

    criterion(2, body)


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_pmatrix_identities(
    z2_line, z2_plane, z2xz2, z4, d4, s3_perm, s4_perm, d4_sheared
):
    reps = [z2_line, z2_plane, z2xz2, z4, d4, s3_perm, s4_perm, d4_sheared]

    def body():
        min_eig = np.inf
        for rep in reps:
            basis = compute_mib(rep)
            pm = p_matrix(rep, basis)
            eta_inv = invariant_metric(rep).eta_inv
            grads = [p.gradient() for p in basis.polys]
            n = rep.dim
            k = len(basis.polys)
            for i in range(k):
                for h in range(k):
                    acc = Polynomial(n, {}, "x")
                    for a in range(n):
                        for b in range(n):
                            w = eta_inv[a][b]
                            if w:
                                acc = acc + (grads[i][a] * grads[h][b]).scale(w)
                    assert substitute(pm.entries[i][h], basis.polys) == acc, (
                        f"{rep.name} entry ({i},{h})"
                    )
            rng = np.random.default_rng(7)
            for _ in range(100):
                x = rng.standard_normal(n)
                jx = tuple(p.evaluate(x.tolist()) for p in basis.polys)
                mat = np.array(
                    [[float(e.evaluate(jx)) for e in row] for row in pm.entries]
                )
                eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
                min_eig = min(min_eig, eigs[0])
            assert min_eig >= -1e-10, f"{rep.name} min eigenvalue {min_eig}"
        return True, (
            f"8 groups: exact substitution identity, PSD at 100 points each "
            f"(min eigenvalue {min_eig:.2e})"
        )

    criterion(3, body)


# ---------------------------------------------------------------- criterion 4


def _random_invariant(basis, rng, max_degree=6, dense=False):
    """Random J-polynomial; with dense=True coefficients are rationals with
    scattered denominators, so exact cancellations (an invariant whose
    sphere restriction happens to be constant) do not occur."""
    weights = basis.degrees
    terms = {}
    for d in range(2, max_degree + 1):
        for m in jmonomials_of_xdegree(weights, d):
            if dense:
                terms[m] = F(int(rng.integers(-999, 1000)), int(rng.integers(1, 98)))
            else:
                c = int(rng.integers(-9, 10))
                if c:
                    terms[m] = F(c)
    k = len(weights)
    for i in range(k):
        if not any(m[i] for m in terms):
            unit = tuple(1 if j == i else 0 for j in range(k))
            terms[unit] = F(1 + int(rng.integers(0, 9)))
    return Polynomial(k, terms, J_KIND)


def test_criterion_4_michel_rays(d4, z2xz2):
    def body():
        worst_ray = 0.0
        weakest_generic = np.inf
        for rep in (d4, z2xz2):
            basis = compute_mib(rep)
            eta_inv = np.array(
                [[float(c) for c in row] for row in invariant_metric(rep).eta_inv]
            )
            rays = principal_critical_orbits(rep)
            assert rays, rep.name
            rng = np.random.default_rng(11)

            for _ in range(20):
                jp = _random_invariant(basis, rng)
                phi = substitute(jp, basis.polys)
                grad = phi.gradient()
                for ray in rays:
                    u = np.array(ray.unit)
                    g = np.array([float(q.evaluate(tuple(u))) for q in grad])
                    w = eta_inv @ g
                    tang = w - (w @ u) * u
                    worst_ray = max(worst_ray, float(np.linalg.norm(tang)))
            assert worst_ray <= 1e-9, f"{rep.name} ray residual {worst_ray}"

            # exclude the whole group orbit of each ray, not just the
            # representative direction
            mats = [
                np.array([[float(c) for c in row] for row in t])
                for t in rep.elements
            ]
            units = []
            for r in rays:
                for T in mats:
                    w = T @ np.array(r.unit)
                    units.append(w / np.linalg.norm(w))
            count = 0
            while count < 20:
                v = rng.standard_normal(rep.dim)
                v /= np.linalg.norm(v)
                if min(
                    min(np.linalg.norm(v - u), np.linalg.norm(v + u)) for u in units
                ) < 0.2:
                    continue
                count += 1
                jp = _random_invariant(basis, rng, dense=True)
                phi = substitute(jp, basis.polys)
                g = np.array([float(q.evaluate(tuple(v))) for q in phi.gradient()])
                w = eta_inv @ g
                tang = w - (w @ v) * v
                weakest_generic = min(weakest_generic, float(np.linalg.norm(tang)))
            assert weakest_generic > 1e-10, (
                f"{rep.name} generic point tangential {weakest_generic}"
            )
        return True, (
            f"ray tangential <= {worst_ray:.1e}; generic points all nonzero "
            f"(weakest {weakest_generic:.2e})"
        )

    criterion(4, body)


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_pitchfork(z2_line):
    def body():
        basis = compute_mib(z2_line)
        model = make_model(
            basis,
            jpp(1, {(1,): Coefficient.parameter("a"), (2,): 1}),
            critical={"a"},
        )
        grid = [F(i, 10) for i in range(-10, 11)]
        diagram = sweep(model, "a", grid)
        assert diagram.transitions, "no transition found"
        t = diagram.transitions[0]
        assert abs(t.parameter_value) <= 1e-6, f"transition at {t.parameter_value}"

        worst = 0.0
        for k in range(10):
            a = F(-(k + 1), 10)
            best = minimize(model, {"a": a})[0]
            target = float(np.sqrt(-float(a) / 2.0))
            err = abs(abs(best.location[0]) - target)
            worst = max(worst, err)
        assert worst <= 1e-8, f"minimizer error {worst}"
        return True, (
            f"transition at {t.parameter_value:.2e}, minimizer error <= {worst:.1e}"
        )

    criterion(5, body)


# ---------------------------------------------------------------- criterion 6


def _d4_grid_oracle(a, c):
    def phi(X, Y):
        j1 = X * X + Y * Y
        j2 = X * X * Y * Y
        return a * j1 + j1 * j1 + c * j2 + j2 * j2

    cx = cy = 0.0
    half = 1.6
    best = None
    for _ in range(4):
        xs = np.linspace(cx - half, cx + half, 401)
        ys = np.linspace(cy - half, cy + half, 401)
        X, Y = np.meshgrid(xs, ys)
        V = phi(X, Y)
        i, j = np.unravel_index(np.argmin(V), V.shape)
        best, cx, cy = V[i, j], X[i, j], Y[i, j]
        half = 4 * (xs[1] - xs[0])
    return float(best)


def test_criterion_6_d4_phase_selection(d4):
    def body():
        basis = compute_mib(d4)
        model = make_model(
            basis,
            jpp(2, {(1, 0): Coefficient.parameter("a"), (2, 0): 1,
                    (0, 1): Coefficient.parameter("c"), (0, 2): 1}),
            critical={"a"},
        )
        axis = classify_symmetry(d4, np.array([1.0, 0.0])).label
        diagonal = classify_symmetry(d4, np.array([1.0, 1.0])).label
        assert axis != diagonal

        details = []
        for c, expected in ((F(1, 2), axis), (F(-1, 2), diagonal)):
            best = minimize(model, {"a": -1, "c": c})[0]
            assert best.symmetry.label == expected, (
                f"c={c}: got {best.symmetry.label}, expected {expected}"
            )
            oracle = _d4_grid_oracle(-1.0, float(c))
            gap = abs(best.value - oracle)
            assert gap <= 1e-6, f"c={c}: value gap {gap}"
            details.append(f"c={c}: {expected}, grid gap {gap:.1e}")
        return True, "; ".join(details)

    criterion(6, body)


# ---------------------------------------------------------------- criterion 7


def _sextic(basis, critical=("a",)):
    return make_model(
        basis,
        jpp(1, {(1,): Coefficient.parameter("a"),
                (2,): Coefficient.parameter("b"),
                (3,): Coefficient.parameter("c")}),
        critical,
    )


def test_criterion_7_reduction(z2_line):
    def body():
        basis = compute_mib(z2_line)
        pm = p_matrix(z2_line, basis)
        psi = _sextic(basis)
        report = reduce(psi, 6, pm)
        assert report.removed_terms == ((6, (3,)),), report.removed_terms
        assert report.reduced.component(6).is_zero()
        before = psi.component(2).terms
        after = report.reduced.component(2).terms
        assert before.keys() == after.keys()
        for m in before:
            assert after[m].num == before[m].num and after[m].den == before[m].den
        stats = verify_reduction(
            psi,
            report,
            [
                {"a": -0.5, "b": 1.0, "c": 0.3},
                {"a": 0.2, "b": 1.0, "c": -0.4},
                {"a": 0.0, "b": 1.0, "c": 1.0},
            ],
        )
        assert stats.min_slope >= 7.0, f"slope {stats.min_slope}"
        return True, (
            f"J1^3 removed exactly, quadratic part bitwise unchanged, "
            f"min slope {stats.min_slope:.2f}"
        )

    criterion(7, body)


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_uniformity(z2_line):
    def body():
        basis = compute_mib(z2_line)
        pm = p_matrix(z2_line, basis)
        psi = _sextic(basis, critical=("a", "b", "c"))
        report = reduce(psi, 6, pm)
        assert report.generators == ()
        assert report.removed_terms == ()
        sub4 = removable_terms(psi, 4, pm)
        sub6 = removable_terms(psi, 6, pm)
        assert sub4.removable_monomials == () and sub4.non_removable == ((2,),)
        assert sub6.removable_monomials == () and sub6.non_removable == ((3,),)
        violations = 0
        one = Coefficient.number(1).den
        for coeff in report.reduced.psi.terms.values():
            if coeff.den != one:
                violations += 1
        assert violations == 0
        return True, (
            "nothing removed, every candidate reported non-removable, "
            "0 division violations"
        )

    criterion(8, body)


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_dynamics(d4, z2_line):
    def body():
        d4_basis = compute_mib(d4)
        model = make_model(
            d4_basis,
            jpp(2, {(1, 0): Coefficient.parameter("a"), (2, 0): 1,
                    (0, 1): Coefficient.parameter("c"), (0, 2): 1}),
            critical={"a"},
        )
        field = gradient_field(model, {"a": -1, "c": F(1, 2)})
        mats = [
            np.array([[float(c) for c in row] for row in t])
            for t in d4.elements
        ]
        x0 = np.array([0.37, -0.21])
        base = integrate(field, x0, 5.0, 1e-2)
        equiv = max(
            float(np.max(np.abs(integrate(field, T @ x0, 5.0, 1e-2).states
                                - base.states @ T.T)))
            for T in mats
        )
        assert equiv <= 1e-9, f"equivariance {equiv}"

        worst_fix = 0.0
        for point in ((F(1), F(0)), (F(1), F(1))):
            residuals = conftest.fix_residuals(d4, field, isotropy_subgroup(d4, point))
            assert all(fres <= 1e-10 and tres <= 1e-8 for fres, tres in residuals)
            worst_fix = max(worst_fix, *(tres for _, tres in residuals))

        z_basis = compute_mib(z2_line)
        z_model = make_model(
            z_basis, jpp(1, {(1,): Coefficient.parameter("a"), (2,): 1}),
            critical={"a"},
        )
        z_field = gradient_field(z_model, {"a": -1})
        residuals = []
        dt = 1e-2
        while dt >= 1e-3:
            traj = integrate(z_field, [0.1], 2.0, dt)
            residuals.append(conftest.orbit_space_residuals(z_field, traj)[0])
            dt /= 2.0
        ratios = [big / small for big, small in zip(residuals, residuals[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), f"ratios {ratios}"
        return True, (
            f"equivariance {equiv:.1e}, fix invariance {worst_fix:.1e}, "
            f"dt-halving ratios {[round(r, 2) for r in ratios]}"
        )

    criterion(9, body)


# --------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def body():
        z2 = tmp_path / "z2line.json"
        z2.write_text(json.dumps({"name": "z2-line", "generators": [[["-1"]]]}))
        d4spec = tmp_path / "d4.json"
        d4spec.write_text(json.dumps({
            "name": "d4",
            "generators": [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]],
        }))
        commands = [
            ["group", "--spec", str(d4spec), "--format", "json"],
            ["invariants", "--spec", str(d4spec), "--format", "json"],
            ["strata", "--spec", str(d4spec), "--format", "csv"],
            ["landau", "--spec", str(z2), "--ell", "4", "--param", "a2=1",
             "--sweep", "a1:-1:1:11", "--format", "csv", "--seed", "2"],
            ["reduce", "--spec", str(z2), "--ell", "6", "--param", "a2=1",
             "--param", "a3=3/10", "--format", "json"],
            ["flow", "--spec", str(z2), "--ell", "4", "--param", "a1=-1",
             "--x0", "0.1", "--t-end", "0.1", "--dt", "0.01", "--format", "csv"],
        ]
        for argv in commands:
            rc1 = cli_main(argv)
            out1, err1 = capsys.readouterr()
            rc2 = cli_main(argv)
            out2, err2 = capsys.readouterr()
            assert rc1 == rc2 == 0, f"{argv[0]}: rc {rc1}/{rc2} err {err1 or err2}"
            assert out1 == out2, f"{argv[0]}: outputs differ"
            assert len(out1) > 0
        return True, "6 subcommands byte-identical across reruns"

    criterion(10, body)
