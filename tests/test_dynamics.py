"""Gradient flow: descent field, integration, invariance, projection."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    cli_default_assignment,
    fix_residuals,
    float_bits,
    orbit_space_residuals,
    reference_flow,
    reference_rk4_step,
)

from orbitscope.dynamics import (
    Trajectory,
    dump_trajectory_csv,
    gradient_field,
    integrate,
    project_trajectory,
)
from orbitscope.errors import (
    DimensionMismatch,
    MonotonicityViolation,
    NonFiniteState,
)
from orbitscope.groups import fixed_subspace, isotropy_subgroup
from orbitscope.invariants import compute_mib
from orbitscope.landau import build_generic, make_model
from orbitscope.params import Coefficient
from orbitscope.polynomials import J_KIND, Polynomial, compile_gradient

F = Fraction


def jpp(k, terms):
    return Polynomial(k, {m: Coefficient.coerce(c) for m, c in terms.items()}, J_KIND)


@pytest.fixture(scope="module")
def pitchfork(z2_line):
    basis = compute_mib(z2_line)
    model = make_model(
        basis, jpp(1, {(1,): Coefficient.parameter("a"), (2,): 1}), critical={"a"}
    )
    return z2_line, basis, gradient_field(model, {"a": -1})


@pytest.fixture(scope="module")
def d4_flow(d4):
    basis = compute_mib(d4)
    model = make_model(
        basis,
        jpp(2, {(1, 0): Coefficient.parameter("a"), (2, 0): 1,
                (0, 1): Coefficient.parameter("c"), (0, 2): 1}),
        critical={"a"},
    )
    field = gradient_field(model, {"a": -1, "c": F(1, 2)})
    mats = [
        np.array([[float(c) for c in row] for row in t])
        for t in d4.elements
    ]
    return d4, basis, field, mats


# ------------------------------------------------------------------ field


def test_field_formula_pitchfork(pitchfork):
    # Psi = -J + J^2 gives f(x) = -(d/dx)(-x^2 + x^4) = 2x - 4x^3
    _, _, f = pitchfork
    for x in (0.0, 0.1, 0.5, -0.8, 1.3):
        assert f([x])[0] == pytest.approx(2 * x - 4 * x**3, abs=1e-14)


def test_field_vanishes_at_origin(pitchfork, d4_flow):
    _, _, f = pitchfork
    assert f([0.0])[0] == 0.0
    _, _, f4, _ = d4_flow
    assert np.linalg.norm(f4([0.0, 0.0])) == 0.0


def test_field_equivariance_d4(d4_flow):
    rep, _, f, mats = d4_flow
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(2)
        for T in mats:
            assert np.linalg.norm(f(T @ x) - T @ f(x)) <= 1e-12


# -------------------------------------------------------------- integrate


def test_pitchfork_converges(pitchfork):
    _, _, f = pitchfork
    traj = integrate(f, [0.1], 20.0, 1e-2)
    target = 1.0 / np.sqrt(2.0)
    assert abs(traj.final_state[0] - target) <= 1e-6
    # independent fine-step run lands in the same place
    fine = integrate(f, [0.1], 20.0, 1e-4)
    assert abs(traj.final_state[0] - fine.final_state[0]) <= 1e-9


def test_fixed_point_constant(pitchfork):
    _, _, f = pitchfork
    traj = integrate(f, [0.0], 1.0, 1e-2)
    assert np.max(np.abs(traj.states)) == 0.0


def test_mirror_trajectory(pitchfork):
    _, _, f = pitchfork
    plus = integrate(f, [0.1], 20.0, 1e-2)
    minus = integrate(f, [-0.1], 20.0, 1e-2)
    assert np.max(np.abs(minus.states + plus.states)) <= 1e-10


def test_trajectory_equivariance(d4_flow):
    rep, _, f, mats = d4_flow
    x0 = np.array([0.37, -0.21])
    base = integrate(f, x0, 5.0, 1e-2)
    for T in mats:
        moved = integrate(f, T @ x0, 5.0, 1e-2)
        assert np.max(np.abs(moved.states - base.states @ T.T)) <= 1e-9


def test_limit_point_is_critical(d4_flow):
    _, _, f, _ = d4_flow
    traj = integrate(f, np.array([0.31, 0.77]), 60.0, 1e-2)
    grad = compile_gradient(f.model.potential(f.assignment))
    assert np.linalg.norm(grad(traj.final_state)) <= 1e-6


def test_energy_guard_cures_overshoot(pitchfork):
    # raw rk4 from x0=2 with dt=0.5 explodes; the substep retry saves it
    _, _, f = pitchfork
    traj = integrate(f, [2.0], 8.0, 0.5)
    fine = integrate(f, [2.0], 8.0, 1e-4)
    assert abs(traj.final_state[0] - fine.final_state[0]) <= 1e-4
    assert abs(traj.final_state[0] - 1.0 / np.sqrt(2.0)) <= 1e-5


def runaway_field(z2_line):
    # Phi = x^2 - x^4 is unbounded below: from |x| > 1/sqrt(2) the flow
    # leaves the finite range
    model = make_model(compute_mib(z2_line), jpp(1, {(1,): 1, (2,): -1}))
    return gradient_field(model, {})


def test_nonfinite_state_raises(pitchfork, z2_line):
    _, _, f = pitchfork
    with pytest.raises(NonFiniteState, match="initial state"):
        integrate(f, [math.inf], 1.0, 1e-2)
    with pytest.raises(NonFiniteState, match="left the finite range"):
        integrate(runaway_field(z2_line), [1.5], 40.0, 0.05)


def test_monotonicity_violation_raises(z2_line):
    # Phi = J1 = x^2: steps of 100 overshoot uphill, and so do the
    # substeps down to 100/64
    model = make_model(compute_mib(z2_line), jpp(1, {(1,): 1}))
    field = gradient_field(model, {})
    with pytest.raises(MonotonicityViolation):
        integrate(field, [1.0], 100.0, 100.0)
    with pytest.raises(MonotonicityViolation):
        reference_flow(field, [1.0], 100.0, 1)


@pytest.fixture(scope="module", params=["d4_sheared", "o_rot"])
def default_field(request):
    rep = request.getfixturevalue(request.param)
    model = build_generic(compute_mib(rep))
    return gradient_field(model, cli_default_assignment(model))


def test_compiled_step_is_rk4_step(default_field):
    # the fused kernel takes the reference step's float operations in its
    # order, at the step and at every energy-guard substep length
    f = default_field
    dt = 1e-2
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.5, 1.5, size=(8, f.dim)).tolist():
        for k in range(7):
            h = dt / 2**k
            want = reference_rk4_step(f, tuple(x), h)
            got, energy = f.step(*x, h)
            assert float_bits(got) == float_bits(want)
            assert energy.hex() == f.potential(want).hex()


def test_compiled_and_bare_paths_agree(pitchfork, default_field):
    # integrate against the reference Python loop over the bare field
    _, _, f = pitchfork
    x0 = np.linspace(0.9, -0.6, default_field.dim)
    # dt = 0.5 from x0 = 2 on the pitchfork retries with substeps
    for field, start, steps, dt in ((f, [2.0], 16, 0.5), (default_field, x0, 300, 1e-2)):
        compiled = integrate(field, start, steps * dt, dt)
        reference = reference_flow(field, start, dt, steps)
        assert compiled.states.tobytes() == np.array(reference).tobytes()


def test_out_of_range_step_is_retried_like_an_uphill_one(d4):
    # at the CLI defaults on d4, one step of 0.005 from (3, 1) lands at
    # |x| ~ 1e165, where phi overflows to nan, and one of 0.01 overflows
    # the state itself; both are retried with substeps, as the reference
    # loop does, and the flow descends to the finite minimum
    model = build_generic(compute_mib(d4))
    field = gradient_field(model, cli_default_assignment(model))
    for dt in (0.005, 0.01):
        x_new, e_new = field.step(3.0, 1.0, dt)
        assert not (math.isfinite(e_new) and all(map(math.isfinite, x_new)))
        compiled = integrate(field, [3.0, 1.0], 1.0, dt)
        reference = reference_flow(field, [3.0, 1.0], dt, round(1.0 / dt))
        assert compiled.states.tobytes() == np.array(reference).tobytes()
        assert np.all(np.isfinite(compiled.states))


def test_compiled_path_reports_runaway(z2_line):
    # the error names the start of the step that left the finite range
    field = runaway_field(z2_line)
    states = reference_flow(field, [1.5], 0.05, 800)
    assert not all(map(math.isfinite, states[-1]))
    with pytest.raises(NonFiniteState) as exc:
        integrate(field, [1.5], 40.0, 0.05)
    assert str(exc.value) == f"state left the finite range at t={(len(states) - 2) * 0.05:.6g}"


def test_trajectory_validation():
    with pytest.raises(DimensionMismatch):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), 1.0)


def test_integrate_rejects_bad_t_end_and_dt(pitchfork):
    _, _, f = pitchfork
    for t_end in (-1.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t_end must be finite and non-negative"):
            integrate(f, [0.5], t_end, 0.01)
    for dt in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate(f, [0.5], 1.0, dt)
    assert len(integrate(f, [0.5], 0.0, 0.01).states) == 1


# ------------------------------------------------------ stratum invariance


def test_axis_mirror_invariant(d4_flow):
    rep, _, f, _ = d4_flow
    mirror = isotropy_subgroup(rep, (F(1), F(0)))
    assert mirror.order == 2
    assert len(fixed_subspace(rep, mirror)) == 1
    residuals = fix_residuals(rep, f, mirror)
    assert len(residuals) == 6
    for field_residual, trajectory_residual in residuals:
        assert field_residual <= 1e-10
        assert trajectory_residual <= 1e-8


def test_diagonal_mirror_invariant(d4_flow):
    rep, _, f, _ = d4_flow
    mirror = isotropy_subgroup(rep, (F(1), F(1)))
    assert mirror.order == 2
    for field_residual, trajectory_residual in fix_residuals(rep, f, mirror):
        assert field_residual <= 1e-10
        assert trajectory_residual <= 1e-8


def test_trivial_subgroup_vacuous(d4_flow):
    rep, _, f, _ = d4_flow
    trivial = isotropy_subgroup(rep, (F(1), F(3)))
    assert trivial.order == 1
    assert len(fixed_subspace(rep, trivial)) == 2
    for field_residual, trajectory_residual in fix_residuals(rep, f, trivial):
        assert field_residual <= 1e-10
        assert trajectory_residual <= 1e-8


def test_full_group_origin(d4_flow):
    rep, _, f, _ = d4_flow
    full = isotropy_subgroup(rep, (F(0), F(0)))
    assert full.order == rep.order
    assert fixed_subspace(rep, full) == []
    assert fix_residuals(rep, f, full) == [(0.0, 0.0)]  # f(0) = 0


# -------------------------------------------------------------- projection


def test_project_constant(pitchfork):
    _, basis, f = pitchfork
    traj = integrate(f, [0.0], 1.0, 1e-2)
    j_states = project_trajectory(basis, traj)
    assert j_states.shape == (len(traj.times), 1)
    assert np.max(np.abs(j_states)) == 0.0


def test_projection_orbit_invariant(d4_flow):
    rep, basis, f, mats = d4_flow
    x0 = np.array([0.4, 0.15])
    p1 = project_trajectory(basis, integrate(f, x0, 3.0, 1e-2))
    p2 = project_trajectory(basis, integrate(f, mats[3] @ x0, 3.0, 1e-2))
    assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_consistency_residual_small(pitchfork):
    _, _, f = pitchfork
    traj = integrate(f, [0.1], 2.0, 1.25e-3)
    residual, rise = orbit_space_residuals(f, traj)
    assert residual < 1e-5
    assert rise <= 1e-9


def test_consistency_quarters_under_halving(pitchfork):
    # residual is O(dt^2): halving dt divides it by ~4
    _, _, f = pitchfork
    residuals = []
    dt = 1e-2
    while dt >= 1e-3:
        traj = integrate(f, [0.1], 2.0, dt)
        residuals.append(orbit_space_residuals(f, traj)[0])
        dt /= 2.0
    for big, small in zip(residuals, residuals[1:]):
        assert 3.5 <= big / small <= 4.5


def test_energy_monotone_d4(d4_flow):
    _, _, f, _ = d4_flow
    traj = integrate(f, np.array([0.31, 0.77]), 10.0, 1e-2)
    assert orbit_space_residuals(f, traj)[1] <= 1e-9


def test_csv_dump(d4_flow):
    _, _, f, _ = d4_flow
    traj = integrate(f, np.array([0.4, 0.15]), 0.03, 1e-2)
    buf = io.StringIO()
    dump_trajectory_csv(buf, f, traj)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,J1,J2,phi"
    assert len(lines) == 1 + len(traj.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.4)
    assert float(first[3]) == pytest.approx(0.4**2 + 0.15**2)


def test_csv_dump_rows_are_the_scalar_rows(default_field):
    # one eval_many call and one %-format per row give the bytes of the
    # scalar potential kernel and per-cell f-strings
    f = default_field
    traj = integrate(f, np.array([0.3, -0.2, 0.1][: f.dim]), 0.5, 1e-2)
    buf = io.StringIO()
    dump_trajectory_csv(buf, f, traj)
    j_states = project_trajectory(f.model.basis, traj)
    want = [
        ",".join(
            [f"{t:.12g}"] + [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in j]
            + [f"{f.potential(x):.17g}"]
        )
        for t, x, j in zip(
            traj.times.tolist(), traj.states.tolist(), j_states.tolist()
        )
    ]
    assert buf.getvalue().splitlines()[1:] == want
    for v in [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.1]:
        assert ("%.12g" % v, "%.17g" % v) == (f"{v:.12g}", f"{v:.17g}")
