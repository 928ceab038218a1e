"""Gradient flow in the original variables and its shadow in orbit space.

The descent field is f(x) = -eta_inv grad Phi(x); the sign makes minima
attractors.  With the invariant metric folded in, f commutes with the group
action, so fixed-point subspaces of realized isotropy groups are flow
invariant: a trajectory that starts with a symmetry keeps it.  Both facts
are checked numerically here rather than trusted.

Projection to orbit space sends x(t) to J(x(t)).  The projected curve obeys
its own first-order system, which we never form explicitly; instead
`orbit_space_consistency` confirms by finite differences that d/dt J(x(t))
agrees with (DJ)(x) f(x) to the expected O(dt^2).

For a finite group every orbit is finite, so there are no genuine relative
equilibria: a trajectory whose orbit is stationary is itself stationary.
No separate machinery is provided for them.

The integrator is a fixed-step classical Runge-Kutta scheme.  Fixed steps
keep reruns bit-identical; the energy guard catches the one failure mode
that matters for descent flows (a step overshooting uphill) and retries
with 2, 4, ..., 64 substeps (`_MAX_HALVINGS` = 6) before giving up.

`check_stratum_invariance` draws 6 points of Fix(H) (`_INVARIANCE_SAMPLES`)
from a generator seeded with 0, flows each to t = 2.0 (`_INVARIANCE_T_END`)
in steps of 1e-2 (`_INVARIANCE_DT`), and accepts a field residual up to
1e-10 (`_FIELD_TOL`) and a trajectory residual up to 1e-8
(`_TRAJECTORY_TOL`) off Fix(H).  `ConsistencyReport.energy_monotone`
accepts a rise of the projected potential up to 1e-9
(`_ENERGY_MONOTONE_TOL`).

Non-gradient fields may be integrated too -- any callable works -- but the
energy diagnostics only engage when the field exposes a `potential`
attribute, as the fields built by `gradient_field` do.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MonotonicityViolation, NonFiniteState
from .groups import FiniteGroupRep, Subgroup, fixed_subspace, float_group
from .invariants import IntegrityBasis
from .landau import LandauModel
from .polynomials import compile_gradient, compile_polynomial

_MAX_HALVINGS = 6
_INVARIANCE_SAMPLES = 6
_INVARIANCE_T_END = 2.0
_INVARIANCE_DT = 1e-2
_FIELD_TOL = 1e-10
_TRAJECTORY_TOL = 1e-8
_ENERGY_MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    dt: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise DimensionMismatch(
                f"{len(self.times)} times vs {len(self.states)} states"
            )
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class OrbitSpaceTrajectory:
    times: np.ndarray
    j_states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.j_states):
            raise DimensionMismatch(
                f"{len(self.times)} times vs {len(self.j_states)} projected states"
            )


class GradientField:
    """Callable descent field with its potential and metric attached.

    Evaluation is float throughout; the exact model is kept only to build
    the compiled pieces once.
    """

    def __init__(self, model: LandauModel, assignment):
        self.model = model
        self.assignment = dict(assignment)
        phi = model.potential(assignment)
        self._phi = compile_polynomial(phi)
        self._grad = compile_gradient(phi)
        self.dim = model.basis.rep.dim
        self._eta_inv = float_group(model.basis.rep)[1]

    def __call__(self, x) -> np.ndarray:
        return -self._eta_inv @ self._grad(x)

    def potential(self, x) -> float:
        return self._phi(x)

    def gradient(self, x) -> np.ndarray:
        return self._grad(x)


def gradient_field(model: LandauModel, assignment) -> GradientField:
    """Bind parameters and return x |-> -eta_inv grad Phi(x)."""
    return GradientField(model, assignment)


def _rk4_step(field, x: np.ndarray, h: float) -> np.ndarray:
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    field,
    x0,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-9,
) -> Trajectory:
    """Fixed-step integration with an energy guard for gradient fields.

    Takes round(t_end / dt) steps of dt; none when t_end rounds to 0, so
    the trajectory is the start point alone.

    A step that raises the potential by more than energy_tol is retried
    with 2, 4, ..., 2**_MAX_HALVINGS substeps before MonotonicityViolation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("initial state is not finite")
    potential = getattr(field, "potential", None)

    steps = int(round(t_end / dt))
    times = np.empty(steps + 1)
    states = np.empty((steps + 1, len(x)))
    times[0] = 0.0
    states[0] = x

    # overflow in a rejected candidate step is expected, not news
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_steps(field, potential, x, dt, steps, times, states, energy_tol)


def _run_steps(field, potential, x, dt, steps, times, states, energy_tol) -> Trajectory:
    for i in range(steps):
        x_new = _rk4_step(field, x, dt)
        if potential is not None and np.all(np.isfinite(x_new)):
            e_old = potential(x)
            if potential(x_new) > e_old + energy_tol:
                for halving in range(1, _MAX_HALVINGS + 1):
                    nsub = 2**halving
                    h = dt / nsub
                    y = x
                    for _ in range(nsub):
                        y = _rk4_step(field, y, h)
                    if np.all(np.isfinite(y)) and potential(y) <= e_old + energy_tol:
                        x_new = y
                        break
                else:
                    raise MonotonicityViolation(
                        f"potential increased at t={times[i]:.6g} and substep "
                        f"refinement down to dt/{2**_MAX_HALVINGS} did not cure it"
                    )
        if not np.all(np.isfinite(x_new)):
            raise NonFiniteState(f"state left the finite range at t={times[i]:.6g}")
        x = x_new
        times[i + 1] = (i + 1) * dt
        states[i + 1] = x
    return Trajectory(times, states, dt)


# ---------------------------------------------------------------------------
# stratum invariance


@dataclass(frozen=True)
class InvarianceSample:
    point: tuple
    field_residual: float
    trajectory_residual: float
    ok: bool


@dataclass(frozen=True)
class StratumInvarianceReport:
    subgroup: Subgroup
    fix_dim: int
    samples: tuple

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.samples)

    @property
    def violations(self) -> tuple:
        return tuple(s for s in self.samples if not s.ok)


def _orthonormal_fix(rep: FiniteGroupRep, sub: Subgroup) -> np.ndarray:
    """Columns: orthonormal float basis of Fix(H); shape (n, fix_dim)."""
    vecs = fixed_subspace(rep, sub)
    if not vecs:
        return np.zeros((rep.dim, 0))
    raw = np.array([[float(c) for c in v] for v in vecs]).T
    q, _ = np.linalg.qr(raw)
    return q[:, : len(vecs)]


def check_stratum_invariance(
    rep: FiniteGroupRep, field, sub: Subgroup
) -> StratumInvarianceReport:
    """Sample Fix(H), test f(x) in Fix(H), and flow each sample point.

    The tangency requirement for the flow along a stratum closure becomes,
    for a linear action, exactly invariance of the fixed-point subspace;
    both the field residual and the integrated trajectory are checked
    against that subspace.
    """
    basis_mat = _orthonormal_fix(rep, sub)
    fix_dim = basis_mat.shape[1]
    rng = np.random.default_rng(0)

    out = []
    for _ in range(_INVARIANCE_SAMPLES):
        if fix_dim == 0:
            x = np.zeros(rep.dim)
        else:
            coeffs = rng.standard_normal(fix_dim)
            norm = np.linalg.norm(coeffs)
            if norm < 1e-12:
                coeffs = np.ones(fix_dim)
                norm = np.linalg.norm(coeffs)
            x = basis_mat @ (0.7 * coeffs / norm)

        def off_fix(v):
            return float(np.linalg.norm(v - basis_mat @ (basis_mat.T @ v)))

        fres = off_fix(field(x))
        traj = integrate(field, x, _INVARIANCE_T_END, _INVARIANCE_DT)
        tres = max(off_fix(s) for s in traj.states)
        ok = fres <= _FIELD_TOL and tres <= _TRAJECTORY_TOL
        out.append(InvarianceSample(tuple(x), fres, tres, ok))
        if fix_dim == 0:
            break
    return StratumInvarianceReport(sub, fix_dim, tuple(out))


# ---------------------------------------------------------------------------
# orbit-space projection


def project_trajectory(basis: IntegrityBasis, traj: Trajectory) -> OrbitSpaceTrajectory:
    orbit_map = compile_polynomial(basis.polys)
    j_states = np.array([orbit_map(x) for x in traj.states])
    return OrbitSpaceTrajectory(traj.times, j_states)


@dataclass(frozen=True)
class ConsistencyReport:
    max_residual: float
    max_energy_increase: float
    projected: OrbitSpaceTrajectory

    def energy_monotone(self) -> bool:
        return self.max_energy_increase <= _ENERGY_MONOTONE_TOL


def orbit_space_consistency(field: GradientField, traj: Trajectory) -> ConsistencyReport:
    """Central-difference check that J(x(t)) obeys the projected system.

    residual_i = | (J_{i+1} - J_{i-1}) / 2dt  -  (DJ)(x_i) f(x_i) |,
    maximized over interior points; O(dt^2) for smooth trajectories.  The
    potential expressed through the projected states must not increase.
    """
    basis = field.model.basis
    projected = project_trajectory(basis, traj)
    jacobian = compile_polynomial([d for p in basis.polys for d in p.gradient()])
    dt = traj.dt

    worst = 0.0
    for i in range(1, len(traj.times) - 1):
        x = traj.states[i]
        fx = field(x)
        rows = jacobian(x).reshape(basis.k, -1)
        rhs = np.array([sum(d * fv for d, fv in zip(row, fx)) for row in rows])
        fd = (projected.j_states[i + 1] - projected.j_states[i - 1]) / (2.0 * dt)
        worst = max(worst, float(np.max(np.abs(fd - rhs))))

    psi_num = compile_polynomial(field.model.psi_at(field.assignment))
    energies = np.array([psi_num(j) for j in projected.j_states])
    increase = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    return ConsistencyReport(worst, increase, projected)


def dump_trajectory_csv(out, field: GradientField, traj: Trajectory) -> None:
    """t, x-components, basis values, potential -- one row per step."""
    basis = field.model.basis
    projected = project_trajectory(basis, traj)
    k = len(basis.polys)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["t"]
        + [f"x{i + 1}" for i in range(field.dim)]
        + [f"J{i + 1}" for i in range(k)]
        + ["phi"]
    )
    for t, x, j in zip(traj.times, traj.states, projected.j_states):
        writer.writerow(
            [f"{t:.12g}"]
            + [f"{c:.17g}" for c in x]
            + [f"{c:.17g}" for c in j]
            + [f"{field.potential(x):.17g}"]
        )
