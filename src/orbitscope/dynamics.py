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
with finer substeps before giving up.

Non-gradient fields may be integrated too -- any callable works -- but the
energy diagnostics only engage when the field exposes a `potential`
attribute, as the fields built by `gradient_field` do.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MonotonicityViolation, NonFiniteState
from .groups import FiniteGroupRep, Subgroup, fixed_subspace, invariant_metric
from .invariants import IntegrityBasis
from .landau import LandauModel
from .polynomials import compile_gradient, compile_polynomial


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    dt: float
    integrator: str = "rk4"

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
        eta_inv = invariant_metric(model.basis.rep).eta_inv
        self._eta_inv = np.array([[float(c) for c in row] for row in eta_inv])

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.array([d(x) for d in self._grad])
        return -self._eta_inv @ g

    def potential(self, x) -> float:
        return self._phi(np.asarray(x, dtype=float))

    def gradient(self, x) -> np.ndarray:
        return np.array([d(np.asarray(x, dtype=float)) for d in self._grad])


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
    max_halvings: int = 6,
) -> Trajectory:
    """Fixed-step integration with an energy guard for gradient fields.

    Takes round(t_end / dt) steps of dt; none when t_end rounds to 0, so
    the trajectory is the start point alone.

    A step that raises the potential by more than energy_tol is retried
    with 2, 4, ..., 2**max_halvings substeps before MonotonicityViolation.
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
        return _run_steps(field, potential, x, dt, steps, times, states,
                          energy_tol, max_halvings)


def _run_steps(field, potential, x, dt, steps, times, states, energy_tol,
               max_halvings) -> Trajectory:
    for i in range(steps):
        x_new = _rk4_step(field, x, dt)
        if potential is not None and np.all(np.isfinite(x_new)):
            e_old = potential(x)
            if potential(x_new) > e_old + energy_tol:
                for halving in range(1, max_halvings + 1):
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
                        f"refinement down to dt/{2**max_halvings} did not cure it"
                    )
        if not np.all(np.isfinite(x_new)):
            raise NonFiniteState(f"state left the finite range at t={times[i]:.6g}")
        x = x_new
        times[i + 1] = (i + 1) * dt
        states[i + 1] = x
    return Trajectory(times, states, dt, "rk4")


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
    field_tol: float
    trajectory_tol: float

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
    rep: FiniteGroupRep,
    field,
    sub: Subgroup,
    samples: int = 6,
    seed: int = 0,
    field_tol: float = 1e-10,
    trajectory_tol: float = 1e-8,
    t_end: float = 2.0,
    dt: float = 1e-2,
) -> StratumInvarianceReport:
    """Sample Fix(H), test f(x) in Fix(H), and flow each sample point.

    The tangency requirement for the flow along a stratum closure becomes,
    for a linear action, exactly invariance of the fixed-point subspace;
    both the field residual and the integrated trajectory are checked
    against that subspace.
    """
    basis_mat = _orthonormal_fix(rep, sub)
    fix_dim = basis_mat.shape[1]
    rng = np.random.default_rng(seed)

    out = []
    for _ in range(samples):
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
        traj = integrate(field, x, t_end, dt)
        tres = max(off_fix(s) for s in traj.states)
        ok = fres <= field_tol and tres <= trajectory_tol
        out.append(InvarianceSample(tuple(x), fres, tres, ok))
        if fix_dim == 0:
            break
    return StratumInvarianceReport(
        sub, fix_dim, tuple(out), field_tol, trajectory_tol
    )


# ---------------------------------------------------------------------------
# orbit-space projection


def project_trajectory(basis: IntegrityBasis, traj: Trajectory) -> OrbitSpaceTrajectory:
    evals = [compile_polynomial(p) for p in basis.polys]
    j_states = np.array([[e(x) for e in evals] for x in traj.states])
    return OrbitSpaceTrajectory(traj.times, j_states)


@dataclass(frozen=True)
class ConsistencyReport:
    max_residual: float
    max_energy_increase: float
    projected: OrbitSpaceTrajectory

    def energy_monotone(self, tol: float = 1e-9) -> bool:
        return self.max_energy_increase <= tol


def orbit_space_consistency(field: GradientField, traj: Trajectory) -> ConsistencyReport:
    """Central-difference check that J(x(t)) obeys the projected system.

    residual_i = | (J_{i+1} - J_{i-1}) / 2dt  -  (DJ)(x_i) f(x_i) |,
    maximized over interior points; O(dt^2) for smooth trajectories.  The
    potential expressed through the projected states must not increase.
    """
    basis = field.model.basis
    projected = project_trajectory(basis, traj)
    grads = [compile_gradient(p) for p in basis.polys]
    dt = traj.dt

    worst = 0.0
    for i in range(1, len(traj.times) - 1):
        x = traj.states[i]
        fx = field(x)
        rhs = np.array([sum(d(x) * fv for d, fv in zip(g, fx)) for g in grads])
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
