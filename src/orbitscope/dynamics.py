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
with 2, 4, ..., 64 substeps (`_MAX_HALVINGS` = 6) before giving up.  A
`GradientField` compiles one step as a single function that inlines the
field at the four stages and the potential at the new state
(`_rk4_kernel`); `integrate` runs it in one loop for steps and substeps
alike.

`check_stratum_invariance` draws 6 points of Fix(H) (`_INVARIANCE_SAMPLES`)
from a generator seeded with 0, flows each to t = 2.0 (`_INVARIANCE_T_END`)
in steps of 1e-2 (`_INVARIANCE_DT`), and accepts a field residual up to
1e-10 (`_FIELD_TOL`) and a trajectory residual up to 1e-8
(`_TRAJECTORY_TOL`) off Fix(H).  `ConsistencyReport.energy_monotone`
accepts a rise of the projected potential up to 1e-9
(`_ENERGY_MONOTONE_TOL`).

Non-gradient fields may be integrated too -- any callable works, stepped
by `_rk4_step` through the same loop -- but the energy diagnostics only
engage when the field exposes a `potential` attribute, as the fields built
by `gradient_field` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MonotonicityViolation, NonFiniteState
from .groups import FiniteGroupRep, Subgroup, fixed_subspace, invariant_metric
from .invariants import IntegrityBasis
from .landau import LandauModel
from .polynomials import Polynomial, _compile_kernel, _kernel_body, compile_polynomial

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

    Evaluation is float throughout.  The field -eta_inv grad Phi is formed
    exactly and compiled once, like the potential; a call takes any
    sequence of coordinates and returns the kernel's tuple of floats.
    ``step`` is one classical Runge-Kutta step compiled as a single
    function (see :func:`_rk4_kernel`), which :func:`integrate` runs.
    """

    def __init__(self, model: LandauModel, assignment):
        self.model = model
        self.assignment = dict(assignment)
        rep = model.basis.rep
        phi = model.potential(assignment)
        grads = phi.gradient()
        zero = Polynomial.zero(rep.dim)
        descent = [
            sum((g.scale(-w) for w, g in zip(row, grads) if w), zero)
            for row in invariant_metric(rep).eta_inv
        ]
        self._phi = compile_polynomial(phi)
        self._field = compile_polynomial(descent)
        self.step = _rk4_kernel(descent, phi)
        self.dim = rep.dim

    def __call__(self, x) -> tuple:
        return self._field(x)

    def potential(self, x) -> float:
        return self._phi(x)


def gradient_field(model: LandauModel, assignment) -> GradientField:
    """Bind parameters and return x |-> -eta_inv grad Phi(x)."""
    return GradientField(model, assignment)


def _rk4_kernel(field: list[Polynomial], phi: Polynomial):
    """One Runge-Kutta step of the polynomial field, compiled as one function.

    The function ``_k(x0, ..., x{n-1}, h)`` returns
    ``((x0', ...), phi(x'))``.  The field is inlined at the four stages and
    phi at the new state, with the operations of :func:`_rk4_step` in the
    same order, so the two agree to the last bit.
    """
    n = len(field)
    xs = [f"x{i}" for i in range(n)]
    lines = [f"def _k({', '.join(xs)}, h):", "    half = 0.5 * h", "    sixth = h / 6.0"]

    def slope(k, at):
        statements, outputs = _kernel_body(field, at, f"k{k}_")
        names = [f"k{k}_{i}" for i in range(n)]
        lines.extend(f"    {s}" for s in statements)
        lines.extend(f"    {a} = {e}" for a, e in zip(names, outputs))
        return names

    def point(name, scale, ks):
        names = [f"{name}{i}" for i in range(n)]
        lines.extend(f"    {a} = {x} + {scale} * {k}" for a, x, k in zip(names, xs, ks))
        return names

    k1 = slope(1, xs)
    k2 = slope(2, point("y", "half", k1))
    k3 = slope(3, point("z", "half", k2))
    k4 = slope(4, point("w", "h", k3))
    new = [f"n{i}" for i in range(n)]
    lines += [
        f"    {a} = {x} + sixth * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
        for a, x, b1, b2, b3, b4 in zip(new, xs, k1, k2, k3, k4)
    ]
    statements, (energy,) = _kernel_body([phi], new, "p_")
    lines += [f"    {s}" for s in statements]
    lines.append(f"    return ({', '.join(new)},), {energy}")
    return _compile_kernel("\n".join(lines) + "\n")


def _rk4_step(field, x: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step on a tuple of plain floats."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = tuple(map(float, field(x)))
    k2 = tuple(map(float, field(tuple(a + half * b for a, b in zip(x, k1)))))
    k3 = tuple(map(float, field(tuple(a + half * b for a, b in zip(x, k2)))))
    k4 = tuple(map(float, field(tuple(a + h * b for a, b in zip(x, k3)))))
    return tuple(
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
    )


def _finite(x: tuple) -> bool:
    return all(map(math.isfinite, x))


def _callable_step(field, potential):
    """A bare callable field as a step ``(x0, ..., h) -> (x', energy)``:
    :func:`_rk4_step`, with the potential at x' when there is one and x'
    is finite, else None."""

    def step(*args):
        x = _rk4_step(field, args[:-1], args[-1])
        return x, (potential(x) if potential is not None and _finite(x) else None)

    return step


def integrate(
    field,
    x0,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-9,
) -> Trajectory:
    """Fixed-step integration with an energy guard for gradient fields.

    Takes round(t_end / dt) steps of dt; none when t_end rounds to 0, so
    the trajectory is the start point alone.  A GradientField runs its
    compiled step; any other callable runs :func:`_rk4_step` on it.

    A step that raises the potential by more than energy_tol is retried
    with 2, 4, ..., 2**_MAX_HALVINGS substeps before MonotonicityViolation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("initial state is not finite")
    potential = getattr(field, "potential", None)
    if isinstance(field, GradientField):
        step = field.step
    else:
        step = _callable_step(field, potential)
    steps = int(round(t_end / dt))
    x = tuple(x.tolist())
    energy = None if potential is None else potential(x)

    # overflow in a rejected candidate step is expected, not news
    with np.errstate(over="ignore", invalid="ignore"):
        states = _run_steps(step, x, energy, dt, steps, energy_tol)
    return Trajectory(np.arange(steps + 1) * dt, np.array(states), dt)


def _run_steps(step, x: tuple, e_old, dt, steps, energy_tol) -> list[tuple]:
    """The states after 0, 1, ..., steps steps, each a tuple of floats.

    e_old is the potential at x, or None when the field has none."""
    states = [x]
    for i in range(steps):
        x_new, e_new = step(*x, dt)
        if not _finite(x_new):
            raise NonFiniteState(f"state left the finite range at t={i * dt:.6g}")
        if e_old is not None and e_new > e_old + energy_tol:
            for halving in range(1, _MAX_HALVINGS + 1):
                nsub = 2**halving
                h = dt / nsub
                y = x
                for _ in range(nsub):
                    y, e_new = step(*y, h)
                if _finite(y) and e_new <= e_old + energy_tol:
                    x_new = y
                    break
            else:
                raise MonotonicityViolation(
                    f"potential increased at t={i * dt:.6g} and substep "
                    f"refinement down to dt/{2**_MAX_HALVINGS} did not cure it"
                )
        x, e_old = x_new, e_new
        states.append(x)
    return states


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
    j_states = compile_polynomial(basis.polys).eval_many(traj.states)
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
        rows = np.reshape(jacobian(x), (basis.k, -1))
        rhs = np.array([sum(d * fv for d, fv in zip(row, fx)) for row in rows])
        fd = (projected.j_states[i + 1] - projected.j_states[i - 1]) / (2.0 * dt)
        worst = max(worst, float(np.max(np.abs(fd - rhs))))

    psi_num = compile_polynomial(field.model.psi_at(field.assignment))
    energies = np.array([psi_num(j) for j in projected.j_states])
    increase = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    return ConsistencyReport(worst, increase, projected)


def dump_trajectory_csv(out, field: GradientField, traj: Trajectory) -> None:
    """t, x-components, basis values, potential -- one row per step.

    Every cell is a number or a fixed header, so each row is one
    ``%``-format of plain floats; the potential of every row comes from one
    :meth:`NumericPoly.eval_many` call, bit-identical to the scalar kernel."""
    basis = field.model.basis
    projected = project_trajectory(basis, traj)
    k = len(basis.polys)
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(field.dim)]
        + [f"J{i + 1}" for i in range(k)]
        + ["phi"]
    )
    out.write(",".join(header) + "\n")
    row = "%.12g," + ",".join(["%.17g"] * (field.dim + k + 1)) + "\n"
    phis = field._phi.eval_many(traj.states).tolist()
    for t, x, j, phi in zip(
        traj.times.tolist(), traj.states.tolist(), projected.j_states.tolist(), phis
    ):
        out.write(row % (t, *x, *j, phi))
