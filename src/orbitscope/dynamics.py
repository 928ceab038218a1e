"""Gradient flow in the original variables and its shadow in orbit space.

The descent field is f(x) = -eta_inv grad Phi(x); the sign makes minima
attractors.  With the invariant metric folded in, f commutes with the group
action, so fixed-point subspaces of realized isotropy groups are flow
invariant: a trajectory that starts with a symmetry keeps it.  The tests
check both facts numerically rather than trust them.

Projection to orbit space sends x(t) to J(x(t)).  The projected curve obeys
its own first-order system, which we never form explicitly; the tests
confirm by finite differences that d/dt J(x(t)) agrees with (DJ)(x) f(x) to
the expected O(dt^2).

For a finite group every orbit is finite, so there are no genuine relative
equilibria: a trajectory whose orbit is stationary is itself stationary.
No separate machinery is provided for them.

The integrator is a fixed-step classical Runge-Kutta scheme.  Fixed steps
keep reruns bit-identical; the energy guard catches the one failure mode
that matters for descent flows (a step overshooting uphill, or out of the
finite range of the state or its potential) and retries with 2, 4, ..., 64
substeps (`_MAX_HALVINGS` = 6) before giving up.  A `GradientField`
compiles one step as a single function that inlines the field at the four
stages and the potential at the new state (`_rk4_kernel`); `integrate`
takes a `GradientField` and runs that step in one loop for steps and
substeps alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MonotonicityViolation, NonFiniteState
from .groups import invariant_metric
from .invariants import IntegrityBasis
from .landau import LandauModel
from .polynomials import Polynomial, _compile_kernel, _kernel_body, compile_polynomial

_MAX_HALVINGS = 6


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


class GradientField:
    """Callable descent field with its potential and metric attached.

    Evaluation is float throughout.  The field -eta_inv grad Phi is formed
    exactly and compiled into one kernel with the potential ahead of it; a
    call takes any sequence of coordinates and returns the field's tuple
    of floats, and :meth:`potential` the potential.  ``step`` is one
    classical Runge-Kutta step compiled as a single function (see
    :func:`_rk4_kernel`), which :func:`integrate` runs.
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
        self._kernel = compile_polynomial([phi, *descent])
        self.step = _rk4_kernel(descent, phi)
        self.dim = rep.dim

    def __call__(self, x) -> tuple:
        return self._kernel(x)[1:]

    def potential(self, x) -> float:
        return self._kernel(x)[0]


def gradient_field(model: LandauModel, assignment) -> GradientField:
    """Bind parameters and return x |-> -eta_inv grad Phi(x)."""
    return GradientField(model, assignment)


def _rk4_kernel(field: list[Polynomial], phi: Polynomial):
    """One Runge-Kutta step of the polynomial field, compiled as one function.

    The function ``_k(x0, ..., x{n-1}, h)`` returns
    ``((x0', ...), phi(x'))``.  The field is inlined at the four stages and
    phi at the new state, with the float operations of the classical
    scheme k1 = f(x), k2 = f(x + h/2 k1), k3 = f(x + h/2 k2),
    k4 = f(x + h k3), x' = x + h/6 (k1 + 2 k2 + 2 k3 + k4) in that order.
    """
    n = len(field)
    xs = [f"x{i}" for i in range(n)]
    lines = ["half = 0.5 * h", "sixth = h / 6.0"]
    constants = {}

    def slope(k, at):
        statements, outputs, named = _kernel_body(field, at, f"k{k}_")
        names = [f"k{k}_{i}" for i in range(n)]
        lines.extend(statements)
        lines.extend(f"{a} = {e}" for a, e in zip(names, outputs))
        constants.update(named)
        return names

    def point(name, scale, ks):
        names = [f"{name}{i}" for i in range(n)]
        lines.extend(f"{a} = {x} + {scale} * {k}" for a, x, k in zip(names, xs, ks))
        return names

    k1 = slope(1, xs)
    k2 = slope(2, point("y", "half", k1))
    k3 = slope(3, point("z", "half", k2))
    k4 = slope(4, point("w", "h", k3))
    new = [f"n{i}" for i in range(n)]
    lines += [
        f"{a} = {x} + sixth * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
        for a, x, b1, b2, b3, b4 in zip(new, xs, k1, k2, k3, k4)
    ]
    statements, (energy,), named = _kernel_body([phi], new, "p_")
    lines += statements
    lines.append(f"return ({', '.join(new)},), {energy}")
    constants.update(named)
    return _compile_kernel([*xs, "h"], lines, constants)


def _finite(x: tuple, energy: float) -> bool:
    return math.isfinite(energy) and all(map(math.isfinite, x))


def integrate(
    field: GradientField,
    x0,
    t_end: float,
    dt: float,
    energy_tol: float = 1e-9,
) -> Trajectory:
    """Fixed-step integration with an energy guard for gradient fields.

    Takes round(t_end / dt) steps of dt; none when t_end rounds to 0, so
    the trajectory is the start point alone.  Each step is the field's
    compiled RK4 step.  ValueError unless dt > 0 and t_end is finite and
    non-negative.

    A step that leaves the finite range (the state or its potential) or
    raises the potential by more than energy_tol is retried with 2, 4,
    ..., 2**_MAX_HALVINGS substeps.  When none of them cures it, that is
    NonFiniteState if neither the step nor any retry ended finite, and
    MonotonicityViolation otherwise.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and non-negative")
    steps = int(round(t_end / dt))
    step = field.step
    x = tuple(np.asarray(x0, dtype=float).tolist())
    e_old = field.potential(x)
    if not _finite(x, e_old):
        raise NonFiniteState("initial state or its potential is not finite")
    states = [x]
    for i in range(steps):
        x_new, e_new = step(*x, dt)
        finite = _finite(x_new, e_new)
        if not (finite and e_new <= e_old + energy_tol):
            for halving in range(1, _MAX_HALVINGS + 1):
                nsub = 2**halving
                h = dt / nsub
                y = x
                for _ in range(nsub):
                    y, e_new = step(*y, h)
                if _finite(y, e_new):
                    finite = True
                    if e_new <= e_old + energy_tol:
                        x_new = y
                        break
            else:
                if not finite:
                    raise NonFiniteState(f"state left the finite range at t={i * dt:.6g}")
                raise MonotonicityViolation(
                    f"potential increased at t={i * dt:.6g} and substep "
                    f"refinement down to dt/{2**_MAX_HALVINGS} did not cure it"
                )
        x, e_old = x_new, e_new
        states.append(x)
    return Trajectory(np.arange(steps + 1) * dt, np.array(states), dt)


# ---------------------------------------------------------------------------
# orbit-space projection


def project_trajectory(basis: IntegrityBasis, traj: Trajectory) -> np.ndarray:
    """J(x(t)): the basis at every state, one row per time."""
    return compile_polynomial(basis.polys).eval_many(traj.states)


def dump_trajectory_csv(out, field: GradientField, traj: Trajectory) -> None:
    """t, x-components, basis values, potential -- one row per step.

    Every cell is a number or a fixed header, so each row is one
    ``%``-format of plain floats; the potential of every row is column 0 of
    one :meth:`NumericPoly.eval_many` call of the field's kernel,
    bit-identical to the scalar kernel."""
    basis = field.model.basis
    j_states = project_trajectory(basis, traj)
    k = len(basis.polys)
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(field.dim)]
        + [f"J{i + 1}" for i in range(k)]
        + ["phi"]
    )
    out.write(",".join(header) + "\n")
    row = "%.12g," + ",".join(["%.17g"] * (field.dim + k + 1)) + "\n"
    phis = field._kernel.eval_many(traj.states)[:, 0].tolist()
    for t, x, j, phi in zip(
        traj.times.tolist(), traj.states.tolist(), j_states.tolist(), phis
    ):
        out.write(row % (t, *x, *j, phi))
