"""Landau models over an integrity basis.

A model is the general invariant polynomial of bounded x-degree written in
the basic invariants, with named coefficients.  The numerical layer
locates critical points by multistart descent with Newton polishing,
classifies their symmetry types, and sweeps a control parameter to
produce a phase diagram with bisection-refined transition points.  A
model is thermodynamically stable when no descent escapes the search
region; a descent that does raises StabilityViolation.

Minimization runs in x-space; the orbit-space picture enters only through
reporting.  All stochastic pieces are seeded, so identical inputs give
identical outputs.

The numerical settings are module constants; only the seed and the
gradient tolerance of `minimize` and the transition tolerance of `sweep`
are arguments:

- `minimize` descends from 16 starts per basic invariant
  (`_STARTS_PER_GENERATOR`) in the ball of radius 2.0 (`_RADIUS`), with at
  most 300 gradient steps (`_MAX_GRADIENT_STEPS`) and 60 Newton steps
  (`_MAX_NEWTON_STEPS`); a descent leaving radius 10.0 * 2.0
  (`_ESCAPE_FACTOR`) is a runaway.  Points within 1e-7 of each other's
  orbit, relative to their norm (`_CLUSTER_TOL`), are one critical orbit,
  and Hessian eigenvalues within 1e-8 of zero (`_HESSIAN_ZERO_TOL`) count
  as zero.
- `classify_symmetry` treats g as fixing x when |T_g x - x| <= 1e-8 |x|
  (`_CLASSIFY_TOL`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AmbiguousClassification,
    CapTooLow,
    NoConvergence,
    NotASubgroup,
    OrbitscopeError,
    StabilityViolation,
    UnknownParameter,
)
from .groups import FiniteGroupRep, Subgroup, check_subgroup, float_group
from .invariants import IntegrityBasis, jmonomials_of_xdegree
from .params import Coefficient
from .polynomials import (
    J_KIND,
    Polynomial,
    compile_gradient,
    compile_polynomial,
    mono_degree,
    substitute,
)
from .strata import SymmetryType, symmetry_types

_STARTS_PER_GENERATOR = 16
_RADIUS = 2.0
_MAX_GRADIENT_STEPS = 300
_MAX_NEWTON_STEPS = 60
_ESCAPE_FACTOR = 10.0
_CLUSTER_TOL = 1e-7
_HESSIAN_ZERO_TOL = 1e-8
_CLASSIFY_TOL = 1e-8

# ----------------------------------------------------------------- the model


@dataclass(frozen=True)
class LandauModel:
    """General invariant polynomial with named parameter coefficients.

    psi lives in J-space; its J-monomials substitute to x-degrees between
    2 and degree_x.  Parameters in `critical` may vanish along a sweep,
    the rest are treated as uniformly nonzero.
    """

    basis: IntegrityBasis
    psi: Polynomial
    degree_x: int
    critical: frozenset[str]

    def parameters(self) -> set[str]:
        return self.psi.parameters()

    def _complete(self, assignment) -> dict:
        need = self.parameters()
        missing = sorted(need - set(assignment))
        if missing:
            raise UnknownParameter(f"unassigned parameters: {', '.join(missing)}")
        return {k: Fraction(v) for k, v in assignment.items() if k in need}

    def psi_at(self, assignment) -> Polynomial:
        """Pin parameters to exact rationals; result is a plain J-polynomial."""
        return self.psi.evaluate_params(self._complete(assignment))

    def potential(self, assignment) -> Polynomial:
        """The x-space potential at the given parameter values, exact."""
        return substitute(self.psi_at(assignment), self.basis.polys)


def build_generic(
    basis: IntegrityBasis, degree_x: int | None = None, critical=None
) -> LandauModel:
    """Most general model of x-degree <= degree_x (default 2 * top degree).

    Each J-monomial of x-degree 2..degree_x gets a fresh parameter a1, a2,
    ... in (degree, canonical order).  By default only a1, the coefficient
    of the leading lowest-degree invariant, is marked critical: that is
    the coefficient a phase transition drives through zero.  A basis
    without generators (cut off by a low degree cap) raises CapTooLow.
    """
    if not basis.degrees:
        raise CapTooLow("the integrity basis has no generators below the degree cap")
    if degree_x is None:
        degree_x = 2 * basis.max_degree
    monos = []
    for d in range(2, degree_x + 1):
        monos.extend(jmonomials_of_xdegree(basis.degrees, d))
    terms = {
        m: Coefficient.parameter(f"a{i + 1}") for i, m in enumerate(monos)
    }
    psi = Polynomial(basis.k, terms, J_KIND)
    if critical is None:
        critical = {"a1"} if monos else set()
    return LandauModel(basis, psi, degree_x, frozenset(critical))


def make_model(
    basis: IntegrityBasis, psi, critical=(), degree_x: int | None = None
) -> LandauModel:
    """Wrap an explicit J-space polynomial (plain or parametric) as a model."""
    weights = basis.degrees
    if any(mono_degree(m, weights) < 2 for m in psi.terms):
        raise ValueError("model must have no constant or linear part")
    if degree_x is None:
        degree_x = max(psi.degree(weights), 2)
    return LandauModel(basis, psi, degree_x, frozenset(critical))


# ------------------------------------------------------------ classification


def classify_symmetry(rep: FiniteGroupRep, x) -> SymmetryType:
    """Symmetry type of {g : |T_g x - x| <= _CLASSIFY_TOL |x|}.

    The candidate set must be an actual subgroup; if the tolerance sits
    astride a stratum boundary it need not be, and that is reported as
    AmbiguousClassification rather than silently resolved.
    """
    xv = np.asarray(x, dtype=float)
    scale = float(np.linalg.norm(xv))
    members = []
    for i, mat in enumerate(float_group(rep)[0]):
        if float(np.linalg.norm(mat @ xv - xv)) <= _CLASSIFY_TOL * scale:
            members.append(i)
    sub = Subgroup(tuple(members))
    try:
        check_subgroup(rep, sub)
    except NotASubgroup as exc:
        raise AmbiguousClassification(
            f"candidate fixing set of size {len(members)} is not a subgroup "
            f"(tolerance {_CLASSIFY_TOL} likely astride a stratum boundary): {exc}"
        ) from None
    for t in symmetry_types(rep):
        if t.contains_subgroup(sub):
            return t
    raise AssertionError("subgroup missing from enumerated symmetry types")


# -------------------------------------------------------------- minimization


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, ...]
    value: float
    gradient_norm: float
    hessian_inertia: tuple[int, int, int]
    symmetry: SymmetryType
    orbit_size: int

    @property
    def is_minimum(self) -> bool:
        neg, zero, _ = self.hessian_inertia
        return neg == 0 and zero == 0

    @property
    def is_marginal(self) -> bool:
        return self.hessian_inertia[1] > 0


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _ball_starts(n: int, count: int, radius: float, seed: int) -> list[np.ndarray]:
    """Quasi-random starts in the ball, origin first; seeded by index offset."""
    out = [np.zeros(n)]
    idx = 1 + seed * 4 * max(count, 1)
    while len(out) < count:
        u = np.array([2.0 * _halton(idx, _PRIMES[d % len(_PRIMES)]) - 1.0 for d in range(n)])
        idx += 1
        if float(u @ u) <= 1.0:
            out.append(radius * u)
    return out


def _descend(x0, f, grad, hess, gtol: float, escape_radius: float):
    """Backtracking gradient descent, then damped Newton. Returns
    ('ok', x) | ('escaped', x) | ('unconverged', x)."""
    x = np.array(x0, dtype=float)
    for _ in range(_MAX_GRADIENT_STEPS):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn):
            return ("unconverged", x)
        if gn <= 100.0 * gtol:
            break
        fx = f(x)
        step = 1.0 / (1.0 + gn)
        while step > 1e-18 and f(x - step * g) > fx - 1e-4 * step * gn * gn:
            step *= 0.5
        x = x - step * g
        if float(np.linalg.norm(x)) > escape_radius:
            return ("escaped", x)
    for _ in range(_MAX_NEWTON_STEPS):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-3 * gtol:
            break
        try:
            d = np.linalg.solve(hess(x), g)
        except np.linalg.LinAlgError:
            d = g
        if not np.all(np.isfinite(d)):
            d = g
        t = 1.0
        improved = False
        for _ in range(40):
            xc = x - t * d
            if float(np.linalg.norm(grad(xc))) < gn:
                x = xc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        if float(np.linalg.norm(x)) > escape_radius:
            return ("escaped", x)
    gn = float(np.linalg.norm(grad(x)))
    if np.isfinite(gn) and gn <= gtol:
        return ("ok", x)
    return ("unconverged", x)


def minimize(
    model: LandauModel, assignment, seed: int = 0, gtol: float = 1e-10
) -> list[CriticalPoint]:
    """Multistart search for critical points, deduplicated by group orbit.

    Points are classified by symmetry type and sorted by value, so the
    first entry is the global minimizer among those found.  A descent
    trajectory leaving _ESCAPE_FACTOR * _RADIUS aborts the search: under
    monotone descent that is a certificate the model runs away inside the
    examined region.  seed offsets the quasi-random starts; a start
    converges when its gradient norm reaches gtol.
    """
    rep = model.basis.rep
    phi = model.potential(assignment)
    n = rep.dim
    f, grad = compile_polynomial(phi), compile_gradient(phi)
    second = compile_polynomial([d.partial(j) for d in phi.gradient() for j in range(n)])

    def hess(x):
        return second(x).reshape(n, n)

    count = _STARTS_PER_GENERATOR * model.basis.k
    escape_radius = _ESCAPE_FACTOR * _RADIUS

    found = []
    for x0 in _ball_starts(n, count, _RADIUS, seed):
        status, x = _descend(x0, f, grad, hess, gtol, escape_radius)
        if status == "escaped":
            raise StabilityViolation(
                f"descent from {tuple(float(c) for c in x0)} escaped radius "
                f"{escape_radius:g}; the model appears unbounded below"
            )
        if status == "ok":
            found.append(x)
    if not found:
        raise NoConvergence(f"none of {count} starts reached gradient tolerance")

    found.sort(key=lambda x: (f(x), tuple(x)))
    mats = float_group(rep)[0]
    reps: list[np.ndarray] = []
    for x in found:
        duplicate = False
        for r in reps:
            d = min(float(np.linalg.norm(m @ x - r)) for m in mats)
            if d <= _CLUSTER_TOL * (1.0 + float(np.linalg.norm(r))):
                duplicate = True
                break
        if not duplicate:
            reps.append(x)

    points = []
    for x in reps:
        if float(np.linalg.norm(x)) <= 1e-9 * (1.0 + _RADIUS):
            x = np.zeros(n)
        sym = classify_symmetry(rep, x)
        eigs = np.linalg.eigvalsh(hess(x))
        neg = int(np.sum(eigs < -_HESSIAN_ZERO_TOL))
        pos = int(np.sum(eigs > _HESSIAN_ZERO_TOL))
        zero = len(eigs) - neg - pos
        points.append(
            CriticalPoint(
                location=tuple(float(c) for c in x),
                value=float(f(x)),
                gradient_norm=float(np.linalg.norm(grad(x))),
                hessian_inertia=(neg, zero, pos),
                symmetry=sym,
                orbit_size=rep.order // sym.order,
            )
        )
    points.sort(key=lambda p: (p.value, p.location))
    return points


# ------------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class PhasePoint:
    parameter_value: float
    symmetry: SymmetryType | None
    min_value: float | None
    minimizer: tuple[float, ...] | None
    error: str | None = None


@dataclass(frozen=True)
class Transition:
    parameter_value: float
    width: float
    before: SymmetryType
    after: SymmetryType


@dataclass(frozen=True)
class PhaseDiagram:
    parameter: str
    points: tuple[PhasePoint, ...]
    transitions: tuple[Transition, ...]


def sweep(
    model: LandauModel,
    parameter: str,
    grid,
    assignment=None,
    seed: int = 0,
    transition_tol: float = 1e-6,
) -> PhaseDiagram:
    """Phase diagram along one parameter; transitions refined by bisection.

    assignment fixes the other parameters, and seed is passed to every
    minimize call; bisection stops once a transition is bracketed within
    transition_tol.  Per-grid-point failures are recorded on the
    corresponding PhasePoint and do not abort the sweep.
    """
    if parameter not in model.parameters():
        raise UnknownParameter(f"model has no parameter named {parameter!r}")

    def global_minimum(value):
        lam = dict(assignment or {})
        lam[parameter] = Fraction(value)
        return minimize(model, lam, seed)[0]

    points = []
    for v in grid:
        v = float(v)
        try:
            best = global_minimum(v)
            points.append(
                PhasePoint(v, best.symmetry, best.value, best.location)
            )
        except OrbitscopeError as exc:
            points.append(
                PhasePoint(v, None, None, None, f"{type(exc).__name__}: {exc}")
            )

    transitions = []
    for left, right in zip(points, points[1:]):
        if left.error or right.error:
            continue
        if left.symmetry.label == right.symmetry.label:
            continue
        lo, hi = left.parameter_value, right.parameter_value
        while hi - lo > transition_tol:
            mid = 0.5 * (lo + hi)
            try:
                sym_mid = global_minimum(mid).symmetry
            except OrbitscopeError:
                break
            if sym_mid.label == left.symmetry.label:
                lo = mid
            else:
                hi = mid
        transitions.append(
            Transition(
                parameter_value=0.5 * (lo + hi),
                width=hi - lo,
                before=left.symmetry,
                after=right.symmetry,
            )
        )
    return PhaseDiagram(parameter, tuple(points), tuple(transitions))
