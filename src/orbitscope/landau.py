"""Landau models over an integrity basis.

A model is the general invariant polynomial of bounded x-degree written in
the basic invariants, with named coefficients.  The numerical layer screens
thermodynamic stability (the gradient must point outward on a large
sphere, so the descent flow points inward), locates critical points by
multistart descent with Newton polishing, classifies their symmetry
types, and sweeps a control parameter to produce a phase diagram with
bisection-refined transition points.

Minimization runs in x-space; the orbit-space picture enters only through
reporting.  All stochastic pieces are seeded, so identical inputs give
identical outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    AmbiguousClassification,
    NoConvergence,
    NotASubgroup,
    OrbitscopeError,
    StabilityViolation,
    UnknownParameter,
)
from .groups import FiniteGroupRep, Subgroup, check_subgroup, invariant_metric
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
from .strata import PrincipalCriticalOrbitSet, SymmetryType, symmetry_types

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
    the coefficient a phase transition drives through zero.
    """
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


# --------------------------------------------------------- shared numerics


def _cached_types(rep: FiniteGroupRep) -> tuple[SymmetryType, ...]:
    """The symmetry types of rep, computed once and kept on the rep."""
    types = rep.memo.get("symmetry_types")
    if types is None:
        types = rep.memo["symmetry_types"] = tuple(symmetry_types(rep))
    return types


def _float_matrices(rep: FiniteGroupRep) -> list[np.ndarray]:
    return [
        np.array([[float(c) for c in row] for row in e.matrix]) for e in rep.elements
    ]


def _compile_all(phi: Polynomial):
    f = compile_polynomial(phi)
    gfun = compile_gradient(phi)
    n = phi.nvars
    hfun = [
        [compile_polynomial(phi.partial(i).partial(j)) for j in range(n)]
        for i in range(n)
    ]

    def grad(x):
        return np.array([g(x) for g in gfun])

    def hess(x):
        return np.array([[hfun[i][j](x) for j in range(n)] for i in range(n)])

    return f, grad, hess


# ----------------------------------------------------------------- stability


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    radius: float
    samples: int
    witnesses: tuple[tuple[tuple[float, ...], float], ...]

    def __bool__(self) -> bool:
        return self.stable


def check_stability(
    model: LandauModel, assignment, radius: float, samples: int = 64, seed: int = 0
) -> StabilityReport:
    """Outward-gradient screen on the sphere of the given radius.

    The descent flow x' = -grad Phi points inward at x exactly when
    <grad Phi(x), x> > 0; any sampled direction violating that is returned
    as a witness of (potential) thermodynamic instability.
    """
    phi = model.potential(assignment)
    _, grad, _ = _compile_all(phi)
    n = phi.nvars
    rng = random.Random(seed)
    witnesses = []
    for i in range(samples):
        if n == 1:
            direction = np.array([1.0 if i % 2 == 0 else -1.0])
        else:
            while True:
                raw = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
                norm = float(np.linalg.norm(raw))
                if norm > 1e-12:
                    break
            direction = raw / norm
        x = radius * direction
        outward = float(grad(x) @ x)
        if outward <= 0.0:
            witnesses.append((tuple(float(c) for c in x), outward))
    return StabilityReport(
        stable=not witnesses,
        radius=radius,
        samples=samples,
        witnesses=tuple(witnesses),
    )


# ------------------------------------------------------------ classification


def classify_symmetry(
    rep: FiniteGroupRep, x, tol: float = 1e-8, types=None
) -> SymmetryType:
    """Symmetry type of {g : |T_g x - x| <= tol |x|}.

    The candidate set must be an actual subgroup; if the tolerance sits
    astride a stratum boundary it need not be, and that is reported as
    AmbiguousClassification rather than silently resolved.
    """
    xv = np.asarray(x, dtype=float)
    scale = float(np.linalg.norm(xv))
    members = []
    for i, mat in enumerate(_float_matrices(rep)):
        if float(np.linalg.norm(mat @ xv - xv)) <= tol * scale:
            members.append(i)
    sub = Subgroup(tuple(members))
    try:
        check_subgroup(rep, sub)
    except NotASubgroup as exc:
        raise AmbiguousClassification(
            f"candidate fixing set of size {len(members)} is not a subgroup "
            f"(tolerance {tol} likely astride a stratum boundary): {exc}"
        ) from None
    if types is None:
        types = _cached_types(rep)
    for t in types:
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


@dataclass(frozen=True)
class MinimizeOptions:
    starts: int | None = None
    radius: float = 2.0
    seed: int = 0
    gtol: float = 1e-10
    cluster_tol: float = 1e-7
    classify_tol: float = 1e-8
    max_gradient_steps: int = 300
    max_newton_steps: int = 60
    escape_factor: float = 10.0
    hessian_zero_tol: float = 1e-8


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


def _descend(x0, f, grad, hess, opts: MinimizeOptions, escape_radius: float):
    """Backtracking gradient descent, then damped Newton. Returns
    ('ok', x) | ('escaped', x) | ('unconverged', x)."""
    x = np.array(x0, dtype=float)
    for _ in range(opts.max_gradient_steps):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn):
            return ("unconverged", x)
        if gn <= 100.0 * opts.gtol:
            break
        fx = f(x)
        step = 1.0 / (1.0 + gn)
        while step > 1e-18 and f(x - step * g) > fx - 1e-4 * step * gn * gn:
            step *= 0.5
        x = x - step * g
        if float(np.linalg.norm(x)) > escape_radius:
            return ("escaped", x)
    for _ in range(opts.max_newton_steps):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-3 * opts.gtol:
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
    if np.isfinite(gn) and gn <= opts.gtol:
        return ("ok", x)
    return ("unconverged", x)


def minimize(
    model: LandauModel, assignment, options: MinimizeOptions | None = None
) -> list[CriticalPoint]:
    """Multistart search for critical points, deduplicated by group orbit.

    Points are classified by symmetry type and sorted by value, so the
    first entry is the global minimizer among those found.  A descent
    trajectory leaving escape_factor * radius aborts the search: under
    monotone descent that is a certificate the model runs away inside the
    examined region.
    """
    opts = options or MinimizeOptions()
    rep = model.basis.rep
    phi = model.potential(assignment)
    f, grad, hess = _compile_all(phi)
    n = rep.dim
    count = opts.starts if opts.starts is not None else 16 * model.basis.k
    escape_radius = opts.escape_factor * opts.radius

    found = []
    for x0 in _ball_starts(n, count, opts.radius, opts.seed):
        status, x = _descend(x0, f, grad, hess, opts, escape_radius)
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
    mats = _float_matrices(rep)
    reps: list[np.ndarray] = []
    for x in found:
        duplicate = False
        for r in reps:
            d = min(float(np.linalg.norm(m @ x - r)) for m in mats)
            if d <= opts.cluster_tol * (1.0 + float(np.linalg.norm(r))):
                duplicate = True
                break
        if not duplicate:
            reps.append(x)

    types = _cached_types(rep)
    points = []
    for x in reps:
        if float(np.linalg.norm(x)) <= 1e-9 * (1.0 + opts.radius):
            x = np.zeros(n)
        sym = classify_symmetry(rep, x, opts.classify_tol, types)
        eigs = np.linalg.eigvalsh(hess(x))
        neg = int(np.sum(eigs < -opts.hessian_zero_tol))
        pos = int(np.sum(eigs > opts.hessian_zero_tol))
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


@dataclass(frozen=True)
class SweepOptions:
    assignment: dict = field(default_factory=dict)
    minimize: MinimizeOptions = field(default_factory=MinimizeOptions)
    transition_tol: float = 1e-6


def sweep(
    model: LandauModel, parameter: str, grid, options: SweepOptions | None = None
) -> PhaseDiagram:
    """Phase diagram along one parameter; transitions refined by bisection.

    Per-grid-point failures are recorded on the corresponding PhasePoint
    and do not abort the sweep.
    """
    opts = options or SweepOptions()
    if parameter not in model.parameters():
        raise UnknownParameter(f"model has no parameter named {parameter!r}")

    def global_minimum(value):
        lam = dict(opts.assignment)
        lam[parameter] = Fraction(value)
        best = minimize(model, lam, opts.minimize)[0]
        return best

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
        while hi - lo > opts.transition_tol:
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


# -------------------------------------------------- critical-orbit checking


@dataclass(frozen=True)
class RayCheck:
    direction: tuple[float, ...]
    symmetry: SymmetryType
    critical_radii: tuple[float, ...]
    tangential_residuals: tuple[float, ...]
    passed: bool
    note: str


@dataclass(frozen=True)
class RayCheckReport:
    checks: tuple[RayCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_critical_orbits(
    model: LandauModel,
    assignment,
    orbit_set: PrincipalCriticalOrbitSet,
    tol: float = 1e-9,
    t_max: float = 3.0,
) -> RayCheckReport:
    """Confirm each fixed-line family carries interior ray-critical points
    at which the (metric) gradient is parallel to the line.

    The metric inverse makes the check frame independent: for orthogonal
    actions it is the identity and the plain gradient is tested.
    """
    phi = model.potential(assignment)
    _, grad, _ = _compile_all(phi)
    eta_inv = np.array(
        [[float(c) for c in row] for row in invariant_metric(model.basis.rep).eta_inv]
    )
    checks = []
    for family in orbit_set.rays:
        v = np.array(family.unit)

        def dphi(t):
            return float(grad(t * v) @ v)

        ts = np.linspace(1e-6, t_max, 800)
        vals = [dphi(t) for t in ts]
        roots = []
        for a, b, fa, fb in zip(ts, ts[1:], vals, vals[1:]):
            if fa == 0.0:
                roots.append(float(a))
                continue
            if fa * fb < 0.0:
                lo, hi = float(a), float(b)
                for _ in range(90):
                    mid = 0.5 * (lo + hi)
                    if dphi(lo) * dphi(mid) <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        if not roots:
            checks.append(
                RayCheck(
                    direction=tuple(float(c) for c in v),
                    symmetry=family.symmetry,
                    critical_radii=(),
                    tangential_residuals=(),
                    passed=False,
                    note="no interior critical point on the ray",
                )
            )
            continue
        residuals = []
        for t in roots:
            w = eta_inv @ grad(t * v)
            tang = w - float(w @ v) * v
            residuals.append(float(np.linalg.norm(tang)))
        ok = max(residuals) <= tol
        checks.append(
            RayCheck(
                direction=tuple(float(c) for c in v),
                symmetry=family.symmetry,
                critical_radii=tuple(roots),
                tangential_residuals=tuple(residuals),
                passed=ok,
                note="" if ok else "tangential residual above tolerance",
            )
        )
    return RayCheckReport(tuple(checks))
