"""Landau models over an integrity basis.

A model is the general invariant polynomial of bounded x-degree written in
the basic invariants, with named coefficients.  `components()` grades it
by x-degree; `reduction.reduce` works on it degree by degree and returns
its normal form as another model.  The numerical layer locates critical
points by multistart descent with Newton polishing, classifies their
symmetry types, and sweeps a control parameter to produce a phase diagram
with bisection-refined transition points.  A model is thermodynamically
stable when no descent escapes the search region; a descent that does
raises StabilityViolation.

Minimization runs in x-space; the orbit-space picture enters only through
reporting.  All stochastic pieces are seeded, so identical inputs give
identical outputs.  A descent, gradient phase and Newton polish alike,
runs as one generated function over plain floats (`_descent`) with the
potential, its gradient and its Hessian inlined, and solves its Newton
systems by elimination; numpy enters only when a found point is reported.
The gradient phase takes a Newton step instead of the gradient step where
the Hessian is positive definite, the step is at most 0.5 (1 + |x|) long,
passes the Armijo test and lands no higher than the gradient step; the
Newton polish then drives the gradient norm down.  The
kernels name their coefficients and take the values as bound arguments,
so every kernel compiles once per model and coefficient support
(`LandauModel.kernel_code`): a sweep compiles again only where a
coefficient vanishes.

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
    _compile_kernel,
    _kernel_body,
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
    the rest are treated as uniformly nonzero.  ``kernel_code`` maps the
    source of every float kernel compiled for the model to its code (see
    :func:`polynomials._compile_kernel`), so that kernels whose
    polynomials share a support, as along a sweep, compile once.
    """

    basis: IntegrityBasis
    psi: Polynomial
    degree_x: int
    critical: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "kernel_code", {})

    def parameters(self) -> set[str]:
        return self.psi.parameters()

    def components(self) -> dict[int, Polynomial]:
        """psi split by x-degree: the nonzero homogeneous parts, ascending."""
        return self.psi.homogeneous_parts(self.basis.degrees)

    def component(self, d: int) -> Polynomial:
        """The part of psi of x-degree d, or the J-space zero."""
        return self.components().get(d) or Polynomial.zero(self.basis.k, J_KIND)

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


def build_generic(basis: IntegrityBasis, degree_x: int | None = None) -> LandauModel:
    """Most general model of x-degree <= degree_x (default 2 * top degree).

    Each J-monomial of x-degree 2..degree_x gets a fresh parameter a1, a2,
    ... in (degree, canonical order).  Only a1, the coefficient of the
    leading lowest-degree invariant, is marked critical: that is the
    coefficient a phase transition drives through zero.  A basis without
    generators (cut off by a low degree cap) raises CapTooLow.
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
    return LandauModel(basis, psi, degree_x, frozenset({"a1"} if monos else ()))


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
    for i, mat in enumerate(float_group(rep)):
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


def _solve(n: int, rows: str, rhs: str, pivot: bool, solved: list[str]) -> list[str]:
    """Lines that overwrite ``d`` with the solution of a d = rhs, a the
    n x n matrix of ``rows``, by Gaussian elimination and back substitution.

    With ``pivot``, each column swaps up its largest entry (partial
    pivoting), and an exactly zero pivot ends the elimination with d set to
    rhs.  Without, the elimination ends at the first pivot that is not
    positive; a symmetric matrix has all its pivots positive exactly when it
    is positive definite.  The lines ``solved`` run only once d holds the
    solution.
    """
    if pivot:
        choose = [
            "    p = k",
            f"    for r in range(k + 1, {n}):",
            "        if abs(a[r][k]) > abs(a[p][k]):",
            "            p = r",
            "    if a[p][k] == 0.0:",
            f"        d = {rhs}",
            "        break",
            "    a[k], a[p] = a[p], a[k]",
            "    d[k], d[p] = d[p], d[k]",
        ]
    else:
        choose = ["    if not a[k][k] > 0.0:", "        break"]
    return [
        f"a = {rows}",
        f"d = {rhs}",
        f"for k in range({n}):",
        *choose,
        f"    for r in range(k + 1, {n}):",
        "        m = a[r][k] / a[k][k]",
        f"        for j in range(k + 1, {n}):",
        "            a[r][j] = a[r][j] - m * a[k][j]",
        "        d[r] = d[r] - m * d[k]",
        "else:",
        f"    for k in range({n - 1}, -1, -1):",
        f"        for j in range({n - 1}, k, -1):",
        "            d[k] = d[k] - a[k][j] * d[j]",
        "        d[k] = d[k] / a[k][k]",
        *(f"    {line}" for line in solved),
    ]


def _descent(phi: Polynomial, grads: list[Polynomial], hess: list[Polynomial], codes=None):
    """A whole descent on phi, compiled as one function over plain floats.

    ``grads`` is the gradient of phi and ``hess`` its Hessian, row by row.
    The function ``_k(x0, ..., x{n-1}, gtol, escape, steps, newton_steps)``
    returns ``(status, x)``, status one of ``'ok'``, ``'escaped'`` and
    ``'unconverged'``.

    - Gradient phase: one step from x per item of ``steps``, until the
      gradient norm is at most ``100 gtol``.  A non-finite gradient ends
      the descent unconverged.  Each step first finds the backtracking
      gradient step: it starts at 1 / (1 + |g|) and halves until the
      Armijo test holds or it falls to 1e-18.  Then the Hessian H is
      eliminated without pivoting, and the Newton point x - d, H d = g,
      is taken instead when every pivot is positive (H is positive
      definite), |d| <= 0.5 (1 + |x|), the Armijo test
      phi(x - d) <= phi(x) - 1e-4 g.d holds and phi(x - d) is no higher
      than at the gradient step's point: line-search Newton with a bounded
      step (Nocedal and Wright, *Numerical Optimization*, ch. 3) that never
      lands higher than the gradient step.  Near a minimum the Newton
      point wins and converges quadratically.  Farther out the gradient
      step mostly wins, so the descent keeps near the gradient path.  With
      the bound and the Armijo test alone, Newton steps carry a d4-sheared
      descent at the CLI defaults next to its T3 saddle, where gradient
      steps crawl until the step cap and the polish then converges onto
      the saddle.
    - Newton phase: damped Newton steps, one per item of ``newton_steps``,
      until the gradient norm is at most ``gtol / 1000``.  The Hessian
      system is solved by LU with partial pivoting; an exactly zero pivot
      or a non-finite solution falls back to the gradient.  The step
      halves, at most 40 times, until the gradient norm falls; if it never
      does, the phase ends.
    - Once |x| exceeds ``escape`` after either kind of step, the descent
      ends escaped.  Otherwise it is ok when the final gradient norm is at
      most ``gtol``.

    Both phases solve by :func:`_solve`.  phi, its gradient and its Hessian
    are inlined with :func:`polynomials._kernel_body`; norms are ``hypot``.
    ``codes`` as in :func:`polynomials._compile_kernel`.
    """
    n = phi.nvars
    xs = [f"x{i}" for i in range(n)]
    ts = [f"t{i}" for i in range(n)]
    us = [f"u{i}" for i in range(n)]
    gs = [f"g{i}" for i in range(n)]
    ds = [f"d{i}" for i in range(n)]
    here, outs, c_here = _kernel_body([*grads, phi, *hess], xs, "g_")
    grad, f, hhere = outs[:n], outs[n], outs[n + 1 :]
    trial, (ft,), c_trial = _kernel_body([phi], ts, "t_")
    newton, outs, c_newton = _kernel_body([*grads, *hess], xs, "n_")
    ngrad, nhess = outs[:n], outs[n:]
    candidate, ugrad, c_candidate = _kernel_body(grads, us, "u_")
    final, fgrad, c_final = _kernel_body(grads, xs, "f_")
    point = "(" + ", ".join(xs) + ",)"
    gvec = f"[{', '.join(gs)}]"

    def matrix(entries):
        return "[" + ", ".join(
            "[" + ", ".join(entries[i * n : (i + 1) * n]) + "]" for i in range(n)
        ) + "]"

    # t holds the gradient step's point and p its potential; the Newton
    # point replaces it in t when it passes the tests and lies no higher
    newton_step = [
        f"{', '.join(ds)}, = d",
        f"if hypot({', '.join(ds)}) <= 0.5 * (1.0 + hypot({', '.join(xs)})):",
        *(f"    {u} = {t}" for u, t in zip(us, ts)),
        *(f"    {t} = {x} - {d}" for t, x, d in zip(ts, xs, ds)),
        *(f"    {s}" for s in trial),
        f"    if not ({ft} <= fx - 0.0001 * ({' + '.join(f'{g} * {d}' for g, d in zip(gs, ds))})"
        f" and {ft} <= p):",
        *(f"        {t} = {u}" for t, u in zip(ts, us)),
    ]
    lines = [
        "tol = 100.0 * gtol",
        "for i in steps:",
        *(f"    {s}" for s in here),
        *(f"    {g} = {e}" for g, e in zip(gs, grad)),
        f"    fx = {f}",
        f"    gn = hypot({', '.join(gs)})",
        "    if not isfinite(gn):",
        f"        return 'unconverged', {point}",
        "    if gn <= tol:",
        "        break",
        "    step = 1.0 / (1.0 + gn)",
        "    while True:",
        *(f"        {t} = {x} - step * {g}" for t, x, g in zip(ts, xs, gs)),
        *(f"        {s}" for s in trial),
        f"        if not (step > 1e-18 and {ft} > fx - 0.0001 * step * gn * gn):",
        "            break",
        "        step = step * 0.5",
        f"    p = {ft}",
        *(f"    {s}" for s in _solve(n, matrix(hhere), gvec, False, newton_step)),
        *(f"    {x} = {t}" for x, t in zip(xs, ts)),
        f"    if hypot({', '.join(xs)}) > escape:",
        f"        return 'escaped', {point}",
        "tol = 0.001 * gtol",
        "for i in newton_steps:",
        *(f"    {s}" for s in newton),
        *(f"    {g} = {e}" for g, e in zip(gs, ngrad)),
        f"    gn = hypot({', '.join(gs)})",
        "    if gn <= tol:",
        "        break",
        *(f"    {s}" for s in _solve(n, matrix(nhess), gvec, True, [])),
        f"    {', '.join(ds)}, = d",
        f"    if not ({' and '.join(f'isfinite({d})' for d in ds)}):",
        f"        {', '.join(ds)}, = {', '.join(gs)},",
        "    damp = 1.0",
        "    for j in range(40):",
        *(f"        {u} = {x} - damp * {d}" for u, x, d in zip(us, xs, ds)),
        *(f"        {s}" for s in candidate),
        f"        if hypot({', '.join(ugrad)}) < gn:",
        "            break",
        "        damp = damp * 0.5",
        "    else:",
        "        break",
        *(f"    {x} = {u}" for x, u in zip(xs, us)),
        f"    if hypot({', '.join(xs)}) > escape:",
        f"        return 'escaped', {point}",
        *final,
        f"gn = hypot({', '.join(fgrad)})",
        "if isfinite(gn) and gn <= gtol:",
        f"    return 'ok', {point}",
        f"return 'unconverged', {point}",
    ]
    constants = {**c_here, **c_trial, **c_newton, **c_candidate, **c_final}
    args = [*xs, "gtol", "escape", "steps", "newton_steps"]
    return _compile_kernel(args, lines, constants, codes)


def minimize(
    model: LandauModel, assignment, seed: int = 0, gtol: float = 1e-10
) -> list[CriticalPoint]:
    """Multistart search for critical points, deduplicated by group orbit.

    Points are classified by symmetry type and sorted by value, so the
    first entry is the global minimizer among those found.  A descent
    trajectory leaving _ESCAPE_FACTOR * _RADIUS aborts the search: under
    monotone descent that is a certificate the model runs away inside the
    examined region.  seed, a non-negative integer, offsets the
    quasi-random starts; a start converges when its gradient norm reaches
    gtol.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rep = model.basis.rep
    phi = model.potential(assignment)
    n = rep.dim
    codes = model.kernel_code
    grads = phi.gradient()
    hessian = [d.partial(j) for d in grads for j in range(n)]
    f, grad = compile_polynomial(phi, codes), compile_polynomial(grads, codes)
    second = compile_polynomial(hessian, codes)
    descend = _descent(phi, grads, hessian, codes)

    def hess(x):
        return np.reshape(second(x), (n, n))

    count = _STARTS_PER_GENERATOR * model.basis.k
    escape_radius = _ESCAPE_FACTOR * _RADIUS

    found = []
    for x0 in _ball_starts(n, count, _RADIUS, seed):
        status, x = descend(
            *x0.tolist(), gtol, escape_radius,
            range(_MAX_GRADIENT_STEPS), range(_MAX_NEWTON_STEPS),
        )
        if status == "escaped":
            raise StabilityViolation(
                f"descent from {tuple(float(c) for c in x0)} escaped radius "
                f"{escape_radius:g}; the model appears unbounded below"
            )
        if status == "ok":
            found.append(np.array(x))
    if not found:
        raise NoConvergence(f"none of {count} starts reached gradient tolerance")

    found.sort(key=lambda x: (f(x), tuple(x)))
    # x repeats a kept representative r when some image g x lies within
    # _CLUSTER_TOL (1 + |r|) of r: all images against all kept r at once
    mats = np.array(float_group(rep))
    reps, bounds = np.empty((0, n)), np.empty(0)
    for x in found:
        gaps = (mats @ x)[:, None, :] - reps
        if not (np.sqrt((gaps * gaps).sum(axis=2)) <= bounds).any():
            reps = np.vstack([reps, x])
            bounds = np.append(bounds, _CLUSTER_TOL * (1.0 + np.linalg.norm(x)))

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
