"""Reduction of graded invariant potentials by near-identity changes of
coordinates generated by invariant functions.

The change x = y + h(y) with h the (metric) gradient of an invariant
generator H acts on a potential written in the basic invariants.  To
leading order the action on a graded component is the homological
operator (D Psi) P (D H), with P the gradient Gram matrix of the basis;
the exact action is recomputed by formal composition up to the
truncation degree, so nothing is discarded silently.

Coefficients are exact rational functions of the model parameters.  Each
parameter is declared "critical" (may vanish along the sweep) or
"generic" (uniformly bounded away from zero); the linear solves never
divide by anything that can vanish, which is the whole point of the
bookkeeping: a term is either removed for every admissible parameter
value, or it is reported as a survivor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    KindMismatch,
    SingularHomologicalSolve,
    VerificationFailed,
)
from .groups import invariant_metric
from . import rationals as ra
from .invariants import IntegrityBasis, PMatrix, express_homogeneous, jmonomials_of_xdegree
from .params import Coefficient, _pp_kill, compose_param, substitute_param
from .polynomials import (
    J_KIND,
    X_KIND,
    Polynomial,
    compile_polynomial,
    mono_degree,
    mono_key,
    mono_text,
    substitute,
)


def _uniform(critical):
    """Admissible-pivot predicate: invertible for every value in the sweep."""
    return lambda c: Coefficient.coerce(c).uniform_nonzero(critical)


def _den_survives(c, critical) -> bool:
    # a quotient is admissible iff its denominator stays nonzero as the
    # critical parameters go to zero; the numerator is allowed to die
    return bool(_pp_kill(Coefficient.coerce(c).den, set(critical)))


def _jmono_text(m) -> str:
    return mono_text(m, J_KIND) or "1"


# ----------------------------------------------------------- graded potential


@dataclass(frozen=True)
class GradedPotential:
    """Potential split into components by the x-degree of their substitution.

    components maps x-degree -> J-space polynomial; parameters named in
    `critical` may vanish along the parameter sweep, all others are
    treated as uniformly nonzero.
    """

    basis: IntegrityBasis
    components: dict[int, Polynomial]
    critical: frozenset[str]

    def __post_init__(self):
        weights = self.basis.degrees
        cleaned = {}
        for d, comp in sorted(self.components.items()):
            if comp.kind != J_KIND or comp.nvars != self.basis.k:
                raise KindMismatch("components must live in the basis J-space")
            if comp.is_zero():
                continue
            for m in comp.terms:
                if mono_degree(m, weights) != d:
                    raise ValueError(
                        f"component keyed {d} contains a term of x-degree "
                        f"{mono_degree(m, weights)}"
                    )
            if d < 2:
                raise ValueError("potentials start at x-degree 2")
            cleaned[d] = comp
        object.__setattr__(self, "components", cleaned)
        object.__setattr__(self, "critical", frozenset(self.critical))

    @classmethod
    def from_psi(cls, basis: IntegrityBasis, psi, critical=()) -> "GradedPotential":
        return cls(basis, psi.homogeneous_parts(basis.degrees), frozenset(critical))

    @classmethod
    def from_model(cls, model) -> "GradedPotential":
        return cls.from_psi(model.basis, model.psi, model.critical)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def component(self, d: int) -> Polynomial:
        comp = self.components.get(d)
        if comp is None:
            return Polynomial.zero(self.basis.k, J_KIND)
        return comp

    def total(self) -> Polynomial:
        out = Polynomial.zero(self.basis.k, J_KIND)
        for d in sorted(self.components):
            out = out + self.components[d]
        return out

    def parameters(self) -> set[str]:
        names = set()
        for comp in self.components.values():
            names |= comp.parameters()
        return names

    def j_polynomial(self, assignment) -> Polynomial:
        return self.total().evaluate_params(
            {k: Fraction(v) for k, v in assignment.items()}
        )

    def x_polynomial(self, assignment) -> Polynomial:
        return substitute(self.j_polynomial(assignment), self.basis.polys)


# ---------------------------------------------------------------- generators


@dataclass(frozen=True)
class PoincareGenerator:
    h_poly: Polynomial         # J-space; substitutes to homogeneous x-degree
    degree: int                # that x-degree

    def q_vector(self) -> tuple[Polynomial, ...]:
        """The curl-free coefficient vector Q_a = dH/dJ_a."""
        return tuple(self.h_poly.partial(a) for a in range(self.h_poly.nvars))


def poincare_generator(h, basis: IntegrityBasis) -> PoincareGenerator:
    weights = basis.degrees
    degs = {mono_degree(m, weights) for m in h.terms}
    if len(degs) != 1:
        raise ValueError("generator must substitute to a homogeneous polynomial")
    return PoincareGenerator(h, degs.pop())


# ------------------------------------------------------- the basic operators


def delta_J(h, pmatrix: PMatrix) -> list:
    """Action of the generator on each basic invariant: Sum_b P_ab dH/dJ_b."""
    if isinstance(h, PoincareGenerator):
        h = h.h_poly
    k = pmatrix.k
    dh = [h.partial(b) for b in range(k)]
    out = []
    for a in range(k):
        acc = Polynomial.zero(k, J_KIND)
        for b in range(k):
            if dh[b].is_zero():
                continue
            acc = acc + pmatrix.entries[a][b] * dh[b]
        out.append(acc)
    return out


def homological_image(psi_term, h, pmatrix: PMatrix):
    """Leading-order change of a potential term: (D Psi) P (D H).

    If the term substitutes to x-degree s and the generator to x-degree t,
    the image is homogeneous of x-degree s + t - 2.
    """
    if isinstance(h, PoincareGenerator):
        h = h.h_poly
    k = pmatrix.k
    dpsi = [psi_term.partial(a) for a in range(k)]
    dh = [h.partial(b) for b in range(k)]
    acc = Polynomial.zero(k, J_KIND)
    for a in range(k):
        if dpsi[a].is_zero():
            continue
        for b in range(k):
            if dh[b].is_zero():
                continue
            acc = acc + dpsi[a] * pmatrix.entries[a][b] * dh[b]
    return acc


def u_functions(psi: GradedPotential, pmatrix: PMatrix) -> list:
    """U_i = Sum_s (dPsi/dJ_s) P_si, carrying the parameter coefficients."""
    k = pmatrix.k
    total = psi.total()
    dpsi = [total.partial(s) for s in range(k)]
    out = []
    for i in range(k):
        acc = Polynomial.zero(k, J_KIND)
        for s in range(k):
            if dpsi[s].is_zero():
                continue
            acc = acc + dpsi[s] * pmatrix.entries[s][i]
        out.append(acc)
    return out


def is_compatible(q_vector) -> bool:
    """Curl-free test dQ_b/dJ_a == dQ_a/dJ_b: exactly the condition for the
    vector to be the gradient of a single generator."""
    qs = list(q_vector)
    k = len(qs)
    for a in range(k):
        for b in range(a + 1, k):
            if qs[b].partial(a) != qs[a].partial(b):
                return False
    return True


def removable_form(q_vector, us) -> Polynomial:
    """Sum_a Q_a U_a, the shape every removable contribution takes."""
    acc = Polynomial.zero(us[0].nvars, us[0].kind)
    for q, u in zip(q_vector, us):
        if not q.is_zero():
            acc = acc + q * u
    return acc


# ---------------------------------------------------------- removable terms


@dataclass(frozen=True)
class RemovableSubspace:
    degree: int
    removable_monomials: tuple
    basis: tuple                 # image polynomials spanning the subspace
    constraints: tuple           # human-readable pivot descriptions
    non_removable: tuple

    @property
    def dimension(self) -> int:
        return len(self.removable_monomials)


def removable_terms(
    psi: GradedPotential,
    degree: int,
    pmatrix: PMatrix,
    min_generator_degree: int = 3,
) -> RemovableSubspace:
    """Directions at the given x-degree removable by generators of degree
    >= min_generator_degree, inverting only generic coefficients.

    The default floor of 3 matches `reduce`, which applies near-identity
    changes only; lowering it to 2 admits constant Q (linear coordinate
    changes), whose removable contribution is proportional to U itself.
    """
    basis = psi.basis
    weights = basis.degrees
    target_monos = jmonomials_of_xdegree(weights, degree)
    columns = []      # (gen_degree, gen_mono, image polynomial)
    for g in range(min_generator_degree, degree + 1):
        s = degree - g + 2
        comp = psi.component(s)
        if comp.is_zero():
            continue
        for m in jmonomials_of_xdegree(weights, g):
            h = Polynomial.monomial(m, 1, J_KIND)
            image = homological_image(comp, h, pmatrix)
            if not image.is_zero():
                columns.append((g, m, image))

    reducer = ra.RowReducer(admissible=_uniform(psi.critical))
    removable = []    # (mono, pivot column)
    constraints = []
    non_removable = []
    for mono in target_monos:
        row = {j: im.terms[mono] for j, (_, _, im) in enumerate(columns) if mono in im.terms}
        residual = reducer.residual(row)
        pivot = reducer.push(residual)
        if pivot is None:
            non_removable.append(mono)
            continue
        g, m, _ = columns[pivot]
        constraints.append(
            f"{_jmono_text(mono)}: pivot {residual[pivot]} from degree-{g} "
            f"generator term {_jmono_text(m)} (uniform in the sweep)"
        )
        removable.append((mono, pivot))

    return RemovableSubspace(
        degree=degree,
        removable_monomials=tuple(mono for mono, _ in removable),
        basis=tuple(columns[pc][2] for _, pc in removable),
        constraints=tuple(constraints),
        non_removable=tuple(non_removable),
    )


# -------------------------------------------------------------- reduction


@dataclass(frozen=True)
class ReductionReport:
    reduced: GradedPotential
    generators: tuple
    removed_terms: tuple          # (x-degree, J-monomial), ascending degree
    residual_degree: int

    def survivors(self) -> tuple:
        out = []
        for d in self.reduced.degrees():
            if d < 3:
                continue
            comp = self.reduced.component(d)
            for m in sorted(comp.terms, key=mono_key, reverse=True):
                out.append((d, m, comp.terms[m]))
        return tuple(out)

    def describe(self) -> str:
        lines = [f"reduction to x-degree {self.residual_degree}"]
        lines.append("generators:")
        if not self.generators:
            lines.append("  (none)")
        for gen in self.generators:
            lines.append(f"  degree {gen.degree}: H = {gen.h_poly.to_text(bracketed=True)}")
        lines.append("removed terms:")
        if not self.removed_terms:
            lines.append("  (none)")
        for d, m in self.removed_terms:
            lines.append(f"  degree {d}: {_jmono_text(m)}")
        lines.append("surviving terms (degree >= 3):")
        survivors = self.survivors()
        if not survivors:
            lines.append("  (none)")
        for d, m, c in survivors:
            lines.append(f"  degree {d}: {_jmono_text(m)} coefficient {c}")
        return "\n".join(lines)


def _apply_generator(components, gen: PoincareGenerator, basis, eta_inv, truncation):
    """Exact formal composition x = y + eta_inv grad(H o basis), truncated."""
    k = basis.k
    n = basis.rep.dim
    total = Polynomial.zero(k, J_KIND)
    for d in sorted(components):
        total = total + components[d]
    total_x = substitute_param(total, basis.polys, truncate_at=truncation)
    hx = substitute_param(gen.h_poly, basis.polys)
    grads = [hx.partial(j) for j in range(n)]
    maps = []
    for i in range(n):
        mi = Polynomial.variable(i, n, X_KIND)
        for j in range(n):
            w = eta_inv[i][j]
            if w and not grads[j].is_zero():
                mi = mi + grads[j].scale(w)
        maps.append(mi)
    new_parts = compose_param(total_x, maps, truncate_at=truncation).homogeneous_parts()
    old_parts = total_x.homogeneous_parts()

    out = {}
    for d in range(2, truncation + 1):
        comp_x = new_parts.get(d)
        if d < gen.degree:
            # the filtration law, asserted rather than assumed
            if comp_x != old_parts.get(d):
                raise AssertionError("low-degree component changed by the generator")
            if d in components:
                out[d] = components[d]
            continue
        if comp_x is None:
            continue
        out[d] = Polynomial(basis.k, express_homogeneous(basis, comp_x, d), J_KIND)
    return out


def reduce(
    psi: GradedPotential,
    truncation_degree: int,
    pmatrix: PMatrix,
    strict: bool = False,
) -> ReductionReport:
    """Remove every removable term of x-degree 3..truncation_degree.

    Generators are chosen degree by degree; each is applied by exact
    composition, so components below the working degree are untouched and
    the leftovers of one stage (quadratic in the previous generator) are
    attacked again at the next.  A coefficient marked critical is never
    inverted: a candidate pivot that is not uniformly invertible is used
    only when the division happens to be exact with a uniform quotient,
    otherwise the term survives.  With strict=True such a refusal raises
    SingularHomologicalSolve instead.
    """
    basis = psi.basis
    if pmatrix.basis.polys != basis.polys:
        raise KindMismatch("potential and P-matrix use different bases")
    if 2 not in psi.components:
        raise ValueError("reduction needs the quadratic part of the potential")
    weights = basis.degrees
    critical = psi.critical
    eta_inv = pmatrix.metric.eta_inv

    current = {d: c for d, c in psi.components.items() if d <= truncation_degree}
    generators = []
    for g in range(3, truncation_degree + 1):
        unknown_monos = jmonomials_of_xdegree(weights, g)
        if not unknown_monos:
            continue
        total = Polynomial.zero(basis.k, J_KIND)
        for d in sorted(current):
            total = total + current[d]
        images = []
        for m in unknown_monos:
            h = Polynomial.monomial(m, 1, J_KIND)
            images.append(homological_image(total, h, pmatrix))

        # one row per term to remove: sum_j image_j[mono] * h_j == -term
        reducer = ra.RowReducer(admissible=_uniform(critical))
        determined: dict = {}
        for d in range(g, truncation_degree + 1):
            comp = current.get(d)
            if comp is None:
                continue
            for mono in jmonomials_of_xdegree(weights, d):
                const = comp.terms.get(mono)
                if const is None:
                    continue
                row = {j: im.terms[mono] for j, im in enumerate(images) if mono in im.terms}
                rhs = -const
                for j in list(row):
                    if j in determined:
                        rhs = rhs - row.pop(j) * determined[j]
                row[ra.RHS] = rhs
                residual = reducer.residual(row)
                unknowns = [j for j in residual if j != ra.RHS]
                if not unknowns:
                    continue                      # survivor: nothing acts here
                if reducer.push(residual) is not None:
                    continue
                if len(unknowns) == 1:
                    (j,) = unknowns
                    q = residual.get(ra.RHS, 0) / residual[j]
                    if _den_survives(q, critical):
                        determined[j] = q
                        continue
                if strict:
                    raise SingularHomologicalSolve(
                        f"term {_jmono_text(mono)} at x-degree {d}: every "
                        "candidate pivot is critical and no exact quotient "
                        "exists; refusing to divide"
                    )
                # survivor: only critical pivots offered, division refused

        values = reducer.solve(determined)
        h_terms = {unknown_monos[j]: v for j, v in values.items()}
        if not h_terms:
            continue
        gen = PoincareGenerator(Polynomial(basis.k, h_terms, J_KIND), g)
        generators.append(gen)
        current = _apply_generator(current, gen, basis, eta_inv, truncation_degree)

    removed = []
    for d in range(3, truncation_degree + 1):
        orig = psi.components.get(d)
        if orig is None:
            continue
        new = current.get(d)
        for mono in jmonomials_of_xdegree(weights, d):
            if mono in orig.terms and (new is None or mono not in new.terms):
                removed.append((d, mono))

    reduced = GradedPotential(basis, current, critical)
    for gen in generators:
        for c in gen.h_poly.terms.values():
            assert _den_survives(c, critical), "generator divided by a critical value"
    for comp in reduced.components.values():
        for c in comp.terms.values():
            assert _den_survives(c, critical), "reduced coefficient has critical denominator"
    return ReductionReport(
        reduced=reduced,
        generators=tuple(generators),
        removed_terms=tuple(removed),
        residual_degree=truncation_degree,
    )


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class SlopeSample:
    assignment: tuple
    point: tuple
    slope: float
    residuals: tuple


@dataclass(frozen=True)
class VerificationStats:
    samples: tuple
    min_slope: float
    scales: tuple


def verify_reduction(
    psi: GradedPotential,
    report: ReductionReport,
    lambdas,
    points: int = 6,
    seed: int = 0,
    zero_tol: float = 1e-13,
) -> VerificationStats:
    """Numerically confirm the reduction: compose the coordinate changes and
    check Phi_original(x(y)) - Phi_reduced(y) decays at least one order
    past the truncation degree under scaling y -> s y.

    Raises VerificationFailed with the offending parameter values, point,
    and measured slope.  Residuals at rounding level count as exact."""
    basis = psi.basis
    n = basis.rep.dim
    eta_inv = invariant_metric(basis.rep).eta_inv
    scales = (1.0, 0.5, 0.25, 0.125)
    threshold = report.residual_degree + 1
    samples = []
    min_slope = float("inf")
    for lam in lambdas:
        lam_key = tuple(sorted((k, float(v)) for k, v in lam.items()))
        f_orig = compile_polynomial(psi.x_polynomial(lam))
        f_red = compile_polynomial(report.reduced.x_polynomial(lam))
        h_funs = []
        for gen in report.generators:
            hx = substitute(
                gen.h_poly.evaluate_params({k: Fraction(v) for k, v in lam.items()}),
                basis.polys,
            )
            gx = hx.gradient()
            comps = []
            for i in range(n):
                hi = Polynomial(n, {}, X_KIND)
                for j in range(n):
                    w = eta_inv[i][j]
                    if w:
                        hi = hi + gx[j].scale(w)
                comps.append(compile_polynomial(hi))
            h_funs.append(comps)

        rng = random.Random(seed)
        for _ in range(points):
            raw = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
            norm = float(np.linalg.norm(raw))
            if norm < 1e-12:
                raw = np.ones(n)
                norm = float(np.linalg.norm(raw))
            y = 0.8 * raw / norm
            residuals = []
            for s in scales:
                z = s * y
                x = z.copy()
                for comps in reversed(h_funs):
                    x = x + np.array([c(x) for c in comps])
                residuals.append(abs(f_orig(x) - f_red(z)))
            if max(residuals) <= zero_tol:
                slope = float("inf")
            else:
                logs = np.log([max(r, 1e-300) for r in residuals])
                logx = np.log(scales)
                fit = float(np.polyfit(logx, logs, 1)[0])
                tail = float((logs[-2] - logs[-1]) / (logx[-2] - logx[-1]))
                slope = max(fit, tail)
            min_slope = min(min_slope, slope)
            samples.append(
                SlopeSample(
                    assignment=lam_key,
                    point=tuple(float(c) for c in y),
                    slope=slope,
                    residuals=tuple(residuals),
                )
            )
            if slope < threshold:
                raise VerificationFailed(
                    f"residual slope {slope:.3f} < {threshold} at parameters "
                    f"{dict(lam_key)}, point {tuple(round(float(c), 6) for c in y)}"
                )
    return VerificationStats(
        samples=tuple(samples), min_slope=min_slope, scales=scales
    )
