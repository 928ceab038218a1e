"""Reduction of Landau potentials by near-identity changes of coordinates
generated by invariant functions.

The potential is a `landau.LandauModel`, graded by x-degree through its
`components`, and so is the normal form: `reduce` returns the reduced
model with degree_x the truncation degree, for `minimize`, `sweep` and
`verify_reduction` to take as they take the original.

Each change is the time-one flow of the equivariant field
eta_inv grad(H o J), for an invariant generator H.  On a potential Psi
written in the basic invariants it acts as the Lie series exp(L_H) Psi,
with L_H Psi = Sum_ab dPsi/dJ_a P_ab dH/dJ_b and P the gradient Gram
matrix of the basis (Deprit, Celest. Mech. 1 (1969) 12-30; Gaeta,
Phys. Rep. 189 (1990) 1-87).  The leading term is the homological operator
that chooses the generators; the series is applied exactly through the
truncation degree, in J-space, so nothing is discarded silently.  The
oracle checks the result in x-space by composing with the flow map.
`reduce` keeps each generator it applies as a `PoincareGenerator`, H with
its x-degree; `removable_terms` reports which terms of one x-degree the
generators of degree >= 3 can remove, without applying any.

Coefficients are exact rational functions of the model parameters.  Each
parameter is declared "critical" (may vanish along the sweep) or
"generic" (uniformly bounded away from zero); the linear solves never
divide by anything that can vanish, which is the whole point of the
bookkeeping: a term is either removed for every admissible parameter
value, or it is reported as a survivor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KindMismatch, VerificationFailed
from .groups import invariant_metric
from . import rationals as ra
from .invariants import PMatrix, express_homogeneous, jmonomials_of_xdegree
from .landau import LandauModel, make_model
from .params import Coefficient
from .polynomials import (
    J_KIND,
    X_KIND,
    Polynomial,
    compose,
    mono_degree,
    mono_key,
    mono_text,
    substitute,
)


class ParameterReducer(ra.RowReducer):
    """The ``rationals.RowReducer`` of the homological solves, whose rows
    have ``Coefficient`` entries and so no integer form: ``residual``
    divides, ``factor = entry / pivot`` against the unnormalized pivot rows
    in insertion order, and the printed form follows this dataflow.  A pivot
    must be admissible: invertible for every value in the sweep."""

    def __init__(self, critical):
        super().__init__()
        self.critical = critical

    def admissible(self, c) -> bool:
        return Coefficient.coerce(c).uniform_nonzero(self.critical)

    def residual(self, row) -> dict:
        row = ra.sparse(row)
        for col, prow in self.pivot_rows.items():
            c = row.pop(col, None)
            if c:
                factor = c / prow[col]
                for v, x in prow.items():
                    if v != col:
                        row[v] = row[v] - factor * x if v in row else -(factor * x)
        return ra.sparse(row)


def _jmono_text(m) -> str:
    return mono_text(m, J_KIND) or "1"


# ---------------------------------------------------------------- old name


class GradedPotential:
    """Kept only for ``TARGETS`` in ``perfbench/tracer.py``, which names
    ``GradedPotential.from_model``; no orbitscope code calls it.  A Landau
    model is already graded (``LandauModel.components``), so the model
    comes back unchanged."""

    @classmethod
    def from_model(cls, model):
        return model


# ---------------------------------------------------------------- generators


@dataclass(frozen=True)
class PoincareGenerator:
    h_poly: Polynomial         # J-space; substitutes to homogeneous x-degree
    degree: int                # that x-degree


# ------------------------------------------------------- the basic operators


def delta_J(h, pmatrix: PMatrix) -> list:
    """Action of the generator on each basic invariant: Sum_b P_ab dH/dJ_b.

    P is symmetric, so with H the whole potential Psi this is the vector
    U_a = Sum_b (dPsi/dJ_b) P_ba."""
    dh = h.gradient()
    zero = Polynomial.zero(pmatrix.k, J_KIND)
    return [
        sum((p_ab * dh_b for p_ab, dh_b in zip(row, dh) if not dh_b.is_zero()), zero)
        for row in pmatrix.entries
    ]


def lie_derivative(psi, delta) -> Polynomial:
    """L_H psi = Sum_a (dpsi/dJ_a) delta_a, with delta = delta_J(H, P): the
    derivative of psi o basis along the field eta_inv grad(H o basis)."""
    terms = (psi.partial(a) * d for a, d in enumerate(delta) if not d.is_zero())
    return sum(terms, Polynomial.zero(psi.nvars, J_KIND))


def homological_image(psi_term, h, pmatrix: PMatrix):
    """Leading-order change of a potential term: (D Psi) P (D H) = L_H Psi.

    If the term substitutes to x-degree s and the generator to x-degree t,
    the image is homogeneous of x-degree s + t - 2.
    """
    return lie_derivative(psi_term, delta_J(h, pmatrix))


# ---------------------------------------------------------- removable terms


@dataclass(frozen=True)
class RemovableSubspace:
    degree: int
    removable_monomials: tuple
    basis: tuple                 # image polynomials spanning the subspace
    constraints: tuple           # human-readable pivot descriptions
    non_removable: tuple


def removable_terms(model: LandauModel, degree: int, pmatrix: PMatrix) -> RemovableSubspace:
    """Directions at the given x-degree removable by generators of degree
    >= 3, inverting only generic coefficients.

    The floor of 3 matches `reduce`, which applies near-identity changes
    only: a generator of degree 2 would be a linear coordinate change.
    """
    basis = model.basis
    weights = basis.degrees
    target_monos = jmonomials_of_xdegree(weights, degree)
    columns = []      # (gen_degree, gen_mono, image polynomial)
    for g in range(3, degree + 1):
        s = degree - g + 2
        comp = model.component(s)
        if comp.is_zero():
            continue
        for m in jmonomials_of_xdegree(weights, g):
            h = Polynomial.monomial(m, 1, J_KIND)
            image = homological_image(comp, h, pmatrix)
            if not image.is_zero():
                columns.append((g, m, image))

    reducer = ParameterReducer(model.critical)
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
    reduced: LandauModel          # x-degree truncated at the residual degree
    generators: tuple
    removed_terms: tuple          # (x-degree, J-monomial), ascending degree

    @property
    def residual_degree(self) -> int:
        return self.reduced.degree_x

    def survivors(self) -> tuple:
        out = []
        for d, comp in self.reduced.components().items():
            if d < 3:
                continue
            for m in sorted(comp.terms, key=mono_key, reverse=True):
                out.append((d, m, comp.terms[m]))
        return tuple(out)


def _lie_series(psi: Polynomial, gen: PoincareGenerator, pmatrix: PMatrix, truncation):
    """exp(L_H) psi = Sum_k L_H^k psi / k!, truncated at x-degree truncation.

    L_H raises the x-degree by deg H - 2 >= 1, so the series is finite; a
    term above truncation - (deg H - 2) only feeds degrees past the
    truncation and is dropped before it is differentiated.
    """
    weights = pmatrix.basis.degrees
    delta = delta_J(gen.h_poly, pmatrix)
    out = term = psi
    k = 1
    while True:
        term = term.truncate(truncation - gen.degree + 2, weights)
        if term.is_zero():
            return out
        term = lie_derivative(term, delta).scale(Fraction(1, k))
        out = out + term
        k += 1


def reduce(
    model: LandauModel,
    truncation_degree: int,
    pmatrix: PMatrix,
) -> ReductionReport:
    """Remove every removable term of x-degree 3..truncation_degree.

    Generators are chosen degree by degree.  Each acts as the time-one flow
    of the field eta_inv grad(H o basis), applied in J-space as the exact
    Lie series exp(L_H) truncated at truncation_degree, so components below
    the generator's degree are untouched and the leftovers of one stage are
    attacked again at the next.  Every changed component is re-expressed
    in the canonical representative of the basis.  A coefficient marked
    critical is never inverted: a candidate pivot that is not uniformly
    invertible is used only when the division happens to be exact with a
    uniform quotient, otherwise the term survives and is reported.
    """
    basis = model.basis
    if pmatrix.basis.polys != basis.polys:
        raise KindMismatch("potential and P-matrix use different bases")
    if model.component(2).is_zero():
        raise ValueError("reduction needs the quadratic part of the potential")
    weights = basis.degrees
    critical = model.critical

    current = model.psi.truncate(truncation_degree, weights)
    generators = []
    for g in range(3, truncation_degree + 1):
        unknown_monos = jmonomials_of_xdegree(weights, g)
        if not unknown_monos:
            continue
        images = []
        for m in unknown_monos:
            h = Polynomial.monomial(m, 1, J_KIND)
            images.append(homological_image(current, h, pmatrix))

        # one row per term to remove: sum_j image_j[mono] * h_j == -term
        reducer = ParameterReducer(critical)
        determined: dict = {}
        parts = current.homogeneous_parts(weights)
        for d in range(g, truncation_degree + 1):
            comp = parts.get(d)
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
                    # admissible iff q stays finite as the critical parameters go to zero
                    if Coefficient.coerce(q).denominator_survives(critical):
                        determined[j] = q
                # otherwise a survivor: only critical pivots offered, division refused

        values = reducer.solve(determined)
        h_terms = {unknown_monos[j]: v for j, v in values.items()}
        if not h_terms:
            continue
        gen = PoincareGenerator(Polynomial(basis.k, h_terms, J_KIND), g)
        generators.append(gen)
        # L_H cannot touch a degree below g; the rest is put back in the
        # representative express_in_basis prints when the basis has relations
        flowed = _lie_series(current, gen, pmatrix, truncation_degree)
        current = Polynomial.zero(basis.k, J_KIND)
        for d, part in flowed.homogeneous_parts(weights).items():
            if d >= g:
                part = Polynomial(
                    basis.k, express_homogeneous(basis, substitute(part, basis.polys), d), J_KIND
                )
            current = current + part

    removed = tuple(
        (d, mono)
        for d in range(3, truncation_degree + 1)
        for mono in jmonomials_of_xdegree(weights, d)
        if mono in model.psi.terms and mono not in current.terms
    )
    for gen in generators:
        for c in gen.h_poly.terms.values():
            c = Coefficient.coerce(c)
            assert c.denominator_survives(critical), "generator divided by a critical value"
    for c in current.terms.values():
        c = Coefficient.coerce(c)
        assert c.denominator_survives(critical), "reduced coefficient has critical denominator"
    return ReductionReport(
        reduced=make_model(basis, current, critical, truncation_degree),
        generators=tuple(generators),
        removed_terms=removed,
    )


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class VerificationStats:
    min_slope: int


def _coordinate_change(h, basis, eta_inv, cap) -> list:
    """The time-one flow of the field eta_inv grad(H o basis) for a J-space
    generator H over Fraction: x_i = Sum_k L^k y_i / k!, with
    L f = grad f . eta_inv grad(H o basis), truncated at degree cap."""
    n = basis.rep.dim
    zero = Polynomial.zero(n, X_KIND)
    grads = substitute(h, basis.polys).gradient()
    field = [sum((g.scale(w) for w, g in zip(row, grads) if w), zero) for row in eta_inv]
    maps = []
    for i in range(n):
        term = total = Polynomial.variable(i, n, X_KIND)
        k = 1
        while not term.is_zero():
            term = sum((d * f for d, f in zip(term.gradient(), field)), zero)
            term = term.truncate(cap).scale(Fraction(1, k))
            total, k = total + term, k + 1
        maps.append(total)
    return maps


def verify_reduction(model: LandauModel, report: ReductionReport, lambdas) -> VerificationStats:
    """Exactly confirm the reduction at each rational parameter point.

    At each assignment lambda (values taken exactly as Fractions) the
    original potential in x-space is composed with every generator's
    time-one flow map, first to last, so x = phi_1(phi_2(...(y))), over
    Fraction and truncated at N + 1, with N the report's residual degree.
    The reduced potential is subtracted.  A nonzero residual term of degree
    <= N raises VerificationFailed naming that degree and lambda.  This is
    the x-space referee of the J-space Lie series in ``reduce``: the two
    share nothing but ``substitute``.

    min_slope is the lowest degree of a nonzero residual term, minimized
    over the assignments, or N + 2 when the residual vanishes through
    N + 1: the exact order of decay of Phi_original(x(s y)) -
    Phi_reduced(s y) as s -> 0.  A passing reduction has min_slope > N.
    """
    basis = model.basis
    eta_inv = invariant_metric(basis.rep).eta_inv
    cap = report.residual_degree + 1
    min_slope = cap + 1
    for lam in lambdas:
        lam = {k: Fraction(v) for k, v in sorted(lam.items())}
        residual = model.potential(lam).truncate(cap)
        for gen in report.generators:
            maps = _coordinate_change(gen.h_poly.evaluate_params(lam), basis, eta_inv, cap)
            residual = compose(residual, maps, truncate_at=cap)
        residual = residual - report.reduced.potential(lam).truncate(cap)
        low = min((mono_degree(m) for m in residual.terms), default=cap + 1)
        if low < cap:
            point = ", ".join(f"{k}={v}" for k, v in lam.items())
            raise VerificationFailed(
                f"residual term of degree {low} <= {report.residual_degree} at {point}"
            )
        min_slope = min(min_slope, low)
    return VerificationStats(min_slope=min_slope)
