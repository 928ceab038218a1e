"""Invariant rings of finite matrix groups, computed exactly.

The dimension count of each graded invariant space comes from the Molien
generating function; the basis itself comes from Reynolds averages of
monomials with exact rank bookkeeping.  A minimal integrity basis (MIB) is
grown degree by degree: at each degree the power products of the basis so
far are spanned first, then Reynolds candidates that enlarge the span are
appended, which guarantees minimality.

All greedy choices scan candidates in the canonical monomial order, so the
output is deterministic down to the coefficient level.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import rationals as ra
from .errors import CapTooLow, DimensionMismatch, NotExpressible, NotInvariant
from .groups import FiniteGroupRep, InvariantMetric, invariant_metric
from .polynomials import (
    J_KIND,
    Monomial,
    Polynomial,
    act,
    mono_key,
    monomials_of_degree,
    reynolds,
    substitute,
)

# ---------------------------------------------------------------- utilities


def coefficient_row(p: Polynomial, index: dict[Monomial, int]) -> dict[int, Fraction]:
    """The sparse coefficient row of ``p`` over the monomial positions ``index``."""
    return {index[m]: c for m, c in p.terms.items()}


def monomial_index(nvars: int, degree: int) -> tuple[list[Monomial], dict[Monomial, int]]:
    monos = monomials_of_degree(nvars, degree)
    return monos, {m: i for i, m in enumerate(monos)}


def jmonomials_of_xdegree(degrees, xdegree: int) -> list[Monomial]:
    """Exponent tuples e with sum(e_i * degrees[i]) == xdegree, canonical order."""
    k = len(degrees)
    out: list[Monomial] = []

    def rec(prefix, remaining, i):
        if i == k:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        d = degrees[i]
        for e in range(remaining // d, -1, -1):
            rec(prefix + [e], remaining - e * d, i + 1)

    rec([], xdegree, 0)
    return sorted(out, key=mono_key, reverse=True)


def jmonomial_xdegree(mono: Monomial, degrees) -> int:
    return sum(e * d for e, d in zip(mono, degrees))


# ------------------------------------------------------------- Molien series


@dataclass(frozen=True)
class MolienSeries:
    """Exact graded dimensions c_d of the invariant ring."""

    group_order: int
    coefficients: tuple[int, ...]

    def coefficient(self, d: int) -> int:
        return self.coefficients[d]

    @property
    def degree_cap(self) -> int:
        return len(self.coefficients) - 1


def _char_poly_reversed(t_mat: ra.Mat) -> list[Fraction]:
    """Coefficients of det(I - t*T) in ascending powers of t."""
    n = len(t_mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    for k in range(1, n + 1):
        total = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            minor = tuple(
                tuple(t_mat[i][j] for j in subset) for i in subset
            )
            total += ra.mat_det(minor)
        coeffs[k] = (-1) ** k * total
    return coeffs


def _series_reciprocal(poly_coeffs: list[Fraction], cap: int) -> list[Fraction]:
    """Power series of 1/p(t) up to t^cap; requires p(0) == 1."""
    assert poly_coeffs[0] == 1
    out = [Fraction(0)] * (cap + 1)
    out[0] = Fraction(1)
    for m in range(1, cap + 1):
        acc = Fraction(0)
        for i in range(1, min(m, len(poly_coeffs) - 1) + 1):
            acc += poly_coeffs[i] * out[m - i]
        out[m] = -acc
    return out


def molien_series(rep: FiniteGroupRep, degree_cap: int) -> MolienSeries:
    """c_d = [t^d] (1/|G|) sum_g 1/det(1 - t T_g), exactly."""
    total = [Fraction(0)] * (degree_cap + 1)
    for e in rep.elements:
        series = _series_reciprocal(_char_poly_reversed(e.matrix), degree_cap)
        for d in range(degree_cap + 1):
            total[d] += series[d]
    inv_order = Fraction(1, rep.order)
    coeffs = []
    for d in range(degree_cap + 1):
        c = total[d] * inv_order
        if c.denominator != 1 or c < 0:
            raise ArithmeticError(f"non-integral Molien coefficient at degree {d}")
        coeffs.append(int(c))
    return MolienSeries(rep.order, tuple(coeffs))


# -------------------------------------------------- graded invariant spaces


def invariant_space_basis(rep: FiniteGroupRep, degree: int) -> list[Polynomial]:
    """Monic basis of the degree-`degree` invariant subspace.

    Reynolds images of monomials are scanned in canonical order and kept
    greedily by exact rank, then normalized monic.
    """
    monos, index = monomial_index(rep.dim, degree)
    reducer = ra.RowReducer()
    basis = []
    for m in monos:
        image = reynolds(rep, Polynomial.monomial(m, 1))
        if image.is_zero():
            continue
        if reducer.add(coefficient_row(image, index)):
            basis.append(image.monic())
    return basis


# -------------------------------------------------- minimal integrity basis


@dataclass(frozen=True)
class IntegrityBasis:
    """Minimal generating set of the invariant ring.

    ``relations`` is None until computed; use :func:`find_relations` and
    ``with_relations`` to attach them.
    """

    rep: FiniteGroupRep
    polys: tuple[Polynomial, ...]
    degrees: tuple[int, ...]
    relations: tuple[Polynomial, ...] | None = field(default=None)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.polys)

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0

    def with_relations(self, relations) -> "IntegrityBasis":
        return IntegrityBasis(self.rep, self.polys, self.degrees, tuple(relations))

    def jmonomial_images(self, xdegree: int):
        """The J-monomials of x-degree ``xdegree`` in canonical order, and
        their x-space images as sparse rows {x-monomial: {J-monomial index:
        coefficient}}, x-monomials in canonical order.  Built once per degree.
        """
        if xdegree not in self._images:
            jmonos = jmonomials_of_xdegree(self.degrees, xdegree)
            rows: dict[Monomial, dict[int, Fraction]] = {}
            for col, expo in enumerate(jmonos):
                image = substitute(Polynomial.monomial(expo, 1, J_KIND), self.polys)
                for m, c in image.terms.items():
                    rows.setdefault(m, {})[col] = c
            ordered = {m: rows[m] for m in sorted(rows, key=mono_key, reverse=True)}
            self._images[xdegree] = (jmonos, ordered)
        return self._images[xdegree]


def _support_size(p: Polynomial) -> int:
    used = set()
    for m in p.terms:
        for i, e in enumerate(m):
            if e:
                used.add(i)
    return len(used)


def _product_span(rep: FiniteGroupRep, polys, degrees, d: int, index) -> ra.RowReducer:
    """The power products of x-degree d of the given generators, as rows."""
    products = ra.RowReducer()
    for expo in jmonomials_of_xdegree(degrees, d):
        prod = Polynomial.constant(rep.dim, 1)
        for i, e in enumerate(expo):
            if e:
                prod = prod * polys[i] ** e
        products.add(coefficient_row(prod, index))
    return products


def _listing_order(block: list[Polynomial]) -> list[Polynomial]:
    """Generators of one degree as the basis lists them: fewer coordinates
    first, ties broken by leading monomial."""
    block = sorted(block, key=lambda p: mono_key(p.leading_term()[0]), reverse=True)
    return sorted(block, key=_support_size)


def compute_mib(rep: FiniteGroupRep, degree_cap: int | None = None) -> IntegrityBasis:
    """Minimal integrity basis up to ``degree_cap`` (default: group order).

    The default cap is sufficient for completeness; a user-lowered cap
    yields the degree-truncated answer.  At each degree the new generators
    are the reduced-echelon basis of the quotient (invariant space modulo
    products of lower generators), which pins the choice completely: the
    Z2 footnote basis comes out as (x^2, y^2, xy), the symmetric groups
    yield the elementary symmetric functions.  Within a degree, generators
    involving fewer coordinates are listed first, ties broken by leading
    monomial.
    """
    if degree_cap is None:
        degree_cap = rep.order
    series = molien_series(rep, degree_cap)
    polys: list[Polynomial] = []
    degrees: list[int] = []
    for d in range(1, degree_cap + 1):
        c_d = series.coefficient(d)
        if c_d == 0:
            continue
        monos, index = monomial_index(rep.dim, d)
        products = _product_span(rep, polys, degrees, d, index)
        if products.rank > c_d:
            raise ArithmeticError("product span exceeds Molien count")
        if products.rank == c_d:
            continue
        quotient = ra.RowReducer()
        raw_rows = []
        for m in monos:
            image = reynolds(rep, Polynomial.monomial(m, 1))
            if image.is_zero():
                continue
            residual = products.residual(coefficient_row(image, index))
            if residual and quotient.add(residual):
                raw_rows.append(residual)
        reduced_rows, _ = ra.rref(raw_rows, len(monos))
        if products.rank + len(reduced_rows) != c_d:
            raise CapTooLow(
                f"invariant space at degree {d} not exhausted (cap {degree_cap})"
            )
        new_polys = _listing_order([
            Polynomial(
                rep.dim, {monos[i]: c for i, c in enumerate(row) if c != 0}
            ).monic()
            for row in reduced_rows
        ])
        for p in new_polys:
            polys.append(p)
            degrees.append(d)
    return IntegrityBasis(rep, tuple(polys), tuple(degrees))


def is_canonical(rep: FiniteGroupRep, polys, degrees) -> bool:
    """True when ``polys`` is the basis compute_mib returns through degree
    max(degrees), for invariants homogeneous of their listed degrees.

    Degrees ascend from 1, and at every degree d up to the top: the products
    of the lower generators and the d-block span c_d (Molien) dimensions;
    the block is listed in compute_mib's order; and it is in reduced echelon
    form modulo those products (each generator monic, free of the products'
    pivot columns and of the other generators' leading monomials).  The
    reduced echelon basis of a space is unique, so only compute_mib's own
    block passes.  Nothing above the top degree is checked.
    """
    if list(degrees) != sorted(degrees) or min(degrees, default=1) < 1:
        return False
    top = max(degrees, default=0)
    series = molien_series(rep, top)
    for d in range(1, top + 1):
        start, stop = bisect_left(degrees, d), bisect_right(degrees, d)
        block = list(polys[start:stop])
        if series.coefficient(d) == 0 and not block:
            continue
        _, index = monomial_index(rep.dim, d)
        products = _product_span(rep, polys[:start], degrees[:start], d, index)
        if products.rank + len(block) != series.coefficient(d):
            return False
        if block != _listing_order(block):
            return False
        for i, p in enumerate(block):
            lead, c = p.leading_term()
            row = coefficient_row(p, index)
            if c != 1 or products.residual(row) != row:
                return False
            if any(lead in q.terms for j, q in enumerate(block) if j != i):
                return False
    return True


# ------------------------------------------------------------------ relations


def find_relations(
    basis: IntegrityBasis, relation_degree_cap: int | None = None
) -> tuple[Polynomial, ...]:
    """Generators of the relation ideal among the basis, degree by degree.

    At each x-degree the exact kernel of the substitution map is computed;
    kernel vectors already inside the ideal generated by lower relations
    are dropped, the rest become new relation generators (monic in the
    canonical J-monomial order).
    """
    if relation_degree_cap is None:
        relation_degree_cap = 2 * basis.max_degree
    degrees = basis.degrees
    k = basis.k
    relations: list[Polynomial] = []
    rel_xdegrees: list[int] = []
    for xdeg in range(1, relation_degree_cap + 1):
        jmonos, rows = basis.jmonomial_images(xdeg)
        if len(jmonos) < 2:
            continue
        kernel = ra.nullspace(rows.values(), len(jmonos))
        if not kernel:
            continue
        jindex = {m: i for i, m in enumerate(jmonos)}
        ideal_span = ra.RowReducer(len(jmonos))
        for rel, rel_deg in zip(relations, rel_xdegrees):
            for q_expo in jmonomials_of_xdegree(degrees, xdeg - rel_deg):
                shifted = Polynomial.monomial(q_expo, 1, J_KIND) * rel
                ideal_span.add(coefficient_row(shifted, jindex))
        for v in kernel:
            if ideal_span.add(v):
                rel_poly = Polynomial(
                    k, {jmonos[i]: c for i, c in enumerate(v) if c != 0}, J_KIND
                ).monic()
                relations.append(rel_poly)
                rel_xdegrees.append(xdeg)
    return tuple(relations)


def is_coregular(basis: IntegrityBasis) -> bool:
    """True when the basis generates freely (no relations up to default cap)."""
    relations = basis.relations
    if relations is None:
        relations = find_relations(basis)
    return len(relations) == 0


# ------------------------------------------------------- basis re-expression


def is_invariant(rep: FiniteGroupRep, p: Polynomial) -> bool:
    return all(act(e.matrix, p) == p for e in rep.elements)


def _check_invariant(rep: FiniteGroupRep, p: Polynomial):
    if not is_invariant(rep, p):
        raise NotInvariant("polynomial is moved by the group action")


def express_homogeneous(basis: IntegrityBasis, part, xdegree: int) -> dict:
    """Coefficients {J-monomial: c} with sum c * J-monomial == ``part``.

    ``part`` is a homogeneous invariant of x-degree ``xdegree``, with
    Fraction or parameter-valued (``Coefficient``) coefficients.
    One exact solve over the J-monomials of that degree in canonical order;
    unknowns without a pivot are zero, so the representative is canonical
    even when the basis has relations.  Raises NotExpressible when ``part``
    is outside the span.
    """
    jmonos, rows = basis.jmonomial_images(xdegree)
    reducer = ra.RowReducer(len(jmonos))
    for xm, row in rows.items():
        rhs = part.terms.get(xm)
        reducer.add(row if rhs is None else {**row, ra.RHS: rhs})
    if not reducer.consistent or not part.terms.keys() <= rows.keys():
        raise NotExpressible(f"degree-{xdegree} component outside the algebra")
    return {jmonos[j]: c for j, c in reducer.solve().items()}


def express_in_basis(
    rep: FiniteGroupRep, basis: IntegrityBasis, p: Polynomial
) -> Polynomial:
    """Exact Psi with Psi(J_1..J_k) == p, canonical representative."""
    _check_invariant(rep, p)
    result = Polynomial.zero(basis.k, J_KIND)
    for xdeg, part in p.homogeneous_parts().items():
        if xdeg == 0:
            result = result + Polynomial.constant(
                basis.k, part.terms[(0,) * rep.dim], J_KIND
            )
            continue
        result = result + Polynomial(
            basis.k, express_homogeneous(basis, part, xdeg), J_KIND
        )
    return result


# ------------------------------------------------------------------ P-matrix


@dataclass(frozen=True)
class PMatrix:
    """Gradient Gram matrix of the basis, re-expressed in the basis.

    entries[i][h] is the J-space polynomial equal to
    sum_ab eta_inv[a][b] d_a J_i d_b J_h, where eta is the group-averaged
    metric; for orthogonal representations eta is the identity and this is
    the plain gradient inner product.
    """

    basis: IntegrityBasis
    entries: tuple[tuple[Polynomial, ...], ...]
    metric: InvariantMetric

    @property
    def k(self) -> int:
        return self.basis.k


def p_matrix(rep: FiniteGroupRep, basis: IntegrityBasis) -> PMatrix:
    metric = invariant_metric(rep)
    grads = [p.gradient() for p in basis.polys]
    k = basis.k
    n = rep.dim
    entries: list[list[Polynomial]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for h in range(i, k):
            acc = Polynomial.zero(n)
            for a in range(n):
                for b in range(n):
                    w = metric.eta_inv[a][b]
                    if w != 0:
                        acc = acc + (grads[i][a] * grads[h][b]).scale(w)
            expr = express_in_basis(rep, basis, acc)
            entries[i][h] = expr
            entries[h][i] = expr
    return PMatrix(basis, tuple(tuple(row) for row in entries), metric)


def orbit_map(basis: IntegrityBasis, point) -> tuple:
    """Evaluate the basis at a point: exact for rational input, float for float."""
    if len(point) != basis.rep.dim:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, action has {basis.rep.dim}"
        )
    return tuple(p.evaluate(point) for p in basis.polys)
