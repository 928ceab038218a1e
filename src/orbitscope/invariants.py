"""Invariant rings of finite matrix groups, computed exactly.

A polynomial is invariant exactly when each generator fixes it, so the
degree-d invariant space is one exact null space, W_d = ∩_s ker(T_s - I)
on degree-d forms over the spec generators s (Derksen-Kemper,
*Computational Invariant Theory*, §3.1); its cost grows with the number of
generators, not with |G|.  Only the Molien series, which counts dim W_d,
sums over every element, and it sums in integers: each det(I - t T_g) is
formed from the traces of the powers of g by Newton's identities, has
integer coefficients, and the integer series are divided by |G| once.
A minimal integrity basis (MIB) is grown degree by degree: at each degree
the power products of the basis so far are spanned first, then the
reduced echelon basis of W_d modulo that span is appended, which
guarantees minimality.  Products of the generators and the images
x^m(T_s x) come from ``polynomials.power_products`` tables, each built
once.  The growth stops at the first degree where the basis is certified
complete (:func:`is_coregular`), or at the degree bound of a homogeneous
system of parameters among its generators, or else at the degree cap.

All greedy choices scan candidates in the canonical monomial order, so the
output is deterministic down to the coefficient level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import rationals as ra
from .errors import CapTooLow, NotExpressible, NotInvariant
from .groups import FiniteGroupRep, InvariantMetric, invariant_metric
from .polynomials import (
    J_KIND,
    Monomial,
    Polynomial,
    act,
    linear_forms,
    mono_key,
    monomials_of_degree,
    power_products,
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


# ------------------------------------------------------------- Molien series


@dataclass(frozen=True)
class MolienSeries:
    """Exact graded dimensions c_d of the invariant ring."""

    group_order: int
    coefficients: tuple[int, ...]

    def coefficient(self, d: int) -> int:
        return self.coefficients[d]


def _series_reciprocal(poly_coeffs: tuple[int, ...], cap: int) -> list[int]:
    """Power series of 1/p(t) up to t^cap; requires p(0) == 1."""
    assert poly_coeffs[0] == 1
    out = [0] * (cap + 1)
    out[0] = 1
    for m in range(1, cap + 1):
        acc = 0
        for i in range(1, min(m, len(poly_coeffs) - 1) + 1):
            acc += poly_coeffs[i] * out[m - i]
        out[m] = -acc
    return out


def _char_polys(rep: FiniteGroupRep) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The distinct det(I - t*T_g), each with the number of elements that
    have it.  It is a class function, so there are at most as many as
    conjugacy classes; the table is built once per rep and kept in its memo.

    The coefficients a_k come from the power sums p_k = tr(T_g^k) by
    Newton's identities, k a_k = -(a_{k-1} p_1 + ... + a_0 p_k), with the
    powers g^k read off the Cayley table.  For g of finite order every
    trace is a sum of roots of unity, so a rational trace is an integer,
    and so is every a_k; a trace or a coefficient that is not raises
    ArithmeticError.
    """
    table = rep.memo.get("char_polys")
    if table is None:
        traces = []
        for t in rep.elements:
            tr = sum(t[i][i] for i in range(rep.dim))
            if tr.denominator != 1:
                raise ArithmeticError(f"non-integral trace {tr} of a group element")
            traces.append(int(tr))
        counts: dict[tuple[int, ...], int] = {}
        for g, row in enumerate(rep.cayley):
            sums = [traces[g]]
            power = g
            for _ in range(1, rep.dim):
                power = row[power]
                sums.append(traces[power])
            key = tuple(sums)
            counts[key] = counts.get(key, 0) + 1
        table = rep.memo["char_polys"] = tuple(
            (_char_poly_from_power_sums(sums), count) for sums, count in counts.items()
        )
    return table


def _char_poly_from_power_sums(sums: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of det(I - t*T) in ascending powers of t, from the
    power sums tr(T^k), k = 1..n."""
    coeffs = [1]
    for k in range(1, len(sums) + 1):
        a, rem = divmod(-sum(coeffs[k - i] * sums[i - 1] for i in range(1, k + 1)), k)
        if rem:
            raise ArithmeticError(f"non-integral char poly coefficient at t^{k}")
        coeffs.append(a)
    return tuple(coeffs)


def molien_series(rep: FiniteGroupRep, degree_cap: int) -> MolienSeries:
    """c_d = [t^d] (1/|G|) sum_g 1/det(1 - t T_g), exactly, summed over the
    distinct det(1 - t T_g) weighted by their counts.  Every det(1 - t T_g)
    has integer coefficients and constant term 1, so the sum is one of
    integer series, divided by |G| at the end."""
    total = [0] * (degree_cap + 1)
    for q, count in _char_polys(rep):
        series = _series_reciprocal(q, degree_cap)
        for d in range(degree_cap + 1):
            total[d] += count * series[d]
    coeffs = []
    for d in range(degree_cap + 1):
        c, rem = divmod(total[d], rep.order)
        if rem or c < 0:
            raise ArithmeticError(f"non-integral Molien coefficient at degree {d}")
        coeffs.append(c)
    return MolienSeries(rep.order, tuple(coeffs))


# -------------------------------------------------- graded invariant spaces


def _generator_images(rep: FiniteGroupRep) -> list:
    """One :func:`power_products` table of x^m(T_s x) per spec generator s."""
    return [power_products(linear_forms(rep.elements[s])) for s in rep.generators]


def _invariant_space(rep: FiniteGroupRep, tables, monos, index) -> list[ra.Vec]:
    """W_d = ∩_s ker(T_s - I) over the generators s, as the canonical null
    space of the stacked rows of x^m(T_s x) - x^m, one column per monomial
    x^m of ``monos`` (all of one degree, positions in ``index``), read from
    the :func:`_generator_images` ``tables``."""
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for s, image in zip(rep.generators, tables):
        for col, m in enumerate(monos):
            for mm, c in (image(m) - Polynomial.monomial(m, 1)).terms.items():
                rows.setdefault((s, index[mm]), {})[col] = c
    return ra.nullspace(rows.values(), len(monos))


def invariant_space_basis(rep: FiniteGroupRep, degree: int) -> list[Polynomial]:
    """Monic basis of the degree-`degree` invariant subspace: the null
    space vectors of :func:`_invariant_space`, normalized monic."""
    monos, index = monomial_index(rep.dim, degree)
    return [
        Polynomial(rep.dim, {monos[i]: c for i, c in enumerate(v) if c}).monic()
        for v in _invariant_space(rep, _generator_images(rep), monos, index)
    ]


# -------------------------------------------------- minimal integrity basis


@dataclass
class IntegrityBasis:
    """Minimal generating set of the invariant ring; :func:`find_relations`
    computes the relations among its generators.  ``image(e)``, the x-space
    image of the J-monomial e, comes from one :func:`power_products` table,
    which stays valid as :func:`compute_mib` adds blocks.
    """

    rep: FiniteGroupRep
    polys: tuple[Polynomial, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        self._maps = list(self.polys)
        self.image = power_products(self._maps)
        self._images: dict = {}

    def add_block(self, block: list[Polynomial], degree: int) -> None:
        """Append generators of one degree, in listing order."""
        self.polys += tuple(block)
        self.degrees += (degree,) * len(block)
        self._maps += block
        self._images.clear()

    @property
    def k(self) -> int:
        return len(self.polys)

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0

    def jmonomial_images(self, xdegree: int):
        """The J-monomials of x-degree ``xdegree`` in canonical order, and
        their x-space images as sparse rows {x-monomial: {J-monomial index:
        coefficient}}, x-monomials in canonical order.  Built once per degree.
        """
        if xdegree not in self._images:
            jmonos = jmonomials_of_xdegree(self.degrees, xdegree)
            rows: dict[Monomial, dict[int, Fraction]] = {}
            for col, expo in enumerate(jmonos):
                for m, c in self.image(expo).terms.items():
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


def _listing_order(block: list[Polynomial]) -> list[Polynomial]:
    """Generators of one degree as the basis lists them: fewer coordinates
    first, ties broken by leading monomial."""
    block = sorted(block, key=lambda p: mono_key(p.leading_term()[0]), reverse=True)
    return sorted(block, key=_support_size)


def _default_cap(rep: FiniteGroupRep) -> int:
    """A degree by which the integrity basis is complete: Noether's bound |G|
    for a cyclic group, ⌊3|G|/4⌋ for any other (Domokos-Hegedűs, Arch.
    Math. 74 (2000)).  The group is cyclic when some element, read off the
    Cayley table, has order |G|."""
    for g in range(rep.order):
        cur, order = g, 1
        while cur != 0:
            cur = rep.cayley[cur][g]
            order += 1
        if order == rep.order:
            return rep.order
    return 3 * rep.order // 4


def _hsop_bound(thetas) -> int | None:
    """max(d_n, D), D = sum(d_i - 1), when the n forms ``thetas`` in n
    variables are a homogeneous system of parameters (hsop); None otherwise.

    The products x^m * theta_i of degree D + 1 span every form of that
    degree exactly when R[x]/(theta) is finite-dimensional: its top degree
    is then D.  So one exact span test decides it, with no Groebner basis;
    rows stop once the rank is full.  For a finite group in characteristic
    0 the invariant ring is Cohen-Macaulay (Hochster-Eagon), hence free over
    the hsop with secondaries of degree at most D, and it is generated in
    degree at most max(d_n, D) (Derksen-Kemper, *Computational Invariant
    Theory*, ch. 3).
    """
    n = thetas[0].nvars
    degrees = [p.degree() for p in thetas]
    top = sum(d - 1 for d in degrees) + 1
    monos, index = monomial_index(n, top)
    span = ra.RowReducer(len(monos))
    for theta, d in zip(thetas, degrees):
        for m in monomials_of_degree(n, top - d):
            span.add({
                index[tuple(a + b for a, b in zip(m, mm))]: c
                for mm, c in theta.terms.items()
            })
            if span.rank == len(monos):
                return max(max(degrees), top - 1)
    return None


def _molien_numerator(coefficients, degrees) -> list:
    """Molien(t) * prod_i (1 - t^{d_i}), through the series' own cap."""
    out = list(coefficients)
    for d in degrees:
        out = [c - (out[i - d] if i >= d else 0) for i, c in enumerate(out)]
    return out


def _certified_stop(basis: IntegrityBasis, series: MolienSeries, top: int) -> int:
    """The degree the search may stop at, given it runs to ``top``: the
    hsop bound of the first n generators when that is lower and they are an
    hsop, else ``top``.  Before the bound is trusted, Molien * prod(1 -
    t^{d_i}) must have non-negative coefficients that vanish above D
    through the series' cap, as a free module over the hsop requires."""
    n = basis.rep.dim
    degrees = basis.degrees[:n]
    secondary_top = sum(d - 1 for d in degrees)
    if max(degrees[-1], secondary_top) >= top:
        return top
    bound = _hsop_bound(basis.polys[:n])
    if bound is None:
        return top
    numerator = _molien_numerator(series.coefficients, degrees)
    if min(numerator) < 0 or any(numerator[secondary_top + 1:]):
        raise ArithmeticError("Molien series disagrees with the hsop certificate")
    return bound


def compute_mib(rep: FiniteGroupRep, degree_cap: int | None = None) -> IntegrityBasis:
    """Minimal integrity basis up to ``degree_cap``.

    The search scans degrees upward and stops at the first bound it can
    certify:

    - a block that completes a basis :func:`is_coregular` certifies;
    - else, once the basis holds n generators, the hsop bound max(d_n, D)
      of the first n (:func:`_hsop_bound`), checked once against the
      Molien series;
    - else the cap.  The default cap, :func:`_default_cap`, is Noether's
      bound |G| for a cyclic group and ⌊3|G|/4⌋ (Domokos-Hegedűs) for any
      other, both sufficient for completeness.  A user cap replaces it; a
      lowered one yields the degree-truncated answer, and raises CapTooLow
      when it leaves no generator.

    One basis grows block by block, and the degree-d power
    products are read from its table.  At each degree the new generators
    are the reduced-echelon basis of the quotient (invariant space modulo
    products of lower generators), which pins the choice completely: the
    Z2 footnote basis comes out as (x^2, y^2, xy), the symmetric groups
    yield the elementary symmetric functions.  Within a degree, generators
    involving fewer coordinates are listed first, ties broken by leading
    monomial.  The generator image tables live for this call only.
    """
    top = _default_cap(rep) if degree_cap is None else degree_cap
    series = molien_series(rep, top)
    tables = _generator_images(rep)
    basis = IntegrityBasis(rep, (), ())
    certify = True
    d = 0
    while d < top:
        d += 1
        c_d = series.coefficient(d)
        if c_d == 0:
            continue
        monos, index = monomial_index(rep.dim, d)
        products = ra.RowReducer()
        for expo in jmonomials_of_xdegree(basis.degrees, d):
            products.add(coefficient_row(basis.image(expo), index))
        if products.rank > c_d:
            raise ArithmeticError("product span exceeds Molien count")
        if products.rank == c_d:
            continue
        reduced_rows, _ = ra.rref(
            (products.residual(v) for v in _invariant_space(rep, tables, monos, index)),
            len(monos),
        )
        if products.rank + len(reduced_rows) != c_d:
            raise CapTooLow(
                f"invariant space at degree {d} not exhausted (cap {top})"
            )
        basis.add_block(_listing_order([
            Polynomial(
                rep.dim, {monos[i]: c for i, c in enumerate(row) if c != 0}
            ).monic()
            for row in reduced_rows
        ]), d)
        if is_coregular(basis):
            break
        if certify and basis.k >= rep.dim:
            certify = False
            top = _certified_stop(basis, series, top)
    if not basis.polys:
        raise CapTooLow("the integrity basis has no generators below the degree cap")
    return basis


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


def _jacobian_determinant(polys) -> Polynomial:
    """det(d J_i / d x_j) of n polynomials in n variables, exactly, by the
    Leibniz expansion over the polynomial entries."""
    n = len(polys)
    jac = [p.gradient() for p in polys]
    det = Polynomial.zero(n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Polynomial.constant(n, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * jac[i][j]
        det = det + term
    return det


def is_coregular(basis: IntegrityBasis) -> bool:
    """True when the basis is certified to generate the invariant ring
    freely (Molien + Chevalley-Shephard-Todd; Sturmfels, *Algorithms in
    Invariant Theory* 2.2-2.4, Derksen-Kemper ch. 3).  Three checks:

    1. k = n generators;
    2. their Jacobian determinant is a nonzero polynomial, so they are
       algebraically independent and R[J] has Hilbert series 1/F(t),
       F(t) = prod_i (1 - t^{d_i});
    3. F(t) * Molien(t) == 1, so R[J], a subring of the invariant ring,
       has its dimension at every degree and is all of it.

    Check 3 compares the series through degree D + sum(d_i), where D is
    the sum of the degrees of the distinct q(t) = det(I - t T_g).  That is
    enough: with Q the product of the distinct q, Molien = N / (|G| Q) for
    a polynomial N of degree at most D, so F * Molien - 1 = R / (|G| Q)
    with R = F N - |G| Q of degree at most D + sum(d_i).  Since Q(0) = 1,
    R = |G| Q (F * Molien - 1) vanishes through that degree when the
    series does, hence R = 0 and the identity holds exactly.
    """
    rep = basis.rep
    if basis.k != rep.dim or _jacobian_determinant(basis.polys).is_zero():
        return False
    top = sum(len(q) - 1 for q, _ in _char_polys(rep)) + sum(basis.degrees)
    series = molien_series(rep, top).coefficients
    return _molien_numerator(series, basis.degrees) == [1] + [0] * top


# ------------------------------------------------------- basis re-expression


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
    """Exact Psi with Psi(J_1..J_k) == p, canonical representative.

    Raises NotInvariant when some generator moves ``p``.
    """
    if any(act(rep.elements[s], p) != p for s in rep.generators):
        raise NotInvariant("polynomial is moved by the group action")
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
    """Entry (i, h) is homogeneous of x-degree d_i + d_h - 2 and is
    re-expressed at that degree alone; the consistent solve certifies it
    lies in the algebra, so no invariance test is repeated."""
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
            degree = basis.degrees[i] + basis.degrees[h] - 2
            expr = Polynomial(k, express_homogeneous(basis, acc, degree), J_KIND)
            entries[i][h] = expr
            entries[h][i] = expr
    return PMatrix(basis, tuple(tuple(row) for row in entries), metric)
