"""Finite matrix groups over exact rationals.

A group is represented concretely: the full list of exact element matrices
(index 0 is the identity), the Cayley table, the inverse table, and the
indices of the generators it was closed from.  ``close_generators``
builds them by permutation action.  The standard basis is closed under the
generators to a finite G-stable point set that spans R^n, so every element
acts faithfully as a permutation of it.  The points are kept in integers,
each an integer vector over a positive denominator, so an image is one
integer mat-vec and one gcd.  Elements are found breadth first and
identified by their base images, the images of the basis vectors.
Those images are the matrix's columns, so a product is ``dim`` tuple
reads and one dict lookup, and no exact matrix product is formed.  The
Cayley table is built by rows: the row of m*g is the row of m read
through the row of the generator g, so only the generators' rows are
looked up.  Everything downstream (orbits, isotropy, fixed spaces,
subgroup enumeration) works on element indices, so exactness is never at
risk.  ``all_subgroups`` finds the subgroup lattice by cyclic extension
up to conjugacy: one subgroup per conjugacy class is extended by one
cyclic subgroup of each orbit of its normalizer on the cyclic subgroups
outside it, and each new subgroup brings its whole class at once, so the
classes are returned as they are found.  A class is the orbit of its new
subgroup under conjugation by the generators, and the normalizer is closed
from the Schreier generators of that orbit.  The search stays complete
because conjugation carries a join to a join:
x<H, g>x^-1 = <xHx^-1, xgx^-1>, and for x in the normalizer N_G(H) that
is <H, xgx^-1>, so every cyclic subgroup of one orbit gives a join in the
same class.  A join is closed by right cosets of H: <H, g> is a union of
cosets Hr, and Hr*s = H(rs), so each new representative r brings its
whole coset at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from fractions import Fraction

import numpy as np

from . import rationals as ra
from .errors import (
    DimensionMismatch,
    NonInvertibleGenerator,
    NotASubgroup,
    OrderCapExceeded,
    SubgroupCapExceeded,
)


class FiniteGroupRep:
    """Closed finite matrix group with multiplication tables.

    Attributes
    ----------
    dim : ambient dimension
    elements : list of exact matrices T_i, identity at index 0
    cayley : cayley[i][j] = index of T_i @ T_j
    inverse : inverse[i] = index of T_i^{-1}
    generators : indices of the distinct non-identity spec generators, in
        spec order; a polynomial or point they fix is fixed by the group
    name : optional label carried through reports
    memo : results that later layers derive from the group once and keep
        for its lifetime, by name
    """

    def __init__(self, dim, elements, cayley, inverse, generators, name=None):
        self.dim = dim
        self.elements = list(elements)
        self.cayley = tuple(tuple(row) for row in cayley)
        self.inverse = tuple(inverse)
        self.generators = tuple(generators)
        self.name = name
        self.memo: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteGroupRep{label} order={self.order} dim={self.dim}>"


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as a sorted tuple of element indices into a parent rep."""

    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class InvariantMetric:
    """Group averaged symmetric bilinear form and its exact inverse."""

    eta: ra.Mat
    eta_inv: ra.Mat


def close_generators(generators, max_order: int = 10000, name=None) -> FiniteGroupRep:
    """Close a generating set of exact matrices into a FiniteGroupRep.

    The standard basis is first closed under the generators to a finite
    G-stable point set; every generator then acts as a permutation of it.
    The closure runs in integers: with L the lcm of a generator's
    denominators, L T_g is an integer matrix, and each point is keyed as
    (v, d), the integer vector v over the positive denominator d with
    gcd(v, d) = 1, so an image is one integer mat-vec and one ``math.gcd``.
    Elements are found breadth first as products m*g of known elements by
    generators and keyed by the images of the basis (the first ``dim``
    entries of the permutation p), which fix the matrix: its column j is
    the point ``pts[p[j]]``, made a Fraction column once per point.  The
    Cayley table is built by rows: (m*g)*x = m*(g*x), so the row of m*g is
    the row of m read through the row of g, and only the generators' rows
    are looked up by key.  Raises OrderCapExceeded beyond ``max_order``
    elements, or once the point set passes ``dim * max_order`` points (each
    basis orbit has at most |G| points), which is how a generator of
    infinite order is caught.
    """
    gens = [ra.mat(g) for g in generators]
    if not gens:
        raise NonInvertibleGenerator("need at least one generator")
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise DimensionMismatch("generators must be square and equal size")
        reducer = ra.RowReducer(dim)
        for row in g:
            reducer.add(row)
        if reducer.rank < dim:
            raise NonInvertibleGenerator("generator matrix is singular")
    scaled = []
    for g in gens:
        scale = math.lcm(*(q.denominator for row in g for q in row))
        scaled.append(
            (scale, [[q.numerator * (scale // q.denominator) for q in row] for row in g])
        )
    pts = [(tuple(int(i == j) for i in range(dim)), 1) for j in range(dim)]
    point_index = {p: i for i, p in enumerate(pts)}
    images: list[list[int]] = [[] for _ in gens]
    for v, d in pts:
        for (scale, a), image in zip(scaled, images):
            w = [sum(x * y for x, y in zip(row, v)) for row in a]
            c = math.gcd(scale * d, *w)
            q = (tuple(x // c for x in w), scale * d // c)
            if q not in point_index:
                point_index[q] = len(pts)
                pts.append(q)
                if len(pts) > dim * max_order:
                    raise OrderCapExceeded(
                        f"closure exceeded {max_order} elements: the basis "
                        f"orbits passed {dim * max_order} points"
                    )
            image.append(point_index[q])
    gen_perms = [tuple(image) for image in images]
    identity = tuple(range(len(pts)))
    perms = [identity]
    index = {identity[:dim]: 0}
    # element k > 0 is parents[k - 1] = (m, s): element m times generator s
    parents: list[tuple[int, int]] = []
    frontier = [0]
    while frontier:
        new_frontier = []
        for mi in frontier:
            m = perms[mi]
            for s, g in enumerate(gen_perms):
                key = tuple(m[g[j]] for j in range(dim))
                if key not in index:
                    index[key] = len(perms)
                    new_frontier.append(len(perms))
                    perms.append(tuple(m[k] for k in g))
                    parents.append((mi, s))
                    if len(perms) > max_order:
                        raise OrderCapExceeded(
                            f"closure exceeded {max_order} elements"
                        )
        frontier = new_frontier
    gen_rows = [
        [index[tuple(g[b[j]] for j in range(dim))] for b in perms] for g in gen_perms
    ]
    cayley = [list(range(len(perms)))]
    for m, s in parents:
        row = cayley[m]
        cayley.append([row[x] for x in gen_rows[s]])
    inverse = [row.index(0) for row in cayley]
    cols = [tuple(Fraction(x, d) for x in v) for v, d in pts]
    elements = [tuple(zip(*(cols[p[j]] for j in range(dim)))) for p in perms]
    gen_index = dict.fromkeys(index[g[:dim]] for g in gen_perms)
    gen_index.pop(0, None)
    return FiniteGroupRep(dim, elements, cayley, inverse, gen_index, name=name)


def invariant_metric(rep: FiniteGroupRep) -> InvariantMetric:
    """eta = (1/|G|) sum_g T_g^T T_g, exactly invariant: T_g^T eta T_g = eta.

    The sum runs in integers: with L the lcm of the denominators of every
    entry of every element, A_g = L T_g is an integer matrix, and eta's
    entry (a, b) is the sum over g of the dot product of A_g's columns a
    and b, divided by L^2 |G|.  The sums run over the upper triangle only.
    """
    n = rep.dim
    scale = math.lcm(*(q.denominator for t in rep.elements for row in t for q in row))
    total = [[0] * n for _ in range(n)]
    for t in rep.elements:
        a_g = [[q.numerator * (scale // q.denominator) for q in row] for row in t]
        cols = tuple(zip(*a_g))
        for a in range(n):
            col_a, row = cols[a], total[a]
            for b in range(a, n):
                row[b] += sum(x * y for x, y in zip(col_a, cols[b]))
    divisor = scale * scale * rep.order
    eta = tuple(
        tuple(Fraction(total[min(a, b)][max(a, b)], divisor) for b in range(n))
        for a in range(n)
    )
    return InvariantMetric(eta=eta, eta_inv=ra.mat_inverse(eta))


def float_group(rep: FiniteGroupRep) -> list[np.ndarray]:
    """Float copies of the element matrices, converted once per rep and
    kept in its memo."""
    mats = rep.memo.get("float_group")
    if mats is None:
        mats = rep.memo["float_group"] = [
            np.array([[float(c) for c in row] for row in t]) for t in rep.elements
        ]
    return mats


def isotropy_subgroup(rep: FiniteGroupRep, point) -> Subgroup:
    """Indices of all elements fixing the point exactly."""
    x = ra.vec(point)
    if len(x) != rep.dim:
        raise DimensionMismatch("point dimension mismatch")
    members = tuple(
        i for i, t in enumerate(rep.elements) if ra.mat_vec(t, x) == x
    )
    return Subgroup(members)


def check_subgroup(rep: FiniteGroupRep, sub: Subgroup) -> None:
    """Raise NotASubgroup unless the index set is closed with inverses."""
    members = sub.member_set()
    if 0 not in members:
        raise NotASubgroup("identity missing")
    for i in sub.members:
        if rep.inverse[i] not in members:
            raise NotASubgroup(f"inverse of element {i} missing")
        for j in sub.members:
            if rep.cayley[i][j] not in members:
                raise NotASubgroup(f"product {i}*{j} escapes the set")


def conjugate_subgroup(rep: FiniteGroupRep, sub: Subgroup, g: int) -> Subgroup:
    """g H g^{-1} as an index set.

    The products g h are read from g's row of the Cayley table and their
    products with g^{-1} from g^{-1}'s column; the columns are built once
    per rep and kept in its memo.
    """
    if sub.order == 1:
        # the trivial group is its own conjugate; itemgetter of a single
        # index would return an element, not a tuple
        return sub
    left = itemgetter(*sub.members)(rep.cayley[g])
    return Subgroup(tuple(sorted(itemgetter(*left)(_columns(rep)[rep.inverse[g]]))))


def _columns(rep: FiniteGroupRep) -> tuple[tuple[int, ...], ...]:
    """The columns of the Cayley table: column t lists h*t for every h.
    Built once per rep and kept in its memo."""
    columns = rep.memo.get("cayley_columns")
    if columns is None:
        columns = rep.memo["cayley_columns"] = tuple(zip(*rep.cayley))
    return columns


def _cyclic_subgroup(rep: FiniteGroupRep, g: int) -> tuple[int, ...]:
    members = [0]
    cur = g
    while cur != 0:
        members.append(cur)
        cur = rep.cayley[cur][g]
    return tuple(sorted(members))


def _join(rep: FiniteGroupRep, inside: set[int], gens: tuple[int, ...]) -> set[int]:
    """<H, g> as a set, for a subgroup H (``inside``) generated by all but
    the last of ``gens`` and g the last, closed by right cosets (Dimino's
    method; Butler, *Fundamental Algorithms for Permutation Groups*, LNCS
    559, 1991).  The join is a union of right cosets Hr, and Hr*s = H(rs),
    so the coset representatives are closed under right multiplication by
    the generators, and each new representative r brings its whole coset
    Hr at once.  A finite group's inverses are positive powers, so the
    products of generators are the whole join.
    """
    cayley, columns = rep.cayley, _columns(rep)
    closed = set(inside)
    reps = [0]
    for r in reps:
        row = cayley[r]
        for s in gens:
            t = row[s]
            if t not in closed:
                closed.update(map(columns[t].__getitem__, inside))
                reps.append(t)
    return closed


def _class_and_normalizer(
    rep: FiniteGroupRep, members: tuple[int, ...], gens: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The conjugacy class of K = <gens> (``members``, sorted) and its
    normalizer N_G(K), each sorted.

    The class is the orbit of K under conjugation by ``rep.generators``,
    found breadth first, and each conjugate c keeps a transversal element
    t_c with t_c K t_c^-1 = c.  Every edge c -> d = s c s^-1 that does not
    add d to the orbit gives a Schreier generator t_d^-1 s t_c, which maps
    K to K, and by Schreier's lemma these generate N_G(K) (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, §4.1).  They
    are closed by cosets from K (``_join``), one at a time, so each join
    extends a subgroup generated by all its generators but the last, and
    the closure stops once |N| = |G|/|class|, the order that
    orbit–stabilizer gives.  That is |class|·|generators| conjugations,
    not |G|.
    """
    cayley, inverse = rep.cayley, rep.inverse
    transversal = {members: 0}
    orbit = [members]
    schreier = []
    for c in orbit:
        t, sub = transversal[c], Subgroup(c)
        for s in rep.generators:
            d = conjugate_subgroup(rep, sub, s).members
            st = cayley[s][t]
            if d in transversal:
                schreier.append(cayley[inverse[transversal[d]]][st])
            else:
                transversal[d] = st
                orbit.append(d)
    order = rep.order // len(orbit)
    normalizer = set(members)
    for x in schreier:
        if len(normalizer) == order:
            break
        if x not in normalizer:
            gens += (x,)
            normalizer = _join(rep, normalizer, gens)
    return sorted(orbit), sorted(normalizer)


def all_subgroups(rep: FiniteGroupRep, cap: int = 100000) -> list[tuple[Subgroup, ...]]:
    """Every subgroup, by cyclic extension up to conjugacy (Neubüser, 1960).

    Starting from the trivial group, one representative H of each
    conjugacy class is extended by one cyclic subgroup <g> of each orbit
    of its normalizer N_G(H) on the cyclic subgroups not inside H.  The
    join <H, g> is closed from H by right cosets (``_join``), over H's
    stored generators and g.  When a join K is new, its whole class joins
    the found set at once, and K is queued with its generators and its
    normalizer (``_class_and_normalizer``): the class is the orbit of K
    under conjugation by the generators of G, and the normalizer is closed
    from the orbit's Schreier generators, stopping at the order |G|/|class|
    that orbit–stabilizer gives.

    The search is complete.  Every subgroup <g1, ..., gk> is the end of
    the chain of its partial joins, each the join of the one before with a
    cyclic subgroup.  Suppose the class of H is found, and K = <H, g>.
    Its queued representative is H' = xHx^-1 for some x, and the cyclic
    subgroup <xgx^-1> lies outside H' when g lies outside H.  That join is
    <xHx^-1, xgx^-1> = xKx^-1, and its class is K's.  H' is extended by
    one subgroup <c> = n<xgx^-1>n^-1 of that cyclic subgroup's orbit, with
    n in N_G(H'), and since nH'n^-1 = H', <H', c> = n<H', xgx^-1>n^-1 =
    nxKx^-1n^-1, again in K's class, so K is found.  By induction along
    the chain every subgroup is found.

    Returns the conjugacy classes, each a tuple of its subgroups sorted by
    members, and the classes sorted by (order, first members), for
    determinism.  The cap bounds the number of joins attempted.
    """
    cyclic: dict[tuple[int, ...], int] = {}
    # each element's cyclic subgroup, named by its first generator
    cyclic_of = [0] * rep.order
    for g in range(1, rep.order):
        cyclic_of[g] = cyclic.setdefault(_cyclic_subgroup(rep, g), g)
    cayley, inverse = rep.cayley, rep.inverse
    found: set[tuple[int, ...]] = {(0,)}
    classes = [[(0,)]]
    queue = [((0,), (), range(rep.order))]
    work = 0
    for members, gens, normalizer in queue:
        inside = set(members)
        seen: set[int] = set()
        for g in cyclic.values():
            if g in inside or g in seen:
                continue
            seen.update([cyclic_of[cayley[cayley[n][g]][inverse[n]]] for n in normalizer])
            work += 1
            if work > cap:
                raise SubgroupCapExceeded(f"exceeded {cap} closure computations")
            ext_gens = gens + (g,)
            key = tuple(sorted(_join(rep, inside, ext_gens)))
            if key not in found:
                conjugates, key_normalizer = _class_and_normalizer(rep, key, ext_gens)
                found.update(conjugates)
                classes.append(conjugates)
                queue.append((key, ext_gens, key_normalizer))
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    return [tuple(map(Subgroup, c)) for c in classes]


def fixed_subspace(rep: FiniteGroupRep, sub: Subgroup) -> list[ra.Vec]:
    """Exact basis of Fix(H) = {x : T_h x = x for all h in H}.

    The rows come from a generating set of H, not from all its members:
    going through the members in order, a member is a generator when it
    lies outside the subgroup the earlier generators span, which is closed
    by right cosets on the Cayley table (``_join``).  Fix(H) is the
    intersection of the generators' fixed spaces, so the stacked (T_s - I)
    rows span the same row space as all |H| blocks would; its RREF, and so
    the canonical null space, are the same.  That basis is then rescaled to integer entries with the
    first nonzero entry positive.
    """
    check_subgroup(rep, sub)
    gens: tuple[int, ...] = ()
    span = {0}
    for h in sub.members:
        if h not in span:
            gens += (h,)
            span = _join(rep, span, gens)
    constraints = [row for s in gens for row in ra.mat_sub_identity(rep.elements[s])]
    if not constraints:
        return [
            tuple(
                Fraction(1) if j == i else Fraction(0) for j in range(rep.dim)
            )
            for i in range(rep.dim)
        ]
    out = []
    for v in ra.nullspace(constraints, rep.dim):
        row = ra._integer_row(v)
        sign = -1 if row[min(row)] < 0 else 1
        out.append(tuple(Fraction(sign * row.get(j, 0)) for j in range(rep.dim)))
    return out
