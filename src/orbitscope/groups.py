"""Finite matrix groups over exact rationals.

A group is represented concretely: the full list of exact element matrices
(index 0 is the identity), the Cayley table, the inverse table, and the
indices of the generators it was closed from.  ``close_generators``
builds them by permutation action.  The standard basis is closed under the
generators to a finite G-stable point set that spans R^n, so every element
acts faithfully as a permutation of it.  Elements are found breadth first
and identified by their base images, the images of the basis vectors.
Those images are the matrix's columns, so a product is ``dim`` tuple
reads and one dict lookup, and no exact matrix product is formed.
Everything downstream (orbits, isotropy, fixed spaces, subgroup
enumeration) works on element indices, so exactness is never at risk.
``all_subgroups`` finds the subgroup lattice by cyclic extension up to
conjugacy: one subgroup per conjugacy class is extended by every cyclic
subgroup outside it, and each new subgroup brings its whole class at once,
so the classes are returned as they are found.  The search stays complete
because conjugation carries a join to a join:
x<H, g>x^-1 = <xHx^-1, xgx^-1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    Elements are found breadth first as products m*g of known elements by
    generators and keyed by the images of the basis (the first ``dim``
    entries of the permutation p), which fix the matrix: its column j is
    the point ``pts[p[j]]``.  Each generator's permutation is recorded as
    the point closure computes its images.  Raises OrderCapExceeded beyond
    ``max_order`` elements, or once the point set passes ``dim * max_order``
    points (each basis orbit has at most |G| points), which is how a
    generator of infinite order is caught.
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
    pts = list(ra.mat_identity(dim))
    point_index = {p: i for i, p in enumerate(pts)}
    images: list[list[int]] = [[] for _ in gens]
    for p in pts:
        for g, image in zip(gens, images):
            q = ra.mat_vec(g, p)
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
    frontier = [identity]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gen_perms:
                key = tuple(m[g[j]] for j in range(dim))
                if key not in index:
                    index[key] = len(perms)
                    prod = tuple(m[k] for k in g)
                    perms.append(prod)
                    new_frontier.append(prod)
                    if len(perms) > max_order:
                        raise OrderCapExceeded(
                            f"closure exceeded {max_order} elements"
                        )
        frontier = new_frontier
    cayley = [
        [index[tuple(a[b[j]] for j in range(dim))] for b in perms] for a in perms
    ]
    inverse = [row.index(0) for row in cayley]
    elements = [tuple(zip(*(pts[p[j]] for j in range(dim)))) for p in perms]
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
    """g H g^{-1} as an index set."""
    ginv = rep.inverse[g]
    members = tuple(
        sorted(rep.cayley[rep.cayley[g][h]][ginv] for h in sub.members)
    )
    return Subgroup(members)


def _cyclic_subgroup(rep: FiniteGroupRep, g: int) -> tuple[int, ...]:
    members = [0]
    cur = g
    while cur != 0:
        members.append(cur)
        cur = rep.cayley[cur][g]
    return tuple(sorted(members))


def _join(cayley, inside: set[int], gens: tuple[int, ...]) -> set[int]:
    """<H, g> as a set, for a subgroup H (``inside``) generated by all but
    the last of ``gens`` and g the last: H's members closed under right
    multiplication by every generator.  A finite group's inverses are
    positive powers, so the products of generators are the whole join.
    """
    g = gens[-1]
    closed = set(inside)
    frontier = []
    for h in inside:
        k = cayley[h][g]
        if k not in closed:
            closed.add(k)
            frontier.append(k)
    while frontier:
        nxt = []
        for m in frontier:
            row = cayley[m]
            for s in gens:
                k = row[s]
                if k not in closed:
                    closed.add(k)
                    nxt.append(k)
        frontier = nxt
    return closed


def all_subgroups(rep: FiniteGroupRep, cap: int = 100000) -> list[tuple[Subgroup, ...]]:
    """Every subgroup, by cyclic extension up to conjugacy (Neubüser, 1960).

    Starting from the trivial group, one representative H of each
    conjugacy class is extended by every cyclic subgroup <g> not inside
    H: <H, g> is closed from H under right multiplication by H's stored
    generators and g.  When a join K is new, all its conjugates xKx^-1
    (``conjugate_subgroup``) join the found set at once, and only K is
    queued, with its generators.

    The search is complete.  Every subgroup <g1, ..., gk> is the end of
    the chain of its partial joins, each the join of the one before with a
    cyclic subgroup.  Suppose the class of H is found, and K = <H, g>.
    Its queued representative is H' = xHx^-1 for some x, and H' is
    extended by the cyclic subgroup <xgx^-1>, which lies outside H' when g
    lies outside H.  That join is <xHx^-1, xgx^-1> = xKx^-1, and its class
    is K's, so K is found.  By induction along the chain every subgroup
    is found.

    Returns the conjugacy classes, each a tuple of its subgroups sorted by
    members, and the classes sorted by (order, first members), for
    determinism.  The cap bounds the number of closure computations
    attempted.
    """
    cyclic: dict[tuple[int, ...], int] = {}
    for g in range(1, rep.order):
        cyclic.setdefault(_cyclic_subgroup(rep, g), g)
    cayley = rep.cayley
    found: set[tuple[int, ...]] = {(0,)}
    classes = [[(0,)]]
    queue: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), ())]
    work = 0
    for members, gens in queue:
        inside = set(members)
        for g in cyclic.values():
            if g in inside:
                continue
            work += 1
            if work > cap:
                raise SubgroupCapExceeded(f"exceeded {cap} closure computations")
            ext_gens = gens + (g,)
            key = tuple(sorted(_join(cayley, inside, ext_gens)))
            if key not in found:
                sub = Subgroup(key)
                conj = {conjugate_subgroup(rep, sub, x).members for x in range(rep.order)}
                found.update(conj)
                classes.append(sorted(conj))
                queue.append((key, ext_gens))
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    return [tuple(map(Subgroup, c)) for c in classes]


def fixed_subspace(rep: FiniteGroupRep, sub: Subgroup) -> list[ra.Vec]:
    """Exact basis of Fix(H) = {x : T_h x = x for all h in H}.

    The rows come from a generating set of H, not from all its members:
    going through the members in order, a member is a generator when it
    lies outside the subgroup the earlier generators span, which is closed
    on the Cayley table.  Fix(H) is the intersection of the generators'
    fixed spaces, so the stacked (T_s - I) rows span the same row space as
    all |H| blocks would; its RREF, and so the canonical null space, are
    the same.  That basis is then rescaled to integer entries with the
    first nonzero entry positive.
    """
    check_subgroup(rep, sub)
    gens: tuple[int, ...] = ()
    span = {0}
    for h in sub.members:
        if h not in span:
            gens += (h,)
            span = _join(rep.cayley, span, gens)
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
