"""Finite matrix groups over exact rationals.

A group is represented concretely: the full element list (index 0 is the
identity), the Cayley table, and the inverse table, all built by breadth
first closure from a generating set.  Everything downstream (orbits,
isotropy, fixed spaces, subgroup enumeration) works on element indices so
exactness is never at risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import rationals as ra
from .errors import (
    DimensionMismatch,
    NonInvertibleGenerator,
    NotASubgroup,
    OrderCapExceeded,
    SubgroupCapExceeded,
)


@dataclass(frozen=True)
class GroupElement:
    """One group element: an exact invertible matrix."""

    matrix: ra.Mat

    @property
    def dim(self) -> int:
        return len(self.matrix)


class FiniteGroupRep:
    """Closed finite matrix group with multiplication tables.

    Attributes
    ----------
    dim : ambient dimension
    elements : list[GroupElement], identity at index 0
    cayley : cayley[i][j] = index of T_i @ T_j
    inverse : inverse[i] = index of T_i^{-1}
    name : optional label carried through reports
    memo : results that later layers derive from the group once and keep
        for its lifetime, by name
    """

    def __init__(self, dim, elements, cayley, inverse, name=None):
        self.dim = dim
        self.elements = list(elements)
        self.cayley = tuple(tuple(row) for row in cayley)
        self.inverse = tuple(inverse)
        self.name = name
        self._index = {e.matrix: i for i, e in enumerate(self.elements)}
        self.memo: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def matrix(self, i: int) -> ra.Mat:
        return self.elements[i].matrix

    def product(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def index_of(self, matrix: ra.Mat) -> int:
        try:
            return self._index[matrix]
        except KeyError:
            raise ValueError("matrix is not a group element") from None

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

    Breadth first: multiply known elements by generators until nothing new
    appears.  Raises OrderCapExceeded beyond ``max_order`` elements, which
    is the practical guard against generators of infinite order.
    """
    gens = [ra.mat(g) for g in generators]
    if not gens:
        raise NonInvertibleGenerator("need at least one generator")
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise DimensionMismatch("generators must be square and equal size")
        if ra.mat_det(g) == 0:
            raise NonInvertibleGenerator("generator matrix is singular")
    identity = ra.mat_identity(dim)
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gens:
                prod = ra.mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
                    if len(elements) > max_order:
                        raise OrderCapExceeded(
                            f"closure exceeded {max_order} elements"
                        )
        frontier = new_frontier
    index = {m: i for i, m in enumerate(elements)}
    n = len(elements)
    cayley = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cayley[i][j] = index[ra.mat_mul(elements[i], elements[j])]
    inverse = [0] * n
    for i in range(n):
        inverse[i] = cayley[i].index(0)
    return FiniteGroupRep(
        dim, [GroupElement(m) for m in elements], cayley, inverse, name=name
    )


def invariant_metric(rep: FiniteGroupRep) -> InvariantMetric:
    """eta = (1/|G|) sum_g T_g^T T_g, exactly invariant: T_g^T eta T_g = eta."""
    n = rep.dim
    total = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for e in rep.elements:
        t = e.matrix
        total = ra.mat_add(total, ra.mat_mul(ra.mat_transpose(t), t))
    eta = ra.mat_scale(total, Fraction(1, rep.order))
    return InvariantMetric(eta=eta, eta_inv=ra.mat_inverse(eta))


def orbit(rep: FiniteGroupRep, point) -> tuple[ra.Vec, ...]:
    """The set {T_g x}, deduplicated exactly, sorted for determinism."""
    x = ra.vec(point)
    if len(x) != rep.dim:
        raise DimensionMismatch("point dimension mismatch")
    pts = {ra.mat_vec(e.matrix, x) for e in rep.elements}
    return tuple(sorted(pts))


def isotropy_subgroup(rep: FiniteGroupRep, point) -> Subgroup:
    """Indices of all elements fixing the point exactly."""
    x = ra.vec(point)
    if len(x) != rep.dim:
        raise DimensionMismatch("point dimension mismatch")
    members = tuple(
        i for i, e in enumerate(rep.elements) if ra.mat_vec(e.matrix, x) == x
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


def _close_indices(rep: FiniteGroupRep, seed) -> tuple[int, ...]:
    members = set(seed) | {0}
    frontier = list(members)
    while frontier:
        nxt = []
        for i in frontier:
            for j in list(members):
                for k in (rep.cayley[i][j], rep.cayley[j][i]):
                    if k not in members:
                        members.add(k)
                        nxt.append(k)
        frontier = nxt
    return tuple(sorted(members))


def all_subgroups(rep: FiniteGroupRep, cap: int = 100000) -> list[Subgroup]:
    """Every subgroup, by closing joins of cyclic subgroups to a fixed point.

    Returns subgroups sorted by (order, members) for determinism.  The cap
    bounds the number of closure computations attempted.
    """
    found: set[tuple[int, ...]] = set()
    work = 0
    for g in range(rep.order):
        found.add(_cyclic_subgroup(rep, g))
        work += 1
        if work > cap:
            raise SubgroupCapExceeded(f"exceeded {cap} closure computations")
    changed = True
    while changed:
        changed = False
        current = sorted(found)
        for a in current:
            for b in current:
                if a >= b:
                    continue
                sa, sb = set(a), set(b)
                if sa <= sb or sb <= sa:
                    continue
                work += 1
                if work > cap:
                    raise SubgroupCapExceeded(
                        f"exceeded {cap} closure computations"
                    )
                join = _close_indices(rep, sa | sb)
                if join not in found:
                    found.add(join)
                    changed = True
    return [Subgroup(m) for m in sorted(found, key=lambda m: (len(m), m))]


def fixed_subspace(rep: FiniteGroupRep, sub: Subgroup) -> list[ra.Vec]:
    """Exact basis of Fix(H) = {x : T_h x = x for all h in H}.

    The basis comes from the canonical null space of the stacked
    (T_h - I) constraints, then is rescaled to integer entries with the
    first nonzero entry positive.
    """
    check_subgroup(rep, sub)
    constraints = []
    for h in sub.members:
        if h == 0:
            continue
        constraints.extend(ra.mat_sub_identity(rep.matrix(h)))
    if not constraints:
        return [
            tuple(
                Fraction(1) if j == i else Fraction(0) for j in range(rep.dim)
            )
            for i in range(rep.dim)
        ]
    basis = ra.nullspace(constraints, rep.dim)
    out = []
    for v in basis:
        denom_lcm = 1
        for q in v:
            if q != 0:
                denom_lcm = denom_lcm * q.denominator // _gcd(denom_lcm, q.denominator)
        scaled = [q * denom_lcm for q in v]
        num_gcd = 0
        for q in scaled:
            num_gcd = _gcd(num_gcd, abs(q.numerator))
        if num_gcd > 1:
            scaled = [q / num_gcd for q in scaled]
        lead = next((q for q in scaled if q != 0), Fraction(1))
        if lead < 0:
            scaled = [-q for q in scaled]
        out.append(tuple(scaled))
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
