"""Symmetry types, the isotropy lattice, and critical-orbit families.

A symmetry type is a conjugacy class of subgroups; points sharing a type
form a stratum.  The lattice order [H] < [K] holds when some conjugate of
H is strictly contained in K; downward in that order means larger fixed
spaces and less symmetry.

For a finite group every orbit is a finite point set, so an orbit on the
unit sphere is isolated inside its stratum exactly when the stratum meets
the sphere in isolated points, i.e. when the fixed space of the isotropy
is a line.  The classical criterion (critical for every invariant
potential iff isolated in its stratum) then reduces to scanning realized
types with one-dimensional fixed space; those rays are returned as the
principal critical orbit families.

The types and their lattice are computed once per group:
`symmetry_types` and `isotropy_lattice` keep them in ``rep.memo``, and
every function here that needs them reads them there.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rationals as ra
from .errors import NoUniqueMinimum
from .groups import (
    FiniteGroupRep,
    Subgroup,
    all_subgroups,
    conjugate_subgroup,
    fixed_subspace,
)


@dataclass(frozen=True)
class SymmetryType:
    """A conjugacy class of subgroups with its fixed-space data.

    fix is the exact basis of Fix(representative) that `fixed_subspace`
    returns.
    """

    label: str
    representative: Subgroup
    conjugates: tuple[Subgroup, ...]
    fix: tuple[ra.Vec, ...]
    realized: bool

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def fix_dim(self) -> int:
        return len(self.fix)

    def contains_subgroup(self, sub: Subgroup) -> bool:
        return any(c.members == sub.members for c in self.conjugates)


@dataclass(frozen=True)
class IsotropyLattice:
    types: tuple[SymmetryType, ...]
    order_pairs: frozenset[tuple[int, int]]
    principal_index: int | None

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs of the order relation, for diagram output."""
        edges = []
        for (i, j) in sorted(self.order_pairs):
            if not any(
                (i, k) in self.order_pairs and (k, j) in self.order_pairs
                for k in range(len(self.types))
            ):
                edges.append((i, j))
        return edges


@dataclass(frozen=True)
class RayFamily:
    """A realized symmetry type whose fixed space is a line."""

    symmetry: SymmetryType
    direction: ra.Vec
    unit: tuple[float, ...]


def _is_realized(rep: FiniteGroupRep, sub: Subgroup, fix) -> bool:
    """Does some point have isotropy exactly this subgroup H?

    Exactly when the pointwise stabilizer K of Fix(H) (spanned by ``fix``)
    is H.  K contains H and fixes every point of Fix(H), so if K != H no
    point has isotropy H.  If K = H, each g outside H fixes only a proper
    subspace of Fix(H); a vector space over an infinite field is not a
    finite union of proper subspaces, so some point of Fix(H) is fixed by
    no such g, and its isotropy is H.  For Fix(H) = 0 this reads: H is
    realized (by the origin) exactly when H = G.
    """
    return (
        tuple(
            i
            for i, t in enumerate(rep.elements)
            if all(ra.mat_vec(t, b) == b for b in fix)
        )
        == sub.members
    )


def symmetry_types(rep: FiniteGroupRep) -> tuple[SymmetryType, ...]:
    """Conjugacy classes of all subgroups, with fixed spaces and realized flags.

    Deterministic: subgroups are enumerated in sorted order and classes are
    labeled T0, T1, ... with orders ascending.  Computed once per group and
    kept in ``rep.memo["symmetry_types"]``.
    """
    cached = rep.memo.get("symmetry_types")
    if cached is not None:
        return cached
    assigned: set[tuple[int, ...]] = set()
    types: list[SymmetryType] = []
    for sub in all_subgroups(rep):
        if sub.members in assigned:
            continue
        conj_members = sorted(
            {conjugate_subgroup(rep, sub, g).members for g in range(rep.order)}
        )
        assigned.update(conj_members)
        representative = Subgroup(conj_members[0])
        fix = fixed_subspace(rep, representative)
        types.append(
            SymmetryType(
                label=f"T{len(types)}",
                representative=representative,
                conjugates=tuple(Subgroup(m) for m in conj_members),
                fix=tuple(fix),
                realized=_is_realized(rep, representative, fix),
            )
        )
    cached = rep.memo["symmetry_types"] = tuple(types)
    return cached


def _class_strictly_below(t_low: SymmetryType, t_high: SymmetryType) -> bool:
    high = set(t_high.representative.members)
    for c in t_low.conjugates:
        mem = set(c.members)
        if mem < high:
            return True
    return False


def isotropy_lattice(rep: FiniteGroupRep) -> IsotropyLattice:
    """The types, their order and the principal type; kept in ``rep.memo``."""
    cached = rep.memo.get("isotropy_lattice")
    if cached is not None:
        return cached
    types = symmetry_types(rep)
    pairs = set()
    for i, ti in enumerate(types):
        for j, tj in enumerate(types):
            if i != j and _class_strictly_below(ti, tj):
                pairs.add((i, j))
    principal = _principal_index(types, pairs)
    cached = rep.memo["isotropy_lattice"] = IsotropyLattice(types, frozenset(pairs), principal)
    return cached


def _principal_index(types, pairs) -> int | None:
    realized = [i for i, t in enumerate(types) if t.realized]
    minimal = [
        i
        for i in realized
        if not any((j, i) in pairs for j in realized if j != i)
    ]
    return minimal[0] if len(minimal) == 1 else None


def principal_stratum(rep: FiniteGroupRep) -> SymmetryType:
    """The unique minimal realized type: the open dense stratum's type."""
    lattice = isotropy_lattice(rep)
    if lattice.principal_index is None:
        raise NoUniqueMinimum("no unique minimal realized symmetry type")
    return lattice.types[lattice.principal_index]


def principal_critical_orbits(rep: FiniteGroupRep) -> tuple[RayFamily, ...]:
    """Ray families critical for every invariant potential on the sphere."""
    rays = []
    for t in symmetry_types(rep):
        if not t.realized or t.fix_dim != 1:
            continue
        direction = t.fix[0]
        norm = float(sum(c * c for c in direction)) ** 0.5
        unit = tuple(float(c) / norm for c in direction)
        rays.append(RayFamily(symmetry=t, direction=direction, unit=unit))
    return tuple(rays)
