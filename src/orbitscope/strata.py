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

A type is realized, the isotropy of some point, exactly when no larger
subgroup has a fixed space of the same dimension; `isotropy_lattice`
reads that off the lattice order and the fixed-space dimensions, by set
containment alone.  Those dimensions are traces: (1/|H|) sum_h T_h is the
projector onto Fix(H), so dim Fix(H) = (1/|H|) sum_h tr T_h (Serre,
*Linear Representations of Finite Groups*, §2.3), exactly, from
integer traces.  A basis of a fixed space is built only for the rays that
`principal_critical_orbits` returns.

The types and their lattice are built in one pass over the conjugacy
classes `all_subgroups` returns, once per group: `isotropy_lattice` keeps
them in ``rep.memo["isotropy_lattice"]``, and every function here that
needs them reads them there.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rationals as ra
from .errors import NoUniqueMinimum
from .groups import FiniteGroupRep, Subgroup, all_subgroups, fixed_subspace


@dataclass(frozen=True)
class SymmetryType:
    """A conjugacy class of subgroups with its fixed-space data.

    fix_dim is dim Fix(representative), the mean trace of its members
    (see `isotropy_lattice`); no basis is kept.  realized says that some
    point has isotropy exactly the representative: no larger subgroup has
    a fixed space of the same dimension (the argument is in
    `isotropy_lattice`).
    """

    label: str
    representative: Subgroup
    conjugates: tuple[Subgroup, ...]
    fix_dim: int
    realized: bool

    @property
    def order(self) -> int:
        return self.representative.order

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


def symmetry_types(rep: FiniteGroupRep) -> tuple[SymmetryType, ...]:
    """Conjugacy classes of all subgroups, with fix dimensions and
    realized flags: the types of `isotropy_lattice`."""
    return isotropy_lattice(rep).types


def isotropy_lattice(rep: FiniteGroupRep) -> IsotropyLattice:
    """The types, their order and the principal type, from one pass over
    the conjugacy classes of `all_subgroups`.

    H is realized, the isotropy of some point, exactly when no subgroup
    K ⊋ H has dim Fix(K) = dim Fix(H).  Let P be the pointwise stabilizer
    of Fix(H); it contains H, and Fix(P) = Fix(H).  If P ≠ H, every point
    of Fix(H) is fixed by P, so none has isotropy H.  If P = H, each g
    outside H fixes only a proper subspace of Fix(H), and a vector space
    over an infinite field is not a finite union of proper subspaces, so
    some point of Fix(H) has isotropy H.  So H is realized exactly when
    P = H.  And P ≠ H exactly when such a K exists: P itself is one, and
    any such K has Fix(K) ⊆ Fix(H) of equal dimension, so
    Fix(K) = Fix(H) and H ⊊ K ⊆ P.  For Fix(H) = 0 this reads: H is
    realized (by the origin) exactly when H = G.

    Conjugate subgroups have fixed spaces of equal dimension, and
    H ⊊ xKx⁻¹ exactly when x⁻¹Hx ⊊ K.  So such a K exists exactly when
    [H] < [K] for a class [K] with the fix dimension of [H], and a class
    is realized exactly when it lies below no class of its own fix
    dimension.  The order itself is set containment of a conjugate in a
    representative, and no matrix is applied to a vector.

    dim Fix(H) is the trace of the projector (1/|H|) sum_h T_h onto
    Fix(H), so it is the sum of the members' traces over |H|, read from
    per-element traces kept in ``rep.memo["traces"]``.  A rational matrix
    of finite order has an integer trace (its eigenvalues are roots of
    unity, so the trace is an algebraic integer), and the sum is exact.

    Deterministic: the classes come in the order `all_subgroups` returns
    them and are labeled T0, T1, ... with orders ascending.  Computed once
    per group and kept in ``rep.memo["isotropy_lattice"]``.
    """
    cached = rep.memo.get("isotropy_lattice")
    if cached is not None:
        return cached
    classes = all_subgroups(rep)
    sets = [[frozenset(s.members) for s in cls] for cls in classes]
    # a strict subgroup has smaller order, so its class comes first
    pairs = frozenset(
        (i, j)
        for j, high in enumerate(sets)
        for i in range(j)
        if any(low < high[0] for low in sets[i])
    )
    traces = _traces(rep)
    dims = [sum(traces[h] for h in cls[0].members) // cls[0].order for cls in classes]
    types = tuple(
        SymmetryType(
            label=f"T{i}",
            representative=cls[0],
            conjugates=cls,
            fix_dim=dim,
            realized=not any(
                (i, j) in pairs and dims[j] == dim
                for j in range(i + 1, len(classes))
            ),
        )
        for i, (cls, dim) in enumerate(zip(classes, dims))
    )
    principal = _principal_index(types, pairs)
    cached = rep.memo["isotropy_lattice"] = IsotropyLattice(types, pairs, principal)
    return cached


def _traces(rep: FiniteGroupRep) -> tuple[int, ...]:
    """tr T_g for every element, as ints, once per group in its memo."""
    traces = rep.memo.get("traces")
    if traces is None:
        traces = rep.memo["traces"] = tuple(
            int(sum(t[i][i] for i in range(rep.dim))) for t in rep.elements
        )
    return traces


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
    """Ray families critical for every invariant potential on the sphere.

    Each ray's direction is the basis vector `fixed_subspace` returns for
    its type's representative.
    """
    rays = []
    for t in symmetry_types(rep):
        if not t.realized or t.fix_dim != 1:
            continue
        (direction,) = fixed_subspace(rep, t.representative)
        norm = float(sum(c * c for c in direction)) ** 0.5
        unit = tuple(float(c) / norm for c in direction)
        rays.append(RayFamily(symmetry=t, direction=direction, unit=unit))
    return tuple(rays)
