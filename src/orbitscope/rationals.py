"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction, vectors are tuples of
Fraction.  One exact eliminator serves the package, :class:`RowReducer`,
fraction-free in Python ints (Bareiss, Math. Comp. 22 (1968)): ranks (a
group generator is singular when its rows have rank below the dimension),
residuals modulo a span, the J-space re-expression of invariants, and
:func:`rref`, which serves ``nullspace`` and ``mat_inverse``.  The
homological solves of ``reduction``, whose rows have ``Coefficient``
entries, divide instead, in a subclass there.

Everything here is deterministic: the pivot is always the first admissible
column, never chosen by magnitude, so repeated runs produce identical
output bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows) -> Mat:
    out = tuple(tuple(Fraction(e) for e in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def mat_identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise ValueError("shape mismatch")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(m)) for cb in bt) for ra in a
    )


def mat_vec(a: Mat, v: Vec) -> Vec:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_sub_identity(a: Mat) -> Mat:
    """a - I, used for fixed-space constraints."""
    n = len(a)
    return tuple(
        tuple(a[i][j] - (ONE if i == j else ZERO) for j in range(n)) for i in range(n)
    )


def mat_inverse(a: Mat) -> Mat:
    """Exact inverse from the RREF of [A | I]; raises ValueError when singular."""
    n = len(a)
    red, pivots = rref(tuple(r) + e for r, e in zip(a, mat_identity(n)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in red)


def rref(rows_in, ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns).

    Rows may be dense or sparse, over Fraction or int; ``ncols`` is the
    width of the dense output and defaults to the length of the first row.
    Zero rows are dropped, and no row is read once the rank is ``ncols``.
    Pivot columns come out strictly increasing, the first nonzero column of
    each surviving row.

    The rows go through a :class:`RowReducer`, and its integer pivot rows
    are back-substituted in integers; each output entry is one Fraction of
    two of their entries.  A row space has exactly one RREF, so the result
    is the one any exact elimination gives.
    """
    if ncols is None:
        rows_in = list(rows_in)
        ncols = len(rows_in[0]) if rows_in else 0
    reducer = RowReducer(ncols)
    for row in rows_in:
        reducer.add(row)
        if reducer.rank == ncols:
            break
    pivot_rows = reducer.pivot_rows
    pivots = sorted(pivot_rows)
    for i, col in reversed(list(enumerate(pivots))):
        row = pivot_rows[col]
        for later in pivots[i + 1:]:
            if later in row:
                row = _eliminate(row, pivot_rows[later], later)
        pivot_rows[col] = row
    red = []
    for col in pivots:
        row = pivot_rows[col]
        lead = row[col]
        dense = [ZERO] * ncols
        for v, x in row.items():
            dense[v] = Fraction(x, lead)
        red.append(dense)
    return red, pivots


def _integer_row(row) -> dict:
    """A row as ``{column: int}``, zeros left out: the row times the lcm of
    its denominators, over the gcd of the results; a right-hand side too."""
    row = sparse(row)
    rhs = row.pop(RHS, None)
    scale = math.lcm(*(x.denominator for x in row.values()))
    ints = {v: x.numerator * (scale // x.denominator) for v, x in row.items()}
    if rhs is not None:
        ints[RHS] = rhs * Fraction(scale)
    return _primitive(ints)


def _primitive(row: dict) -> dict:
    """An integer row over the gcd of its entries; a right-hand side is
    divided by the same gcd and never enters it."""
    rhs = row.pop(RHS, None)
    g = math.gcd(*row.values())
    if g > 1:
        row = {v: x // g for v, x in row.items()}
    if rhs is not None:
        row[RHS] = rhs / g if g > 1 else rhs
    return row


def _eliminate(row: dict, prow: dict, col: int) -> dict:
    """``row`` with its entry at ``col`` cleared by the pivot row ``prow``.

    When the pivot divides the entry, the integer quotient of ``prow`` is
    subtracted in place.  Otherwise both rows are cross-multiplied by the
    cofactors of their gcd, and the result is divided by its content."""
    a, p = row[col], prow[col]
    q, r = divmod(a, p)
    if not r:
        for v, x in prow.items():
            y = row.get(v, 0) - q * x
            if y:
                row[v] = y
            else:
                del row[v]
        return row
    g = math.gcd(a, p)
    a, p = a // g, p // g
    out = {v: p * x for v, x in row.items()}
    for v, x in prow.items():
        y = out.get(v, 0) - a * x
        if y:
            out[v] = y
        else:
            del out[v]
    return _primitive(out)


def nullspace(rows_in, ncols: int) -> list[Vec]:
    """Basis of the right null space, in the standard free-column form.

    Each basis vector has a 1 in one free column and zeros in the others,
    which makes the output canonical given the column order.
    """
    red, pivots = rref(rows_in, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


RHS = -1
"""Column key of a row's right-hand side: reduced along with the row, never a pivot."""


def sparse(row) -> dict:
    """A row as ``{column: entry}`` with the zeros left out; takes a dense
    sequence or a dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


class RowReducer:
    """The exact eliminator: an incremental echelon basis of sparse rows.

    Entries are int or Fraction; a right-hand side under the ``RHS`` key may
    also be a ``Coefficient``.  ``residual`` makes a row a primitive integer
    row and clears it against the pivot rows in insertion order, giving a
    nonzero rational multiple of the residual modulo the span; the
    right-hand side is scaled along and never pivoted on.  ``push`` keeps a
    residual as a pivot row, on its first ``admissible`` column (here any
    nonzero entry); ``solve`` back-substitutes, dividing once per unknown.
    """

    admissible = staticmethod(bool)

    def __init__(self, ncols: int | None = None):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict] = {}
        self.consistent = True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def residual(self, row) -> dict:
        n = self.ncols  # a dense row must have n entries, a sparse one columns below n
        if n is not None and (
            len(row) != n if not isinstance(row, dict)
            else row and (min(row) < RHS or max(row) >= n)
        ):
            raise ValueError("row width does not match the reducer")
        row = _integer_row(row)
        for col, prow in self.pivot_rows.items():
            if col in row:
                row = _eliminate(row, prow, col)
        return row

    def push(self, residual: dict) -> int | None:
        """Keep an already reduced row; returns its pivot column, or None
        when no column is admissible.  A residual left with only a
        right-hand side marks the system inconsistent."""
        admissible = (c for c in sorted(residual) if c != RHS and self.admissible(residual[c]))
        pivot = next(admissible, None)
        if pivot is None:
            if RHS in residual and len(residual) == 1:
                self.consistent = False
            return None
        self.pivot_rows[pivot] = residual
        return pivot

    def add(self, row) -> bool:
        """Reduce and keep a row; True when it enlarged the span."""
        return self.push(self.residual(row)) is not None

    def solve(self, known=None) -> dict:
        """Back-substitution over the pivot rows, latest first.

        Unknowns in ``known`` start at the given values, unless a pivot
        row solves for them; every other unknown without a pivot row is
        zero.  Zero values are left out.
        """
        values = {v: x for v, x in (known or {}).items() if x}
        for col in reversed(self.pivot_rows):
            row = self.pivot_rows[col]
            acc = row.get(RHS, ZERO)
            for v, c in row.items():
                if v in values and v != col:
                    acc = acc - c * values[v]
            if acc:
                values[col] = acc / row[col]
            else:
                values.pop(col, None)
        return values
