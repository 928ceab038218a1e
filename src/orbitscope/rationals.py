"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction, vectors are tuples of
Fraction.  Two exact eliminators serve the package.

:class:`RowReducer` is the incremental one: ranks (a group generator is
singular when its rows have rank below the dimension), residuals modulo a
span, the J-space re-expression of invariants and the homological solves
of the reduction layer.  It reduces each new sparse row against
unnormalized pivot rows in insertion order; normalizing would not change
a Fraction result, but ``Coefficient`` entries cancel only monomial
factors, so their printed form follows the dataflow.  It takes int rows
too, such as the products of the integer basis table: two ints divide to
a Fraction, never to a float.

:func:`rref`, which also serves ``nullspace`` and ``mat_inverse``, needs
no such dataflow: its rows are rational, and a row space has exactly one
reduced echelon form, so any exact route gives the same answer.  It
eliminates fraction-free in Python ints (Bareiss, Math. Comp. 22 (1968)):
each row is scaled to integers, a pivot that divides an entry clears it
by the integer quotient, and otherwise the two rows are cross-multiplied
and the result divided by its content.  Only the output entries are
Fractions, one per entry.

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

    The elimination is fraction-free, after Bareiss (Math. Comp. 22 (1968)):
    each row is scaled to integers, and each output entry is one Fraction
    of two of its entries.  A row space has exactly one RREF, so the result
    is the one any exact elimination gives.
    """
    if ncols is None:
        rows_in = list(rows_in)
        ncols = len(rows_in[0]) if rows_in else 0
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows_in:
        row = _integer_row(row)
        for col, prow in pivot_rows.items():
            if col in row:
                row = _eliminate(row, prow, col)
        if row:
            pivot_rows[min(row)] = row
            if len(pivot_rows) == ncols:
                break
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


def _integer_row(row) -> dict[int, int]:
    """A row as ``{column: int}``, zeros left out: the row times the lcm of
    its denominators, over the gcd of the results."""
    row = sparse(row)
    scale = math.lcm(*(x.denominator for x in row.values()))
    ints = {v: x.numerator * (scale // x.denominator) for v, x in row.items()}
    return _primitive(ints)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row over the gcd of its entries."""
    g = math.gcd(*row.values())
    return {v: x // g for v, x in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
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


def _divide(a, b):
    """a / b, exactly: two ints divide to a Fraction, not to a float."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def sparse(row) -> dict:
    """A row as ``{column: entry}`` with the zeros left out; takes a dense
    sequence or a dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


class RowReducer:
    """The exact eliminator: an incremental echelon basis of sparse rows.

    Entries are int, Fraction or ``Coefficient``.  ``residual`` reduces a
    row against the pivot rows in insertion order, ``factor = entry /
    pivot``, where two ints divide to a Fraction (:func:`_divide`);
    ``push`` keeps a residual as a new pivot row, pivoting on its first
    column whose entry passes ``admissible`` (default: nonzero).  Pivot rows
    stay unnormalized: ``Coefficient`` cancels only monomial factors, so its
    printed form follows the dataflow.  An entry under the ``RHS`` key is
    carried along and never pivoted on; ``solve`` back-substitutes.
    """

    def __init__(self, ncols: int | None = None, admissible=bool):
        self.ncols = ncols
        self.admissible = admissible
        self.pivot_rows: dict[int, dict] = {}
        self.consistent = True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def residual(self, row) -> dict:
        if not isinstance(row, dict) and self.ncols is not None and len(row) != self.ncols:
            raise ValueError("row width does not match the reducer")
        row = sparse(row)
        for col, prow in self.pivot_rows.items():
            c = row.get(col)
            if not c:
                continue
            factor = _divide(c, prow[col])
            for v, x in prow.items():
                if v == col:
                    del row[col]
                elif v in row:
                    row[v] = row[v] - factor * x
                else:
                    row[v] = -(factor * x)
        return sparse(row)

    def push(self, residual: dict) -> int | None:
        """Keep an already reduced row; returns its pivot column, or None
        when no column is admissible.  A residual left with only a
        right-hand side marks the system inconsistent."""
        pivot = next(
            (c for c in sorted(residual) if c != RHS and self.admissible(residual[c])),
            None,
        )
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
            acc = row.get(RHS)
            for v, c in row.items():
                if v in values and v != col:
                    term = c * values[v]
                    acc = -term if acc is None else acc - term
            if acc:
                values[col] = _divide(acc, row[col])
            else:
                values.pop(col, None)
        return values
