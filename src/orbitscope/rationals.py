"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction, vectors are tuples of
Fraction.  Every exact elimination in the package goes through one
eliminator, :class:`RowReducer`: ranks, residuals modulo a span, ``rref``,
``nullspace``, ``mat_inverse``, the J-space re-expression of invariants and
the homological solves of the reduction layer.  It reduces each new sparse
row against unnormalized pivot rows in insertion order; normalizing would
not change a Fraction result, but ``Coefficient`` entries cancel only
monomial factors, so their printed form follows the dataflow.  Two
loops stay outside it: ``rref`` normalizes the reducer's pivot rows and
back-eliminates them itself, and ``mat_det`` runs its own forward
elimination, because it tracks the sign of row swaps.

Everything here is deterministic: the pivot is always the first admissible
column, never chosen by magnitude, so repeated runs produce identical
output bit for bit.
"""

from __future__ import annotations

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


def mat_det(a: Mat) -> Fraction:
    """Determinant by fraction Gaussian elimination (no pivoting by size)."""
    n = len(a)
    rows = [list(r) for r in a]
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = ONE / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def mat_inverse(a: Mat) -> Mat:
    """Exact inverse from the RREF of [A | I]; raises ValueError when singular."""
    n = len(a)
    red, pivots = rref(tuple(r) + e for r, e in zip(a, mat_identity(n)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in red)


def rref(rows_in, ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns).

    Rows may be dense or sparse; ``ncols`` is the width of the dense output
    and defaults to the length of the first row.  Zero rows are dropped.
    Pivot columns come out strictly increasing, the first nonzero column of
    each surviving row.
    """
    rows = list(rows_in)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reducer = RowReducer()
    for row in rows:
        reducer.add(row)
    pivots = sorted(reducer.pivot_rows)
    red: dict[int, dict] = {}
    for col in reversed(pivots):
        row = reducer.pivot_rows[col]
        inv = ONE / row[col]
        row = {v: x * inv for v, x in row.items()}
        for later, lrow in red.items():
            c = row.get(later)
            if c:
                for v, x in lrow.items():
                    row[v] = row.get(v, ZERO) - c * x
        red[col] = row
    return [[red[p].get(j, ZERO) for j in range(ncols)] for p in pivots], pivots


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

    Entries are Fraction or ``Coefficient``.  ``residual`` reduces a row
    against the pivot rows in insertion order, ``factor = entry / pivot``;
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
            factor = c / prow[col]
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
                values[col] = acc / row[col]
            else:
                values.pop(col, None)
        return values
