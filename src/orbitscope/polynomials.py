"""Exact sparse multivariate polynomials.

A polynomial is a dict from exponent tuples to nonzero coefficients,
tagged with a variable kind so that ambient-space ("x") and orbit-space
("J") objects cannot be mixed by accident.  Coefficients are Fractions
(plain numbers are coerced) or any other exact field element that supports
+ - * /, equality and truth as "nonzero"; the other one in use is
``params.Coefficient``, a rational function of named model parameters,
which also answers ``parameters()`` and ``evaluate(assignment)``.  This
module only duck-types it.  Sums accumulate as ``s + c`` onto what is
already there, in dict order, never onto a seeded zero: for ``Coefficient``
the order of operations fixes the printed form, so it is kept stable.

The canonical term order used everywhere (printing, pivoting, greedy basis
selection) is graded lexicographic, highest first: terms compare by total
degree, then lexicographically on the exponent tuple.  For two variables
this orders degree-2 monomials as x1^2, x1 x2, x2^2.

Text serialization is a sum of ``c * x1^a1 x2^a2`` terms in canonical
order and round-trips exactly through :func:`parse_polynomial`.

:func:`reynolds`, the average over every group element, has no caller in
the library (``invariants`` works from the generators); it is the tests'
independent oracle.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np

from .errors import KindMismatch, PolynomialParseError

X_KIND = "x"
J_KIND = "J"

Monomial = tuple[int, ...]


def mono_degree(m: Monomial, weights=None) -> int:
    """Total degree, or the weighted degree sum e_i * w_i."""
    if weights is None:
        return sum(m)
    return sum(e * w for e, w in zip(m, weights))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_key(m: Monomial):
    """Sort key for the canonical (graded lexicographic) order."""
    return (sum(m), m)


def mono_text(m: Monomial, kind: str = X_KIND, pretty: bool = False) -> str:
    """The factors of a monomial, empty for the constant one: ``x1^2 x2^1``,
    or ``x1^2*x2`` when pretty."""
    if pretty:
        return "*".join(
            f"{kind}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
        )
    return " ".join(f"{kind}{i + 1}^{e}" for i, e in enumerate(m) if e)


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, canonical order."""
    out: list[Monomial] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec((), degree, nvars)
    return out


def _exact(c):
    """Plain numbers become Fractions; other coefficients pass through."""
    if type(c) is not Fraction and isinstance(c, numbers.Number):
        return Fraction(c)
    return c


def _accumulate(acc: dict, terms) -> None:
    """acc += terms in place; a coefficient that cancels leaves acc."""
    for m, c in terms.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s:
                acc[m] = s
            else:
                del acc[m]


class Polynomial:
    """Sparse exact polynomial.

    Parameters
    ----------
    nvars : int
        Number of variables.
    terms : mapping
        Exponent tuple -> coefficient; zero coefficients are dropped and
        plain numbers are coerced to Fraction.
    kind : str
        Variable kind marker, ``"x"`` or ``"J"``.
    """

    __slots__ = ("nvars", "kind", "terms")

    def __init__(self, nvars: int, terms=None, kind: str = X_KIND):
        self.nvars = int(nvars)
        self.kind = kind
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    if len(m) != self.nvars:
                        raise ValueError("exponent tuple length mismatch")
                    clean[tuple(int(e) for e in m)] = c
        self.terms = clean

    @classmethod
    def _new(cls, nvars: int, terms: dict, kind: str) -> "Polynomial":
        """Arithmetic results: well-formed terms, zeros still to drop."""
        p = cls.__new__(cls)
        p.nvars, p.kind = nvars, kind
        p.terms = {m: c for m, c in terms.items() if c}
        return p

    # ------------------------------------------------------------ factories

    @classmethod
    def zero(cls, nvars: int, kind: str = X_KIND) -> "Polynomial":
        return cls(nvars, {}, kind)

    @classmethod
    def constant(cls, nvars: int, value, kind: str = X_KIND) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value}, kind)

    @classmethod
    def variable(cls, index: int, nvars: int, kind: str = X_KIND) -> "Polynomial":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)}, kind)

    @classmethod
    def monomial(cls, expo: Monomial, coeff, kind: str = X_KIND) -> "Polynomial":
        return cls(len(expo), {tuple(expo): coeff}, kind)

    # ------------------------------------------------------------ predicates

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, weights=None) -> int:
        """Total (or weighted) degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(mono_degree(m, weights) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_parts(self, weights=None) -> dict[int, "Polynomial"]:
        """Nonzero parts by total (or weighted) degree, ascending."""
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            parts.setdefault(mono_degree(m, weights), {})[m] = c
        return {
            d: Polynomial._new(self.nvars, t, self.kind) for d, t in sorted(parts.items())
        }

    def truncate(self, max_degree: int, weights=None) -> "Polynomial":
        """The terms of (weighted) degree at most max_degree."""
        return Polynomial._new(
            self.nvars,
            {m: c for m, c in self.terms.items() if mono_degree(m, weights) <= max_degree},
            self.kind,
        )

    def parameters(self) -> set[str]:
        """Names of the model parameters the coefficients depend on."""
        names: set[str] = set()
        for c in self.terms.values():
            if not isinstance(c, Fraction):
                names |= c.parameters()
        return names

    def evaluate_params(self, assignment) -> "Polynomial":
        """Pin every parameter to an exact rational value."""
        return Polynomial(
            self.nvars,
            {
                m: c if isinstance(c, Fraction) else c.evaluate(assignment)
                for m, c in self.terms.items()
            },
            self.kind,
        )

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0]), reverse=True)

    def leading_term(self) -> tuple[Monomial, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def monic(self) -> "Polynomial":
        """Divide by the leading coefficient (canonical normalization)."""
        if not self.terms:
            return self
        _, c = self.leading_term()
        return self.scale(Fraction(1) / c)

    # ------------------------------------------------------------ arithmetic

    def _check_kind(self, other: "Polynomial"):
        if self.kind != other.kind or self.nvars != other.nvars:
            raise KindMismatch(
                f"cannot combine {self.kind}[{self.nvars}] with "
                f"{other.kind}[{other.nvars}]"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.kind)
        self._check_kind(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return Polynomial._new(self.nvars, terms, self.kind)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._new(
            self.nvars, {m: -c for m, c in self.terms.items()}, self.kind
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.kind)
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        return Polynomial._new(
            self.nvars, {m: v * c for m, v in self.terms.items()}, self.kind
        )

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_kind(other)
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                prod = ca * cb
                s = terms.get(m)
                terms[m] = prod if s is None else s + prod
        return Polynomial._new(self.nvars, terms, self.kind)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1, self.kind)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.kind == other.kind
            and self.terms == other.terms
        )

    __hash__ = None

    # --------------------------------------------------------------- calculus

    def partial(self, index: int) -> "Polynomial":
        # m -> m - e_index is injective, so no two terms meet
        terms = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                terms[m[:index] + (e - 1,) + m[index + 1 :]] = c * e
        return Polynomial._new(self.nvars, terms, self.kind)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.nvars)]

    # ------------------------------------------------------------- evaluation

    def evaluate(self, point):
        """Evaluate at a point.

        Fraction/int input stays exact; any float input switches to float
        arithmetic.
        """
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        exact = all(not isinstance(x, float) for x in point)
        if exact:
            total = Fraction(0)
            for m, c in self.terms.items():
                v = c
                for x, e in zip(point, m):
                    if e:
                        v *= Fraction(x) ** e
                total += v
            return total
        total = 0.0
        for m, c in self.terms.items():
            v = float(c)
            for x, e in zip(point, m):
                if e:
                    v *= float(x) ** e
            total += v
        return total

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    # ---------------------------------------------------------- serialization

    def to_text(self, bracketed: bool = False) -> str:
        """Canonical text form; round-trips through parse_polynomial.

        ``bracketed`` writes ``(c) * x1^2`` instead, with ``1`` for the
        constant monomial, so that a parameter-valued coefficient such as
        ``a1 - 2*a2`` reads as one factor.
        """
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            factors = mono_text(m, self.kind)
            if bracketed:
                pieces.append(f"({c}) * {factors or '1'}")
            else:
                pieces.append(f"{c} * {factors}" if factors else f"{c}")
        return " + ".join(pieces)

    def pretty(self) -> str:
        """Human-oriented rendering with signs and implicit exponents."""
        if not self.terms:
            return "0"
        out = []
        for m, c in self.sorted_terms():
            factors = mono_text(m, self.kind, pretty=True)
            mag = abs(c)
            if factors:
                body = factors if mag == 1 else f"{mag}*{factors}"
            else:
                body = f"{mag}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)


def parse_polynomial(text: str, nvars: int, kind: str = X_KIND) -> Polynomial:
    """Parse the canonical text form produced by ``Polynomial.to_text``."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero(nvars, kind)
    terms: dict[Monomial, Fraction] = {}
    for piece in text.split(" + "):
        piece = piece.strip()
        if not piece:
            raise PolynomialParseError(f"empty term in {text!r}")
        if " * " in piece:
            coeff_text, factors_text = piece.split(" * ", 1)
            expo = [0] * nvars
            for factor in factors_text.split():
                if "^" not in factor or not factor.startswith(kind):
                    raise PolynomialParseError(f"bad factor {factor!r}")
                var_text, exp_text = factor[len(kind):].split("^")
                idx = int(var_text) - 1
                if not 0 <= idx < nvars:
                    raise PolynomialParseError(f"variable out of range in {factor!r}")
                expo[idx] += int(exp_text)
            mono = tuple(expo)
        else:
            coeff_text = piece
            mono = (0,) * nvars
        try:
            coeff = Fraction(coeff_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise PolynomialParseError(f"bad coefficient {coeff_text!r}") from exc
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(nvars, terms, kind)


# ------------------------------------------------------------- composition


def compose(
    p: Polynomial, maps: list[Polynomial], truncate_at: int | None = None
) -> Polynomial:
    """Substitute maps[i] for variable i of p; optionally drop degrees above a cap.

    All maps must share one (nvars, kind); the result lives in that space.
    Terms are taken in p's dict order, each a product of cached powers
    (built by squaring) scaled by its coefficient.  Truncation is by plain
    total degree in the target space and applies inside every product,
    which keeps graded compositions from blowing up.
    """
    if len(maps) != p.nvars:
        raise ValueError("need one substitution map per variable")
    if not maps:
        raise ValueError("cannot compose a zero-variable polynomial")
    nvars, kind = maps[0].nvars, maps[0].kind
    for q in maps:
        if q.nvars != nvars or q.kind != kind:
            raise KindMismatch("substitution maps disagree on target space")

    def trunc(q: Polynomial) -> Polynomial:
        return q if truncate_at is None else q.truncate(truncate_at)

    powers: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        key = (i, e)
        if key not in powers:
            if e == 1:
                powers[key] = trunc(maps[i])
            else:
                half = power(i, e // 2)
                sq = trunc(half * half)
                powers[key] = sq if e % 2 == 0 else trunc(sq * maps[i])
        return powers[key]

    one = Polynomial.constant(nvars, 1, kind)
    total: dict = {}
    for m, c in p.terms.items():
        term = one
        for i, e in enumerate(m):
            if e:
                term = trunc(term * power(i, e))
        _accumulate(total, term.scale(c).terms)
    return Polynomial._new(nvars, total, kind)


def act(matrix, p: Polynomial) -> Polynomial:
    """Pull back p along the linear map given by ``matrix``: x -> p(T x)."""
    if p.kind != X_KIND:
        raise KindMismatch("group action applies to x-space polynomials")
    n = len(matrix)
    if n != p.nvars:
        raise ValueError("matrix dimension mismatch")
    forms = [
        Polynomial(
            n,
            {
                tuple(1 if j == jj else 0 for jj in range(n)): matrix[i][j]
                for j in range(n)
                if matrix[i][j] != 0
            },
            X_KIND,
        )
        for i in range(n)
    ]
    return compose(p, forms)


def reynolds(rep, p: Polynomial) -> Polynomial:
    """Group average (1/|G|) sum_g p(T_g x); a projection onto invariants."""
    total: dict = {}
    for t in rep.elements:
        _accumulate(total, act(t, p).terms)
    return Polynomial._new(p.nvars, total, p.kind).scale(Fraction(1, rep.order))


def substitute(psi: Polynomial, basis_polys, truncate_at: int | None = None) -> Polynomial:
    """Evaluate a J-space polynomial on x-space basis polynomials, optionally
    truncated at an x-degree as in :func:`compose`."""
    if psi.kind != J_KIND:
        raise KindMismatch("substitute expects a J-space polynomial")
    maps = list(basis_polys)
    for q in maps:
        if q.kind != X_KIND:
            raise KindMismatch("basis polynomials must be x-space")
    return compose(psi, maps, truncate_at)


# --------------------------------------------------------- numeric compile


class NumericPoly:
    """Float evaluator compiled once from an exact polynomial or polynomial map.

    ``NumericPoly(p)`` evaluates to a float; ``NumericPoly([p1, ..., pm])``
    to an array of m floats.  The terms of every output, each in
    ``sorted_terms()`` order, are stacked into one exponent table and one
    coefficient vector.  A call builds one power table prod(x ** exps) and
    takes output i as the dot product of its slice of that table with its
    coefficients: the same float operations in the same order as compiling
    each output on its own, so the results agree to the last bit.
    """

    __slots__ = ("nvars", "exps", "coeffs", "parts", "scalar")

    def __init__(self, polys):
        self.scalar = isinstance(polys, Polynomial)
        polys = [polys] if self.scalar else list(polys)
        self.nvars = polys[0].nvars
        items = [p.sorted_terms() for p in polys]
        flat = [mc for terms in items for mc in terms]
        self.exps = np.array([m for m, _ in flat], dtype=np.int64).reshape(-1, self.nvars)
        self.coeffs = np.array([float(c) for _, c in flat])
        # (rows of the power table, coefficients) of each output
        self.parts = []
        lo = 0
        for terms in items:
            s = slice(lo, lo + len(terms))
            self.parts.append((s, self.coeffs[s]))
            lo = s.stop

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        table = np.prod(x[None, :] ** self.exps, axis=1)
        if self.scalar:
            return float(table @ self.coeffs)
        return np.array([table[s] @ c for s, c in self.parts])

    def eval_many(self, pts) -> np.ndarray:
        """Values at each row of ``pts``: shape (points,) for one polynomial,
        (points, m) for a map."""
        pts = np.asarray(pts, dtype=float)
        table = np.prod(pts[:, None, :] ** self.exps[None, :, :], axis=2)
        if self.scalar:
            return table @ self.coeffs
        return np.stack([table[:, s] @ c for s, c in self.parts], axis=-1)


def compile_polynomial(p) -> NumericPoly:
    """The float kernel of a polynomial, or of a sequence of them."""
    return NumericPoly(p)


def compile_gradient(p: Polynomial) -> NumericPoly:
    """The float kernel of the gradient map x -> (d p / d x_i)(x)."""
    return NumericPoly(p.gradient())
