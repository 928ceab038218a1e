"""Exact sparse multivariate polynomials.

A polynomial is a dict from exponent tuples to nonzero coefficients,
tagged with a variable kind so that ambient-space ("x"), orbit-space ("J")
and model-parameter (``params.P_KIND``) objects cannot be mixed by accident.
Coefficients are Fractions (plain numbers are coerced) or any other exact
field element that supports + - * /, equality and truth as "nonzero"; the
other one in use is ``params.Coefficient``, a rational function of named
model parameters whose numerator and denominator are themselves
polynomials of the parameter kind, and which also answers ``parameters()``
and ``evaluate(assignment)``.  This module only duck-types it.  Sums
accumulate as ``s + c`` onto what is already there, in dict order, never
onto a seeded zero: for ``Coefficient`` the order of operations fixes the
printed form, so it is kept stable.

The canonical term order used everywhere here (printing, pivoting, greedy
basis selection) is graded lexicographic, highest first: terms compare by
total degree, then lexicographically on the exponent tuple.  For two
variables this orders degree-2 monomials as x1^2, x1 x2, x2^2.  Parameter
polynomials print in ``params``' own order, by name rather than by index.

Text serialization is a sum of ``c * x1^a1 x2^a2`` terms in canonical
order.

:func:`reynolds`, the average over every group element, has no caller in
the library (``invariants`` works from the generators) and is not exported;
it is the tests' independent oracle, and the benchmark's layer tracer
names it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import types
from fractions import Fraction

import numpy as np

from .errors import KindMismatch

X_KIND = "x"
J_KIND = "J"

Monomial = tuple[int, ...]


def mono_degree(m: Monomial, weights=None) -> int:
    """Total degree, or the weighted degree sum e_i * w_i."""
    if weights is None:
        return sum(m)
    return sum(e * w for e, w in zip(m, weights))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


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
    """All exponent tuples of the given total degree, canonical order.

    Built from the last variable forward: ``tails[r]`` holds the exponents
    of the last j variables that sum to r, each list in canonical order.
    No recursive closure: one would refer to itself and leave each call's
    result in a reference cycle."""
    if nvars == 0:
        return [()] if degree == 0 else []
    tails = [[(r,)] for r in range(degree + 1)]
    for _ in range(nvars - 2):
        tails = [_prepend(tails, r) for r in range(degree + 1)]
    return _prepend(tails, degree) if nvars > 1 else tails[degree]


def _prepend(tails: list, r: int) -> list[Monomial]:
    """The tuples (e,) + t with t in tails[r - e], e from r down to 0."""
    return [(e,) + t for e in range(r, -1, -1) for t in tails[r - e]]


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
        """The exact value at a point; each coordinate becomes a Fraction.

        Float evaluation is the job of the compiled kernels
        (:func:`compile_polynomial`).
        """
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    # ---------------------------------------------------------- serialization

    def to_text(self, bracketed: bool = False) -> str:
        """Canonical text form: the terms in canonical order.

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


# ------------------------------------------------------------- composition


def power_products(maps, truncate_at: int | None = None):
    """The image of each monomial under x_i -> maps[i], each built once.

    ``image(m)`` is the image of m less one factor of its last variable,
    times that variable's map, truncated at ``truncate_at`` when given; no
    degree is negative, so that loses no term at or below the cap.  Keys
    drop trailing zero exponents: maps appended later keep every image valid.
    The empty product is the int 1, so maps with int coefficients give
    images with int coefficients.
    ``image`` is a partial of a module function, not a recursive closure,
    which would refer to itself: each table would then be a reference
    cycle, freed only when the cyclic garbage collector happens to run.
    """
    return functools.partial(_power_image, {}, maps, truncate_at)


def _power_image(table: dict, maps, truncate_at, m: Monomial) -> Polynomial:
    key = m[: max((i + 1 for i, e in enumerate(m) if e), default=0)]
    got = table.get(key)
    if got is None:
        if key:
            lower = _power_image(table, maps, truncate_at, key[:-1] + (key[-1] - 1,))
            got = lower * maps[len(key) - 1]
        else:
            nvars = maps[0].nvars
            got = Polynomial._new(nvars, {(0,) * nvars: 1}, maps[0].kind)
        if truncate_at is not None:
            got = got.truncate(truncate_at)
        table[key] = got
    return got


def compose(
    p: Polynomial, maps: list[Polynomial], truncate_at: int | None = None
) -> Polynomial:
    """Substitute maps[i] for variable i of p; optionally drop degrees above a cap.

    All maps must share one (nvars, kind); the result lives in that space.
    It is the sum over p's terms, in dict order, of the exact image of each
    monomial from one :func:`power_products` table, scaled by its
    coefficient.  With a cap it equals ``compose(p, maps).truncate(cap)``.
    """
    if len(maps) != p.nvars:
        raise ValueError("need one substitution map per variable")
    if not maps:
        raise ValueError("cannot compose a zero-variable polynomial")
    nvars, kind = maps[0].nvars, maps[0].kind
    if any(q.nvars != nvars or q.kind != kind for q in maps):
        raise KindMismatch("substitution maps disagree on target space")
    image = power_products(maps, truncate_at)
    total: dict = {}
    for m, c in p.terms.items():
        _accumulate(total, image(m).scale(c).terms)
    return Polynomial._new(nvars, total, kind)


def linear_forms(matrix) -> list[Polynomial]:
    """The coordinates of x -> T x as linear forms, the maps of :func:`act`."""
    n = len(matrix)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [Polynomial(n, dict(zip(units, row))) for row in matrix]


def act(matrix, p: Polynomial) -> Polynomial:
    """Pull back p along the linear map given by ``matrix``: x -> p(T x)."""
    if p.kind != X_KIND:
        raise KindMismatch("group action applies to x-space polynomials")
    return compose(p, linear_forms(matrix))


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

# A sum is a left-leaning chain of additions, and ``compile`` recurses once
# per link: about 3000 terms in one expression overflow it.  An output with
# more terms accumulates over statements of at most this many.
_TERMS_PER_STATEMENT = 200


def _kernel_body(polys: list[Polynomial], args: list[str], tag: str):
    """Straight-line statements evaluating ``polys`` at the names ``args``.

    Returns ``(statements, outputs, constants)``: unindented assignments,
    one expression per polynomial whose value is that polynomial at
    ``args`` once the statements have run, and the coefficients those
    expressions name.  Power x_i^e is the name ``{tag}{args[i]}_{e}``,
    built once for all outputs as the power e-1 times ``args[i]``.  Each
    output is the left-to-right sum of ``coefficient * powers`` over its
    ``sorted_terms()``, so it runs the same operations alone, inside a map
    or inlined into a larger kernel; a sum too long for one expression
    accumulates into ``{tag}s{j}``.  The coefficient of the k-th term, over
    all outputs in order, is the name ``{tag}c{k}``, and ``constants``
    maps each such name to ``float(c)``.  The statements hold nothing but
    names and operators, so they depend only on the supports of ``polys``.
    """
    statements = []
    powers = []
    for i, a in enumerate(args):
        top = max((m[i] for p in polys for m in p.terms), default=0)
        names = [a]
        for e in range(2, top + 1):
            names.append(f"{tag}{a}_{e}")
            statements.append(f"{names[-1]} = {names[-2]} * {a}")
        powers.append(names)
    outputs = []
    constants = {}
    for j, p in enumerate(polys):
        terms = []
        for m, c in p.sorted_terms():
            name = f"{tag}c{len(constants)}"
            constants[name] = float(c)
            terms.append(" * ".join([name] + [powers[i][e - 1] for i, e in enumerate(m) if e]))
        chunks = [
            " + ".join(terms[k : k + _TERMS_PER_STATEMENT])
            for k in range(0, len(terms), _TERMS_PER_STATEMENT)
        ] or ["0.0"]
        if len(chunks) == 1:
            outputs.append(chunks[0])
            continue
        total = f"{tag}s{j}"
        statements.append(f"{total} = {chunks[0]}")
        statements += [f"{total} = {total} + {chunk}" for chunk in chunks[1:]]
        outputs.append(total)
    return statements, outputs, constants


# What generated code may call besides its arguments; no other builtin.
_KERNEL_GLOBALS = {
    "__builtins__": {}, "abs": abs, "range": range,
    "hypot": math.hypot, "isfinite": math.isfinite,
}


# Compiled kernels kept by source text: a sweep needs two, one on each side
# of a vanishing coefficient; the bound keeps a long-lived process from
# holding every kernel it has ever built.
_CODE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> types.CodeType:
    """The compiled code of the function ``_k`` that ``source`` defines."""
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(source, "<orbitscope kernel>", "exec"), namespace)
    return namespace["_k"].__code__


def _compile_kernel(args: list[str], lines: list[str], constants: dict):
    """The function ``_k(*args, *constants)`` with body ``lines``, each
    constant bound as the default of its parameter.

    The source, kept as the function's ``.source``, holds no constant's
    value, so kernels of polynomials with one support share it, and its
    code is compiled once for the last few sources seen (:func:`_code`),
    whichever model or call asks.  Besides its arguments, generated code
    calls only ``abs``, ``range`` and ``hypot`` and ``isfinite`` of
    :mod:`math`.
    """
    source = f"def _k({', '.join([*args, *constants])}):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    fn = types.FunctionType(_code(source), _KERNEL_GLOBALS, "_k", tuple(constants.values()))
    fn.source = source
    return fn


class NumericPoly:
    """Float evaluator compiled once from an exact polynomial or polynomial map.

    ``NumericPoly(p)`` evaluates to a float; ``NumericPoly([p1, ..., pm])``
    to a tuple of m floats.  Construction generates one straight-line Python
    function ``_k(x0, ..., x{n-1})`` of the coordinates, the
    :func:`_kernel_body` of the polynomials with a return (kept as
    ``source``), and binds the coefficients to it (see
    :func:`_compile_kernel`, which reuses the compiled code of a recent
    source).  Calls pass the coordinates as arguments;
    :meth:`eval_many` passes the columns of a point array, so one kernel
    serves single points and batches, and the two agree to the last bit.
    The sums run in a fixed order, so reruns are bit-identical; they are
    not bit-identical to other float evaluation orders of the same
    polynomial.
    """

    __slots__ = ("nvars", "scalar", "source", "_fn")

    def __init__(self, polys):
        self.scalar = isinstance(polys, Polynomial)
        polys = [polys] if self.scalar else list(polys)
        self.nvars = polys[0].nvars
        args = [f"x{i}" for i in range(self.nvars)]
        statements, outputs, constants = _kernel_body(polys, args, "")
        value = outputs[0] if self.scalar else "(" + ", ".join(outputs) + ",)"
        self._fn = _compile_kernel(args, [*statements, f"return {value}"], constants)
        self.source = self._fn.source

    def __call__(self, x):
        return self._fn(*x)

    def eval_many(self, pts) -> np.ndarray:
        """Values at each row of ``pts``: shape (points,) for one polynomial,
        (points, m) for a map."""
        pts = np.asarray(pts, dtype=float)
        rows = pts.shape[:1]
        out = self._fn(*pts.T)
        if self.scalar:
            return np.array(np.broadcast_to(out, rows))
        return np.stack([np.broadcast_to(v, rows) for v in out], axis=-1)


def compile_polynomial(p) -> NumericPoly:
    """The float kernel of a polynomial, or of a sequence of them."""
    return NumericPoly(p)


def compile_gradient(p: Polynomial) -> NumericPoly:
    """The float kernel of the gradient map x -> (d p / d x_i)(x)."""
    return NumericPoly(p.gradient())
