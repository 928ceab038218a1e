"""Coefficients depending on named control parameters.

Model and normal-form computations must stay exact while coefficients like
a, b, c remain symbolic, because the reduction discipline distinguishes
"critical" parameters (may vanish along the sweep) from "generic" ones
(uniformly bounded away from zero): a division is legal only when the
divisor provably survives the critical locus.  We therefore work with
rational functions in the parameters, with just enough normalization
(common monomial factors cancelled, denominator made monic) to keep
expressions small; equality is decided by cross multiplication, so the
partial canonical form is never load bearing.

ParamPoly is the companion polynomial type: a sparse polynomial in x or J
whose coefficients are such rational functions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KindMismatch
from .polynomials import Monomial, Polynomial, mono_degree, mono_key, mono_mul

# A parameter monomial is a name-sorted tuple of (name, exponent) pairs;
# a parameter polynomial maps them to Fraction coefficients.
ParamMonomial = tuple[tuple[str, int], ...]
PPoly = dict[ParamMonomial, Fraction]

_ONE_MONO: ParamMonomial = ()


def _pm_mul(a: ParamMonomial, b: ParamMonomial) -> ParamMonomial:
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in merged.items() if e))


def _pm_degree(m: ParamMonomial) -> int:
    return sum(e for _, e in m)


def _pm_key(m: ParamMonomial):
    return (_pm_degree(m), m)


def _pp_make(terms) -> PPoly:
    return {m: c for m, c in terms.items() if c != 0}


def _pp_add(a: PPoly, b: PPoly) -> PPoly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pp_mul(a: PPoly, b: PPoly) -> PPoly:
    out: PPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _pm_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pp_scale(a: PPoly, s: Fraction) -> PPoly:
    if s == 0:
        return {}
    return {m: c * s for m, c in a.items()}


def _pp_eval(a: PPoly, assignment) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        v = c
        for name, e in m:
            v *= assignment[name] ** e
        total += v
    return total


def _pp_kill(a: PPoly, names) -> PPoly:
    """Set the named parameters to zero."""
    return {m: c for m, c in a.items() if not any(n in names for n, _ in m)}


def _pp_monomial_gcd(a: PPoly, b: PPoly) -> ParamMonomial:
    mins: dict[str, int] | None = None
    for poly in (a, b):
        for m in poly:
            expo = dict(m)
            if mins is None:
                mins = expo
            else:
                mins = {
                    n: min(e, expo.get(n, 0)) for n, e in mins.items() if n in expo
                }
            if not mins:
                return _ONE_MONO
    if not mins:
        return _ONE_MONO
    return tuple(sorted((n, e) for n, e in mins.items() if e))


def _pm_div(m: ParamMonomial, g: ParamMonomial) -> ParamMonomial:
    gd = dict(g)
    return tuple((n, e - gd.get(n, 0)) for n, e in m if e - gd.get(n, 0))


def _pp_div_monomial(a: PPoly, g: ParamMonomial) -> PPoly:
    if g == _ONE_MONO:
        return a
    return {_pm_div(m, g): c for m, c in a.items()}


def _pp_leading_coeff(a: PPoly) -> Fraction:
    lead = max(a, key=_pm_key)
    return a[lead]


def _pm_text(m: ParamMonomial) -> str:
    if not m:
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


def _pp_text(a: PPoly) -> str:
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=_pm_key, reverse=True):
        c = a[m]
        if m == _ONE_MONO:
            parts.append(str(c))
        elif c == 1:
            parts.append(_pm_text(m))
        elif c == -1:
            parts.append(f"-{_pm_text(m)}")
        else:
            parts.append(f"{c}*{_pm_text(m)}")
    return " + ".join(parts).replace("+ -", "- ")


class Coefficient:
    """Exact rational function of named parameters."""

    __slots__ = ("num", "den")

    def __init__(self, num: PPoly, den: PPoly | None = None):
        num = _pp_make(num)
        den = _pp_make(den) if den is not None else {_ONE_MONO: Fraction(1)}
        if not den:
            raise ZeroDivisionError("zero denominator in parameter coefficient")
        if not num:
            self.num, self.den = {}, {_ONE_MONO: Fraction(1)}
            return
        g = _pp_monomial_gcd(num, den)
        num = _pp_div_monomial(num, g)
        den = _pp_div_monomial(den, g)
        lead = _pp_leading_coeff(den)
        if lead != 1:
            inv = Fraction(1) / lead
            num = _pp_scale(num, inv)
            den = _pp_scale(den, inv)
        self.num, self.den = num, den

    # ---------------------------------------------------------- constructors

    @staticmethod
    def number(x) -> "Coefficient":
        return Coefficient({_ONE_MONO: Fraction(x)})

    @staticmethod
    def parameter(name: str) -> "Coefficient":
        return Coefficient({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(x) -> "Coefficient":
        if isinstance(x, Coefficient):
            return x
        return Coefficient.number(x)

    # ----------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def as_number(self) -> Fraction | None:
        """The constant value, or None if parameters are involved."""
        if self.den != {_ONE_MONO: Fraction(1)}:
            return None
        if not self.num:
            return Fraction(0)
        if set(self.num) == {_ONE_MONO}:
            return self.num[_ONE_MONO]
        return None

    def parameters(self) -> set[str]:
        names = set()
        for poly in (self.num, self.den):
            for m in poly:
                for n, _ in m:
                    names.add(n)
        return names

    def uniform_nonzero(self, critical) -> bool:
        """Invertible uniformly over the sweep: survives critical -> 0."""
        return bool(_pp_kill(self.num, set(critical))) and bool(
            _pp_kill(self.den, set(critical))
        )

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        num = _pp_add(_pp_mul(self.num, other.den), _pp_mul(other.num, self.den))
        return Coefficient(num, _pp_mul(self.den, other.den))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Coefficient":
        return Coefficient(_pp_scale(self.num, Fraction(-1)), self.den)

    def __sub__(self, other) -> "Coefficient":
        return self + (-Coefficient.coerce(other))

    def __rsub__(self, other):
        return Coefficient.coerce(other) + (-self)

    def __mul__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        return Coefficient(
            _pp_mul(self.num, other.num), _pp_mul(self.den, other.den)
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero parameter coefficient")
        return Coefficient(
            _pp_mul(self.num, other.den), _pp_mul(self.den, other.num)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                other = Coefficient.number(other)
            else:
                return NotImplemented
        return _pp_mul(self.num, other.den) == _pp_mul(other.num, self.den)

    __hash__ = None

    # -------------------------------------------------------------- output

    def evaluate(self, assignment) -> Fraction:
        assignment = {k: Fraction(v) for k, v in assignment.items()}
        den = _pp_eval(self.den, assignment)
        if den == 0:
            raise ZeroDivisionError("parameter assignment zeroes a denominator")
        return _pp_eval(self.num, assignment) / den

    def __str__(self) -> str:
        if self.den == {_ONE_MONO: Fraction(1)}:
            return _pp_text(self.num)
        return f"({_pp_text(self.num)})/({_pp_text(self.den)})"

    def __repr__(self) -> str:
        return f"Coefficient({self})"


class ParamPoly:
    """Sparse polynomial (x-space or J-space) with Coefficient coefficients."""

    __slots__ = ("nvars", "terms", "kind")

    def __init__(self, nvars: int, terms, kind: str):
        clean = {}
        for m, c in terms.items():
            c = Coefficient.coerce(c)
            if not c.is_zero():
                clean[m] = c
        self.nvars = nvars
        self.terms = clean
        self.kind = kind

    @staticmethod
    def zero(nvars: int, kind: str) -> "ParamPoly":
        return ParamPoly(nvars, {}, kind)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "ParamPoly":
        return ParamPoly(
            p.nvars, {m: Coefficient.number(c) for m, c in p.terms.items()}, p.kind
        )

    def is_zero(self) -> bool:
        return not self.terms

    def parameters(self) -> set[str]:
        names = set()
        for c in self.terms.values():
            names |= c.parameters()
        return names

    def _require_same_space(self, other: "ParamPoly"):
        if self.nvars != other.nvars or self.kind != other.kind:
            raise KindMismatch("operands live in different polynomial spaces")

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        self._require_same_space(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return ParamPoly(self.nvars, out, self.kind)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(
            self.nvars, {m: -c for m, c in self.terms.items()}, self.kind
        )

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        self._require_same_space(other)
        out: dict[Monomial, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = c1 * c2
                s = out.get(m)
                out[m] = prod if s is None else s + prod
        return ParamPoly(self.nvars, out, self.kind)

    def scale(self, c) -> "ParamPoly":
        c = Coefficient.coerce(c)
        return ParamPoly(
            self.nvars, {m: cc * c for m, cc in self.terms.items()}, self.kind
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if self.nvars != other.nvars or self.kind != other.kind:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    __hash__ = None

    def partial(self, i: int) -> "ParamPoly":
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                lowered = m[:i] + (e - 1,) + m[i + 1 :]
                contrib = c * e
                s = out.get(lowered)
                out[lowered] = contrib if s is None else s + contrib
        return ParamPoly(self.nvars, out, self.kind)

    def xdegree_of(self, m: Monomial, weights=None) -> int:
        if weights is None:
            return mono_degree(m)
        return sum(e * w for e, w in zip(m, weights))

    def component(self, xdeg: int, weights=None) -> "ParamPoly":
        """Terms whose (weighted) degree equals xdeg."""
        return ParamPoly(
            self.nvars,
            {
                m: c
                for m, c in self.terms.items()
                if self.xdegree_of(m, weights) == xdeg
            },
            self.kind,
        )

    def truncate(self, max_xdeg: int, weights=None) -> "ParamPoly":
        return ParamPoly(
            self.nvars,
            {
                m: c
                for m, c in self.terms.items()
                if self.xdegree_of(m, weights) <= max_xdeg
            },
            self.kind,
        )

    def max_xdegree(self, weights=None) -> int:
        if not self.terms:
            return -1
        return max(self.xdegree_of(m, weights) for m in self.terms)

    def evaluate_params(self, assignment) -> Polynomial:
        """Pin every parameter to an exact rational value."""
        return Polynomial(
            self.nvars,
            {m: c.evaluate(assignment) for m, c in self.terms.items()},
            self.kind,
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [f"{self.kind}{i + 1}" for i in range(self.nvars)]
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                f"{names[i]}^{e}" for i, e in enumerate(m) if e
            ]
            body = " ".join(factors) if factors else "1"
            parts.append(f"({c}) * {body}")
        return " + ".join(parts)

    __repr__ = __str__


def compose_param(
    p: ParamPoly, maps: list[ParamPoly], truncate_at: int | None = None
) -> ParamPoly:
    """Substitute maps[i] for variable i; optionally drop degrees above a cap.

    Truncation is by plain total degree in the target space and is applied
    inside every product, which keeps graded compositions from blowing up.
    """
    if len(maps) != p.nvars:
        raise KindMismatch("need one substitution map per variable")
    if not maps:
        c = p.terms.get((), None)
        return ParamPoly(0, {} if c is None else {(): c}, p.kind)
    nvars, kind = maps[0].nvars, maps[0].kind
    for q in maps:
        if q.nvars != nvars or q.kind != kind:
            raise KindMismatch("substitution maps live in different spaces")

    def trunc(q: ParamPoly) -> ParamPoly:
        return q if truncate_at is None else q.truncate(truncate_at)

    one = ParamPoly(nvars, {(0,) * nvars: Coefficient.number(1)}, kind)
    power_cache: dict[tuple[int, int], ParamPoly] = {}

    def power(i: int, e: int) -> ParamPoly:
        if e == 0:
            return one
        key = (i, e)
        if key not in power_cache:
            if e == 1:
                power_cache[key] = trunc(maps[i])
            else:
                half = power(i, e // 2)
                sq = trunc(half * half)
                power_cache[key] = sq if e % 2 == 0 else trunc(sq * maps[i])
        return power_cache[key]

    total = ParamPoly.zero(nvars, kind)
    for m, c in p.terms.items():
        term = one
        for i, e in enumerate(m):
            if e:
                term = trunc(term * power(i, e))
        total = total + term.scale(c)
    return total


def substitute_param(psi: ParamPoly, basis_polys, truncate_at=None) -> ParamPoly:
    """Evaluate a J-space ParamPoly on plain x-space basis polynomials."""
    maps = [ParamPoly.from_polynomial(q) for q in basis_polys]
    return compose_param(psi, maps, truncate_at)
