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

A polynomial with such coefficients is a plain ``polynomials.Polynomial``:
Coefficient mixes with Fraction in every operation, a Fraction operand
being read as a constant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterPole
from .polynomials import Polynomial, compose, substitute

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
        if self.den == other.den:
            return Coefficient(_pp_add(self.num, other.num), self.den)
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

    def __rtruediv__(self, other) -> "Coefficient":
        return Coefficient.coerce(other) / self

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
            raise ParameterPole(f"parameter assignment zeroes the denominator of {self}")
        return _pp_eval(self.num, assignment) / den

    def __str__(self) -> str:
        if self.den == {_ONE_MONO: Fraction(1)}:
            return _pp_text(self.num)
        return f"({_pp_text(self.num)})/({_pp_text(self.den)})"

    def __repr__(self) -> str:
        return f"Coefficient({self})"


def compose_param(p: Polynomial, maps, truncate_at: int | None = None) -> Polynomial:
    """:func:`polynomials.compose` under the name the layer tracer of
    ``perfbench`` times.  No orbitscope code calls it any more; it stays
    only because ``perfbench/tracer.py`` ``TARGETS`` names it."""
    return compose(p, maps, truncate_at)


def substitute_param(psi: Polynomial, basis_polys, truncate_at=None) -> Polynomial:
    """:func:`polynomials.substitute` under the name the layer tracer of
    ``perfbench`` times.  No orbitscope code calls it any more; it stays
    only because ``perfbench/tracer.py`` ``TARGETS`` names it."""
    return substitute(psi, basis_polys, truncate_at)
