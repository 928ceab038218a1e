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

The numerator and denominator are ``polynomials.Polynomial`` values of kind
``P_KIND``, one variable per parameter name.  Names are interned at first
use in one table for the process, so variable i is always the same name.
A polynomial made before a later name was interned is shorter; it is
widened with zero exponents before it meets a longer one.  The print order
and the denominator term made monic are not ``Polynomial``'s: both take the
highest term by degree, then by the name-sorted ``(name, exponent)`` pairs,
so ``a2`` prints before ``a10`` and b^2 > a^2 > a*b.

A polynomial with such coefficients is a plain ``polynomials.Polynomial``:
Coefficient mixes with Fraction in every operation, a Fraction operand
being read as a constant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterPole, UnknownParameter
from .polynomials import Polynomial, compose, substitute

P_KIND = "param"

# The interned parameter names: variable i of a P_KIND polynomial is _NAMES[i].
_NAMES: list[str] = []
_INDEX: dict[str, int] = {}


def _widen(p: Polynomial) -> Polynomial:
    """p over every name interned so far, by zero exponents appended."""
    pad = len(_NAMES) - p.nvars
    if not pad:
        return p
    zeros = (0,) * pad
    return Polynomial._new(
        len(_NAMES), {m + zeros: c for m, c in p.terms.items()}, P_KIND
    )


def _divide(p: Polynomial, g) -> Polynomial:
    """p over the monomial g, which divides each of its terms."""
    return Polynomial._new(
        p.nvars, {tuple(e - f for e, f in zip(m, g)): c for m, c in p.terms.items()}, P_KIND
    )


def _pairs(m) -> list[tuple[str, int]]:
    return sorted((_NAMES[i], e) for i, e in enumerate(m) if e)


def _name_key(m):
    """Degree, then the name-sorted (name, exponent) pairs."""
    return (sum(m), _pairs(m))


def _text(p: Polynomial) -> str:
    parts = []
    for m in sorted(p.terms, key=_name_key, reverse=True):
        c = p.terms[m]
        factors = "*".join(n if e == 1 else f"{n}^{e}" for n, e in _pairs(m))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append(factors)
        elif c == -1:
            parts.append(f"-{factors}")
        else:
            parts.append(f"{c}*{factors}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _survives(p: Polynomial, critical) -> bool:
    """p stays nonzero with the critical parameters set to zero."""
    idx = [i for i in map(_INDEX.get, critical) if i is not None and i < p.nvars]
    return any(not any(m[i] for i in idx) for m in p.terms)


class Coefficient:
    """Exact rational function of named parameters, ``num / den``: two
    ``P_KIND`` polynomials with no common monomial factor, ``den`` monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        num = _widen(num)
        den = Polynomial.constant(num.nvars, 1, P_KIND) if den is None else _widen(den)
        if not den.terms:
            raise ZeroDivisionError("zero denominator in parameter coefficient")
        if not num.terms:
            self.num, self.den = num, Polynomial.constant(num.nvars, 1, P_KIND)
            return
        g = tuple(map(min, zip(*num.terms, *den.terms)))
        if any(g):
            num, den = _divide(num, g), _divide(den, g)
        lead = den.terms[max(den.terms, key=_name_key)]
        if lead != 1:
            inv = 1 / lead
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    # ---------------------------------------------------------- constructors

    @staticmethod
    def number(x) -> "Coefficient":
        return Coefficient(Polynomial.constant(len(_NAMES), Fraction(x), P_KIND))

    @staticmethod
    def parameter(name: str) -> "Coefficient":
        if name not in _INDEX:
            _INDEX[name] = len(_NAMES)
            _NAMES.append(name)
        return Coefficient(Polynomial.variable(_INDEX[name], len(_NAMES), P_KIND))

    @staticmethod
    def coerce(x) -> "Coefficient":
        if isinstance(x, Coefficient):
            return x
        return Coefficient.number(x)

    # ----------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def parameters(self) -> set[str]:
        return {
            _NAMES[i]
            for p in (self.num, self.den)
            for m in p.terms
            for i, e in enumerate(m)
            if e
        }

    def uniform_nonzero(self, critical) -> bool:
        """Invertible uniformly over the sweep: survives critical -> 0."""
        return _survives(self.num, critical) and _survives(self.den, critical)

    def denominator_survives(self, critical) -> bool:
        """Finite uniformly over the sweep: the denominator survives
        critical -> 0, while the numerator is allowed to vanish."""
        return _survives(self.den, critical)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        sn, sd, on, od = map(_widen, (self.num, self.den, other.num, other.den))
        if sd == od:
            return Coefficient(sn + on, sd)
        return Coefficient(sn * od + on * sd, sd * od)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Coefficient":
        return Coefficient(-self.num, self.den)

    def __sub__(self, other) -> "Coefficient":
        return self + (-Coefficient.coerce(other))

    def __rsub__(self, other):
        return Coefficient.coerce(other) + (-self)

    def __mul__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        sn, sd, on, od = map(_widen, (self.num, self.den, other.num, other.den))
        return Coefficient(sn * on, sd * od)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "Coefficient":
        other = Coefficient.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero parameter coefficient")
        sn, sd, on, od = map(_widen, (self.num, self.den, other.num, other.den))
        return Coefficient(sn * od, sd * on)

    def __rtruediv__(self, other) -> "Coefficient":
        return Coefficient.coerce(other) / self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                other = Coefficient.number(other)
            else:
                return NotImplemented
        sn, sd, on, od = map(_widen, (self.num, self.den, other.num, other.den))
        return sn * od == on * sd

    __hash__ = None

    # -------------------------------------------------------------- output

    def evaluate(self, assignment) -> Fraction:
        """The exact value at an assignment of every parameter involved;
        one left out raises UnknownParameter."""
        used = self.parameters()
        missing = used - assignment.keys()
        if missing:
            raise UnknownParameter(f"unassigned parameters: {', '.join(sorted(missing))}")
        point = [
            Fraction(assignment[n]) if n in used else 0 for n in _NAMES[: self.num.nvars]
        ]
        den = self.den.evaluate(point)
        if den == 0:
            raise ParameterPole(f"parameter assignment zeroes the denominator of {self}")
        return self.num.evaluate(point) / den

    def __str__(self) -> str:
        if not self.den.degree():
            return _text(self.num)
        return f"({_text(self.num)})/({_text(self.den)})"

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
