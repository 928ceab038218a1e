"""Exception hierarchy for orbitscope.

Every failure mode that callers are expected to handle gets its own class.
Each class names in ``layer`` the module whose contract it reports on; the
CLI's stable error code for it is ``<layer>.<ClassName>``.
"""


class OrbitscopeError(Exception):
    """Base class for all orbitscope errors."""


# ---------------------------------------------------------------- group layer

class DimensionMismatch(OrbitscopeError):
    """Inputs disagree on ambient dimension."""
    layer = "groups"


class NonInvertibleGenerator(OrbitscopeError):
    """A generator matrix is singular."""
    layer = "groups"


class OrderCapExceeded(OrbitscopeError):
    """Group closure exceeded the element cap without terminating."""
    layer = "groups"


class NotASubgroup(OrbitscopeError):
    """An index set is not closed under the group operation."""
    layer = "groups"


class SubgroupCapExceeded(OrbitscopeError):
    """Subgroup enumeration exceeded the candidate cap."""
    layer = "groups"


# ----------------------------------------------------------- polynomial layer

class KindMismatch(OrbitscopeError):
    """Mixed x-space and J-space polynomials in one operation."""
    layer = "polynomials"


class PolynomialParseError(OrbitscopeError):
    """Text form of a polynomial does not follow the canonical format."""
    layer = "polynomials"


# ------------------------------------------------------------ invariant layer

class CapTooLow(OrbitscopeError):
    """Degree cap ended the basis search before the algebra closed."""
    layer = "invariants"


class NotInvariant(OrbitscopeError):
    """Polynomial is not fixed by the group action."""
    layer = "invariants"


class NotExpressible(OrbitscopeError):
    """Invariant polynomial is outside the degree reach of the basis."""
    layer = "invariants"


# ---------------------------------------------------------- parameter layer

class ParameterPole(OrbitscopeError, ZeroDivisionError):
    """A parameter assignment zeroes the denominator of a coefficient."""
    layer = "params"


# --------------------------------------------------------------- strata layer

class NoUniqueMinimum(OrbitscopeError):
    """The realized isotropy classes have no unique minimal element."""
    layer = "strata"


# --------------------------------------------------------------- landau layer

class AmbiguousClassification(OrbitscopeError):
    """Near-fix candidate set is not a subgroup at the given tolerance."""
    layer = "landau"


class NoConvergence(OrbitscopeError):
    """No minimization start reached the gradient tolerance."""
    layer = "landau"


class StabilityViolation(OrbitscopeError):
    """A descent escaped the search region: the potential appears unbounded below."""
    layer = "landau"


class UnknownParameter(OrbitscopeError):
    """A coefficient value was supplied for a parameter the model lacks."""
    layer = "landau"


# ------------------------------------------------------------ reduction layer

class VerificationFailed(OrbitscopeError):
    """The exact composition oracle found a residual term through the truncation."""
    layer = "reduction"


# ------------------------------------------------------------- dynamics layer

class NonFiniteState(OrbitscopeError):
    """Trajectory left the floating-point domain."""
    layer = "dynamics"


class MonotonicityViolation(OrbitscopeError):
    """Descent flow increased the potential beyond tolerance."""
    layer = "dynamics"


# ------------------------------------------------------------------ cli layer

class SpecParseError(OrbitscopeError):
    """A group-spec input file is missing, malformed, or inconsistent."""
    layer = "cli"
