"""Exception hierarchy for orbitscope.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map exceptions to stable, module-qualified error codes.
"""


class OrbitscopeError(Exception):
    """Base class for all orbitscope errors."""


# ---------------------------------------------------------------- group layer

class DimensionMismatch(OrbitscopeError):
    """Inputs disagree on ambient dimension."""


class NonInvertibleGenerator(OrbitscopeError):
    """A generator matrix is singular."""


class OrderCapExceeded(OrbitscopeError):
    """Group closure exceeded the element cap without terminating."""


class NotASubgroup(OrbitscopeError):
    """An index set is not closed under the group operation."""


class SubgroupCapExceeded(OrbitscopeError):
    """Subgroup enumeration exceeded the candidate cap."""


# ----------------------------------------------------------- polynomial layer

class KindMismatch(OrbitscopeError):
    """Mixed x-space and J-space polynomials in one operation."""


class PolynomialParseError(OrbitscopeError):
    """Text form of a polynomial does not follow the canonical format."""


# ------------------------------------------------------------ invariant layer

class CapTooLow(OrbitscopeError):
    """Degree cap ended the basis search before the algebra closed."""


class NotInvariant(OrbitscopeError):
    """Polynomial is not fixed by the group action."""


class NotExpressible(OrbitscopeError):
    """Invariant polynomial is outside the degree reach of the basis."""


# --------------------------------------------------------------- strata layer

class NoUniqueMinimum(OrbitscopeError):
    """The realized isotropy classes have no unique minimal element."""


# --------------------------------------------------------------- landau layer

class AmbiguousClassification(OrbitscopeError):
    """Near-fix candidate set is not a subgroup at the given tolerance."""


class NoConvergence(OrbitscopeError):
    """No minimization start reached the gradient tolerance."""


class StabilityViolation(OrbitscopeError):
    """Potential is not confining on the sampled sphere / search ball."""


class UnknownParameter(OrbitscopeError):
    """A coefficient value was supplied for a parameter the model lacks."""


# ------------------------------------------------------------ reduction layer

class SingularHomologicalSolve(OrbitscopeError):
    """Elimination would divide by a coefficient marked critical."""


class VerificationFailed(OrbitscopeError):
    """Numeric composition check fell short of the expected residual order."""


# ------------------------------------------------------------- dynamics layer

class NonFiniteState(OrbitscopeError):
    """Trajectory left the floating-point domain."""


class MonotonicityViolation(OrbitscopeError):
    """Descent flow increased the potential beyond tolerance."""


# ------------------------------------------------------------------ cli layer

class SpecParseError(OrbitscopeError):
    """A group-spec input file is missing, malformed, or inconsistent."""
