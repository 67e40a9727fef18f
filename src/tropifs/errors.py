"""Exception types shared across the package."""


class TropifsError(Exception):
    """Base class for all library errors."""


class ConfigError(TropifsError):
    """Invalid argument, malformed configuration, or violated precondition."""


class DimensionError(TropifsError):
    """Shapes of operands do not line up."""


class PositiveCycleError(TropifsError):
    """A transition graph contains a cycle of strictly positive weight."""


class EmptySetError(TropifsError):
    """A set operation received an empty set where a nonempty one is required."""


class EmptySupportError(TropifsError):
    """A density with empty support (all entries bottom) was supplied."""


class NotContractiveError(TropifsError):
    """The estimated contraction constant is >= 1."""


class NormalizationError(TropifsError):
    """Weight normalization drifts from zero beyond tolerance."""


class EmptyAubryError(TropifsError):
    """No point passes the zero-diagonal test of the Aubry set."""


class NotConstantWeightError(TropifsError):
    """An operation requiring place-independent weights got a place-dependent system."""


class NonUniqueDensityError(TropifsError):
    """A unique invariant density was asked for where the system has several."""


class NonConvergenceError(TropifsError):
    """Fixed-point iteration exhausted its iteration budget."""


class DemonstrationError(TropifsError):
    """A demonstration pipeline failed one of its internal checks."""


class GenerationError(TropifsError):
    """Random system generation failed validation repeatedly."""


class InternalError(TropifsError):
    """An invariant the theory guarantees was violated; indicates a bug."""
