"""Exception types shared across the toolkit."""


class ConfdopError(ValueError):
    """Base class for the errors this package raises for refused input.

    A ValueError, so callers that catch ValueError keep working.
    """


class SingularTransform(ConfdopError):
    """The conformal-factor denominator is within tolerance of zero."""


class DomainCrossing(ConfdopError):
    """The event lies beyond the transformation's singular surface."""


class SlopeSingular(ConfdopError):
    """The slope map denominator vanishes."""


class ZeroRadius(ConfdopError):
    """Operation requires r > 0."""


class StepDivergence(ConfdopError):
    """Flow integration state exceeded its divergence bound."""


class NotPastCone(ConfdopError):
    """Emission coordinates must lie on the past light cone (t < 0)."""


class ConfigInvalid(ConfdopError):
    """Simulation config failed validation; the message names the offending key."""


class ZeroRange(ConfdopError):
    """Residual rate is undefined at zero range."""


class DegenerateDesign(ConfdopError):
    """Fit requires at least two records with distinct ranges."""


class ZeroSigma(ConfdopError):
    """Noise sigmas must be uniformly positive (or uniformly zero)."""


class MalformedCsv(ConfdopError):
    """Tracking CSV does not conform to the record schema."""


class ManifestMismatch(ConfdopError):
    """Run manifest digests do not match the files on disk."""
