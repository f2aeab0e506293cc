"""Exception types shared across the package."""


class ChiralFlowError(Exception):
    """Base class for all chiralflow errors."""


class CapacityOverflow(ChiralFlowError):
    """Per-site occupation cap leaves the requested subspace empty."""


class SpecMismatch(ChiralFlowError):
    """A network term references a site outside the declared network."""


class BadGauge(ChiralFlowError):
    """Custom gauge data is inconsistent with the requested network."""


class DimensionMismatch(ChiralFlowError):
    """Operands have incompatible dimensions."""


class EmptyWindow(ChiralFlowError):
    """Trajectory window contains no usable samples."""


class NoPeaks(ChiralFlowError):
    """No node population ever exceeds the peak threshold."""


class NotSpin(ChiralFlowError):
    """Operation requires a spin (hard-core) network."""


class BadInitial(ChiralFlowError):
    """Unknown initial-state selector."""


class OutOfRange(ChiralFlowError):
    """Argument outside the supported range."""


class StepTooLarge(ChiralFlowError):
    """Integrator step too coarse for the fastest drive frequency."""


class ConfigError(ChiralFlowError, ValueError):
    """Run configuration or a study argument failed validation."""


class ProfileLength(ConfigError):
    """Coupling profile length does not match the ladder size."""
