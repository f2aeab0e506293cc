"""Exception types shared across the package."""


class ChiralFlowError(Exception):
    """Base class for all chiralflow errors."""


class SpinOverflow(ChiralFlowError):
    """More excitations requested than spin-1/2 sites can hold."""


class CapacityOverflow(ChiralFlowError):
    """Per-site boson cap leaves the requested subspace empty."""


class SpecMismatch(ChiralFlowError):
    """A network term references a site outside the declared network."""


class NonHermitian(ChiralFlowError):
    """Matrix handed to a Hermitian-only routine violates symmetry."""


class BadGauge(ChiralFlowError):
    """Custom gauge data is inconsistent with the requested network."""


class NotDerived(ChiralFlowError):
    """No closed-form coupling set is known for the requested size."""


class ProfileLength(ChiralFlowError):
    """Coupling profile length does not match the ladder size."""


class DimensionMismatch(ChiralFlowError):
    """Operands have incompatible dimensions."""


class OutOfGrid(ChiralFlowError):
    """Requested time lies outside the trajectory grid."""


class EmptyWindow(ChiralFlowError):
    """Trajectory window contains no usable samples."""


class NoPeaks(ChiralFlowError):
    """No node population ever exceeds the peak threshold."""


class SingularProjection(ChiralFlowError):
    """Projector construction failed (invalid corner labels)."""


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
