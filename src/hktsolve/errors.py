"""Exception types used across the package."""


class HktError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HktError):
    """Malformed input data, options, or configuration files."""


# ---------------------------------------------------------------------------
# structure constants and frames

class JacobiViolation(HktError):
    """The given structure constants do not satisfy the Jacobi identity."""


class IndexOutOfRange(HktError):
    """A basis index lies outside the declared dimension."""


class DimensionNotMultipleOf4(HktError):
    """Quaternionic frames need a real dimension divisible by four."""


class DimensionMismatch(HktError):
    """Two objects that must share a dimension do not."""


class NotUnitary(HktError):
    """The frame is not orthonormal for the given metric."""


class PairingNotInvolutive(HktError):
    """The second complex structure does not pair the frame vectors."""


class NonClosedBracket(HktError):
    """The holomorphic frame is not closed under the Lie bracket."""


class NijenhuisViolation(HktError):
    """An integrability identity on the structure constants fails."""


class BadAnnihilatedSet(HktError):
    """The annihilated index set is not an admissible foliation."""


# ---------------------------------------------------------------------------
# symbolic reduction

class OrderOverflow(HktError):
    """A derivative beyond second order of the potential was requested."""


class NotPerfectSquareDecomposition(HktError):
    """The expanded ratio does not match the verified normal form."""


class NonBasicResidue(HktError):
    """A quantity that must be constant along the foliation is not."""


# ---------------------------------------------------------------------------
# numerics

class ShapeMismatch(HktError):
    """Grid data with inconsistent shapes was combined."""


class LinearSolveFailure(HktError):
    """A linear system could not be solved to the requested accuracy."""


class DampingExhausted(HktError):
    """Step halving failed to produce a residual decrease."""


class BPositivityLost(HktError):
    """The normalization constant left the positive half line."""


class MaxItersExceeded(HktError):
    """The iteration budget ran out before the tolerance was met."""


class StepUnderflow(HktError):
    """The continuation step fell below the configured minimum."""


class NonpositiveDensity(HktError):
    """A density that must stay positive touched zero or went negative."""
