"""Exception hierarchy shared by all fundcomp modules."""


class FundcompError(Exception):
    """Base class for all numerical / assumption failures in fundcomp."""


class NyquistViolation(FundcompError):
    """Sampling rate too low for the highest frequency present."""


class ConstantModulus(FundcompError):
    """|f| is constant, so maxima analysis is degenerate by construction."""


class DegenerateMaximum(FundcompError):
    """A global maximum of |f| has vanishing second derivative."""


class DomainError(FundcompError):
    """Activation argument outside its admissible domain."""


class ZeroSignal(FundcompError):
    """An operation requiring a nonzero signal received all zeros."""


class ZeroDenominator(FundcompError):
    """An energy ratio denominator vanished."""


class EmptyBand(FundcompError):
    """A frequency band contains no spectrogram bin."""


class SignalTooShort(FundcompError):
    """Signal shorter than the analysis window."""


class QuadratureNonConvergence(FundcompError):
    """Adaptive quadrature exceeded its refinement budget."""


class RejectionOverflow(FundcompError):
    """Rejection sampling failed to produce an admissible draw."""


class InputFormatError(FundcompError):
    """Malformed or unsupported input file."""
