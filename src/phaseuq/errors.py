"""Exception types shared across the package.

Every error carries a stable ``code`` (the class name) that the command line
front end turns into a machine-parsable line and exit status.
"""


class PhaseUqError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NonFiniteInput(PhaseUqError):
    pass


class SizeMismatch(PhaseUqError):
    pass


class IndexOutOfRange(PhaseUqError):
    pass


class EmptyRegion(PhaseUqError):
    pass


class FrequencyOutOfGrid(PhaseUqError):
    pass


class ZeroBackground(PhaseUqError):
    pass


class InsufficientGrid(PhaseUqError):
    pass


class ZeroMeanImage(PhaseUqError):
    pass


class DegenerateRange(PhaseUqError):
    pass


class MaskTooSmall(PhaseUqError):
    pass


class CoverageGap(PhaseUqError):
    pass


class ShapeMismatch(PhaseUqError):
    pass


class EmptyDataset(PhaseUqError):
    pass


class DivergedLoss(PhaseUqError):
    pass


class NonPositiveSigma(PhaseUqError):
    pass


class MissingArtifact(PhaseUqError):
    pass


class ExistingArtifact(PhaseUqError):
    pass


class ConfigError(PhaseUqError):
    pass


class FormatError(PhaseUqError):
    pass


class DemoGateFailure(PhaseUqError):
    pass
