"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numerical failures -> 3.
"""


class RscfError(Exception):
    """Base class for all package errors."""


class DataError(RscfError):
    """Problems with input files or id spaces."""


class NumericalError(RscfError):
    """Non-finite values or diverging optimization."""


class MalformedLine(DataError):
    def __init__(self, path, line_number, reason="expected 3 fields"):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {reason}")


class DuplicateRelation(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"relation assigned to more than one group: {name!r}")


class TooFewRelations(DataError):
    def __init__(self, have, want):
        super().__init__(f"need at least {want} relations to bucket, have {have}")


class UnknownRelation(DataError):
    pass


class GoldOutOfRange(DataError):
    pass


class TargetOutOfRange(DataError):
    pass


class EmptySplit(DataError):
    pass


class ShapeMismatch(RscfError):
    pass


class InvalidScheme(RscfError):
    pass


class OddDimension(ShapeMismatch):
    pass


class UnsupportedModel(RscfError):
    pass


class NoFilter(RscfError):
    pass


class DegenerateCentroid(RscfError):
    pass


class SingleCluster(RscfError):
    pass


class NonFiniteLoss(NumericalError):
    pass


class NonFiniteGradient(NumericalError):
    pass


class DivergedLoss(NumericalError):
    def __init__(self, epoch, partial_report=None):
        self.epoch = epoch
        self.partial_report = partial_report
        super().__init__(f"loss became non-finite at epoch {epoch}")


class CheckpointError(RscfError):
    pass


class VersionMismatch(CheckpointError):
    pass


class ChecksumMismatch(CheckpointError):
    pass
