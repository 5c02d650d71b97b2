"""Exception hierarchy.

Three families matter to callers: :class:`ValidationError` (bad arguments or
inconsistent inputs), :class:`DataFormatError` (unreadable or malformed files)
and :class:`NumericalError` (a solver could not certify its result). The CLI
maps them to exit codes 3, 2 and 4 respectively.
"""


class DroBanditError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DroBanditError, ValueError):
    """Semantically invalid inputs."""


class DataFormatError(DroBanditError):
    """Unreadable or malformed input files."""


class NumericalError(DroBanditError, RuntimeError):
    """Solver failure (bracket, convergence, infeasibility)."""


# -- discrete distributions ------------------------------------------------

class NegativeWeight(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class NotNormalizable(ValidationError):
    pass


class SampleOffSupport(ValidationError):
    pass


class SupportMismatch(ValidationError):
    pass


# -- optimal transport -----------------------------------------------------

class DegenerateInput(ValidationError):
    pass


class TooFewSamples(ValidationError):
    pass


# -- dual solvers ------------------------------------------------------------

class NegativeLambda(ValidationError):
    pass


class NegativeEpsilon(ValidationError):
    pass


class InvalidTolerance(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class NonPositiveEta(ValidationError):
    pass


class InstanceTooLarge(ValidationError):
    pass


class InfeasiblePrimal(NumericalError):
    """The transport budget admits no feasible coupling."""


# -- policy evaluation -------------------------------------------------------

class MissingPair(ValidationError):
    """Some (context, action) pair has no logged samples.

    The offending pairs are listed in :attr:`pairs`.
    """

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        listed = ", ".join(f"({x}, {a})" for x, a in self.pairs)
        super().__init__(f"no samples for context/action pairs: {listed}")


class IncompleteTable(ValidationError):
    pass


class PolicyContextMismatch(ValidationError):
    pass


class EmptyExperiment(ValidationError):
    pass


# -- policy learning ---------------------------------------------------------

class UnknownContext(ValidationError):
    pass


class InvalidConfig(ValidationError):
    pass


class DimensionTooLarge(ValidationError):
    pass


# -- dataset ingestion -------------------------------------------------------

class SchemaMismatch(DataFormatError):
    pass


class UnparsableRow(DataFormatError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyDataset(DataFormatError):
    pass


class InvalidShift(ValidationError):
    pass
