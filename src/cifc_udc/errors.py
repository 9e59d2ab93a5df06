"""Exception taxonomy shared across the package.

Every domain error raised by the library derives from :class:`CifcError`,
so callers (including the CLI) can distinguish domain failures from bugs.
Parse- and usage-level problems derive from :class:`ParseError` /
:class:`UsageError` and map to a different CLI exit code.
"""


class CifcError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- pmf layer

class DuplicateLabel(CifcError):
    """A variable label appears more than once in a joint or factor."""


class NegativeEntry(CifcError):
    """A probability entry is negative beyond tolerance, or non-finite."""


class SumNotOne(CifcError):
    """A probability tensor (or conditional row) does not sum to one."""


class ShapeMismatch(CifcError):
    """Tensor shape disagrees with the declared cardinalities."""


class UnknownLabel(CifcError):
    """An operation referenced a variable label the object does not carry."""


class OverlappingGroups(CifcError):
    """Variable groups passed to an information measure are not disjoint."""


class DanglingConditioner(CifcError):
    """A factor conditions on a variable no earlier factor introduced."""


class RepeatedTarget(CifcError):
    """A factor re-introduces a variable that already exists in the joint."""


class NumericsError(CifcError):
    """An internal quantity left its mathematically valid range.

    Signals a bug (for example an information measure far below zero),
    never bad user input.
    """


# ------------------------------------------------------------ channel layer

class ParseError(CifcError):
    """A document could not be parsed into the expected structure."""


class RowSumError(CifcError):
    """A channel transition row does not sum to one."""


class IndexOutOfRange(CifcError):
    """A symbol index lies outside the declared cardinality."""


# ----------------------------------------------------------- polytope layer

class UnknownVariable(CifcError):
    """A linear-system operation referenced an unknown variable."""


class LeftoverVariables(CifcError):
    """Polygon extraction was asked to run on a system with extra variables."""


class EmptyList(CifcError):
    """An aggregate operation received no operands."""


class EmptyRegion(CifcError):
    """An operation that needs a nonempty region received an empty one."""


class ZeroDirection(CifcError):
    """A support-function direction was the zero vector."""


# --------------------------------------------------------- rate-region layer

class CardinalityMismatch(CifcError):
    """Factor cardinalities disagree with each other or with the channel."""


class InvalidFactor(CifcError):
    """A conditional factor does not match its required signature."""


class MissingVariable(CifcError):
    """A joint distribution lacks a variable an operation requires."""


class InadmissibleConstants(CifcError):
    """The compress-and-forward admissibility gate failed."""


class NotZChannel(CifcError):
    """The channel lacks the one-sided interference structure."""


class NotDegraded(CifcError):
    """The channel lacks the degradedness structure."""


class NotSemiDeterministic(CifcError):
    """The second output is not a deterministic function of the inputs."""


class HiRegimeFalsified(CifcError):
    """A sampled distribution violated the high-interference-gain conditions.

    Carries the falsifier report (``.report``) with the witness distribution.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ------------------------------------------------------------ size guards

class TooLarge(CifcError):
    """A computation would exceed its size guard: a brute-force oracle's
    enumeration limit, or the cell budget of the inner bound's joint."""


class GridTooLarge(TooLarge):
    """The lattice oracle would enumerate more points than its guard allows."""


class UsageError(CifcError):
    """Bad command-line usage detected outside argparse."""
