"""Exception types shared across the package.

Every error carries a stable ``code`` used by the CLI for structured
diagnostics, and an optional ``address`` locating the offending element,
node, or field.
"""

from __future__ import annotations


class NeutroChoiceError(Exception):
    """Base class for all errors raised by this package."""

    code = "NeutroChoice"

    def __init__(self, message: str, *, address: str | None = None) -> None:
        super().__init__(message)
        self.address = address


class SumNotOneError(NeutroChoiceError):
    """Triplet components do not sum to exactly one."""

    code = "SumNotOne"


class OutOfRangeError(NeutroChoiceError):
    """A probability lies outside [0, 1]."""

    code = "OutOfRange"


class TieViolationError(NeutroChoiceError):
    """Two triplet components are equal; verdicts need a unique maximum."""

    code = "TieViolation"


class ThresholdOutOfRangeError(NeutroChoiceError):
    """Threshold probability lies outside [0, 1]."""

    code = "ThresholdOutOfRange"


class BoundTooSmallError(NeutroChoiceError):
    """Denominator bound admits no tie-free triplet."""

    code = "BoundTooSmall"


class RetryLimitError(NeutroChoiceError):
    """Rejection sampling hit its retry cap without a tie-free draw."""

    code = "RetryLimit"


class MissingAssignmentError(NeutroChoiceError):
    """An element or node has no triplet assigned."""

    code = "MissingAssignment"


class IndexOutOfRangeError(NeutroChoiceError):
    """A set index does not address any member of the family."""

    code = "IndexOutOfRange"


class InvalidChoiceError(NeutroChoiceError):
    """A classical choice map picks an element outside its set."""

    code = "InvalidChoice"


class PreconditionViolatedError(NeutroChoiceError):
    """The compensation capacity an operation relies on is absent."""

    code = "PreconditionViolated"


class DepthExceededError(NeutroChoiceError):
    """A string is longer than the tree's depth horizon."""

    code = "DepthExceeded"


class NodeNotInTreeError(NeutroChoiceError):
    """The addressed node is not a member of the tree."""

    code = "NodeNotInTree"


class EmptyTreeError(NeutroChoiceError):
    """The tree has no root (it may have no nodes at all) to build a path from."""

    code = "EmptyTree"


class InsufficientBranchingError(NeutroChoiceError):
    """Fewer distinct full-depth paths exist than were requested."""

    code = "InsufficientBranching"


class NotAMemberError(NeutroChoiceError):
    """The addressed set is not a member of the family."""

    code = "NotAMember"


class CompensationExhaustedError(NeutroChoiceError):
    """A member that needs a compensated successor can never receive one."""

    code = "CompensationExhausted"


class ParseError(NeutroChoiceError):
    """A document is not well-formed."""

    code = "ParseError"


class SchemaError(NeutroChoiceError):
    """A well-formed document violates its schema."""

    code = "SchemaError"
