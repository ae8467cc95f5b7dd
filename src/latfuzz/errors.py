"""Exception types shared across the workbench, and the quoting of document
values in their messages."""


def quote(value) -> str:
    """The repr of a value from a document, for an error message: past 60
    characters it is cut there and ends in an ASCII "...", as stderr may
    not take other characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


class WorkbenchError(Exception):
    """Base class for all latfuzz errors."""


class LatticeBuildError(WorkbenchError):
    """Raised when a lattice description violates an axiom; the message
    names the first offending element pair or triple."""


class ElementError(WorkbenchError):
    """An element id or display string does not belong to the carrier."""


class MismatchError(WorkbenchError):
    """Two values live on different universes or different lattices."""


class PartitionError(WorkbenchError):
    """A block family fails the partition requirements; the message names
    the offending block or element."""


class CandidateError(WorkbenchError):
    """A morphism candidate is structurally ill-formed (e.g. dom(W) does
    not cover the source blocks)."""


class BudgetExceeded(WorkbenchError):
    """An operation would enumerate more fuzzy sets than the budget allows.

    `cardinality` carries the exact size that was requested.
    """

    def __init__(self, cardinality: int, budget: int, what: str = "enumeration"):
        self.cardinality = cardinality
        self.budget = budget
        super().__init__(
            f"{what} requires {cardinality} evaluations, over budget {budget}"
        )


class DocumentError(WorkbenchError):
    """An instance document fails to parse or resolve."""


class PreconditionError(WorkbenchError):
    """A check was invoked on inputs that do not satisfy its stated
    precondition."""
