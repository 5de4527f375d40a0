"""Exception types shared across the package."""


class NearcutError(Exception):
    """Base class for package errors.

    `witness` carries the offending object (a cut mask, a pair of masks, ...)
    when one is available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InputError(NearcutError):
    """Malformed instance data or invalid operation arguments."""


class LimitError(NearcutError):
    """A fixed size limit was exceeded: the exhaustive node limit, the cut
    table memory budget, the augmentation stage count, the flex level count,
    the generated edge count or the oracle edge limit."""


class PreconditionError(NearcutError):
    """A documented operation precondition does not hold."""


class InfeasibleError(NearcutError):
    """No feasible solution exists; `witness` names an uncoverable cut."""


class BudgetError(NearcutError):
    """Search aborted: the node budget ran out before optimality was proven."""


class InvariantError(NearcutError):
    """A runtime-verified structural guarantee failed."""
