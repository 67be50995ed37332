"""Exception types shared across the package.

The CLI maps these onto exit codes: the hypothesis-style failures
(NotFiniteLengthError, NotRegularError, SquareCommutationError,
HypothesisError) -> 3, SpecError and any other ValueError -> 2.
"""


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class NotFiniteLengthError(ValueError):
    """A finiteness hypothesis fails: a quotient has infinite length, an
    endomorphism is not of finite length, or a sequence is not primary to
    the maximal ideal."""


class NotRegularError(ValueError):
    """An operation that is only valid over a regular ring was invoked on a
    proper quotient."""


class SquareCommutationError(ValueError):
    """A transfer square does not commute."""


class HypothesisError(ValueError):
    """A verification suite was pointed at input that does not satisfy the
    suite's hypothesis (e.g. 'verify diagonal' on a non-diagonal map)."""


class SpecError(ValueError):
    """A ring specification file is malformed; the message is anchored to
    the offending line."""
