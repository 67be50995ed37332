"""Exception types shared across the package.

Every failed hypothesis is a HypothesisError: the finiteness, regularity
and commutation failures subclass it, and the CLI maps the one base onto
exit code 3.  HypothesisError is a ValueError, and SpecError and any other
ValueError map onto exit code 2.
"""


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class HypothesisError(ValueError):
    """The input does not satisfy a hypothesis of the computation asked
    for (e.g. 'verify diagonal' on a non-diagonal map)."""


class NotFiniteLengthError(HypothesisError):
    """A finiteness hypothesis fails: a quotient has infinite length, an
    endomorphism is not of finite length, or a sequence is not primary to
    the maximal ideal."""


class NotRegularError(HypothesisError):
    """An operation that is only valid over a regular ring was invoked on a
    proper quotient."""


class SquareCommutationError(HypothesisError):
    """A transfer square does not commute."""


class SpecError(ValueError):
    """A ring specification file is malformed; the message is anchored to
    the offending line."""
