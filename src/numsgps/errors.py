"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` used by the CLI: 2 for invalid input,
3 for an exceeded budget/ceiling/width, 4 for an internal invariant
violation (a bug, never the caller's fault).
"""


class NumsgpsError(Exception):
    exit_code = 1


class InvalidInput(NumsgpsError):
    exit_code = 2


class NotNumerical(InvalidInput):
    """Generators with gcd != 1 generate a proper submonoid, not a numerical semigroup."""


class NotClosed(InvalidInput):
    """The complement of the proposed gap set is not closed under addition."""

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"complement not closed: {a} + {b} = {a + b} is a gap")


class NotMember(InvalidInput):
    pass


class WholeN(InvalidInput):
    """Operation undefined for the semigroup of all naturals."""


class NotMinimalGenerator(InvalidInput):
    pass


class NotAdjoinable(InvalidInput):
    def __init__(self, x: int, reason: str):
        self.reason = reason
        super().__init__(f"cannot adjoin {x}: {reason}")


class NotCoprime(InvalidInput):
    pass


class NotAMultiple(InvalidInput):
    pass


class NotMaximal(InvalidInput):
    pass


class BoundsMissing(InvalidInput):
    """An unbounded fiber enumeration refused; at least one truncation
    bound is required."""


class NotMdSet(InvalidInput):
    pass


class DIsOne(InvalidInput):
    pass


class NotPairwiseCoprime(InvalidInput):
    pass


class TooSmall(InvalidInput):
    pass


class LimitExceeded(NumsgpsError):
    exit_code = 3


class CeilingExceeded(LimitExceeded):
    pass


class Overflow(LimitExceeded):
    """A computed value left the supported 64-bit integer range."""


class InternalInvariantError(NumsgpsError):
    exit_code = 4
