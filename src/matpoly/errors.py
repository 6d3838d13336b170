"""Exception taxonomy shared by all modules.

Domain errors (``BadParams``, ``TooLarge``) reject bad or oversized input
up front.  Exactness errors (``NotDivisible``, ``BadConstantTerm``) signal
that an exactness guarantee failed mid computation; when an identity
promises divisibility, hitting one of these means the input violated the
identity's hypotheses or there is a bug, so they are never silently
swallowed.  Series coefficients are integers by construction, so no
integrality error exists.  ``BudgetExceeded`` is raised by
cooperatively time-limited computations.
"""


class MatpolyError(Exception):
    """Base class for all library errors."""


class BadParams(MatpolyError):
    """Arguments outside an operation's documented domain."""


class TooLarge(MatpolyError):
    """Input exceeds a hard enumeration guard (work would be 2^|E|-ish)."""


class NotDivisible(MatpolyError):
    """An exact polynomial division left a nonzero remainder."""


class BadConstantTerm(MatpolyError):
    """Series log/exp called with an inadmissible constant term."""


class BudgetExceeded(MatpolyError):
    """A time-budgeted computation ran past its deadline."""
