"""Exception taxonomy shared by all modules.

Domain errors (``BadParams``, ``TooLarge``) reject bad or oversized input
up front.  Exactness errors (``NotDivisible``, ``BadConstantTerm``) signal
that an exactness guarantee failed mid computation; when an identity
promises divisibility, hitting one of these means the input violated the
identity's hypotheses or there is a bug, so they are never silently
swallowed.  Series coefficients are integers by construction, so no
integrality error exists.  ``BudgetExceeded`` is raised by
cooperatively time-limited computations, by ``_check_deadline`` on a
deadline that ``_deadline`` made from a budget (BadParams unless it is
finite and >= 0).
"""

from math import inf
from time import monotonic


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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and monotonic() > deadline:
        raise BudgetExceeded("subset scan ran past its deadline")


def _deadline(budget_s: float | None) -> float | None:
    """monotonic() + budget_s, or None; BadParams unless 0 <= budget_s < inf."""
    if budget_s is not None and not 0 <= budget_s < inf:
        raise BadParams(f"a budget must be finite and >= 0 seconds, got {budget_s}")
    return None if budget_s is None else monotonic() + budget_s
