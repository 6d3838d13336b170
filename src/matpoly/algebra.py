"""Exact polynomial arithmetic kernel.

Python ints carry every coefficient (arbitrary precision, so no overflow
is possible) and every operation in this module is exact; evaluation is
also exact at rational arguments.

Representations:

* ``IntPoly``: dense univariate polynomial over the integers; a tuple of
  coefficients in ascending degree with no trailing zeros.  The zero
  polynomial is the empty tuple and reports degree -1.
* ``BiPoly``: sparse bivariate polynomial over the integers; a dict
  mapping ``(deg_x, deg_y)`` to nonzero coefficients.
* exponential power series in ``z``: a list whose entry i is i! times
  the coefficient of ``z^i``, as an ``IntPoly``, so log and exp are
  integer recurrences with no division.

Theorem 2, chi_{M*} = (-1)^|E| x^(-r(E)) sum_A (1-x)^|A| chi_{M/A},
ends every route to chi of a dual in ``_one_minus_x_sum`` and
``_signed_div``.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .errors import BadConstantTerm, BadParams, NotDivisible


class IntPoly:
    """Dense univariate integer polynomial, immutable.

    ``coeffs[i]`` is the coefficient of ``x^i``; trailing zeros are
    stripped on construction so equal polynomials compare equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: int, deg: int) -> "IntPoly":
        if deg < 0:
            raise BadParams("monomial degree must be >= 0")
        return cls((0,) * deg + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def scale(self, c: int) -> "IntPoly":
        if c == 0:
            return IntPoly()
        return IntPoly(tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise BadParams("shift wants k >= 0; use exact_div_monomial to lower")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __pow__(self, k: int) -> "IntPoly":
        return poly_pow(self, k)

    def pack(self, w: int) -> int:
        """The value at x = 2^w (Kronecker substitution): one int whose
        w-bit balanced digits are the coefficients, exact while every
        |coefficient| < 2^(w-1).  Sums of packed values are packed sums."""
        return self(1 << w)

    @classmethod
    def unpack(cls, v: int, w: int) -> "IntPoly":
        """Inverse of ``pack``: read v's w-bit digits in [-2^(w-1), 2^(w-1))."""
        if w < 2:  # a 1-bit balanced digit of 1 reads -1, and v never shrinks
            raise BadParams("unpack wants a width of at least 2 bits")
        mask, half = (1 << w) - 1, 1 << (w - 1)
        cs = []
        while v:
            c = v & mask
            if c >= half:
                c -= 1 << w
            cs.append(c)
            v = (v - c) >> w
        return cls(cs)

    def __call__(self, v):
        """Evaluate by Horner; exact for int and rational arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __str__(self) -> str:
        cs = self.coeffs
        return _join_terms(
            (cs[d], _power("x", d)) for d in range(len(cs) - 1, -1, -1) if cs[d]
        )

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


def _power(var: str, e: int) -> str:
    return "" if not e else var if e == 1 else f"{var}^{e}"


def _join_terms(terms) -> str:
    """Nonzero (c, monomial) terms as "c1m1 + c2m2 - ...", |c| = 1 left
    out before a monomial; "0" for none."""
    parts = []
    for c, mono in terms:
        body = mono if mono and abs(c) == 1 else f"{abs(c)}{mono}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts) or "0"


def poly_pow(a: IntPoly, k: int) -> IntPoly:
    """a**k for integer k >= 0.

    A binomial base c0 + c1 x gives the row C(k,j) c0^(k-j) c1^j
    directly; every other base is raised by repeated squaring."""
    if k < 0:
        raise BadParams("negative polynomial power")
    if len(a.coeffs) == 2:
        c0, c1 = a.coeffs
        if c0 == 0:
            return IntPoly.monomial(c1**k, k)
        row = [c0**k] + [0] * k
        for j in range(k):  # the division is exact: the quotient is the next term
            row[j + 1] = row[j] * (k - j) * c1 // ((j + 1) * c0)
        return IntPoly(row)
    result = IntPoly.one()
    base = a
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def exact_div_monomial(p: IntPoly, k: int) -> IntPoly:
    """Divide p by x^k, raising NotDivisible unless x^k | p exactly.

    The zero polynomial divides by anything.
    """
    if k < 0:
        raise BadParams("monomial divisor degree must be >= 0")
    if p.is_zero():
        return p
    if len(p.coeffs) <= k or any(c != 0 for c in p.coeffs[:k]):
        raise NotDivisible(f"x^{k} does not divide {p}")
    return IntPoly(p.coeffs[k:])


def _one_minus_x_sum(groups: dict) -> IntPoly:
    """sum_k (1-x)^k * groups[k]."""
    return sum(
        (poly_pow(IntPoly((1, -1)), k) * p for k, p in groups.items()), IntPoly.zero()
    )


def _signed(k: int, p):
    """(-1)^k p."""
    return -p if k % 2 else p


def _signed_div(p: IntPoly, s: int, k: int) -> IntPoly:
    """(-1)^s p / x^k; NotDivisible unless x^k | p."""
    return exact_div_monomial(_signed(s, p), k)


def falling_factorial(m: int) -> IntPoly:
    """x(x-1)...(x-m+1) as an IntPoly; the empty product (m=0) is 1."""
    if m < 0:
        raise BadParams("falling factorial wants m >= 0")
    row = [1]
    for j in range(m):  # row *= (x - j)
        row = [a - j * b for a, b in zip([0] + row, row + [0])]
    return IntPoly(row)


def substitute_one_minus_x(p: IntPoly) -> IntPoly:
    """p(1 - x) by the classical O(d^2) Taylor shift: each pass of running
    sums over the reversed coefficients divides by (y - 1) and yields the
    next coefficient of p(y + 1); y = -x then flips the odd ones."""
    rev = list(reversed(p.coeffs))
    out = []
    while rev:
        rev = list(accumulate(rev))
        out.append(rev.pop())
    return IntPoly([-c if i % 2 else c for i, c in enumerate(out)])


class BiPoly:
    """Sparse bivariate integer polynomial in variables (x, y).

    ``terms`` maps (deg_x, deg_y) to a nonzero int coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for key, c in dict(terms).items():
                if c:
                    t[(int(key[0]), int(key[1]))] = c
        self.terms = t

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        res = BiPoly.__new__(BiPoly)
        res.terms = out
        return res

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        res = BiPoly.__new__(BiPoly)
        res.terms = out
        return res

    def swap_vars(self) -> "BiPoly":
        """p(y, x)."""
        return BiPoly({(j, i): c for (i, j), c in self.terms.items()})

    def substitute(self, px: IntPoly, py: IntPoly) -> IntPoly:
        """p(px(z), py(z)) as a univariate polynomial, exactly: each
        y-column by Horner in px, then Horner in py over the columns."""
        cols: dict = {}
        for (i, j), c in self.terms.items():
            cols.setdefault(j, {})[i] = c
        acc = IntPoly.zero()
        for j in range(max(cols, default=-1), -1, -1):
            col = cols.get(j, {})
            cacc = IntPoly.zero()
            for i in range(max(col, default=-1), -1, -1):
                cacc = cacc * px + IntPoly.const(col.get(i, 0))
            acc = acc * py + cacc
        return acc

    def __str__(self) -> str:
        return _join_terms(
            (c, "*".join(filter(None, (_power("x", i), _power("y", j)))))
            for (i, j), c in sorted(self.terms.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"


def series_log(g: list) -> list:
    """log of a series with constant term exactly 1, to len(g) terms.

    From g' = g * (log g)' in the i!-scaled coefficients,
        g_m = sum_{k=1..m} C(m-1, k-1) l_k g_(m-k),
    and the k = m term is l_m itself (g_0 = 1), so l_m needs no division.
    """
    if not g or g[0] != IntPoly.one():
        raise BadConstantTerm("series_log needs constant term 1")
    l = [IntPoly()]
    for m in range(1, len(g)):
        acc = g[m]
        for k in range(1, m):
            if l[k] and g[m - k]:
                acc = acc - (l[k] * g[m - k]).scale(comb(m - 1, k - 1))
        l.append(acc)
    return l


def series_exp(h: list) -> list:
    """exp of a series with constant term exactly 0, to len(h) terms.

    From e' = h' * e for e = exp(h), in the i!-scaled coefficients:
        e_m = sum_{k=1..m} C(m-1, k-1) h_k e_(m-k).
    """
    if not h or h[0]:
        raise BadConstantTerm("series_exp needs constant term 0")
    e = [IntPoly.one()]
    for m in range(1, len(h)):
        acc = IntPoly()
        for k in range(1, m + 1):
            if h[k] and e[m - k]:
                acc = acc + (h[k] * e[m - k]).scale(comb(m - 1, k - 1))
        e.append(acc)
    return e
