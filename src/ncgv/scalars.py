"""Exact arithmetic in the rational function field Q(s), where q = s^2.

A scalar is a fraction of integer-coefficient polynomials in s, kept in
canonical form: gcd(num, den) = 1 (including integer content) and the
denominator has positive leading coefficient.  Equality is representation
equality.  Storing s rather than q keeps every half-integer power of q
polynomial.

Almost every scalar the verifier meets is a Laurent polynomial, with
denominator s^k, and such denominators take a shorter path:

- ``_pmul`` with a monomial operand c s^k (on either side) is a shift and a
  scale of the other operand; only two non-monomials take the schoolbook
  product.
- ``QScalar(num, den)`` with a monomial denominator cancels the
  s-valuation; if the denominator is then +-s^k it only fixes the sign and
  stops.  The content of +-s^k is 1, so the content pass could not cancel
  anything.
- ``*`` and ``+`` of two scalars over s^a and s^b form num1 num2 / s^(a+b),
  or the shifted numerators over s^max(a, b), cancel the s-valuation and
  build the result as canonical: s is the only prime factor of s^k, so its
  power is all a common factor with the numerator can be.

Every other shape (a general denominator, or c s^k with c != +-1) takes the
polynomial gcd and the content pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

REAL = "REAL"
UNIT = "UNIT"

# ---------------------------------------------------------------------------
# dense integer polynomials: tuples of ints, ascending degree, no trailing 0
# ---------------------------------------------------------------------------

# Coefficient tuples are built from lists, not generators: CPython
# over-allocates tuple(generator) and resizes it, and the resized tuples pile
# up in its tuple free lists (about 2 MB of peak memory on property_random).


def _trim(cs):
    """A tuple or list of coefficients as a tuple without trailing zeros."""
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs) if n == len(cs) else tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple([-c for c in a])


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if not a or not b:
        return ()
    if any(a[:-1]):
        if any(b[:-1]):
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] += ca * cb
            return _trim(out)
        a, b = b, a
    # a = c s^k: a shift and a scale of b
    c = a[-1]
    if c != 1:
        b = tuple([c * x for x in b])
    return (0,) * (len(a) - 1) + b


def _pshift(a, k):
    if not a:
        return ()
    return (0,) * k + tuple(a)


# s^k for small k, shared by all scalars over s^k rather than built for each
# one, which keeps them small in the caches
_S_POWERS = tuple(_pshift((1,), k) for k in range(64))


def _s_poly(k):
    """The polynomial s^k, k >= 0."""
    return _S_POWERS[k] if k < len(_S_POWERS) else _pshift((1,), k)


def _pcontent(a):
    g = 0
    for c in a:
        g = _igcd(g, abs(c))
    return g


def _pprimitive(a):
    if not a:
        return (), 0
    g = _pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a), g


def _pdiv_exact(a, b):
    """Exact division in Z[s]; raises if not divisible."""
    if not a:
        return ()
    r = list(a)
    lb = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < i + len(b):
            continue
        top = r[-1]
        if top % lb:
            raise ArithmeticError("inexact polynomial division")
        coef = top // lb
        q[i] = coef
        for j in range(len(b)):
            r[i + j] -= coef * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _pseudo_rem(a, b):
    """Integer pseudo-remainder of a by b (content is irrelevant here)."""
    lb = b[-1]
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            return r
        top = r.pop()
        r = [lb * x for x in r]
        off = len(r) - (len(b) - 1)
        for j in range(len(b) - 1):
            r[off + j] -= top * b[j]


def _pgcd(a, b):
    """Primitive gcd in Z[s] with positive leading coefficient, via a
    primitive pseudo-remainder sequence (all-integer)."""
    a = _pprimitive(a)[0] if a else ()
    b = _pprimitive(b)[0] if b else ()
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, (_pprimitive(r)[0] if any(r) else ())
    return a


def _peval(a, s):
    v = 0j
    for c in reversed(a):
        v = v * s + c
    return v


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}s" if i == 1 else f"{mag}s^{i}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


# ---------------------------------------------------------------------------


class QScalar:
    """Element of Q(s) in canonical fraction form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), canonical=False):
        if canonical:
            self.num = tuple(num)
            self.den = tuple(den)
            return
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(s)")
        if not num:
            self.num, self.den = (), (1,)
            return
        if den == (1,):
            self.num, self.den = num, den
            return
        if not any(den[:-1]):
            # monomial denominator c*s^k: cancel the s-valuation directly
            num, k = _cancel_s(num, len(den) - 1)
            c = den[-1]
            if abs(c) == 1:
                # +-s^k has content 1: only the sign is left to fix
                self.num = _pneg(num) if c < 0 else num
                self.den = _s_poly(k)
                return
            den = _pshift((c,), k)
        else:
            g = _pgcd(num, den)
            if g != (1,):
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
        c = _igcd(_pcontent(num), _pcontent(den))
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls((n,) if n else ())

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return cls((fr.numerator,) if fr.numerator else (), (fr.denominator,))

    @classmethod
    def s_power(cls, k):
        """s^k for any integer k."""
        if k >= 0:
            return cls(_s_poly(k), (1,), canonical=True)
        return cls((1,), _s_poly(-k), canonical=True)

    @classmethod
    def q_power(cls, k):
        return cls.s_power(2 * k)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == (1,) and self.den == (1,)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == (1,) and other.den == (1,):
            return QScalar(_padd(self.num, other.num), (1,), canonical=True)
        a, b = _s_exponent(self.den), _s_exponent(other.den)
        if a >= 0 and b >= 0:
            m = max(a, b)
            num = _padd(_pshift(self.num, m - a), _pshift(other.num, m - b))
            return _over_s_power(num, m) if num else ZERO
        return QScalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return QScalar(_pneg(self.num), self.den, canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.num == (1,) and self.den == (1,):
            return other
        if other.num == (1,) and other.den == (1,):
            return self
        if self.den == (1,) and other.den == (1,):
            return QScalar(_pmul(self.num, other.num), (1,), canonical=True)
        a, b = _s_exponent(self.den), _s_exponent(other.den)
        if a >= 0 and b >= 0:
            return _over_s_power(_pmul(self.num, other.num), a + b)
        return QScalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(s)")
        return QScalar(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k):
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        out = ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    # -- star ------------------------------------------------------------

    def star(self, mode=REAL):
        """Conjugation: identity for REAL, s -> s^{-1} for UNIT.

        Rational coefficients are self-conjugate in both modes.
        """
        if mode == REAL:
            return self
        if mode != UNIT:
            raise ValueError(f"unknown star mode {mode!r}")
        if not self.num:
            return self
        dn = len(self.num) - 1
        dd = len(self.den) - 1
        num = _trim(self.num[::-1])
        den = _trim(self.den[::-1])
        if dd >= dn:
            num = _pshift(num, dd - dn)
        else:
            den = _pshift(den, dn - dd)
        return QScalar(num, den)

    # -- numerics / io -----------------------------------------------------

    def evaluate(self, s):
        """Numeric value at s = given complex number."""
        dv = _peval(self.den, s)
        return _peval(self.num, s) / dv

    def __repr__(self):
        if self.den == (1,):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"


def _s_exponent(den):
    """k when the polynomial ``den`` is s^k, else -1."""
    return len(den) - 1 if den[-1] == 1 and not any(den[:-1]) else -1


def _cancel_s(num, k):
    """(num / s^v, k - v) for the largest v <= k such that s^v divides the
    nonzero polynomial num."""
    v = 0
    while v < k and num[v] == 0:
        v += 1
    return num[v:], k - v


def _over_s_power(num, k):
    """The canonical scalar num / s^k, for a nonzero polynomial num and
    k >= 0: only a common power of s can cancel."""
    num, k = _cancel_s(num, k)
    return QScalar(num, _s_poly(k), canonical=True)


def _coerce(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.from_int(x)
    if isinstance(x, Fraction):
        return QScalar.from_fraction(x)
    return NotImplemented


ZERO = QScalar(())
ONE = QScalar((1,))
S = QScalar.s_power(1)
Q = QScalar.q_power(1)

