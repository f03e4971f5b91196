"""Parsing of scalar expressions in s and q = s^2 (a QScalar prints itself,
re-parseably, as its repr).

Grammar: integers, the names s and q, + - * / ^ and parentheses; exponents
are integers k with |k| <= MAX_EXPONENT.  Used by every scalar input: the
R-matrix, the characters, the coefficients of a serialized calculus and the
``--coeff`` of ``ncgv eval``.
"""

from __future__ import annotations

import re
import sys

from .scalars import ONE, Q, QScalar, S

# The cost of a^k grows with the size of the result, so an unbounded exponent
# in any scalar input would stall its loader; no shipped exponent is above 5.
MAX_EXPONENT = 256

_NAMES = {"s": S, "q": Q}

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


class ScalarParseError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ScalarParseError(f"bad token at {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor(self):
        if self.peek() == "-":
            self.next()
            return -self.factor()
        if self.peek() == "+":
            self.next()
            return self.factor()
        val = self.atom()
        if self.peek() == "^":
            self.next()
            val = val ** self.int_exponent()
        return val

    def int_exponent(self):
        sign = 1
        while self.peek() in ("-", "+"):
            if self.next() == "-":
                sign = -sign
        tok = self.next()
        if tok == "(":
            k = self.int_exponent()
            if self.next() != ")":
                raise ScalarParseError("unclosed exponent parenthesis")
            return sign * k
        if tok is None or not tok.isdigit():
            raise ScalarParseError("integer exponent expected")
        # compare digit counts first: int() refuses strings of over 4300 digits
        digits = tok.lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(tok) > MAX_EXPONENT:
            raise ScalarParseError(f"exponent {'-' if sign < 0 else ''}{digits} is out "
                                   f"of range (|k| <= {MAX_EXPONENT})")
        return sign * int(tok)

    def atom(self):
        tok = self.next()
        if tok == "(":
            val = self.expr()
            if self.next() != ")":
                raise ScalarParseError("unbalanced parenthesis")
            return val
        if tok is None:
            raise ScalarParseError("unexpected end of expression")
        if tok.isdigit():
            # int() refuses strings of more digits than this; 0, or a Python
            # before 3.10.7, which has no such limit, means none
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and len(tok) > limit:
                raise ScalarParseError(f"integer literal of {len(tok)} digits is out "
                                       f"of range (at most {limit} digits)")
            return QScalar.from_int(int(tok))
        if tok in _NAMES:
            return _NAMES[tok]
        raise ScalarParseError(f"unknown symbol {tok!r}")


def parse_scalar(text):
    """Parse a scalar expression in s and q.  Every expression without a
    value, a division by zero among them, raises ScalarParseError."""
    toks = _tokenize(str(text))
    if not toks:
        raise ScalarParseError("empty expression")
    p = _Parser(toks)
    try:
        val = p.expr()
    except ZeroDivisionError:
        raise ScalarParseError(f"division by zero in {text!r}") from None
    except RecursionError:
        raise ScalarParseError("expression nested too deeply") from None
    if p.peek() is not None:
        raise ScalarParseError(f"trailing input {p.toks[p.i:]!r}")
    if not isinstance(val, QScalar):
        val = ONE * val
    return val

