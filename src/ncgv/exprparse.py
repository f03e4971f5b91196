"""Parsing and printing of scalar expressions in s, q = s^2 and named parameters.

Grammar: integers, names, + - * / ^ and parentheses; exponents are integers
k with |k| <= MAX_EXPONENT.  Used by all structured-text inputs
(presentations, R-matrices, characters, calculi), which write a polynomial as
a term list [{"coeff": expression, "word": "g1 g2 ..."}].
"""

from __future__ import annotations

import re
import sys

from .scalars import ONE, Q, QScalar, S, ZERO

# The cost of a^k grows with the size of the result, so an unbounded exponent
# in any scalar input would stall its loader; no shipped exponent is above 5.
MAX_EXPONENT = 256

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
    def __init__(self, tokens, env):
        self.toks = tokens
        self.i = 0
        self.env = env

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
        if tok in self.env:
            return self.env[tok]
        raise ScalarParseError(f"unknown symbol {tok!r}")


def base_env(params=None):
    env = {"s": S, "q": Q}
    if params:
        env.update(params)
    return env


def parse_scalar(text, env=None):
    """Parse a scalar expression; env maps names to QScalar values.  Every
    expression without a value, a division by zero among them, raises
    ScalarParseError."""
    if env is None:
        env = base_env()
    toks = _tokenize(str(text))
    if not toks:
        raise ScalarParseError("empty expression")
    p = _Parser(toks, env)
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


def scalar_to_str(x):
    """Canonical, re-parseable rendering of a QScalar."""
    return repr(x)


def terms_from_doc(items, env):
    """{word: coefficient} of a term list; a repeated word adds up."""
    out = {}
    for t in items:
        w = tuple(t["word"].split())
        out[w] = out.get(w, ZERO) + parse_scalar(t["coeff"], env)
    return out


def terms_to_doc(terms):
    """Term list of (word, coefficient) pairs, in the order given."""
    return [{"coeff": scalar_to_str(c), "word": " ".join(w)} for w, c in terms]
