"""Parsing of scalar expressions in s and q = s^2 (a QScalar prints itself,
re-parseably, as its repr), for the R-matrix, the characters, the
coefficients of a serialized calculus and ``eval --coeff``.  Grammar:
integers, s and q, + - * / and parentheses, with ^ or ** for powers; an
exponent is an integer literal k, optionally signed or in parentheses, with
|k| <= MAX_EXPONENT; at most 200 nested parentheses; surrounding whitespace
is ignored.  Python's ``ast`` reads the text and a walker that accepts only
these nodes computes its value: the text is never evaluated.
"""

from __future__ import annotations

import ast
import operator
import re
import sys

from .scalars import Q, QScalar, S

# The cost of a^k grows with the size of the result, so an unbounded exponent
# in any scalar input would stall its loader; no shipped exponent is above 5.
MAX_EXPONENT = 256

_NAMES = {"s": S, "q": Q}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}
_SIGNS = {ast.UAdd: lambda x: x, ast.USub: operator.neg}


class ScalarParseError(ValueError):
    pass


def _digits(match):
    digits, limit = match.group(), getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:  # int() refuses more; 0 or Python < 3.10.7: no limit
        raise ScalarParseError(f"integer of {len(digits)} digits is out of range (max {limit})")
    return str(int(digits))  # without the leading zeros that Python refuses


def _exponent(node):
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        return _SIGNS[type(node.op)](_exponent(node.operand))
    if not (isinstance(node, ast.Constant) and type(node.value) is int):
        raise ScalarParseError("integer exponent expected")
    if node.value > MAX_EXPONENT:
        raise ScalarParseError(f"exponent {node.value} is out of range (|k| <= {MAX_EXPONENT})")
    return node.value


def _value(node):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return QScalar.from_int(node.value)
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        return _SIGNS[type(node.op)](_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_value(node.left), _value(node.right))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _value(node.left) ** _exponent(node.right)
    raise ScalarParseError(f"unexpected {ast.unparse(node)!r}")


def parse_scalar(text):
    """Parse a scalar expression in s and q.  Every expression without a
    value, a division by zero among them, raises ScalarParseError."""
    text = re.sub(r"\d+", _digits, " ".join(str(text).split()))
    if not re.fullmatch(r"[0-9sq+\-*/^() ]*", text):
        raise ScalarParseError(f"unexpected character in {text!r}")
    try:
        return _value(ast.parse(text.replace("^", "**"), mode="eval").body)
    except SyntaxError:
        raise ScalarParseError(f"cannot parse {text!r}") from None
    except ZeroDivisionError:
        raise ScalarParseError(f"division by zero in {text!r}") from None
    except (RecursionError, MemoryError):
        raise ScalarParseError("expression nested too deeply") from None
