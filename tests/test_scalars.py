"""Field axioms and star behaviour of the exact scalar ring Q(s)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncgv.exprparse import parse_scalar, scalar_to_str
from ncgv.scalars import ONE, Q, QScalar, REAL, S, UNIT, ZERO

small_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=5)


def scalar_ops(x, y, op, mode=REAL):
    """Field operations dispatch; division by zero raises ZeroDivisionError."""
    if op == "add":
        return x + y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    if op == "star":
        return x.star(mode)
    raise ValueError(f"unknown op {op!r}")


def scalars():
    return st.builds(
        lambda n, d: QScalar(tuple(n), tuple(d)),
        small_polys,
        small_polys.filter(lambda d: any(d)),
    )


def test_canonical_form():
    x = QScalar((2, 2), (4,))
    assert x.num == (1, 1) and x.den == (2,)
    y = QScalar((0, -1), (0, 0, -1))  # -s / -s^2 = 1/s
    assert y.num == (1,) and y.den == (0, 1)


def test_basic_identities():
    q2 = Q * Q
    assert (ONE - q2) + q2 == ONE
    assert S * S == Q
    assert Q ** -1 == ONE / Q
    assert (Q - ONE) / (Q - ONE) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        scalar_ops(ONE, ZERO, "div")
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_star_modes():
    assert scalar_ops(Q, None, "star", REAL) == Q
    assert scalar_ops(Q, None, "star", UNIT) == Q ** -1
    x = (ONE + S) / (ONE - Q)
    assert x.star(UNIT).star(UNIT) == x
    assert x.star(REAL) == x


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(scalars())
def test_star_involution_unit(a):
    assert a.star(UNIT).star(UNIT) == a


@given(scalars(), scalars())
def test_star_multiplicative_unit(a, b):
    assert (a * b).star(UNIT) == a.star(UNIT) * b.star(UNIT)


@given(scalars())
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


def test_numeric_evaluation():
    x = (ONE - Q) / (ONE + Q)
    s = 0.5 ** 0.5
    q = 0.5
    assert abs(x.evaluate(s) - (1 - q) / (1 + q)) < 1e-14


def test_parser_roundtrip():
    env_cases = ["q^2", "s^-1", "(1-q^2)/(1+q)", "-(q - q^-1)", "2*s^3 - 1"]
    for text in env_cases:
        x = parse_scalar(text)
        y = parse_scalar(scalar_to_str(x))
        assert x == y


def test_parser_params():
    gamma = QScalar.from_fraction(Fraction(3, 2))
    x = parse_scalar("gamma*(1-q^2)", {"s": S, "q": Q, "gamma": gamma})
    assert x == gamma * (ONE - Q ** 2)


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("q +")
    with pytest.raises(ValueError):
        parse_scalar("frob")
