"""Field axioms and star behaviour of the exact scalar ring Q(s)."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

import ncgv.scalars as scalar_module
from ncgv.exprparse import MAX_EXPONENT, ScalarParseError, parse_scalar, scalar_to_str
from ncgv.scalars import ONE, Q, QScalar, REAL, S, UNIT, ZERO, _pmul

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


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("q +")
    with pytest.raises(ValueError):
        parse_scalar("frob")


def test_parser_bounds_the_exponent():
    # the cost of a power grows with its result, so an out-of-range exponent
    # is refused before any product is formed; an integer literal longer than
    # int() accepts is refused as a parse error too
    for text in ("(1+q)^99999", f"q^-{MAX_EXPONENT + 1}", f"q^(-({MAX_EXPONENT + 1}))",
                 "q^" + "9" * 5000, "9" * 5000):
        with pytest.raises(ScalarParseError, match="out of range"):
            parse_scalar(text)
    assert parse_scalar(f"(1+q)^{MAX_EXPONENT}") == parse_scalar("(1+q)^255") * (ONE + Q)
    assert parse_scalar("q^-2") == Q.inverse() * Q.inverse()


# -- oracle: canonical forms against sympy.cancel --------------------------------

sym_s = sympy.Symbol("s")
nonzero_coeffs = st.integers(min_value=-9, max_value=9).filter(bool)


@st.composite
def denominators(draw):
    """A nonzero denominator of one of four shapes: c s^k, +-s^k, a negative
    leading coefficient, or any."""
    shape = draw(st.sampled_from(["monomial", "unit_monomial", "negative_leading",
                                  "general"]))
    if shape in ("monomial", "unit_monomial"):
        c = draw(st.sampled_from([1, -1]) if shape == "unit_monomial" else nonzero_coeffs)
        return (0,) * draw(st.integers(min_value=0, max_value=4)) + (c,)
    low = tuple(draw(small_polys))
    lead = draw(nonzero_coeffs)
    return low + (-abs(lead) if shape == "negative_leading" else lead,)


@st.composite
def fraction_pairs(draw):
    """(num, den) coefficient tuples, often sharing a factor to cancel."""
    num, den = tuple(draw(small_polys)), draw(denominators())
    common = draw(st.sampled_from([(1,), (0, 1), (-2,), (1, 1), (3, 0, -1)]))
    return _times(num, common), _times(den, common)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _sym(cs):
    return sum(sympy.Integer(c) * sym_s**i for i, c in enumerate(cs))


def _expr(num, den=(1,)):
    return _sym(num) / _sym(den)


def _sympy_canonical(expr):
    """(num, den) of expr reduced by sympy.cancel and scaled to coprime
    integer coefficients with a positive leading denominator coefficient."""
    p, q = sympy.fraction(sympy.cancel(expr))
    if p == 0:
        return (), (1,)
    cp, cq = (sympy.Poly(x, sym_s, domain="QQ").all_coeffs()[::-1] for x in (p, q))
    fr = [Fraction(int(c.p), int(c.q)) for c in cp + cq]
    scale = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * scale) for f in fr]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    ints = [x // g for x in ints]
    return tuple(ints[:len(cp)]), tuple(ints[len(cp):])


def _pair(x):
    return x.num, x.den


@given(fraction_pairs())
def test_canonical_form_matches_sympy(frac):
    assert _pair(QScalar(*frac)) == _sympy_canonical(_expr(*frac))


@given(fraction_pairs())
def test_inverse_matches_sympy(frac):
    x = QScalar(*frac)
    if not x.is_zero():
        assert _pair(x.inverse()) == _sympy_canonical(1 / _expr(*frac))


@given(fraction_pairs())
def test_star_unit_matches_sympy(frac):
    want = _sympy_canonical(_expr(*frac).subs(sym_s, 1 / sym_s))
    assert _pair(QScalar(*frac).star(UNIT)) == want


@given(fraction_pairs(), fraction_pairs())
def test_sum_and_product_match_sympy(a, b):
    x, y = QScalar(*a), QScalar(*b)
    assert _pair(x + y) == _sympy_canonical(_expr(*a) + _expr(*b))
    assert _pair(x * y) == _sympy_canonical(_expr(*a) * _expr(*b))


# -- oracle: the s^k fast paths --------------------------------------------------


@st.composite
def laurent_pairs(draw):
    """(num, den) of p / (+-s^k), k from 0 to 4, where p sometimes has a
    low-order zero for s to cancel."""
    num = tuple(draw(small_polys))
    if draw(st.booleans()):
        num = (0,) + num
    sign = draw(st.sampled_from([1, -1]))
    return num, (0,) * draw(st.integers(min_value=0, max_value=4)) + (sign,)


@st.composite
def cancelling_laurent_pairs(draw):
    """Two fractions c/s^k + ... and -c/s^k + ..., k >= 1, whose lowest
    terms cancel in their sum, so that s divides its numerator."""
    k = draw(st.integers(min_value=1, max_value=4))
    c = draw(nonzero_coeffs)
    out = []
    for low in (c, -c):
        sign = draw(st.sampled_from([1, -1]))
        out.append(((sign * low,) + tuple(draw(small_polys)), (0,) * k + (sign,)))
    return tuple(out)


@given(laurent_pairs())
@example(((0, 3, 1), (0, 0, -1)))
@example(((5,), (-1,)))
def test_s_power_denominator_matches_sympy(frac):
    assert _pair(QScalar(*frac)) == _sympy_canonical(_expr(*frac))


@given(st.one_of(st.tuples(laurent_pairs(), laurent_pairs()), cancelling_laurent_pairs()))
@example((((1, 1), (0, 1)), ((-1,), (0, 1))))
@example((((0, 3), (0, 0, 1)), ((2, 0, 1), (0, 0, 0, -1))))
def test_s_power_sum_and_product_match_sympy(pair):
    a, b = pair
    x, y = QScalar(*a), QScalar(*b)
    assert _pair(x + y) == _sympy_canonical(_expr(*a) + _expr(*b))
    assert _pair(x * y) == _sympy_canonical(_expr(*a) * _expr(*b))


monomials = st.builds(lambda k, c: (0,) * k + (c,),
                      st.integers(min_value=0, max_value=4), nonzero_coeffs)
non_monomials = st.builds(lambda lo, mid, hi: (lo,) + tuple(mid) + (hi,),
                          nonzero_coeffs, small_polys, nonzero_coeffs)


@given(monomials, st.one_of(st.just(()), monomials, non_monomials))
def test_pmul_with_monomial_matches_schoolbook(m, p):
    assert _pmul(m, p) == _times(m, p)
    assert _pmul(p, m) == _times(p, m)


@given(non_monomials, non_monomials)
def test_pmul_of_non_monomials_matches_schoolbook(a, b):
    assert _pmul(a, b) == _times(a, b)


def test_s_power_denominators_skip_gcd_and_content(monkeypatch):
    """Scalars over +-s^k never reach the polynomial gcd or the content
    pass, and their sums and products reduce no fraction."""
    def forbidden(*args):
        raise AssertionError("gcd or content pass reached")

    monkeypatch.setattr(scalar_module, "_pgcd", forbidden)
    monkeypatch.setattr(scalar_module, "_pcontent", forbidden)
    x = QScalar((0, 3, 1), (0, 0, -1))  # -(3 + s)/s
    y = QScalar((2, 0, -5), (0, 0, 0, 1))
    assert _pair(x) == ((-3, -1), (0, 1))
    reductions = []
    init = QScalar.__init__

    def counting_init(obj, num, den=(1,), canonical=False):
        if not canonical:
            reductions.append((num, den))
        init(obj, num, den, canonical)

    monkeypatch.setattr(QScalar, "__init__", counting_init)
    assert _pair(x * y) == ((-6, -2, 15, 5), (0, 0, 0, 0, 1))
    assert _pair(x + y) == ((2, 0, -8, -1), (0, 0, 0, 1))
    assert _pair(x + ONE) == ((-3,), (0, 1))
    assert _pair(y * S) == ((2, 0, -5), (0, 0, 1))
    assert reductions == []
    with pytest.raises(AssertionError, match="gcd or content"):
        QScalar((1,), (1, 1))
