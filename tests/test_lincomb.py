"""Laws of the shared sparse linear-combination core, on every value type
built on it and on the matrix type over it."""

import pytest

from ncgv.algebra import LinComb
from ncgv.commrep import MatrixOverAlgebra
from ncgv.dual import BF, LM, LP, CrossElement, DualElement, DualError, make_slq2_context
from ncgv.fodc import FodcError, GammaElement
from ncgv.hilbert import HilbertError, SlotOperator, ex3_ring
from ncgv.hopf import HopfError, Tensor
from ncgv.presentations import builtin_presentation
from ncgv.scalars import ONE, Q, ZERO


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


def _polys():
    pres = builtin_presentation("disc")
    a = pres.poly({("z",): ONE, ("z*",): Q})
    b = pres.poly({("z*",): -Q, ("z", "z*"): ONE, ("z",): ONE})
    return pres, a, b


def ncpoly(ctx):
    pres, a, b = _polys()
    return a, b, pres.zero()


def dual(ctx):
    f, g, h = (BF(LP, 1, 1),), (BF(LP, 1, 2),), (BF(LM, 2, 2),)
    a = DualElement(ctx, {f: ONE, g: Q})
    b = DualElement(ctx, {f: -ONE, h: Q, g: ONE})
    return a, b, DualElement(ctx, {})


def cross(ctx):
    u, v, w = (("v11",), ()), ((), (BF(LP, 1, 1),)), (("v12",), (BF(LM, 1, 2),))
    a = CrossElement(ctx, {u: ONE, v: Q})
    b = CrossElement(ctx, {u: -ONE, w: Q, v: ONE})
    return a, b, CrossElement(ctx, {})


def tensor(ctx):
    pres = builtin_presentation("disc")
    u, v, w = (("z",), ()), ((), ("z*",)), (("z*",), ("z",))
    a = Tensor(pres, 2, {u: ONE, v: Q})
    b = Tensor(pres, 2, {u: -ONE, w: Q, v: ONE})
    return a, b, Tensor(pres, 2, {})


def gamma(ctx):
    pres, p, r = _polys()
    a = GammaElement(pres, {"dz": p, "dz*": r})
    b = GammaElement(pres, {"dz": -p, "dw": r, "dz*": p})
    return a, b, GammaElement.zero(pres)


def slot(ctx):
    ring = ex3_ring()
    absN, op = ring.poly({("|N|",): ONE}), ring.poly({("T",): Q})
    a = SlotOperator(ring, 3, {(0, 1): absN, (1, 1): op})
    b = SlotOperator(ring, 3, {(0, 1): -absN, (2, 1): op, (1, 1): absN})
    return a, b, SlotOperator(ring, 3, {})


def matrix(ctx):
    pres, p, r = _polys()
    zero = pres.zero()
    a = MatrixOverAlgebra([[p, zero], [r, p]])
    b = MatrixOverAlgebra([[-p, r], [p, zero]])
    return a, b, MatrixOverAlgebra([[zero, zero], [zero, zero]])


TYPES = [ncpoly, dual, cross, tensor, gamma, slot, matrix]


def parts(x):
    """The linear combinations x is made of: itself, or its matrix entries."""
    if isinstance(x, LinComb):
        return [x]
    return [e for row in x.entries for e in row]


@pytest.mark.parametrize("make", TYPES)
def test_difference_with_itself_and_adding_zero(make, ctx):
    a, _, zero = make(ctx)
    assert (a - a).is_zero()
    assert a + zero == a
    assert zero + a == a


@pytest.mark.parametrize("make", TYPES)
def test_scaling_by_zero_is_empty(make, ctx):
    a, _, _ = make(ctx)
    for c in (ZERO, 0):
        assert all(p.terms == {} for p in parts(a.scale(c)))


@pytest.mark.parametrize("make", TYPES)
def test_sum_drops_cancelled_keys_and_keeps_term_order(make, ctx):
    a, b, _ = make(ctx)
    cancelled = 0
    for pa, pb, ps in zip(parts(a), parts(b), parts(a + b)):
        kept = [k for k in pa.terms
                if k not in pb.terms or not (pa.terms[k] + pb.terms[k]).is_zero()]
        cancelled += len(pa.terms) - len(kept)
        assert list(ps.terms) == kept + [k for k in pb.terms if k not in pa.terms]
    assert cancelled


def _foreign_tensor_legs():
    pres = builtin_presentation("disc")
    return Tensor(pres, 2, {(("z",), ()): ONE}), Tensor(pres, 3, {(("z",), (), ()): ONE})


def _foreign_tensor_pres():
    disc, plane = builtin_presentation("disc"), builtin_presentation("real_plane")
    return Tensor(disc, 1, {(("z",),): ONE}), Tensor(plane, 1, {(("x",),): ONE})


def _foreign_gamma():
    disc, plane = builtin_presentation("disc"), builtin_presentation("real_plane")
    return GammaElement.basis(disc, "dz"), GammaElement.basis(plane, "dx")


def _foreign_slot():
    ring = ex3_ring()
    return SlotOperator(ring, 3, {}), SlotOperator(ring, 4, {})


def _foreign_poly():
    disc, plane = builtin_presentation("disc"), builtin_presentation("real_plane")
    return disc.gen("z"), plane.gen("x")


def _foreign_dual():
    key = (BF(LP, 1, 1),)
    return (DualElement(make_slq2_context(), {key: ONE}),
            DualElement(make_slq2_context(), {key: ONE}))


def _foreign_cross():
    key = (("v11",), ())
    return (CrossElement(make_slq2_context(), {key: ONE}),
            CrossElement(make_slq2_context(), {key: ONE}))


@pytest.mark.parametrize("pair, error", [
    (_foreign_tensor_legs, HopfError),
    (_foreign_tensor_pres, HopfError),
    (_foreign_gamma, FodcError),
    (_foreign_slot, HilbertError),
    (_foreign_poly, ValueError),
    (_foreign_dual, DualError),
    (_foreign_cross, DualError),
])
def test_combining_elements_of_different_owners_raises(pair, error):
    a, b = pair()
    with pytest.raises(error):
        a + b
    with pytest.raises(error):
        a - b
    assert a != b



def _rendered(ctx):
    """(value, its repr, the repr of its empty value) for each type that
    renders its terms as ``(coefficient)*key``, keys in a fixed order."""
    pres = builtin_presentation("disc")
    f, g = (BF(LP, 1, 2),), (BF(LM, 2, 2), BF(LP, 1, 1))
    return [
        (pres.poly({("z", "z*"): Q, ("z",): -ONE, (): ONE}),
         "(1)*1 + (-1)*z + (s^2)*z z*", pres.zero()),
        (DualElement(ctx, {g: ONE, f: Q, (): -ONE}),
         "(-1)*eps + (s^2)*l+[1,2] + (1)*l-[2,2]*l+[1,1]", DualElement(ctx, {})),
        (CrossElement(ctx, {(("v12",), f): ONE, ((), ()): Q, (("v11",), ()): -ONE,
                            ((), f): ONE}),
         "(s^2)*1|eps + (1)*1|l+[1,2] + (-1)*v11|eps + (1)*v12|l+[1,2]",
         CrossElement(ctx, {})),
        (Tensor(pres, 2, {(("z",), ()): Q, ((), ("z",)): ONE, (("z*",), ("z",)): -ONE}),
         "(1)*[1 (x) z] + (s^2)*[z (x) 1] + (-1)*[z* (x) z]", Tensor(pres, 2, {})),
    ]


@pytest.mark.parametrize("index", range(4), ids=["ncpoly", "dual", "cross", "tensor"])
def test_terms_render_in_order_and_empty_as_zero(ctx, index):
    value, text, zero = _rendered(ctx)[index]
    assert repr(value) == text
    assert repr(zero) == "0"


def test_matrices_of_different_sizes_do_not_combine():
    pres, p, _ = _polys()
    zero = pres.zero()
    small = MatrixOverAlgebra([[p, zero], [zero, p]])
    large = MatrixOverAlgebra([[p, zero, zero], [zero, p, zero], [zero, zero, p]])
    for x, y in ((small, large), (large, small)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y
