"""Small boundary examples exercised one by one."""

import pytest

from ncgv.commrep import faithfulness_rank
from ncgv.dual import BF, CHAR, DualElement, DualError, make_slq2_context
from ncgv.fodc import FodcData, bicovariant_build
from ncgv.presentations import builtin_presentation
from ncgv.scalars import ONE


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


def test_star_of_generator_is_partner():
    disc = builtin_presentation("disc")
    assert disc.gen("z").star() == disc.gen("z*")
    assert disc.gen("z*").star() == disc.gen("z")


def test_counital_character_acts_trivially(ctx):
    # a character whose values agree with the counit acts as the identity
    zeta = DualElement(ctx, {ctx.canonical_word((BF(CHAR, name="eps"),)): ONE})
    v = ctx.pres.gen("v12")
    assert zeta.left_act(v) == v
    assert zeta == ctx.unit()


def test_differential_of_unit_vanishes(ctx):
    B = bicovariant_build(ctx, "eps")
    assert B.fodc.differential(ctx.pres.one()).is_zero()


def test_zero_calculus_vacuously_faithful(ctx):
    zero = DualElement(ctx, {})

    class Stub:
        pass

    S = Stub()
    S.ctx = ctx
    S.C = zero
    S.fodc = FodcData(ctx, ["w"], [zero], [[ctx.unit()]])
    S.labels = ["w"]
    S.Omega = [zero]
    report = faithfulness_rank(S, degree=1)
    assert report["gamma_span_dim"] == 0
    assert report["tau_rank"] == 0
    assert report["faithful_on_corpus"]


def test_unknown_generator_in_raw_terms():
    disc = builtin_presentation("disc")
    with pytest.raises(Exception):
        disc.poly({("w",): ONE})


def test_missing_evaluation_table(ctx):
    # matrix functionals have no table entries outside the matrix generators
    f = DualElement(ctx, {(BF("LP", 1, 1),): ONE})
    disc = builtin_presentation("disc")
    with pytest.raises(DualError):
        ctx.eval_letter_word(BF("LP", 1, 1), ("z",))
    del f, disc
