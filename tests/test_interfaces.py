"""File-format surfaces: calculus files reused by scenarios, character and
R-matrix loaders, and the direct-sum central element."""

import json

import pytest

from ncgv.algebra import NCPoly, first_failure
from ncgv.cli import main, run_scenario
from ncgv.commrep import centrality_check, dual_centrality, prop4_verify, tau_central
from ncgv.dual import (BF, CHAR, LM, LP, CrossElement, DualElement, DualError,
                       load_character, make_slq2_context, mixed_word_to_cross)
from ncgv.fodc import bicovariant_build, fodc_from_doc, fodc_validate
from ncgv.rmatrix import RMatrixError, builtin_rmatrix, load_rmatrix
from ncgv.scalars import ONE, QScalar


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


def test_built_calculus_file_reusable(tmp_path, ctx):
    calc_file = tmp_path / "calc.json"
    assert main(["build-bicovariant", "--algebra", "slq2", "--zeta", "eps",
                 "--out", str(calc_file)]) == 0
    doc = {
        "name": "from_file",
        "algebra": "slq2",
        "checks": [{"name": "fodc_validate", "file": str(calc_file), "degree": 2},
                   {"name": "fodc_validate", "zeta": "eps", "degree": 2}],
    }
    report = run_scenario(doc)
    assert report["status"] == "pass"
    from_file, built = report["checks"]
    assert from_file["source"] == str(calc_file)
    # the same rows, tangent_star_invariance among them
    assert from_file["items"] == built["items"]
    assert len(built["items"]) == 4


def test_fodc_from_doc_matches_build(tmp_path, ctx):
    # a loaded calculus keeps the star permutation of its zeta, so that
    # fodc_validate checks tangent_star_invariance of the hermitean eps
    # calculus whether it is built or read back
    from ncgv.fodc import bicovariant_to_doc

    perms = {}
    for zeta in ("eps", "zeta_q"):
        B = bicovariant_build(ctx, zeta)
        fodc = fodc_from_doc(ctx, bicovariant_to_doc(B))
        assert fodc.labels == B.fodc.labels
        assert fodc.X == B.fodc.X
        assert fodc.star_permutation == B.fodc.star_permutation
        loaded, built = fodc_validate(fodc, 2), fodc_validate(B.fodc, 2)
        assert [name for name, _, _ in loaded] == [name for name, _, _ in built]
        assert all(ok for _, ok, _ in loaded)
        perms[zeta] = fodc.star_permutation
    # X_kj* = X_jk over theta11, theta12, theta21, theta22; zeta_q is not hermitean
    assert perms == {"eps": [0, 2, 1, 3], "zeta_q": None}


def test_character_loader(ctx):
    doc = {"name": "zeta_t", "values": {"v11": "q^2", "v12": "0",
                                        "v21": "0", "v22": "q^-2"}}
    name = load_character(doc, ctx)
    assert name == "zeta_t"
    from ncgv.scalars import QScalar
    assert ctx.character_values("zeta_t")["v11"] == QScalar.q_power(2)
    bad = {"name": "broken", "values": {"v11": "1", "v12": "1",
                                        "v21": "1", "v22": "1"}}
    with pytest.raises(DualError):
        load_character(bad, ctx)


def test_rejected_character_is_not_registered():
    # values that break a relation, a value at a name that is no generator,
    # a generator without a value
    ctx = make_slq2_context()
    for values in ({"v11": "1", "v12": "1", "v21": "1", "v22": "1"},
                   {"v11": "1", "v12": "0", "v21": "0", "v22": "1", "v99": "5"},
                   {"v11": "1", "v12": "0", "v21": "0"}):
        with pytest.raises(DualError):
            load_character({"name": "broken", "values": values}, ctx)
        assert "broken" not in ctx.characters


def test_registered_character_cannot_be_reloaded():
    # a reload would leave the cached values of the old one in use
    ctx = make_slq2_context()
    zeta = BF(CHAR, name="zeta_q")
    assert ctx.eval_letter_word(zeta, ("v11",)) == QScalar.q_power(1)
    doc = {"name": "zeta_q", "values": {"v11": "q^2", "v12": "0",
                                        "v21": "0", "v22": "q^-2"}}
    with pytest.raises(DualError, match="already registered"):
        load_character(doc, ctx)
    assert ctx.character_values("zeta_q")["v11"] == QScalar.q_power(1)
    assert ctx.eval_letter_word(zeta, ("v11",)) == QScalar.q_power(1)


@pytest.mark.parametrize("name", ["zeta_q_S", "zeta_q*"])
def test_derived_character_name_cannot_be_loaded(name):
    # loaded under the name of zeta_q o S or zeta_q*, the counit would stand
    # in for the derived character (or be overwritten behind a cached value)
    ctx = make_slq2_context()
    counit = {"name": name, "values": {"v11": "1", "v12": "0",
                                       "v21": "0", "v22": "1"}}
    with pytest.raises(DualError, match="reserved"):
        load_character(counit, ctx)
    assert name not in ctx.characters
    zeta = BF(CHAR, name="zeta_q")
    assert ctx.eval_letter_word(ctx.letter_star(zeta), ("v11",)) == QScalar.s_power(2)


@pytest.mark.parametrize("name", ["x*", "eps*", "zeta_q_S"])
def test_add_character_refuses_a_derived_name(name):
    # registered directly under the name of a derived character, the counit
    # would map back by name to a character that may not exist ("x"), or
    # stand in for eps* before star_character derives it
    ctx = make_slq2_context()
    counit = dict(ctx.character_values("eps"))
    with pytest.raises(DualError, match="reserved"):
        ctx.add_character(name, counit)
    assert name not in ctx.characters


def test_star_character_still_derives():
    ctx = make_slq2_context()
    assert ctx.star_character("zeta_q") == "zeta_q*"
    assert ctx.star_character("zeta_q*") == "zeta_q"
    assert "zeta_q*" in ctx.characters
    zeta = BF(CHAR, name="zeta_q")
    assert ctx.eval_letter_word(ctx.letter_star(zeta), ("v11",)) == QScalar.s_power(2)


def test_rmatrix_loader_rejects_broken_inverse():
    good = json.loads(json.dumps({
        "name": "broken", "n": 2, "c": "s^-1",
        "R": [["q", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "q - q^-1", "1", "0"], ["0", "0", "0", "q"]],
        "Rinv": [["q", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "-(q - q^-1)", "1", "0"], ["0", "0", "0", "q^-1"]],
    }))
    with pytest.raises(RMatrixError):
        load_rmatrix(good)


def test_rmatrix_yang_baxter_guard():
    R0 = builtin_rmatrix("slq2")
    from ncgv.rmatrix import RMatrixData
    from ncgv.scalars import QScalar
    bad_R = dict(R0.R)
    bad_R[(1, 1, 1, 1)] = QScalar.from_int(3)
    bad_inv = dict(R0.Rinv)
    bad_inv[(1, 1, 1, 1)] = QScalar((1,), (3,))
    with pytest.raises(RMatrixError):
        RMatrixData("ybe_broken", 2, R0.c, bad_R, bad_inv)


def direct_sum_central(outputs, degree):
    """Central element of a direct sum of tangent spaces: the sum of the
    per-summand central elements.  Each summand is verified on its own, and
    the commutator with the sum is checked to be the sum of the
    commutators."""
    ctx = outputs[0].ctx
    total = DualElement(ctx, {})
    checks = []
    for idx, B in enumerate(outputs):
        summand = prop4_verify(B, degree)
        checks.append((f"summand_{idx}_prop4",
                       all(ok for _, ok, _ in summand),
                       [name for name, ok, _ in summand if not ok] or None))
        total = total + B.C
    pres = ctx.pres

    def nonlinear_pairs():
        for wa in ctx.corpus(1):
            a = NCPoly(pres, {wa: ONE})
            for wb in ctx.corpus(1):
                b = NCPoly(pres, {wb: ONE})
                lhs = (mixed_word_to_cross(ctx, [a, total, b])
                       - mixed_word_to_cross(ctx, [a, b, total]))
                rhs = CrossElement(ctx, {})
                for B in outputs:
                    rhs = rhs + tau_central(a, b, B)
                if lhs != rhs:
                    yield {"a": wa, "b": wb}

    checks.append(first_failure("sum_linearity", nonlinear_pairs()))
    return total, checks


def test_direct_sum_central(ctx):
    # verification is per-summand plus linearity of the summed commutator
    B1 = bicovariant_build(ctx, "eps")
    B2 = bicovariant_build(ctx, "zeta_q")
    total, checks = direct_sum_central([B1, B2], degree=2)
    assert all(ok for _, ok, _ in checks), checks
    assert total == B1.C + B2.C


def test_noncentral_character_detected(ctx):
    # zeta_q is a valid algebra map but not convolution-central, and the
    # centrality check on its central candidate says so
    B2 = bicovariant_build(ctx, "zeta_q")
    letters = [BF(LP, i, j) for i in (1, 2) for j in (1, 2)]
    name, ok, witness = dual_centrality(B2.C, letters, degree=2)[0]
    assert not ok and witness is not None
    assert centrality_check(B2, degree=2)[0][1] is False
