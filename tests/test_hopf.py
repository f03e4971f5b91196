"""Hopf structure on quantum SL(2): tables and axiom corpus."""

import random

import pytest

from ncgv import hopf, linalg
from ncgv.algebra import AlgebraPresentation, NCPoly, first_failure
from ncgv.hopf import (HopfError, HopfStructure, Tensor, derive_antipode, hopf_axiom_report,
                       slq2_hopf)
from ncgv.presentations import builtin_presentation
from ncgv.scalars import ONE, Q, QScalar, ZERO

qp = QScalar.q_power


@pytest.fixture(scope="module")
def pres():
    return builtin_presentation("slq2")


@pytest.fixture(scope="module")
def H(pres):
    return slq2_hopf(pres)


def test_coproduct_unitality(H, pres):
    assert H.coproduct(pres.one()) == Tensor(pres, 2, {((), ()): ONE})


def test_coproduct_generator(H, pres):
    d = H.coproduct(pres.gen("v11"))
    expected = Tensor(pres, 2, {
        (("v11",), ("v11",)): ONE,
        (("v12",), ("v21",)): ONE,
    })
    assert d == expected


def test_coproduct_of_product_is_product_of_coproducts(H, pres):
    a = pres.gen("v11") * pres.gen("v12")
    lhs = H.coproduct(a)
    rhs = H.coproduct(pres.gen("v11")).mul(H.coproduct(pres.gen("v12")))
    assert lhs == rhs


def test_counit_values(H, pres):
    assert H.counit(pres.one()) == ONE
    assert H.counit(pres.gen("v12")) == ZERO
    # oracle: substitute the identity matrix for the generators
    rng = random.Random(3)
    from ncgv.algebra import random_poly
    subst = {"v11": ONE, "v22": ONE, "v12": ZERO, "v21": ZERO}
    for _ in range(20):
        p = random_poly(pres, rng, 3, 3)
        want = ZERO
        for w, c in p.terms.items():
            v = c
            for g in w:
                v = v * subst[g]
            want = want + v
        assert H.counit(p) == want


def test_antipode_is_matrix_inverse(H, pres):
    # frozen expected table for the solved antipode
    assert H.antipode_table["v11"] == pres.gen("v22")
    assert H.antipode_table["v22"] == pres.gen("v11")
    assert H.antipode_table["v12"] == pres.gen("v12").scale(-qp(-1))
    assert H.antipode_table["v21"] == pres.gen("v21").scale(-qp(1))
    # oracle: m(S (x) id) Delta(v^i_j) = delta_ij
    for i in (1, 2):
        for j in (1, 2):
            g = pres.gen(f"v{i}{j}")
            total = pres.zero()
            for (w1, w2), c in H.coproduct(g).terms.items():
                total = total + (H.antipode(NCPoly(pres, {w1: ONE}))
                                 * NCPoly(pres, {w2: ONE})).scale(c)
            want = pres.one() if i == j else pres.zero()
            assert total == want


def test_antipode_is_solved_without_exact_rank(pres, monkeypatch):
    # derive_antipode reaches solve_field only, so a traced run counts rank
    # matrices alone in linalg.rank_calls; its equations are read off the
    # normal-form table, with no polynomial product
    def no_rank(rows):
        raise AssertionError("solve_field called exact_rank")

    def no_product(self, other):
        raise AssertionError("derive_antipode formed a polynomial product")

    monkeypatch.setattr(linalg, "exact_rank", no_rank)
    monkeypatch.setattr(NCPoly, "__mul__", no_product)
    assert slq2_hopf(pres).antipode_table == {
        "v11": pres.gen("v22"),
        "v12": pres.gen("v12").scale(-qp(-1)),
        "v21": pres.gen("v21").scale(-qp(1)),
        "v22": pres.gen("v11"),
    }


def group_likes():
    """g and ginv with g ginv = ginv g = 1, Delta(x) = x (x) x and eps(x) = 1."""
    pres = AlgebraPresentation("group", ["g", "ginv"],
                               [(("g", "ginv"), {(): ONE}), (("ginv", "g"), {(): ONE})])
    delta = {x: Tensor(pres, 2, {((x,), (x,)): ONE}) for x in pres.generators}
    return pres, delta, {x: ONE for x in pres.generators}


def test_antipode_of_group_likes_is_the_inverse():
    pres, delta, counit = group_likes()
    assert derive_antipode(pres, delta, counit) == {"g": pres.gen("ginv"),
                                                    "ginv": pres.gen("g")}


def test_antipode_solver_refuses_a_longer_coproduct_leg():
    pres, delta, counit = group_likes()
    delta["g"] = Tensor(pres, 2, {(("g", "g"), ("g",)): ONE})
    with pytest.raises(HopfError, match="generator-only coproduct legs"):
        derive_antipode(pres, delta, counit)


def test_antipode_antihomomorphism_random(H, pres):
    rng = random.Random(4)
    from ncgv.algebra import random_poly
    for _ in range(30):
        a = random_poly(pres, rng, 2, 2)
        b = random_poly(pres, rng, 2, 2)
        assert H.antipode(a * b) == H.antipode(b) * H.antipode(a)


def test_iterated_coproduct(H, pres):
    a = pres.gen("v11")
    w = ("v11",)
    assert H.iterated_coproduct_word(w, 1) == Tensor(pres, 1, {(w,): ONE})
    assert H.iterated_coproduct_word(w, 2) == H.coproduct(a)
    with pytest.raises(Exception):
        H.iterated_coproduct_word(w, 0)
    # both association orders agree at m = 3
    d = H.coproduct(a)
    left = {}
    right = {}
    for (w1, w2), c in d.terms.items():
        for (u1, u2), cu in H.coproduct(NCPoly(pres, {w1: ONE})).terms.items():
            key = (u1, u2, w2)
            left[key] = left.get(key, ZERO) + c * cu
        for (u1, u2), cu in H.coproduct(NCPoly(pres, {w2: ONE})).terms.items():
            key = (w1, u1, u2)
            right[key] = right.get(key, ZERO) + c * cu
    left = {k: v for k, v in left.items() if not v.is_zero()}
    right = {k: v for k, v in right.items() if not v.is_zero()}
    assert left == right
    assert H.iterated_coproduct_word(w, 3).terms == left


def test_axiom_report_degree3(H):
    report = hopf_axiom_report(H, degree=3)
    assert all(ok for _, ok, _ in report), report
    names = [name for name, _, _ in report]
    assert "coassociativity" in names and "star_compatibility" in names


@pytest.mark.parametrize("table, gen, rule", [("delta", "v12", ("v22", "v11")),
                                              ("counit", "v11", ("v12", "v21")),
                                              ("antipode", "v11", ("v22", "v11"))])
def test_relation_consistency_fails_at_the_broken_rule(H, pres, table, gen, rule):
    # twice one entry of Delta, eps or S: the map of the free algebra no
    # longer kills the relation ideal, first at the rule named
    tables = {"delta": dict(H.delta), "counit": dict(H.counit_table),
              "antipode": dict(H.antipode_table)}
    tables[table][gen] = tables[table][gen] + tables[table][gen]
    broken = HopfStructure(pres, **tables)
    assert hopf_axiom_report(broken, 1)[-1] == ("relation_consistency", False, rule)
    assert hopf_axiom_report(H, 1)[-1] == ("relation_consistency", True, None)
    # a broken relation refuses the generator induction: the corpus decides
    assert hopf_axiom_report(broken, 2)[:-1] == axiom_reference(broken, 2)


def axiom_reference(H, degree):
    """The four corpus axioms, one loop each, each stopping at its first
    failing word."""
    pres = H.pres
    words = pres.normal_words(degree)

    def poly_of(w):
        return NCPoly(pres, {w: ONE})

    def counit_contraction(d, leg):
        out = pres.zero()
        for key, c in d.terms.items():
            out = out + poly_of(key[1 - leg]).scale(c * H.counit_word(key[leg]))
        return out

    def coassociativity():
        for w in words:
            d = H.coproduct(poly_of(w))
            if H.coproduct_leg(d, 0) != H.coproduct_leg(d, 1):
                yield w

    def counit():
        for w in words:
            p = poly_of(w)
            d = H.coproduct(p)
            if counit_contraction(d, 0) != p or counit_contraction(d, 1) != p:
                yield w

    def antipode():
        for w in words:
            p = poly_of(w)
            left = pres.zero()
            right = pres.zero()
            for (w1, w2), c in H.coproduct(p).terms.items():
                left = left + (H.antipode(poly_of(w1)) * poly_of(w2)).scale(c)
                right = right + (poly_of(w1) * H.antipode(poly_of(w2))).scale(c)
            target = pres.one().scale(H.counit(p))
            if left != target or right != target:
                yield w

    def star_compatibility():
        for w in words:
            p = poly_of(w)
            if H.coproduct(p.star()) != H.coproduct(p).star_legwise():
                yield w

    return [first_failure(name, check()) for name, check in (
        ("coassociativity", coassociativity), ("counit", counit),
        ("antipode", antipode), ("star_compatibility", star_compatibility))]


@pytest.mark.parametrize("table, gen", [("delta", "v12"), ("delta", "v21"),
                                        ("delta", "v22"), ("counit", "v22")])
def test_axioms_in_one_pass_match_one_loop_each(H, pres, table, gen):
    # twice one entry of Delta, eps or S breaks several axioms, first at
    # different words; the one pass keeps each axiom's first witness
    tables = {"delta": dict(H.delta), "counit": dict(H.counit_table),
              "antipode": dict(H.antipode_table)}
    tables[table][gen] = tables[table][gen] + tables[table][gen]
    broken = HopfStructure(pres, **tables)
    report = hopf_axiom_report(broken, 2)[:-1]
    assert report == axiom_reference(broken, 2)
    assert len({w for _, ok, w in report if not ok}) >= 2
    assert hopf_axiom_report(H, 2)[:-1] == axiom_reference(H, 2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rescaled_antipode_fails_on_a_generator(H, pres, degree):
    # S(v12) doubled and S(v21) halved still kill the relations, so only
    # the axioms on the generators refuse the induction
    two = QScalar.from_int(2)
    antipode = dict(H.antipode_table)
    antipode["v12"] = antipode["v12"].scale(two)
    antipode["v21"] = antipode["v21"].scale(two.inverse())
    broken = HopfStructure(pres, dict(H.delta), dict(H.counit_table), antipode)
    report = hopf_axiom_report(broken, degree)
    assert report[-1] == ("relation_consistency", True, None)
    assert report[:-1] == axiom_reference(broken, degree)
    assert report[2] == ("antipode", False, ("v11",))


def coproduct_lengths(monkeypatch):
    """The lengths of the words whose coproduct the axiom pass takes."""
    seen = set()
    coproduct = HopfStructure.coproduct

    def spy(self, p):
        seen.update(len(w) for w in p.terms)
        return coproduct(self, p)

    monkeypatch.setattr(HopfStructure, "coproduct", spy)
    return seen


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_axioms_are_certified_from_the_generators(H, degree, monkeypatch):
    # the axioms on the unit and the generators, the relations, the star
    # and confluence prove every degree: no longer word is visited
    seen = coproduct_lengths(monkeypatch)
    report = hopf_axiom_report(H, degree)
    assert all(ok for _, ok, _ in report), report
    assert seen == {0, 1}


REFUSALS = {
    # a rule that Delta, eps or S breaks (the only first_failure of the report)
    "first_failure": lambda name, witnesses: (name, False, ("v21", "v12")),
    "star_closure_report": lambda pres: [(("v21", "v12"), pres.one())],
    "confluence_check": lambda pres, degree: [(("v21", "v12", "v11"), pres.zero(), pres.one())],
}


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_refused_induction_searches_the_corpus(H, degree, refusal, monkeypatch):
    certified = hopf_axiom_report(H, degree)
    monkeypatch.setattr(hopf, refusal, REFUSALS[refusal])
    seen = coproduct_lengths(monkeypatch)
    assert hopf_axiom_report(H, degree)[:-1] == certified[:-1]
    assert max(seen) == degree
