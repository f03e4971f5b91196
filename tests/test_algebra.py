"""Normal forms, rewrite termination, star and confluence of the built-in
presentations."""

import itertools
import random

import pytest

from ncgv import hopf
from ncgv.algebra import (AlgebraPresentation, PresentationError, RewriteError,
                          confluence_check, random_poly, star_closure_report)
from ncgv.hilbert import ex3_ring
from ncgv.hopf import hopf_axiom_report, slq2_hopf
from ncgv.presentations import (builtin_presentation, disc_presentation,
                                slq2_presentation)
from ncgv.scalars import ONE, Q, QScalar, UNIT, ZERO

qp = QScalar.q_power


@pytest.fixture(scope="module")
def disc():
    return builtin_presentation("disc")


@pytest.fixture(scope="module")
def slq2():
    return builtin_presentation("slq2")


@pytest.fixture(scope="module")
def plane():
    return builtin_presentation("real_plane")


@pytest.fixture(scope="module")
def ext():
    return builtin_presentation("ext_plane")


def test_disc_normal_form(disc):
    z, zs = disc.gen("z"), disc.gen("z*")
    lhs = zs * z
    expected = disc.poly({("z", "z*"): qp(2), (): ONE - qp(2)})
    assert lhs == expected
    assert disc.one() == disc.poly({(): ONE})


def test_disc_gamma_parameter():
    gamma = QScalar.from_int(3)
    pres = disc_presentation(gamma)
    z, zs = pres.gen("z"), pres.gen("z*")
    assert (zs * z).terms[()] == gamma * (ONE - qp(2))


def test_normal_form_idempotent_and_oracle(disc):
    # oracle: naive exhaustive substitution with a different scan order
    def naive(terms):
        rules = disc.rules
        changed = True
        cur = {tuple(w): c for w, c in terms.items() if not c.is_zero()}
        while changed:
            changed = False
            for w in sorted(cur, key=len, reverse=True):
                for lhs, rhs in reversed(rules):
                    for i in range(len(w) - len(lhs), -1, -1):
                        if w[i:i + len(lhs)] == lhs:
                            c = cur.pop(w)
                            for rw, rc in rhs.items():
                                nw = w[:i] + rw + w[i + len(lhs):]
                                nc = cur.get(nw)
                                cur[nw] = rc * c if nc is None else nc + rc * c
                            cur = {u: cv for u, cv in cur.items() if not cv.is_zero()}
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
        return cur

    w = ("z", "z*", "z", "z*")
    mine = disc.normal_form_terms({w: ONE})
    assert mine == naive({w: ONE})
    again = disc.normal_form_terms(mine)
    assert again == mine


def test_normal_form_idempotence_random():
    rng = random.Random(0)
    for name in ("disc", "real_plane", "ext_plane", "slq2"):
        pres = builtin_presentation(name)
        for _ in range(500):
            p = random_poly(pres, rng, max_degree=3, n_terms=3)
            assert pres.normal_form_terms(p.terms) == p.terms


def test_ring_axioms_random(slq2):
    rng = random.Random(1)
    for _ in range(40):
        p = random_poly(slq2, rng, 2, 2)
        q = random_poly(slq2, rng, 2, 2)
        r = random_poly(slq2, rng, 2, 2)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_star_antimultiplicative_random():
    rng = random.Random(2)
    for name in ("disc", "real_plane", "ext_plane", "slq2"):
        pres = builtin_presentation(name)
        for _ in range(25):
            p = random_poly(pres, rng, 2, 2)
            q = random_poly(pres, rng, 2, 2)
            assert (p * q).star() == q.star() * p.star()
            assert p.star().star() == p


def raw_star(pres, w):
    """The starred raw word of w with its scalar, read off the star table:
    the oracle of ``star_word``."""
    coeff = ONE
    for g in w:
        coeff = coeff * pres.star[g][1]
    return tuple(pres.star[g][0] for g in reversed(w)), coeff


@pytest.mark.parametrize("name", ["disc", "slq2"])
def test_star_word_of_a_raw_word_is_normal(name):
    pres = builtin_presentation(name)
    raw = [w for w in itertools.product(pres.generators, repeat=3)
           if pres._normal_prefix(w) < len(w)]
    assert raw
    for w in raw:
        sw, sc = raw_star(pres, w)
        assert pres.star_word(w) == pres.poly({sw: sc}).terms, w


def test_poly_star_matches_the_raw_star_path():
    # the star of each word normal-formed after the sum, coefficient conjugated
    rng = random.Random(5)
    for name in ("disc", "real_plane", "ext_plane", "slq2"):
        pres = builtin_presentation(name)
        for _ in range(25):
            p = random_poly(pres, rng, 3, 4)
            raw = {}
            for w, c in p.terms.items():
                sw, sc = raw_star(pres, w)
                raw[sw] = c.star(pres.star_mode) * sc
            want = pres.normal_form_terms(raw)
            assert list(p.star().terms.items()) == list(want.items()), (name, p)


def test_conj_follows_the_star_mode(slq2, plane):
    x = ONE + Q + qp(-3)
    assert slq2.conj(x) == x
    assert plane.conj(x) == ONE + qp(-1) + qp(3)


def test_star_unit_mode_example(plane):
    # star(q x y) has conjugated coefficient and reversed, reordered word
    p = plane.gen("x") * plane.gen("y") * Q
    sp = p.star()
    assert sp == plane.poly({("x", "y"): qp(-2)})


def test_slq2_relations_match_classical(slq2):
    a, b, c, d = (slq2.gen(g) for g in ("v11", "v12", "v21", "v22"))
    assert b * a == qp(-1) * (a * b)
    assert c * a == qp(-1) * (a * c)
    assert d * b == qp(-1) * (b * d)
    assert d * c == qp(-1) * (c * d)
    assert c * b == b * c
    assert d * a == a * d - (Q - qp(-1)) * (b * c)
    # quantum determinant reduces to 1
    assert a * d - Q * (b * c) == slq2.one()


def test_slq2_rule_count(slq2):
    # six independent RTT relations plus the determinant rule
    assert len(slq2.rules) == 7


def test_slq2_antimultiplicative_star(slq2):
    b, c = slq2.gen("v12"), slq2.gen("v21")
    assert b.star() == -Q * c
    assert b.star().star() == b


def test_star_closure_all_builtins():
    for name in ("disc", "real_plane", "ext_plane", "slq2"):
        assert star_closure_report(builtin_presentation(name)) == []


def test_star_closure_fails_at_the_broken_rule():
    # y x = q x y is closed under x* = y, but x* = x, y* = y (an involution
    # too) stars it to x y = q^2 x y
    rules = [(("y", "x"), {("x", "y"): Q})]
    good = AlgebraPresentation("toy", ["x", "y"], rules, star={"x": ("y", ONE), "y": ("x", ONE)})
    assert star_closure_report(good) == []
    bad = AlgebraPresentation("toy", ["x", "y"], rules, star={"x": ("x", ONE), "y": ("y", ONE)})
    assert star_closure_report(bad) == [(("y", "x"), bad.poly({("x", "y"): ONE - Q * Q}))]


def test_confluence_builtins():
    for name in ("disc", "real_plane", "ext_plane", "slq2"):
        assert confluence_check(builtin_presentation(name), max_degree=6) == []


def test_confluence_single_rule():
    pres = AlgebraPresentation("toy", ["x", "y"], [(("y", "x"), {("x", "y"): Q})])
    assert confluence_check(pres, 6) == []


def test_confluence_detects_inconsistency():
    pres = AlgebraPresentation(
        "bad", ["x", "y"],
        [(("y", "x"), {("x", "y"): ONE}),
         (("y", "x"), {("x", "y"): QScalar.from_int(2)})])
    failures = confluence_check(pres, 6)
    assert failures and failures[0][0] == ("y", "x")


def test_unknown_generator_rejected(disc):
    with pytest.raises(PresentationError):
        disc.gen("w")
    with pytest.raises(PresentationError):
        AlgebraPresentation("bad", ["x"], [(("x", "w"), {})])


def test_nonterminating_rules_rejected():
    # a rule whose rhs is not smaller is refused at construction
    with pytest.raises(PresentationError):
        AlgebraPresentation("bad", ["x", "y"], [(("x",), {("x", "y"): ONE})])


def test_step_budget_witness():
    # a fresh presentation: the shared builtin one may already hold the
    # normal forms in its table, and then no rewriting step is taken
    pres = disc_presentation()
    pres._step_budget = 3
    with pytest.raises(RewriteError) as err:
        pres.normal_form_word(("z*", "z*", "z", "z", "z", "z"))
    assert err.value.witness is not None


def reference_normal_form(pres, w):
    """Oracle: the work-stack rewriter that the generator-product table
    replaced, without a cache.  Each word is rewritten at its leftmost redex
    by the first rule of ``_by_first`` that matches there."""
    out = {}
    work = [(tuple(w), ONE)]
    while work:
        u, c = work.pop()
        red = next(((i, lhs, rhs) for i in range(len(u))
                    for lhs, rhs in pres._by_first.get(u[i], ())
                    if u[i:i + len(lhs)] == lhs), None)
        if red is None:
            total = out.get(u, ZERO) + c
            if total.is_zero():
                out.pop(u, None)
            else:
                out[u] = total
            continue
        i, lhs, rhs = red
        for rw, rc in rhs.items():
            work.append((u[:i] + rw + u[i + len(lhs):], c * rc))
    return out


def skew_presentation():
    """A non-confluent system with left-hand sides of length <= 2: y x has
    two rules, and z t also reduces through t.  Here the normal form depends
    on the redex choice, so only the same choice gives the same result.  No
    one-letter left-hand side begins a longer one, so the table's choice is
    the leftmost redex (see README, "Conventions worth knowing")."""
    return AlgebraPresentation("skew", ["x", "y", "z", "t"], [
        (("y", "x"), {("x", "y"): Q}),
        (("z", "x"), {("x", "z"): ONE, (): ONE}),
        (("y", "x"), {("x", "y"): QScalar.from_int(2)}),
        (("z", "y"), {("y", "z"): Q, ("x",): ONE}),
        (("z", "t"), {("x", "z"): -ONE}),
        (("t",), {("x",): ONE, (): ONE}),
    ])


@pytest.mark.parametrize("name", ["slq2", "disc", "real_plane", "ext_plane",
                                  "ex3_ring", "skew"])
def test_normal_form_matches_reference_rewriter(name):
    make = {"ex3_ring": ex3_ring, "skew": skew_presentation}.get(name)
    pres = make() if make else builtin_presentation(name)
    rng = random.Random(len(pres.generators))
    for _ in range(150):
        w = tuple(rng.choice(pres.generators) for _ in range(rng.randrange(8)))
        assert pres.normal_form_word(w) == reference_normal_form(pres, w), w


@pytest.mark.parametrize("name", ["slq2", "disc", "real_plane", "ext_plane", "ex3_ring"])
def test_normal_prefix_covers_exactly_the_normal_words(name):
    # a word is normal exactly when its normal form is itself: the rules
    # strictly decrease the term order, so no reducible word is a term of its
    # own normal form
    pres = ex3_ring() if name == "ex3_ring" else builtin_presentation(name)
    rng = random.Random(len(pres.rules))

    def is_normal(w):
        return pres.normal_form_word(w) == {w: ONE}

    for _ in range(200):
        w = tuple(rng.choice(pres.generators) for _ in range(rng.randrange(7)))
        k = pres._normal_prefix(w)
        assert (k == len(w)) == is_normal(w), w
        assert is_normal(w[:k]) and (k == len(w) or not is_normal(w[:k + 1])), w


def test_skew_presentation_is_not_confluent():
    assert confluence_check(skew_presentation(), 4) != []


def test_long_words_within_default_budget(monkeypatch):
    # an uncached work-stack rewriter exhausts the default budget on these
    slq2 = slq2_presentation()
    for k in (6, 8):
        assert len(slq2.normal_form_word(("v22",) * k + ("v11",) * k)) == k + 1
    disc = disc_presentation()
    assert len(disc.normal_form_word(("z*",) * 8 + ("z",) * 8)) == 9
    # a refused induction makes the axiom pass rewrite every word of degree 6
    monkeypatch.setattr(hopf, "confluence_check",
                        lambda pres, degree: [(("v21", "v12", "v11"), pres.zero(), pres.one())])
    H = slq2_hopf(slq2_presentation())
    lengths = set()
    coproduct = H.coproduct

    def spy(p):
        lengths.update(len(w) for w in p.terms)
        return coproduct(p)

    monkeypatch.setattr(H, "coproduct", spy)
    report = hopf_axiom_report(H, 6)
    assert [ok for _, ok, _ in report] == [True] * len(report), report
    assert max(lengths) == 6


def test_budget_error_keeps_no_partial_entry():
    w = ("z*", "z*", "z", "z", "z", "z")
    pres = disc_presentation()
    pres._step_budget = 3
    with pytest.raises(RewriteError):
        pres.normal_form_word(w)
    pres._step_budget = 500_000
    assert pres.normal_form_word(w) == disc_presentation().normal_form_word(w)


def test_normal_words_corpus(slq2, disc):
    words = slq2.normal_words(3)
    assert () in words
    assert all(slq2.normal_form_word(w) == {w: ONE} for w in words)
    assert len(words) == 1 + 4 + 9 + 16
    assert len(disc.normal_words(2)) == 1 + 2 + 3
