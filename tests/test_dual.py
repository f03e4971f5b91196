"""Functional evaluation against the R-matrix tables, convolution algebra,
dual star, left action, cross product straightening, and the certificates
for words of every length (the vanishing test and the multiplicativity
test on the weighted automaton of a functional)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncgv.algebra import AlgebraPresentation, NCPoly, random_poly
from ncgv.dual import (BF, CHAR, CrossElement, DualContext, DualElement, DualError, EPS, LM, LP,
                       SLM, SLP, _Automaton, make_slq2_context, mixed_word_to_cross,
                       multiplicative, shipped_characters)
from ncgv.rmatrix import RMatrixData
from ncgv.scalars import ONE, Q, QScalar, S, ZERO

qp = QScalar.q_power


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


def lkj(ctx, k, j):
    """l^k_j = sum_t S(l^-k_t) l^+t_j."""
    terms = {}
    for t in (1, 2):
        terms[(BF(SLM, k, t), BF(LP, t, j))] = ONE
    return DualElement(ctx, terms)


def x_functional(ctx, k, j):
    """X_kj = l^k_j - delta_kj eps (counital character dropped)."""
    x = lkj(ctx, k, j)
    if k == j:
        x = x - ctx.unit()
    return x


def f_functional(ctx, k, j, s, t):
    """f^{kj}_{st} = zeta S(l^-s_k) l^+j_t with zeta = eps."""
    return DualElement(ctx, {(BF(SLM, s, k), BF(LP, j, t)): ONE})


# -- evaluation ---------------------------------------------------------------


def test_counit_letter(ctx):
    eps = ctx.unit()
    rng = random.Random(5)
    for _ in range(10):
        a = random_poly(ctx.pres, rng, 2, 2)
        assert eps.evaluate(a) == ctx.hopf.counit(a)


def test_characters_are_unital_and_validated(ctx):
    zeta = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    assert zeta.evaluate(ctx.pres.one()) == ONE


def test_lplus_generator_value_is_r_entry(ctx):
    # oracle: the literal R-matrix file entry, r(v11 (x) v11) = c R^{11}_{11}
    val = DualElement(ctx, {(BF(LP, 1, 1),): ONE}).evaluate(ctx.pres.gen("v11"))
    assert val == S  # s^-1 * q
    val12 = DualElement(ctx, {(BF(LP, 1, 2),): ONE}).evaluate(ctx.pres.gen("v21"))
    assert val12 == S.inverse() * (qp(1) - qp(-1))


# -- convolution product ---------------------------------------------------------


def test_unit_of_convolution(ctx):
    f = lkj(ctx, 1, 2)
    assert ctx.unit() * f == f
    assert f * ctx.unit() == f


def test_convolution_sweedler_oracle(ctx):
    # <fg, a> = <f, a_(1)><g, a_(2)>, expanded through the coproduct by hand
    f = DualElement(ctx, {(BF(LP, 1, 1),): ONE})
    g = DualElement(ctx, {(BF(LM, 2, 2),): ONE})
    a = ctx.pres.gen("v11") * ctx.pres.gen("v22")
    lhs = (f * g).evaluate(a)
    rhs = ZERO
    for (w1, w2), c in ctx.hopf.coproduct(a).terms.items():
        rhs = rhs + c * f.evaluate(NCPoly(ctx.pres, {w1: ONE})) \
            * g.evaluate(NCPoly(ctx.pres, {w2: ONE}))
    assert lhs == rhs


def test_dual_coproduct_of_matrix_letter(ctx):
    f = DualElement(ctx, {(BF(LP, 1, 2),): ONE})
    pairs = f.coproduct()
    expected = {
        ((BF(LP, 1, 1),), (BF(LP, 1, 2),)): ONE,
        ((BF(LP, 1, 2),), (BF(LP, 2, 2),)): ONE,
    }
    assert pairs == expected


def test_dual_coproduct_group_like(ctx):
    zeta = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    pairs = zeta.coproduct()
    assert pairs == {((BF(CHAR, name="zeta_q"),), (BF(CHAR, name="zeta_q"),)): ONE}
    assert ctx.unit().coproduct() == {((), ()): ONE}


# -- star ------------------------------------------------------------------------


def test_dual_star_unit(ctx):
    assert ctx.unit().star() == ctx.unit()


def test_dual_star_involutive(ctx):
    f = lkj(ctx, 1, 2) + f_functional(ctx, 1, 2, 2, 1).scale(qp(3))
    assert f.star().star() == f


def test_star_evaluation_rule(ctx):
    # <f*, a> = conj <f, S(a)*> on the degree-2 corpus
    f = lkj(ctx, 2, 1)
    fs = f.star()
    H = ctx.hopf
    for w in ctx.corpus(2):
        a = NCPoly(ctx.pres, {w: ONE})
        want = ctx.pres.conj(f.evaluate(H.antipode(a).star()))
        assert fs.evaluate(a) == want


def test_letter_star_is_an_involution(ctx):
    letters = [BF(kind, i, j) for kind in (LP, LM, SLP, SLM)
               for i in (1, 2) for j in (1, 2)]
    letters += [BF(EPS)] + [BF(CHAR, name=name) for name in shipped_characters()]
    for bf in letters:
        assert ctx.letter_star(ctx.letter_star(bf)) == bf, bf
    assert ctx.letter_star(BF(LP, 1, 2)) == BF(SLM, 2, 1)
    assert ctx.letter_star(BF(LM, 1, 2)) == BF(SLP, 2, 1)
    with pytest.raises(DualError):
        ctx.letter_star(BF("XX", 1, 2))


def test_star_of_a_star_character_is_the_character():
    # zeta_q* is registered once, and its star maps back to zeta_q by name
    ctx = make_slq2_context()
    assert ctx.star_character("zeta_q") == "zeta_q*"
    names = sorted(ctx.characters)
    assert "zeta_q*" in names
    assert ctx.star_character("zeta_q*") == "zeta_q"
    assert ctx.star_character("zeta_q") == "zeta_q*"
    assert sorted(ctx.characters) == names


@pytest.mark.parametrize("name", ["nope", "nope*"])
def test_star_of_an_unknown_character_raises(ctx, name):
    with pytest.raises(DualError, match="unknown character"):
        ctx.star_character(name)


def test_star_character_breaking_a_relation_is_refused(monkeypatch):
    # a scalar star that doubles every coefficient makes the derived values
    # of zeta_q* four times too large, so zeta_q* no longer keeps
    # v11 v22 - q v12 v21 = 1; it is refused and left unregistered
    ctx = make_slq2_context()
    monkeypatch.setattr(AlgebraPresentation, "conj", lambda self, c: c * 2)
    with pytest.raises(DualError, match="does not respect relation"):
        ctx.star_character("zeta_q")
    assert "zeta_q*" not in ctx.characters


def test_l_matrix_star_is_transpose(ctx):
    # (l^k_j)* = l^j_k extensionally on the degree-3 corpus
    for k in (1, 2):
        for j in (1, 2):
            assert lkj(ctx, k, j).star().ext_equal(lkj(ctx, j, k), 3)


def test_star_antimultiplicative_extensional(ctx):
    rng = random.Random(6)
    letters = [BF(LP, 1, 1), BF(LM, 2, 1), BF(SLM, 1, 2), BF(LP, 2, 2)]
    for _ in range(5):
        w1 = tuple(letters[rng.randrange(4)] for _ in range(2))
        w2 = (letters[rng.randrange(4)],)
        f = DualElement(ctx, {w1: ONE})
        g = DualElement(ctx, {w2: qp(1)})
        assert (f * g).star().ext_equal(g.star() * f.star(), 2)


# -- left action -------------------------------------------------------------------


def test_left_action_counit(ctx):
    rng = random.Random(7)
    for _ in range(10):
        a = random_poly(ctx.pres, rng, 2, 2)
        assert ctx.unit().left_act(a) == a


def test_left_action_frozen_value(ctx):
    # oracle: legwise hand expansion with literal R entries gives q * v11
    got = f_functional(ctx, 1, 1, 1, 1).left_act(ctx.pres.gen("v11"))
    assert got == ctx.pres.gen("v11").scale(qp(1))


def test_module_algebra_law(ctx):
    # f |> (ab) = (f_(1) |> a)(f_(2) |> b)
    rng = random.Random(8)
    f = lkj(ctx, 1, 2)
    split = f.coproduct()
    for _ in range(6):
        a = random_poly(ctx.pres, rng, 1, 2)
        b = random_poly(ctx.pres, rng, 1, 2)
        lhs = f.left_act(a * b)
        rhs = ctx.pres.zero()
        for (fl, fr), c in split.items():
            rhs = rhs + (DualElement(ctx, {fl: ONE}).left_act(a)
                         * DualElement(ctx, {fr: ONE}).left_act(b)).scale(c)
        assert lhs == rhs


def test_star_module_algebra_law(ctx):
    # (f |> a)* = (S(f))* |> a*, with S(l+[i,j]) = S(l+)[i,j] and likewise for l-
    antipode = {LP: SLP, LM: SLM}
    for bf in (BF(LP, 1, 2), BF(LM, 2, 2), BF(LP, 2, 1)):
        f = DualElement(ctx, {(bf,): ONE})
        sf_star = DualElement(ctx, {(BF(antipode[bf.kind], bf.i, bf.j),): ONE}).star()
        for w in ctx.corpus(2):
            a = NCPoly(ctx.pres, {w: ONE})
            assert f.left_act(a).star() == sf_star.left_act(a.star())


# -- cross product -------------------------------------------------------------------


def test_cross_eps_commutes(ctx):
    a = ctx.pres.gen("v12")
    lhs = mixed_word_to_cross(ctx, [ctx.unit(), a])
    assert lhs == CrossElement.from_poly(ctx, a)


def test_mixed_word_multiplies_from_the_first_item(ctx, monkeypatch):
    mul = CrossElement.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(CrossElement, "__mul__", counted)
    a, X = ctx.pres.gen("v12"), x_functional(ctx, 1, 2)
    for items in ([], [a], [X, a], [a, X, a]):
        calls.clear()
        out = mixed_word_to_cross(ctx, items)
        assert len(calls) == max(len(items) - 1, 0)
    assert mixed_word_to_cross(ctx, []) == CrossElement(ctx, {((), ()): ONE})
    assert out == (CrossElement.from_poly(ctx, a) * CrossElement.from_dual(ctx, X)
                   * CrossElement.from_poly(ctx, a))


def test_cross_relation_x(ctx):
    # X a = a X + sum (X_uw |> a) f^{uw}, straightened exactly
    for (k, j) in ((1, 1), (1, 2), (2, 1)):
        X = x_functional(ctx, k, j)
        for gname in ("v11", "v21"):
            a = ctx.pres.gen(gname)
            lhs = mixed_word_to_cross(ctx, [X, a])
            rhs = mixed_word_to_cross(ctx, [a, X])
            for u in (1, 2):
                for w in (1, 2):
                    acted = x_functional(ctx, u, w).left_act(a)
                    if acted.is_zero():
                        continue
                    rhs = rhs + mixed_word_to_cross(
                        ctx, [acted, f_functional(ctx, u, w, k, j)])
            assert lhs == rhs


def test_cross_relation_f(ctx):
    # f^{kj}_{st} a = sum_{uw} (f^{kj}_{uw} |> a) f^{uw}_{st}
    k, j, s, t = 1, 2, 2, 1
    f = f_functional(ctx, k, j, s, t)
    a = ctx.pres.gen("v11")
    lhs = mixed_word_to_cross(ctx, [f, a])
    rhs = CrossElement(ctx, {})
    for u in (1, 2):
        for w in (1, 2):
            acted = f_functional(ctx, k, j, u, w).left_act(a)
            if acted.is_zero():
                continue
            rhs = rhs + mixed_word_to_cross(ctx, [acted, f_functional(ctx, u, w, s, t)])
    assert lhs == rhs


def test_cross_act_cases(ctx):
    b = ctx.pres.gen("v11") * ctx.pres.gen("v12")
    one_eps = CrossElement(ctx, {((), ()): ONE})
    assert one_eps.act(b) == b
    a = ctx.pres.gen("v21")
    assert CrossElement.from_poly(ctx, a).act(b) == a * b
    X = x_functional(ctx, 1, 2)
    via_cross = mixed_word_to_cross(ctx, [X, b]).act(ctx.pres.one())
    assert via_cross == X.left_act(b)


def test_cross_act_is_action(ctx):
    rng = random.Random(9)
    X = x_functional(ctx, 2, 1)
    x = mixed_word_to_cross(ctx, [ctx.pres.gen("v11"), X])
    y = mixed_word_to_cross(ctx, [X, ctx.pres.gen("v12")])
    for _ in range(5):
        b = random_poly(ctx.pres, rng, 2, 2)
        assert (x * y).act(b) == x.act(y.act(b))


def test_pairing_kills_relations_words(ctx):
    # <f, r_lhs - r_rhs> = 0 for functional words up to length 3
    letters = [BF(LP, 1, 1), BF(LM, 2, 1), BF(SLM, 1, 2)]
    words = [(letters[0],), (letters[0], letters[1]),
             (letters[2], letters[0], letters[1])]
    for fw in words:
        f = DualElement(ctx, {fw: ONE})
        for lhs, rhs in ctx.pres.rules:
            left = f.evaluate(NCPoly(ctx.pres, ctx.pres.normal_form_terms({lhs: ONE})))
            right = f.evaluate(NCPoly(ctx.pres, ctx.pres.normal_form_terms(dict(rhs))))
            assert left == right


def structural_letters(ctx):
    letters = [BF(EPS)] + [BF(CHAR, name=name) for name in sorted(ctx.characters)]
    return letters + [BF(kind, i, j) for kind in (LP, LM, SLP, SLM)
                      for i in (1, 2) for j in (1, 2)]


def test_pairing_is_counit_of_left_action(ctx):
    # <f, a> = eps(f |> a): the pairing and the left action share one path
    letters = structural_letters(ctx)
    fwords = [()] + [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
    for w in ctx.corpus(2):
        a = NCPoly(ctx.pres, {w: ONE})
        for fw in fwords:
            f = DualElement(ctx, {fw: ONE})
            assert f.evaluate(a) == ctx.hopf.counit(f.left_act(a)), (fw, w)


def test_antipode_letters_pair_through_algebra_antipode(ctx):
    # <S(l)[i,j], w> = <l[i,j], S(w)>, with S(w) from the Hopf structure
    for w in ctx.corpus(3):
        s_w = ctx.hopf.antipode(NCPoly(ctx.pres, {w: ONE}))
        for kind, base in ((SLP, LP), (SLM, LM)):
            for i in (1, 2):
                for j in (1, 2):
                    assert (ctx.eval_letter_word(BF(kind, i, j), w)
                            == ctx.eval_letter_poly(BF(base, i, j), s_w)), (kind, i, j, w)


# -- oracle: the coproduct pairing that the row walk replaced ------------------------


def reference_letter(ctx, bf, w):
    """<letter, w> by walking the letter's own matrices: along w for l+/l-,
    along the reversed w with the antipode matrices for S(l+)/S(l-)
    (<S(f), g1..gd> = <f, S(gd)..S(g1)>), a product of values for a
    character and the counit for eps."""
    if bf.kind == EPS:
        return ctx.hopf.counit_word(w)
    if bf.kind == CHAR:
        out = ONE
        for g in w:
            out = out * ctx.character_values(bf.name)[g]
        return out
    if bf.kind in (LP, LM):
        gens = w

        def entry(k, t, g):
            i, l = ctx.gen_index[g]
            return ctx.R.r_form(i, l, k, t) if bf.kind == LP else ctx.R.rbar_form(k, t, i, l)
    else:
        base = LP if bf.kind == SLP else LM
        gens = tuple(reversed(w))

        def entry(k, t, g):
            return reference_poly(ctx, BF(base, k, t), ctx.hopf.antipode_table[g])
    row = {bf.i: ONE}
    for g in gens:
        nxt = {}
        for k, c in row.items():
            for t in range(1, ctx.n + 1):
                nxt[t] = nxt.get(t, ZERO) + c * entry(k, t, g)
        row = nxt
    return row.get(bf.j, ZERO)


def reference_poly(ctx, bf, p):
    total = ZERO
    for w, c in p.terms.items():
        total = total + c * reference_letter(ctx, bf, w)
    return total


def reference_pairing(ctx, fword, w):
    """<f1...fm, w>: the sum of c <f1, u1> ... <fm, um> over the terms
    c u1 (x) ... (x) um of the m-fold coproduct of w."""
    if not fword:
        return ctx.hopf.counit_word(w)
    total = ZERO
    for legs, c in ctx.hopf.iterated_coproduct_word(w, len(fword)).terms.items():
        for bf, leg in zip(fword, legs):
            c = c * reference_letter(ctx, bf, leg)
        total = total + c
    return total


def random_fword(rng, m):
    """m letters of every kind: l+/l-, their antipodes, the characters zeta_q
    and eps, and the counit letter."""
    out = []
    for _ in range(m):
        kind = rng.choice([LP, LM, SLP, SLM, CHAR, EPS])
        if kind == CHAR:
            out.append(BF(CHAR, name=rng.choice(["zeta_q", "eps"])))
        elif kind == EPS:
            out.append(BF(EPS))
        else:
            out.append(BF(kind, rng.randint(1, 2), rng.randint(1, 2)))
    return tuple(out)


def test_walk_matches_coproduct_pairing(ctx):
    rng = random.Random(11)
    fwords = [()] + [random_fword(rng, m) for m in (1, 2, 3) for _ in range(10)]
    for fw in fwords:
        for w in ctx.corpus(3):
            assert ctx.eval_word_on_word(fw, w) == reference_pairing(ctx, fw, w), (fw, w)


def test_walk_on_non_normal_words_is_the_value_of_the_normal_form(ctx):
    rng = random.Random(12)
    gens = ctx.pres.generators
    rewritten = 0
    for _ in range(40):
        fw = random_fword(rng, rng.randint(1, 3))
        w = tuple(rng.choice(gens) for _ in range(rng.randint(2, 4)))
        nf = ctx.pres.normal_form_word(w)
        rewritten += nf != {w: ONE}
        want = ZERO
        for u, c in nf.items():
            want = want + c * reference_pairing(ctx, fw, u)
        assert ctx.eval_word_on_word(fw, w) == want, (fw, w)
    assert rewritten >= 20


# -- oracle: the per-split cross product that straightening replaced ------------------


def reference_cross_mul(x, y):
    """(w1 f1)(w2 f2) = sum w1 (f1_(1) |> w2) f1_(2) f2, rebuilding the
    coproduct of f1 and acting with every split on w2 for every term pair."""
    ctx = x.ctx
    pres = ctx.pres
    out = {}
    for (w1, f1), c1 in x.terms.items():
        split = DualElement(ctx, {f1: ONE}).coproduct()
        for (w2, f2), c2 in y.terms.items():
            b = NCPoly(pres, {w2: ONE})
            for (fl, fr), cc in split.items():
                acted = DualElement(ctx, {fl: ONE}).left_act(b)
                if acted.is_zero():
                    continue
                left = NCPoly(pres, {w1: ONE}) * acted
                for u, cu in left.terms.items():
                    key = (u, fr + f2)
                    out[key] = out.get(key, ZERO) + c1 * c2 * cc * cu
    return CrossElement(ctx, out)


def cross_functionals(ctx):
    """Functionals of the cross products in the checks: X, f, C, words with
    S(l+-) letters, and zeta_q words."""
    from ncgv.fodc import bicovariant_build
    zeta = BF(CHAR, name="zeta_q")
    return [x_functional(ctx, 1, 1), x_functional(ctx, 2, 1),
            f_functional(ctx, 1, 2, 2, 1), f_functional(ctx, 2, 2, 1, 1),
            bicovariant_build(ctx, "eps").C,
            DualElement(ctx, {(BF(SLP, 1, 2),): ONE, (BF(SLM, 2, 2), BF(LM, 1, 1)): qp(1)}),
            DualElement(ctx, {(zeta,): ONE}),
            DualElement(ctx, {(zeta, BF(LP, 2, 1)): qp(-1), (BF(SLP, 1, 1), zeta): ONE})]


def random_cross(ctx, rng, duals):
    """A sum of three pieces, each a f with a a random poly of degree <= 2 and
    f from ``duals``, a pure-algebra term a eps, a pure functional 1 f, or a
    multiple of the unit 1 eps."""
    pres = ctx.pres
    out = CrossElement(ctx, {})
    for _ in range(3):
        kind = rng.choice(["mixed", "algebra", "dual", "unit"])
        a = random_poly(pres, rng, 2, 2) if kind in ("mixed", "algebra") else pres.one()
        f = rng.choice(duals) if kind in ("mixed", "dual") else ctx.unit()
        c = qp(rng.randint(-2, 2)) if kind == "unit" else ONE
        out = out + CrossElement(ctx, {(w, fw): c * ca * cf for w, ca in a.terms.items()
                                       for fw, cf in f.terms.items()})
    return out


def test_cross_mul_matches_per_split_reference(ctx):
    rng = random.Random(21)
    duals = cross_functionals(ctx)
    for _ in range(12):
        x, y = random_cross(ctx, rng, duals), random_cross(ctx, rng, duals)
        assert x * y == reference_cross_mul(x, y), (x, y)


def test_repeated_cross_product_makes_no_new_action(monkeypatch):
    # straightening is cached per (functional word, algebra word)
    ctx = make_slq2_context()
    x = random_cross(ctx, random.Random(22), cross_functionals(ctx))
    calls = []
    for owner, name in ((DualContext, "act_on_word"), (DualElement, "coproduct")):
        def counted(self, *args, _orig=getattr(owner, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(owner, name, counted)
    first = x * x
    assert "act_on_word" in calls and "coproduct" in calls
    calls.clear()
    assert x * x == first
    assert calls == []


# -- certificates for words of every length ------------------------------------------


def letter_element(ctx, *letters, c=ONE):
    return DualElement(ctx, {ctx.canonical_word(letters): c})


def antipode_identity(ctx, kind, i, j):
    """sum_t l[i,t] S(l)[t,j] - delta_ij eps for the family of ``kind``
    (S(l+) or S(l-)): the antipode axiom of the dual, zero on every word."""
    base = LP if kind == SLP else LM
    f = sum((letter_element(ctx, BF(base, i, t), BF(kind, t, j)) for t in (1, 2)),
            DualElement(ctx, {}))
    return f - ctx.unit() if i == j else f


ALL_LETTERS = ([BF(kind, i, j) for kind in (LP, LM, SLP, SLM) for i in (1, 2) for j in (1, 2)]
               + [BF(CHAR, name="zeta_q"), BF(CHAR, name="eps"), BF(EPS)])
scalars = st.builds(lambda cs, k: QScalar(tuple(cs)) * QScalar.s_power(k),
                    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                    st.integers(-2, 2)).filter(lambda c: not c.is_zero())


def combinations(max_letters, max_terms, min_terms=0):
    """Terms {functional word: coefficient} with letters of every kind."""
    return st.dictionaries(st.lists(st.sampled_from(ALL_LETTERS), max_size=max_letters).map(tuple),
                           scalars, min_size=min_terms, max_size=max_terms)


def element(ctx, terms):
    return sum((letter_element(ctx, *w, c=c) for w, c in terms.items()), DualElement(ctx, {}))


def test_antipode_identities_vanish(ctx):
    for kind in (SLP, SLM):
        for i in (1, 2):
            for j in (1, 2):
                f = antipode_identity(ctx, kind, i, j)
                assert f.terms and f.vanishes()
                assert next(f.nonzero_words(4), None) is None


@settings(max_examples=30, deadline=None)
@given(left=combinations(1, 2, 1), right=combinations(1, 2, 1),
       identity=st.tuples(st.sampled_from([SLP, SLM]), st.integers(1, 2), st.integers(1, 2)),
       noise=combinations(2, 2))
def test_vanishing_certificate_is_sound(ctx, left, right, identity, noise):
    # psi chi psi' vanishes on every word when chi does, so it must be
    # certified; with noise added, a certificate must still mean that every
    # corpus word gives 0
    zero = element(ctx, left) * antipode_identity(ctx, *identity) * element(ctx, right)
    assert zero.vanishes()
    f = zero + element(ctx, noise)
    if f.vanishes():
        assert next(f.nonzero_words(4), None) is None


@settings(max_examples=40, deadline=None)
@given(terms=combinations(3, 3),
       word=st.lists(st.sampled_from(["v11", "v12", "v21", "v22"]), max_size=5).map(tuple))
def test_automaton_value_is_the_walk_on_raw_words(ctx, terms, word):
    f = element(ctx, terms)
    auto = _Automaton(ctx, {(0, 0): f})
    x = auto.start(0)
    for g in word:
        x = auto.step(x, g)
    assert auto.read(x, 0) == sum((c * ctx.eval_word_on_word(fw, word)
                                   for fw, c in f.terms.items()), ZERO)


def test_vanishing_test_refuses_a_functional_zero_at_one(ctx):
    # l+[1,2] is 0 at 1, so the start vector alone would certify it
    f = letter_element(ctx, BF(LP, 1, 2))
    assert f.evaluate(()) == ZERO and not f.vanishes()
    assert next(f.nonzero_words(1)) == ("v21",)


def letter_matrix(ctx, kind, transpose=False):
    return [[letter_element(ctx, BF(kind, j, i) if transpose else BF(kind, i, j))
             for j in (1, 2)] for i in (1, 2)]


def test_letter_matrices_are_multiplicative(ctx):
    # Delta l[i,j] = sum_t l[i,t] (x) l[t,j]; the antipodes reverse the
    # coproduct, so their matrices are multiplicative only transposed; eps
    # and each character are 1 x 1 families
    for kind in (LP, LM):
        assert multiplicative(letter_matrix(ctx, kind))
    for kind in (SLP, SLM):
        assert multiplicative(letter_matrix(ctx, kind, transpose=True))
        assert not multiplicative(letter_matrix(ctx, kind))
    assert multiplicative([[letter_element(ctx, BF(EPS))]])
    for name in shipped_characters():
        assert multiplicative([[letter_element(ctx, BF(CHAR, name=name))]]), name


NORMALISATIONS = {"c": lambda c: c, "-c": lambda c: -c, "1": lambda c: ONE,
                  "2c": lambda c: c * 2, "c*s": lambda c: c * S, "c/s": lambda c: c * S.inverse(),
                  "c*q": lambda c: c * Q, "c/q": lambda c: c * Q.inverse()}


@pytest.mark.parametrize("label", NORMALISATIONS)
def test_r_form_normalisation(ctx, label):
    # the letters kill v11 v22 - q v12 v21 = 1 only for c^2, so every family
    # accepts c and -c and refuses any other normalisation
    R = ctx.R
    scaled = RMatrixData(label, R.n, NORMALISATIONS[label](R.c), R.R, R.Rinv)
    other = DualContext(ctx.pres, ctx.hopf, scaled)
    for kind, transpose in ((LP, False), (LM, False), (SLP, True), (SLM, True)):
        assert multiplicative(letter_matrix(other, kind, transpose)) is (label in ("c", "-c")), kind


def test_multiplicativity_refuses_a_character_that_breaks_a_relation(ctx):
    # multiplicative on free words and 1 at 1, but not an algebra map:
    # v11 v22 - q v12 v21 = 1 fails
    # planted past add_character, which refuses it
    bad = DualContext(ctx.pres, ctx.hopf, ctx.R)
    bad.characters["bad"] = {"v11": S, "v12": ZERO, "v21": ZERO, "v22": ONE}
    chi = DualElement(bad, {(BF(CHAR, name="bad"),): ONE})
    assert multiplicative([[chi]]) is False
    pres = bad.pres
    assert any(chi.evaluate(NCPoly(pres, {a: ONE}) * NCPoly(pres, {b: ONE}))
               != chi.evaluate(a) * chi.evaluate(b)
               for a in bad.corpus(1) for b in bad.corpus(1))


def test_multiplicativity_checks_column_0(ctx):
    # M = (eps 0; l+[1,2] eps) holds in column 1 but not in column 0, where
    # M(ab)_10 = l+[1,2](ab) would have to be l+[1,2](a) eps(b) + eps(a) l+[1,2](b)
    phi = letter_element(ctx, BF(LP, 1, 2))
    M = [[ctx.unit(), DualElement(ctx, {})], [phi, ctx.unit()]]
    assert multiplicative(M) is False
    eps = ctx.hopf.counit_word
    pres = ctx.pres
    assert any(phi.evaluate(NCPoly(pres, {a: ONE}) * NCPoly(pres, {b: ONE}))
               != phi.evaluate(a) * eps(b) + eps(a) * phi.evaluate(b)
               for a in ctx.corpus(1) for b in ctx.corpus(1))


# -- oracle: the per-term left action and cross action that the caches replaced -------


def reference_left_act(f, a):
    """f |> a = sum fc c (fw |> w) over every pair of terms fc fw of f and c w
    of a, each fw |> w = sum cv <fw, v> u over the coproduct u (x) v of w,
    with nothing cached."""
    ctx = f.ctx
    out = {}
    for fw, fc in f.terms.items():
        for w, c in a.terms.items():
            for (u, v), cv in ctx.hopf.coproduct_word(w).terms.items():
                out[u] = out.get(u, ZERO) + fc * c * cv * ctx.eval_word_on_word(fw, v)
    return NCPoly(ctx.pres, {u: c for u, c in out.items() if not c.is_zero()})


def reference_cross_act(x, b):
    """(w f) . b = w (f |> b) summed term by term, with one polynomial
    product per term."""
    ctx = x.ctx
    total = ctx.pres.zero()
    for (w, f), c in x.terms.items():
        acted = reference_left_act(DualElement(ctx, {f: ONE}), b)
        total = total + (NCPoly(ctx.pres, {w: ONE}) * acted).scale(c)
    return total


UNIT_COEFFICIENTS = st.sampled_from([ONE, -ONE, qp(1), QScalar.from_int(2)])


@settings(max_examples=40, deadline=None)
@given(terms=st.dictionaries(st.lists(st.sampled_from(ALL_LETTERS), max_size=2).map(tuple),
                             UNIT_COEFFICIENTS, min_size=1, max_size=3),
       a_terms=st.dictionaries(st.integers(0, 29), UNIT_COEFFICIENTS, min_size=1, max_size=3))
def test_left_act_matches_per_term_reference(ctx, terms, a_terms):
    words = ctx.corpus(3)
    a = NCPoly(ctx.pres, {words[i]: c for i, c in a_terms.items()})
    f = element(ctx, terms)
    want = reference_left_act(f, a)
    assert f.left_act(a) == want
    # the second call reads the element's cache
    assert f.left_act(a) == want


def test_element_caches_are_per_element(ctx):
    # elements acting on the same words, one a multiple of another
    a = random_poly(ctx.pres, random.Random(31), 2, 3)
    fs = [x_functional(ctx, 1, 1), f_functional(ctx, 1, 2, 1, 2), x_functional(ctx, 2, 1)]
    fs += [f.scale(qp(1)) for f in fs] + [f.scale(QScalar.from_int(-2)) for f in fs]
    for _ in range(2):
        for f in fs:
            want = reference_left_act(f, a)
            assert not want.is_zero()
            assert f.left_act(a) == want, f


def test_scaled_single_term_leaves_the_context_actions_alone(ctx):
    # a single term with coefficient 1 shares the context's dicts; a scaled
    # one must neither share nor scale them
    f = f_functional(ctx, 1, 2, 1, 2)
    (fw,) = f.terms
    a = random_poly(ctx.pres, random.Random(32), 2, 3)
    unit = f.left_act(a)
    assert not unit.is_zero()
    before = {w: dict(ctx._act_cache[fw, w]) for w in a.terms}
    scaled = f.scale(qp(1))
    for _ in range(2):
        assert scaled.left_act(a) == unit.scale(qp(1))
    assert {w: ctx._act_cache[fw, w] for w in a.terms} == before
    assert f.left_act(a) == unit


def test_cross_act_matches_per_term_reference(ctx):
    rng = random.Random(33)
    duals = cross_functionals(ctx)
    prefixed = 0
    for _ in range(8):
        x, y = random_cross(ctx, rng, duals), random_cross(ctx, rng, duals)
        b = random_poly(ctx.pres, rng, 2, 3)
        for z in (x, x * y):
            prefixed += any(w and f for w, f in z.terms)
            assert z.act(b) == reference_cross_act(z, b), (z, b)
    assert prefixed >= 4


def test_cross_act_makes_no_polynomial_product(ctx, monkeypatch):
    rng = random.Random(34)
    duals = cross_functionals(ctx)
    x = random_cross(ctx, rng, duals) * random_cross(ctx, rng, duals)
    b = random_poly(ctx.pres, rng, 2, 3)
    want = reference_cross_act(x, b)

    def refuse(self, other):
        raise AssertionError("NCPoly product in the cross action")

    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    assert x.act(b) == want
