"""The Hopf dual at working scale: words of basic functionals evaluated
through iterated coproducts, the convolution algebra, dual star and antipode,
the left action, and the cross product algebra.

Functional letters: LP/LM are the matrix functionals attached to the R-matrix
(l^{+k}_j = r(. (x) v^k_j), l^{-k}_j = rbar(v^k_j (x) .)), SLP/SLM their
antipodes kept structural (evaluation reroutes through S on the algebra),
CHAR a named multiplicative functional, EPS the counit.  Words are canonical
with counital letters dropped; equality of functionals is extensional over a
degree-bounded word corpus, as recorded in every report that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LinComb, NCPoly, _accum
from .exprparse import base_env, parse_scalar, scalar_to_str
from .scalars import ONE, QScalar, ZERO

LP, LM, SLP, SLM, CHAR, EPS = "LP", "LM", "SLP", "SLM", "CHAR", "EPS"


class DualError(ValueError):
    pass


def _character_value(vals, terms):
    """sum c vals[g1] ... vals[gk] over the terms {(g1, ..., gk): c} of a
    polynomial or word: a character with generator values ``vals``."""
    total = ZERO
    for w, c in terms.items():
        t = c
        for g in w:
            t = t * vals[g]
        total = total + t
    return total


@dataclass(frozen=True)
class BF:
    """A basic functional letter."""

    kind: str
    i: int = 0
    j: int = 0
    name: str = ""

    def __repr__(self):
        if self.kind in (LP, LM, SLP, SLM):
            sym = {LP: "l+", LM: "l-", SLP: "S(l+)", SLM: "S(l-)"}[self.kind]
            return f"{sym}[{self.i},{self.j}]"
        if self.kind == CHAR:
            return f"char[{self.name}]"
        return "eps"


class DualContext:
    """Evaluation and coproduct data shared by all functionals of one algebra."""

    def __init__(self, pres, hopf, rmatrix, characters=None):
        self.pres = pres
        self.hopf = hopf
        self.R = rmatrix
        self.characters = dict(characters or {})
        self.n = rmatrix.n if rmatrix is not None else 0
        self.gen_index = {}
        if rmatrix is not None:
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    self.gen_index[f"v{i}{j}"] = (i, j)
            for g in self.gen_index:
                if g not in pres._index:
                    raise DualError(f"presentation lacks matrix generator {g!r}")
        self._letter_word_cache = {}
        self._word_eval_cache = {}
        self._act_cache = {}
        self._star_char_cache = {}

    # -- corpora -------------------------------------------------------------

    def corpus(self, degree):
        """The normal words of length <= degree, sorted (cached by the
        presentation)."""
        return self.pres.normal_words(degree)

    # -- characters ------------------------------------------------------------

    def character_values(self, name):
        try:
            return self.characters[name]
        except KeyError:
            raise DualError(f"unknown character {name!r}") from None

    def validate_character(self, name):
        """A character must kill the relation ideal (it is an algebra map)."""
        vals = self.character_values(name)
        for g in self.pres.generators:
            if g not in vals:
                raise DualError(f"character {name!r} missing value at {g!r}")
        for lhs, rhs in self.pres.rules:
            if _character_value(vals, {lhs: ONE}) != _character_value(vals, rhs):
                raise DualError(
                    f"character {name!r} does not respect relation {' '.join(lhs)}")

    def star_character(self, name):
        """<zeta*, a> = conj <zeta, S(a)*> defines another character."""
        if name in self._star_char_cache:
            return self._star_char_cache[name]
        star_name = name + "*"
        self.characters[star_name] = self._after_antipode(name, star=True)
        self._star_char_cache[name] = star_name
        # involution: the star of the star character is the original
        self._star_char_cache[star_name] = name
        return star_name

    def _after_antipode(self, name, star=False):
        """Generator values of zeta o S, or with ``star`` of
        g -> conj <zeta, S(g)*>."""
        vals = self.character_values(name)
        mode = self.pres.star_mode
        out = {}
        for g in self.pres.generators:
            p = self.hopf.antipode(self.pres.gen(g))
            if star:
                out[g] = _character_value(vals, p.star().terms).star(mode)
            else:
                out[g] = _character_value(vals, p.terms)
        return out

    def is_counital(self, bf):
        """True when the letter acts exactly as the counit (dropped from
        canonical words)."""
        if bf.kind == EPS:
            return True
        if bf.kind == CHAR:
            vals = self.character_values(bf.name)
            return all(vals[g] == self.hopf.counit_table[g]
                       for g in self.pres.generators)
        return False

    # -- letter evaluation -------------------------------------------------------

    def _matrix_entry(self, kind, k, j, gen):
        try:
            i, l = self.gen_index[gen]
        except KeyError:
            raise DualError(
                f"no evaluation table entry for generator {gen!r}") from None
        if kind == LP:
            return self.R.r_form(i, l, k, j)
        if kind == LM:
            return self.R.rbar_form(k, j, i, l)
        raise DualError(kind)

    def eval_letter_word(self, bf, w):
        """<letter, word> for a normal word of generators."""
        key = (bf, w)
        hit = self._letter_word_cache.get(key)
        if hit is not None:
            return hit
        val = self._eval_letter_word(bf, w)
        self._letter_word_cache[key] = val
        return val

    def _eval_letter_word(self, bf, w):
        if bf.kind == EPS:
            return self.hopf.counit_word(w)
        if bf.kind == CHAR:
            return _character_value(self.character_values(bf.name), {w: ONE})
        if bf.kind in (LP, LM):
            gens = w

            def entry(k, t, g):
                return self._matrix_entry(bf.kind, k, t, g)
        elif bf.kind in (SLP, SLM):
            # <S(f), g1..gd> = <f, S(gd)..S(g1)>: reversed product of the
            # antipode evaluations
            base = LP if bf.kind == SLP else LM
            gens = reversed(w)

            def entry(k, t, g):
                return self.eval_letter_poly(BF(base, k, t), self.hopf.antipode_table[g])
        else:
            raise DualError(f"unknown letter kind {bf.kind!r}")
        # matrix coproduct: row bf.i of the product of per-generator matrices
        vec = {bf.i: ONE}
        for g in gens:
            nxt = {}
            for k, c in vec.items():
                for t in range(1, self.n + 1):
                    e = entry(k, t, g)
                    if not e.is_zero():
                        nxt[t] = nxt.get(t, ZERO) + c * e
            vec = {k: c for k, c in nxt.items() if not c.is_zero()}
            if not vec:
                return ZERO
        return vec.get(bf.j, ZERO)

    def eval_letter_poly(self, bf, p):
        v = ZERO
        for w, c in p.terms.items():
            v = v + c * self.eval_letter_word(bf, w)
        return v

    # -- word evaluation ---------------------------------------------------------

    def eval_word_on_word(self, fword, w):
        """<f1...fm, w> through the m-fold coproduct of w."""
        key = (fword, w)
        hit = self._word_eval_cache.get(key)
        if hit is not None:
            return hit
        m = len(fword)
        if m == 0:
            val = self.hopf.counit_word(w)
        elif m == 1:
            val = self.eval_letter_word(fword[0], w)
        else:
            val = self.pair_legs(fword, w, 0).get((), ZERO)
        self._word_eval_cache[key] = val
        return val

    def pair_legs(self, fword, w, free):
        """Pair f1...fm with the last m legs of the (free + m)-fold coproduct
        of w: {first ``free`` legs: sum of c <f1, leg> ... <fm, leg>}."""
        out = {}
        it = self.hopf.iterated_coproduct_word(w, free + len(fword))
        for legs, c in it.terms.items():
            t = c
            for bf, leg in zip(fword, legs[free:]):
                t = t * self.eval_letter_word(bf, leg)
                if t.is_zero():
                    break
            else:
                _accum(out, legs[:free], t)
        return out

    # -- letter structure -----------------------------------------------------------

    def letter_coproduct(self, bf):
        """List of (left letter, right letter); matrix families sum over the
        connecting index, antipoded families use the flipped rule."""
        if bf.kind in (EPS, CHAR):
            return [(bf, bf)]
        n = self.n
        if bf.kind in (LP, LM):
            return [(BF(bf.kind, bf.i, t), BF(bf.kind, t, bf.j))
                    for t in range(1, n + 1)]
        # Delta(S(f)) = S(f_(2)) (x) S(f_(1))
        return [(BF(bf.kind, t, bf.j), BF(bf.kind, bf.i, t))
                for t in range(1, n + 1)]

    def letter_star(self, bf):
        """Star under real r-form with unitary corepresentation."""
        if bf.kind == EPS:
            return bf
        if bf.kind == CHAR:
            return BF(CHAR, name=self.star_character(bf.name))
        if bf.kind == LP:
            return BF(SLM, bf.j, bf.i)
        if bf.kind == SLM:
            return BF(LP, bf.j, bf.i)
        if bf.kind == LM:
            return BF(SLP, bf.j, bf.i)
        if bf.kind == SLP:
            return BF(LM, bf.j, bf.i)
        raise DualError(bf.kind)

    def letter_antipode(self, bf):
        if bf.kind == EPS:
            return bf
        if bf.kind == CHAR:
            # characters are group-like: S(zeta) = zeta o S, again a character
            name = bf.name + "_S"
            if name not in self.characters:
                self.characters[name] = self._after_antipode(bf.name)
            return BF(CHAR, name=name)
        if bf.kind == LP:
            return BF(SLP, bf.i, bf.j)
        if bf.kind == LM:
            return BF(SLM, bf.i, bf.j)
        raise DualError(
            f"antipode of {bf!r} leaves the structural letter alphabet")

    # -- canonical words -------------------------------------------------------------

    def canonical_word(self, letters):
        return tuple(bf for bf in letters if not self.is_counital(bf))

    def unit(self):
        return DualElement(self, {(): ONE})

    def element(self, word, coeff=ONE):
        return DualElement(self, {self.canonical_word(word): coeff})


class DualElement(LinComb):
    """Finite Q(s)-combination of functional words."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _owner(self):
        return (self.ctx,)

    def _same(self, other):
        if self.ctx is not other.ctx:
            raise DualError("functionals from different contexts")

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accum(out, w1 + w2, c1 * c2)
        return DualElement(self.ctx, out)

    def evaluate(self, a):
        """Pairing with an algebra element (NCPoly or raw word)."""
        ctx = self.ctx
        terms = a.terms if isinstance(a, NCPoly) else {tuple(a): ONE}
        val = ZERO
        for w, c in terms.items():
            for fw, fc in self.terms.items():
                val = val + c * fc * ctx.eval_word_on_word(fw, w)
        return val

    def ext_equal(self, other, degree):
        """Extensional equality over the evaluation corpus of the given degree."""
        self._same(other)
        diff = self - other
        if not diff.terms:
            return True
        for w in self.ctx.corpus(degree):
            if not diff.evaluate(w).is_zero():
                return False
        return True

    def coproduct(self):
        """Word coproduct as a dict {(left word, right word): coeff}."""
        ctx = self.ctx
        out = {}
        for w, c in self.terms.items():
            pairs = [((), (), c)]
            for bf in w:
                split = ctx.letter_coproduct(bf)
                pairs = [
                    (l + (bl,), r + (br,), cc)
                    for l, r, cc in pairs
                    for bl, br in split
                ]
            for l, r, cc in pairs:
                key = (ctx.canonical_word(l), ctx.canonical_word(r))
                _accum(out, key, cc)
        return out

    def star(self):
        ctx = self.ctx
        mode = ctx.pres.star_mode
        out = {}
        for w, c in self.terms.items():
            sw = ctx.canonical_word(tuple(ctx.letter_star(bf) for bf in reversed(w)))
            _accum(out, sw, c.star(mode))
        return DualElement(ctx, out)

    def antipode(self):
        ctx = self.ctx
        out = {}
        for w, c in self.terms.items():
            sw = ctx.canonical_word(tuple(ctx.letter_antipode(bf) for bf in reversed(w)))
            _accum(out, sw, c)
        return DualElement(ctx, out)

    def left_act(self, a):
        """f |> a = a_(1) <f, a_(2)>, an element of the algebra."""
        ctx = self.ctx
        pres = ctx.pres
        total = {}
        for fw, fc in self.terms.items():
            for w, c in a.terms.items():
                key = (fw, w)
                hit = ctx._act_cache.get(key)
                if hit is None:
                    hit = ctx._act_cache[key] = ctx.pair_legs(fw, w, 1)
                for (u,), cu in hit.items():
                    _accum(total, u, fc * c * cu)
        return NCPoly(pres, total)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), repr(kv[0]))):
            word = "*".join(repr(bf) for bf in w) if w else "eps"
            parts.append(f"({scalar_to_str(c)})*{word}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# cross product algebra
# ---------------------------------------------------------------------------


class CrossElement(LinComb):
    """Element of the cross product in normal order: algebra letters left of
    functional letters, straightened by f a = (f_(1) |> a) f_(2)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def from_poly(cls, ctx, p):
        return cls(ctx, {(w, ()): c for w, c in p.terms.items()})

    @classmethod
    def from_dual(cls, ctx, f):
        return cls(ctx, {((), w): c for w, c in f.terms.items()})

    def _owner(self):
        return (self.ctx,)

    def _same(self, other):
        if self.ctx is not other.ctx:
            raise DualError("cross elements from different contexts")

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        ctx = self.ctx
        pres = ctx.pres
        out = {}
        for (w1, f1), c1 in self.terms.items():
            dual1 = DualElement(ctx, {f1: ONE})
            split = dual1.coproduct()
            for (w2, f2), c2 in other.terms.items():
                b = NCPoly(pres, {w2: ONE})
                for (fl, fr), cc in split.items():
                    acted = DualElement(ctx, {fl: ONE}).left_act(b)
                    if acted.is_zero():
                        continue
                    left = NCPoly(pres, {w1: ONE}) * acted
                    for u, cu in left.terms.items():
                        _accum(out, (u, fr + f2), c1 * c2 * cc * cu)
        return CrossElement(ctx, out)

    def star(self):
        """(a f)* = f* a*, re-straightened."""
        ctx = self.ctx
        out = CrossElement(ctx, {})
        for (w, f), c in self.terms.items():
            fstar = DualElement(ctx, {f: ONE}).star()
            astar = NCPoly(ctx.pres, {w: ONE}).star()
            piece = (CrossElement.from_dual(ctx, fstar)
                     * CrossElement.from_poly(ctx, astar))
            out = out + piece.scale(c.star(ctx.pres.star_mode))
        return out

    def act(self, b):
        """Left action on the algebra: (a f) . b = a (f |> b)."""
        ctx = self.ctx
        total = ctx.pres.zero()
        for (w, f), c in self.terms.items():
            acted = DualElement(ctx, {f: ONE}).left_act(b)
            if acted.is_zero():
                continue
            total = total + (NCPoly(ctx.pres, {w: ONE}) * acted).scale(c)
        return total

    def ext_equal(self, other, degree):
        """Extensional equality as operators on the corpus."""
        self._same(other)
        diff = self - other
        if not diff.terms:
            return True
        pres = self.ctx.pres
        for w in self.ctx.corpus(degree):
            if not diff.act(NCPoly(pres, {w: ONE})).is_zero():
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (w, f), c in sorted(self.terms.items(),
                                key=lambda kv: (len(kv[0][0]), len(kv[0][1]), repr(kv[0]))):
            aw = " ".join(w) if w else "1"
            fw = "*".join(repr(bf) for bf in f) if f else "eps"
            parts.append(f"({scalar_to_str(c)})*{aw}|{fw}")
        return " + ".join(parts)


def mixed_word_to_cross(ctx, items):
    """Straighten an alternating product of algebra and dual elements."""
    out = CrossElement(ctx, {((), ()): ONE})
    for item in items:
        if isinstance(item, NCPoly):
            out = out * CrossElement.from_poly(ctx, item)
        elif isinstance(item, DualElement):
            out = out * CrossElement.from_dual(ctx, item)
        else:
            raise DualError(f"cannot straighten {type(item).__name__}")
    return out


# ---------------------------------------------------------------------------
# r-form checks and context construction
# ---------------------------------------------------------------------------


def r_form_on_words(ctx, x, w):
    """r(x (x) w) for an algebra element x and generator word w, peeled with
    r(a (x) bc) = r(a_(1) (x) c) r(a_(2) (x) b)."""
    if len(w) == 0:
        return ctx.hopf.counit(x)
    if len(w) == 1:
        i, j = ctx.gen_index[w[0]]
        return ctx.eval_letter_poly(BF(LP, i, j), x)
    head, last = w[:-1], w[-1:]
    total = ZERO
    for (a1, a2), c in ctx.hopf.coproduct(x).terms.items():
        v1 = r_form_on_words(ctx, NCPoly(ctx.pres, {a1: ONE}), last)
        if v1.is_zero():
            continue
        v2 = r_form_on_words(ctx, NCPoly(ctx.pres, {a2: ONE}), head)
        total = total + c * v1 * v2
    return total


def validate_r_form(ctx, degree=2):
    """Bialgebra axioms of the universal r-form on the word corpus; exercises
    the normalization constant c (a wrong c breaks them)."""
    pres = ctx.pres
    words = [w for w in ctx.corpus(degree) if len(w) <= degree]
    failures = []
    for wa in words:
        if len(wa) == 0 or len(wa) > 2:
            continue
        a = NCPoly(pres, {wa: ONE})
        for wc in words:
            # r(ab (x) c) = r(a (x) c_(1)) r(b (x) c_(2)) with a, b letters
            if len(wa) == 2:
                a1 = NCPoly(pres, {wa[:1]: ONE})
                a2 = NCPoly(pres, {wa[1:]: ONE})
                lhs = r_form_on_words(ctx, a, wc)
                rhs = ZERO
                cpoly = NCPoly(pres, {wc: ONE})
                for (c1, c2), cc in ctx.hopf.coproduct(cpoly).terms.items():
                    rhs = rhs + cc * r_form_on_words(ctx, a1, c1) * r_form_on_words(ctx, a2, c2)
                if lhs != rhs:
                    failures.append(("product_left", wa, wc))
            # r(a (x) bc) = r(a_(1) (x) c) r(a_(2) (x) b) beyond the
            # single-letter peeling the evaluator is built from
            if len(wc) == 2:
                b1, b2 = wc[:1], wc[1:]
                lhs = r_form_on_words(ctx, a, wc)
                rhs = ZERO
                for (x1, x2), cc in ctx.hopf.coproduct(a).terms.items():
                    rhs = rhs + cc * r_form_on_words(
                        ctx, NCPoly(pres, {x1: ONE}), b2) * r_form_on_words(
                        ctx, NCPoly(pres, {x2: ONE}), b1)
                if lhs != rhs:
                    failures.append(("product_right", wa, wc))
    return failures


def validate_letters(ctx):
    """Every structural letter must annihilate the relation ideal."""
    pres = ctx.pres
    letters = [BF(EPS)]
    for name in ctx.characters:
        letters.append(BF(CHAR, name=name))
    for kind in (LP, LM, SLP, SLM):
        for i in range(1, ctx.n + 1):
            for j in range(1, ctx.n + 1):
                letters.append(BF(kind, i, j))
    failures = []
    for lhs, rhs in pres.rules:
        rel = pres.poly(rhs)
        for bf in letters:
            if ctx.eval_letter_word(bf, lhs) != ctx.eval_letter_poly(bf, rel):
                failures.append((bf, lhs))
    return failures


def shipped_characters():
    """The builtin characters of ``characters.json``: {name: {generator:
    value as text}}."""
    import json as _json
    from importlib import resources

    return _json.loads(resources.files("ncgv.data").joinpath("characters.json").read_text())


def make_slq2_context():
    """Presentation + Hopf structure + R-matrix + builtin characters."""
    from .hopf import slq2_hopf
    from .presentations import builtin_presentation
    from .rmatrix import builtin_rmatrix

    pres = builtin_presentation("slq2")
    H = slq2_hopf(pres)
    R = builtin_rmatrix("slq2")
    chars = {}
    env = base_env()
    for name, values in shipped_characters().items():
        chars[name] = {g: parse_scalar(v, env) for g, v in values.items()}
    ctx = DualContext(pres, H, R, chars)
    for name in list(chars):
        ctx.validate_character(name)
    return ctx


def load_character(doc, ctx):
    if isinstance(doc, str):
        import json as _json
        with open(doc) as fh:
            doc = _json.load(fh)
    env = base_env()
    vals = {g: parse_scalar(v, env) for g, v in doc["values"].items()}
    ctx.characters[doc["name"]] = vals
    ctx.validate_character(doc["name"])
    return doc["name"]
