"""The Hopf dual at working scale: words of basic functionals evaluated by
one row walk, the convolution algebra, the dual star, the left action, and
the cross product algebra, whose products straighten each pair
(functional word, algebra word) once (``DualContext.straighten``).

Functional letters: LP/LM are the matrix functionals attached to the R-matrix
(l^{+k}_j = r(. (x) v^k_j), l^{-k}_j = rbar(v^k_j (x) .)), SLP/SLM their
antipodes kept structural (evaluation reroutes through S on the algebra),
CHAR a named multiplicative functional, EPS the counit.  Each letter is a
matrix coefficient of an n-dimensional representation, so <f1...fm, g1...gd>
is one entry of G(g1)...G(gd) for their tensor product G
(``DualContext.representation``).  Words are canonical with counital letters
dropped.

The same matrices make a combination of functional words a weighted
automaton over the free monoid on the generators (``_Automaton``), whose
forward space gives two certificates for words of every length: the
vanishing test ``DualElement.vanishes`` and the multiplicativity test
``multiplicative`` of a matrix of functionals.  Every zero test of a
functional (``DualElement.nonzero_words``, and so ``ext_equal``) runs the
certificate first, and is extensional over a degree-bounded word corpus
only when the certificate refuses, as recorded in every report that uses
it.  Each letter family (l+, l-, the transposed S(l+) and S(l-), eps, each
character) is a matrix that ``multiplicative`` certifies, so every letter
kills the relation ideal; a character, zeta* too, is checked as it is
registered (``DualContext.add_character``).
"""

from __future__ import annotations

from collections import deque
from functools import partial, reduce
from typing import NamedTuple

from .algebra import LinComb, NCPoly, _accum, _concat, character_value
from .exprparse import parse_scalar
from .linalg import MatrixOverAlgebra, add as add_row
from .scalars import ONE, QScalar, ZERO

LP, LM, SLP, SLM, CHAR, EPS = "LP", "LM", "SLP", "SLM", "CHAR", "EPS"
# (l+)* = S(l-) and (l-)* = S(l+), transposed (``DualContext.letter_star``)
_STAR_KIND = {LP: SLM, SLM: LP, LM: SLP, SLP: LM}

# Suffixes of the derived characters zeta* (``star_character``) and zeta o S:
# reserved, so that a loaded character can never stand in for one.
STAR_SUFFIX, ANTIPODE_SUFFIX = "*", "_S"


class DualError(ValueError):
    pass


def _kron_entry(m, terms, *idx):
    """Entry (idx[:m], idx[m:]) of the sum of c M1 (x) ... (x) Mm over the
    ``terms`` (c, [M1, ..., Mm]) of n x n matrices, indices from 1."""
    total = ZERO
    for c, mats in terms:
        for r, mat in enumerate(mats):
            c = c * mat[idx[r] - 1][idx[m + r] - 1]
        total = total + c
    return total


def _times(x, rows):
    """x G for a sparse row vector x {i: c} and a matrix G kept as sparse
    rows: row i lists (t, G_it) over its nonzero entries."""
    out = {}
    for i, c in x.items():
        for t, e in rows[i]:
            _accum(out, t, c * e)
    return out


class BF(NamedTuple):
    """A basic functional letter.  A named tuple, so that a functional word
    (a tuple of letters) hashes with the C tuple hash."""

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

    def __init__(self, pres, hopf, rmatrix):
        self.pres = pres
        self.hopf = hopf
        self.R = rmatrix
        self.characters = {}
        self.n = rmatrix.n
        self.gen_index = {f"v{i}{j}": (i, j)
                          for i in range(1, self.n + 1) for j in range(1, self.n + 1)}
        for g in self.gen_index:
            if g not in pres._index:
                raise DualError(f"presentation lacks matrix generator {g!r}")
        self._letter_word_cache = {}
        self._word_eval_cache = {}
        self._act_cache = {}
        self._straight_cache = {}
        self._rep_cache = {}

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

    def add_character(self, name, vals):
        """Register a character, the one way in: the name must not end with
        the suffix of a derived character (``*``, ``_S``), so that no
        character can stand in for one, and the checks of ``_register``
        must hold."""
        if name.endswith((STAR_SUFFIX, ANTIPODE_SUFFIX)):
            raise DualError(f"character name {name!r} ends with a suffix reserved for "
                            f"derived characters ({STAR_SUFFIX!r}, {ANTIPODE_SUFFIX!r})")
        self._register(name, vals)

    def _register(self, name, vals):
        """Register a character under a name that must be new, since
        evaluations of the old values may be cached; ``vals`` must give a
        value at exactly the generators, and the character must kill the
        relation ideal (it is an algebra map)."""
        if name in self.characters:
            raise DualError(f"character {name!r} is already registered")
        if set(vals) != set(self.pres.generators):
            raise DualError(f"character {name!r} must have values at exactly the "
                            f"generators {sorted(self.pres.generators)}, got {sorted(vals)}")
        for lhs, _, res in self.pres.relation_residuals(
                lambda w: character_value(vals, {w: ONE})):
            if not res.is_zero():
                raise DualError(
                    f"character {name!r} does not respect relation {' '.join(lhs)}")
        self.characters[name] = vals

    def star_character(self, name):
        """<zeta*, a> = conj <zeta, S(a)*> defines another character, zeta*,
        registered on first use; the star of zeta* is zeta."""
        vals = self.character_values(name)
        if name.endswith(STAR_SUFFIX):
            return name[:-len(STAR_SUFFIX)]
        star_name = name + STAR_SUFFIX
        if star_name not in self.characters:
            self._register(star_name, {g: self.pres.conj(character_value(
                vals, self.hopf.antipode(self.pres.gen(g)).star().terms))
                for g in self.pres.generators})
        return star_name

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

    # -- evaluation: one row walk -------------------------------------------------

    def _matrix_entry(self, bf, gen, k, t):
        """Entry (k, t) of the n x n matrix of the letter family of ``bf`` at
        a generator: the R-matrix for l+/l-, the transposed antipode matrices
        for S(l+)/S(l-), whose start and end swap, and the value times the
        identity for a character or eps."""
        if bf.kind == EPS:
            return self.hopf.counit_table[gen] if k == t else ZERO
        if bf.kind == CHAR:
            return self.character_values(bf.name)[gen] if k == t else ZERO
        if bf.kind == LP:
            return self.R.r_form(*self.gen_index[gen], k, t)
        if bf.kind == LM:
            return self.R.rbar_form(k, t, *self.gen_index[gen])
        if bf.kind in (SLP, SLM):
            # <S(f), g1..gd> = <f, S(gd)..S(g1)>: the transposed matrices of
            # the antipodes, read forward from the letter's end to its start
            base = LP if bf.kind == SLP else LM
            return self.eval_letter_poly(BF(base, t, k), self.hopf.antipode_table[gen])
        raise DualError(f"unknown letter kind {bf.kind!r}")

    def representation(self, fword):
        """(start, end, {generator g: G(g)}) with <f1...fm, g1...gd> the
        (start, end) entry of G(g1)...G(gd), m >= 1.  Each letter is a matrix
        coefficient of an n-dimensional representation M (``_matrix_entry``),
        so G(g) is the sum of c M1(u1) (x) ... (x) Mm(um) over the m-fold
        coproduct of g, with Mr multiplied along the leg ur (the identity on
        an empty leg), indexed as in ``MatrixOverAlgebra.from_index``, and
        cached per word of letter families.  G(g) is kept as sparse rows: row
        k lists (t, G(g)_kt) over the nonzero entries."""
        n, m = self.n, len(fword)
        start = end = 0
        for bf in fword:
            # a character or eps has no indices (i = j = 0): any diagonal one does
            i, j = (bf.j, bf.i) if bf.kind in (SLP, SLM) else (bf.i or 1, bf.j or 1)
            start, end = start * n + i - 1, end * n + j - 1
        family = tuple(BF(bf.kind, name=bf.name) for bf in fword)
        if family not in self._rep_cache:
            one = MatrixOverAlgebra.from_index(n, 1, lambda k, t: ONE if k == t else ZERO)
            letter = [{g: MatrixOverAlgebra.from_index(n, 1, partial(self._matrix_entry, bf, g))
                       for g in self.gen_index} for bf in family]
            mats = {}
            for g in self.gen_index:
                terms = [(c, [reduce(MatrixOverAlgebra.__matmul__,
                                     (letter[r][h] for h in u), one).entries
                              for r, u in enumerate(legs)])
                         for legs, c in self.hopf.iterated_coproduct_word((g,), m).terms.items()]
                G = MatrixOverAlgebra.from_index(n, m, partial(_kron_entry, m, terms))
                mats[g] = [[(t, e) for t, e in enumerate(row) if not e.is_zero()]
                           for row in G.entries]
            self._rep_cache[family] = mats
        return start, end, self._rep_cache[family]

    def _walk(self, cache, key, fword, w):
        """<fword, w> for a word w of generators, kept in ``cache`` under
        ``key``: row ``start`` of G(g1)...G(gd), read at ``end``."""
        hit = cache.get(key)
        if hit is not None:
            return hit
        start, end, mats = self.representation(fword)
        vec = {start: ONE}
        for g in w:
            try:
                rows = mats[g]
            except KeyError:
                raise DualError(
                    f"no evaluation table entry for generator {g!r}") from None
            vec = _times(vec, rows)
        val = cache[key] = vec.get(end, ZERO)
        return val

    def eval_letter_word(self, bf, w):
        """<letter, word> for a word of generators: the one-letter walk."""
        return self._walk(self._letter_word_cache, (bf, w), (bf,), w)

    def eval_letter_poly(self, bf, p):
        v = ZERO
        for w, c in p.terms.items():
            v = v + c * self.eval_letter_word(bf, w)
        return v

    def eval_word_on_word(self, fword, w):
        """<f1...fm, w>, the walk of any m; the empty word is the counit."""
        return self._walk(self._word_eval_cache, (fword, w), fword or (BF(EPS),), w)

    def act_on_word(self, fword, w):
        """fword |> w = w_(1) <fword, w_(2)> for a functional word and an
        algebra word, as {u: coeff}; cached per (fword, w) and shared:
        callers must not mutate it."""
        key = (fword, w)
        hit = self._act_cache.get(key)
        if hit is None:
            hit = self._act_cache[key] = {}
            for (u, v), cv in self.hopf.coproduct_word(w).terms.items():
                _accum(hit, u, cv * self.eval_word_on_word(fword, v))
        return hit

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
        """Star under real r-form with unitary corepresentation: a matrix
        letter trades places with the antipode of the other family
        (``_STAR_KIND``), its indices swapped."""
        if bf.kind == EPS:
            return bf
        if bf.kind == CHAR:
            return BF(CHAR, name=self.star_character(bf.name))
        kind = _STAR_KIND.get(bf.kind)
        if kind is None:
            raise DualError(bf.kind)
        return BF(kind, bf.j, bf.i)

    # -- cross product straightening ---------------------------------------------

    def straighten(self, fword, w):
        """f b = sum (f_(1) |> b) f_(2) for a functional word f and an algebra
        word b, as {(algebra word u, functional word f_r): coeff}; cached per
        (fword, w), since a cross product only ever needs it per word pair."""
        key = (fword, w)
        hit = self._straight_cache.get(key)
        if hit is None:
            hit = self._straight_cache[key] = {}
            for (fl, fr), cc in DualElement(self, {fword: ONE}).coproduct().items():
                for u, cu in self.act_on_word(fl, w).items():
                    _accum(hit, (u, fr), cc * cu)
        return hit

    # -- canonical words -------------------------------------------------------------

    def canonical_word(self, letters):
        return tuple(bf for bf in letters if not self.is_counital(bf))

    def unit(self):
        return DualElement(self, {(): ONE})


class DualElement(LinComb):
    """Finite Q(s)-combination of functional words.  ``_acts``, made on the
    first ``left_act``, caches the action of the whole element per algebra
    word."""

    __slots__ = ("ctx", "terms", "_acts")
    _error = DualError

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _owner(self):
        return (self.ctx,)

    def _order(self, w):
        return (len(w), repr(w))

    def _show(self, w):
        return "*".join(repr(bf) for bf in w) if w else "eps"

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        out = {}
        _concat(out, self.terms, other.terms)
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
        """Equality on every word when ``vanishes`` certifies the difference,
        else extensional over the evaluation corpus of the given degree
        (``nonzero_words``)."""
        return next((self - other).nonzero_words(degree), None) is None

    def vanishes(self):
        """Whether the functional is zero on every word of generators, of any
        length and normal or not, and so on the whole algebra: its end vector
        is orthogonal to the forward space of its start vector
        (``_Automaton``)."""
        auto = _Automaton(self.ctx, {(0, 0): self})
        return auto.complete and all(auto.read(x, 0).is_zero()
                                     for x, _ in auto.search([auto.start(0)]))

    def nonzero_words(self, degree):
        """Lazily, in corpus order, the words of the evaluation corpus of the
        given degree on which the functional is nonzero: the one zero test.
        None when ``vanishes`` certifies the functional zero on every word;
        on refusal, every corpus word is evaluated."""
        if self.terms and not self.vanishes():
            for w in self.ctx.corpus(degree):
                if not self.evaluate(w).is_zero():
                    yield w

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
        out = {}
        for w, c in self.terms.items():
            sw = ctx.canonical_word(tuple(ctx.letter_star(bf) for bf in reversed(w)))
            _accum(out, sw, ctx.pres.conj(c))
        return DualElement(ctx, out)

    def left_act(self, a):
        """f |> a = a_(1) <f, a_(2)>, an element of the algebra: the sum of
        c_w (f |> w) over the terms of a.  The action of the whole element on
        a word, f |> w = sum fc (fw |> w) over its terms, is kept in a cache
        on the element, made on first use from the context's per-(fw, w)
        actions (``DualContext.act_on_word``); a single term with coefficient
        1 shares the context's dict, read-only.  So f |> a costs one product
        per (w, u) of a and of the cached actions."""
        try:
            acts = self._acts
        except AttributeError:
            acts = self._acts = {}
        ctx = self.ctx
        total = {}
        for w, c in a.terms.items():
            hit = acts.get(w)
            if hit is None:
                hit = acts[w] = self._act_word(w)
            for u, cu in hit.items():
                _accum(total, u, c * cu)
        return NCPoly(ctx.pres, total)

    def _act_word(self, w):
        """f |> w as {u: coeff}, for the cache of ``left_act``."""
        ctx = self.ctx
        if len(self.terms) == 1:
            (fw, fc), = self.terms.items()
            if fc.is_one():
                return ctx.act_on_word(fw, w)
        out = {}
        for fw, fc in self.terms.items():
            for u, cu in ctx.act_on_word(fw, w).items():
                _accum(out, u, fc * cu)
        return out


# ---------------------------------------------------------------------------
# functionals as weighted automata: certificates for words of every length
# ---------------------------------------------------------------------------


class _Automaton:
    """Functionals {(j, k): f} as one weighted automaton over the free monoid
    on the generators.  Each term c w of an entry (j, k) is a block of
    states carrying the representation of w (``DualContext.representation``,
    the empty word as the counit), with c at the block's start state in the
    start vector u_j and 1 at its end state in the end vector v_k.  So
    <f_jk, g1...gd> = u_j G(g1)...G(gd) v_k for every word, normal or not:
    the walk of ``DualContext._walk`` on each block.  References:
    Schutzenberger, Inf. Control 4 (1961); Tzeng, SIAM J. Comput. 21 (1992)."""

    def __init__(self, ctx, entries):
        self.gens = list(ctx.gen_index)
        # every generator has a matrix, so every corpus word is a word here
        self.complete = set(ctx.pres.generators) == set(self.gens)
        self.starts, self.ends = {}, {}
        # steps[g]: the sparse rows of G(g), each block's shifted onto its states
        self.steps = {g: [] for g in self.gens}
        self.size = 0
        for (j, k), f in entries.items():
            for fw, c in f.terms.items():
                start, end, mats = ctx.representation(fw or (BF(EPS),))
                self.starts.setdefault(j, {})[self.size + start] = c
                self.ends.setdefault(k, []).append(self.size + end)
                for g in self.gens:
                    self.steps[g] += [[(self.size + t, e) for t, e in row] for row in mats[g]]
                self.size += len(mats[self.gens[0]])

    def start(self, j):
        return self.starts.get(j, {})

    def step(self, x, g):
        """x G(g) for a sparse row vector x."""
        return _times(x, self.steps[g])

    def read(self, x, k):
        """x v_k."""
        return sum((x[i] for i in self.ends.get(k, ()) if i in x), ZERO)

    def search(self, starts):
        """Breadth first, each vector x of a basis of the forward space
        span{u G(w)} of the start vectors u, over all words w, with its
        successors {g: x G(g)}.  Every basis vector is some u G(w), so the
        space is found within size x #generators products; the basis is
        kept by exact elimination (``linalg.add``)."""
        rows, pivots = [], []

        def new(x):
            return add_row(rows, pivots, [x.get(i, ZERO) for i in range(self.size)])

        queue = deque(u for u in starts if new(u))
        while queue:
            x = queue.popleft()
            succ = {g: self.step(x, g) for g in self.gens}
            yield x, succ
            queue.extend(y for y in succ.values() if new(y))


def multiplicative(M):
    """Whether a square matrix M of functionals is multiplicative on the
    algebra, M(ab) = M(a) M(b) for all a and b, certified for words of every
    length.  With W(w) = (u_j G(w) v_k) the automaton of the entries
    (``_Automaton``), three conditions suffice:

    - M(1) = I;
    - x G(g) v_k = sum_l (x v_l) M(g)_lk for every basis vector x of the
      forward space of the u_j, every generator g and every column k, so
      W(wg) = W(w) W(g) and, by induction on length, W(xy) = W(x) W(y) on
      free words;
    - every entry kills the relations on the raw rule words, so W kills the
      relation ideal and W(NF(ab)) = W(ab).

    False means only that the certificate does not apply."""
    ctx = M[0][0].ctx
    size = len(M)
    auto = _Automaton(ctx, {(j, k): m for j, row in enumerate(M) for k, m in enumerate(row)})
    starts = [auto.start(j) for j in range(size)]

    def at(x):
        return [auto.read(x, k) for k in range(size)]

    identity = [[ONE if j == k else ZERO for k in range(size)] for j in range(size)]
    if not auto.complete or [at(u) for u in starts] != identity:
        return False
    if any(not res.is_zero() for row in M for m in row
           for _, _, res in ctx.pres.relation_residuals(m.evaluate)):
        return False
    at_gen = {g: [at(auto.step(u, g)) for u in starts] for g in auto.gens}
    for x, succ in auto.search(starts):
        xv = at(x)
        for g, y in succ.items():
            # x G(g) v_k against sum_l (x v_l) M(g)_lk, for every column k
            if at(y) != [sum((xv[l] * at_gen[g][l][k] for l in range(size)), ZERO)
                         for k in range(size)]:
                return False
    return True


# ---------------------------------------------------------------------------
# cross product algebra
# ---------------------------------------------------------------------------


class CrossElement(LinComb):
    """Element of the cross product in normal order: algebra letters left of
    functional letters, straightened by f a = (f_(1) |> a) f_(2).  Terms are
    {(algebra word, functional word): coeff}; a product's term order is not
    fixed, so consumers compare, sort or sum the terms exactly."""

    __slots__ = ("ctx", "terms")
    _error = DualError

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

    def _order(self, key):
        return (len(key[0]), len(key[1]), repr(key))

    def _show(self, key):
        w, f = key
        return (" ".join(w) if w else "1") + "|" + ("*".join(map(repr, f)) if f else "eps")

    def __mul__(self, other):
        """(w1 f1)(w2 f2) = sum w1 u f_r f2 over the straightened f1 w2 =
        sum u f_r (``DualContext.straighten``), w1 u brought to normal form."""
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        ctx = self.ctx
        nf = ctx.pres.normal_form_word
        out = {}
        for (w1, f1), c1 in self.terms.items():
            for (w2, f2), c2 in other.terms.items():
                c12 = c1 * c2
                for (u, fr), cs in ctx.straighten(f1, w2).items():
                    cs = c12 * cs
                    for v, cv in nf(w1 + u).items():
                        _accum(out, (v, fr + f2), cs * cv)
        return CrossElement(ctx, out)

    def act(self, b):
        """Left action on the algebra: (w f) . b = w (f |> b).  The terms are
        grouped by functional word, so each distinct f acts on b once; the
        raw words w u of all terms are gathered in one dict and brought to
        normal form once."""
        ctx = self.ctx
        by_f = {}
        for (w, f), c in self.terms.items():
            by_f.setdefault(f, {})[w] = c
        raw = {}
        for f, prefixes in by_f.items():
            _concat(raw, prefixes, DualElement(ctx, {f: ONE}).left_act(b).terms)
        return NCPoly(ctx.pres, ctx.pres.normal_form_terms(raw) if raw else {})


def mixed_word_to_cross(ctx, items):
    """Straighten an alternating product of algebra and dual elements; the
    empty product is the unit."""
    out = None
    for item in items:
        if isinstance(item, NCPoly):
            x = CrossElement.from_poly(ctx, item)
        elif isinstance(item, DualElement):
            x = CrossElement.from_dual(ctx, item)
        else:
            raise DualError(f"cannot straighten {type(item).__name__}")
        out = x if out is None else out * x
    return CrossElement(ctx, {((), ()): ONE}) if out is None else out


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------


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
    ctx = DualContext(pres, slq2_hopf(pres), builtin_rmatrix("slq2"))
    for name, values in shipped_characters().items():
        load_character({"name": name, "values": values}, ctx)
    return ctx


def load_character(doc, ctx):
    """Register the character of a ``{"name", "values"}`` document through
    ``DualContext.add_character``."""
    name = doc["name"]
    ctx.add_character(name, {g: parse_scalar(v) for g, v in doc["values"].items()})
    return name
