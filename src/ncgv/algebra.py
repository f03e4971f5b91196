"""Presented noncommutative *-algebras with terminating rewrite systems.

Words are tuples of generator names; polynomials are finite maps from
normal-form words to Q(s) scalars.  Rewrite rules are oriented so that each
right-hand-side word is strictly smaller than the left-hand side in the
weighted degree-lex order fixed by the declared generator order, which makes
reduction terminate; confluence is checked, not assumed.

Normal forms are built letter by letter through one cached table NF(v g) of
normal words v times generators g.  Every redex of v g ends at g, so a table
entry is the rewrite of one suffix, made once per presentation and reused
by every later word.
"""

from __future__ import annotations

from .scalars import ONE, REAL, ZERO, QScalar

Word = tuple


class RewriteError(Exception):
    """Raised when the step budget is exhausted; carries a witness word."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PresentationError(ValueError):
    pass


class AlgebraPresentation:
    """Generators, oriented relations, star table and term order."""

    def __init__(self, name, generators, rules, star=None, star_mode=REAL,
                 weights=None):
        self.name = name
        self.generators = list(generators)
        self.star_mode = star_mode
        self.weights = {g: 1 for g in self.generators}
        if weights:
            self.weights.update(weights)
        self._index = {g: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise PresentationError("duplicate generator names")
        self.rules = []
        for lhs, rhs in rules:
            self._add_rule(tuple(lhs), dict(rhs))
        self.star = None if star is None else dict(star)
        if star is not None:
            self._check_star_involution()
        self._by_first = {}
        for lhs, rhs in self.rules:
            self._by_first.setdefault(lhs[0], []).append((lhs, rhs))
        self._max_lhs = max((len(lhs) for lhs, _ in self.rules), default=0)
        self._nf_cache = {}
        self._nf_table = {}
        self._words_cache = {}
        self._step_budget = 500_000

    # -- order ------------------------------------------------------------

    def word_weight(self, w):
        return sum(self.weights[g] for g in w)

    def word_key(self, w):
        """Weighted degree, then shorter-is-larger, then lex.  For unit
        weights this is plain degree-lex."""
        return (self.word_weight(w), -len(w), tuple(self._index[g] for g in w))

    def _add_rule(self, lhs, rhs):
        for g in lhs:
            if g not in self._index:
                raise PresentationError(f"unknown generator {g!r} in rule lhs")
        lk = self.word_key(lhs)
        clean = {}
        for w, c in rhs.items():
            w = tuple(w)
            for g in w:
                if g not in self._index:
                    raise PresentationError(f"unknown generator {g!r} in rule rhs")
            if not isinstance(c, QScalar):
                raise PresentationError("rule coefficients must be QScalar")
            if c.is_zero():
                continue
            if self.word_key(w) >= lk:
                raise PresentationError(
                    f"rule {lhs} not decreasing: rhs word {w} is not smaller")
            clean[w] = c
        self.rules.append((lhs, clean))

    def _check_star_involution(self):
        for g in self.generators:
            if g not in self.star:
                raise PresentationError(f"generator {g!r} missing from star table")
            h, c = self.star[g]
            if h not in self._index:
                raise PresentationError(f"star image {h!r} unknown")
            g2, c2 = self.star[h]
            if g2 != g or not (c * self.conj(c2)).is_one():
                raise PresentationError(f"star table is not an involution at {g!r}")

    # -- normal form --------------------------------------------------------

    def _suffix_redex(self, vg):
        """The leftmost redex of vg = v + (g,) for a normal word v, as (start,
        right-hand side): every redex ends at g, so only the suffixes of vg
        are tried, the longest first, each against the rules in the order of
        ``_by_first``."""
        n = len(vg)
        for i in range(max(0, n - self._max_lhs), n):
            for lhs, rhs in self._by_first.get(vg[i], ()):
                if len(lhs) == n - i and vg[i:] == lhs:
                    return i, rhs
        return None

    def normal_form_word(self, w):
        """Reduce a raw word to a dict {normal word: coefficient}.

        The letters after the longest normal prefix of w are multiplied onto
        it one at a time through the cached table NF(v g) of normal words v
        times generators g.  The result, as every table entry, is cached and
        shared: callers must not mutate it.  Each table miss is one rewrite
        step; more than ``_step_budget`` of them in one call raise
        RewriteError with the word being rewritten as witness, and leave no
        partial entry in either cache."""
        w = tuple(w)
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        k = self._normal_prefix(w)
        result = self._fold({w[:k]: ONE}, w[k:], [self._step_budget])
        self._nf_cache[w] = result
        return result

    def _normal_prefix(self, w):
        """The length of the longest normal prefix of w: w is normal exactly
        when it is len(w)."""
        k = 0
        while k < len(w) and self._suffix_redex(w[:k + 1]) is None:
            k += 1
        return k

    def _fold(self, terms, letters, budget):
        """Normal form of terms * letters, for terms {normal word: coeff}."""
        for g in letters:
            out = {}
            for v, c in terms.items():
                for u, cu in self._times_generator(v, g, budget).items():
                    _accum(out, u, c * cu)
            terms = out
        return terms

    def _times_generator(self, v, g, budget):
        """NF(v g) for a normal word v, through the table.  On a miss, the
        redex of v g is its leftmost one (``_suffix_redex``), and the
        letters of each right-hand side are folded onto the normal prefix
        before it; budget is the one-element list of steps left."""
        key = (v, g)
        hit = self._nf_table.get(key)
        if hit is not None:
            return hit
        vg = v + (g,)
        budget[0] -= 1
        if budget[0] < 0:
            raise RewriteError(f"rewrite budget exhausted in {self.name!r}", witness=vg)
        red = self._suffix_redex(vg)
        if red is None:
            result = {vg: ONE}
        else:
            i, rhs = red
            result = {}
            for rw, rc in rhs.items():
                for u, cu in self._fold({v[:i]: rc}, rw, budget).items():
                    _accum(result, u, cu)
        self._nf_table[key] = result
        return result

    def normal_form_terms(self, terms):
        out = {}
        for w, c in terms.items():
            w = tuple(w)
            for g in w:
                if g not in self._index:
                    raise PresentationError(
                        f"unknown generator {g!r} in {self.name!r}")
            if isinstance(c, int):
                c = QScalar.from_int(c)
            if c.is_zero():
                continue
            for v, cv in self.normal_form_word(w).items():
                _accum(out, v, c * cv)
        return out

    # -- element constructors ------------------------------------------------

    def poly(self, terms):
        return NCPoly(self, self.normal_form_terms(terms))

    def gen(self, name):
        if name not in self._index:
            raise PresentationError(f"unknown generator {name!r}")
        return self.poly({(name,): ONE})

    def one(self):
        return NCPoly(self, {(): ONE})

    def zero(self):
        return NCPoly(self, {})

    def conj(self, c):
        """The star of a scalar in this presentation's star mode: c itself
        when REAL, s -> 1/s when UNIT."""
        return c.star(self.star_mode)

    def star_word(self, w):
        """The normal form of w*, for a raw or normal word w, as {normal
        word: coefficient}: the starred letters in reverse order, times the
        product of their star-table scalars."""
        if self.star is None:
            raise PresentationError(f"presentation {self.name!r} has no star")
        coeff = ONE
        out = []
        for g in reversed(w):
            h, c = self.star[g]
            out.append(h)
            coeff = coeff * c
        return {u: coeff * cu for u, cu in self.normal_form_word(out).items()}

    # -- relations -------------------------------------------------------------

    def relation_residuals(self, image, scalar=None):
        """(lhs, rhs, image(lhs) - sum scalar(c) image(w)) for every rule
        lhs -> sum c w, in rule order, over the raw rule words: the literal
        generators of the relation ideal, so a map is admissible exactly when
        every residual vanishes.  ``scalar`` maps the rule coefficients (the
        identity by default).  Where ``image`` is None on a word of the rule,
        so is the residual."""
        for lhs, rhs in self.rules:
            res = image(lhs)
            for w, c in rhs.items():
                img = None if res is None else image(w)
                res = None if img is None else res - (c if scalar is None else scalar(c)) * img
            yield lhs, rhs, res

    # -- corpora ---------------------------------------------------------------

    def normal_words(self, max_degree):
        """All normal-form words of length <= max_degree, sorted; a tuple,
        computed once per degree."""
        cached = self._words_cache.get(max_degree)
        if cached is not None:
            return cached
        words = [()]
        frontier = [()]
        for _ in range(max_degree):
            nxt = []
            for w in frontier:
                for g in self.generators:
                    u = w + (g,)
                    # w is normal, so a redex of u is a suffix
                    if self._suffix_redex(u) is None:
                        nxt.append(u)
            words.extend(nxt)
            frontier = nxt
        words.sort(key=self.word_key)
        self._words_cache[max_degree] = words = tuple(words)
        return words

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r}, {len(self.rules)} rules)"


def _accum(d, w, c):
    cur = d.get(w)
    if cur is None:
        if not c.is_zero():
            d[w] = c
    else:
        cur = cur + c
        if cur.is_zero():
            del d[w]
        else:
            d[w] = cur


def _concat(out, x, y):
    """Add sum c1 c2 (w1 + w2), over the terms {w1: c1} of x and {w2: c2} of
    y, into ``out``: the product of two word sums, before any normal form."""
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            _accum(out, w1 + w2, c1 * c2)


class LinComb:
    """Immutable sparse linear combination: ``terms`` maps hashable basis keys
    to nonzero coefficients (QScalar, or NCPoly for module elements).

    A subclass stores its owner (presentation, context, ...) and ``terms`` in
    its own slots, and supplies ``_owner`` (the constructor arguments before
    ``terms``), ``_error`` (raised when two operands have different owners),
    and for ``repr`` ``_order`` (the sort key of a term's key, by default the
    key) and ``_show`` (the text of a key, by default its str).  Results keep
    the insertion order of their terms: ``a + b`` lists the keys of ``a``
    first, then the new keys of ``b``, because numeric residuals are summed
    in term order.
    """

    __slots__ = ()
    _error = ValueError

    def _new(self, terms):
        return type(self)(*self._owner(), terms)

    def _same(self, other):
        if self._owner() != other._owner():
            raise self._error(f"{type(self).__name__} values of different owners")

    def _order(self, key):
        return key

    def _show(self, key):
        return str(key)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kc: self._order(kc[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({repr(c)})*{self._show(k)}"
                          for k, c in self.sorted_terms())

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accum(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        self._same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accum(out, k, -c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if isinstance(c, int):
            c = QScalar.from_int(c)
        if c.is_zero():
            return self._new({})
        return self._new({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._owner() == other._owner() and self.terms == other.terms


class NCPoly(LinComb):
    """Noncommutative polynomial in normal form over a presentation."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    def _owner(self):
        return (self.pres,)

    def _order(self, w):
        return self.pres.word_key(w)

    def _show(self, w):
        return " ".join(w) if w else "1"

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        raw = {}
        _concat(raw, self.terms, other.terms)
        return NCPoly(self.pres, self.pres.normal_form_terms(raw))

    def star(self):
        pres = self.pres
        out = {}
        for w, c in self.terms.items():
            c = pres.conj(c)
            for u, cu in pres.star_word(w).items():
                _accum(out, u, c * cu)
        return NCPoly(pres, out)

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms.items())))


def character_value(vals, terms):
    """sum c vals[g1] ... vals[gk] over the terms {(g1, ..., gk): c} of a
    polynomial or word: the character with generator values ``vals``.  A
    product stops at its first zero factor."""
    total = ZERO
    for w, c in terms.items():
        for g in w:
            c = c * vals[g]
            if c.is_zero():
                break
        total = total + c
    return total


# ---------------------------------------------------------------------------
# check protocol
# ---------------------------------------------------------------------------


def first_failure(name, witnesses):
    """(name, ok, witness) of a check whose counterexamples ``witnesses``
    yields lazily: only the first one is consumed, and the check passes when
    there is none.  A witness is never None, but may be falsy (the empty
    word ``()``)."""
    witness = next(iter(witnesses), None)
    return name, witness is None, witness


def first_failures(names, witnesses):
    """``first_failure`` for several checks searched in one pass:
    ``witnesses`` yields (index into ``names``, witness) pairs, and the
    search stops once every check has its first witness."""
    found = {}
    for i, witness in witnesses:
        found.setdefault(i, witness)
        if len(found) == len(names):
            break
    return [(name, i not in found, found.get(i)) for i, name in enumerate(names)]


def row_statuses(rows, witness):
    """(label, status, witness) for each row of a per-row check.  ``rows``
    yields (label, residual, skip reason), where a skipped row has a reason
    and no residual; ``witness(residual)`` is None exactly when the residual
    vanishes, and a skipped row's witness is its reason."""
    out = []
    for label, residual, skip in rows:
        wit = skip or witness(residual)
        out.append((label, "skipped" if skip else "pass" if wit is None else "fail", wit))
    return out


def nonzero_repr(residual):
    """The ``row_statuses`` witness of an exact residual: its repr, or None
    when it is zero."""
    return None if residual.is_zero() else repr(residual)


def search_until_certified(corpus, base, certificate):
    """The words of ``corpus`` that a witness search visits: all of them,
    unless ``certificate()`` holds once every word of ``base`` has been
    visited, which proves the claim for the words left.  The certificate is
    asked at most once, and only when the corpus goes on past ``base``."""
    pending = set(base)
    words = iter(corpus)
    for w in words:
        if not pending:
            if certificate():
                return
            yield w
            yield from words
            return
        pending.discard(w)
        yield w


# ---------------------------------------------------------------------------
# diamond-lemma overlap checking
# ---------------------------------------------------------------------------


def _one_step(word, pos, lhs, rhs):
    out = {}
    pre, post = word[:pos], word[pos + len(lhs):]
    for rw, rc in rhs.items():
        _accum(out, pre + rw + post, rc)
    return out


def ambiguities(pres):
    """The overlap and inclusion ambiguities of the rules, each once, as
    (word, l1, r1, p2, l2, r2): the word starts with l1, so it reduces by
    rule (l1, r1) at 0, and it reduces by rule (l2, r2) at p2."""
    seen = set()
    rules = pres.rules
    for l1, r1 in rules:
        for l2, r2 in rules:
            # overlaps: proper suffix of l1 equals proper prefix of l2
            found = [(l1 + l2[k:], len(l1) - k)
                     for k in range(1, min(len(l1), len(l2))) if l1[-k:] == l2[:k]]
            # inclusions: l2 occurs inside l1 (identical lhs with a different
            # rhs is a conflict too)
            if len(l2) < len(l1):
                found += [(l1, i) for i in range(len(l1) - len(l2) + 1)
                          if l1[i:i + len(l2)] == l2]
            elif l1 == l2 and r1 != r2:
                found.append((l1, 0))
            for w, p2 in found:
                key = (w, l1, p2, l2)
                if key not in seen:
                    seen.add(key)
                    yield w, l1, r1, p2, l2, r2


def confluence_check(pres, max_degree=6):
    """Resolve all overlap and inclusion ambiguities up to the given degree:
    the list of (word, one reduction, the other) that do not join."""
    failures = []
    for w, l1, r1, p2, l2, r2 in ambiguities(pres):
        if pres.word_weight(w) > max_degree:
            continue
        a = pres.normal_form_terms(_one_step(w, 0, l1, r1))
        b = pres.normal_form_terms(_one_step(w, p2, l2, r2))
        if a != b:
            failures.append((w, NCPoly(pres, a), NCPoly(pres, b)))
    return failures


def star_closure_report(pres):
    """Check that starring every relation gives a consequence of the rules:
    (lhs, residual) of each rule whose starred form does not vanish."""
    residuals = pres.relation_residuals(lambda w: NCPoly(pres, pres.star_word(w)), pres.conj)
    return [(lhs, res) for lhs, _, res in residuals if not res.is_zero()]


# coefficients of random_poly
_COEFF_POOL = (ONE, -ONE, QScalar.from_int(2), QScalar.q_power(1),
               QScalar.q_power(-1), ONE - QScalar.q_power(1))


def random_poly(pres, rng, max_degree=2, n_terms=3):
    """Deterministic random polynomial for property checks."""
    words = pres.normal_words(max_degree)
    terms = {}
    for _ in range(n_terms):
        w = words[rng.randrange(len(words))]
        c = _COEFF_POOL[rng.randrange(len(_COEFF_POOL))]
        _accum(terms, w, c)
    return NCPoly(pres, pres.normal_form_terms(terms))
