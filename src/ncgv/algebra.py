"""Presented noncommutative *-algebras with terminating rewrite systems.

Words are tuples of generator names; polynomials are finite maps from
normal-form words to Q(s) scalars.  Rewrite rules are oriented so that each
right-hand-side word is strictly smaller than the left-hand side in the
weighted degree-lex order fixed by the declared generator order, which makes
reduction terminate; confluence is checked, not assumed.
"""

from __future__ import annotations

from .exprparse import base_env, parse_scalar, scalar_to_str, terms_from_doc, terms_to_doc
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
                 weights=None, params=None):
        self.name = name
        self.generators = list(generators)
        self.star_mode = star_mode
        self.params = dict(params or {})
        self.weights = {g: 1 for g in self.generators}
        if weights:
            self.weights.update(weights)
        self._index = {g: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise PresentationError("duplicate generator names")
        self.rules = []
        for lhs, rhs in rules:
            self._add_rule(tuple(lhs), dict(rhs))
        self.star = None
        if star is not None:
            self.star = {}
            for g, entry in star.items():
                if isinstance(entry, str):
                    entry = (entry, ONE)
                self.star[g] = (entry[0], entry[1])
            self._check_star_involution()
        self._by_first = {}
        for idx, (lhs, rhs) in enumerate(self.rules):
            self._by_first.setdefault(lhs[0], []).append((lhs, rhs))
        self._nf_cache = {}
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
            if g2 != g or not (c * c2.star(self.star_mode)).is_one():
                raise PresentationError(f"star table is not an involution at {g!r}")

    # -- normal form --------------------------------------------------------

    def _find_redex(self, w):
        for i in range(len(w)):
            for lhs, rhs in self._by_first.get(w[i], ()):
                if w[i:i + len(lhs)] == lhs:
                    return i, lhs, rhs
        return None

    def normal_form_word(self, w):
        """Reduce a raw word to a dict {normal word: coefficient}."""
        w = tuple(w)
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        result = {}
        work = [(w, ONE)]
        steps = 0
        while work:
            u, c = work.pop()
            hit = self._nf_cache.get(u)
            if hit is not None:
                for v, cv in hit.items():
                    _accum(result, v, c * cv)
                continue
            steps += 1
            if steps > self._step_budget:
                raise RewriteError(
                    f"rewrite budget exhausted in {self.name!r}", witness=u)
            red = self._find_redex(u)
            if red is None:
                _accum(result, u, c)
                continue
            i, lhs, rhs = red
            pre, post = u[:i], u[i + len(lhs):]
            for rw, rc in rhs.items():
                work.append((pre + rw + post, c * rc))
        self._nf_cache[w] = result
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

    def is_normal_word(self, w):
        return self._find_redex(tuple(w)) is None

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

    def star_word(self, w):
        """Star of a word as (raw word, scalar coefficient)."""
        if self.star is None:
            raise PresentationError(f"presentation {self.name!r} has no star")
        coeff = ONE
        out = []
        for g in reversed(w):
            h, c = self.star[g]
            out.append(h)
            coeff = coeff * c
        return tuple(out), coeff

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
                    if self.is_normal_word(u):
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


class LinComb:
    """Immutable sparse linear combination: ``terms`` maps hashable basis keys
    to nonzero coefficients (QScalar, or NCPoly for module elements).

    A subclass stores its owner (presentation, context, ...) and ``terms`` in
    its own slots, and supplies ``_owner`` (the constructor arguments before
    ``terms``) and ``_same`` (raises unless both operands share the owner).
    Results keep the insertion order of their terms: ``a + b`` lists the keys
    of ``a`` first, then the new keys of ``b``, because numeric residuals are
    summed in term order.
    """

    __slots__ = ()

    def _new(self, terms):
        return type(self)(*self._owner(), terms)

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

    def _same(self, other):
        if self.pres is not other.pres:
            raise ValueError("polynomials from different presentations")

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._same(other)
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accum(raw, w1 + w2, c1 * c2)
        return NCPoly(self.pres, self.pres.normal_form_terms(raw))

    def star(self):
        mode = self.pres.star_mode
        raw = {}
        for w, c in self.terms.items():
            sw, sc = self.pres.star_word(w)
            _accum(raw, sw, c.star(mode) * sc)
        return NCPoly(self.pres, self.pres.normal_form_terms(raw))

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms.items())))

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def coefficient(self, w):
        return self.terms.get(tuple(w), ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.pres.word_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            word = " ".join(w) if w else "1"
            parts.append(f"({scalar_to_str(c)})*{word}")
        return " + ".join(parts)


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


# ---------------------------------------------------------------------------
# diamond-lemma overlap checking
# ---------------------------------------------------------------------------


class ConfluenceReport:
    def __init__(self, presentation, max_degree, failures):
        self.presentation = presentation
        self.max_degree = max_degree
        self.failures = failures

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "presentation": self.presentation,
            "max_degree": self.max_degree,
            "status": "pass" if self.ok else "fail",
            "failures": [
                {"witness": list(w), "left": repr(a), "right": repr(b)}
                for w, a, b in self.failures
            ],
        }


def _one_step(pres, word, pos, lhs, rhs):
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
    """Resolve all overlap and inclusion ambiguities up to the given degree."""
    failures = []
    for w, l1, r1, p2, l2, r2 in ambiguities(pres):
        if pres.word_weight(w) > max_degree:
            continue
        a = pres.normal_form_terms(_one_step(pres, w, 0, l1, r1))
        b = pres.normal_form_terms(_one_step(pres, w, p2, l2, r2))
        if a != b:
            failures.append((w, NCPoly(pres, a), NCPoly(pres, b)))
    return ConfluenceReport(pres.name, max_degree, failures)


def star_closure_report(pres):
    """Check that starring every relation gives a consequence of the rules."""
    failures = []
    for lhs, rhs in pres.rules:
        lw, lc = pres.star_word(lhs)
        left = pres.poly({lw: lc})
        right = pres.zero()
        for w, c in rhs.items():
            sw, sc = pres.star_word(w)
            right = right + pres.poly({sw: c.star(pres.star_mode) * sc})
        if left != right:
            failures.append((lhs, left - right))
    return failures


# ---------------------------------------------------------------------------
# structured-text interface
# ---------------------------------------------------------------------------


def load_presentation(doc, params=None, name=None):
    """Build a presentation from its JSON document form.

    Schema: {"generators": [{"name": ..., "star": name-or-{"coeff","gen"}}],
    "order": [...], "relations": [{"lhs": "z* z", "rhs": [{"coeff": ...,
    "word": ...}]}], "star_mode": "REAL", "params": [names]}
    Coefficient strings may use s, q = s^2 and any declared parameter.
    """
    params = dict(params or {})
    env = base_env(params)
    declared = doc.get("params", [])
    missing = [p for p in declared if p not in params]
    if missing:
        raise PresentationError(f"missing parameter values for {missing}")
    order = doc.get("order") or [g["name"] for g in doc["generators"]]
    star = {}
    has_star = False
    for g in doc["generators"]:
        entry = g.get("star")
        if entry is None:
            continue
        has_star = True
        if isinstance(entry, str):
            star[g["name"]] = (entry, ONE)
        else:
            star[g["name"]] = (entry["gen"], parse_scalar(entry["coeff"], env))
    rules = [(tuple(rel["lhs"].split()), terms_from_doc(rel["rhs"], env))
             for rel in doc["relations"]]
    weights = doc.get("weights")
    return AlgebraPresentation(
        name or doc.get("name", "loaded"),
        order,
        rules,
        star=star if has_star else None,
        star_mode=doc.get("star_mode", REAL),
        weights=weights,
        params=params,
    )


def presentation_to_doc(pres):
    gens = []
    for g in pres.generators:
        entry = {"name": g}
        if pres.star is not None:
            h, c = pres.star[g]
            if c.is_one():
                entry["star"] = h
            else:
                entry["star"] = {"gen": h, "coeff": scalar_to_str(c)}
        gens.append(entry)
    rels = []
    for lhs, rhs in pres.rules:
        rels.append({
            "lhs": " ".join(lhs),
            "rhs": terms_to_doc(sorted(rhs.items(), key=lambda kv: pres.word_key(kv[0]))),
        })
    doc = {
        "name": pres.name,
        "generators": gens,
        "order": list(pres.generators),
        "relations": rels,
        "star_mode": pres.star_mode,
    }
    if any(v != 1 for v in pres.weights.values()):
        doc["weights"] = {g: v for g, v in pres.weights.items() if v != 1}
    return doc


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
