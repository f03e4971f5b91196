"""Hopf *-algebra structure on presented algebras: coproduct, counit and
antipode tables on generators, extended (anti)homomorphically, with an
axiom checker that decides every degree from the generators and searches a
word corpus only when that induction does not apply.

Antipode tables for built-in algebras are not typed in: they are solved for
from the antipode axiom with a bounded-degree ansatz, then frozen on the
structure object.
"""

from __future__ import annotations

import math

from .algebra import (LinComb, NCPoly, _accum, character_value, confluence_check, first_failure,
                      first_failures, search_until_certified, star_closure_report)
from .linalg import solve_field
from .scalars import ONE, ZERO


class HopfError(ValueError):
    pass


class Tensor(LinComb):
    """Sum of elementary tensors with a fixed number of legs; every leg is a
    normal-form word, coefficients collected in front."""

    __slots__ = ("pres", "nlegs", "terms")
    _error = HopfError

    def __init__(self, pres, nlegs, terms):
        self.pres = pres
        self.nlegs = nlegs
        self.terms = terms

    def _owner(self):
        return (self.pres, self.nlegs)

    def _show(self, key):
        return "[" + " (x) ".join(" ".join(w) if w else "1" for w in key) + "]"

    def mul(self, other):
        """Legwise product, re-normalizing every leg."""
        self._same(other)
        nf = self.pres.normal_form_word
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _expand_legs(out, c1 * c2, [nf(a + b) for a, b in zip(k1, k2)])
        return Tensor(self.pres, self.nlegs, out)

    def star_legwise(self):
        pres = self.pres
        out = {}
        for key, c in self.terms.items():
            _expand_legs(out, pres.conj(c), [pres.star_word(w) for w in key])
        return Tensor(pres, self.nlegs, out)


def _expand_legs(out, coeff, legs):
    """Accumulate coeff * legs[0] (x) legs[1] (x) ... into ``out``, each leg a
    {normal word: coefficient} dict, in the order of itertools.product."""
    expanded = [((), coeff)]
    for leg in legs:
        expanded = [(key + (w,), c * cw) for key, c in expanded for w, cw in leg.items()]
    for key, c in expanded:
        _accum(out, key, c)


class HopfStructure:
    """Coproduct/counit/antipode tables on generators."""

    def __init__(self, pres, delta, counit, antipode):
        self.pres = pres
        self.delta = delta          # gen -> Tensor(2)
        self.counit_table = counit  # gen -> QScalar
        self.antipode_table = antipode  # gen -> NCPoly
        self._cop_cache = {}
        self._iter_cache = {}

    # -- algebra maps -----------------------------------------------------

    def coproduct_word(self, w):
        hit = self._cop_cache.get(w)
        if hit is not None:
            return hit
        pres = self.pres
        out = Tensor(pres, 2, {((), ()): ONE})
        for g in w:
            out = out.mul(self.delta[g])
        self._cop_cache[w] = out
        return out

    def coproduct(self, p):
        pres = self.pres
        total = Tensor(pres, 2, {})
        for w, c in p.terms.items():
            total = total + self.coproduct_word(tuple(w)).scale(c)
        return total

    def counit_word(self, w):
        return character_value(self.counit_table, {w: ONE})

    def counit(self, p):
        return character_value(self.counit_table, p.terms)

    def antipode(self, p):
        pres = self.pres
        total = pres.zero()
        for w, c in p.terms.items():
            prod = pres.one()
            for g in reversed(w):
                prod = prod * self.antipode_table[g]
            total = total + prod.scale(c)
        return total

    def iterated_coproduct_word(self, w, m):
        if m < 1:
            raise HopfError("iterated coproduct needs m >= 1")
        w = tuple(w)
        if m == 1:
            return Tensor(self.pres, 1, {(w,): ONE})
        key = (w, m)
        hit = self._iter_cache.get(key)
        if hit is not None:
            return hit
        cur = self.coproduct_leg(self.iterated_coproduct_word(w, m - 1), 0)
        self._iter_cache[key] = cur
        return cur

    def coproduct_leg(self, tensor, leg):
        """Delta applied to one leg of a tensor, which gains a leg."""
        out = {}
        for key, c in tensor.terms.items():
            for hkey, hc in self.coproduct_word(key[leg]).terms.items():
                _accum(out, key[:leg] + hkey + key[leg + 1:], c * hc)
        return Tensor(self.pres, tensor.nlegs + 1, out)


# ---------------------------------------------------------------------------


def derive_antipode(pres, delta, counit):
    """Solve m(S (x) id) Delta(g) = eps(g) 1 = m(id (x) S) Delta(g) for the
    generator antipodes over Q(s), with the ansatz that each S(g) is a
    combination of the normal words of degree <= 1: one equation per
    generator, side and normal word of the products, read off the
    normal-form table."""
    nf = pres.normal_form_word
    words = pres.normal_words(1)
    unknowns = [(g, w) for g in pres.generators for w in words]
    rows = []
    rhs = []
    for g in pres.generators:
        for left in (True, False):
            eq = {(): {}}  # the unit word, where the right-hand side eps(g) sits
            for (w1, w2), c in delta[g].terms.items():
                anchor, other = (w1, w2) if left else (w2, w1)
                # S of a longer leg is a product of unknowns: not a linear equation
                if len(anchor) != 1:
                    raise HopfError("antipode solver needs generator-only coproduct legs")
                for w in words:
                    for u, cu in nf(w + other if left else other + w).items():
                        _accum(eq.setdefault(u, {}), (anchor[0], w), c * cu)
            for u in sorted(eq, key=pres.word_key):
                rows.append([eq[u].get(k, ZERO) for k in unknowns])
                rhs.append(ZERO if u else counit[g])
    sol = dict(zip(unknowns, solve_field(rows, rhs)))
    return {g: NCPoly(pres, {w: sol[g, w] for w in words if not sol[g, w].is_zero()})
            for g in pres.generators}


def matrix_hopf(pres, n, gen_name):
    """Hopf structure with matrix coalgebra shape on the generators
    v^k_l: Delta(v^k_l) = sum_j v^k_j (x) v^j_l, eps(v^k_l) = delta_kl."""
    delta = {}
    counit = {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            g = gen_name(k, l)
            terms = {}
            for j in range(1, n + 1):
                terms[((gen_name(k, j),), (gen_name(j, l),))] = ONE
            delta[g] = Tensor(pres, 2, terms)
            counit[g] = ONE if k == l else ZERO
    antipode = derive_antipode(pres, delta, counit)
    return HopfStructure(pres, delta, counit, antipode)


def slq2_hopf(pres):
    return matrix_hopf(pres, 2, lambda i, j: f"v{i}{j}")


# ---------------------------------------------------------------------------
# axiom corpus checks
# ---------------------------------------------------------------------------


def hopf_axiom_report(H, degree=3):
    """Check coassociativity, counit, antipode and star compatibility on the
    normal words up to the given degree, in one pass that takes Delta(w)
    once per word, and that the structure maps kill the relation ideal.
    Returns a list of (check, ok, witness).

    The words of degree <= 1 (the unit and the generators) decide every
    degree when the maps are well defined on the algebra: Delta, eps and S
    kill the relations (``relation_consistency``), so does the star
    (``star_closure_report``), and every ambiguity of the rules resolves
    (``confluence_check``), so that normal forms are unique (Bergman's
    diamond lemma) and equal maps have equal normal forms on every word.
    Coassociativity and the counit then compare algebra maps, star
    compatibility compares anti-multiplicative maps, and the antipode axiom
    passes from x and y to xy because S is anti-multiplicative: each axiom
    holds in every degree once it holds on those words, whatever the other
    axioms do.  So when these conditions hold the pass stops after the
    words of degree <= 1, where a failing axiom has already met its first
    witness; otherwise it runs through the corpus."""
    pres = H.pres
    names = ["coassociativity", "counit", "antipode"]
    if pres.star is not None:
        names.append("star_compatibility")

    def poly_of(w):
        return NCPoly(pres, {w: ONE})

    def relation_consistency():
        # Delta, eps and S, rule by rule: the first rule any of them breaks
        maps = (H.coproduct_word, H.counit_word, lambda w: H.antipode(poly_of(w)))
        for rows in zip(*(pres.relation_residuals(m) for m in maps)):
            if any(not res.is_zero() for _, _, res in rows):
                yield rows[0][0]

    consistency = first_failure("relation_consistency", relation_consistency())

    def induction():
        return (consistency[1]
                and (pres.star is None or not star_closure_report(pres))
                and not confluence_check(pres, math.inf))

    def axioms():
        for w in search_until_certified(pres.normal_words(degree), pres.normal_words(1),
                                        induction):
            p = poly_of(w)
            d = H.coproduct(p)
            if H.coproduct_leg(d, 0) != H.coproduct_leg(d, 1):
                yield 0, w
            if any(_contract_counit(H, d, leg) != p.terms for leg in (0, 1)):
                yield 1, w
            left = pres.zero()
            right = pres.zero()
            for (w1, w2), c in d.terms.items():
                left = left + (H.antipode(poly_of(w1)) * poly_of(w2)).scale(c)
                right = right + (poly_of(w1) * H.antipode(poly_of(w2))).scale(c)
            target = pres.one().scale(H.counit(p))
            if left != target or right != target:
                yield 2, w
            if pres.star is not None and H.coproduct(p.star()) != d.star_legwise():
                yield 3, w

    return [*first_failures(names, axioms()), consistency]


def _contract_counit(H, tensor, leg):
    """The 2-leg tensor with eps applied to one leg, as {word: coeff}."""
    out = {}
    for key, c in tensor.terms.items():
        _accum(out, key[1 - leg], c * H.counit_word(key[leg]))
    return out

