"""The R-matrix identities and the presentation derived from them.

``tests/data/slq2_presentation.json`` pins the O(SL_q(2)) presentation that
R T1 T2 = T2 T1 R yields: its document form and its rules with the order of
each right-hand side, as the index-loop expansion produced them.  The
document form is written here, by ``presentation_doc``: the package reads
no presentation files.
"""

import json
from pathlib import Path

from ncgv.linalg import MatrixOverAlgebra
from ncgv.presentations import builtin_presentation
from ncgv.rmatrix import builtin_rmatrix
from ncgv.scalars import ONE, ZERO

PINNED = Path(__file__).resolve().parent / "data" / "slq2_presentation.json"


def terms_doc(terms):
    """The term list [{"coeff", "word"}] of (word, coefficient) pairs, in the
    order given."""
    return [{"coeff": repr(c), "word": " ".join(w)} for w, c in terms]


def presentation_doc(pres):
    """The document form of a presentation with a star and unit weights:
    each generator with its star image (a name, or a {"gen", "coeff"} when
    the coefficient is not 1), the order, the rules with each right-hand side
    in term order, and the star mode."""
    def star(g):
        h, c = pres.star[g]
        return h if c.is_one() else {"gen": h, "coeff": repr(c)}

    return {
        "name": pres.name,
        "generators": [{"name": g, "star": star(g)} for g in pres.generators],
        "order": list(pres.generators),
        "relations": [{"lhs": " ".join(lhs),
                       "rhs": terms_doc(sorted(rhs.items(), key=lambda kv: pres.word_key(kv[0])))}
                      for lhs, rhs in pres.rules],
        "star_mode": pres.star_mode,
    }


def test_slq2_presentation_matches_pinned():
    pres = builtin_presentation("slq2")
    want = json.loads(PINNED.read_text())
    assert presentation_doc(pres) == want["presentation"]
    rules = [{"lhs": " ".join(lhs), "rhs": terms_doc(rhs.items())} for lhs, rhs in pres.rules]
    assert rules == want["rules"]


def test_from_index_places_composite_indices_lexicographically():
    n = 3
    m = MatrixOverAlgebra.from_index(n, 2, lambda i, k, j, l: (i, k, j, l))
    assert m.size == n * n
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    assert m.entries[(i - 1) * n + k - 1][(j - 1) * n + l - 1] \
                        == (i, k, j, l)
    assert MatrixOverAlgebra.from_index(2, 3, lambda *ix: ix).entries[5][2] \
        == (2, 1, 2, 1, 2, 1)


def test_shipped_r_times_inverse_is_identity():
    R = builtin_rmatrix("slq2")
    n = R.n
    prod = MatrixOverAlgebra.from_index(n, 2, R.entry) \
        @ MatrixOverAlgebra.from_index(n, 2, R.inv_entry)
    assert prod.entries == [[ONE if r == c else ZERO for c in range(n * n)]
                            for r in range(n * n)]
