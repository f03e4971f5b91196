"""The R-matrix identities and the presentation derived from them.

``tests/data/slq2_presentation.json`` pins the O(SL_q(2)) presentation that
R T1 T2 = T2 T1 R yields: its document form and its rules with the order of
each right-hand side, as the index-loop expansion produced them.
"""

import json
from pathlib import Path

from ncgv.algebra import presentation_to_doc
from ncgv.exprparse import terms_to_doc
from ncgv.linalg import MatrixOverAlgebra
from ncgv.presentations import builtin_presentation
from ncgv.rmatrix import builtin_rmatrix
from ncgv.scalars import ONE, ZERO

PINNED = Path(__file__).resolve().parent / "data" / "slq2_presentation.json"


def test_slq2_presentation_matches_pinned():
    pres = builtin_presentation("slq2")
    want = json.loads(PINNED.read_text())
    assert presentation_to_doc(pres) == want["presentation"]
    rules = [{"lhs": " ".join(lhs), "rhs": terms_to_doc(rhs.items())}
             for lhs, rhs in pres.rules]
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
