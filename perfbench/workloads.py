"""Scenarios of the benchmark workloads, made from the benchmark's seed.

Each workload stresses different layers.  Only
``property_random`` draws its inputs from the seed; the other three are
fixed computations whose reports are compared with stored references, and
the seed reaches them only as ``verify --seed``.
"""

from __future__ import annotations

# Why each workload is there is stated in BENCHMARK.json.
WORKLOADS = ("exact_slq2", "rank_faithfulness", "numeric_disc", "property_random")

# builtin scenario -> expected exit code of the smoke pass
SMOKE = {
    "disc_m64": 0,
    "disc_unreachable_tol": 1,
    "ext_plane_literal": 1,
    "ext_plane_m6": 0,
    "property_suites": 0,
    "slq2_full": 0,
    "weyl_m8": 0,
}


def scenario(workload, seed):
    """The scenario document of ``workload`` for ``seed``."""
    if workload == "exact_slq2":
        checks = [
            {"name": "confluence", "degree": 6},
            {"name": "hopf_axioms", "degree": 4},
            {"name": "fodc_validate", "zeta": "eps", "degree": 4},
            {"name": "prop1", "zeta": "eps", "degree": 3},
            {"name": "prop4", "zeta": "eps", "degree": 3},
            {"name": "centrality", "zeta": "eps", "degree": 4},
            {"name": "hermiticity", "zeta": "eps", "degree": 3},
            {"name": "faithfulness", "zeta": "eps", "degrees": [1, 2]},
        ]
        algebra = "slq2"
    elif workload == "rank_faithfulness":
        checks = [{"name": "faithfulness", "zeta": "eps", "degrees": [1, 2, 3]}]
        algebra = "slq2"
    elif workload == "numeric_disc":
        checks = [
            {"name": "disc_numeric", "dim": 512, "q": 0.5, "tol": 1e-12},
            {"name": "weyl_numeric", "m": 64, "tol": 1e-12},
            {"name": "ex3_symbolic", "M": 24},
        ]
        algebra = "disc"
    elif workload == "property_random":
        checks = [
            {"name": "leibniz_random", "samples": 600, "degree": 3, "seed": seed},
            {"name": "cross_assoc_random", "samples": 60, "seed": seed},
            {"name": "idempotence_random", "samples": 4000, "seed": seed},
        ]
        algebra = "slq2"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"name": workload, "algebra": algebra, "checks": checks}


def deterministic(workload):
    """Whether the report of ``workload`` is fixed apart from its seed field."""
    return workload != "property_random"
