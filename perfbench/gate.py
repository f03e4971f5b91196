"""Correctness gate: a verify report against the reference for its workload.

A repetition fails when its exit code, a check status or the report content
differs from the reference.  Exact fields must match exactly.  A float
matches when it equals the reference value or when both values are at most
the ``tol`` of the enclosing check, since a residual below tolerance may
move in its last digits with the BLAS build.  The top-level ``seed`` must
equal the seed of the run.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _diff(ref, got, path, tol, out):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            out.append(f"{path}: keys differ")
            return
        tol = ref.get("tol", tol)
        for k in ref:
            _diff(ref[k], got[k], f"{path}/{k}", tol, out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            out.append(f"{path}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}/{i}", tol, out)
    elif type(ref) is float and type(got) is float:
        if ref != got and not (tol is not None and ref <= tol and got <= tol):
            out.append(f"{path}: {got!r} != {ref!r} (tol {tol!r})")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


def compare(reference, report, exit_code, seed):
    """Differences of a report from its reference; empty when it matches."""
    out = []
    if exit_code != reference["exit_code"]:
        out.append(f"exit code {exit_code} != {reference['exit_code']}")
    expected = dict(reference["report"], seed=seed)
    _diff(expected, report, "", None, out)
    return out


def check_passing(report, exit_code, names):
    """Differences of a report from an exit-0 run in which the checks
    ``names`` ran in order and all passed."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code} != 0")
    if report.get("status") != "pass":
        out.append(f"/status: {report.get('status')!r} != 'pass'")
    checks = report.get("checks", [])
    if [c.get("check") for c in checks] != list(names):
        out.append(f"/checks: ran {[c.get('check') for c in checks]}, "
                   f"expected {list(names)}")
    for i, check in enumerate(checks):
        if check.get("status") != "pass":
            out.append(f"/checks/{i}/status: {check.get('status')!r} != 'pass'")
    return out
