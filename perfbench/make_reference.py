"""Write the reference reports of the deterministic workloads.

    python3 perfbench/make_reference.py

Runs each deterministic workload once, untraced, with seed 0, and stores
its exit code and report under ``perfbench/reference/``.  Run it only on a
commit whose reports are known to be right: the gate compares every later
report with these files.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main():
    work = run.OUT / "work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for workload in workloads.WORKLOADS:
        if not workloads.deterministic(workload):
            continue
        scenario = work / f"{workload}.json"
        scenario.write_text(json.dumps(workloads.scenario(workload, 0)))
        rep = run.spawn("plain", scenario, 0, work, workload)
        if rep.report_text is None:
            sys.exit(f"{workload}: no report (exit {rep.exit_code})\n{rep.stderr}")
        ref = {"workload": workload, "exit_code": rep.exit_code,
               "report": json.loads(rep.report_text)}
        path = gate.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
        print(f"{workload}: exit {rep.exit_code}, {rep.wall:.2f} s -> {path}")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
