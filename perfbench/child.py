"""One verify process of the benchmark, started fresh for every repetition.

    python3 child.py SRC MODE SCENARIO REPORT SEED SIDECAR [REPLAY]

SRC is the checkout's ``src`` directory.  MODE is

* ``plain``: run ``ncgv.cli.main(["verify", ...])`` with only the check and
  Session spans that split set-up from checking;
* ``trace``: the same run with every layer entry point of ``tracer.py``
  wrapped;
* ``setup``: load the scenario as ``verify`` does, then replay the cold
  Session calls listed in the JSON string REPLAY, and stop.  This repeats a
  verify run's set-up without its checks.

The sidecar holds the aggregated spans and absolute CLOCK_MONOTONIC times,
which the parent compares with its own spawn and exit times.  The process
exits with the verify exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv):
    src, mode, scenario, report, seed, sidecar = argv[:6]
    sys.path.insert(0, src)

    import tracer as tracing
    from ncgv import cli

    tracer = tracing.Tracer()
    tracer.install(tracing.CLI_TARGETS)
    tracer.install_checks()
    if mode == "trace":
        tracer.install(tracing.LAYER_TARGETS)
        tracer.count_canonicalizing_inits()
    mono_start = time.monotonic()
    tracer.start()
    if mode == "setup":
        doc = cli.load_scenario(scenario)
        cli.validate_scenario(doc)
        session = cli.Session(doc, int(seed))
        tracer.check_starts.append(time.perf_counter())
        for call in json.loads(argv[6]):
            getattr(session, call[0])(*call[1:])
        rc = 0
    else:
        rc = cli.main(["verify", scenario, "--seed", seed, "--out", report])
    tracer.stop()
    mono_end = time.monotonic()
    doc = tracer.dump()
    doc.update(mono_start=mono_start, mono_end=mono_end,
               ncgv_file=cli.__file__)
    with open(sidecar, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
