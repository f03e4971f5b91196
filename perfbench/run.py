"""Benchmark of ``ncgv verify``: each repetition is a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

A repetition runs a scenario generated from the seed through the real entry
point, ``ncgv.cli.main(["verify", ...])``, in a new interpreter, one process
at a time.  A warm process would keep every presentation's normal-form cache
and the DualContext/HopfStructure caches from the previous repetition and
skip most of the work a command-line user pays for.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
the median over the repetitions that fit in ``--seconds`` (at least one).
Set-up time is also sampled by set-up-only processes, so that every run has
at least ``SETUP_SAMPLES`` of them.  With ``--trace 1`` the run makes one
untraced repetition, then traced ones (at least one), and reports the
per-layer metrics; the difference between the two wall times is the
tracing overhead.

Every report is checked (``gate.py``); a repetition whose exit code, check
statuses or report content differ from the reference counts as failed.  The
full result, with the environment, goes to ``perfbench/out/results/``.  The
last line of standard output is the JSON result.  ``--workload all`` first
runs every shipped ``builtin:`` scenario once as a smoke pass, then every
workload, and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
ACCOUNTING_TOLERANCE = 0.01
CHECK_METRIC = "cli.check_s."
# One BLAS thread: steadier on a shared machine, and never above nproc.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- environment ------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def environment(seed):
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    if int(BLAS_THREADS) > nproc:
        raise SetupError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


# -- one process ------------------------------------------------------------------


class Rep:
    """One finished child process."""

    def __init__(self, wall, exit_code, maxrss_kb, t_spawn, t_exit, sidecar,
                 report_text, stderr):
        self.wall = wall
        self.exit_code = exit_code
        self.peak_rss_mb = maxrss_kb / 1024.0
        self.t_spawn = t_spawn
        self.t_exit = t_exit
        self.sidecar = sidecar
        self.report_text = report_text
        self.stderr = stderr

    @property
    def setup(self):
        """Spawn to first check start, plus time in Session.context() and
        Session.bicovariant() not nested in one another."""
        sc = self.sidecar
        first = sc["check_starts"][0] - sc["root_start"]
        session = sum(total for parent, name, _, total, _ in sc["spans"]
                      if name in tracing.SESSION_SPANS
                      and parent not in tracing.SESSION_SPANS)
        return sc["mono_start"] - self.t_spawn + first + session


def spawn(mode, scenario, seed, work, tag, replay=None):
    report = work / f"{tag}.report.json"
    sidecar = work / f"{tag}.sidecar.json"
    errlog = work / f"{tag}.stderr"
    argv = [sys.executable, str(CHILD), str(SRC), mode, str(scenario),
            str(report), str(seed), str(sidecar)]
    if replay is not None:
        argv.append(json.dumps(replay))
    with open(errlog, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    side = json.loads(sidecar.read_text()) if sidecar.exists() else None
    text = report.read_text() if report.exists() else None
    return Rep(t_exit - t_spawn, proc.returncode, usage.ru_maxrss, t_spawn,
               t_exit, side, text, errlog.read_text())


# -- correctness ------------------------------------------------------------------


class Checker:
    """Compares every report of one run with the reference, or, for a
    seeded workload, with an all-pass run; and every report, traced or not,
    byte for byte with the run's first one."""

    def __init__(self, workload, doc, seed):
        self.seed = seed
        self.names = [c["name"] for c in doc["checks"]]
        self.reference = (gate.load_reference(workload)
                          if workloads.deterministic(workload) else None)
        self.first_text = None

    def problems(self, rep):
        if rep.sidecar is None:
            tail = rep.stderr.strip().splitlines()[-3:]
            return [f"no sidecar (exit {rep.exit_code}): {' | '.join(tail)}"]
        if not Path(rep.sidecar["ncgv_file"]).resolve().is_relative_to(SRC):
            return [f"imported ncgv from {rep.sidecar['ncgv_file']}"]
        if rep.report_text is None:
            return [f"no report (exit {rep.exit_code})"]
        report = json.loads(rep.report_text)
        if self.reference is not None:
            out = gate.compare(self.reference, report, rep.exit_code, self.seed)
        else:
            out = gate.check_passing(report, rep.exit_code, self.names)
        if self.first_text is None:
            self.first_text = rep.report_text
        elif rep.report_text != self.first_text:
            out.append("report bytes differ from the run's first repetition")
        return out


# -- metrics ----------------------------------------------------------------------


def _span_count(spans, names, skip_parents=()):
    return sum(count for parent, name, count, _, _ in spans
               if name in names and parent not in skip_parents)


def _span_total(spans, names):
    return sum(total for parent, name, _, total, _ in spans
               if name in names and parent not in names)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rep, checks):
    """Per-layer metrics of one traced repetition, and the accounting check:
    layer self times plus the uninstrumented remainder against the wall."""
    sc = rep.sidecar
    spans = sc["spans"]
    extra, gauges, caches = sc["extra"], sc["max"], sc["cache_entries"]
    self_s = {layer: 0.0 for layer in tracing.LAYERS}
    for _, name, _, _, self_time in spans:
        self_s[name.split(".", 1)[0]] += self_time

    def count(*names):
        return _span_count(spans, names)

    def total(*names):
        return _span_total(spans, names)

    subs = ("scalars.sub", "scalars.rsub")
    nf_calls = count("algebra.nf_word")
    eval_calls = count("dual.eval_word")
    rank_calls = count("linalg.rank")
    m = {
        "scalars.mul_calls": count("scalars.mul"),
        "scalars.add_calls": _span_count(spans, ("scalars.add",) + subs, subs),
        "scalars.inverse_calls": count("scalars.inverse"),
        "scalars.canon_calls": extra.get("scalars.canon", 0),
        "algebra.nf_word_calls": nf_calls,
        "algebra.nf_word_hit_ratio": _ratio(extra.get("algebra.nf_word_hits", 0),
                                            nf_calls),
        "algebra.nf_terms_calls": count("algebra.nf_terms"),
        "algebra.nf_cache_entries": caches["algebra"],
        "hopf.coproduct_calls": count("hopf.coproduct", "hopf.coproduct_word"),
        "hopf.iter_coproduct_calls": count("hopf.iter_coproduct_word"),
        "hopf.cache_entries": caches["hopf"],
        "dual.eval_word_calls": eval_calls,
        "dual.eval_word_hit_ratio": _ratio(extra.get("dual.eval_word_hits", 0),
                                           eval_calls),
        "dual.eval_letter_calls": count("dual.eval_letter"),
        "dual.left_act_calls": count("dual.left_act"),
        "dual.cache_entries": caches["dual"],
        "fodc.bicovariant_build_s": total("fodc.bicovariant_build"),
        "fodc.differential_calls": count("fodc.differential"),
        "presentations.build_s": total("presentations.build"),
        "linalg.solve_calls": count("linalg.solve"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.rank_calls": rank_calls,
        "linalg.rank_entries": extra.get("linalg.rank_entries", 0),
        "linalg.rank_max_rows": gauges.get("linalg.rank_max_rows", 0),
        "linalg.rank_full_ratio": _ratio(extra.get("linalg.rank_full", 0), rank_calls),
        "linalg.rank_s": total("linalg.rank"),
        "hilbert.norm_calls": count("hilbert.norm"),
        "hilbert.norm_s": total("hilbert.norm"),
        "hilbert.word_matrix_calls": count("hilbert.word_matrix"),
        "hilbert.word_matrix_s": total("hilbert.word_matrix"),
        "hilbert.max_dim": gauges.get("hilbert.max_dim", 0),
    }
    for layer, seconds in self_s.items():
        m[f"{layer}.self_s"] = seconds
    for check in checks:
        m[CHECK_METRIC + check] = total(tracing.CHECK_PREFIX + check)
    pre = sc["mono_start"] - rep.t_spawn
    post = rep.t_exit - sc["mono_end"]
    remainder = sc["root_self_s"] + pre + post
    m["trace.wall_s"] = rep.wall
    m["trace.remainder_s"] = remainder
    gap = rep.wall - (sum(self_s.values()) + remainder)
    return m, gap


def missing_targets(rep, workload):
    """Wrapped entry points meant to be stressed by ``workload`` that were
    never called: a wrapper that misses its target."""
    called = {name for _, name, count, _, _ in rep.sidecar["spans"] if count}
    return sorted({name for name, _, _, stress in tracing.LAYER_TARGETS
                   if workload in stress and name not in called})


def median(values):
    return statistics.median(values) if values else 0.0


# -- one run ----------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, spec):
    doc = workloads.scenario(workload, seed)
    work = OUT / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=2, sort_keys=True))
    checker = Checker(workload, doc, seed)
    problems, reps, traced = [], [], []
    attempted = failed = 0

    def judge(rep, label):
        nonlocal attempted, failed
        attempted += 1
        found = checker.problems(rep)
        if found:
            failed += 1
            problems.extend(f"{label}: {p}" for p in found)
        return not found

    # Another repetition starts only if one as long as the last still ends
    # within --seconds; there is always one, and in a traced run one untraced
    # repetition and at least one traced one.
    start = time.monotonic()
    mode = "plain"
    while True:
        tag = f"{mode}{len(reps) + len(traced)}"
        rep = spawn(mode, scenario, seed, work, tag)
        ok = judge(rep, tag)
        (traced if mode == "trace" else reps).append(rep)
        if not ok and rep.sidecar is None:
            break
        if trace:
            mode = "trace"
            if traced and time.monotonic() - start + rep.wall > seconds:
                break
        elif time.monotonic() - start + rep.wall > seconds:
            break

    usable = [r for r in reps if r.sidecar is not None and r.sidecar["check_starts"]]
    setups = [r.setup for r in usable]
    if not trace and usable:
        replay = usable[0].sidecar["setup_calls"]
        while len(setups) < SETUP_SAMPLES:
            probe = spawn("setup", scenario, seed, work, f"setup{len(setups)}",
                          replay=replay)
            if probe.exit_code != 0 or probe.sidecar is None:
                problems.append(f"setup probe failed (exit {probe.exit_code})")
                break
            setups.append(probe.setup)

    if trace:
        samples, per_rep = {}, []
        for rep in traced:
            if rep.sidecar is None:
                continue
            m, gap = layer_metrics(rep, checker.names)
            m["trace.overhead_s"] = rep.wall - reps[0].wall
            per_rep.append(m)
            if abs(gap) > ACCOUNTING_TOLERANCE * rep.wall:
                problems.append(f"layer self times miss the traced wall by {gap:.4f} s")
            missing = missing_targets(rep, workload)
            if missing:
                problems.append(f"wrapped entry points never called: {missing}")
        for name in spec["per_layer"]:
            # a check the workload does not run took no time
            samples[name] = [m.get(name, 0) if name.startswith(CHECK_METRIC)
                             else m[name] for m in per_rep]
    else:
        samples = {
            "wall_s": [r.wall for r in usable],
            "setup_s": setups,
            "check_s": [r.wall - r.setup for r in usable],
            "peak_rss_mb": [r.peak_rss_mb for r in usable],
        }
    units = spec["units"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {name: {"value": median(samples.get(name, [])), "unit": units[name]}
               for name in wanted}
    correct = not problems and bool(usable) and (bool(per_rep) if trace else True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, trace=trace,
                  seconds=seconds, env=spec["env"],
                  fail_ratio=failed / attempted if attempted else 0.0,
                  samples=samples, problems=problems,
                  scenario=doc)
    if trace and traced and traced[-1].sidecar is not None:
        detail["spans"] = traced[-1].sidecar["spans"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"[{workload}] problem: {p}")
    return result, detail


def smoke_pass(seed):
    """Every shipped builtin scenario once; wall times are for information."""
    work = OUT / "work" / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rows, ok = [], True
    for name, expected in workloads.SMOKE.items():
        rep = spawn("plain", f"builtin:{name}", seed, work, name)
        good = rep.exit_code == expected and rep.sidecar is not None
        ok &= good
        rows.append({"scenario": name, "exit_code": rep.exit_code,
                     "expected": expected, "wall_s": rep.wall})
        print(f"smoke builtin:{name:22s} exit {rep.exit_code} (expect {expected}) "
              f"{rep.wall:8.3f} s {'ok' if good else 'WRONG'}")
    shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / "smoke.json").write_text(json.dumps(rows, indent=2) + "\n")
    return ok


# -- entry point ------------------------------------------------------------------


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {"end_to_end": [m["name"] for m in bench["end_to_end"]],
            "per_layer": [m["name"] for m in bench["per_layer"]],
            "units": units, "run_seconds": bench["run_seconds"]}


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "ncgv" / "cli.py").is_file():
            raise SetupError(f"no ncgv sources under {SRC}")
        spec = load_spec()
        spec["env"] = environment(args.seed)
        compileall.compile_dir(SRC / "ncgv", quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    except (SetupError, OSError, KeyError, ValueError) as e:
        print(f"cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("env: " + json.dumps(spec["env"], sort_keys=True))
    if args.workload != "all":
        result, detail = run_workload(args.workload, args.seed, seconds, args.trace,
                                      spec)
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']} "
                  f"(median of {len(detail['samples'].get(name, []))})")
        print(f"fail_ratio = {detail['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(json.dumps(result, sort_keys=True))
        return 0
    correct = smoke_pass(args.seed)
    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        result, detail = run_workload(workload, args.seed, seconds, args.trace,
                                      spec)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload}: fail_ratio {detail['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']}), "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
