"""Certification benchmark for robloc: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload certify-mcd --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/workloads.py`` and ``BENCHMARK.json``): certify-mcd,
certify-probe, certify-engine and estimate-direct. A run builds the
workload's fixed list of operations from ``--seed``, times repeated passes
over it for about ``--seconds`` seconds in this one process, and checks
every output.

``--trace 0`` reports the end-to-end metrics setup_s, wall_s and
peak_rss_mb, and op_p50_ms and op_tail_ms in the report. ``--trace 1`` spends the first half of the time
untraced and the second half with every layer wrapped from outside
(``bench/tracer.py``), then reports per-layer self time, exact work counts
and the tracing overhead, and writes the spans to ``bench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report, stamped with the environment. The exit code is 0 on a completed
run, 2 when the robloc sources are not found.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 120
TAIL_SAMPLES_BEYOND = 10
TAIL_FLOOR = 0.9


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _stamp(np, seed: int, loadavg: tuple, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "loadavg_at_start": list(loadavg),
        "seed": seed,
        "git_commit": _git_commit(ROOT),
    }


def _import_robloc():
    """Import robloc afresh from the checkout's sources."""
    for key in [k for k in sys.modules if k == "robloc" or k.startswith("robloc.")]:
        del sys.modules[key]
    rb = importlib.import_module("robloc")
    if not Path(rb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: robloc imported from {rb.__file__}, not from {SRC}")
    return rb


def _setup(workloads, name: str, seed: int) -> tuple:
    """Import robloc, build the datasets and estimators, make one warm-up call."""
    t0 = time.perf_counter()
    rb = _import_robloc()
    ops, warmup = workloads.build(rb, name, seed)
    warmup()
    return time.perf_counter() - t0, rb, ops


class Tally:
    """Attempted, failed and wrong operations across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def record(self, label: str, error: str | None, wrong: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
        if wrong is not None:
            self.wrong += 1
        note = error or wrong
        if note is not None and len(self.notes) < 20:
            self.notes.append(f"{label}: {note}")


def measure(rb, ops, seconds: float, tally: Tally, min_passes: int,
            tracer=None, on_pass=None) -> list:
    """Time passes over ``ops`` until the next pass would overrun ``seconds``.

    Returns one list of per-operation latencies (s) per pass. A RoblocError
    counts as a failed operation and does not stop the run.
    """
    robloc_error = rb.errors.RoblocError
    passes = []
    start = time.perf_counter()
    while True:
        # Every pass starts from the same collector state.
        gc.collect()
        pass_start = time.perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        latencies = []
        for i, op in enumerate(ops):
            run = op.run
            if tracer:
                run = functools.partial(tracer.run_op, len(passes) * len(ops) + i, op.run)
            t0 = time.perf_counter()
            try:
                out, error = run(), None
            except robloc_error as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            tally.record(op.label, error, None if error else op.check(out))
        passes.append(latencies)
        if on_pass:
            on_pass(first_span)
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - pass_start) > seconds:
            return passes


def end_to_end(passes: list) -> tuple:
    """(metrics, details) of the untraced passes.

    Each operation's latency is its median over the passes, which drops a
    pass disturbed by other load; wall_s sums them over the operation list.
    The report adds op_p50_ms and op_tail_ms, quantiles over the list. The
    tail is the highest percentile with at least TAIL_SAMPLES_BEYOND
    operations above it, but never below the TAIL_FLOOR quantile: a short
    list (the certify workloads) has no such percentile and reports its
    near-maximum.
    """
    per_op = sorted(statistics.median(lat) for lat in zip(*passes))
    n = len(per_op)
    rank = max(n - TAIL_SAMPLES_BEYOND, math.ceil(TAIL_FLOOR * n))  # 1-based
    metrics = {"wall_s": (sum(per_op), "s")}
    details = {
        "passes": len(passes),
        "ops_per_pass": n,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * per_op[rank - 1],
        "op_tail_percentile": 100.0 * rank / n,
        "op_tail_samples_beyond": n - rank,
        "pass_wall_s": [sum(lat) for lat in passes],
        "latencies_s": passes,
    }
    return metrics, details


def fsbv_subprocess(seed: int, tally: Tally) -> float:
    """Wall time of one ``robloc fsbv`` of demo10_2d with mcd, as a user runs it."""
    data = SRC / "robloc" / "data" / "demo10_2d.csv"
    cmd = [sys.executable, "-c", "from robloc.cli import main; main()",
           "fsbv", str(data), "--estimator", "mcd", "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    error = wrong = None
    if proc.returncode != 0:
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    else:
        try:
            fraction = json.loads(proc.stdout).get("fraction")
        except ValueError:
            fraction = "unparsable output"
        if fraction != [4, 10]:
            wrong = f"robloc fsbv demo10_2d mcd certified {fraction}, not 4/10"
    tally.record("robloc fsbv subprocess", error, wrong)
    return elapsed


def traced_run(workloads, tracer_mod, rb, ops, name, seed, seconds, tally) -> tuple:
    """Half the time untraced, half traced; per-layer metrics of the traced half."""
    untraced = measure(rb, ops, seconds / 2, tally, 1)
    tracer = tracer_mod.Tracer()
    tracer.install(rb, workloads)
    try:
        # Rebuild so estimator objects bind the wrapped functions.
        ops, _ = workloads.build(rb, name, seed)
        per_pass = []

        def on_pass(first_span):
            per_pass.append(tracer.pass_metrics(first_span, tracer.counts))
            if len(per_pass) > 1:
                # Later passes repeat the first one's spans; only it is written.
                del tracer.spans[first_span:]
            tracer.counts.clear()

        traced = measure(rb, ops, seconds / 2, tally, 1, tracer=tracer, on_pass=on_pass)
    finally:
        tracer.uninstall()
    # Counts repeat exactly from pass to pass; self times take the median.
    metrics = {}
    for key, first in per_pass[0].items():
        unit = tracer_mod.unit_of(key)
        if unit == "s" and first is not None:
            first = statistics.median(p[key] for p in per_pass)
        metrics[key] = (first, unit)
    untraced_wall = statistics.median(sum(lat) for lat in untraced)
    traced_wall = statistics.median(sum(lat) for lat in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["cli.fsbv_subprocess_s"] = (fsbv_subprocess(seed, tally), "s")
    counts_repeat = all(
        p[k] == per_pass[0][k] for p in per_pass for k in p if not k.endswith("_s")
    )
    details = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_wall_s": untraced_wall,
        "counts_identical_across_passes": counts_repeat,
        "absent": sorted(k for k, (v, _) in metrics.items() if v is None),
        "spans_per_pass": len(tracer.spans),
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path, {"workload": name, "seed": seed})
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, details


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robloc" / "__init__.py").is_file():
        print(f"error: robloc sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: the matrices are tiny, and a second thread makes the
    # timings depend on whether another tenant holds the second core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    setup_times = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        elapsed, rb, ops = _setup(workloads, args.workload, args.seed)
        setup_times.append(elapsed)

    tally = Tally()
    if args.trace == 0:
        passes = measure(rb, ops, args.seconds, tally, 2)
        metrics, details = end_to_end(passes)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        metrics, details = traced_run(workloads, tracer_mod, rb, ops, args.workload,
                                      args.seed, args.seconds, tally)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": _stamp(np, args.seed, loadavg, nproc),
        "setup_runs_s": setup_times,
        "wrong_results": tally.wrong,
        "error_rate": tally.failed / tally.attempted,
        "notes": tally.notes,
        **details,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
