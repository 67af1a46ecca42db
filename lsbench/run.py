"""Run one workload of the LifeStream benchmark and print its metrics.

Usage, from the repository root::

    python3 lsbench/run.py --workload retro-fig3 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures for ``--seconds`` with tracing off and reports every
``end_to_end`` metric of ``BENCHMARK.json``.  ``--trace 1`` runs a fixed
amount of work three times (untraced, traced, untraced) and reports every
``per_layer`` metric from the traced pass, plus the tracing overhead: how
much the traced pass's median operation latency exceeds the mean of the
untraced ones'.  Both modes check every output against a reference
outside the timed region.

Every duration in the end-to-end metrics (``setup_s``, ``op_ms_*`` and the
seconds behind ``events_per_s``) is scaled to a reference pace of the host,
measured between slices of the run, so that drift in a shared host's speed
does not read as a change in the program; ``bedside-live``'s pushed rate
stays in wall time.  See :mod:`lsbench.common`.  The run record keeps the
wall-clock latencies too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run (inputs' sizes, versions, seed) and, for traced runs, the spans are
written under ``lsbench/out/``.  The exit code is 0 when every output
matched its reference, 1 when one did not, and 2 when the benchmark cannot
run (for instance, the program's sources are missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "lsbench" / "out"

#: Workload name -> module of this package that implements it.
MODULES = {
    "retro-fig3": "retro",
    "bedside-live": "live",
    "ward-pool": "ward",
    "cohort-shared": "cohort",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(module, args):
    """``--trace 0``: the end-to-end metrics of a *seconds*-long run."""
    from lsbench.common import peak_rss_mb, reset_peak_rss

    inputs = module.make_inputs(args.seed)
    expected = module.references(inputs)
    reset_peak_rss()
    tally = module.run(inputs, expected, args.seconds)
    metrics = tally.end_to_end()
    metrics["peak_rss_mb"] = peak_rss_mb()
    return tally, metrics, None


def trace(module, args):
    """``--trace 1``: per-layer metrics of a traced fixed-work pass."""
    from lsbench.layers import layer_metrics
    from lsbench.spans import SpanRecorder, traced

    inputs = module.make_inputs(args.seed)
    expected = module.references(inputs)
    recorder = SpanRecorder()

    def one_pass(tracing: bool) -> tuple:
        if not tracing:
            tally = module.run(inputs, expected, args.seconds, fixed_work=True)
        else:
            with traced(recorder):
                tally = module.run(inputs, expected, args.seconds, fixed_work=True)
        return tally, tally.end_to_end()["op_ms_p50"]

    # Untraced passes before and after the traced one, so warm-up and drift
    # do not count as tracing overhead.
    before, before_ms = one_pass(False)
    tally, traced_ms = one_pass(True)
    after, after_ms = one_pass(False)
    metrics = layer_metrics(recorder, tally.layer)
    metrics["trace.spans"] = len(recorder.spans)
    metrics["trace.overhead_pct"] = 100.0 * (2 * traced_ms / (before_ms + after_ms) - 1.0)
    for plain in (before, after):
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.mismatches += plain.mismatches
    return tally, metrics, recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"lsbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy

        import repro
    except ImportError as exc:
        print(f"lsbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"lsbench: measuring {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    module = importlib.import_module(f"lsbench.{MODULES[args.workload]}")

    began = time.perf_counter()
    tally, values, recorder = (trace if args.trace else measure)(module, args)
    wall = time.perf_counter() - began

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = {m["name"] for m in declared} - set(values)
    if missing:
        print(f"lsbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
    }
    result = {
        "correct": not tally.mismatches,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    info = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": tally.sizes,
        "op_ms": tally.percentiles(),
        "wall_seconds": wall,
        "mismatches": tally.mismatches[:20],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "info": info,
        "result": result,
        "setup_seconds": tally.setup_seconds,
        "op_done": tally.op_done,
        "op_seconds": tally.op_seconds,
        "op_wall_seconds": tally.op_wall_seconds,
        "reference_seconds": tally.reference_seconds,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")
    if recorder is not None:
        recorder.write(OUT_DIR / f"{stem}-spans.jsonl")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
