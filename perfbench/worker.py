"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this script once per sample, so that each workload has a
process of its own (its peak resident memory is the workload's) and the
import of ``qcdesign`` can be timed more than once per run.

Modes:
  setup    import qcdesign and prepare the inputs, then stop
  measure  set up, then run untraced passes for --seconds
  trace    set up with tracing on, run untraced passes for --seconds, then
           one traced pass; report per-layer metrics and tracing overhead
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, covered, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None):
    """Import the program from the checkout and prepare the inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qcdesign
    from qcdesign import cli

    if Path(qcdesign.__file__).resolve().parent != (ROOT / "src" / "qcdesign").resolve():
        raise SystemExit(f"imported qcdesign from {qcdesign.__file__}, not from the checkout")
    if tracer is None:
        ops = WORKLOADS[workload](seed, workdir)
    else:
        with tracer.installed():
            ops = WORKLOADS[workload](seed, workdir)
    return time.perf_counter() - start, cli, ops


def timed_pass(cli, ops):
    results = run_pass(cli, ops)
    return sum(r.seconds for r in results), results


def untraced_passes(cli, ops, seconds: float):
    """Whole passes until --seconds have gone by (at least one)."""
    walls, results = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, done = timed_pass(cli, ops)
        walls.append(wall)
        results.extend(done)
    return walls, results


def op_seconds(results) -> dict[str, list[float]]:
    """Each command's time in every pass, for reading where a pass's time goes."""
    out: dict[str, list[float]] = {}
    for r in results:
        out.setdefault(" ".join(r.argv), []).append(r.seconds)
    return out


def search_ties(results) -> int:
    return sum(
        len(json.loads(r.stdout)["ties"])
        for r in results
        if r.argv[0] == "search" and r.failure is None
    )


def traced_metrics(tracer: Tracer, mark: int, wall: float,
                   untraced_wall: float, results) -> dict[str, float]:
    """Per-layer metrics over the traced set-up and the traced pass.

    The pass's spans also give the accounting identity: on one thread the
    self times of all spans plus the time outside every span (the
    remainder) add up to the traced wall time.
    """
    metrics = layer_metrics(tracer.spans)
    for name in ("cli.load_design.bytes_read", "oracle.j_characteristics.table_bytes",
                 "qc_core.build_design.cells"):
        metrics[name] = tracer.counters[name]
    pass_spans = tracer.spans[mark:]
    scored = sum(1 for s in pass_spans if s.name == "theory._raw_family")
    metrics["search.ties_per_candidate"] = search_ties(results) / scored if scored else 0.0
    roots = [(s.start, s.end) for s in pass_spans if s.name == "cli.main"]
    span_time = covered(float("-inf"), float("inf"), roots)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.self_sum_s"] = sum(self_times(pass_spans).values())
    metrics["trace.remainder_s"] = wall - span_time
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace mode: where to write the spans")
    args = parser.parse_args()

    tracer = Tracer() if args.mode == "trace" else None
    setup_s, cli, ops = setup(args.workload, args.seed, args.workdir, tracer)
    out: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        import numpy

        walls, results = untraced_passes(cli, ops, args.seconds)
        out.update(walls=walls, numpy=numpy.__version__)
        if tracer is not None:
            mark = len(tracer.spans)
            with tracer.installed():
                wall, traced = timed_pass(cli, ops)
            out["metrics"] = traced_metrics(
                tracer, mark, wall, statistics.median(walls), traced
            )
            results += traced
            if args.spans:
                tracer.write(args.spans)
        out.update(
            attempted=len(results),
            failures=[r.failure for r in results if r.failure is not None],
            op_seconds=op_seconds(results),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            qcdesign_threads=os.environ.get("QCDESIGN_THREADS"),
        )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
