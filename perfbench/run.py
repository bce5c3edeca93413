"""qcdesign benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload verify-n3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mib``) and the error rate; with ``--trace 1`` the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Measurements, the run environment and every failure message are also kept
in ``.perfbench/`` (spans of a traced run too).

Each workload runs in worker processes of its own (``worker.py``).  Set-up
is timed SETUP_SAMPLES times, each in a fresh process, and the median is
reported; ``wall_s`` is the median over the passes made in --seconds.

``QCDESIGN_THREADS`` is removed from the workers' environment: users run
``verify`` without it, so its thread pool takes one thread per core, and
that pool is part of what ``verify-n3`` measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SINGLE_THREADED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
#: Every run must end within 180 s; workers get what is left of this.
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))

PER_LAYER_UNITS = {
    "calls": "count",
    "total_s": "s",
    "self_s": "s",
    "errors": "count",
    "bytes_read": "B",
    "table_bytes": "B_computed",
    "cells": "count",
    "ties_per_candidate": "ties/candidate",
}


def per_layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "s"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcdesign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "QCDESIGN_THREADS_in_caller": os.environ.get("QCDESIGN_THREADS"),
    }


def run_worker(args, mode: str, workdir: Path, deadline: float, spans: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QCDESIGN_THREADS"}
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    if spans is not None:
        argv += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics (tracing off)."""
    setups = [run_worker(args, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    out = run_worker(args, "measure", workdir, deadline)
    setups.append(out["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(out["walls"]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    print(f"setup_s       {metrics['setup_s']:.4f} s    median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"wall_s        {metrics['wall_s']:.4f} s    median of {len(out['walls'])} passes: "
          + ", ".join(f"{w:.4f}" for w in out["walls"]))
    print(f"peak_rss_mib  {metrics['peak_rss_mib']:.1f} MiB")
    out["setups"] = setups
    return metrics, out


def trace(args, workdir: Path, deadline: float, spans: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass (and the traced set-up)."""
    out = run_worker(args, "trace", workdir, deadline, spans)
    metrics = out["metrics"]
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {per_layer_unit(name)}")
    self_sum, remainder = metrics["trace.self_sum_s"], metrics["trace.remainder_s"]
    note = ("one thread: spans' self times + remainder = traced wall_s"
            if args.workload in SINGLE_THREADED else
            "verify's pool runs spans on two threads, so self times may overlap")
    print(f"accounting: {self_sum:.4f} + {remainder:.4f} = {self_sum + remainder:.4f} s"
          f" vs traced wall_s {metrics['trace.wall_s']:.4f} s ({note})")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s "
          f"(traced {metrics['trace.wall_s']:.4f} s - untraced {metrics['trace.untraced_wall_s']:.4f} s)")
    return metrics, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qcdesign" / "cli.py").is_file():
        print(f"error: no qcdesign sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench_dir = ROOT / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    try:
        if args.trace:
            metrics, out = trace(args, workdir, deadline, bench_dir / f"{stem}-spans.json")
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, out = measure(args, workdir, deadline)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["numpy"] = out["numpy"]
    env["QCDESIGN_THREADS_in_workload"] = out["qcdesign_threads"]
    failures = out["failures"]
    attempted = out["attempted"]
    print(f"error_rate    {len(failures) / attempted:.4f} failed/attempted    "
          f"({len(failures)} of {attempted} operations failed)")
    for message in failures[:5]:
        print(f"FAILED {message}")
    print("env " + json.dumps(env))
    (bench_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "worker": out}, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
