"""The benchmark's workloads: CLI commands, their inputs and their checks.

Every operation is one ``qcdesign.cli.main(argv)`` call with stdout and
stderr captured.  It fails on an unexpected exit code, an output that fails
its check, or an exception; a failure is counted and the run goes on.

This module imports nothing from ``qcdesign`` at import time, so that the
set-up timing includes the import of the program.
"""

from __future__ import annotations

import io
import json
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

#: A check receives (exit code, stdout) and returns a failure message or None.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Result:
    """What one operation printed, how long ``cli.main`` took, and why it
    failed (None when it passed)."""

    argv: tuple[str, ...]
    seconds: float
    stdout: str
    failure: str | None


def run_operation(cli, op: Operation) -> Result:
    """Call ``cli.main`` in-process; looked up per call, so wrappers apply."""
    out, err = io.StringIO(), io.StringIO()
    label = " ".join(op.argv)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:
        seconds = time.perf_counter() - start
        return Result(op.argv, seconds, out.getvalue(),
                      f"{label}: raised\n{traceback.format_exc()}")
    seconds = time.perf_counter() - start
    try:
        problem = op.check(code, out.getvalue())
    except ValueError as exc:  # unparsable JSON output
        problem = f"unreadable output: {exc}"
    if problem is not None:
        tail = err.getvalue().strip()[-400:]
        problem = f"{label}: {problem}" + (f" [stderr: {tail}]" if tail else "")
    return Result(op.argv, seconds, out.getvalue(), problem)


def run_pass(cli, ops: list[Operation]) -> list[Result]:
    return [run_operation(cli, op) for op in ops]


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def expect_exit(code: int, want: int = 0) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def check_verify(expected_count: int) -> Check:
    def check(code: int, out: str) -> str | None:
        problem = expect_exit(code)
        if problem:
            return problem
        if f"verified {expected_count} designs" not in out:
            return f"expected 'verified {expected_count} designs', got {out[:200]!r}"
        if "all checks passed" not in out:
            return "no 'all checks passed' line"
        return None

    return check


def check_identical(reference: str) -> Check:
    def check(code: int, out: str) -> str | None:
        problem = expect_exit(code)
        if problem:
            return problem
        if out != reference:
            return "output differs from the reference captured at the seed commit"
        return None

    return check


def _entries(spectrum_payload: list[dict]) -> list[list]:
    return [[e["length"], e["ai"], e["count"]] for e in spectrum_payload]


def check_metrics(spectrum: list[list], projectivity: int | None) -> Check:
    """``metrics --method both --report json``: agreement, spectrum, projectivity."""

    def check(code: int, out: str) -> str | None:
        problem = expect_exit(code)
        if problem:
            return problem
        payload = json.loads(out)
        if payload.get("agree") is not True:
            return "theory and oracle do not agree"
        oracle = payload["oracle"]
        if _entries(oracle["spectrum"]) != spectrum:
            return "oracle spectrum differs from the recorded one"
        if oracle.get("projectivity") != projectivity:
            return f"projectivity {oracle.get('projectivity')}, recorded {projectivity}"
        return None

    return check


def check_spectrum(spectrum: list[list]) -> Check:
    def check(code: int, out: str) -> str | None:
        problem = expect_exit(code)
        if problem:
            return problem
        if _entries(json.loads(out)) != spectrum:
            return "spectrum differs from the recorded one"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads.  ``prepare(seed, workdir)`` runs after ``import qcdesign`` and
# returns the operations of one pass; its time counts as set-up.
# ---------------------------------------------------------------------------

#: Seeded cases at n = 4, 5 that ``verify`` adds to the exhaustive ones.  It
#: is 0 because those cases make peak memory depend on the thread schedule:
#: their projection scans allocate chunks of up to 32 MiB, each pool thread
#: keeps what it allocated, and peak RSS read 144-229 MiB over runs of one
#: seed (48 MiB without them), a spread no bound can hold.
VERIFY_SAMPLE = 0


def prepare_verify(seed: int, workdir: Path) -> list[Operation]:
    """The 7410 exhaustive designs at n <= 3 (q <= 11), through the pool."""
    expected = load_reference("expected.json")["verify_exhaustive"] + VERIFY_SAMPLE
    argv = ("verify", "--n-max", "3", "--sample", str(VERIFY_SAMPLE), "--seed", str(seed))
    return [Operation(argv, check_verify(expected))]


SEARCH_COMMANDS = (
    ("search_n8_sixteenth_odd.json",
     ("search", "--n", "8", "--family", "sixteenth-odd", "--skip-projectivity",
      "--report", "json")),
    ("search_n6_eighth_even.json",
     ("search", "--n", "6", "--family", "eighth-even", "--report", "json")),
)


def prepare_search(seed: int, workdir: Path) -> list[Operation]:
    """The whole profile space is the input, so the seed does not apply."""
    return [
        Operation(argv, check_identical((REFERENCE / ref).read_text()))
        for ref, argv in SEARCH_COMMANDS
    ]


def prepare_oracle_docs(seed: int, workdir: Path) -> list[Operation]:
    """Draw one recorded design per size, write it as JSON (and CSV), and
    return the commands that load it back."""
    from qcdesign import cli, qc_core

    rng = random.Random(seed)
    ops: list[Operation] = []
    for size in load_reference("oracle_docs.json")["sizes"]:
        pick = rng.choice(size["pool"])
        family = qc_core.Family.from_label(size["family"])
        profile = qc_core.GeneratorProfile.from_digits(pick["profile"])
        u0v0 = tuple(int(c) for c in pick["u0v0"]) if pick["u0v0"] else None
        spec = qc_core.spec_for(family, profile, u0v0)
        design = qc_core.build_design(spec)
        stem = workdir / f"{family.value}-n{size['n']}-{pick['profile']}"
        doc = cli.DesignDocument(spec, design)
        Path(f"{stem}.json").write_text(cli.document_to_json(doc))
        if size["projectivity"]:
            ops.append(Operation(
                ("metrics", "--design", f"{stem}.json", "--method", "both",
                 "--report", "json"),
                check_metrics(pick["spectrum"], pick["projectivity"]),
            ))
            continue
        Path(f"{stem}.csv").write_text(cli.design_to_csv(design))
        ops.append(Operation(
            ("metrics", "--design", f"{stem}.json", "--method", "both",
             "--skip-projectivity", "--report", "json"),
            check_metrics(pick["spectrum"], None),
        ))
        ops.append(Operation(
            ("spectrum", "--design", f"{stem}.csv", "--method", "oracle",
             "--report", "json"),
            check_spectrum(pick["spectrum"]),
        ))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Operation]]] = {
    "verify-n3": prepare_verify,
    "search-n8": prepare_search,
    "oracle-docs": prepare_oracle_docs,
}

#: Workloads whose commands run on one thread (``verify`` uses its pool).
SINGLE_THREADED = {"search-n8", "oracle-docs"}
