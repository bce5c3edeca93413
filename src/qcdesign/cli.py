"""Command-line surface: build, metrics, spectrum, search, tables, verify, bound.

Serialization lives here as well: design documents round-trip through a
versioned JSON schema ("qcdesign/1") or a plain CSV of +1/-1 runs.  Exact
rationals are serialized as lowest-terms "p/q" strings; decimal fields are
presentation-only duplicates and are never parsed back.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .oracle import (
    DEFAULT_MAX_FACTORS,
    JTable,
    check_factor_cap,
    j_characteristics,
    j_table_chunks,
    projectivity as oracle_projectivity,
    spectrum_bruteforce,
)
from .qc_core import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    _integers,
    build_design,
    profile_of,
)
from .search import (
    MAX_N,
    Criterion,
    ReportRow,
    SearchResult,
    optimize,
    orthogonal_array_ceiling,
    profile_array,
    reproduce_table,
    u0v0_classes,
)
from .spectrum import (
    UNBOUNDED,
    WordSpectrum,
    parse_fraction,
    spectrum_metrics,
)
from .theory import (
    ClosedForms,
    closed_forms,
    family_spectrum,
    normalize_u0v0,
    projectivity_bound,
)

SCHEMA = "qcdesign/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class UsageError(Exception):
    exit_code = EXIT_USAGE


class MismatchError(UsageError):  # well-formed input that contradicts itself
    exit_code = EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Design documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignDocument:
    """A design matrix plus the generator data that produced it; the matrix
    is None where a command needs the generator data alone."""

    spec: GeneratorSpec | None
    design: DesignMatrix | None
    metrics: dict | None = None


def _pair_text(pair: tuple[int, int] | None, missing: str | None = None) -> str | None:
    return missing if pair is None else f"{pair[0]}{pair[1]}"


# The head and tail of each run in a JSON document and in a CSV body.
_JSON_RUN, _CSV_RUN = (b"    [", b"],\n"), (b"", b"\n")
# Runs per written piece, and characters per read block (up to a run's end).
_WRITE_RUNS, _READ_CHARS = 256, 1 << 16


def _encode_runs(rows: np.ndarray, head: bytes, tail: bytes, end: str | None = None):
    """Pieces of _WRITE_RUNS runs, each ``head``, its entries ``1``/``-1``
    joined by commas, then ``tail`` (a nonempty one replaced by ``end`` for
    the last run, if given): rows of a uint8 buffer of three bytes (0 or
    ``-``, ``1``, ``,``) per entry, less the last comma, with the zeros cut."""
    n, q = rows.shape
    line = head + b"\0" + b"1,\0" * (q - 1) + b"1" + tail
    lines = np.tile(np.frombuffer(line, np.uint8), (min(n, _WRITE_RUNS), 1))
    for start in range(0, n, _WRITE_RUNS):
        block = rows[start : start + _WRITE_RUNS]
        lines[: len(block), len(head) : len(head) + 3 * q : 3] = (block < 0) * ord("-")
        piece = lines[: len(block)].tobytes().translate(None, b"\0").decode("ascii")
        yield piece if end is None or start + _WRITE_RUNS < n else piece[: -len(tail)] + end


def _json_pieces(doc: DesignDocument) -> Iterable[str]:
    """The text of document_to_json, a piece at a time."""
    spec = doc.spec
    payload = {
        "schema": SCHEMA,
        "family": spec.family.value if spec else None,
        "n": spec.n if spec else None,
        "u": list(spec.u) if spec else None,
        "v": list(spec.v) if spec else None,
        "u0v0": _pair_text(spec.u0v0) if spec else None,
        "n_runs": doc.design.n_runs,
        "n_factors": doc.design.n_factors,
        "columns": list(doc.design.columns),
        "rows": [],
        "metrics": doc.metrics,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if not doc.design.n_runs:
        return [text]
    before, _, after = text.partition('"rows": []')  # quotes in earlier values are escaped
    runs = _encode_runs(doc.design.rows, *_JSON_RUN, end=f"]\n  ]{after}")  # one per line
    return chain([before + '"rows": [\n'], runs)


def document_to_json(doc: DesignDocument) -> str:
    return "".join(_json_pieces(doc))


def _validate_metrics_payload(payload: dict) -> dict:
    """Reject inexact metric fields; only p/q strings are accepted."""
    out = dict(payload)
    resolution = out.get("resolution")
    if resolution is not None and resolution != "unbounded":
        parse_fraction(str(resolution))
    for item in out.get("wlp") or ():
        parse_fraction(str(item))
    for entry in out.get("spectrum") or ():
        parse_fraction(str(entry["ai"]))
    return out


def _check_widths(kind: str, widths: np.ndarray, q: int) -> None:
    for run in np.flatnonzero(widths != q)[:1]:
        raise UsageError(f"{kind} run {run + 1} has {widths[run]} entries for {q} columns")


def _read_runs(text: str, start: int, stop: int, cut: re.Pattern, mark, q: int,
               head: bytes, tail: bytes) -> np.ndarray | None:
    """The int8 runs of text[start:stop], or None unless each block (cut where ``cut``
    first matches _READ_CHARS or more characters in), marked by ``mark(block, last)``,
    is what _encode_runs(rows, head, tail) writes for q-entry runs, each -1 as 0: a
    (runs, width) view of it equals the run once the low bit of each 1 is set."""
    run = np.frombuffer(head + b"1," * (q - 1) + b"1" + tail, np.uint8)
    ones, parts = (run == ord("1")).view(np.uint8), []
    while start < stop:
        found = cut.search(text, start + _READ_CHARS, stop)
        end = found.end() if found else stop
        marked = mark(text[start:end], end == stop)
        while marked is not None:
            runs = np.frombuffer(marked, np.uint8)
            if runs.size % run.size == 0:
                runs = runs.reshape(-1, run.size)
                if ((runs | ones) == run).all():
                    break
            # Blank CSV lines; no line break is left in a marked JSON block.
            marked = marked.replace(b"\n\n", b"\n") if b"\n\n" in marked else None
        if marked is None:
            return None
        # The entry columns, 0 (48) and 1 (49), as -1 and 1.
        parts.append(runs[:, len(head) : len(head) + 2 * q : 2].view(np.int8) * 2 - 97)
        start = end
    return np.concatenate(parts)


def _mark(block: bytearray, sign: bytes, digit: bytes) -> bytearray:
    """``block`` with each ``sign`` ``1`` made `` `` ``digit`` in place, as
    ``bytes.replace(sign + b"1", b" " + digit)`` does: the pair cannot overlap
    itself, so each of its bytes just loses its distance to the new one."""
    a = np.frombuffer(block, np.uint8)
    pairs = ((a[:-1] == sign[0]) & (a[1:] == ord("1"))).view(np.uint8)
    a[:-1] -= pairs * (sign[0] - ord(" "))
    a[1:] -= pairs * (ord("1") - digit[0])
    return block


def _mark_json(block: str, last: bool) -> bytearray | None:
    """-1 marked 0, no whitespace, and the comma the last run lacks."""
    block = bytearray(block, "utf-8")
    if b"0" in block:
        return None  # `- 1` keeps its space until the -1 are marked
    return _mark(block, b"-", b"0").translate(None, b" \t\n\r") + b"," * last


def _rows_block(text: str, pos: int) -> tuple[object, int]:
    """The ``rows`` value at text[pos] and the index after it: the int8
    runs if its text up to the first ``]]`` is the writer's, whitespace
    aside, or else the stdlib's value.  Blocks are cut before a ``[``; the
    width is one more than the commas before the first ``]``."""
    close = text.startswith("[", pos) and _ROWS_END.search(text, pos)
    q = close and text.count(",", pos, text.index("]", pos)) + 1
    if close and (runs := _read_runs(text, pos + 1, close.start() + 1, re.compile(r"(?=\[)"),
                                     _mark_json, q, *map(bytes.strip, _JSON_RUN))) is not None:
        return runs, close.end()
    return _DECODER.raw_decode(text, pos)


_DECODER = json.JSONDecoder()
_ROWS_END = re.compile(r"\][ \t\n\r]*\]")
# A member's `{` (the first) or `,`, its key and its colon.
_MEMBER = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*("(?:[^"\\]|\\.)*")[ \t\n\r]*:[ \t\n\r]*', re.S)


def _json_payload(text: str) -> object:
    """``json.loads(text)``, with a top-level ``rows`` read by _rows_block;
    text this walk does not expect goes to json.loads itself."""
    payload, pos = {}, 0
    try:
        while (m := _MEMBER.match(text, pos)) and m[1] == ("," if payload else "{"):
            read = _rows_block if (key := json.loads(m[2])) == "rows" else _DECODER.raw_decode
            payload[key], pos = read(text, m.end())  # a repeated key keeps the last value
        if payload and text[pos:].strip(" \t\n\r") == "}":
            return payload
    except ValueError:  # json.loads reads the whole text: its value or its error
        pass
    return json.loads(text)


def document_from_json(text: str) -> DesignDocument:
    payload = _json_payload(text)
    del text  # unless the caller holds it, freed before the rows are checked and rebuilt
    if not isinstance(payload, dict):
        raise UsageError("a design document must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise UsageError(f"unsupported schema {payload.get('schema')!r}")
    columns = payload["columns"]
    if type(columns) is not list or set(map(type, columns)) - {str}:
        raise UsageError("JSON columns must be a list of strings")
    if not columns:
        raise UsageError("JSON columns must name at least one column")
    rows, q = payload["rows"], len(columns)
    if type(rows) is np.ndarray:  # runs as wide as the first
        _check_widths("JSON", np.array(rows.shape[1:]), q)
    elif type(rows) is not list or set(map(type, rows)) - {list}:
        raise UsageError("JSON rows must be a list of runs, each a list of entries")
    else:  # a list of lists _rows_block refused: its first ragged run, else bad entry
        _check_widths("JSON", np.fromiter(map(len, rows), np.int64, len(rows)), q)
        for x in chain.from_iterable(rows):  # type() tells true from 1 and 1.0
            if type(x) is not int or abs(x) != 1:
                got = json.dumps(x)
                raise UsageError(f"JSON entries must be the integers 1 and -1, got {got}")
    if len(rows) == 0:
        raise UsageError("a JSON design needs at least one run")
    design = DesignMatrix(tuple(columns), rows)
    for key, count in (("n_runs", design.n_runs), ("n_factors", design.n_factors)):
        if _integers((payload[key],), key) != (count,):  # an integer, as n, u and v are
            raise UsageError("document run/factor counts disagree with the rows")
    spec = None
    if payload.get("family"):
        pair = normalize_u0v0(payload["u0v0"]) if payload.get("u0v0") else (None, None)
        spec = GeneratorSpec(Family.from_label(payload["family"]), payload["n"],
                             tuple(payload["u"]), tuple(payload["v"]), *pair)
        rebuilt = design.n_runs == spec.family.run_count(spec.n) and build_design(spec)
        if not (rebuilt and np.array_equal(rebuilt.rows, design.rows)):
            raise MismatchError("the rows differ from a rebuild of the generator fields")
    metrics = payload.get("metrics")
    if metrics is not None:
        metrics = _validate_metrics_payload(metrics)
    return DesignDocument(spec, design, metrics)


def _csv_pieces(design: DesignMatrix) -> Iterable[str]:
    return chain([",".join(design.columns) + "\n"], _encode_runs(design.rows, *_CSV_RUN))


def design_to_csv(design: DesignMatrix) -> str:
    return "".join(_csv_pieces(design))


_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# Non-ASCII whitespace as " ", and its line breaks as "\n" (str.translate table).
_WIDE_SPACE = str.maketrans("\x85\u2028\u2029", "\n\n\n") | dict.fromkeys(
    (0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000), " ")
# The ASCII line breaks of str.splitlines() as "\n" (bytes.translate table).
_BREAKS = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e", b"\n" * 6)


def _csv_fault(body: str, q: int) -> None:
    """Raise for the first bad token or ragged run of a CSV body, line by line."""
    for run, line in enumerate(filter(str.strip, body.splitlines()), start=1):
        tokens = [tok.strip() for tok in line.split(",")]
        for tok in tokens:
            if tok not in ("1", "+1", "-1"):
                raise UsageError(f"CSV entries must be +1 or -1, got {tok!r}")
        if len(tokens) != q:
            raise UsageError(f"CSV run {run} has {len(tokens)} entries for {q} columns")


def _mark_csv(block: str, last: bool) -> bytearray | None:
    """-1 marked 0, +1 as 1, line breaks as "\\n" and no spaces."""
    block = bytearray(block if block.isascii() else block.translate(_WIDE_SPACE), "utf-8")
    if b"0" in block:
        return None
    _mark(block, b"-", b"0")
    if b"+" in block:
        _mark(block, b"+", b"1")  # a -1 marked " 0" starts no +1
    block = block.translate(_BREAKS, b" \t\x1f").strip(b"\n")
    return block and block + b"\n"


def design_from_csv(text: str) -> DesignMatrix:
    """A header of column labels, then one run per non-blank line; each
    entry is ``1``, ``+1`` or ``-1`` after stripping whitespace.  Blocks
    are cut after a line break."""
    first = re.search(r"\S", text)
    header = first and _LINE_BREAK.search(text, first.start())
    if not (header and re.compile(r"\S").search(text, header.end())):
        raise UsageError("a CSV design needs a header line and at least one run")
    columns = tuple(map(str.strip, text[first.start() : header.start()].split(",")))
    rows = _read_runs(text, header.end(), len(text), _LINE_BREAK, _mark_csv, len(columns),
                      *_CSV_RUN)
    if rows is None:
        _csv_fault(text[header.end() :], len(columns))
    return DesignMatrix(columns, rows)


def load_design(path: str) -> DesignDocument:
    """Read a JSON design document, or a CSV one by its ``.csv`` extension;
    malformed input is a UsageError."""
    try:
        if path.lower().endswith(".csv"):
            return DesignDocument(None, design_from_csv(Path(path).read_text()))
        return document_from_json(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}")
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Metric payload rendering
# ---------------------------------------------------------------------------


def _spectrum_payload(spectrum: WordSpectrum) -> list[dict]:
    return [{"length": e.length, "ai": str(e.ai), "ai_decimal": float(e.ai), "count": e.count}
            for e in spectrum]


def _metrics_payload(spectrum: WordSpectrum, q: int, proj: int | None = None) -> dict:
    resolution, wlp = spectrum_metrics(spectrum, q)
    unbounded = resolution is UNBOUNDED
    payload = {
        "resolution": "unbounded" if unbounded else str(resolution),
        "resolution_decimal": None if unbounded else float(resolution),
        "wlp": [str(a) for a in wlp],
        "wlp_decimal": [float(a) for a in wlp],
        "spectrum": _spectrum_payload(spectrum),
        "word_count": spectrum.word_count,
    }
    if proj is not None:
        payload["projectivity"] = proj
    return payload


def _print_metrics(tag: str, payload: dict) -> None:
    dec = payload["resolution_decimal"]
    dec_text = "" if dec is None else f" ({dec})"
    print(f"[{tag}] resolution: {payload['resolution']}{dec_text}")
    print(f"[{tag}] wlp: ({', '.join(payload['wlp'])})")
    if "projectivity" in payload:
        print(f"[{tag}] projectivity: {payload['projectivity']}")
    words = ", ".join(
        f"(len {e['length']}, ai {e['ai']}) x {e['count']}"
        for e in payload["spectrum"]
    )
    print(f"[{tag}] spectrum: {words or 'empty'}")


def _spec_from_flags(args: argparse.Namespace) -> GeneratorSpec:
    family = Family.from_label(args.family)
    try:
        u = tuple(int(tok) for tok in args.u.split(","))
        v = tuple(int(tok) for tok in args.v.split(","))
    except (AttributeError, ValueError):
        raise UsageError("--u and --v must be comma-separated Z4 digits")
    try:
        pair = normalize_u0v0(args.u0v0) if args.u0v0 else (None, None)
        return GeneratorSpec(family, args.n, u, v, *pair)
    except ValueError as exc:
        raise UsageError(str(exc))


def _resolve_design(args: argparse.Namespace, build: bool) -> DesignDocument:
    """The document of ``--design``, or of the generator flags, whose matrix
    is built only if ``build``."""
    if args.max_factors < 1:
        raise UsageError("--max-factors must be positive")
    if args.design:
        return load_design(args.design)
    if not (args.family and args.u and args.v) or args.n is None:
        raise UsageError("provide --design PATH or --family/--n/--u/--v flags")
    spec = _spec_from_flags(args)
    if build:  # refused before a matrix of 4^n runs or more is built
        check_factor_cap(spec.family.factor_count(spec.n), max_factors=args.max_factors)
    return DesignDocument(spec, build_design(spec) if build else None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    csv = args.format == "csv" if args.format else (args.out or "").lower().endswith(".csv")
    if args.with_metrics and csv:
        raise UsageError("--with-metrics needs --format json; a CSV design has no metrics")
    spec = _spec_from_flags(args)
    if spec.n > MAX_N:  # refused before a matrix of 4^n runs or more is allocated
        raise UsageError(f"build takes n <= {MAX_N}, got n = {spec.n}")
    design = build_design(spec)
    doc = DesignDocument(spec, design)
    if args.with_metrics:
        metrics = _metrics_payload(_theory_spectrum_for(doc), design.n_factors)
        doc = DesignDocument(spec, design, metrics)
    pieces = _csv_pieces(design) if csv else _json_pieces(doc)
    if args.out:
        try:
            with Path(args.out).open("w") as out:
                out.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}")
        print(f"wrote {design.n_runs} x {design.n_factors} design to {args.out}")
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


def _theory_spectrum_for(doc: DesignDocument) -> WordSpectrum:
    if doc.spec is None:
        raise UsageError("theory metrics need generator data; this design has none")
    try:
        return family_spectrum(doc.spec.family, profile_of(doc.spec.u, doc.spec.v), doc.spec.u0v0)
    except ValueError as exc:  # n past the closed forms
        raise UsageError(str(exc))


def cmd_metrics(args: argparse.Namespace) -> int:
    method = args.method
    doc = _resolve_design(args, build=method != "theory")
    spec, design = doc.spec, doc.design
    n_runs, q = (design.n_runs, design.n_factors) if design else (
        spec.family.run_count(spec.n), spec.family.factor_count(spec.n))
    payloads: dict[str, dict] = {}
    if method in ("theory", "both"):
        payloads["theory"] = _metrics_payload(_theory_spectrum_for(doc), q)
    if method in ("oracle", "both"):
        table = j_characteristics(design, args.max_factors)
        proj = None
        if not args.skip_projectivity:
            proj = oracle_projectivity(design, table)
        payloads["oracle"] = _metrics_payload(spectrum_bruteforce(design, table), q, proj)
    agree = True
    if method == "both":
        keys = ("resolution", "wlp", "spectrum")
        agree = all(payloads["theory"][k] == payloads["oracle"][k] for k in keys)
    if args.report == "json":
        out = {"method": method, "n_runs": n_runs, "n_factors": q}
        out.update(payloads)
        if method == "both":
            out["agree"] = agree
        print(json.dumps(out, indent=2))
    else:
        for tag, payload in payloads.items():
            _print_metrics(tag, payload)
        if method == "both":
            print(f"theory and oracle {'agree' if agree else 'DISAGREE'}")
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_spectrum(args: argparse.Namespace) -> int:
    doc = _resolve_design(args, build=args.method != "theory")
    if args.method == "theory":
        spectrum = _theory_spectrum_for(doc)
    else:
        spectrum = spectrum_bruteforce(doc.design, j_characteristics(doc.design, args.max_factors))
    payload = _spectrum_payload(spectrum)
    if args.report == "json":
        print(json.dumps(payload, indent=2))
    else:
        if not payload:
            print("empty spectrum")
        for e in payload:
            print(f"length {e['length']}  ai {e['ai']}  count {e['count']}")
    return EXIT_OK


def _result_payload(result: SearchResult) -> dict:
    return {
        "family": result.family.value,
        "n": result.n,
        "criterion": result.criterion.value,
        "profile": result.profile.digits,
        "u0v0": _pair_text(result.u0v0),
        "resolution": str(result.resolution),
        "resolution_decimal": float(result.resolution),
        "wlp": [str(a) for a in result.wlp],
        "wlp_from_4": [str(a) for a in result.wlp_from_4],
        "projectivity": result.projectivity,
        "criteria_coincide": result.criteria_coincide,
        "ties": [{"profile": p.digits, "u0v0": _pair_text(c)} for p, c in result.ties],
        "regular_reference": None
        if result.regular_reference is None
        else {
            "resolution": str(result.regular_reference.resolution),
            "wlp_comparison": result.regular_reference.wlp_comparison,
        },
    }


def _render_rows(rows: list[dict], fmt: str, columns: Sequence[str]) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    lines = [list(columns)] + [[str(row.get(c, "")) for c in columns] for row in rows]
    if fmt == "csv":
        return "\n".join(",".join(line) for line in lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    md = ["| " + " | ".join(t.ljust(w) for t, w in zip(line, widths)) + " |" for line in lines]
    return "\n".join([md[0], "|-" + "-|-".join("-" * w for w in widths) + "-|", *md[1:]])


def cmd_search(args: argparse.Namespace) -> int:
    family = Family.from_label(args.family)
    criterion = Criterion(args.criterion)
    try:
        result = optimize(
            args.n, family, criterion, with_projectivity=not args.skip_projectivity
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = _result_payload(result)
    if args.report == "json":
        print(json.dumps(payload, indent=2))
    else:
        row = {
            "design": family.label(args.n),
            "profile": payload["profile"],
            "u0v0": payload["u0v0"] or "-",
            "R": payload["resolution"],
            "R_decimal": payload["resolution_decimal"],
            "A4..": "(" + ", ".join(payload["wlp_from_4"]) + ")",
            "projectivity": payload["projectivity"],
            "ties": len(payload["ties"]),
        }
        print(_render_rows([row], args.report, list(row.keys())))
        if len(payload["ties"]) > 1:
            tie_text = ", ".join(
                t["profile"] + ("" if t["u0v0"] is None else f"/{t['u0v0']}")
                for t in payload["ties"]
            )
            print(f"ties: {tie_text}")
    return EXIT_OK


def _table_row_payload(row: ReportRow, which: int) -> dict:
    res = row.result
    out = {
        "design": row.label,
        "profile": res.profile.digits,
        "u0v0": _pair_text(res.u0v0, "-"),
        "listed_profile": row.expected.profile,
        "listed_u0v0": _pair_text(row.expected.u0v0, "-"),
    }
    if which in (3, 4):
        out.update(
            R=str(res.resolution),
            R_decimal=float(res.resolution),
            A4=("(" + ", ".join(str(a) for a in res.wlp_from_4) + ")"),
            projectivity=res.projectivity,
            regular_R=str(row.expected.regular.resolution),
            regular_A=row.expected.regular.wlp_comparison,
        )
    else:
        out.update(
            projectivity=res.projectivity,
            regular_projectivity=row.expected.regular_projectivity,
        )
    out["status"] = "PASS" if row.passed else "FAIL"
    out["checks"] = ";".join(k for k, ok in row.flags.items() if not ok) or "all"
    return out


def cmd_tables(args: argparse.Namespace) -> int:
    rows = reproduce_table(args.which)
    payloads = [_table_row_payload(r, args.which) for r in rows]
    columns = list(payloads[0].keys())
    columns.remove("checks")
    print(_render_rows(payloads, args.report, columns))
    failed = [r for r in rows if not r.passed]
    for row in failed:
        bad = [k for k, ok in row.flags.items() if not ok]
        print(f"FAIL {row.label}: {', '.join(bad)}", file=sys.stderr)
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    family = Family.from_label(args.family)
    try:
        bound = projectivity_bound(args.n, family)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"design: {family.value}, n = {args.n}, q = {family.factor_count(args.n)}")
    print(f"closed-form projectivity bound: "
          f"{'none for eighth fractions' if bound is None else bound}")
    ceiling = orthogonal_array_ceiling(family, args.n)
    print(f"orthogonal-array ceiling (all designs of this size): {ceiling}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------


#: Failure messages ``verify`` prints in full; the rest are only counted.
VERIFY_SHOWN = 5

def _verify_blocks(
    families: list[Family], n_max: int, sample: int, seed: int
) -> list[tuple[Family, np.ndarray, tuple]]:
    """(family, profile counts, u0v0 values) blocks; each block's designs
    are all its profiles times all its u0v0 values."""
    blocks = []
    for family in families:
        for n in range(1, n_max + 1):
            blocks.append((family, profile_array(n), u0v0_classes(family)))
    rng = random.Random(seed)
    for _ in range(sample):
        family = rng.choice(families)
        n = rng.choice((n_max + 1, n_max + 2))
        counts = [0] * 10
        for _ in range(n):
            counts[rng.randrange(10)] += 1
        pair = None
        if family.branched:
            pair = rng.choice(u0v0_classes(family))
        blocks.append((family, np.array([counts]), (pair,)))
    return blocks


def _chunk_failures(
    forms: ClosedForms, p: np.ndarray, c: np.ndarray, table: JTable, bound: int | None
) -> list[tuple[int, str]]:
    """The failing designs of a chunk, each with its first failing check."""
    n_runs, q, designs = table.n_runs, len(table.columns), p.size
    log_n = n_runs.bit_length() - 1
    # Each design's words are tallied by (length, e), |J| = N >> e: +1 per
    # oracle word, less the theory counts; the spectra agree iff every tally
    # nets to zero.  Bucket log2 N + 1 holds the oracle |J| that are no power
    # of two and bucket log2 N + 2 the theory e outside 0..log2 N, so neither
    # side's misfits can cancel the other's.  Theory lengths are clipped to
    # 0..q+1; no oracle word lies outside 1..q.
    e_of = np.full(n_runs + 2, log_n + 1)
    e_of[n_runs >> np.arange(log_n + 1)] = np.arange(log_n + 1)
    design, lengths, jabs = table.words
    keys = (design * (q + 2) + lengths) * (log_n + 3) + e_of[np.minimum(jabs, n_runs + 1)]
    net = np.bincount(keys, minlength=designs * (q + 2) * (log_n + 3))
    t_lengths, t_exps, t_counts = forms.words(p, c)
    t_exps[(t_exps < 0) | (t_exps > log_n)] = log_n + 2
    keys = (np.arange(designs)[:, None] * (q + 2) + np.clip(t_lengths, 0, q + 1)) * (log_n + 3)
    np.subtract.at(net, keys + t_exps, t_counts)
    differ = net.reshape(designs, -1).any(axis=1)

    squares = table.values[:, 0].astype(np.int64) ** 2  # Parseval: J(empty)^2 and
    np.add.at(squares, design, jabs.astype(np.int64) ** 2)  # each word's |J|^2 sum to N 2^q
    parseval = squares != n_runs << q

    # The resolution floor on projectivity needs no check: see oracle.JTable.
    exceeds = np.zeros(designs, dtype=bool)
    if bound is not None and bound + 1 <= q:
        exceeds = ~table.deficient(bound + 1)

    checks = (
        (differ, "theory and oracle spectra differ"),
        (parseval, "Parseval identity fails"),
        (exceeds, "projectivity exceeds the closed-form bound"),
    )
    return [
        (d, next(msg for failed, msg in checks if failed[d]))
        for d in np.flatnonzero(differ | parseval | exceeds).tolist()
    ]


def _verify_block(family: Family, counts: np.ndarray, pairs: tuple) -> Iterator[str]:
    """Check every design of a block against the closed forms, chunk by
    chunk, and yield a message for each failing design, profile-major."""
    forms = closed_forms(family, counts, pairs)
    n = int(counts[0].sum())
    bound = projectivity_bound(n, family)
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    for p, c, table in j_table_chunks(family, counts, pairs, *every):
        for d, msg in _chunk_failures(forms, p, c, table, bound):
            profile = GeneratorProfile(tuple(counts[p[d]].tolist()))
            yield f"{family.value} profile={profile.digits} u0v0={pairs[c[d]]}: {msg}"


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.families:
        raise UsageError("--families needs at least one family")
    if args.n_max < 1 or args.sample < 0:
        raise UsageError("--n-max must be positive and --sample nonnegative")
    families = [Family.from_label(f) for f in dict.fromkeys(args.families)]
    n_top = args.n_max + 2 if args.sample else args.n_max  # samples reach n_max + 2
    q, label = max((f.factor_count(n_top), f.value) for f in families)
    try:
        check_factor_cap(q, f"{label} designs at n = {n_top} have")
    except ValueError as exc:
        raise UsageError(str(exc))
    failures = []
    verified = 0
    for family, profiles, pairs in _verify_blocks(
        families, args.n_max, args.sample, args.seed
    ):
        verified += len(profiles) * len(pairs)
        n = int(profiles[0].sum())
        for msg in _verify_block(family, profiles, pairs):
            failures.append((family, n, msg))
    print(
        f"verified {verified} designs "
        f"(families: {', '.join(f.value for f in families)}, n <= {args.n_max}, "
        f"{args.sample} sampled larger cases)"
    )
    if failures:
        print(f"FAILURES: {len(failures)}", file=sys.stderr)
        groups = Counter((family.value, n) for family, n, _ in failures)
        for (family, n), count in sorted(groups.items()):
            print(f"  {family} n={n}: {count}", file=sys.stderr)
        for _, _, msg in failures[:VERIFY_SHOWN]:
            print(f"  {msg}", file=sys.stderr)
        return EXIT_MISMATCH
    print("all checks passed: spectra, Parseval, projectivity bounds")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_generator(p: _Parser, required: bool) -> None:
    p.add_argument("--family", required=required, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, required=required)
    for flag in ("--u", "--v"):
        p.add_argument(flag, required=required, help="comma-separated Z4 digits")
    p.add_argument("--u0v0", help="two Z4 digits, e.g. 12 means u0=1, v0=2")


def _add_design_source(p: _Parser) -> None:
    p.add_argument("--design", help="path to a design document (JSON, or CSV by extension)")
    _add_generator(p, required=False)
    p.add_argument("--max-factors", type=int, default=DEFAULT_MAX_FACTORS,
                   help="cap on q for the 2^q pattern table (memory guard)")


@cache  # parsing never changes the parser or a default in place
def build_parser() -> _Parser:
    parser = _Parser(
        prog="qcdesign",
        description="Two-level designs from quaternary codes: construction, "
        "exact aliasing spectra, and optimal-design search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a design and write it out")
    _add_generator(p, required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"),
                   help="default: csv for an --out ending in .csv, else json")
    p.add_argument("--with-metrics", action="store_true",
                   help="embed closed-form metrics in the JSON document")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("metrics", help="resolution, WLP, spectrum, projectivity")
    _add_design_source(p)
    p.add_argument("--method", choices=("theory", "oracle", "both"), default="both")
    p.add_argument("--skip-projectivity", action="store_true")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("spectrum", help="word spectrum only")
    _add_design_source(p)
    p.add_argument("--method", choices=("theory", "oracle"), default="oracle")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("search", help="optimize over all profiles for one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--criterion", default="aberration",
                   choices=[c.value for c in Criterion])
    p.add_argument("--skip-projectivity", action="store_true",
                   help="skip the oracle projectivity refinement of ties")
    p.add_argument("--report", choices=("md", "json", "csv"), default="md")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("tables", help="reproduce a reference table and verify it")
    p.add_argument("--which", type=int, required=True, choices=(3, 4, 5, 6))
    p.add_argument("--report", choices=("md", "json", "csv"), default="md")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="theory vs oracle verification harness")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--families", nargs="*", default=[f.value for f in Family],
                   choices=[f.value for f in Family])
    p.add_argument("--sample", type=int, default=0,
                   help="extra random cases at n-max+1 and n-max+2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="projectivity bounds for a design size")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
