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
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .oracle import (
    DEFAULT_MAX_FACTORS,
    JTable,
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
    build_design,
    profile_of,
)
from .search import (
    DEFAULT_MAX_N,
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
    NoClosedFormBound,
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
    """A design matrix plus the generator data that produced it."""

    spec: GeneratorSpec | None
    design: DesignMatrix
    metrics: dict | None = None


def _pair_text(pair: tuple[int, int] | None, missing: str | None = None) -> str | None:
    return missing if pair is None else f"{pair[0]}{pair[1]}"


def _encode_runs(rows: np.ndarray, head: bytes, tail: bytes) -> str:
    """Each run as ``head``, its entries as ``1``/``-1`` joined by commas,
    then ``tail``.  Each entry is a three-byte cell (0 or ``-``, ``1``,
    ``,``) of one uint8 buffer; a run's last comma and the zeros are cut."""
    n, q = rows.shape
    cells = np.empty((n, q, 3), np.uint8)
    cells[:, :, 0] = (rows < 0).view(np.uint8) * ord("-")
    cells[:, :, 1] = ord("1")
    cells[:, :, 2] = ord(",")
    edge = [np.broadcast_to(np.frombuffer(b, np.uint8), (n, len(b))) for b in (head, tail)]
    lines = np.concatenate([edge[0], cells.reshape(n, 3 * q)[:, :-1], edge[1]], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def document_to_json(doc: DesignDocument) -> str:
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
    text = json.dumps(payload, indent=2)
    if doc.design.n_runs:  # one run per line; quotes in earlier values are escaped
        runs = _encode_runs(doc.design.rows, b"    [", b"],\n")
        text = text.replace('"rows": []', f'"rows": [\n{runs[:-2]}\n  ]', 1)
    return text + "\n"


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


def _json_runs(rows, q: int) -> np.ndarray:
    """JSON ``rows``: a list per run of q entries, each the integer 1 or -1."""
    if type(rows) is not list or set(map(type, rows)) - {list}:
        raise UsageError("JSON rows must be a list of runs, each a list of entries")
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    if np.any(widths != q):
        run = np.argmax(widths != q)
        raise UsageError(f"JSON run {run + 1} has {widths[run]} entries for {q} columns")
    try:  # type() tells true from 1; np.array alone would also take 1.5 and "1"
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            values = np.array(rows, dtype=np.int8)
            if np.all(np.abs(values) == 1):
                return values
    except OverflowError:  # an integer beyond int8
        pass
    bad = next(x for x in chain.from_iterable(rows) if type(x) is not int or abs(x) != 1)
    raise UsageError(f"JSON entries must be the integers 1 and -1, got {json.dumps(bad)}")


def document_from_json(text: str) -> DesignDocument:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise UsageError("a design document must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise UsageError(f"unsupported schema {payload.get('schema')!r}")
    columns = tuple(payload["columns"])
    design = DesignMatrix(columns, _json_runs(payload["rows"], len(columns)))
    if design.n_runs != payload["n_runs"] or design.n_factors != payload["n_factors"]:
        raise UsageError("document run/factor counts disagree with the rows")
    spec = None
    if payload.get("family"):
        if set(map(type, [payload["n"], *payload["u"], *payload["v"]])) - {int}:
            raise UsageError("the generator fields n, u and v must be JSON integers")
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


def design_to_csv(design: DesignMatrix) -> str:
    return ",".join(design.columns) + "\n" + _encode_runs(design.rows, b"", b"\n")


# Byte classes of a CSV body, as a bytes.translate table: _SPACE is the
# whitespace str.strip() removes in a line, _BREAK a str.splitlines() break.
_SPACE, _BREAK, _COMMA, _ONE, _OTHER, _PLUS, _MINUS = range(7)
_CLASS = np.full(256, _OTHER, np.uint8)
_CLASS[list(b"\t \x1f")] = _SPACE
_CLASS[list(b"\n\r\v\f\x1c\x1d\x1e")] = _BREAK
_CLASS[list(b",1+-")] = _COMMA, _ONE, _PLUS, _MINUS
# _FAULT[a << 3 | b] is 0 where class b may follow class a once whitespace is
# removed: a run is `[sign]1` fields joined by commas, a blank line has none.
_FAULT = np.ones(256, np.uint8)
_FAULT[[a << 3 | b for a, follow in {
    _BREAK: (_BREAK, _ONE, _PLUS, _MINUS), _COMMA: (_ONE, _PLUS, _MINUS),
    _ONE: (_COMMA, _BREAK), _PLUS: (_ONE,), _MINUS: (_ONE,),
}.items() for b in follow]] = 0
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# Non-ASCII whitespace as " ", and its line breaks as "\n" (str.translate table).
_WIDE_SPACE = str.maketrans("\x85\u2028\u2029", "\n\n\n") | dict.fromkeys(
    (0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000), " ")


def design_from_csv(text: str) -> DesignMatrix:
    """A header of column labels, then one run per non-blank line; each
    entry is ``1``, ``+1`` or ``-1`` after stripping whitespace."""
    first = re.search(r"\S", text)
    header = first and _LINE_BREAK.search(text, first.start())
    body = text[header.start() :] if header else ""  # starts with a line break
    ascii_body = body if body.isascii() else body.translate(_WIDE_SPACE)
    cls = np.frombuffer((ascii_body + "\n").encode().translate(_CLASS), np.uint8)
    keep = cls != _SPACE
    keep[1:] |= cls[:-1] >= _PLUS  # keep the space of "- 1", which no sign may precede
    s = cls[keep]
    starts = np.flatnonzero((s[:-1] == _BREAK) & (s[1:] != _BREAK)) + 1
    if not starts.size:
        raise UsageError("a CSV design needs a header line and at least one run")
    columns = tuple(map(str.strip, text[first.start() : header.start()].split(",")))
    ones = np.flatnonzero(s == _ONE)
    counts = np.diff(np.searchsorted(ones, starts), append=ones.size)
    ragged = np.flatnonzero(counts != len(columns))
    fault = (s[:-1] << 3 | s[1:]).tobytes().translate(_FAULT).find(1)
    if fault >= 0:  # the pair lies on the line of its first non-break byte
        run = np.searchsorted(starts, fault + (s[fault] == _BREAK), "right") - 1
        if not ragged.size or run <= ragged[0]:
            line = [line for line in body.splitlines() if line.strip()][run]
            tok = next(t for t in map(str.strip, line.split(",")) if t not in ("1", "+1", "-1"))
            raise UsageError(f"CSV entries must be +1 or -1, got {tok!r}")
    if ragged.size:
        run = ragged[0]
        raise UsageError(
            f"CSV run {run + 1} has {counts[run]} entries for {len(columns)} columns"
        )
    negative = (s[ones - 1] == _MINUS).view(np.int8)
    return DesignMatrix(columns, (1 - 2 * negative).reshape(-1, len(columns)))


def load_design(path: str, fmt: str | None = None) -> DesignDocument:
    """Read a JSON or CSV design document; malformed input is a UsageError."""
    kind = fmt or ("csv" if path.lower().endswith(".csv") else "json")
    try:
        text = Path(path).read_text()
        if kind == "csv":
            return DesignDocument(None, design_from_csv(text))
        return document_from_json(text)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Metric payload rendering
# ---------------------------------------------------------------------------


def _spectrum_payload(spectrum: WordSpectrum) -> list[dict]:
    return [
        {
            "length": e.length,
            "ai": str(e.ai),
            "ai_decimal": float(e.ai),
            "count": e.count,
        }
        for e in spectrum
    ]


def _metrics_payload(
    spectrum: WordSpectrum, q: int, proj: int | None = None
) -> dict:
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
        if family.branched and pair[0] is None:
            raise UsageError(f"--u0v0 is required for {family.value}")
        if not family.branched and pair[0] is not None:
            raise UsageError(f"--u0v0 is not accepted for {family.value}")
        return GeneratorSpec(family, args.n, u, v, *pair)
    except ValueError as exc:
        raise UsageError(str(exc))


def _resolve_design(args: argparse.Namespace) -> DesignDocument:
    if args.design:
        return load_design(args.design, args.design_format)
    if not (args.family and args.u and args.v and args.n):
        raise UsageError("provide --design PATH or --family/--n/--u/--v flags")
    spec = _spec_from_flags(args)
    return DesignDocument(spec, build_design(spec))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    spec = _spec_from_flags(args)
    design = build_design(spec)
    doc = DesignDocument(spec, design)
    if args.with_metrics:
        metrics = _metrics_payload(_theory_spectrum_for(doc), design.n_factors)
        doc = DesignDocument(spec, design, metrics)
    text = design_to_csv(design) if args.format == "csv" else document_to_json(doc)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
        print(f"wrote {design.n_runs} x {design.n_factors} design to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _theory_spectrum_for(doc: DesignDocument) -> WordSpectrum:
    if doc.spec is None:
        raise UsageError("theory metrics need generator data; this design has none")
    profile = profile_of(doc.spec.u, doc.spec.v)
    return family_spectrum(doc.spec.family, profile, doc.spec.u0v0)


def cmd_metrics(args: argparse.Namespace) -> int:
    doc = _resolve_design(args)
    q = doc.design.n_factors
    method = args.method
    payloads: dict[str, dict] = {}
    if method in ("theory", "both"):
        payloads["theory"] = _metrics_payload(_theory_spectrum_for(doc), q)
    if method in ("oracle", "both"):
        table = j_characteristics(doc.design, args.max_factors)
        proj = None
        if not args.skip_projectivity:
            proj = oracle_projectivity(doc.design, args.max_factors, table)
        payloads["oracle"] = _metrics_payload(
            spectrum_bruteforce(doc.design, args.max_factors, table=table), q, proj
        )
    agree = True
    if method == "both":
        keys = ("resolution", "wlp", "spectrum")
        agree = all(payloads["theory"][k] == payloads["oracle"][k] for k in keys)
    if args.report == "json":
        out = {"method": method, "n_runs": doc.design.n_runs, "n_factors": q}
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
    doc = _resolve_design(args)
    if args.method == "theory":
        spectrum = _theory_spectrum_for(doc)
    else:
        spectrum = spectrum_bruteforce(doc.design, args.max_factors)
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
    unbounded = result.resolution is UNBOUNDED
    return {
        "family": result.family.value,
        "n": result.n,
        "criterion": result.criterion.value,
        "profile": result.profile.digits,
        "u0v0": _pair_text(result.u0v0),
        "resolution": "unbounded" if unbounded else str(result.resolution),
        "resolution_decimal": None if unbounded else float(result.resolution),
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
    criterion = Criterion.from_label(args.criterion)
    try:
        result = optimize(
            args.n, family, criterion, max_n=args.max_n, all_pairs=args.all_pairs,
            with_projectivity=not args.skip_projectivity,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = _result_payload(result)
    if args.report == "json":
        print(json.dumps(payload, indent=2))
    else:
        row = {
            "design": f"2^{{{family.factor_count(args.n)}-{4 if family.sixteenth else 3}}}",
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
    if args.report == "json":
        print(json.dumps(payloads, indent=2))
    else:
        columns = list(payloads[0].keys())
        columns.remove("checks")
        print(_render_rows(payloads, args.report, columns))
    failed = [r for r in rows if not r.passed]
    if failed:
        for row in failed:
            bad = [k for k, ok in row.flags.items() if not ok]
            print(f"FAIL {row.label}: {', '.join(bad)}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError("--n must be positive")
    family = Family.from_label(args.family)
    q = family.factor_count(args.n)
    fraction = "sixteenth" if family.sixteenth else "eighth"
    ceiling = orthogonal_array_ceiling(q, fraction)
    print(f"design: {family.value}, n = {args.n}, q = {q}")
    try:
        print(f"closed-form projectivity bound: {projectivity_bound(args.n, family)}")
    except NoClosedFormBound:
        print("closed-form projectivity bound: none for eighth fractions")
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
        pairs = u0v0_classes(family) if family.branched else (None,)
        for n in range(1, n_max + 1):
            blocks.append((family, profile_array(n), pairs))
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
) -> list[str | None]:
    """The first failing check of each design in a chunk, or None."""
    n_runs, q, designs = table.n_runs, len(table.columns), p.size
    design, lengths, jabs = table.words()
    t_lengths, t_exps, t_counts = forms.words(p, c)
    t_design = np.broadcast_to(np.arange(designs)[:, None], t_lengths.shape)
    words = t_counts != 0
    # Theory words of index 2^-e count +1 each at |J| = N >> e, oracle words
    # -1 each at their |J|.  N is a power of two, so the spectra agree, with
    # |J| * 2^e == N, iff every (design, length, |J|) nets to zero.  Theory
    # lengths are clipped to 0..q+1 and an e beyond log2 N gives |J| = 0;
    # no oracle word lies there.
    keys = np.concatenate([
        (design * (q + 2) + lengths) * (n_runs + 1) + jabs,
        (t_design[words] * (q + 2) + np.clip(t_lengths[words], 0, q + 1))
        * (n_runs + 1)
        + (n_runs >> t_exps[words]),
    ])
    net = np.concatenate([-np.ones_like(jabs), t_counts[words]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    differ = np.zeros(designs, dtype=bool)
    bad = np.add.reduceat(net[order], starts) != 0
    differ[keys[starts][bad] // ((q + 2) * (n_runs + 1))] = True

    values = table.values
    parseval = np.einsum("dj,dj->d", values, values, dtype=np.int64) != n_runs << q

    # With r the minimum word length and top its largest |J|, R = r + 1 -
    # top / N, so ceil(R) - 1 = r - [top == N]; a design without words has
    # r = q + 1 and no projection to check.
    shortest = np.full(designs, q + 1)
    np.minimum.at(shortest, design, lengths)
    full_word = np.zeros(designs, dtype=bool)
    full_word[design[(lengths == shortest[design]) & (jabs == n_runs)]] = True
    floor_p = shortest - full_word
    below = (floor_p >= 1) & table.projections.deficient(floor_p)

    exceeds = np.zeros(designs, dtype=bool)
    if bound is not None and bound + 1 <= q:
        exceeds = ~table.projections.deficient(np.full(designs, bound + 1))

    checks = (
        (differ, "theory and oracle spectra differ"),
        (parseval, "Parseval identity fails"),
        (below, "projectivity below ceil(R) - 1"),
        (exceeds, "projectivity exceeds the closed-form bound"),
    )
    return [
        next((msg for failed, msg in checks if failed[d]), None)
        for d in range(designs)
    ]


def _verify_block(family: Family, counts: np.ndarray, pairs: tuple) -> Iterator[str]:
    """Check every design of a block against the closed forms, chunk by
    chunk, and yield a message for each failing design, profile-major."""
    forms = closed_forms(family, counts, pairs)
    n = int(counts[0].sum())
    bound = projectivity_bound(n, family) if family.sixteenth else None
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    for p, c, table in j_table_chunks(family, counts, pairs, *every):
        messages = _chunk_failures(forms, p, c, table, bound)
        for i, j, msg in zip(p.tolist(), c.tolist(), messages):
            if msg is not None:
                profile = GeneratorProfile(tuple(counts[i].tolist()))
                yield f"{family.value} profile={profile.digits} u0v0={pairs[j]}: {msg}"


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.families:
        raise UsageError("--families needs at least one family")
    if args.n_max < 1 or args.sample < 0:
        raise UsageError("--n-max must be positive and --sample nonnegative")
    families = [Family.from_label(f) for f in args.families]
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


def _add_design_source(p: _Parser) -> None:
    p.add_argument("--design", help="path to a design document (JSON or CSV)")
    p.add_argument(
        "--design-format", choices=("json", "csv"), help="override format sniffing"
    )
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--n", type=int)
    p.add_argument("--u", help="comma-separated Z4 digits")
    p.add_argument("--v", help="comma-separated Z4 digits")
    p.add_argument("--u0v0", help="two Z4 digits, e.g. 12 means u0=1, v0=2")
    p.add_argument("--max-factors", type=int, default=DEFAULT_MAX_FACTORS,
                   help="cap on q for the 2^q pattern table (memory guard)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qcdesign",
        description="Two-level designs from quaternary codes: construction, "
        "exact aliasing spectra, and optimal-design search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a design and write it out")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--u0v0")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
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
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--all-pairs", action="store_true",
                   help="slow verification mode: enumerate all 16 u0v0 pairs "
                   "and assert merged classes tie exactly")
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
