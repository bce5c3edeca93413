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
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .oracle import (
    DEFAULT_MAX_FACTORS,
    j_characteristics,
    projection_level_full,
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
    spec_for,
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
    NoClosedFormBound,
    family_spectra,
    family_spectrum,
    normalize_u0v0,
    projectivity_bound,
)

SCHEMA = "qcdesign/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class UsageError(Exception):
    pass


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


def _u0v0_str(spec: GeneratorSpec) -> str | None:
    if spec.u0 is None:
        return None
    return f"{spec.u0}{spec.v0}"


def document_to_json(doc: DesignDocument) -> str:
    spec = doc.spec
    payload = {
        "schema": SCHEMA,
        "family": spec.family.value if spec else None,
        "n": spec.n if spec else None,
        "u": list(spec.u) if spec else None,
        "v": list(spec.v) if spec else None,
        "u0v0": _u0v0_str(spec) if spec else None,
        "n_runs": doc.design.n_runs,
        "n_factors": doc.design.n_factors,
        "columns": list(doc.design.columns),
        "rows": doc.design.rows.tolist(),
        "metrics": doc.metrics,
    }
    return json.dumps(payload, indent=2) + "\n"


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


def document_from_json(text: str) -> DesignDocument:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise UsageError("a design document must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise UsageError(f"unsupported schema {payload.get('schema')!r}")
    design = DesignMatrix(tuple(payload["columns"]), payload["rows"])
    if design.n_runs != payload["n_runs"] or design.n_factors != payload["n_factors"]:
        raise UsageError("document run/factor counts disagree with the rows")
    spec = None
    if payload.get("family"):
        u0v0 = payload.get("u0v0")
        pair = normalize_u0v0(u0v0) if u0v0 else None
        spec = GeneratorSpec(
            Family.from_label(payload["family"]),
            int(payload["n"]),
            tuple(payload["u"]),
            tuple(payload["v"]),
            pair[0] if pair else None,
            pair[1] if pair else None,
        )
    metrics = payload.get("metrics")
    if metrics is not None:
        metrics = _validate_metrics_payload(metrics)
    return DesignDocument(spec, design, metrics)


def design_to_csv(design: DesignMatrix) -> str:
    lines = [",".join(design.columns)]
    for row in design.rows:
        lines.append(",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def design_from_csv(text: str) -> DesignMatrix:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise UsageError("a CSV design needs a header line and at least one run")
    columns = tuple(label.strip() for label in lines[0].split(","))
    rows = []
    for run, line in enumerate(lines[1:], start=1):
        entries = []
        for tok in line.split(","):
            tok = tok.strip()
            if tok in ("1", "+1"):
                entries.append(1)
            elif tok == "-1":
                entries.append(-1)
            else:
                raise UsageError(f"CSV entries must be +1 or -1, got {tok!r}")
        if len(entries) != len(columns):
            raise UsageError(
                f"CSV run {run} has {len(entries)} entries for {len(columns)} columns"
            )
        rows.append(entries)
    return DesignMatrix(columns, rows)


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
    except (ValueError, TypeError) as exc:
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
    res = payload["resolution"]
    dec = payload["resolution_decimal"]
    dec_text = "" if dec is None else f" ({dec})"
    print(f"[{tag}] resolution: {res}{dec_text}")
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
    pair = normalize_u0v0(args.u0v0) if args.u0v0 else None
    if family.branched and pair is None:
        raise UsageError(f"--u0v0 is required for {family.value}")
    if not family.branched and pair is not None:
        raise UsageError(f"--u0v0 is not accepted for {family.value}")
    try:
        return GeneratorSpec(
            family, args.n, u, v,
            pair[0] if pair else None, pair[1] if pair else None,
        )
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
    metrics = None
    if args.with_metrics:
        profile = profile_of(spec.u, spec.v)
        spectrum = family_spectrum(spec.family, profile, spec.u0v0)
        metrics = _metrics_payload(spectrum, design.n_factors)
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
        raise UsageError(
            "theory metrics need generator data; this design has none"
        )
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
        agree = all(
            payloads["theory"][k] == payloads["oracle"][k] for k in keys
        )
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
        "u0v0": None if result.u0v0 is None else f"{result.u0v0[0]}{result.u0v0[1]}",
        "resolution": "unbounded" if unbounded else str(result.resolution),
        "resolution_decimal": None if unbounded else float(result.resolution),
        "wlp": [str(a) for a in result.wlp],
        "wlp_from_4": [str(a) for a in result.wlp_from_4],
        "projectivity": result.projectivity,
        "criteria_coincide": result.criteria_coincide,
        "ties": [
            {
                "profile": prof.digits,
                "u0v0": None if pair is None else f"{pair[0]}{pair[1]}",
            }
            for prof, pair in result.ties
        ],
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
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(str(row.get(c, "")) for c in columns))
        return "\n".join(lines)
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "| " + " | ".join(c.ljust(widths[c]) for c in columns) + " |"
    rule = "|-" + "-|-".join("-" * widths[c] for c in columns) + "-|"
    lines = [header, rule]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) + " |"
        )
    return "\n".join(lines)


def cmd_search(args: argparse.Namespace) -> int:
    family = Family.from_label(args.family)
    criterion = Criterion.from_label(args.criterion)
    try:
        result = optimize(
            args.n,
            family,
            criterion,
            max_n=args.max_n,
            all_pairs=args.all_pairs,
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
        "u0v0": "-" if res.u0v0 is None else f"{res.u0v0[0]}{res.u0v0[1]}",
        "listed_profile": row.expected.profile,
        "listed_u0v0": "-" if row.expected.u0v0 is None
        else f"{row.expected.u0v0[0]}{row.expected.u0v0[1]}",
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


def _verify_one(
    family: Family,
    profile: GeneratorProfile,
    u0v0: tuple[int, int] | None,
    theory_spec: WordSpectrum,
) -> str | None:
    spec = spec_for(family, profile, u0v0)
    design = build_design(spec)
    tag = f"{family.value} profile={profile.digits} u0v0={u0v0}"
    table = j_characteristics(design)
    oracle_spec = spectrum_bruteforce(design, table=table)
    if theory_spec != oracle_spec:
        return f"{tag}: theory and oracle spectra differ"
    resolution, wlp = spectrum_metrics(oracle_spec, design.n_factors)
    if 1 + sum(wlp) != Fraction(2**design.n_factors, design.n_runs):
        return f"{tag}: Parseval identity fails"
    floor_p = math.ceil(resolution) - 1
    if floor_p >= 1 and not projection_level_full(design, floor_p, table=table):
        return f"{tag}: projectivity below ceil(R) - 1"
    if family.sixteenth:
        bound = projectivity_bound(profile.n, family)
        if bound + 1 <= design.n_factors and projection_level_full(
            design, bound + 1, table=table
        ):
            return f"{tag}: projectivity exceeds the closed-form bound"
    return None


def _verify_blocks(
    families: list[Family], n_max: int, sample: int, seed: int
) -> list[tuple[Family, list[list[int]], tuple]]:
    """(family, profile counts, u0v0 values) blocks; each block's designs
    are all its profiles times all its u0v0 values."""
    blocks = []
    for family in families:
        pairs = u0v0_classes(family) if family.branched else (None,)
        for n in range(1, n_max + 1):
            blocks.append((family, profile_array(n).tolist(), pairs))
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
        blocks.append((family, [counts], (pair,)))
    return blocks


def cmd_verify(args: argparse.Namespace) -> int:
    families = [Family.from_label(f) for f in args.families]
    failures = []
    verified = 0
    for family, profiles, pairs in _verify_blocks(
        families, args.n_max, args.sample, args.seed
    ):
        spectra = family_spectra(family, profiles, pairs)
        for counts in profiles:
            profile = GeneratorProfile(tuple(counts))
            for pair in pairs:
                verified += 1
                msg = _verify_one(family, profile, pair, next(spectra))
                if msg is not None:
                    failures.append((family, profile.n, msg))
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
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
