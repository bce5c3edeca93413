"""Command-line surface: serialization round trips, commands, exit codes."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from conftest import scan_level_full
from reference_oracles import csv_rows, csv_text, json_document, json_text

from qcdesign import (
    Family,
    GeneratorProfile,
    GeneratorSpec,
    build_design,
    cli,
    j_characteristics,
    oracle,
    profile_of,
    search,
    spec_for,
)
from qcdesign.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    DesignDocument,
    design_from_csv,
    design_to_csv,
    document_from_json,
    document_to_json,
    main,
)
from qcdesign.oracle import DEFAULT_MAX_FACTORS
from qcdesign.search import profile_array, u0v0_classes
from qcdesign.spectrum import parse_fraction
from qcdesign.theory import closed_forms, family_spectrum, projectivity_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_json_document_round_trip():
    spec = GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1)
    doc = DesignDocument(spec, build_design(spec))
    text = document_to_json(doc)
    loaded = document_from_json(text)
    assert loaded.spec == spec
    assert loaded.design.columns == doc.design.columns
    assert np.array_equal(loaded.design.rows, doc.design.rows)
    assert document_to_json(loaded) == text


def test_csv_round_trip():
    spec = GeneratorSpec(Family.EIGHTH_EVEN, 2, (1, 0), (2, 3))
    design = build_design(spec)
    again = design_from_csv(design_to_csv(design))
    assert again.columns == design.columns
    assert np.array_equal(again.rows, design.rows)


def test_rational_parser_rejects_floats():
    assert parse_fraction("9/2").numerator == 9
    assert parse_fraction("-3") == -3
    for bad in ("0.5", "1e3", "nan", "1/0x2", "", "1//2"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_document_rejects_float_metrics():
    spec = GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,))
    doc = DesignDocument(spec, build_design(spec), None)
    payload = json.loads(document_to_json(doc))
    payload["metrics"] = {"resolution": "4.5", "wlp": []}
    with pytest.raises(ValueError):
        document_from_json(json.dumps(payload))


def test_build_writes_document(tmp_path, capsys):
    out = tmp_path / "design.json"
    code, stdout, _ = run(
        capsys, "build", "--family", "sixteenth-even", "--n", "3",
        "--u", "2,1,1", "--v", "1,1,3", "--out", str(out), "--with-metrics",
    )
    assert code == EXIT_OK
    doc = document_from_json(out.read_text())
    assert doc.design.n_runs == 64 and doc.design.n_factors == 10
    assert doc.metrics["resolution"] == "9/2"
    rebuilt = build_design(doc.spec)
    assert np.array_equal(rebuilt.rows, doc.design.rows)


@pytest.mark.parametrize("argv", [
    ("search", "--n", "8", "--family", "sixteenth-odd", "--skip-projectivity"),
    ("search", "--n", "6", "--family", "eighth-even"),
    ("verify", "--n-max", "1"),
    ("metrics", "--design", "d.json", "--method", "oracle"),
    ("spectrum", "--design", "d.csv", "--method", "oracle"),
])
def test_commands_leave_numpy_ma_unimported(tmp_path, capsys, argv):
    # A plain np.unique imports numpy.ma, a cost every fresh process pays;
    # its return_counts and return_inverse forms do not.
    for name in ("d.json", "d.csv"):
        assert run(
            capsys, "build", "--family", "sixteenth-odd", "--n", "3", "--u", "1,2,0",
            "--v", "3,1,2", "--u0v0", "21", "--out", str(tmp_path / name),
        )[0] == EXIT_OK
    script = ("import sys; from qcdesign import cli; code = cli.main(sys.argv[1:]); "
              "sys.exit(3 if 'numpy.ma' in sys.modules else code)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr


@pytest.mark.parametrize("name", ["d.json", "d.JSON", "d.csv", "d.CSV"])
def test_build_out_takes_its_format_from_the_extension(tmp_path, capsys, name):
    flags = ("--family", "sixteenth-odd", "--n", "2", "--u", "1,2", "--v", "2,1",
             "--u0v0", "11")
    out = tmp_path / name
    code, stdout, _ = run(capsys, "build", *flags, "--out", str(out))
    assert code == EXIT_OK and stdout == f"wrote 32 x 9 design to {out}\n"
    assert out.read_text().startswith("{") == name.lower().endswith(".json")
    code, stdout, _ = run(capsys, "metrics", "--design", str(out), "--method", "oracle")
    assert code == EXIT_OK and "[oracle] resolution: 9/2" in stdout
    # An explicit --format wins over the extension, and stdout stays JSON.
    code, _, _ = run(capsys, "build", *flags, "--out", str(out), "--format", "json")
    assert code == EXIT_OK and out.read_text().startswith("{")
    code, stdout, _ = run(capsys, "build", *flags)
    assert code == EXIT_OK and stdout.startswith("{")
    if name.lower().endswith(".csv"):
        code, _, err = run(capsys, "build", *flags, "--out", str(out), "--with-metrics")
        assert code == EXIT_USAGE and err.count("\n") == 1 and "--with-metrics" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_factors_below_one_is_one_error_line(capsys, cap):
    flags = ("--family", "sixteenth-even", "--n", "2", "--u", "1,2", "--v", "2,1")
    for command in ("metrics", "spectrum"):
        code, out, err = run(capsys, command, *flags, "--max-factors", cap)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --max-factors must be positive\n"


def test_build_refuses_metrics_in_csv(capsys):
    code, stdout, err = run(
        capsys, "build", "--family", "sixteenth-even", "--n", "1",
        "--u", "0", "--v", "0", "--format", "csv", "--with-metrics",
    )
    assert code == EXIT_USAGE and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--with-metrics" in err


def test_every_entry_point_refuses_the_same_u0v0(tmp_path, capsys):
    # Non-integer, string, out-of-range, three-entry and boolean pairs, and a
    # pair on an even-run family: refused by the library, by --u0v0 and by a JSON
    # document's "u0v0" alike.  The flag is text, so it has no string entries.
    odd, even = Family.SIXTEENTH_ODD, Family.SIXTEENTH_EVEN
    profile, u, v = GeneratorProfile.from_digits("0011000000"), (1, 2), (2, 1)
    cases = [
        (odd, (1.5, 2), "1.5"), (odd, ("1", 2), None), (odd, (4, 0), "40"),
        (odd, (1, 2, 3), "123"), (even, (1, 2), "12"), (odd, (True, False), None),
    ]
    spec = GeneratorSpec(odd, 2, u, v, 1, 2)
    payload = json.loads(document_to_json(DesignDocument(spec, build_design(spec))))
    for family, pair, flag in cases:
        calls = [
            lambda: spec_for(family, profile, pair),
            lambda: family_spectrum(family, profile, pair),
            lambda: closed_forms(family, np.array([profile.counts]), (pair,)),
        ]
        if len(pair) == 2:  # GeneratorSpec takes u0 and v0 as two fields
            calls.append(lambda: GeneratorSpec(family, 2, u, v, *pair))
        for call in calls:
            with pytest.raises(ValueError, match="u0v0"):
                call()
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({**payload, "family": family.value, "u0v0": pair}))
        outcomes = [run(capsys, "metrics", "--design", str(path))]
        if flag is not None:
            outcomes.append(run(
                capsys, "build", "--family", family.value, "--n", "2",
                "--u", "1,2", "--v", "2,1", "--u0v0", flag,
            ))
        for code, stdout, err in outcomes:
            assert code == EXIT_USAGE and stdout == "", (pair, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
    # Numpy integers are integers.
    pair = (np.int64(1), np.uint8(2))
    assert GeneratorSpec(odd, 2, u, v, *pair) == spec_for(odd, profile, pair) == spec
    assert family_spectrum(odd, profile, np.array(pair)) == family_spectrum(odd, profile, "12")
    assert closed_forms(odd, np.array([profile.counts]), (pair,)).table is (
        closed_forms(odd, np.array([profile.counts]), ((1, 2),)).table
    )


def test_build_csv_constant_checks(capsys):
    code, stdout, _ = run(
        capsys, "build", "--family", "sixteenth-even", "--n", "1",
        "--u", "0", "--v", "0", "--format", "csv",
    )
    assert code == EXIT_OK
    design = design_from_csv(stdout)
    assert design.n_runs == 4 and design.n_factors == 6
    assert np.all(design.rows[:, :4] == 1)


def test_build_branched_document(tmp_path, capsys):
    out = tmp_path / "odd.json"
    code, _, _ = run(
        capsys, "build", "--family", "sixteenth-odd", "--n", "2",
        "--u", "1,2", "--v", "2,1", "--u0v0", "11", "--out", str(out),
    )
    assert code == EXIT_OK
    doc = document_from_json(out.read_text())
    assert doc.design.n_runs == 32 and doc.design.n_factors == 9


def test_build_usage_errors(capsys):
    code, _, err = run(
        capsys, "build", "--family", "sixteenth-odd", "--n", "2",
        "--u", "1,2", "--v", "2,1",
    )
    assert code == EXIT_USAGE and "u0v0" in err
    code, _, _ = run(
        capsys, "build", "--family", "sixteenth-even", "--n", "2",
        "--u", "5,1", "--v", "0,0",
    )
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "build", "--family", "nonsense", "--n", "1", "--u", "0", "--v", "0")
    assert code == EXIT_USAGE
    # A malformed --u0v0 or --n 0 is one error line for every command that builds.
    for command in ("build", "metrics", "spectrum"):
        for n, u0v0 in (("1", "7"), ("1", "1"), ("1", "45"), ("0", "11")):
            code, stdout, err = run(
                capsys, command, "--family", "sixteenth-odd", "--n", n,
                "--u", "1", "--v", "1", "--u0v0", u0v0,
            )
            assert code == EXIT_USAGE and stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert n != "0" or err == "error: n must be a positive integer\n", err


def test_metrics_both_agree(capsys):
    code, stdout, _ = run(
        capsys, "metrics", "--family", "sixteenth-even", "--n", "3",
        "--u", "2,1,1", "--v", "1,1,3", "--method", "both", "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["agree"] is True
    assert payload["theory"]["resolution"] == "9/2"
    assert payload["oracle"]["projectivity"] == 5


def test_metrics_full_factorial_csv(tmp_path, capsys):
    rows = ["A,B,C"]
    for i in range(8):
        rows.append(",".join(str(1 - 2 * ((i >> b) & 1)) for b in range(3)))
    path = tmp_path / "full.csv"
    path.write_text("\n".join(rows) + "\n")
    code, stdout, _ = run(
        capsys, "metrics", "--design", str(path), "--method", "oracle",
        "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["oracle"]["resolution"] == "unbounded"
    assert payload["oracle"]["spectrum"] == []
    assert payload["oracle"]["projectivity"] == 3
    code, stdout, _ = run(capsys, "spectrum", "--design", str(path), "--method", "oracle")
    assert (code, stdout) == (EXIT_OK, "empty spectrum\n")


#: Generator flags of a sixteenth-even design past the closed forms' n <= 126.
N200_FLAGS = ("--family", "sixteenth-even", "--n", "200", "--u", ",".join("1" * 200),
              "--v", ",".join("2" * 200), "--method", "theory")


@pytest.mark.parametrize("argv, message", [
    (("metrics", "--family", "sixteenth-even", "--n", "2", "--u", "1,x", "--v", "2,1"),
     "error: --u and --v must be comma-separated Z4 digits\n"),
    (("metrics", "--method", "oracle"),
     "error: provide --design PATH or --family/--n/--u/--v flags\n"),
    (("metrics", *N200_FLAGS), "error: closed forms are evaluated for n <= 126\n"),
    (("spectrum", *N200_FLAGS), "error: closed forms are evaluated for n <= 126\n"),
], ids=["u-not-digits", "no-design", "metrics-theory-n200", "spectrum-theory-n200"])
def test_design_flag_errors_end_in_one_error_line(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (EXIT_USAGE, "", message)


def test_build_into_a_missing_directory_ends_in_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "design.json"
    code, stdout, err = run(
        capsys, "build", "--family", "sixteenth-even", "--n", "1",
        "--u", "0", "--v", "0", "--out", str(out),
    )
    assert code == EXIT_USAGE and stdout == "" and not out.parent.exists()
    assert err == f"error: cannot write {out}: No such file or directory\n"


def test_metrics_theory_on_csv_is_usage_error(tmp_path, capsys):
    path = tmp_path / "full.csv"
    path.write_text("A,B\n1,1\n1,-1\n-1,1\n-1,-1\n")
    code, _, err = run(capsys, "metrics", "--design", str(path), "--method", "theory")
    assert code == EXIT_USAGE and "generator" in err


def test_metrics_detects_corrupted_document(tmp_path, capsys):
    spec = GeneratorSpec(Family.SIXTEENTH_EVEN, 2, (1, 2), (2, 1))
    design = build_design(spec)
    payload = json.loads(document_to_json(DesignDocument(spec, design)))
    payload["rows"][0] = [-x for x in payload["rows"][0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, _ = run(
        capsys, "metrics", "--design", str(path), "--method", "both",
        "--skip-projectivity",
    )
    assert code == EXIT_MISMATCH


def test_metrics_profile_realization(capsys):
    code, stdout, _ = run(
        capsys, "metrics", "--family", "sixteenth-even", "--n", "5",
        "--u", "1,1,2,1,1", "--v", "0,2,1,1,3", "--method", "theory",
        "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["theory"]["resolution"] == "13/2"
    wlp = payload["theory"]["wlp"]
    assert wlp[3:] == ["0", "0", "2", "8", "3", "0", "2", "0", "0", "0", "0"]


def test_spectrum_command(capsys):
    code, stdout, _ = run(
        capsys, "spectrum", "--family", "sixteenth-odd", "--n", "2",
        "--u", "1,2", "--v", "2,1", "--u0v0", "11", "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload[0] == {"length": 4, "ai": "1/2", "ai_decimal": 0.5, "count": 24}


def test_search_command(capsys):
    code, stdout, _ = run(
        capsys, "search", "--n", "2", "--family", "sixteenth-even",
        "--criterion", "aberration", "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["profile"] == "0011000000"
    assert payload["resolution"] == "4"
    assert payload["projectivity"] == 3
    assert payload["regular_reference"]["wlp_comparison"] == "same"


def test_search_eighth_odd_large_fast_mode(capsys):
    code, stdout, _ = run(
        capsys, "search", "--n", "6", "--family", "eighth-odd",
        "--criterion", "aberration", "--skip-projectivity", "--report", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["profile"] == "0020220000"
    assert payload["u0v0"] == "20"
    assert payload["resolution"] == "71/8"
    assert payload["resolution_decimal"] == 8.875


def test_search_rejects_bad_n(capsys):
    code, _, _ = run(
        capsys, "search", "--n", "99", "--family", "sixteenth-even",
        "--criterion", "aberration",
    )
    assert code == EXIT_USAGE


def test_search_refuses_oversized_projectivity_refinement(capsys):
    # Eighth-even n = 10 (q = 23) leaves 2 ties that only a J-table settles.
    code, _, err = run(capsys, "search", "--n", "10", "--family", "eighth-even")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "--skip-projectivity" in err


def test_search_answers_settled_sizes_past_the_cap(capsys):
    code, out, _ = run(capsys, "search", "--n", "9", "--family", "eighth-even",
                       "--report", "json")
    assert code == EXIT_OK and json.loads(out)["projectivity"] == 11


@pytest.mark.parametrize(
    "name, text",
    [
        ("malformed.json", '{"schema": "qcdesign/1", "columns": ['),
        ("no_rows.json", '{"schema": "qcdesign/1", "n_runs": 2, "n_factors": 1}'),
        (
            "ragged.json",
            '{"schema": "qcdesign/1", "columns": ["A", "B"], "rows": [[1, -1], [1]],'
            ' "n_runs": 2, "n_factors": 2}',
        ),
        ("ragged.csv", "A,B\n1,-1\n1\n"),
        ("header_only.csv", "A,B\n"),
        ("missing.json", None),
        # json.loads recurses into these until it raises RecursionError.
        pytest.param("deep_rows.json", '{"schema": "qcdesign/1", "columns": ["A"], "rows": '
                     + "[" * 100_000 + "]" * 100_000 + ', "n_runs": 1, "n_factors": 1}',
                     id="deep_rows.json"),
        pytest.param("deep_metrics.json", '{"schema": "qcdesign/1", "columns": ["A"], '
                     '"rows": [[1]], "n_runs": 1, "n_factors": 1, "metrics": ' + "[" * 100_000,
                     id="deep_metrics.json"),
        # The reference reader took these counts, and this matrix of no columns.
        ("bool_count.json", '{"schema": "qcdesign/1", "columns": ["A"], "rows": [[1]], '
         '"n_runs": true, "n_factors": 1}'),
        ("float_count.json", '{"schema": "qcdesign/1", "columns": ["A", "B"], '
         '"rows": [[1, -1], [1, 1], [1, -1], [-1, 1]], "n_runs": 4.0, "n_factors": 2}'),
        ("no_columns.json", '{"schema": "qcdesign/1", "columns": [], "rows": [[], []], '
         '"n_runs": 2, "n_factors": 0}'),
        ("no_runs.json", '{"schema": "qcdesign/1", "columns": ["A"], "rows": [], '
         '"n_runs": 0, "n_factors": 1}'),
    ],
)
def test_bad_design_documents_end_in_one_error_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    for command in ("metrics", "spectrum"):
        code, out, err = run(capsys, command, "--design", str(path), "--method", "oracle")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_max_factors_defaults_to_the_oracle_cap():
    args = cli.build_parser().parse_args(["metrics"])
    assert args.max_factors == DEFAULT_MAX_FACTORS


def test_the_parser_is_built_once_and_every_call_reads_the_same(capsys):
    assert cli.build_parser() is cli.build_parser()
    for argv in (
        ("verify", "--n-max", "1"),
        ("verify", "--n-max", "1", "--families", "eighth-odd", "eighth-odd"),
        ("search", "--n", "2", "--family", "eighth-odd", "--report", "json"),
        ("search", "--n", "0", "--family", "eighth-odd"),
    ):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
    # --families shares its default list between calls; no command changes it.
    assert cli.build_parser().parse_args(["verify"]).families == [f.value for f in Family]


def test_max_factors_sets_the_oracle_cap(capsys):
    flags = ("--family", "sixteenth-even", "--n", "2", "--u", "1,2", "--v", "2,1",
             "--method", "oracle")  # q = 8
    for command in ("metrics", "spectrum"):
        code, _, _ = run(capsys, command, *flags, "--max-factors", "8")
        assert code == EXIT_OK
        with pytest.raises(ValueError, match="above the cap of 7"):
            main([command, *flags, "--max-factors", "7"])


def test_oracle_commands_refuse_over_cap_flags_unbuilt(monkeypatch):
    # Every n = 10 design has q >= 23 and 2^20 runs or more, and sixteenth-even
    # n = 2 has q = 8, above --max-factors 7: the cap refuses them unbuilt.
    def build_design(spec):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "build_design", build_design)
    n2 = ("--family", "sixteenth-even", "--n", "2", "--u", "1,2", "--v", "2,1",
          "--max-factors", "7")
    for flags, cap in (*((flags, 20) for flags in N10_FLAGS.values()), (n2, 7)):
        for command, method in (("metrics", "oracle"), ("metrics", "both"),
                                ("spectrum", "oracle")):
            with pytest.raises(ValueError, match=f"above the cap of {cap}"):
                main([command, *flags, "--method", method])


def test_build_refuses_n_above_the_search_limit_unbuilt(capsys, monkeypatch):
    # n = 11 has 4^11 runs or more and n = 40 more than numpy can allocate:
    # both are one error line, refused before the matrix is built.
    def build_design(spec):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "build_design", build_design)
    for n in (11, 40):
        digits = ",".join("1" * n)
        for fmt in ("json", "csv"):
            code, stdout, err = run(capsys, "build", "--family", "sixteenth-even", "--n",
                                    str(n), "--u", digits, "--v", digits, "--format", fmt)
            assert code == EXIT_USAGE and stdout == ""
            assert err == f"error: build takes n <= 10, got n = {n}\n"


def test_metrics_refuses_design_format(capsys):
    code, stdout, err = run(capsys, "metrics", "--family", "sixteenth-even", "--n", "1",
                            "--u", "1", "--v", "2", "--design-format", "csv")
    assert code == EXIT_USAGE and stdout == ""
    assert err.endswith("error: unrecognized arguments: --design-format csv\n")


def test_tables_commands_pass(capsys):
    for which in ("3", "4", "5", "6"):
        code, stdout, _ = run(capsys, "tables", "--which", which, "--report", "json")
        assert code == EXIT_OK, which
        payload = json.loads(stdout)
        assert len(payload) == 7
        assert all(row["status"] == "PASS" for row in payload)


def test_tables_report_a_failing_row(capsys, monkeypatch):
    # One expected row changed: the table still prints with that row FAIL,
    # and stderr names the row and its failing check.
    first, *rest = search.SIXTEENTH_ROWS
    monkeypatch.setattr(search, "SIXTEENTH_ROWS",
                        (dataclasses.replace(first, qc_projectivity=4), *rest))
    code, stdout, err = run(capsys, "tables", "--which", "5")
    assert code == EXIT_MISMATCH
    assert err == "FAIL 2^{8-4}: projectivity\n"
    assert stdout.count("FAIL") == 1 and stdout.count("PASS") == 6


def test_tables_six_projectivities(capsys):
    code, stdout, _ = run(capsys, "tables", "--which", "6", "--report", "json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert [row["projectivity"] for row in payload] == [3, 4, 5, 6, 7, 7, 7]
    assert [row["regular_projectivity"] for row in payload] == [3, 3, 3, 4, 5, 5, 6]


def test_verify_command_small(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--n-max", "1", "--families", "sixteenth-even",
        "--sample", "2", "--seed", "1",
    )
    assert code == EXIT_OK
    assert "all checks passed" in stdout


def test_verify_single_family_count(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--n-max", "2", "--families", "eighth-even",
    )
    assert code == EXIT_OK
    assert "verified 65 designs" in stdout


def test_verify_checks_a_repeated_family_once(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--n-max", "1", "--families", "eighth-odd", "eighth-odd",
    )
    assert code == EXIT_OK
    assert "verified 140 designs (families: eighth-odd, n <= 1" in stdout


def test_bound_command(capsys):
    code, stdout, _ = run(capsys, "bound", "--family", "sixteenth-even", "--n", "3")
    assert code == EXIT_OK
    assert "bound: 5" in stdout and "ceiling" in stdout
    code, stdout, _ = run(capsys, "bound", "--family", "eighth-even", "--n", "3")
    assert code == EXIT_OK
    assert "none" in stdout
    # The ceiling 2n + b - 1 is log2 N - 1, read without building N = 2^(2n+b).
    for family in Family:
        code, stdout, err = run(capsys, "bound", "--family", family.value, "--n", str(10**12))
        assert code == EXIT_OK and err == ""
        assert stdout.endswith(f"size): {2 * 10**12 + family.branched - 1}\n")
    # An n below 1 has one wording on every command that takes --n.
    for command in ("bound", "search"):
        for n in ("0", "-2"):
            code, stdout, err = run(capsys, command, "--family", "sixteenth-odd", "--n", n)
            assert code == EXIT_USAGE and stdout == ""
            assert err == "error: n must be a positive integer\n"
    code, stdout, err = run(capsys, "search", "--family", "sixteenth-odd", "--n", "11")
    assert code == EXIT_USAGE and stdout == ""
    assert err == "error: n must lie in 1..10\n"


@pytest.mark.parametrize("argv, message", [
    (("--max-n", "11"), "error: unrecognized arguments: --max-n 11\n"),
    (("--all-pairs",), "error: unrecognized arguments: --all-pairs\n"),
], ids=["max-n", "all-pairs"])
def test_search_usage_errors(capsys, argv, message):
    code, stdout, err = run(capsys, "search", "--family", "sixteenth-odd", "--n", "1", *argv)
    assert code == EXIT_USAGE and stdout == ""
    assert err.endswith(message)


@pytest.mark.parametrize("argv", [
    ("--families",),
    ("--families", "--sample", "1"),
    ("--n-max", "0"),
    ("--n-max", "-1", "--sample", "1", "--seed", "1"),
    ("--n-max", "-1", "--sample", "1", "--seed", "2"),
    ("--sample", "-1"),
    # Above the oracle's cap of 20 factors: sixteenth-odd n = 8 has q = 21,
    # and --sample draws up to n-max + 2.
    ("--n-max", "8"),
    ("--n-max", "6", "--sample", "3"),
    ("--n-max", "9", "--families", "eighth-even"),
])
def test_verify_usage_errors(capsys, argv):
    code, stdout, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class _ClosedPipe:
    """A stdout whose reader has gone, as with ``qcdesign ... | head -0``."""

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass


def test_main_exits_ok_when_stdout_is_closed(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["bound", "--n", "2", "--family", "sixteenth-odd"]) == EXIT_OK


def test_verify_refuses_sizes_above_the_oracle_cap(capsys):
    # Refused before any block runs, not after the smaller ones.
    code, _, err = run(capsys, "verify", "--n-max", "6", "--sample", "1")
    assert code == EXIT_USAGE
    assert err == (
        "error: sixteenth-odd designs at n = 8 have 21 factors, above the cap of 20; "
        "the oracle needs q <= 20\n"
    )


def test_verify_reports_every_failure(capsys, monkeypatch):
    # Faults are planted upstream of the checks, one per failure message.
    real_forms, real_tables = cli.closed_forms, oracle.code_tables
    real_bound = cli.projectivity_bound

    def odd_profiles_lengthened(family, counts, pairs):
        forms = real_forms(family, counts, pairs)
        shift = (np.argmax(counts, axis=1) % 2)[:, None]
        return dataclasses.replace(forms, lengths=forms.lengths + shift)

    def empty_set_miscounted(*code):
        values = real_tables(*code)
        values[:, 0] += 1
        return values

    monkeypatch.setattr(cli, "closed_forms", odd_profiles_lengthened)
    code, stdout, stderr = run(
        capsys, "verify", "--n-max", "2", "--families", "sixteenth-even",
        "eighth-even",
    )
    monkeypatch.undo()
    assert code == EXIT_MISMATCH
    assert "verified 130 designs" in stdout
    assert "all checks passed" not in stdout
    lines = stderr.splitlines()
    # Each family has 5 lengthened profiles at n = 1 and 25 at n = 2.
    assert lines[:5] == [
        "FAILURES: 60",
        "  eighth-even n=1: 5",
        "  eighth-even n=2: 25",
        "  sixteenth-even n=1: 5",
        "  sixteenth-even n=2: 25",
    ]
    shown = lines[5:]
    assert len(shown) == cli.VERIFY_SHOWN
    assert all(line.endswith(": theory and oracle spectra differ") for line in shown)
    assert shown[0] == (
        "  sixteenth-even profile=0000000001 u0v0=None: "
        "theory and oracle spectra differ"
    )

    monkeypatch.setattr(oracle, "code_tables", empty_set_miscounted)
    code, _, stderr = run(capsys, "verify", "--n-max", "1")
    monkeypatch.undo()
    assert code == EXIT_MISMATCH
    assert stderr.startswith("FAILURES: 260\n")
    assert stderr.endswith(": Parseval identity fails\n")

    def bound_lowered(n, family):
        bound = real_bound(n, family)  # None for the eighth fractions
        return None if bound is None else bound - 1

    monkeypatch.setattr(cli, "projectivity_bound", bound_lowered)
    code, _, stderr = run(capsys, "verify", "--n-max", "2")
    assert code == EXIT_MISMATCH
    assert stderr.splitlines()[:3] == [
        "FAILURES: 18",
        "  sixteenth-even n=2: 6",
        "  sixteenth-odd n=2: 12",
    ]
    assert stderr.endswith(": projectivity exceeds the closed-form bound\n")


def test_spectrum_check_keeps_the_two_misfits_apart():
    # An oracle |J| that is no power of two and a theory e above log2 N have
    # buckets of their own: planted once each at the same (design, length),
    # they must not cancel.  Designs 1 and 2 get only one of them.
    family = Family.SIXTEENTH_ODD
    counts, pairs = profile_array(1), u0v0_classes(family)
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    forms = closed_forms(family, counts, pairs)
    [(p, c, table)] = oracle.j_table_chunks(family, counts, pairs, *every)
    log_n, length = table.n_runs.bit_length() - 1, 3
    values = table.values.copy()
    sizes = np.bitwise_count(np.arange(values.shape[1]))
    for d in (0, 1):
        values[d, np.flatnonzero((values[d] == 0) & (sizes == length))[0]] = 3
    planted = oracle.JTable(table.columns, table.n_runs, values)

    class PlantedForms:
        def words(self, p, c):
            extra = np.zeros((p.size, 1), dtype=np.int64)
            count = extra.copy()
            count[[0, 2]] = 1
            return tuple(
                np.hstack([column, more])
                for column, more in zip(
                    forms.words(p, c), (extra + length, extra + log_n + 1, count)
                )
            )

    assert cli._chunk_failures(PlantedForms(), p, c, planted, None) == [
        (d, "theory and oracle spectra differ") for d in (0, 1, 2)
    ]


def test_verify_n_3_takes_few_chunks(capsys, monkeypatch):
    # Chunks are sized in bytes, so the small designs share few chunks; with
    # chunks of 2^15 int32 entries the 7,410 designs took 268.
    real, sizes = oracle.code_tables, []
    monkeypatch.setattr(
        oracle, "code_tables", lambda *code: sizes.append(len(code[2])) or real(*code)
    )
    code, _, _ = run(capsys, "verify", "--n-max", "3")
    assert code == EXIT_OK
    assert sum(sizes) == 7410 and len(sizes) <= 80


@pytest.mark.parametrize("budget", [1, 1 << 15, oracle.CHUNK_BYTES])
def test_verify_chunks_match_one_row_calls(monkeypatch, budget):
    # A budget of 1 byte gives one design per chunk.  2^15 bytes give several
    # at n <= 2, where the default takes a whole block; both larger budgets
    # put chunk borders inside a profile's u0v0 values.  At n = 3 only their
    # tables are compared.
    monkeypatch.setattr(oracle, "CHUNK_BYTES", budget)
    for family in Family:
        pairs = u0v0_classes(family)
        for n in (1, 2, 3) if budget > 1 else (1, 2):
            counts = profile_array(n)
            every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
            seen = 0
            for p, c, table in oracle.j_table_chunks(family, counts, pairs, *every):
                levels = range(1, len(table.columns) + 1) if n < 3 else range(0)
                verdicts = [table.deficient(level).tolist() for level in levels]
                projs = table.projectivity() if levels else None
                for d, (i, j) in enumerate(zip(p.tolist(), c.tolist())):
                    assert i * len(pairs) + j == seen
                    seen += 1
                    profile = GeneratorProfile(tuple(counts[i].tolist()))
                    design = build_design(spec_for(family, profile, pairs[j]))
                    one = j_characteristics(design)
                    assert table.columns == design.columns
                    assert table.n_runs == design.n_runs
                    assert np.array_equal(table.values[d], one.values[0])
                    if not levels:
                        continue
                    assert [not v[d] for v in verdicts] == [
                        oracle.projection_level_full(design, level, table=one)
                        for level in levels
                    ]
                    first_deficient = next(
                        (level for level in levels if verdicts[level - 1][d]),
                        len(levels) + 1,
                    )
                    assert projs[d] == first_deficient - 1
            assert seen == len(counts) * len(pairs)


@st.composite
def larger_blocks(draw):
    """A verify block of random n = 4, 5 profiles and u0v0 values (q <= 15)."""
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.sampled_from((4, 5)))
    profiles = draw(st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=1, max_size=2
    ))
    counts = np.array([[classes.count(k) for k in range(10)] for classes in profiles])
    pairs = (None,)
    if family.branched:
        pairs = tuple(draw(st.lists(
            st.sampled_from(u0v0_classes(family)), min_size=1, max_size=3, unique=True
        )))
    return family, counts, pairs


@settings(max_examples=30, deadline=None)
@given(larger_blocks())
def test_batched_verify_passes_at_n_4_and_5(block):
    assert list(cli._verify_block(*block)) == []


@settings(max_examples=30, deadline=None)
@given(larger_blocks())
def test_code_tables_equal_the_matrix_tables_at_n_4_and_5(block):
    family, counts, pairs = block
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    for p, c, table in oracle.j_table_chunks(family, counts, pairs, *every):
        for d, (i, j) in enumerate(zip(p.tolist(), c.tolist())):
            profile = GeneratorProfile(tuple(counts[i].tolist()))
            design = build_design(spec_for(family, profile, pairs[j]))
            assert np.array_equal(table.values[d], j_characteristics(design).values[0])


def _filter_alone(table: oracle.JTable) -> oracle.JTable:
    """The table with no cached words, so that ``deficient`` answers from
    the projection filter alone, without the full-word certificate."""
    bare = oracle.JTable(table.columns, table.n_runs, table.values)
    bare.__dict__["words"] = (np.empty(0, dtype=np.int64),) * 3
    return bare


def test_verify_query_builds_no_filter_at_n_up_to_3(monkeypatch):
    # Every sixteenth design at n <= 3 has a full word (|J| = N) of at most
    # bound + 1 columns, so verify's one projection query never builds the
    # filter; the certificate agrees with the filter at both levels.
    real, calls = oracle._subset_sums, []
    monkeypatch.setattr(oracle, "_subset_sums", lambda *a: calls.append(a) or real(*a))
    settled = 0
    for family in (Family.SIXTEENTH_EVEN, Family.SIXTEENTH_ODD):
        pairs = u0v0_classes(family)
        for n in (1, 2, 3):
            bound = projectivity_bound(n, family)
            counts = profile_array(n)
            every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
            for _, _, table in oracle.j_table_chunks(family, counts, pairs, *every):
                built = len(calls)
                above = table.deficient(bound + 1)
                assert len(calls) == built, (family, n)
                settled += int(above.sum())
                bare = _filter_alone(table)
                assert np.array_equal(above, bare.deficient(bound + 1))
                assert np.array_equal(table.deficient(bound), bare.deficient(bound))
    assert settled == 3135  # every sixteenth design at n <= 3


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((Family.SIXTEENTH_EVEN, Family.SIXTEENTH_ODD)), st.data())
def test_verify_query_matches_the_projection_scan_at_n_4(family, data):
    classes = data.draw(st.lists(st.integers(0, 9), min_size=4, max_size=4))
    counts = np.array([[classes.count(k) for k in range(10)]])
    pair = data.draw(st.sampled_from(u0v0_classes(family)))
    design = build_design(spec_for(family, GeneratorProfile(tuple(counts[0].tolist())), pair))
    bound = projectivity_bound(4, family)
    one = np.zeros(1, dtype=int)
    [(_, _, table)] = oracle.j_table_chunks(family, counts, (pair,), one, one)
    for level in (bound, bound + 1):
        want = not scan_level_full(design, level)
        assert table.deficient(level)[0] == want
        assert _filter_alone(table).deficient(level)[0] == want
    _, lengths, jabs = table.words
    assert ((jabs == table.n_runs) & (lengths <= bound + 1)).any()  # certified


def test_verify_parseval_sums_past_int32():
    # N * 2^q = 2^15 * 2^19 = 2^34: the sum of squares of the int32 J-table
    # must be taken in a wider type.
    family = Family.SIXTEENTH_ODD
    assert family.run_count(7) << family.factor_count(7) > np.iinfo(np.int32).max
    counts = np.array([[1, 1, 1, 1, 1, 1, 1, 0, 0, 0]])
    assert list(cli._verify_block(family, counts, u0v0_classes(family)[:1])) == []


# ---------------------------------------------------------------------------
# Design documents: the array reader and writers against the line-by-line
# reference parser, fuzzed, and against output taken from the writers they
# replaced.
# ---------------------------------------------------------------------------

#: Whitespace that str.strip() removes inside a line, and line breaks of
#: str.splitlines(), ASCII and not.
INLINE_SPACE = " \t\x1f\xa0\u2003\u3000"
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")
#: Tokens the reference parser rejects; none holds a comma or a line break,
#: and only the first is empty.
BAD_TOKENS = (
    "", "2", "0", "11", "1 1", "- 1", "+ 1", "-\t1", "+\xa01", "--1", "+-1",
    "1-", "-", "+", "x", "1.0", "\u0661", "1\x00",
)
fuzzed = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def csv_documents(draw, bad_token=False, ragged=False, design=None):
    """CSV text with random padding, signs, blank lines and line breaks;
    optionally one token replaced by a bad one, or one run made ragged.
    The runs are random, or the writer's runs of ``design`` with each
    ``1`` perhaps written ``+1``."""
    space = st.text(INLINE_SPACE, max_size=2)
    if design is None:
        q = draw(st.integers(1, 4))
        labels = draw(st.lists(st.sampled_from(("A", "F1", "x y", "1")), min_size=q, max_size=q))
        runs = draw(st.lists(
            st.lists(st.sampled_from(("1", "+1", "-1")), min_size=q, max_size=q),
            min_size=1, max_size=5,
        ))
    else:
        labels, *runs = (line.split(",") for line in design_to_csv(design).splitlines())
        q = len(labels)
        runs = [[draw(st.sampled_from(("1", "+1"))) if tok == "1" else tok for tok in run]
                for run in runs]
    run = draw(st.integers(0, len(runs) - 1))
    if bad_token:
        # An empty token alone on its line would make a blank line.
        bad = draw(st.sampled_from(BAD_TOKENS[q == 1 :]))
        runs[run][draw(st.integers(0, q - 1))] = bad
    if ragged:
        runs[run] = runs[run][:-1] if draw(st.booleans()) else runs[run] + ["1"]
        if not any(runs[run]):  # nothing left, or only the empty bad token
            runs[run] = ["-1"] * (q + 1)
    text = draw(space)
    for line in [labels] + runs:
        text += ",".join(draw(space) + tok + draw(space) for tok in line)
        for _ in range(draw(st.integers(1, 2))):  # the second makes a blank line
            text += draw(space) + draw(st.sampled_from(LINE_BREAKS))
    if not draw(st.booleans()):
        text = text.rstrip("".join(LINE_BREAKS))
    return text


@fuzzed
@given(csv_documents())
@example("A,A\n\n1,1")
@example("A,B\r\n1,-1\r\n-1,+1\r\n")
@example("A\n\x1f\n1\n\x1f")
# Block cuts (every run a block of its own in test_readers_at_every_block_cut):
# \r and \n on either side of a cut, and a block made only of blank lines.
@example("A,B\r\n1,-1\r\n\r\n-1,1\n\r")
@example("A\n1\n\n \n\r\n-1\n")
def test_csv_reader_matches_reference_parser(text):
    columns, rows = csv_rows(text)
    design = design_from_csv(text)
    assert design.columns == columns
    assert design.rows.tolist() == rows


@fuzzed
@given(st.one_of(
    csv_documents(bad_token=True),
    csv_documents(ragged=True),
    csv_documents(bad_token=True, ragged=True),
    st.sampled_from(("", " \n\t", "A,B", "A,B\n\n", "\n1,1\n", "A\n,\n", "A,B\n1,-1,\n")),
))
# Bytes of well-formed runs in a wrong order, and a 0.
@example("A,B\n1,-+1\n")
@example("A\n+-1\n")
@example("A,B\n1,1-\n1,1\n")
@example("A\n-\n1\n")
@example("A,B\n1,0\n")
# A - right before a block cut.
@example("A,B\n1,-\n1,1\n")
@example("A,B\n1,-\r\n1,1\n")
def test_malformed_csv_ends_in_one_error_line(tmp_path, capsys, text):
    with pytest.raises(ValueError) as reference:
        csv_rows(text)
    with pytest.raises(cli.UsageError) as error:
        design_from_csv(text)
    assert str(error.value) == str(reference.value)
    path = tmp_path / "fuzz.csv"
    path.write_text(text, newline="")
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def specs(draw, max_n=3):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, max_n))
    u, v = (tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))) for _ in "uv")
    pair = (draw(st.integers(0, 3)), draw(st.integers(0, 3))) if family.branched else (None, None)
    return GeneratorSpec(family, n, u, v, *pair)


def _payload(spec: GeneratorSpec) -> dict:
    return json.loads(document_to_json(DesignDocument(spec, build_design(spec))))


@fuzzed
@given(specs(max_n=1), st.data())
def test_well_formed_csv_takes_the_template_path(monkeypatch, spec, data):
    design = build_design(spec)
    text = data.draw(csv_documents(design=design))
    with monkeypatch.context() as patch:  # undone before the next example
        patch.setattr(cli, "_csv_fault", None)  # the line-by-line path is never called
        loaded = design_from_csv(text)
    assert loaded.columns == design.columns
    assert np.array_equal(loaded.rows, design.rows)


#: Refusals of the array JSON reader that the reference reader does not make
#: (it accepts such a document, or refuses it later with another message).
NEW_REFUSALS = (
    "JSON columns must name at least one column", "n_runs: ", "n_factors: ",
    "a JSON design needs at least one run",
)


def _new_refusal(message: str) -> bool:
    return any(refusal in message for refusal in NEW_REFUSALS)


BREAK_KINDS = (
    "entry", "rows", "ragged", "n_runs", "missing", "schema", "columns", "generator",
    "counts", "no_columns",
)


def _break_json(payload: dict, draw, kind: str) -> None:
    """Make one part of a design document malformed, in place."""
    rows = payload["rows"]
    if kind == "entry":
        run = draw(st.integers(0, len(rows) - 1))
        entry = draw(st.integers(0, len(rows[run]) - 1))
        rows[run][entry] = draw(st.sampled_from(
            (257, -128, 0, 2, 10**30, 1.5, -1.9, 1.0, True, False, "1", None, [1], {})
        ))
    elif kind == "rows":
        payload["rows"] = draw(st.sampled_from(
            (5, "1,-1", {"a": 1}, None, [1, -1], [[1], 1], [], [[[1]]], [[1], 1, [1]])
        ))
    elif kind == "ragged":
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    elif kind == "n_runs":
        payload["n_runs"] += 1
    elif kind == "missing":
        del payload[draw(st.sampled_from(("columns", "rows", "n_runs", "n_factors")))]
    elif kind == "schema":
        payload["schema"] = draw(st.sampled_from(("qcdesign/2", None, 1)))
    elif kind == "columns":  # each has one item per column, but is no list of strings
        columns = payload["columns"]
        payload["columns"] = draw(st.sampled_from((
            "ABCDEFGHIJKLMNOPQRSTU"[: len(columns)], list(range(len(columns))),
            dict.fromkeys(columns), [*columns[:-1], None],
        )))
    elif kind == "counts":  # the right count, or not, as no JSON integer
        key = draw(st.sampled_from(("n_runs", "n_factors")))
        payload[key] = draw(st.sampled_from((True, False, float(payload[key]), 1e400)))
    elif kind == "no_columns":  # the reference takes the runs of no entries
        payload.update(columns=[], rows=[[] for _ in rows], n_factors=0, family=None)
    else:
        key, value = draw(st.sampled_from((
            ("u", [7] * payload["n"]), ("u", [1.0] * payload["n"]), ("v", None),
            ("n", str(payload["n"])), ("n", 1e400), ("family", "tenth-even"),
            ("u0v0", "9"), ("u0v0", [1e400, 0]), ("u", [0] * (payload["n"] + 1)),
        )))
        payload[key] = value


@fuzzed
@given(specs(max_n=2), st.data())
def test_malformed_json_ends_in_one_error_line(tmp_path, capsys, monkeypatch, spec, data):
    payload = _payload(spec)
    _break_json(payload, data.draw, data.draw(st.sampled_from(BREAK_KINDS)))
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    argv = ("metrics", "--design", str(path), "--method", "oracle")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if not _new_refusal(err):
        with monkeypatch.context() as patch:  # undone before the next example
            patch.setattr(cli, "document_from_json", json_document)
            assert run(capsys, *argv) == (code, out, err)


#: Small JSON values: scalars, and lists and objects of a few of them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@fuzzed
@given(specs(max_n=2), st.data())
def test_one_replaced_field_ends_in_one_error_line(tmp_path, capsys, spec, data):
    # Any top-level field of a valid document replaced by any other small
    # JSON value: one error line and exit 1 or 2, never a traceback, unless
    # the reader takes the new value for an equal one (metrics null or {},
    # other column labels, u0v0 [1, 2] for "12"): then the output is the same.
    payload = _payload(spec)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    argv = ("metrics", "--design", str(path))
    untouched = run(capsys, *argv)
    key = data.draw(st.sampled_from(sorted(payload)))
    path.write_text(json.dumps({**payload, key: data.draw(
        json_values.filter(lambda value: value != payload[key]))}))
    code, out, err = run(capsys, *argv)
    if code != EXIT_OK:
        assert code in (EXIT_USAGE, EXIT_MISMATCH) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert (code, out, err) == untouched


@st.composite
def json_texts(draw):
    """A design document, perhaps broken, as JSON text with random
    whitespace between tokens and its keys in random order; perhaps with
    a second top-level ``rows``, one under ``metrics``, an escaped key or
    non-ASCII labels.  Also whether its rows must take the byte path."""
    payload = _payload(draw(specs(max_n=2)))
    kind = draw(st.sampled_from((None, *BREAK_KINDS)))
    if kind:
        _break_json(payload, draw, kind)
    if draw(st.booleans()) and type(payload.get("columns")) is list:
        payload["columns"] = [f"{c}\u00e9\u2028" for c in payload["columns"]]
    if draw(st.booleans()):
        payload["metrics"] = {"rows": draw(st.sampled_from(([[1, -1]], [[1]] * 3, "[[1]]")))}
    members = draw(st.permutations(list(payload.items())))
    twice = draw(st.booleans()) and "rows" in payload
    if twice:
        other = draw(st.sampled_from(([[1, -1]], [], [[2]], "rows")))
        members.insert(draw(st.integers(0, len(members))), ("rows", other))
    rnd = draw(st.randoms(use_true_random=False))
    escape = draw(st.booleans())

    def space() -> str:
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.choice((0, 0, 1, 2))))

    def dump(value) -> str:
        if isinstance(value, list):
            return "[" + ",".join(space() + dump(v) + space() for v in value) + "]"
        if isinstance(value, dict):
            return "{" + ",".join(member(k, v) for k, v in value.items()) + "}"
        return json.dumps(value, ensure_ascii=rnd.random() < 0.5)

    def member(key: str, value) -> str:
        name = '"r\\u006fws"' if escape and key == "rows" else dump(key)
        return space() + name + space() + ":" + space() + dump(value) + space()

    text = space() + "{" + ",".join(member(k, v) for k, v in members) + "}" + space()
    last_rows = [v for k, v in members if k == "rows"][-1:]
    fast = kind is None and last_rows == [payload["rows"]] and payload["rows"] != []
    return text, fast


def _outcome(read, text: str) -> tuple:
    try:
        doc = read(text)
    except (cli.UsageError, KeyError, ValueError, TypeError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return doc.spec, doc.design.columns, doc.design.rows.tolist(), doc.metrics


@fuzzed
@given(json_texts())
@example(('{"schema": "qcdesign/1", "columns": ["A"], "rows": [[1], [-1]], '
          '"n_runs": 2, "n_factors": 1}', True))
@example(('{"columns": ["A"], "rows": [[1],1,[1]], "schema": "qcdesign/1"}', False))
@example(('{"columns": ["A"], "rows": [[1,[1],1]], "schema": "qcdesign/1"}', False))
@example(('{"columns": ["A"], "rows": [[- 1]], "schema": "qcdesign/1"}', False))
@example(('{"columns": ["A"], "rows": [[1]]]', False))
@example(('{"columns": ["A"], "rows": [[1]], }', False))
@example(('{"rows": [], "rows": [[1]], "columns": ["A"], "schema": "qcdesign/1", '
          '"n_runs": 1, "n_factors": 1}', True))
@example(('[{"rows": [[1]]}]', False))
# Syntax faults made only of the bytes of runs, next to another refusal.
@example(('{"schema": "x", "columns": ["A"], "rows": [[1,,1]]}', False))
@example(('{"schema": "x", "columns": ["A"], "rows": [[1],,[1]]}', False))
@example(('{"schema": "x", "columns": ["A"], "rows": [[1]1]}', False))
@example(('{"schema": "x", "columns": ["A"], "rows": [[-]]}', False))
@example(('{"schema": "x", "columns": ["A"], "rows": [[1,-1],[-1]]}', False))
@example(('{"schema": "qcdesign/1", "columns": ["A", "B"], "rows": [[1,-1],[-1]], '
          '"n_runs": 2, "n_factors": 2}', False))
@example(('{"schema": "qcdesign/1", "columns": ["A"], "rows": [[1,-1],[-1,1]], '
          '"n_runs": 2, "n_factors": 1}', False))
@example(('{"schema": "qcdesign/1", "columns": ["A", "B"], "rows": [[1,0]], '
          '"n_runs": 1, "n_factors": 2}', False))
# Block cuts: a - right before one, \r and \n around them, one right
# before the closing ]].
@example(('{"schema": "x", "columns": ["A"], "rows": [[1,-[1]]}', False))
@example(('{"schema": "qcdesign/1", "columns": ["A"], "rows": [\r\n[1],\r\n [-1]\n\r], '
          '"n_runs": 2, "n_factors": 1}', True))
@example(('{"schema": "qcdesign/1", "columns": ["A"], "rows": [[1],[-1]]  , '
          '"n_runs": 2, "n_factors": 1}', True))
@example(('{"schema": "x", "columns": ["A"], "rows": [[1],[]]}', False))
def test_json_reader_matches_reference_reader(document):
    text, fast = document
    ours = _outcome(document_from_json, text)
    if len(ours) == 2 and _new_refusal(ours[1]):
        payload = json.loads(text)
        counts = {type(payload.get(k, 0)) for k in ("n_runs", "n_factors")}
        assert [] in (payload["columns"], payload["rows"]) or counts != {int}
    else:
        assert ours == _outcome(json_document, text)
    if fast:  # a well-formed document never reaches the stdlib's scanner for its rows
        assert type(cli._json_payload(text)["rows"]) is np.ndarray


@settings(max_examples=100, deadline=None)
@given(specs(), st.booleans())
def test_documents_round_trip(spec, with_metrics):
    design = build_design(spec)
    metrics = None
    if with_metrics:
        spectrum = family_spectrum(spec.family, profile_of(spec.u, spec.v), spec.u0v0)
        metrics = cli._metrics_payload(spectrum, design.n_factors)
    again = design_from_csv(design_to_csv(design))
    assert again.columns == design.columns
    assert np.array_equal(again.rows, design.rows)
    loaded = document_from_json(document_to_json(DesignDocument(spec, design, metrics)))
    assert loaded.spec == spec and loaded.metrics == metrics
    assert loaded.design.columns == design.columns
    assert np.array_equal(loaded.design.rows, design.rows)


@pytest.mark.parametrize("test", [
    test_json_reader_matches_reference_reader,
    test_csv_reader_matches_reference_parser,
    test_malformed_csv_ends_in_one_error_line,
    test_malformed_json_ends_in_one_error_line,
    test_well_formed_csv_takes_the_template_path,
], ids=lambda test: test.__name__)
def test_readers_at_every_block_cut(request, monkeypatch, test):
    # Every run is a block of its own, in the readers and in the writers.
    monkeypatch.setattr(cli, "_READ_CHARS", 1)
    monkeypatch.setattr(cli, "_WRITE_RUNS", 1)
    test(**{name: request.getfixturevalue(name) for name in inspect.signature(test).parameters})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(b"-+10 ,[]\n\r\t"), max_size=40).map(bytes))
@example(b"--1")
@example(b"-1-1")
@example(b"+-1")
@example(b"1,1,-")
@example(b"")
@example(b"-")
@example(b"1")
def test_marking_equals_bytes_replace(block):
    # The readers' arithmetic marking, alone and -1 then +1 as the CSV
    # reader applies it, is bytes.replace, which never rescans its output.
    for sign, digit in ((b"-", b"0"), (b"+", b"1")):
        want = block.replace(sign + b"1", b" " + digit)
        assert cli._mark(bytearray(block), sign, digit) == want
    both = cli._mark(cli._mark(bytearray(block), b"-", b"0"), b"+", b"1")
    assert both == block.replace(b"-1", b" 0").replace(b"+1", b" 1")


@pytest.mark.parametrize("runs", [1, 3, cli._WRITE_RUNS])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs(max_n=8).filter(lambda spec: spec.family.factor_count(spec.n) <= 20), st.booleans())
@example(spec_for(Family.SIXTEENTH_EVEN, GeneratorProfile.from_digits("0120112001")), True)
def test_block_writers_match_the_whole_array_writers(tmp_path, capsys, monkeypatch, runs,
                                                     spec, with_metrics):
    monkeypatch.setattr(cli, "_WRITE_RUNS", runs)
    design = build_design(spec)
    metrics = None
    if with_metrics:
        spectrum = family_spectrum(spec.family, profile_of(spec.u, spec.v), spec.u0v0)
        metrics = cli._metrics_payload(spectrum, design.n_factors)
    doc = DesignDocument(spec, design, metrics)
    assert document_to_json(doc) == json_text(doc)
    assert design_to_csv(design) == csv_text(design)
    argv = ["build", "--family", spec.family.value, "--n", str(spec.n),
            "--u", ",".join(map(str, spec.u)), "--v", ",".join(map(str, spec.v))]
    argv += ["--u0v0", cli._pair_text(spec.u0v0)] if spec.u0v0 else []
    argv += ["--with-metrics"] if with_metrics else ["--format", "csv"]
    want = json_text(doc) if with_metrics else csv_text(design)
    assert run(capsys, *argv) == (EXIT_OK, want, "")
    out = tmp_path / "design"
    wrote = f"wrote {design.n_runs} x {design.n_factors} design to {out}\n"
    assert run(capsys, *argv, "--out", str(out)) == (EXIT_OK, wrote, "")
    assert out.read_text() == want


def test_unicode_whitespace_table_is_complete():
    # Every non-ASCII character that str.strip() removes is translated, to
    # a line break exactly where str.splitlines() breaks.
    for c in range(0x80, sys.maxunicode + 1):
        if chr(c).isspace():
            want = "\n" if len(f"a{chr(c)}a".splitlines()) == 2 else " "
            assert chr(c).translate(cli._WIDE_SPACE) == want
        else:
            assert c not in cli._WIDE_SPACE


#: `build --format csv` and `build --with-metrics` output of the
#: line-by-line writers that the array encoder replaced.
GOLDEN_CSV = (
    "F1,F2,F3,F4,F5,F11,F12\n1,1,1,1,1,1,1\n1,-1,-1,-1,1,1,-1\n-1,-1,1,1,1,-1,-1\n"
    "-1,1,-1,-1,1,-1,1\n1,-1,-1,1,-1,1,1\n-1,-1,1,-1,-1,1,-1\n-1,1,-1,1,-1,-1,-1\n"
    "1,1,1,-1,-1,-1,1\n"
)
GOLDEN_JSON = (
    '{"schema":"qcdesign/1","family":"eighth-odd","n":1,"u":[3],"v":[1],"u0v0":"12",'
    '"n_runs":8,"n_factors":6,"columns":["F2","F3","F4","F5","F11","F12"],'
    '"rows":[[1,1,1,1,1,1],[1,1,-1,1,1,-1],[-1,-1,-1,1,-1,-1],[-1,-1,1,1,-1,1],'
    '[-1,-1,-1,-1,1,1],[1,-1,1,-1,1,-1],[1,1,1,-1,-1,-1],[-1,1,-1,-1,-1,1]],'
    '"metrics":{"resolution":"5/2","resolution_decimal":2.5,"wlp":["0","1","3","2","1","0"],'
    '"wlp_decimal":[0.0,1.0,3.0,2.0,1.0,0.0],"spectrum":['
    '{"length":2,"ai":"1/2","ai_decimal":0.5,"count":4},'
    '{"length":3,"ai":"1/2","ai_decimal":0.5,"count":4},'
    '{"length":3,"ai":"1","ai_decimal":1.0,"count":2},'
    '{"length":4,"ai":"1/2","ai_decimal":0.5,"count":4},'
    '{"length":4,"ai":"1","ai_decimal":1.0,"count":1},'
    '{"length":5,"ai":"1/2","ai_decimal":0.5,"count":4}],"word_count":19}}'
)


def test_build_csv_matches_golden_bytes(capsys):
    code, stdout, _ = run(
        capsys, "build", "--family", "sixteenth-odd", "--n", "1", "--u", "1",
        "--v", "2", "--u0v0", "13", "--format", "csv",
    )
    assert code == EXIT_OK and stdout == GOLDEN_CSV


def test_build_json_matches_golden_object(capsys):
    code, stdout, _ = run(
        capsys, "build", "--family", "eighth-odd", "--n", "1", "--u", "3",
        "--v", "1", "--u0v0", "12", "--with-metrics",
    )
    assert code == EXIT_OK and json.loads(stdout) == json.loads(GOLDEN_JSON)
    # One run per line; everything else keeps the indent=2 layout.
    assert "    [1,1,-1,1,1,-1],\n" in stdout
    assert stdout.replace("\n", "").replace(" ", "") == GOLDEN_JSON


def test_indent_2_layout_gives_the_same_metrics(tmp_path, capsys):
    out = tmp_path / "design.json"
    run(capsys, "build", "--family", "sixteenth-odd", "--n", "2", "--u", "1,2",
        "--v", "2,1", "--u0v0", "11", "--out", str(out))
    old = tmp_path / "old.json"
    old.write_text(json.dumps(json.loads(out.read_text()), indent=2) + "\n")
    outputs = [
        run(capsys, "metrics", "--design", str(path), "--method", "both", "--report", "json")
        for path in (out, old)
    ]
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def _traced(call):
    """What ``call()`` returns, and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_readers_peak_memory_is_a_few_times_the_file(tmp_path):
    # q = 16, 8192 runs, and the q = 20, 65,536-run size the benchmark
    # loads.  The writers join their pieces once (the pieces and the text,
    # 2x), read_text holds the bytes and the text (2x), and build_design
    # holds its rows and DesignMatrix's check of them (3x).
    for spec in (
        GeneratorSpec(Family.EIGHTH_ODD, 6, (1, 2, 3, 0, 1, 2), (2, 1, 0, 3, 2, 1), 1, 2),
        spec_for(Family.SIXTEENTH_EVEN, GeneratorProfile.from_digits("0120112001")),
    ):
        design, peak = _traced(lambda: build_design(spec))
        assert peak < 4 * design.rows.nbytes, (spec.n, "build", peak / design.rows.nbytes)
        doc = DesignDocument(spec, design)
        for name, write in (("doc.json", lambda: document_to_json(doc)),
                            ("doc.csv", lambda: design_to_csv(design))):
            text, peak = _traced(write)
            assert peak < 2.5 * len(text), (spec.n, name, peak / len(text))
            path = tmp_path / name
            path.write_text(text)
            loaded, peak = _traced(lambda: cli.load_design(str(path)))
            assert np.array_equal(loaded.design.rows, design.rows)
            assert peak < 3 * len(text), (spec.n, name, peak / len(text))


@pytest.mark.parametrize("entry", ["257", "1.5", "-1.9", "true", '"1"', "1e400", "-128"])
def test_json_entries_must_be_the_integers_plus_minus_one(tmp_path, capsys, entry):
    path = tmp_path / "g.json"
    path.write_text(
        '{"schema":"qcdesign/1","columns":["A","B"],'
        f'"rows":[[{entry},-1],[1,1],[1,-1],[-1,1]],"n_runs":4,"n_factors":2}}'
    )
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: JSON entries must be the integers 1 and -1, got ")
    assert err.count("\n") == 1


def test_rows_must_match_the_generator_rebuild(tmp_path, capsys):
    path = tmp_path / "claims.json"
    payload = {
        "schema": "qcdesign/1", "family": "sixteenth-even", "n": 1, "u": [0], "v": [0],
        "columns": ["A", "B"], "rows": [[1, -1], [1, 1], [1, -1], [-1, 1]],
        "n_runs": 4, "n_factors": 2,
    }
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_MISMATCH and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # The right shape with one run changed is a mismatch too.
    payload = _payload(GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (1,), (2,)))
    payload["rows"][1], payload["rows"][2] = payload["rows"][2], payload["rows"][1]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_MISMATCH and err.count("\n") == 1
    # A spec that GeneratorSpec refuses is a usage error.
    payload["u"] = [4]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_USAGE and err.startswith("error: ") and err.count("\n") == 1


GOLDEN = Path(__file__).parent / "golden"
#: Generator flags of one n = 10 design per family (2^20 or 2^21 runs).
N10_FLAGS = {
    f: ("--family", f.value, "--n", "10", "--u", "1,2,3,0,1,2,3,0,1,2",
        "--v", "2,1,0,3,2,1,0,3,2,1", *(["--u0v0", "12"] if f.branched else []))
    for f in Family
}
#: Each file in ``tests/golden`` holds the stdout of its commands, run one
#: after another.  A refactor keeps these bytes unless it says why.
GOLDEN_COMMANDS = {
    **{f"tables_{w}.{fmt}": [("tables", "--which", str(w), "--report", fmt)]
       for w in (3, 4, 5, 6) for fmt in ("json", "md", "csv")},
    **{f"bound_{f.value}.txt": [("bound", "--family", f.value, "--n", str(n))
                                for n in range(1, 11)] for f in Family},
    **{f"search_{f.value}_n2.md": [("search", "--n", "2", "--family", f.value)]
       for f in Family},
    **{f"search_{f.value}_n2.csv": [("search", "--n", "2", "--family", f.value,
                                     "--report", "csv")]
       for f in Family},
    **{f"search_{f.value}_n3_projectivity.json": [
        ("search", "--n", "3", "--family", f.value, "--criterion", "projectivity",
         "--report", "json")]
       for f in Family},
    # Tie-heavy searches: the ties are the orbits of the scored candidates.
    **{f"search_{f}_n4_projectivity.json": [
        ("search", "--n", "4", "--family", f, "--criterion", "projectivity", "--report", "json")]
       for f in ("sixteenth-odd", "eighth-odd")},
    "search_eighth-odd_n5_resolution.json": [
        ("search", "--n", "5", "--family", "eighth-odd", "--criterion", "resolution",
         "--skip-projectivity", "--report", "json")],
    "search_sixteenth-odd_n6.json": [
        ("search", "--n", "6", "--family", "sixteenth-odd", "--skip-projectivity",
         "--report", "json")],
    **{f"metrics_{f.value}.json": [
        ("metrics", "--family", f.value, "--n", "2", "--u", "1,2", "--v", "2,1",
         *(["--u0v0", "12"] if f.branched else []), "--method", "both", "--report", "json")]
       for f in Family},
    **{f"metrics_{f.value}.txt": [
        ("metrics", "--family", f.value, "--n", "2", "--u", "1,2", "--v", "2,1",
         *(["--u0v0", "12"] if f.branched else []), "--method", "both")]
       for f in Family},
    "verify_n3_sample20_seed1.txt": [
        ("verify", "--n-max", "3", "--sample", "20", "--seed", "1")],
    "metrics_theory_n10.json": [
        ("metrics", *N10_FLAGS[f], "--method", "theory", "--report", "json") for f in Family],
    "spectrum_theory_n10.txt": [
        ("spectrum", *N10_FLAGS[f], "--method", "theory") for f in Family],
}


def _golden_stdout(capsys, name: str) -> str:
    stdout = ""
    for argv in GOLDEN_COMMANDS[name]:
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        stdout += out
    return stdout


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden_file(capsys, name):
    assert _golden_stdout(capsys, name) == (GOLDEN / name).read_bytes().decode()


@pytest.mark.parametrize("name", ["metrics_theory_n10.json", "spectrum_theory_n10.txt"])
def test_theory_commands_never_build_the_matrix(capsys, monkeypatch, name):
    # The closed forms need the generator data alone; the shape comes from
    # the family's run and factor counts.
    def build_design(spec):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "build_design", build_design)
    assert _golden_stdout(capsys, name) == (GOLDEN / name).read_bytes().decode()


def test_every_golden_file_has_its_commands():
    # A file without commands would silently stop being compared.
    assert {path.name for path in GOLDEN.iterdir()} == set(GOLDEN_COMMANDS)


def _option_strings(parser: argparse.ArgumentParser) -> list[str]:
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options += _option_strings(sub)
        else:
            options += action.option_strings
    return options


def test_every_option_is_set_somewhere():
    # An option that no test argv, golden command or benchmark workload sets
    # is a knob nothing sets: delete it or test it.
    sources = [*Path(__file__).parent.glob("*.py"),
               Path(__file__).parents[1] / "perfbench" / "workloads.py"]
    literals = {
        node.value
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    idle = set(_option_strings(cli.build_parser())) - literals - {"-h", "--help"}
    assert idle == set()
