"""Command-line surface: serialization round trips, commands, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qcdesign import Family, GeneratorSpec, build_design, cli
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
from qcdesign.spectrum import parse_fraction


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
    code, _, err = run(capsys, "search", "--n", "9", "--family", "eighth-even")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "--skip-projectivity" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("malformed.json", '{"schema": "qcdesign/1", "columns": ['),
        ("no_rows.json", '{"schema": "qcdesign/1", "n_runs": 2, "n_factors": 1}'),
        ("ragged.csv", "A,B\n1,-1\n1\n"),
        ("header_only.csv", "A,B\n"),
        ("missing.json", None),
    ],
)
def test_bad_design_documents_end_in_one_error_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "metrics", "--design", str(path), "--method", "oracle")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_max_factors_defaults_to_the_oracle_cap():
    args = cli.build_parser().parse_args(["metrics"])
    assert args.max_factors == DEFAULT_MAX_FACTORS


def test_tables_commands_pass(capsys):
    for which in ("3", "4", "5", "6"):
        code, stdout, _ = run(capsys, "tables", "--which", which, "--report", "json")
        assert code == EXIT_OK, which
        payload = json.loads(stdout)
        assert len(payload) == 7
        assert all(row["status"] == "PASS" for row in payload)


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


def test_bound_command(capsys):
    code, stdout, _ = run(capsys, "bound", "--family", "sixteenth-even", "--n", "3")
    assert code == EXIT_OK
    assert "bound: 5" in stdout and "ceiling" in stdout
    code, stdout, _ = run(capsys, "bound", "--family", "eighth-even", "--n", "3")
    assert code == EXIT_OK
    assert "none" in stdout


def test_verify_reports_every_failure(capsys, monkeypatch):
    def fail_odd_profiles(family, profile, u0v0, theory_spec):
        if profile.counts.index(max(profile.counts)) % 2:
            return f"{family.value} {profile.digits}: planted failure"
        return None

    monkeypatch.setattr(cli, "_verify_one", fail_odd_profiles)
    code, stdout, stderr = run(
        capsys, "verify", "--n-max", "2", "--families", "sixteenth-even",
        "eighth-even",
    )
    assert code == EXIT_MISMATCH
    assert "verified 130 designs" in stdout
    assert "all checks passed" not in stdout
    lines = stderr.splitlines()
    # Each family has 5 failing profiles at n = 1 and 25 at n = 2.
    assert lines[:5] == [
        "FAILURES: 60",
        "  eighth-even n=1: 5",
        "  eighth-even n=2: 25",
        "  sixteenth-even n=1: 5",
        "  sixteenth-even n=2: 25",
    ]
    shown = lines[5:]
    assert len(shown) == cli.VERIFY_SHOWN
    assert all(line.endswith("planted failure") for line in shown)
    assert shown[0].startswith("  sixteenth-even ")
