"""Acceptance suite: one test per criterion, all exact, no tolerances.

Each test prints a single PASS line on success so the suite doubles as a
human-readable acceptance report (run with ``pytest -s``).
"""

from __future__ import annotations

import math
import random
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import drop_column, scan_level_full
from qcdesign import (
    Criterion,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    build_design,
    cli,
    family_spectrum,
    profile_of,
    projectivity,
    projectivity_bound,
    reproduce_table,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
)
from qcdesign.oracle import projection_level_full
from qcdesign.search import EIGHTH_ROWS, SIXTEENTH_ROWS, enumerate_profiles, u0v0_classes

HALF = Fraction(1, 2)
ONE = Fraction(1)

EXAMPLE_EVEN = GeneratorSpec(Family.SIXTEENTH_EVEN, 3, (2, 1, 1), (1, 1, 3))
EXAMPLE_ODD = GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1)
EXTENSION_ODD = spec_for(
    Family.EIGHTH_ODD, GeneratorProfile.from_digits("0020220000"), (2, 0)
)


def both_spectra(spec: GeneratorSpec):
    design = build_design(spec)
    theory = family_spectrum(spec.family, profile_of(spec.u, spec.v), spec.u0v0)
    oracle = spectrum_bruteforce(design)
    return design, theory, oracle


def table_optima_specs():
    for row in SIXTEENTH_ROWS + EIGHTH_ROWS:
        yield spec_for(
            row.family, GeneratorProfile.from_digits(row.profile), row.u0v0
        )


def test_criterion_1_example_even_reproduction():
    design, theory, oracle = both_spectra(EXAMPLE_EVEN)
    expected = [(4, HALF, 8), (5, HALF, 32), (6, HALF, 8), (6, ONE, 2), (8, ONE, 1)]
    for spectrum in (theory, oracle):
        assert [(e.length, e.ai, e.count) for e in spectrum] == expected
        resolution, wlp = spectrum_metrics(spectrum, design.n_factors)
        assert resolution == Fraction(9, 2)
        assert wlp == tuple(Fraction(a) for a in (0, 0, 0, 2, 8, 4, 0, 1, 0, 0))
    print("\nACCEPTANCE 1: PASS  64-run example: R = 9/2, wlp and spectrum exact")


def test_criterion_2_example_branched_reproduction():
    design, theory, oracle = both_spectra(EXAMPLE_ODD)
    assert theory == oracle
    resolution, wlp = spectrum_metrics(oracle, design.n_factors)
    assert resolution == Fraction(9, 2)
    # q = 9, so the stated 10-entry pattern carries one vacuous trailing zero.
    assert wlp + (Fraction(0),) == tuple(
        Fraction(a) for a in (0, 0, 0, 6, 8, 0, 0, 1, 0, 0)
    )
    partial = [(e.length, e.count) for e in oracle if e.ai < 1]
    assert partial == [(4, 24), (5, 24)]
    assert sum(count for _, count in partial) == 48
    full_lengths = sorted(
        length for e in oracle if e.ai == 1 for length in [e.length] * e.count
    )
    assert full_lengths == [5, 5, 8]
    print("ACCEPTANCE 2: PASS  32-run branched example: R = 9/2, 48 partial words, full words 5/5/8")


def test_criterion_3_sixteenth_table_reproduction():
    rows = reproduce_table(3)
    assert [row.label for row in rows] == [r.label for r in SIXTEENTH_ROWS]
    for row in rows:
        assert row.passed, (row.label, row.flags)
    assert [row.result.resolution for row in rows] == [
        Fraction(4), Fraction(9, 2), Fraction(9, 2), Fraction(11, 2),
        Fraction(13, 2), Fraction(13, 2), Fraction(13, 2),
    ]
    print("ACCEPTANCE 3: PASS  sixteenth-fraction optima table: 7 rows exact")


def test_criterion_4_eighth_table_reproduction():
    rows = reproduce_table(4)
    for row in rows:
        assert row.passed, (row.label, row.flags)
    assert [row.result.resolution for row in rows] == [
        Fraction(4), Fraction(9, 2), Fraction(9, 2), Fraction(11, 2),
        Fraction(13, 2), Fraction(27, 4), Fraction(31, 4),
    ]
    for row, spec_row in zip(rows, EIGHTH_ROWS):
        assert row.result.wlp_from_4 == tuple(
            Fraction(a) for a in spec_row.wlp_from_4
        )
    print("ACCEPTANCE 4: PASS  eighth-fraction optima table: 7 rows exact")


def test_criterion_5_extension_design():
    design, theory, oracle = both_spectra(EXTENSION_ODD)
    assert design.n_runs == 8192 and design.n_factors == 16
    assert theory == oracle
    resolution, wlp = spectrum_metrics(theory, design.n_factors)
    assert resolution == Fraction(71, 8)
    assert float(resolution) == 8.875
    assert wlp[3:] == tuple(
        Fraction(a) for a in (0, 0, 0, 0, 1, 4, 2, 0, 0, 0, 0, 0, 0)
    )
    print("ACCEPTANCE 5: PASS  8192-run extension: R = 71/8 by theory, oracle agrees")


def test_criterion_6_projectivity_tables():
    expected = [3, 4, 5, 6, 7, 7, 7]
    rows5 = reproduce_table(5)
    assert [row.result.projectivity for row in rows5] == expected
    for row in rows5:
        assert row.passed, (row.label, row.flags)
        assert row.result.projectivity == projectivity_bound(row.expected.n, row.expected.family)
    rows6 = reproduce_table(6)
    assert [row.result.projectivity for row in rows6] == expected
    for row in rows6:
        assert row.passed, (row.label, row.flags)
    print("ACCEPTANCE 6: PASS  projectivities (3,4,5,6,7,7,7) on both tables, bounds attained")


def test_criterion_7_master_equivalence():
    checked = 0
    for n in (1, 2, 3):
        for profile in enumerate_profiles(n):
            for family in Family:
                for pair in u0v0_classes(family):
                    spec = spec_for(family, profile, pair)
                    theory = family_spectrum(family, profile, pair)
                    oracle = spectrum_bruteforce(build_design(spec))
                    assert theory == oracle, (family, profile.digits, pair)
                    checked += 1
    rng = random.Random(20260808)
    sampled = 0
    while sampled < 50:
        family = rng.choice(list(Family))
        n = rng.choice((4, 5))
        counts = [0] * 10
        for _ in range(n):
            counts[rng.randrange(10)] += 1
        profile = GeneratorProfile(tuple(counts))
        pair = rng.choice(u0v0_classes(family))
        spec = spec_for(family, profile, pair)
        theory = family_spectrum(family, profile, pair)
        oracle = spectrum_bruteforce(build_design(spec))
        assert theory == oracle, (family, profile.digits, pair)
        sampled += 1
    print(f"ACCEPTANCE 7: PASS  theory == oracle on {checked} exhaustive + {sampled} sampled designs")


def test_criterion_8_parseval():
    specs = [EXAMPLE_EVEN, EXAMPLE_ODD, EXTENSION_ODD]
    specs.extend(table_optima_specs())
    for n in (1, 2):
        for profile in enumerate_profiles(n):
            for family in Family:
                for pair in u0v0_classes(family):
                    specs.append(spec_for(family, profile, pair))
    for spec in specs:
        design = build_design(spec)
        _, wlp = spectrum_metrics(
            spectrum_bruteforce(design), design.n_factors
        )
        assert 1 + sum(wlp) == Fraction(2**design.n_factors, design.n_runs), spec
    print(f"ACCEPTANCE 8: PASS  Parseval identity on {len(specs)} generated designs")


def _mirror_spec(spec: GeneratorSpec) -> GeneratorSpec:
    return GeneratorSpec(spec.family, spec.n, spec.v, spec.u, spec.v0, spec.u0)


def test_criterion_9_structural_properties():
    rng = random.Random(99)
    sample_specs = [EXAMPLE_EVEN, EXAMPLE_ODD]
    for _ in range(6):
        n = rng.randrange(1, 4)
        u = tuple(rng.randrange(4) for _ in range(n))
        v = tuple(rng.randrange(4) for _ in range(n))
        family = rng.choice(list(Family))
        if family.branched:
            sample_specs.append(
                GeneratorSpec(family, n, u, v, rng.randrange(4), rng.randrange(4))
            )
        else:
            sample_specs.append(GeneratorSpec(family, n, u, v))

    # Column-deletion restriction: the eighth fraction's spectrum is the
    # sixteenth fraction's spectrum over the subsets avoiding F1.
    deletions = 0
    for spec in sample_specs:
        if not spec.family.sixteenth:
            continue
        full_family = spec.family
        slim_family = (
            Family.EIGHTH_ODD if full_family.branched else Family.EIGHTH_EVEN
        )
        full = build_design(spec)
        slim = build_design(
            GeneratorSpec(slim_family, spec.n, spec.u, spec.v, spec.u0, spec.v0)
        )
        assert spectrum_bruteforce(drop_column(full, "F1")) == spectrum_bruteforce(slim)
        deletions += 1
    assert deletions >= 2

    # Four-way deletion equivalence at the spectrum level.  Deleting either
    # check column of one pair gives identical spectra on the same design;
    # deleting a column of the other pair matches the design with the roles
    # of u and v (and u0, v0) interchanged; and over all generator choices
    # the four deletions produce identical spectrum multisets.
    for spec in sample_specs:
        if not spec.family.sixteenth:
            continue
        design = build_design(spec)
        mirror = build_design(_mirror_spec(spec))
        spectra = {
            label: spectrum_bruteforce(drop_column(design, label))
            for label in ("F1", "F2", "F3", "F4")
        }
        assert spectra["F1"] == spectra["F2"]
        assert spectra["F3"] == spectra["F4"]
        assert spectra["F3"] == spectrum_bruteforce(drop_column(mirror, "F1"))
    from itertools import product as iproduct

    multisets = {label: [] for label in ("F1", "F2", "F3", "F4")}
    for u0 in range(4):
        for v0 in range(4):
            spec = GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (u0,), (v0,))
            design = build_design(spec)
            for label in multisets:
                multisets[label].append(spectrum_bruteforce(drop_column(design, label)))
    reference = sorted(multisets["F1"], key=str)
    for label in ("F2", "F3", "F4"):
        assert sorted(multisets[label], key=str) == reference

    # Projectivity floor, by the sort-based scan (the J-table filter holds
    # it by construction), and level monotonicity.
    for spec in sample_specs + list(table_optima_specs()):
        design = build_design(spec)
        resolution, _ = spectrum_metrics(
            spectrum_bruteforce(design), design.n_factors
        )
        floor_p = math.ceil(resolution) - 1
        if floor_p >= 1:
            assert scan_level_full(design, floor_p), spec
    for spec in sample_specs[:4]:
        design = build_design(spec)
        p = projectivity(design)
        levels = [
            projection_level_full(design, level)
            for level in range(1, design.n_factors + 1)
        ]
        assert levels == [True] * p + [False] * (design.n_factors - p)
    print("ACCEPTANCE 9: PASS  deletion, projectivity-floor, and monotonicity properties")


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "9/2\n5\nTrue\n"


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = " ".join(lines).replace("\\ ", "").split("qcdesign ")[1:]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)  # build writes design.json, which later lines read
    for command in commands:
        assert cli.main(shlex.split(command)) == 0, command
