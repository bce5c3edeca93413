"""Brute-force oracle tests: J-characteristics, spectra, projectivity,
and the generator-side character sums."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SCAN_MAX_FACTORS, scan_level_full, scan_projectivity
from qcdesign import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    UNBOUNDED,
    build_design,
    character_sum_even,
    character_sum_odd,
    classify_subset,
    j_characteristics,
    j_direct,
    metrics,
    projection_level_full,
    projectivity,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
)
from qcdesign.search import enumerate_profiles, u0v0_classes

EXAMPLE_EVEN = GeneratorSpec(Family.SIXTEENTH_EVEN, 3, (2, 1, 1), (1, 1, 3))
EXAMPLE_ODD = GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1)
EXAMPLE_ODD_N3 = GeneratorSpec(Family.SIXTEENTH_ODD, 3, (1, 2, 0), (3, 1, 2), 2, 1)


def full_factorial(k: int) -> DesignMatrix:
    rows = [[1 - 2 * ((i >> b) & 1) for b in range(k)] for i in range(2**k)]
    return DesignMatrix(tuple(f"X{b}" for b in range(k)), rows)


def test_full_factorial_has_zero_j_characteristics():
    design = full_factorial(3)
    table = j_characteristics(design)
    assert all(j == 0 for _, j in table.items())


def test_constant_column_j_equals_run_count():
    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,)))
    table = j_characteristics(design)
    assert table[["F1"]] == 4


def test_example_design_complete_words():
    design = build_design(EXAMPLE_EVEN)
    table = j_characteristics(design)
    n = design.n_runs
    sizes = sorted(
        len(table.labels_of(mask)) for mask, j in table.items() if abs(j) == n
    )
    assert sizes == [6, 6, 8]


@pytest.mark.parametrize(
    "design",
    [
        full_factorial(3),
        build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 2, (1, 2), (3, 1))),
        build_design(GeneratorSpec(Family.EIGHTH_ODD, 1, (2,), (1,), 1, 3)),
    ],
    ids=["factorial", "even", "odd"],
)
def test_transform_equals_direct_product_sum(design):
    table = j_characteristics(design)
    for size in range(1, design.n_factors + 1):
        for subset in combinations(design.columns, size):
            assert table[subset] == j_direct(design, subset)


def test_spectrum_reference_cases():
    half = Fraction(1, 2)
    spectrum = spectrum_bruteforce(build_design(EXAMPLE_EVEN))
    assert [(e.length, e.ai, e.count) for e in spectrum] == [
        (4, half, 8), (5, half, 32), (6, half, 8), (6, Fraction(1), 2), (8, Fraction(1), 1),
    ]
    spectrum = spectrum_bruteforce(build_design(EXAMPLE_ODD))
    assert [(e.length, e.ai, e.count) for e in spectrum] == [
        (4, half, 24), (5, half, 24), (5, Fraction(1), 2), (8, Fraction(1), 1),
    ]
    assert len(spectrum_bruteforce(full_factorial(4))) == 0


def test_metrics_reference_cases():
    result = metrics(build_design(EXAMPLE_EVEN))
    assert result.resolution == Fraction(9, 2)
    assert result.wlp == tuple(Fraction(a) for a in (0, 0, 0, 2, 8, 4, 0, 1, 0, 0))
    assert result.projectivity == 5

    result = metrics(build_design(EXAMPLE_ODD))
    assert result.resolution == Fraction(9, 2)
    assert result.wlp == tuple(Fraction(a) for a in (0, 0, 0, 6, 8, 0, 0, 1, 0))
    assert result.projectivity == 4

    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 2, (1, 2), (2, 1)))
    result = metrics(design)
    assert result.resolution == Fraction(4)
    assert result.wlp == tuple(Fraction(a) for a in (0, 0, 0, 14, 0, 0, 0, 1))
    assert result.projectivity == 3


def test_full_factorial_metrics_unbounded():
    design = full_factorial(3)
    result = metrics(design)
    assert result.resolution is UNBOUNDED
    assert result.projectivity == 3
    assert all(a == 0 for a in result.wlp)


def test_parseval_identity():
    for design in (
        build_design(EXAMPLE_EVEN),
        build_design(EXAMPLE_ODD),
        build_design(GeneratorSpec(Family.EIGHTH_EVEN, 2, (1, 0), (2, 3))),
    ):
        _, wlp = spectrum_metrics(spectrum_bruteforce(design), design.n_factors)
        assert 1 + sum(wlp) == Fraction(2**design.n_factors, design.n_runs)


def test_factor_cap_guard():
    design = build_design(EXAMPLE_EVEN)
    with pytest.raises(ValueError):
        j_characteristics(design, max_factors=8)
    with pytest.raises(ValueError):
        projectivity(design, max_factors=8)


def test_factor_cap_refuses_before_the_projection_tables():
    design = build_design(EXAMPLE_ODD_N3)
    assert design.n_factors == 11
    for check in (
        lambda: projectivity(design, max_factors=8),
        lambda: projection_level_full(design, 4, max_factors=8),
        lambda: metrics(design, max_factors=8),
    ):
        with pytest.raises(ValueError, match="above the cap of 8"):
            check()


def test_classify_subset_reference_cases():
    columns = build_design(EXAMPLE_EVEN).columns
    stype = classify_subset(columns, ["F2", "F4", "F11", "F12"])
    assert stype.checks == "0101"
    assert stype.pairs == frozenset({1})
    assert stype.seconds == stype.firsts == frozenset()
    assert stype.f5 is None

    stype = classify_subset(columns, ["F11"])
    assert stype.checks == "0000"
    assert stype.firsts == frozenset({1})

    # A lone Fj2 column is a "second": the pair's other half is absent.
    stype = classify_subset(columns, ["F1", "F2", "F3", "F4", "F22"])
    assert stype.checks == "1111"
    assert stype.seconds == frozenset({2})
    assert stype.firsts == frozenset()

    odd_columns = build_design(EXAMPLE_ODD).columns
    assert classify_subset(odd_columns, ["F5"]).f5 == 1
    assert classify_subset(odd_columns, ["F1"]).f5 == 0

    with pytest.raises(KeyError):
        classify_subset(columns, ["F99"])
    with pytest.raises(ValueError):
        classify_subset(columns, [])


def test_character_sum_single_first_column_vanishes():
    stype = classify_subset(
        build_design(EXAMPLE_EVEN).columns, ["F11"]
    )
    assert character_sum_even(EXAMPLE_EVEN, stype) == 0


def test_character_sum_finds_complete_words():
    design = build_design(EXAMPLE_EVEN)
    table = j_characteristics(design)
    complete = {
        classify_subset(design.columns, table.labels_of(mask)).checks: mask
        for mask, j in table.items()
        if abs(j) == design.n_runs
    }
    # One complete word per check class containing both columns of a pair.
    assert set(complete) == {"1100", "0011", "1111"}
    all_checks = classify_subset(design.columns, table.labels_of(complete["1111"]))
    assert all_checks.size == 6
    assert abs(character_sum_even(EXAMPLE_EVEN, all_checks)) == 1


def test_character_sum_even_agrees_with_j_on_all_subsets():
    rng = random.Random(5)
    specs = [EXAMPLE_EVEN, GeneratorSpec(Family.EIGHTH_EVEN, 3, (3, 0, 2), (1, 2, 2))]
    for _ in range(3):
        specs.append(
            GeneratorSpec(
                Family.SIXTEENTH_EVEN,
                2,
                tuple(rng.randrange(4) for _ in range(2)),
                tuple(rng.randrange(4) for _ in range(2)),
            )
        )
    for spec in specs:
        design = build_design(spec)
        table = j_characteristics(design)
        for mask, j in table.items():
            stype = classify_subset(design.columns, table.labels_of(mask))
            value = character_sum_even(spec, stype)
            assert abs(value) == Fraction(abs(j), design.n_runs)


def test_character_sum_odd_reference_cases():
    design = build_design(EXAMPLE_ODD)
    table = j_characteristics(design)
    length8 = [
        mask
        for mask, j in table.items()
        if abs(j) == design.n_runs and len(table.labels_of(mask)) == 8
    ]
    assert len(length8) == 1
    stype = classify_subset(design.columns, table.labels_of(length8[0]))
    assert character_sum_odd(EXAMPLE_ODD, stype) == 1

    f5_only = classify_subset(design.columns, ["F5"])
    assert character_sum_odd(EXAMPLE_ODD, f5_only) == 0


def test_character_sum_odd_agrees_with_j_on_all_subsets():
    rng = random.Random(9)
    specs = [GeneratorSpec(Family.SIXTEENTH_ODD, 3, (1, 2, 0), (3, 1, 2), 2, 1)]
    for family in (Family.SIXTEENTH_ODD, Family.EIGHTH_ODD):
        specs.append(
            GeneratorSpec(
                family,
                2,
                tuple(rng.randrange(4) for _ in range(2)),
                tuple(rng.randrange(4) for _ in range(2)),
                rng.randrange(4),
                rng.randrange(4),
            )
        )
    for spec in specs:
        design = build_design(spec)
        table = j_characteristics(design)
        for mask, j in table.items():
            stype = classify_subset(design.columns, table.labels_of(mask))
            assert character_sum_odd(spec, stype) == Fraction(abs(j), design.n_runs)


def test_character_sum_family_guards():
    even_type = classify_subset(build_design(EXAMPLE_EVEN).columns, ["F1"])
    with pytest.raises(ValueError):
        character_sum_odd(EXAMPLE_EVEN, even_type)
    odd_type = classify_subset(build_design(EXAMPLE_ODD).columns, ["F1"])
    with pytest.raises(ValueError):
        character_sum_even(EXAMPLE_ODD, odd_type)


def test_projectivity_monotone_levels():
    design = build_design(EXAMPLE_ODD)
    p = projectivity(design)
    flags = [projection_level_full(design, level) for level in range(1, design.n_factors + 1)]
    assert flags == [True] * p + [False] * (design.n_factors - p)


def test_deletion_restricted_spectrum_matches_eighth_design():
    u, v = (2, 1, 1), (1, 1, 3)
    full = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 3, u, v))
    eighth = build_design(GeneratorSpec(Family.EIGHTH_EVEN, 3, u, v))
    restricted = spectrum_bruteforce(full, exclude=["F1"])
    assert restricted == spectrum_bruteforce(eighth)

    full_odd = build_design(EXAMPLE_ODD)
    eighth_odd = build_design(GeneratorSpec(Family.EIGHTH_ODD, 2, (1, 2), (2, 1), 1, 1))
    assert spectrum_bruteforce(full_odd, exclude=["F1"]) == spectrum_bruteforce(eighth_odd)


def test_replicated_rows_are_tolerated():
    rows = [[1, 1], [1, 1], [-1, -1], [-1, 1]]
    design = DesignMatrix(("A", "B"), rows)
    spectrum = spectrum_bruteforce(design)
    assert spectrum.word_count > 0
    assert projectivity(design) == 1


def _levels(design: DesignMatrix) -> list[bool]:
    return [projection_level_full(design, p) for p in range(1, design.n_factors + 1)]


@st.composite
def scannable_designs(draw):
    """Designs at n = 4, 5 with q small enough for the projection scan."""
    family = draw(st.sampled_from(list(Family)))
    sizes = [n for n in (4, 5) if family.factor_count(n) <= SCAN_MAX_FACTORS]
    n = draw(st.sampled_from(sizes))
    classes = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    profile = GeneratorProfile(tuple(classes.count(c) for c in range(10)))
    pair = draw(st.sampled_from(u0v0_classes(family))) if family.branched else None
    return build_design(spec_for(family, profile, pair))


@settings(max_examples=40, deadline=None)
@given(scannable_designs())
def test_projectivity_matches_projection_scan(design):
    assert projectivity(design) == scan_projectivity(design)
    assert _levels(design) == [
        scan_level_full(design, level) for level in range(1, design.n_factors + 1)
    ]


def test_projectivity_matches_projection_scan_on_small_designs():
    tasks = [
        (family, profile, pair)
        for family in Family
        for n in (1, 2, 3)
        for profile in enumerate_profiles(n)
        for pair in (u0v0_classes(family) if family.branched else (None,))
    ]
    for family, profile, pair in random.Random(11).sample(tasks, 300):
        design = build_design(spec_for(family, profile, pair))
        assert projectivity(design) == scan_projectivity(design), (
            family, profile.digits, pair,
        )


def test_shared_table_gives_the_same_answers():
    design = build_design(EXAMPLE_ODD_N3)
    table = j_characteristics(design)
    assert spectrum_bruteforce(design, table=table) == spectrum_bruteforce(design)
    assert projectivity(design, table=table) == projectivity(design)
    assert [
        projection_level_full(design, p, table=table)
        for p in range(1, design.n_factors + 1)
    ] == _levels(design)
