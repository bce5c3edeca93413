"""Brute-force oracle tests: J-characteristics, spectra, projectivity,
and the generator-side character sums."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SCAN_MAX_FACTORS, drop_column, scan_level_full, scan_projectivity
from qcdesign import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    UNBOUNDED,
    build_design,
    j_characteristics,
    projection_level_full,
    projectivity,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
)
from qcdesign.oracle import _subset_sums, _walsh_hadamard
from qcdesign.search import enumerate_profiles, u0v0_classes
from reference_oracles import (
    character_sum_even,
    character_sum_odd,
    classify_subset,
    j_direct,
    subset_sums_direct,
    walsh_hadamard_matrix,
)

EXAMPLE_EVEN = GeneratorSpec(Family.SIXTEENTH_EVEN, 3, (2, 1, 1), (1, 1, 3))
EXAMPLE_ODD = GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1)
EXAMPLE_ODD_N3 = GeneratorSpec(Family.SIXTEENTH_ODD, 3, (1, 2, 0), (3, 1, 2), 2, 1)


def mask_of(design: DesignMatrix, labels) -> int:
    return sum(1 << design.columns.index(label) for label in labels)


def labels_of(design: DesignMatrix, mask: int) -> tuple[str, ...]:
    return tuple(c for i, c in enumerate(design.columns) if mask >> i & 1)


def words(design: DesignMatrix):
    """(labels, J) of every nonempty column subset."""
    values = j_characteristics(design).values.tolist()
    return [(labels_of(design, mask), values[mask]) for mask in range(1, len(values))]


def oracle_metrics(design: DesignMatrix):
    """Resolution, wordlength pattern and projectivity by brute force."""
    table = j_characteristics(design)
    spectrum = spectrum_bruteforce(design, table=table)
    resolution, wlp = spectrum_metrics(spectrum, design.n_factors)
    return resolution, wlp, projectivity(design, table=table)


def full_factorial(k: int) -> DesignMatrix:
    rows = [[1 - 2 * ((i >> b) & 1) for b in range(k)] for i in range(2**k)]
    return DesignMatrix(tuple(f"X{b}" for b in range(k)), rows)


def test_full_factorial_has_zero_j_characteristics():
    design = full_factorial(3)
    table = j_characteristics(design)
    assert not table.values[1:].any()


def test_constant_column_j_equals_run_count():
    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,)))
    table = j_characteristics(design)
    assert table.values[mask_of(design, ["F1"])] == 4


def test_example_design_complete_words():
    design = build_design(EXAMPLE_EVEN)
    n = design.n_runs
    sizes = sorted(len(labels) for labels, j in words(design) if abs(j) == n)
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
            assert table.values[mask_of(design, subset)] == j_direct(design, subset)


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
    resolution, wlp, proj = oracle_metrics(build_design(EXAMPLE_EVEN))
    assert resolution == Fraction(9, 2)
    assert wlp == tuple(Fraction(a) for a in (0, 0, 0, 2, 8, 4, 0, 1, 0, 0))
    assert proj == 5

    resolution, wlp, proj = oracle_metrics(build_design(EXAMPLE_ODD))
    assert resolution == Fraction(9, 2)
    assert wlp == tuple(Fraction(a) for a in (0, 0, 0, 6, 8, 0, 0, 1, 0))
    assert proj == 4

    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 2, (1, 2), (2, 1)))
    resolution, wlp, proj = oracle_metrics(design)
    assert resolution == Fraction(4)
    assert wlp == tuple(Fraction(a) for a in (0, 0, 0, 14, 0, 0, 0, 1))
    assert proj == 3


def test_full_factorial_metrics_unbounded():
    resolution, wlp, proj = oracle_metrics(full_factorial(3))
    assert resolution is UNBOUNDED
    assert proj == 3
    assert all(a == 0 for a in wlp)


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
        lambda: spectrum_bruteforce(design, max_factors=8),
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
    complete = {
        classify_subset(design.columns, labels).checks: labels
        for labels, j in words(design)
        if abs(j) == design.n_runs
    }
    # One complete word per check class containing both columns of a pair.
    assert set(complete) == {"1100", "0011", "1111"}
    all_checks = classify_subset(design.columns, complete["1111"])
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
        for labels, j in words(design):
            stype = classify_subset(design.columns, labels)
            value = character_sum_even(spec, stype)
            assert abs(value) == Fraction(abs(j), design.n_runs)


def test_character_sum_odd_reference_cases():
    design = build_design(EXAMPLE_ODD)
    length8 = [
        labels
        for labels, j in words(design)
        if abs(j) == design.n_runs and len(labels) == 8
    ]
    assert len(length8) == 1
    stype = classify_subset(design.columns, length8[0])
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
        for labels, j in words(design):
            stype = classify_subset(design.columns, labels)
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
    restricted = spectrum_bruteforce(drop_column(full, "F1"))
    assert restricted == spectrum_bruteforce(eighth)

    full_odd = build_design(EXAMPLE_ODD)
    eighth_odd = build_design(GeneratorSpec(Family.EIGHTH_ODD, 2, (1, 2), (2, 1), 1, 1))
    assert spectrum_bruteforce(drop_column(full_odd, "F1")) == spectrum_bruteforce(eighth_odd)


def test_replicated_rows_are_tolerated():
    rows = [[1, 1], [1, 1], [-1, -1], [-1, 1]]
    design = DesignMatrix(("A", "B"), rows)
    spectrum = spectrum_bruteforce(design)
    assert spectrum.word_count > 0
    assert projectivity(design) == 1


def _levels(design: DesignMatrix) -> list[bool]:
    return [projection_level_full(design, p) for p in range(1, design.n_factors + 1)]


@st.composite
def designs(draw, sizes):
    """Designs of any family at n in ``sizes``, with q small enough for the
    projection scan."""
    family = draw(st.sampled_from(list(Family)))
    sizes = [n for n in sizes if family.factor_count(n) <= SCAN_MAX_FACTORS]
    n = draw(st.sampled_from(sizes))
    classes = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    profile = GeneratorProfile(tuple(classes.count(c) for c in range(10)))
    pair = draw(st.sampled_from(u0v0_classes(family))) if family.branched else None
    return build_design(spec_for(family, profile, pair))


@settings(max_examples=40, deadline=None)
@given(designs((4, 5)))
def test_projectivity_matches_projection_scan(design):
    assert projectivity(design) == scan_projectivity(design)
    assert _levels(design) == [
        scan_level_full(design, level) for level in range(1, design.n_factors + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(designs((1, 2, 3)), st.data())
def test_spectrum_invariant_under_column_permutation_and_sign_flips(design, data):
    # |J(S)| is unchanged when columns are reordered or any column is negated.
    q = design.n_factors
    order = data.draw(st.permutations(range(q)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=q, max_size=q))
    rows = design.rows[:, order] * np.array(signs, dtype=np.int8)
    moved = DesignMatrix(tuple(design.columns[i] for i in order), rows)
    assert spectrum_bruteforce(moved) == spectrum_bruteforce(design)


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


def test_projection_cells_past_int32_are_widened():
    # A full 2^16 factorial plus 2^16 - 1 more copies of its all-+1 run: the
    # 16-column projection is full, and its all-+1 cell, 2^16 times the
    # frequency 2^16, would wrap to 0 in int32.
    full = full_factorial(16)
    rows = np.concatenate([full.rows, np.ones(((1 << 16) - 1, 16), dtype=np.int8)])
    design = DesignMatrix(full.columns, rows)
    assert design.n_runs << 16 > np.iinfo(np.int32).max
    assert projection_level_full(design, 16)
    assert projectivity(design) == 16


def test_shared_table_gives_the_same_answers():
    design = build_design(EXAMPLE_ODD_N3)
    table = j_characteristics(design)
    assert spectrum_bruteforce(design, table=table) == spectrum_bruteforce(design)
    assert projectivity(design, table=table) == projectivity(design)
    assert [
        projection_level_full(design, p, table=table)
        for p in range(1, design.n_factors + 1)
    ] == _levels(design)


@st.composite
def stacks(draw, high, lengths=range(11)):
    """A stack of 1 to 5 rows of 2^k integers drawn from 0..high, int32 or
    int64, with k in ``lengths`` (lengths below the transposed block width
    included)."""
    k = draw(st.sampled_from(lengths))
    rows = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from((np.int32, np.int64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, high, size=(rows, 1 << k), endpoint=True).astype(dtype)


@settings(max_examples=80, deadline=None)
@given(stacks(1 << 20), st.booleans())
def test_walsh_hadamard_equals_the_matrix_product(a, centred):
    # Entries of at most 2^20 in magnitude keep every partial sum of up to
    # 2^10 of them inside int32.
    if centred:
        a -= 1 << 19
    assert np.array_equal(_walsh_hadamard(a.copy()), walsh_hadamard_matrix(a))


@settings(max_examples=80, deadline=None)
@given(stacks(1 << 16))
def test_subset_sums_equal_the_submask_sums(a):
    cap = int(a.max()) * 2 + 1
    got, want = _subset_sums(a.copy(), cap), subset_sums_direct(a)
    assert np.array_equal(np.minimum(got, cap), np.minimum(want, cap))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(-(1 << 10), 1 << 10),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_subset_sums_clip_keeps_the_threshold_test(rows, offset, shift, seed):
    # With a cap near 2^27 the int32 sums of a q = 8 table could pass 2^31
    # after four stages, so the clip runs: before stage 4, or before stages
    # 3 and 6 from 2^27 on.  The test >= cap must equal the int64 one.
    cap = (1 << 27) + offset
    rng = np.random.default_rng(seed)
    a = rng.integers(0, cap >> shift, size=(rows, 1 << 8), endpoint=True).astype(np.int32)
    a[rng.random(a.shape) < 0.5] = 0
    got, want = _subset_sums(a.copy(), cap), subset_sums_direct(a)
    assert np.array_equal(got >= cap, want >= cap)
    assert np.array_equal(np.minimum(got, cap), np.minimum(want, cap))
