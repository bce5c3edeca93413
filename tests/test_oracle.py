"""Brute-force oracle tests: J-characteristics, spectra, projectivity,
and the generator-side character sums."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SCAN_MAX_FACTORS, drop_column, scan_level_full, scan_projectivity
from qcdesign import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    UNBOUNDED,
    build_design,
    j_characteristics,
    projectivity,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
)
from qcdesign import oracle
from qcdesign.oracle import (
    _subset_sums,
    _table_dtype,
    _walsh_hadamard,
    j_table_chunks,
    projection_level_full,
)
from qcdesign.qc_core import realize_profiles
from qcdesign.search import enumerate_profiles, profile_array, u0v0_classes
from qcdesign.theory import family_spectrum, normalize_u0v0
from reference_oracles import (
    character_sum_even,
    character_sum_odd,
    classify_subset,
    j_direct,
    sign_patterns_bits,
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
    values = j_characteristics(design).values[0].tolist()
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
    assert not table.values[0, 1:].any()


def test_constant_column_j_equals_run_count():
    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,)))
    table = j_characteristics(design)
    assert table.values[0, mask_of(design, ["F1"])] == 4


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
            assert table.values[0, mask_of(design, subset)] == j_direct(design, subset)


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
    assert spectrum_bruteforce(full_factorial(4)).entries == ()


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
    with pytest.raises(ValueError, match="above the cap of 8"):
        j_characteristics(design, max_factors=8)
    # The cap is raised through the table the other functions take.
    table = j_characteristics(design, max_factors=design.n_factors)
    assert projectivity(design, table) == projectivity(design)


def test_factor_cap_refuses_before_the_projection_tables():
    spec = spec_for(Family.SIXTEENTH_ODD, GeneratorProfile.from_digits("2222000000"), (1, 2))
    design = build_design(spec)
    assert design.n_factors == 21
    for check in (
        lambda: projectivity(design),
        lambda: projection_level_full(design, 4),
        lambda: spectrum_bruteforce(design),
    ):
        with pytest.raises(ValueError, match="above the cap of 20"):
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


@st.composite
def sign_matrices(draw, max_q=8):
    """Arbitrary +1/-1 matrices with q <= max_q, not QC designs: random runs,
    a run count that need not be a power of two, repeated runs, a constant
    column, or a full factorial, which has no word."""
    q = draw(st.integers(1, max_q))
    if draw(st.booleans()):
        codes = list(range(1 << q))
    else:
        codes = draw(st.lists(st.integers(0, (1 << q) - 1), min_size=1, max_size=48))
    codes += draw(st.lists(st.sampled_from(codes), max_size=8))
    rows = 1 - 2 * ((np.array(codes)[:, None] >> np.arange(q)) & 1)
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, q - 1))] = draw(st.sampled_from((1, -1)))
    return DesignMatrix(tuple(f"X{i}" for i in range(q)), rows)


@settings(max_examples=100, deadline=None)
@given(sign_matrices())
def test_projectivity_matches_projection_scan_on_sign_matrices(design):
    # Full words certify deficient levels of loaded documents too.
    assert projectivity(design) == scan_projectivity(design)
    assert _levels(design) == [
        scan_level_full(design, level) for level in range(1, design.n_factors + 1)
    ]


@settings(max_examples=100, deadline=None)
@given(sign_matrices(max_q=7), st.data())
def test_first_deficient_returns_the_first_deficient_subset(design, data):
    # The reference scan's own contract, on which perfbench/make_reference.py
    # relies: the lexicographically first deficient p-subset, or None, for any
    # batch size (one subset per batch when chunk_elems is 1).
    q = design.n_factors
    p = data.draw(st.integers(1, q))
    patterns = oracle._distinct_patterns(design)
    first = next((
        subset for subset in combinations(range(q), p)
        if len({x & sum(1 << c for c in subset) for x in patterns.tolist()}) < 1 << p
    ), None)
    for chunk_elems in (1, 7, 1 << 22):
        assert oracle._first_deficient(patterns, q, p, chunk_elems) == first


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
        for pair in u0v0_classes(family)
    ]
    for family, profile, pair in random.Random(11).sample(tasks, 300):
        design = build_design(spec_for(family, profile, pair))
        assert projectivity(design) == scan_projectivity(design), (
            family, profile.digits, pair,
        )


def _floor_survivors(family: Family, counts: np.ndarray, pairs: tuple) -> int:
    """Assert that no column set the projection filter keeps (``reach``) of
    the designs (counts[i], pairs[j]) has ceil(R) - 1 or fewer columns, R
    from the closed-form spectrum; return how many designs have a floor of 1
    or more."""
    floored = 0
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    for p, c, table in j_table_chunks(family, counts, pairs, *every):
        q = len(table.columns)
        floor = np.full(p.size, q)  # no words, no survivors
        for d, (i, j) in enumerate(zip(p.tolist(), c.tolist())):
            profile = GeneratorProfile(tuple(counts[i].tolist()))
            resolution, _ = spectrum_metrics(family_spectrum(family, profile, pairs[j]), q)
            if resolution is not UNBOUNDED:
                floor[d] = math.ceil(resolution) - 1
        design, masks = np.nonzero(table.reach)
        assert (np.bitwise_count(masks) > floor[design]).all(), (family, p, c)
        floored += int((floor >= 1).sum())
    return floored


def test_no_survivor_lies_at_or_below_the_resolution_floor():
    # Why verify needs no check of projectivity >= ceil(R) - 1: see
    # oracle.JTable.  Every family, profile and u0v0 class at n <= 2.
    floored = sum(
        _floor_survivors(family, profile_array(n), u0v0_classes(family))
        for family in Family for n in (1, 2)
    )
    assert floored == 1399  # of the 1690 designs; the rest have no floor


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Family)), st.data())
def test_no_survivor_lies_at_or_below_the_resolution_floor_at_n_3_4(family, data):
    n = data.draw(st.sampled_from((3, 4)))
    classes = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    counts = np.array([[classes.count(k) for k in range(10)]])
    pair = data.draw(st.sampled_from(u0v0_classes(family)))
    _floor_survivors(family, counts, (pair,))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 10),
    st.sampled_from((1, 12, 1 << 13, (1 << 14) - 1)),
    st.sampled_from((np.int16, np.int32)),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)
def test_reach_marks_the_sets_whose_subset_sums_reach_n(rows, k, n_runs, dtype, shift, seed):
    # The filter sums in the table's own dtype; at N = 2^13 and 2^14 - 1 the
    # int16 sums clip before every stage.  Smaller entries (shift) leave
    # sets on both sides of N.
    rng = np.random.default_rng(seed)
    high = n_runs >> min(shift, n_runs.bit_length() - 1)
    values = rng.integers(-high, high, size=(rows, 1 << k), endpoint=True)
    values[rng.random(values.shape) < 0.5] = 0
    table = oracle.JTable(tuple(f"X{i}" for i in range(k)), n_runs, values.astype(dtype))
    sums = np.abs(values)
    sums[:, 0] = 0  # J(empty) = N is no term of the filter
    assert table.reach.shape == values.shape
    assert np.array_equal(table.reach, subset_sums_direct(sums) >= n_runs)


def test_projectivity_peak_stays_small_on_sixteenth_odd_n_4():
    # The filter is one bool per column set; only the sets of the level in
    # question are listed, one level at a time.
    family = Family.SIXTEENTH_ODD
    counts, pairs = profile_array(4), u0v0_classes(family)
    every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
    peak = 0
    for _, _, table in j_table_chunks(family, counts, pairs, *every):
        tracemalloc.start()
        try:
            table.projectivity()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peak < 1.1 * 2**20


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
    # The same past int16: a full 2^8 factorial plus 255 more all-+1 runs
    # keeps N = 511 and an int16 table, and the all-+1 cell, 2^8 times the
    # frequency 2^8, would wrap to 0.
    full = full_factorial(8)
    rows = np.concatenate([full.rows, np.ones((255, 8), dtype=np.int8)])
    design = DesignMatrix(full.columns, rows)
    assert j_characteristics(design).values.dtype == np.int16
    assert design.n_runs << 8 > np.iinfo(np.int16).max
    assert projection_level_full(design, 8)
    assert projectivity(design) == 8


@pytest.mark.parametrize("n_runs", [1 << 13, (1 << 14) - 1])
def test_one_hot_tables_transform_to_plus_minus_n_in_int16(n_runs):
    # All N runs on one pattern x: every J is (-1)^popcount(s & x) N, and the
    # butterfly's high *= -2 reaches 2N, the most an int16 table must hold.
    assert _table_dtype(n_runs) == np.int16 and _table_dtype(1 << 14) == np.int32
    q, x = 16, 0b1011_0110_0101_1001
    freq = np.zeros(1 << q, dtype=_table_dtype(n_runs))
    freq[x] = n_runs
    signs = 1 - 2 * (np.bitwise_count(np.arange(1 << q) & x) & 1).astype(np.int64)
    assert np.array_equal(_walsh_hadamard(freq), n_runs * signs)


def _design_of_patterns(patterns: np.ndarray, q: int) -> DesignMatrix:
    """The runs whose sign patterns (see ``oracle.sign_patterns``) are given."""
    rows = 1 - 2 * ((patterns[:, None] >> np.arange(q)) & 1)
    return DesignMatrix(tuple(f"X{i}" for i in range(q)), rows)


def _int64_table(design: DesignMatrix) -> np.ndarray:
    freq = np.bincount(oracle.sign_patterns(design.rows), minlength=1 << design.n_factors)
    return _walsh_hadamard(freq.astype(np.int64)[None])


@pytest.mark.parametrize("n_runs", [1 << 14, (1 << 15) + 3, 1 << 16])
def test_one_hot_tables_past_int16_are_tallied_in_int32(n_runs):
    # One cell holding 2^14 runs or more: the table is int32, and every J is
    # (-1)^popcount(s & x) N.
    q, x = 16, 0b1011_0110_0101_1001
    design = _design_of_patterns(np.full(n_runs, x), q)
    table = j_characteristics(design).values
    assert table.dtype == np.int32
    assert np.array_equal(table, _int64_table(design))
    assert set(np.abs(table[0]).tolist()) == {n_runs}


@pytest.mark.parametrize(
    "family, n, dtype",
    [(Family.EIGHTH_ODD, 6, np.int16), (Family.SIXTEENTH_EVEN, 7, np.int32)],
)
def test_code_tables_match_the_matrix_tables_at_the_int16_border(family, n, dtype):
    # N = 2^13 and 2^14, the run counts on both sides of the dtype border.
    classes = [1, 2, 3, 4, 5, 6, 2][:n]
    counts = np.array([[classes.count(k) for k in range(10)]])
    pair = u0v0_classes(family)[-1]
    one = np.zeros(1, dtype=int)
    [(_, _, table)] = j_table_chunks(family, counts, (pair,), one, one)
    design = build_design(spec_for(family, GeneratorProfile(tuple(counts[0].tolist())), pair))
    matrix = j_characteristics(design)
    assert table.values.dtype == matrix.values.dtype == dtype
    assert np.array_equal(table.values, matrix.values)


@pytest.mark.parametrize(
    "family, n, dtype, stack",
    [(Family.EIGHTH_ODD, 6, np.int16, 2), (Family.EIGHTH_ODD, 6, np.int16, 3),
     (Family.SIXTEENTH_EVEN, 7, np.int32, 2), (Family.SIXTEENTH_EVEN, 7, np.int32, 3)],
)
def test_code_tables_of_stacks_match_the_matrix_tables_at_the_int16_border(
    family, n, dtype, stack
):
    # At N = 2^13 and 2^14 a chunk of the default budget holds one design,
    # so only a direct call makes the stage-major rows 2 or 3 x 32 entries
    # wide on both sides of the dtype border.  The designs differ in profile
    # and, for the odd-run family, in u0v0.
    classes = [[1, 2, 3, 4, 5, 6, 2], [0, 0, 7, 8, 9, 3, 5], [4, 6, 6, 1, 8, 0, 2]][:stack]
    counts = np.array([[c[:n].count(k) for k in range(10)] for c in classes])
    every_pair = u0v0_classes(family)  # (None,) for the even-run family
    pairs = [every_pair[i % len(every_pair)] for i in (-1, 0, 3)][:stack]
    u, v = realize_profiles(counts)
    values = oracle.code_tables(family, n, u, v, np.array(pairs))
    assert values.shape == (stack, 1 << family.factor_count(n))
    assert values.dtype == dtype
    for row, profile, pair in zip(values, counts, pairs):
        spec = spec_for(family, GeneratorProfile(tuple(profile.tolist())), pair)
        assert np.array_equal(row, j_characteristics(build_design(spec)).values[0])


def _filter_builds(monkeypatch) -> list:
    """The calls of the projection filter's subset-sum transform, from now on."""
    real, calls = oracle._subset_sums, []
    monkeypatch.setattr(oracle, "_subset_sums", lambda *a: calls.append(a) or real(*a))
    return calls


def test_projectivity_builds_no_filter_when_the_shortest_word_is_full(monkeypatch):
    # A shortest word of length r with |J| = N bounds projectivity by r - 1
    # from above and from below (the floor r - [top == N]), so no level is
    # searched.  The designs are those of the benchmark's oracle pools.
    path = Path(__file__).parents[1] / "perfbench" / "reference" / "oracle_docs.json"
    calls, settled = _filter_builds(monkeypatch), 0
    one = np.zeros(1, dtype=int)
    for size in json.loads(path.read_text())["sizes"]:
        family = Family.from_label(size["family"])
        for member in size["pool"]:
            r = min(length for length, _, _ in member["spectrum"])
            if [r, "1"] not in [entry[:2] for entry in member["spectrum"]]:
                continue
            counts = np.array([GeneratorProfile.from_digits(member["profile"]).counts])
            pair = member["u0v0"] and normalize_u0v0(member["u0v0"])
            [(_, _, table)] = j_table_chunks(family, counts, (pair,), one, one)
            assert table.projectivity().tolist() == [r - 1]
            assert member["projectivity"] in (None, r - 1)
            settled += 1
    assert (settled, calls) == (15, [])


def test_stacked_projectivity_matches_the_projection_scan_at_n_up_to_3():
    for family in Family:
        pairs = u0v0_classes(family)
        for n in (1, 2, 3):
            counts = profile_array(n)
            every = np.divmod(np.arange(len(counts) * len(pairs)), len(pairs))
            for p, c, table in j_table_chunks(family, counts, pairs, *every):
                got = table.projectivity().tolist()
                want = [
                    scan_projectivity(build_design(spec_for(
                        family, GeneratorProfile(tuple(counts[i].tolist())), pairs[j]
                    )))
                    for i, j in zip(p.tolist(), c.tolist())
                ]
                assert got == want, (family, n)


def test_projection_level_refuses_p_outside_1_to_q():
    design = full_factorial(3)
    for p in (0, 4):
        with pytest.raises(ValueError, match=r"^p must lie in 1\.\.q$"):
            projection_level_full(design, p)


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
def stacks(draw, high, lengths=range(11), dtypes=(np.int32, np.int64)):
    """A stack of 1 to 5 rows of 2^k integers drawn from 0..high, of a dtype
    in ``dtypes``, with k in ``lengths`` (lengths below the transposed block
    width included)."""
    k = draw(st.sampled_from(lengths))
    rows = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from(dtypes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, high, size=(rows, 1 << k), endpoint=True).astype(dtype)


def _example_stack(k: int, rows: int = 3, dtype: type = np.int16) -> np.ndarray:
    return np.random.default_rng(k).integers(0, 3, size=(rows, 1 << k), endpoint=True).astype(dtype)


@settings(max_examples=80, deadline=None)
@given(stacks(1 << 20), st.booleans())
# 2^10 and 2^11 entries leave an odd and an even number of stages at and
# above the width of 2^5; 2^17 entries split their top quarters.
@example(_example_stack(10, dtype=np.int32), True)
@example(_example_stack(11, dtype=np.int32), True)
@example(_example_stack(17, rows=1, dtype=np.int32), False)
def test_walsh_hadamard_equals_the_matrix_product(a, centred):
    # Entries of at most 2^20 in magnitude keep every partial sum of up to
    # 2^10 of them inside int32, and the examples' entries, at most 2^19,
    # every partial sum of up to 2^11.
    if centred:
        a -= 1 << 19
    assert np.array_equal(_walsh_hadamard(a.copy()), walsh_hadamard_matrix(a))


@settings(max_examples=80, deadline=None)
@given(stacks(3, range(14), (np.int16,)), st.booleans())
# 2^13 and 2^12 entries leave an even and an odd number of stages at and
# above the width of 2^5; 2^3 entries are narrower than the width, and
# 2^6 leave one stage above it.  16 x 2^13 entries take two blocks of
# 2^16 per stage pair.
@example(_example_stack(13), True)
@example(_example_stack(12), False)
@example(_example_stack(3), False)
@example(_example_stack(6), True)
@example(_example_stack(13, rows=16), True)
def test_walsh_hadamard_equals_the_matrix_product_on_int16_stacks(a, centred):
    # Entries of at most 3 in magnitude keep every partial sum of up to 2^13
    # of them inside int16.
    if centred:
        a -= 1
    assert np.array_equal(_walsh_hadamard(a.copy()), walsh_hadamard_matrix(a))


@st.composite
def tallies(draw, max_bits=12, max_total=(1 << 24) - 1):
    """A tally of 2^k nonnegative run counts, k <= ``max_bits``, with a total
    of at most ``max_total``, spread thin or piled on a few cells."""
    k = draw(st.integers(0, max_bits))
    total = draw(st.integers(0, max_total))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = rng.dirichlet(np.full(1 << k, 10.0 ** draw(st.floats(-3, 1))))
    return rng.multinomial(total, shares)


def _tally_table(tally: np.ndarray) -> np.ndarray:
    cells = np.flatnonzero(tally)
    return oracle._tally_table(cells, tally[cells], tally.size.bit_length() - 1)


@settings(max_examples=120, deadline=None)
@given(tallies())
# One cell of 2^24 - 1 runs: every J is +-(2^24 - 1), the most float32
# holds exactly; 2^19 cells take two radix-2 stages above the sub-tables
# of 2^17, 2^15 and 2^12 split into four digits, not three, and 2^17
# cells of fewer than 2^14 runs convert to int16 in two blocks.
@example(np.eye(1, 1 << 10, 5, dtype=np.int64)[0] * ((1 << 24) - 1))
@example(np.random.default_rng(19).multinomial((1 << 24) - 1, np.full(1 << 19, 2.0**-19)))
@example(np.random.default_rng(17).multinomial((1 << 14) - 1, np.full(1 << 17, 2.0**-17)))
@example(np.random.default_rng(15).multinomial(1 << 20, np.full(1 << 15, 2.0**-15)))
@example(np.random.default_rng(12).integers(0, 4096, 1 << 12))
def test_tally_tables_equal_the_matrix_product(tally):
    # Totals below 2^24 run in float32; every J-value is exact and lands in
    # the table dtype of the run count.
    values = _tally_table(tally)
    assert values.dtype == _table_dtype(int(tally.sum()))
    assert np.array_equal(values, walsh_hadamard_matrix(tally))


@pytest.mark.parametrize("tally", [
    [1 << 24, 1], [(1 << 24) - 1, 0, 1, 1], [1 << 30, 3, 0, 5],
    # two blocks of 2^16 entries to convert from float64 to int32 in place
    np.random.default_rng(24).multinomial((1 << 24) + 1, np.full(1 << 17, 2.0**-17)),
])
def test_tallies_of_2_24_runs_or_more_are_transformed_in_float64(tally):
    # Float32 would round a J-value of an odd 2^24 + 1 or more to an even one.
    tally = np.array(tally)
    assert int(np.float32(tally.sum())) != tally.sum()
    values = _tally_table(tally)
    assert values.dtype == np.int32
    assert np.array_equal(values, walsh_hadamard_matrix(tally))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 30), st.integers(0, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(30, (1 << 16) // 30 + 5, 0, 1)  # more runs than one block of 2^16 entries
def test_sign_patterns_equal_the_bit_loop(q, runs, stack, seed):
    # Random +-1 stacks of 0..3 designs (none: one plain matrix), int64 and
    # bit for bit; the codes that j_characteristics tallies agree, float32
    # up to q = 24 and int64 past it.
    shape = (stack, runs, q) if stack else (runs, q)
    rows = (1 - 2 * np.random.default_rng(seed).integers(0, 2, shape)).astype(np.int8)
    patterns = oracle.sign_patterns(rows)
    assert patterns.dtype == np.int64
    assert np.array_equal(patterns, sign_patterns_bits(rows))
    codes = oracle._pattern_codes(rows)
    assert codes.dtype == (np.float32 if q <= 24 else np.int64)
    assert np.array_equal(codes.astype(np.int64), patterns)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10), st.sampled_from((np.int16, np.int32)),
       st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_words_equal_a_two_dimensional_nonzero(designs, q, dtype, density, seed):
    # Signed entries of either table dtype, a share ``density`` of them
    # nonzero; column 0, J(empty), is no word.
    rng = np.random.default_rng(seed)
    top = np.iinfo(dtype).max
    values = rng.integers(-top, top, size=(designs, 1 << q), endpoint=True).astype(dtype)
    values[rng.random(values.shape) >= density] = 0
    table = oracle.JTable(tuple(f"X{i}" for i in range(q)), 1 << 13, values)
    design, masks = np.nonzero(values)
    design, masks = design[masks != 0], masks[masks != 0]
    want = (design, np.bitwise_count(masks), np.abs(values[design, masks].astype(np.int64)))
    got = table.words
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@settings(max_examples=80, deadline=None)
@given(stacks(1 << 16))
def test_subset_sums_equal_the_submask_sums(a):
    cap = int(a.max()) * 2 + 1
    got, want = _subset_sums(a.copy(), cap), subset_sums_direct(a)
    assert np.array_equal(np.minimum(got, cap), np.minimum(want, cap))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_subset_sums_stay_exact_in_int16_below_cap_2_14(rows, k, seed):
    # The largest int16 table's cap, N = 2^14 - 1: clipping before every
    # stage keeps each sum at most 2 * cap = 32766.
    cap = (1 << 14) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(0, cap, size=(rows, 1 << k), endpoint=True).astype(np.int16)
    a[rng.random(a.shape) < 0.5] = 0
    got, want = _subset_sums(a.copy(), cap), subset_sums_direct(a)
    assert np.array_equal(got >= cap, want >= cap)
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
