"""Construction-side tests: Gray map, design building, profiles."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

from conftest import GRAY_PAIRS, drop_column, reference_rows
from qcdesign import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    build_design,
    column_labels,
    profile_of,
    spec_for,
)
from qcdesign.qc_core import GRAY

ALL_FAMILIES = list(Family)


def test_gray_map_values():
    assert list(map(tuple, GRAY.tolist())) == [GRAY_PAIRS[k] for k in range(4)]


def test_family_shapes():
    # The README family table: runs N, factors q, and the 2^{q-k} fraction.
    table = {
        Family.SIXTEENTH_EVEN: (0, 4), Family.EIGHTH_EVEN: (0, 3),
        Family.SIXTEENTH_ODD: (1, 4), Family.EIGHTH_ODD: (1, 3),
    }
    for family, (odd, checks) in table.items():
        assert family.checks == checks
        for n in range(1, 11):
            q = 2 * n + odd + checks
            assert family.run_count(n) == 2 ** (2 * n + odd)
            assert family.factor_count(n) == q
            assert family.label(n) == f"2^{{{q}-{checks}}}"
    assert Family.SIXTEENTH_EVEN.run_count(3) == 64
    assert Family.SIXTEENTH_EVEN.factor_count(3) == 10
    assert Family.EIGHTH_EVEN.factor_count(3) == 9
    assert Family.SIXTEENTH_ODD.run_count(2) == 32
    assert Family.SIXTEENTH_ODD.factor_count(2) == 9
    assert Family.EIGHTH_ODD.factor_count(2) == 8
    assert Family.EIGHTH_ODD.label(2) == "2^{8-3}"


def test_zero_generator_design_is_constant_on_checks():
    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,)))
    assert design.rows.shape == (4, 6)
    assert np.all(design.rows[:, :4] == 1)


def test_reference_example_design_shape():
    design = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 3, (2, 1, 1), (1, 1, 3)))
    assert design.rows.shape == (64, 10)
    assert design.columns == (
        "F1", "F2", "F3", "F4", "F11", "F12", "F21", "F22", "F31", "F32",
    )


def test_branched_design_matches_independent_row_evaluation():
    spec = GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1)
    design = build_design(spec)
    assert design.rows.shape == (32, 9)
    f5 = design.rows[:, design.columns.index("F5")]
    assert np.all(f5[:16] == 1) and np.all(f5[16:] == -1)
    assert design.rows.tolist() == reference_rows(spec)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_build_matches_independent_row_evaluation(family):
    rng = random.Random(7)
    for n in (1, 2, 3):
        u = tuple(rng.randrange(4) for _ in range(n))
        v = tuple(rng.randrange(4) for _ in range(n))
        if family.branched:
            spec = GeneratorSpec(family, n, u, v, rng.randrange(4), rng.randrange(4))
        else:
            spec = GeneratorSpec(family, n, u, v)
        assert build_design(spec).rows.tolist() == reference_rows(spec)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rows_distinct_exhaustively_small(family):
    for n in (1, 2):
        for u in product(range(4), repeat=n):
            for v in product(range(4), repeat=n):
                if family.branched:
                    spec = GeneratorSpec(family, n, u, v, 1, 2)
                else:
                    spec = GeneratorSpec(family, n, u, v)
                design = build_design(spec)
                patterns = {tuple(row) for row in design.rows.tolist()}
                assert len(patterns) == design.n_runs


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rows_distinct_sampled_larger(family):
    rng = random.Random(13)
    for n in (3, 4):
        for _ in range(3):
            u = tuple(rng.randrange(4) for _ in range(n))
            v = tuple(rng.randrange(4) for _ in range(n))
            if family.branched:
                spec = GeneratorSpec(family, n, u, v, rng.randrange(4), rng.randrange(4))
            else:
                spec = GeneratorSpec(family, n, u, v)
            design = build_design(spec)
            rows = design.rows
            assert len(np.unique(rows.view(np.uint8).reshape(rows.shape[0], -1), axis=0)) == design.n_runs


def test_gray_consistency_per_run():
    spec = GeneratorSpec(Family.SIXTEENTH_EVEN, 3, (2, 1, 1), (1, 1, 3))
    design = build_design(spec)
    for index in range(design.n_runs):
        digits = [(index >> (2 * (spec.n - 1 - j))) & 3 for j in range(spec.n)]
        for j in range(1, spec.n + 1):
            pair = (
                design.rows[index, design.columns.index(f"F{j}1")],
                design.rows[index, design.columns.index(f"F{j}2")],
            )
            assert tuple(pair) == GRAY_PAIRS[digits[j - 1]]


def test_eighth_matrices_equal_sixteenth_minus_first_column():
    u, v = (2, 1, 1), (1, 1, 3)
    full = build_design(GeneratorSpec(Family.SIXTEENTH_EVEN, 3, u, v))
    eighth = build_design(GeneratorSpec(Family.EIGHTH_EVEN, 3, u, v))
    assert eighth.columns == drop_column(full, "F1").columns
    assert np.array_equal(eighth.rows, drop_column(full, "F1").rows)

    full_odd = build_design(GeneratorSpec(Family.SIXTEENTH_ODD, 2, (1, 2), (2, 1), 1, 1))
    eighth_odd = build_design(GeneratorSpec(Family.EIGHTH_ODD, 2, (1, 2), (2, 1), 1, 1))
    assert np.array_equal(eighth_odd.rows, drop_column(full_odd, "F1").rows)


def test_build_design_rejects_bad_specs():
    with pytest.raises(ValueError):
        GeneratorSpec(Family.SIXTEENTH_EVEN, 0, (), ())
    with pytest.raises(ValueError):
        GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (4,), (0,))
    with pytest.raises(ValueError):
        GeneratorSpec(Family.SIXTEENTH_EVEN, 1, (0,), (0,), 1, 1)
    with pytest.raises(ValueError):
        GeneratorSpec(Family.SIXTEENTH_ODD, 1, (0,), (0,))
    with pytest.raises(ValueError):
        GeneratorSpec(Family.SIXTEENTH_ODD, 2, (0,), (0, 1), 1, 1)


def test_generator_spec_refuses_non_integers_and_takes_numpy_integers():
    # Non-integer entries are refused, not truncated: (1.5,) must not build u = (1,).
    for n, u, v, pair in (
        (1, (1.5,), (0,), ()),
        (1, (1,), ("0",), ()),
        (1.0, (1,), (0,), ()),
        (1, (1,), (0,), (1.0, 1)),
    ):
        family = Family.SIXTEENTH_ODD if pair else Family.SIXTEENTH_EVEN
        with pytest.raises(ValueError, match="cannot be interpreted as an integer"):
            GeneratorSpec(family, n, u, v, *pair)
    spec = GeneratorSpec(
        Family.SIXTEENTH_ODD, np.int64(1), (np.int8(1),), (np.uint8(0),),
        np.int32(2), np.int16(1),
    )
    assert (spec.n, spec.u, spec.v, spec.u0v0) == (1, (1,), (0,), (2, 1))
    assert all(type(x) is int for x in (spec.n, *spec.u, *spec.v, *spec.u0v0))
    assert build_design(spec).rows.shape == (8, 7)


def test_generator_profile_refuses_non_integer_counts():
    # 1.5 must not give n = 2.5, nor a spectrum of the truncated 0011000000.
    for counts in ((0, 0, 1.5, 1, 0, 0, 0, 0, 0, 0), (0, 0, "1", 1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="cannot be interpreted as an integer"):
            GeneratorProfile(counts)
    profile = GeneratorProfile(tuple(np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0], np.int8)))
    assert profile == GeneratorProfile.from_digits("0011000000")
    assert (profile.n, profile.digits) == (2, "0011000000")
    assert all(type(x) is int for x in profile.counts)


def test_generator_profile_refuses_wrong_lengths_and_negative_counts():
    with pytest.raises(ValueError, match="profile must have 10 entries"):
        GeneratorProfile((0,) * 9)
    with pytest.raises(ValueError, match="profile entries must be nonnegative"):
        GeneratorProfile((0, 0, 1, -1, 0, 0, 0, 0, 0, 0))


def test_design_matrix_validates_entries():
    with pytest.raises(ValueError):
        DesignMatrix(("A", "B"), [[1, 0], [1, -1]])
    with pytest.raises(ValueError):
        DesignMatrix(("A",), [[1, -1]])
    with pytest.raises(ValueError, match="rows must be a 2-d array"):
        DesignMatrix(("A", "B"), [1, -1])
    # Integer and bool rows are checked by reductions, the others entry by
    # entry; 257 as int8 would wrap to 1, and True is the integer 1.
    for entry in (0, 2, -2, np.int64(257), 0.5, np.nan, False):
        for rows in ([[1, entry], [1, -1]], np.array([[entry, -1]]), np.array([[entry]])):
            with pytest.raises(ValueError, match="design entries must be"):
                DesignMatrix(("A", "B")[: np.shape(rows)[1]], rows)
    assert DesignMatrix(("A", "B"), [[True, -1]]).rows.tolist() == [[1, -1]]
    assert DesignMatrix(("A",), np.array([[True], [True]])).rows.tolist() == [[1], [1]]
    assert DesignMatrix(("A",), np.zeros((0, 1), np.uint8)).n_runs == 0


def test_profile_reference_cases():
    assert profile_of((2, 1, 1), (1, 1, 3)).counts == (0, 0, 0, 1, 1, 1, 0, 0, 0, 0)
    assert profile_of((0, 0), (0, 0)).counts == (0, 0, 0, 0, 0, 0, 0, 0, 0, 2)
    assert profile_of((1, 2), (2, 1)).counts == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    # Each of the sixteen (k, s) pairs falls in exactly one class.
    pairs = [(k, s) for k in range(4) for s in range(4)]
    assert profile_of(*zip(*pairs)).counts == (2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        profile_of((4,), (0,))


def test_frequencies_rejects_length_mismatch():
    # The class frequencies of (u, v) need one v coefficient per u coefficient.
    with pytest.raises(ValueError):
        profile_of((1, 2), (1,))


def canonical_uv(profile):
    spec = spec_for(Family.SIXTEENTH_EVEN, profile)
    return spec.u, spec.v


def test_spec_for_reference_cases():
    profile = GeneratorProfile((0, 0, 0, 1, 1, 1, 0, 0, 0, 0))
    assert canonical_uv(profile) == ((2, 1, 1), (1, 1, 3))
    assert canonical_uv(GeneratorProfile((0,) * 9 + (3,))) == (
        (0, 0, 0),
        (0, 0, 0),
    )
    assert canonical_uv(GeneratorProfile((1, 1) + (0,) * 8)) == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="n must be a positive integer"):
        spec_for(Family.SIXTEENTH_EVEN, GeneratorProfile((0,) * 10))


def test_spec_for_round_trip_exhaustive_small():
    def compositions(n):
        def rec(prefix, rem):
            if len(prefix) == 9:
                yield prefix + (rem,)
                return
            for x in range(rem + 1):
                yield from rec(prefix + (x,), rem - x)
        yield from rec((), n)

    for n in (1, 2):
        for counts in compositions(n):
            profile = GeneratorProfile(counts)
            assert profile_of(*canonical_uv(profile)) == profile


def test_spec_for_round_trip_random():
    rng = random.Random(11)
    for _ in range(50):
        counts = [0] * 10
        for _ in range(rng.randrange(1, 8)):
            counts[rng.randrange(10)] += 1
        profile = GeneratorProfile(tuple(counts))
        assert profile_of(*canonical_uv(profile)) == profile


def test_profile_digits_round_trip():
    profile = GeneratorProfile((0, 0, 1, 1, 0, 0, 0, 0, 0, 0))
    assert profile.digits == "0011000000"
    assert GeneratorProfile.from_digits("0011000000") == profile
    wide = GeneratorProfile((10,) + (0,) * 9)
    assert GeneratorProfile.from_digits(wide.digits) == wide


def test_column_labels_by_family():
    assert column_labels(Family.SIXTEENTH_ODD, 1) == ("F1", "F2", "F3", "F4", "F5", "F11", "F12")
    assert column_labels(Family.EIGHTH_EVEN, 2)[0] == "F2"
    assert "F5" not in column_labels(Family.EIGHTH_EVEN, 2)


def test_spec_for_validates_u0v0_presence():
    profile = GeneratorProfile((0, 0, 1, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        spec_for(Family.SIXTEENTH_ODD, profile)
    with pytest.raises(ValueError):
        spec_for(Family.SIXTEENTH_EVEN, profile, (1, 1))
