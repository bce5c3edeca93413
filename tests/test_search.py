"""Search-side tests: enumeration, optimization, reference tables."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import compositions_count, scan_projectivity
from qcdesign import (
    Criterion,
    Family,
    GeneratorProfile,
    build_design,
    optimize,
    orthogonal_array_ceiling,
    reproduce_table,
    spec_for,
)
from qcdesign import oracle, search
from qcdesign.oracle import DEFAULT_MAX_FACTORS
from qcdesign.search import (
    EIGHTH_ROWS,
    MAX_N,
    SIXTEENTH_ROWS,
    enumerate_profiles,
    u0v0_classes,
)


def test_enumerate_profiles_counts():
    assert len(list(enumerate_profiles(1))) == 10
    assert len(list(enumerate_profiles(2))) == 55
    assert len(list(enumerate_profiles(4))) == compositions_count(4, 10) == 715


def test_enumerate_profiles_order_and_uniqueness():
    profiles = [p.counts for p in enumerate_profiles(2)]
    assert profiles == sorted(profiles)
    assert len(set(profiles)) == len(profiles)
    assert all(sum(c) == 2 for c in profiles)


def test_optimize_min_aberration_even():
    result = optimize(3, Family.SIXTEENTH_EVEN, Criterion.ABERRATION)
    assert result.profile.digits == "0001110000"
    assert result.resolution == Fraction(9, 2)
    assert result.wlp_from_4 == tuple(Fraction(a) for a in (2, 8, 4, 0, 1, 0, 0))
    assert result.projectivity == 5
    assert result.criteria_coincide


def test_optimize_min_aberration_eighth():
    result = optimize(4, Family.EIGHTH_EVEN, Criterion.ABERRATION)
    assert result.profile.digits == "0011110000"
    assert result.resolution == Fraction(13, 2)
    assert result.wlp_from_4 == tuple(Fraction(a) for a in (0, 0, 6, 0, 1, 0, 0, 0))


def test_optimize_max_resolution_branched():
    result = optimize(3, Family.SIXTEENTH_ODD, Criterion.RESOLUTION)
    assert result.profile.digits == "0001110000"
    assert result.u0v0 == (1, 2)
    assert result.resolution == Fraction(11, 2)


@pytest.mark.parametrize("entries", [1, oracle.CHUNK_ENTRIES])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", list(Family))
def test_optimize_max_projectivity_small(monkeypatch, family, n, entries):
    # Chunks of 1 entry score one candidate at a time; the default chunks
    # score many at once.
    monkeypatch.setattr(oracle, "CHUNK_ENTRIES", entries)
    result = optimize(n, family, Criterion.PROJECTIVITY)
    pairs = u0v0_classes(family)
    scanned = {
        (profile, pair): scan_projectivity(build_design(spec_for(family, profile, pair)))
        for profile in enumerate_profiles(n)
        for pair in pairs
    }
    assert result.projectivity == max(scanned.values())
    assert result.ties and all(scanned[t] == result.projectivity for t in result.ties)
    if (family, n) == (Family.SIXTEENTH_EVEN, 2):
        assert result.projectivity == 3
        assert result.profile.digits == "0011000000"


def test_optimize_is_deterministic():
    a = optimize(2, Family.SIXTEENTH_ODD, Criterion.ABERRATION)
    b = optimize(2, Family.SIXTEENTH_ODD, Criterion.ABERRATION)
    assert a == b


def test_optimize_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        optimize(MAX_N + 1, Family.SIXTEENTH_EVEN, Criterion.ABERRATION)
    with pytest.raises(ValueError):
        optimize(0, Family.SIXTEENTH_EVEN, Criterion.ABERRATION)


def test_oversized_projectivity_search_is_refused_up_front(monkeypatch):
    # At n = 9 every family has q > 20: the refusal comes before the theory
    # scan allocates anything.
    def scan(*args):
        raise AssertionError("the theory scan ran")

    monkeypatch.setattr(search, "closed_forms", scan)
    for family in Family:
        assert family.factor_count(9) > DEFAULT_MAX_FACTORS
        for criterion in (Criterion.ABERRATION, Criterion.RESOLUTION):
            with pytest.raises(ValueError, match="--skip-projectivity"):
                optimize(9, family, criterion)
        with pytest.raises(ValueError, match="needs q <= 20"):
            optimize(9, family, Criterion.PROJECTIVITY, with_projectivity=False)
    with pytest.raises(AssertionError, match="theory scan ran"):
        optimize(9, Family.EIGHTH_EVEN, Criterion.ABERRATION, with_projectivity=False)


def test_skip_projectivity_mode():
    result = optimize(
        2, Family.SIXTEENTH_EVEN, Criterion.ABERRATION, with_projectivity=False
    )
    assert result.projectivity is None
    assert result.profile.digits == "0011000000"


def test_ties_include_profile_mirror():
    result = optimize(5, Family.SIXTEENTH_EVEN, Criterion.ABERRATION)
    tie_profiles = {profile.digits for profile, _ in result.ties}
    assert "1011110000" in tie_profiles
    assert "0111110000" in tie_profiles
    assert result.resolution == Fraction(13, 2)


def test_orthogonal_array_ceiling():
    assert orthogonal_array_ceiling(Family.SIXTEENTH_EVEN, 3) == 5
    assert orthogonal_array_ceiling(Family.EIGHTH_EVEN, 3) == 5
    assert orthogonal_array_ceiling(Family.SIXTEENTH_EVEN, 2) == 3
    # log2 N - 1 for every family: q - 5 for a sixteenth, q - 4 for an eighth.
    for family in Family:
        for n in range(1, 11):
            q = family.factor_count(n)
            assert orthogonal_array_ceiling(family, n) == q - (5 if family.sixteenth else 4)


def test_regular_reference_embedded():
    result = optimize(2, Family.SIXTEENTH_EVEN, Criterion.ABERRATION)
    assert result.regular_reference is not None
    assert result.regular_reference.resolution == 4
    assert result.regular_reference.wlp_comparison == "same"
    last = SIXTEENTH_ROWS[-1]
    assert last.regular.wlp_comparison == "better"
    assert all(row.regular.wlp_comparison == "same" for row in EIGHTH_ROWS)


def test_reproduce_table_smoke():
    rows = reproduce_table(4)
    assert [row.label for row in rows] == [
        "2^{7-3}", "2^{8-3}", "2^{9-3}", "2^{10-3}", "2^{11-3}", "2^{12-3}", "2^{13-3}",
    ]
    assert all(row.passed for row in rows)
    with pytest.raises(ValueError):
        reproduce_table(7)
