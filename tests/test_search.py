"""Search-side tests: enumeration, optimization, reference tables."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_oracles
from conftest import compositions_count, scan_projectivity
from qcdesign import (
    Criterion,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    build_design,
    optimize,
    orthogonal_array_ceiling,
    reproduce_table,
    spec_for,
)
from qcdesign import oracle, search
from qcdesign.oracle import DEFAULT_MAX_FACTORS
from qcdesign.qc_core import _CLASS_OF, _CLASS_PAIRS
from qcdesign.search import (
    EIGHTH_ROWS,
    MAX_N,
    SIXTEENTH_ROWS,
    enumerate_profiles,
    profile_array,
    u0v0_classes,
)
from qcdesign.theory import U0V0_PAIRS, closed_forms, u0v0_class


def test_enumerate_profiles_counts():
    assert len(list(enumerate_profiles(1))) == 10
    assert len(list(enumerate_profiles(2))) == 55
    assert len(list(enumerate_profiles(4))) == compositions_count(4, 10) == 715


def test_enumerate_profiles_order_and_uniqueness():
    profiles = [p.counts for p in enumerate_profiles(2)]
    assert profiles == sorted(profiles)
    assert len(set(profiles)) == len(profiles)
    assert all(sum(c) == 2 for c in profiles)


@pytest.mark.parametrize("n", range(1, 11))
def test_profile_array_matches_combinations(n):
    got, want = profile_array(n), reference_oracles.profile_array(n)
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The isomorphisms: maps of the generator data that only permute columns.
# ---------------------------------------------------------------------------


#: The profile class permutations written out: the swap (0 1)(2 3)(6 7) and
#: a sign flip (4 5).  They commute; an eighth fraction has the flip alone.
_SWAP = (1, 0, 3, 2, 4, 5, 7, 6, 8, 9)
_FLIP = (0, 1, 2, 3, 5, 4, 6, 7, 8, 9)


def _profile_group(family: Family) -> set[tuple[int, ...]]:
    group = {tuple(range(10)), _FLIP}
    if family.sixteenth:
        group |= {_SWAP, tuple(_SWAP[i] for i in _FLIP)}
    return group


def _image_spec(spec: GeneratorSpec, matrix: np.ndarray) -> GeneratorSpec:
    """The map applied to every (u_j, v_j) and to (u0, v0)."""
    u, v = (matrix @ np.array([spec.u, spec.v]) % 4).tolist()
    u0v0 = (None, None) if spec.u0v0 is None else (matrix @ spec.u0v0 % 4).tolist()
    return GeneratorSpec(spec.family, spec.n, tuple(u), tuple(v), *u0v0)


def _check_sources(family: Family, matrix: np.ndarray) -> list[int]:
    """The design column each check column of the image comes from.

    The image's (a'u, a'v) is matrix @ (a'u, a'v) on every run, a signed
    permutation, and Gray(-t) is Gray(t) with its two coordinates swapped."""
    sources = []
    for row in matrix:
        j = int(np.flatnonzero(row)[0])
        sources += [2 * j + 1, 2 * j] if row[j] == 3 else [2 * j, 2 * j + 1]
    dropped = 4 - family.checks  # F1 of an eighth fraction stays dropped
    assert sources[:dropped] == list(range(dropped))
    return [source - dropped for source in sources[dropped:]]


def _runs(rows: np.ndarray) -> np.ndarray:
    """The runs as sorted bit patterns: equal exactly up to run order."""
    return np.sort(((rows < 0) << np.arange(rows.shape[1])).sum(axis=1))


def _assert_column_permutation(spec: GeneratorSpec) -> None:
    design = build_design(spec)
    shared = list(range(spec.family.checks, design.n_factors))
    for matrix, _, _ in search._isomorphisms(spec.family, u0v0_classes(spec.family)):
        image = build_design(_image_spec(spec, matrix))
        order = _check_sources(spec.family, matrix) + shared
        assert np.array_equal(_runs(design.rows[:, order]), _runs(image.rows))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", list(Family))
def test_isomorphisms_permute_columns(family, n):
    for profile in enumerate_profiles(n):
        for pair in u0v0_classes(family):
            _assert_column_permutation(spec_for(family, profile, pair))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Family)), st.sampled_from((4, 5)), st.data())
def test_isomorphisms_permute_columns_sampled(family, n, data):
    u, v = (data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in "uv")
    u0v0 = data.draw(st.sampled_from(U0V0_PAIRS)) if family.branched else (None, None)
    _assert_column_permutation(GeneratorSpec(family, n, tuple(u), tuple(v), *u0v0))


@pytest.mark.parametrize("family", list(Family))
def test_isomorphisms_map_classes_to_classes(family):
    # Expansion maps each scored class to one class: every member of a
    # profile class, and every pair of a merged u0v0 class, must land in
    # the class the first-listed member lands in.
    pairs = u0v0_classes(family)
    maps = search._isomorphisms(family, pairs)
    assert len(maps) == (8 if family.sixteenth else 2)
    for matrix, perm, images in maps:
        for c, members in enumerate(_CLASS_PAIRS):
            assert {_CLASS_OF[tuple(matrix @ pair % 4)] for pair in members} == {perm[c]}
        for pair in U0V0_PAIRS if family.branched else ():
            image = u0v0_class(family, tuple(matrix @ pair % 4))
            assert image == pairs[images[pairs.index(u0v0_class(family, pair))]]
    perms = {tuple(perm.tolist()) for _, perm, _ in maps}
    assert perms == _profile_group(family)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("family", list(Family))
def test_closed_form_keys_are_equal_across_orbits(family, n):
    profiles = profile_array(n)
    pairs = u0v0_classes(family)
    forms = closed_forms(family, profiles, pairs)
    wlp = search._wlp_keys(forms, family.factor_count(n))
    res = search._resolution_keys(forms)
    index = {row: i for i, row in enumerate(map(tuple, profiles.tolist()))}
    for _, perm, images in search._isomorphisms(family, pairs):
        image = np.empty_like(profiles)
        image[:, perm] = profiles
        p = np.array([index[row] for row in map(tuple, image.tolist())])
        assert np.array_equal(res[p][:, images], res)
        assert np.array_equal(wlp[p][:, :, images], wlp)


@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("family", list(Family))
def test_orbit_search_matches_reference(family, criterion):
    reference = reference_oracles.optimize
    for n in (1, 2, 3):
        assert optimize(n, family, criterion) == reference(n, family, criterion)
    if criterion is not Criterion.PROJECTIVITY:
        for n in range(4, 9):
            got = optimize(n, family, criterion, with_projectivity=False)
            assert got == reference(n, family, criterion, with_projectivity=False)


@pytest.mark.parametrize("family", list(Family))
def test_projectivity_search_keys_the_most_projective_off_the_top_resolution(
    monkeypatch, family
):
    # A stand-in projectivity, equal across orbits, that is highest where the
    # shortest word is shortest: no winner has the longest shortest word.
    def shortest_first(family, profiles, pairs, pool):
        res = search._resolution_keys(closed_forms(family, profiles, pairs))
        return np.where(pool, 100 - (res >> 8), -1)

    monkeypatch.setattr(search, "_projectivities", shortest_first)
    monkeypatch.setattr(reference_oracles, "_projectivities", shortest_first)
    for n in (3, 4, 5):
        got = optimize(n, family, Criterion.PROJECTIVITY)
        assert got == reference_oracles.optimize(n, family, Criterion.PROJECTIVITY)
        assert got.resolution < optimize(n, family, Criterion.RESOLUTION, False).resolution


@pytest.mark.parametrize("family", list(Family))
def test_projectivity_search_builds_one_design_per_representative(monkeypatch, family):
    built = []
    code_tables = oracle.code_tables

    def counted(family, n, u, v, u0v0):
        built.append(len(u))
        return code_tables(family, n, u, v, u0v0)

    monkeypatch.setattr(oracle, "code_tables", counted)
    optimize(3, family, Criterion.PROJECTIVITY)
    # The profile orbits, one smallest member each, by brute force.
    orbits = {
        min(tuple(profile.counts[i] for i in perm) for perm in _profile_group(family))
        for profile in enumerate_profiles(3)
    }
    assert sum(built) == len(orbits) * len(u0v0_classes(family))


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


@pytest.mark.parametrize("budget", [1, 1 << 15, oracle.CHUNK_BYTES])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", list(Family))
def test_optimize_max_projectivity_small(monkeypatch, family, n, budget):
    # A budget of 1 byte scores one candidate per chunk; 2^15 bytes and the
    # default score many at once.
    monkeypatch.setattr(oracle, "CHUNK_BYTES", budget)
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
