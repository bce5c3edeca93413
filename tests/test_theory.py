"""Closed-form side: length offsets, exponents, family spectra, metrics,
and the projectivity bounds."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_oracles
import scalar_theory
from qcdesign import (
    Family,
    GeneratorProfile,
    UNBOUNDED,
    WordEntry,
    WordSpectrum,
    build_design,
    family_spectrum,
    projectivity_bound,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
    theory,
)
from qcdesign.search import (
    MAX_N,
    _resolution_keys,
    _wlp_keys,
    profile_array,
    u0v0_classes,
)
from qcdesign.theory import (
    U0V0_PAIRS,
    _L,
    _MAX_PROFILE_N,
    _X,
    _gates,
    _indicators,
    _k_weights,
    closed_forms,
)

EXAMPLE_PROFILE = GeneratorProfile((0, 0, 0, 1, 1, 1, 0, 0, 0, 0))
BRANCH_PROFILE = GeneratorProfile((0, 0, 1, 1, 0, 0, 0, 0, 0, 0))

def compositions(n: int):
    def rec(prefix, rem):
        if len(prefix) == 9:
            yield prefix + (rem,)
            return
        for x in range(rem + 1):
            yield from rec(prefix + (x,), rem - x)

    for counts in rec((), n):
        yield GeneratorProfile(counts)


def test_length_offsets_reference_cases():
    counts = np.array(
        [EXAMPLE_PROFILE.counts, BRANCH_PROFILE.counts, (0,) * 9 + (4,)]
    )
    assert (counts @ _L).tolist() == [
        [4, 3, 2, 3, 4, 6, 2, 1, 3, 3],
        [3, 3, 1, 1, 2, 2, 4, 2, 2, 2],
        [0] * 10,
    ]


@pytest.mark.parametrize("family", list(Family))
def test_closed_forms_equal_an_int64_matmul_reference(family):
    # closed_forms runs its two class-count products on float64 BLAS; an int64
    # product gives the same lengths, class-count sums and exponents of every
    # row of every candidate, at every search size and on profiles at the
    # largest n the closed forms take.
    pairs = u0v0_classes(family)
    rng = np.random.default_rng(7)
    largest = rng.multinomial(_MAX_PROFILE_N, [0.1] * 10, size=200)
    for counts in [*map(profile_array, range(1, MAX_N + 1)), largest]:
        forms = closed_forms(family, counts, pairs)
        wide = counts.astype(np.int64)
        lengths = (wide @ _L.astype(np.int64))[:, forms.table.l_index] + forms.table.offset
        assert forms.lengths.dtype == np.int16 and np.array_equal(forms.lengths, lengths)
        assert forms.sums.dtype == np.int16
        assert np.array_equal(forms.sums, wide @ _X.astype(np.int64))
        every = np.arange(len(counts))
        for j, pair in enumerate(pairs):
            tokens = reference_oracles.exponent_tokens(counts, (pair,))[:, 0]
            exps = forms.exponents(every, np.full(len(every), j))
            assert np.array_equal(exps, tokens[:, forms.table.token])


def _exponents(profile: GeneratorProfile, pair=None) -> list[int]:
    """Exponents of the tokens theta1, theta2, one, omega0, omega (rho1,
    rho2, one, xi1 + xi2, xi without a pair): aliasing index 2^-e, read off
    a row of each token in the count table of every u0v0 class."""
    family = Family.SIXTEENTH_EVEN if pair is None else Family.SIXTEENTH_ODD
    pairs = u0v0_classes(family)
    forms = closed_forms(family, [profile.counts], pairs)
    exps = forms.exponents(np.array([0]), np.array([pairs.index(pair)]))[0]
    names = (theory._T1, theory._T2, theory._ONE, theory._W0, theory._W)
    return [int(exps[forms.table.token == theory._TOKENS.index(t)][0]) for t in names]


def test_aliasing_constants_reference_cases():
    assert _exponents(EXAMPLE_PROFILE) == [1, 1, 0, 0, 1]
    assert _exponents(BRANCH_PROFILE, (1, 1)) == [1, 1, 0, 0, 1]
    assert _indicators((1, 1)) == (1, 1, 0, 0)
    assert _exponents(GeneratorProfile((0,) * 9 + (2,))) == [0, 0, 0, 0, 0]


def _k(profile: GeneratorProfile) -> tuple[Fraction, ...]:
    """k11, k12, k21, k22 of a profile, from the count-table gate."""
    k = _k_weights(bool(_gates(np.array([profile.counts]))[0] >> 1))
    return tuple(Fraction(k[key], 2) for key in ("k11", "k12", "k21", "k22"))


def test_k_constants():
    assert _k(BRANCH_PROFILE) == (Fraction(1, 2), Fraction(1, 2), 1, 1)
    empty_u_side = GeneratorProfile((0, 1, 0, 1, 0, 0, 0, 0, 0, 0))
    assert _k(empty_u_side) == (0, 1, 0, 2)


def test_k_constants_gate_on_diagonal_classes():
    # Only class 5 is populated: k11 must be 1/2, as in the eighth-odd
    # spectrum, which equals brute force here (an older rule gave 0).
    diagonal_only = GeneratorProfile.from_digits("0000100000")
    assert _k(diagonal_only) == (Fraction(1, 2), Fraction(1, 2), 1, 1)
    design = build_design(spec_for(Family.EIGHTH_ODD, diagonal_only, (1, 0)))
    theory = family_spectrum(Family.EIGHTH_ODD, diagonal_only, "10")
    assert theory == spectrum_bruteforce(design)


def test_sixteenth_even_reference_spectra():
    half = Fraction(1, 2)
    spectrum = family_spectrum(Family.SIXTEENTH_EVEN, EXAMPLE_PROFILE)
    assert [(e.length, e.ai, e.count) for e in spectrum] == [
        (4, half, 8), (5, half, 32), (6, half, 8), (6, Fraction(1), 2), (8, Fraction(1), 1),
    ]
    resolution, wlp = spectrum_metrics(
        family_spectrum(Family.SIXTEENTH_EVEN, BRANCH_PROFILE), 8
    )
    assert resolution == 4
    assert wlp[3:] == tuple(Fraction(a) for a in (14, 0, 0, 0, 1))


def test_eighth_even_reference_spectra():
    resolution, wlp = spectrum_metrics(
        family_spectrum(Family.EIGHTH_EVEN, BRANCH_PROFILE), 7
    )
    assert resolution == 4
    assert wlp[3:] == tuple(Fraction(a) for a in (7, 0, 0, 0))

    tall = GeneratorProfile((0, 0, 2, 1, 1, 1, 0, 0, 0, 0))
    resolution, wlp = spectrum_metrics(family_spectrum(Family.EIGHTH_EVEN, tall), 13)
    assert resolution == Fraction(31, 4)
    assert wlp[3:] == tuple(Fraction(a) for a in (0, 0, 0, 4, 3, 0, 0, 0, 0, 0))


def test_sixteenth_odd_reference_spectra():
    half = Fraction(1, 2)
    spectrum = family_spectrum(Family.SIXTEENTH_ODD, BRANCH_PROFILE, (1, 1))
    assert [(e.length, e.ai, e.count) for e in spectrum] == [
        (4, half, 24), (5, half, 24), (5, Fraction(1), 2), (8, Fraction(1), 1),
    ]
    resolution, wlp = spectrum_metrics(spectrum, 9)
    assert resolution == Fraction(9, 2)
    assert wlp[3:] == tuple(Fraction(a) for a in (6, 8, 0, 0, 1, 0))

    quad = GeneratorProfile((0, 0, 1, 1, 1, 1, 0, 0, 0, 0))
    resolution, wlp = spectrum_metrics(
        family_spectrum(Family.SIXTEENTH_ODD, quad, (2, 2)), 13
    )
    assert resolution == Fraction(13, 2)
    assert wlp[3:] == tuple(Fraction(a) for a in (0, 0, 4, 8, 3, 0, 0, 0, 0, 0))


def test_eighth_odd_reference_spectra():
    low = GeneratorProfile((0, 0, 1, 0, 1, 1, 0, 0, 0, 0))
    resolution, wlp = spectrum_metrics(
        family_spectrum(Family.EIGHTH_ODD, low, (2, 1)), 10
    )
    assert resolution == Fraction(11, 2)
    assert wlp[3:] == tuple(Fraction(a) for a in (0, 3, 3, 1, 0, 0, 0))

    wide = GeneratorProfile((0, 0, 2, 0, 2, 2, 0, 0, 0, 0))
    resolution, wlp = spectrum_metrics(
        family_spectrum(Family.EIGHTH_ODD, wide, (2, 0)), 16
    )
    assert resolution == Fraction(71, 8)
    assert wlp[3:] == tuple(
        Fraction(a) for a in (0, 0, 0, 0, 1, 4, 2, 0, 0, 0, 0, 0, 0)
    )


def test_u0v0_accepts_strings_and_maps_classes():
    for family, text, pair in (
        (Family.SIXTEENTH_ODD, "11", (3, 3)),
        (Family.SIXTEENTH_ODD, "03", (0, 1)),
        (Family.EIGHTH_ODD, "23", (2, 1)),
    ):
        assert family_spectrum(family, BRANCH_PROFILE, text) == (
            family_spectrum(family, BRANCH_PROFILE, pair)
        )
    with pytest.raises(ValueError):
        family_spectrum(Family.SIXTEENTH_ODD, BRANCH_PROFILE, "4")


def test_family_spectrum_dispatch_and_guards():
    with pytest.raises(ValueError):
        family_spectrum(Family.SIXTEENTH_EVEN, EXAMPLE_PROFILE, (1, 1))
    with pytest.raises(ValueError):
        family_spectrum(Family.SIXTEENTH_ODD, EXAMPLE_PROFILE)


def test_spectrum_metrics_reference_cases():
    spectrum = family_spectrum(Family.SIXTEENTH_EVEN, EXAMPLE_PROFILE)
    resolution, wlp = spectrum_metrics(spectrum, 10)
    assert resolution == Fraction(9, 2)
    assert wlp == tuple(Fraction(a) for a in (0, 0, 0, 2, 8, 4, 0, 1, 0, 0))

    resolution, wlp = spectrum_metrics(WordSpectrum(()), 3)
    assert resolution is UNBOUNDED and wlp == (0, 0, 0)

    branch = GeneratorProfile((0, 0, 1, 1, 1, 1, 0, 0, 0, 0))
    resolution, _ = spectrum_metrics(
        family_spectrum(Family.EIGHTH_ODD, branch, (1, 2)), 12
    )
    assert resolution == Fraction(27, 4)

    with pytest.raises(ValueError):
        spectrum_metrics(spectrum, 5)
    with pytest.raises(ValueError, match="q must be positive"):
        spectrum_metrics(spectrum, 0)


@pytest.mark.parametrize("length, ai, count, message", [
    (0, Fraction(1), 1, "word length must be positive"),
    (3, Fraction(0), 1, "aliasing index must lie in"),
    (3, Fraction(3, 2), 1, "aliasing index must lie in"),
    (3, Fraction(1), 0, "word count must be positive"),
])
def test_word_entry_refuses_out_of_range_fields(length, ai, count, message):
    with pytest.raises(ValueError, match=message):
        WordEntry(length, ai, count)


def test_word_spectrum_refuses_unsorted_or_unmerged_entries():
    a, b = WordEntry(3, Fraction(1, 2), 1), WordEntry(4, Fraction(1), 2)
    for entries in ((b, a), (a, a)):
        with pytest.raises(ValueError, match="sorted by .* and merged"):
            WordSpectrum(entries)
    assert WordSpectrum((a, b)).word_count == 3


def test_theory_counts_are_positive_integers():
    rng = random.Random(17)
    for _ in range(40):
        counts = [0] * 10
        for _ in range(rng.randrange(1, 8)):
            counts[rng.randrange(10)] += 1
        profile = GeneratorProfile(tuple(counts))
        for family in Family:
            for pair in u0v0_classes(family):
                for entry in family_spectrum(family, profile, pair):
                    assert entry.count >= 1
                    assert entry.ai.denominator & (entry.ai.denominator - 1) == 0


def _parseval_holds(family: Family, profile: GeneratorProfile, pair) -> bool:
    """Parseval: the words' squared aliasing indices sum to 2^k - 1, k the
    family's check columns, as sum_S (J(S)/N)^2 = 2^q / N - 1."""
    spectrum = family_spectrum(family, profile, pair)
    return sum(entry.count * entry.ai**2 for entry in spectrum) == (1 << family.checks) - 1


@pytest.mark.parametrize("n", [*range(59, 65), 70, 100, 126])
def test_single_class_spectra_satisfy_parseval_past_int64(n):
    # Counts w 4^e / 2 pass 2^63 from e = 30 on, first at n = 60 with every
    # generator in one class; an int64 count would wrap or vanish there.
    for family in Family:
        for pair in u0v0_classes(family):
            for k in range(10):
                profile = GeneratorProfile(tuple(n * (c == k) for c in range(10)))
                assert _parseval_holds(family, profile, pair), (family, k, pair)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(1, _MAX_PROFILE_N), st.data())
def test_random_spectra_satisfy_parseval(family, n, data):
    classes = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    profile = GeneratorProfile(tuple(classes.count(c) for c in range(10)))
    pair = data.draw(st.sampled_from(u0v0_classes(family)))
    assert _parseval_holds(family, profile, pair)


@pytest.mark.parametrize("family", list(Family))
def test_half_integer_check_reads_a_planted_odd_weight(monkeypatch, family):
    """``closed_forms`` checks only the rows with an odd doubled weight; an
    odd weight planted on a row whose exponent is always 0 is still caught."""
    pairs = u0v0_classes(family)
    table = theory._table(family, tuple(pair or (0, 0) for pair in pairs))
    unit = np.flatnonzero(table.token == theory._TOKENS.index(theory._ONE))[0]
    weights = table.weights.copy()
    weights[:, :, unit] |= 1
    planted = dataclasses.replace(table, weights=weights)
    monkeypatch.setattr(theory, "_table", lambda *_: planted)
    with pytest.raises(AssertionError, match="half-integer weight"):
        closed_forms(family, profile_array(2), pairs)


@pytest.mark.parametrize("family", list(Family))
def test_half_integer_check_reads_every_row(monkeypatch, family):
    """An odd weight planted on any one row, whatever its token, is refused
    for the profiles where some candidate's exponent on it is 0, and only
    for those."""
    pairs = u0v0_classes(family)
    profiles = profile_array(3)
    table = theory._table(family, tuple(pair or (0, 0) for pair in pairs))
    tokens = reference_oracles.exponent_tokens(profiles, pairs)
    for r, t in enumerate(table.token.tolist()):
        weights = table.weights.copy()
        weights[:, :, r] |= 1
        planted = dataclasses.replace(table, weights=weights)
        monkeypatch.setattr(theory, "_table", lambda *_, planted=planted: planted)
        zero = (tokens[:, :, t] == 0).any(axis=1)
        assert zero.any()
        with pytest.raises(AssertionError, match="half-integer weight"):
            closed_forms(family, profiles[zero], pairs)
        closed_forms(family, profiles[~zero], pairs)
        assert (~zero).any() or t == theory._TOKENS.index(theory._ONE)


def test_master_equivalence_exhaustive_n2():
    for n in (1, 2):
        for profile in compositions(n):
            for family in Family:
                for pair in u0v0_classes(family):
                    design = build_design(spec_for(family, profile, pair))
                    assert family_spectrum(family, profile, pair) == (
                        spectrum_bruteforce(design)
                    ), (family, profile.digits, pair)


def test_u0v0_class_mapping():
    from qcdesign.theory import u0v0_class

    merged = {"03": "01", "30": "10", "33": "11", "32": "12", "31": "13", "23": "21"}
    for raw, rep in merged.items():
        assert u0v0_class(Family.SIXTEENTH_ODD, raw) == (int(rep[0]), int(rep[1]))
    assert u0v0_class(Family.EIGHTH_ODD, "03") == (0, 1)
    assert u0v0_class(Family.EIGHTH_ODD, "23") == (2, 1)
    # Every other pair stands alone: in the sixteenth-fraction table those
    # are its ten columns, in the eighth-fraction table all fourteen.
    for pair in U0V0_PAIRS:
        text = "%d%d" % pair
        if text not in merged:
            assert u0v0_class(Family.SIXTEENTH_ODD, pair) == pair
        if text not in ("03", "23"):
            assert u0v0_class(Family.EIGHTH_ODD, text) == pair


def test_u0v0_classes_by_family():
    # One u0v0 axis per family: the merged count-table columns, and one
    # None for the even-run families.
    assert u0v0_classes(Family.SIXTEENTH_EVEN) == u0v0_classes(Family.EIGHTH_EVEN) == (None,)
    texts = {f: ["%d%d" % pair for pair in u0v0_classes(f)] for f in Family if f.branched}
    assert texts[Family.SIXTEENTH_ODD] == "00 01 02 10 11 12 13 20 21 22".split()
    assert texts[Family.EIGHTH_ODD] == "00 01 02 10 11 12 13 20 21 22 30 31 32 33".split()


def test_all_sixteen_u0v0_pairs_against_oracle_exhaustive_small():
    for n in (1, 2):
        for profile in compositions(n):
            for family in (Family.SIXTEENTH_ODD, Family.EIGHTH_ODD):
                for u0 in range(4):
                    for v0 in range(4):
                        design = build_design(spec_for(family, profile, (u0, v0)))
                        assert family_spectrum(family, profile, (u0, v0)) == (
                            spectrum_bruteforce(design)
                        ), (family, profile.digits, (u0, v0))


def test_projectivity_bound_reference_cases():
    assert projectivity_bound(3, Family.SIXTEENTH_EVEN) == 5
    assert projectivity_bound(2, Family.SIXTEENTH_EVEN) == 3
    assert projectivity_bound(2, Family.SIXTEENTH_ODD) == 4
    assert projectivity_bound(3, Family.SIXTEENTH_ODD) == 6
    assert projectivity_bound(4, Family.SIXTEENTH_EVEN) == 7
    assert projectivity_bound(4, Family.SIXTEENTH_ODD) == 7
    assert projectivity_bound(5, Family.SIXTEENTH_EVEN) == 7
    assert projectivity_bound(3, Family.EIGHTH_EVEN) is None
    assert projectivity_bound(3, Family.EIGHTH_ODD) is None
    for n in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            projectivity_bound(n, Family.SIXTEENTH_EVEN)


def _shortest_full_words(family: Family, n: int) -> np.ndarray:
    """Length of the shortest full word (e = 0, nonzero weight) of every
    (profile, u0v0 class) candidate at size n, from the count table."""
    profiles, pairs = profile_array(n), u0v0_classes(family)
    forms = closed_forms(family, profiles, pairs)
    none = np.iinfo(np.int16).max
    every = np.arange(len(profiles))
    shortest = np.full((len(profiles), len(pairs)), none)
    for j in range(len(pairs)):
        lengths, exps, counts = forms.words(every, np.full(len(every), j))
        shortest[:, j] = np.where((counts != 0) & (exps == 0), lengths, none).min(axis=1)
    assert (shortest < none).all()  # at least three full words exist
    return shortest


@pytest.mark.parametrize("family", [Family.SIXTEENTH_EVEN, Family.SIXTEENTH_ODD])
def test_projectivity_bound_holds_against_count_table(family):
    """A full word of length L caps projectivity at L - 1, so no candidate's
    shortest full word exceeds the bound + 1, and the bound is attained."""
    for n in range(1, 8):
        cap = int(_shortest_full_words(family, n).max()) - 1
        bound = projectivity_bound(n, family)
        if n == 1:
            assert (cap, bound) == (1 + family.branched, 3)
        else:
            assert cap == bound, (n, cap, bound)


@pytest.mark.parametrize("sixteenth", [True, False])
def test_even_run_design_is_odd_run_design_at_00(sixteenth):
    """At u0v0 = 00 the check columns ignore a0, so the odd-run design is
    the even-run design twice, once per level of F5: the same spectrum."""
    even, odd = (f for f in Family if f.sixteenth == sixteenth)
    for n in (1, 2, 3):
        for profile in compositions(n):
            assert spectrum_bruteforce(build_design(spec_for(odd, profile, (0, 0)))) == (
                spectrum_bruteforce(build_design(spec_for(even, profile)))
            ), profile.digits
    for n in range(1, 7):
        profiles = profile_array(n)
        every = np.arange(len(profiles)), np.zeros(len(profiles), dtype=int)
        rows = [
            zip(*(a.tolist() for a in closed_forms(f, profiles, pairs).words(*every)))
            for f, pairs in ((even, (None,)), (odd, ((0, 0),)))
        ]
        for p, (even_rows, odd_rows) in enumerate(zip(*rows)):
            assert sorted(r for r in zip(*even_rows) if r[2]) == (
                sorted(r for r in zip(*odd_rows) if r[2])
            ), profiles[p]


def _pairs(family: Family, every_pair: bool = False):
    return U0V0_PAIRS if every_pair and family.branched else u0v0_classes(family)


@pytest.mark.parametrize("family", list(Family))
def test_array_path_matches_scalar_reference(family):
    """Every search candidate at n <= 5: spectrum, WLP key, resolution key."""
    pairs = _pairs(family)
    for n in range(1, 6):
        q = family.factor_count(n)
        profiles = profile_array(n)
        forms = closed_forms(family, profiles, pairs)
        every = np.nonzero(np.ones((len(profiles), len(pairs)), dtype=bool))
        wlp = _wlp_keys(forms, q, *every).reshape(len(profiles), len(pairs), q).tolist()
        res = _resolution_keys(forms, *every).reshape(len(profiles), len(pairs)).tolist()
        for p, counts in enumerate(profiles.tolist()):
            profile = GeneratorProfile(tuple(counts))
            assert tuple((profiles[p] @ _L).tolist()) == (
                scalar_theory.length_offsets(profile)
            )
            for c, pair in enumerate(pairs):
                ref = scalar_theory.raw_family(family, profile, pair)
                rows = forms.words(np.array([p]), np.array([c]))
                merged = scalar_theory.merge(zip(*(a[0].tolist() for a in rows)))
                assert merged == ref, (family, profile.digits, pair)
                assert tuple(wlp[p][c]) == scalar_theory.wlp_key(ref, q)
                key = res[p][c]
                assert (key >> 8, key & 255) == scalar_theory.resolution_key(ref)


@st.composite
def larger_candidates(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(6, 8))
    classes = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    profile = GeneratorProfile(tuple(classes.count(c) for c in range(10)))
    pair = draw(st.sampled_from(_pairs(family, every_pair=True)))
    return family, profile, pair


@settings(max_examples=200, deadline=None)
@given(larger_candidates())
def test_one_row_spectrum_matches_scalar_reference(candidate):
    family, profile, pair = candidate
    reference = WordSpectrum.from_entries(
        (length, Fraction(1, 1 << e), count)
        for length, e, count in scalar_theory.raw_family(family, profile, pair)
    )
    assert family_spectrum(family, profile, pair) == reference
