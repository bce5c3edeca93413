"""Closed-form side: length offsets, exponents, family spectra, metrics,
and the projectivity bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_theory
from qcdesign import (
    Family,
    GeneratorProfile,
    NoClosedFormBound,
    UNBOUNDED,
    WordSpectrum,
    build_design,
    family_spectrum,
    projectivity_bound,
    spec_for,
    spectrum_bruteforce,
    spectrum_metrics,
)
from qcdesign.search import (
    _resolution_keys,
    _wlp_keys,
    all_u0v0_pairs,
    profile_array,
    u0v0_classes,
)
from qcdesign.theory import (
    U0V0_CLASSES_EIGHTH,
    U0V0_CLASSES_SIXTEENTH,
    _L,
    _gates,
    _indicators,
    _k_weights,
    _raw_spectra,
    _to_spectrum,
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


def _exponents(profile: GeneratorProfile, pair=None) -> list[int]:
    """Exponents of the tokens theta1, theta2, one, omega0, omega (rho1,
    rho2, one, xi1 + xi2, xi without a pair): aliasing index 2^-e."""
    family = Family.SIXTEENTH_EVEN if pair is None else Family.SIXTEENTH_ODD
    return closed_forms(family, [profile.counts], (pair,)).tokens[0, 0].tolist()


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


def test_theory_counts_are_positive_integers():
    rng = random.Random(17)
    for _ in range(40):
        counts = [0] * 10
        for _ in range(rng.randrange(1, 8)):
            counts[rng.randrange(10)] += 1
        profile = GeneratorProfile(tuple(counts))
        for family in Family:
            pairs = (None,)
            if family.branched:
                pairs = (
                    U0V0_CLASSES_SIXTEENTH if family.sixteenth else U0V0_CLASSES_EIGHTH
                )
            for pair in pairs:
                for entry in family_spectrum(family, profile, pair):
                    assert entry.count >= 1
                    assert entry.ai.denominator & (entry.ai.denominator - 1) == 0


def test_master_equivalence_exhaustive_n2():
    for n in (1, 2):
        for profile in compositions(n):
            for family in Family:
                pairs = (None,)
                if family.branched:
                    pairs = (
                        U0V0_CLASSES_SIXTEENTH
                        if family.sixteenth
                        else U0V0_CLASSES_EIGHTH
                    )
                for pair in pairs:
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
    # Everything else stands alone in the eighth-fraction table.
    assert u0v0_class(Family.EIGHTH_ODD, "33") == (3, 3)
    assert u0v0_class(Family.EIGHTH_ODD, "30") == (3, 0)


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
    with pytest.raises(NoClosedFormBound):
        projectivity_bound(3, Family.EIGHTH_EVEN)
    with pytest.raises(NoClosedFormBound):
        projectivity_bound(3, Family.EIGHTH_ODD)
    with pytest.raises(ValueError):
        projectivity_bound(0, Family.SIXTEENTH_EVEN)


def _pairs(family: Family, every_pair: bool = False):
    if not family.branched:
        return (None,)
    return all_u0v0_pairs() if every_pair else u0v0_classes(family)


@pytest.mark.parametrize("family", list(Family))
def test_array_path_matches_scalar_reference(family):
    """Every search candidate at n <= 5: spectrum, WLP key, resolution key."""
    pairs = _pairs(family)
    for n in range(1, 6):
        q = family.factor_count(n)
        profiles = profile_array(n)
        forms = closed_forms(family, profiles, pairs)
        wlp = _wlp_keys(forms, q).tolist()
        res = _resolution_keys(forms).tolist()
        spectra = _raw_spectra(forms)
        for p, counts in enumerate(profiles.tolist()):
            profile = GeneratorProfile(tuple(counts))
            assert tuple((profiles[p] @ _L).tolist()) == (
                scalar_theory.length_offsets(profile)
            )
            for c, pair in enumerate(pairs):
                ref = scalar_theory.raw_family(family, profile, pair)
                assert next(spectra) == ref, (family, profile.digits, pair)
                assert tuple(row[c] for row in wlp[p]) == scalar_theory.wlp_key(ref, q)
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
    reference = _to_spectrum(scalar_theory.raw_family(family, profile, pair))
    assert family_spectrum(family, profile, pair) == reference
