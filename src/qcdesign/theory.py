"""Closed-form word spectra and projectivity bounds from generator profiles.

The word spectrum of every family depends on (u, v) only through the ten
pair-class counts (and on (u0, v0) through its merged class, for branched
families).  This module evaluates those closed forms exactly; the oracle
module recomputes the same spectra by brute force, and the two must agree
entry for entry.

Aliasing indices are powers of 1/2 throughout, so spectra are handled
internally as (length, exponent, count) triples with integer arithmetic;
the public functions return :class:`~qcdesign.spectrum.WordSpectrum` values
with exact ``Fraction`` indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qc_core import Family, GeneratorProfile
from .spectrum import WordSpectrum, spectrum_metrics

__all__ = [
    "LengthOffsets",
    "AliasingConstants",
    "WordClassReport",
    "length_offsets",
    "aliasing_constants",
    "words_by_type",
    "sixteenth_even_spectrum",
    "eighth_even_spectrum",
    "sixteenth_odd_spectrum",
    "eighth_odd_spectrum",
    "family_spectrum",
    "spectrum_metrics",
    "NoClosedFormBound",
    "projectivity_bound",
    "normalize_u0v0",
    "u0v0_class",
    "U0V0_CLASSES_SIXTEENTH",
    "U0V0_CLASSES_EIGHTH",
]

# Raw spectra are lists of (length, e, count) with aliasing index 2^-e.
RawSpectrum = list[tuple[int, int, int]]


@dataclass(frozen=True)
class LengthOffsets:
    """The ten base lengths l1..l10 from which all word lengths derive."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 10 or any(x < 0 for x in self.values):
            raise ValueError("length offsets must be 10 nonnegative integers")


def length_offsets(profile: GeneratorProfile) -> LengthOffsets:
    """Evaluate l1..l10 as fixed linear forms in the class counts."""
    m1, m2, m3, m4, m5, m6, m7, m8, m9, _ = profile.counts
    return LengthOffsets(
        (
            2 * (m4 + m8 + m9) + m1 + m3 + m5 + m6,
            2 * (m3 + m7 + m9) + m2 + m4 + m5 + m6,
            2 * (m2 + m8 + m9) + m1 + m3 + m5 + m6,
            2 * (m1 + m7 + m9) + m2 + m4 + m5 + m6,
            2 * (m1 + m3 + m5 + m6),
            2 * (m2 + m4 + m5 + m6),
            2 * (m1 + m2 + m3 + m4),
            2 * (m7 + m8) + m1 + m2 + m3 + m4,
            2 * (m5 + m7 + m8) + m1 + m2 + m3 + m4,
            2 * (m6 + m7 + m8) + m1 + m2 + m3 + m4,
        )
    )


def _half_floor(total: int) -> int:
    # floor(total / 2) on nonnegative integers; kept exact on purpose.
    return total // 2


def _pow2inv(e: int) -> Fraction:
    return Fraction(1, 1 << e)


@dataclass(frozen=True)
class _Exponents:
    """Exponents e with aliasing index 2^-e for each word group."""

    rho1: int
    rho2: int
    xi1: int
    xi2: int
    xi: int
    theta1: int | None = None
    theta2: int | None = None
    omega1: int | None = None
    omega2: int | None = None
    omega: int | None = None

    @property
    def omega0(self) -> int | None:
        if self.omega1 is None:
            return None
        return self.omega1 + self.omega2


def _indicators(u0v0: tuple[int, int]) -> tuple[int, int, int, int]:
    """delta1, delta2, eps1, eps2 of a branching pair (u0, v0)."""
    u0, v0 = u0v0
    d1 = 1 if u0 in (1, 3) else 0
    d2 = 1 if v0 in (1, 3) else 0
    e1 = 1 if (u0, v0) in ((1, 0), (1, 2), (3, 0), (3, 2)) else 0
    e2 = 1 if (u0, v0) in ((0, 1), (0, 3), (2, 1), (2, 3)) else 0
    return d1, d2, e1, e2


def _exponents(
    profile: GeneratorProfile, u0v0: tuple[int, int] | None = None
) -> _Exponents:
    m1, m2, m3, m4, m5, m6, _, _, _, _ = profile.counts
    base = dict(
        rho1=_half_floor(m1 + m3 + m5 + m6),
        rho2=_half_floor(m2 + m4 + m5 + m6),
        xi1=_half_floor(m1 + m3),
        xi2=_half_floor(m2 + m4),
        xi=_half_floor(m1 + m2 + m3 + m4 + 1),
    )
    if u0v0 is None:
        return _Exponents(**base)
    d1, d2, e1, e2 = _indicators(u0v0)
    return _Exponents(
        **base,
        theta1=_half_floor(m1 + m3 + m5 + m6 + d1),
        theta2=_half_floor(m2 + m4 + m5 + m6 + d2),
        omega1=_half_floor(m1 + m3 + e1),
        omega2=_half_floor(m2 + m4 + e2),
        omega=_half_floor(m1 + m2 + m3 + m4 + e1 + e2 + 1),
    )


@dataclass(frozen=True)
class AliasingConstants:
    """The named aliasing-index constants, as exact dyadic rationals.

    rho1/rho2 govern subsets containing an odd part of one check pair and
    an even part of the other; xi1, xi2, xi govern the mixed types.  The
    branched-family constants theta1, theta2, omega0, omega (and the
    indicator integers delta1, delta2, eps1, eps2, eps plus the count
    constants k11, k12, k21, k22) are present only when u0v0 is supplied.
    """

    rho1: Fraction
    rho2: Fraction
    xi1: Fraction
    xi2: Fraction
    xi: Fraction
    theta1: Fraction | None = None
    theta2: Fraction | None = None
    omega1: Fraction | None = None
    omega2: Fraction | None = None
    omega0: Fraction | None = None
    omega: Fraction | None = None
    delta1: int | None = None
    delta2: int | None = None
    eps1: int | None = None
    eps2: int | None = None
    eps: int | None = None
    k11: Fraction | None = None
    k12: Fraction | None = None
    k21: Fraction | None = None
    k22: Fraction | None = None


def aliasing_constants(
    profile: GeneratorProfile, u0v0: tuple[int, int] | None = None
) -> AliasingConstants:
    """Evaluate the aliasing-index constants for a profile."""
    exps = _exponents(profile, u0v0)
    base = dict(
        rho1=_pow2inv(exps.rho1),
        rho2=_pow2inv(exps.rho2),
        xi1=_pow2inv(exps.xi1),
        xi2=_pow2inv(exps.xi2),
        xi=_pow2inv(exps.xi),
    )
    if u0v0 is None:
        return AliasingConstants(**base)
    d1, d2, e1, e2 = _indicators(u0v0)
    k = {token: Fraction(w, 2) for token, w in _k_weights(profile).items()}
    return AliasingConstants(
        **base,
        theta1=_pow2inv(exps.theta1),
        theta2=_pow2inv(exps.theta2),
        omega1=_pow2inv(exps.omega1),
        omega2=_pow2inv(exps.omega2),
        omega0=_pow2inv(exps.omega0),
        omega=_pow2inv(exps.omega),
        delta1=d1,
        delta2=d2,
        eps1=e1,
        eps2=e2,
        eps=e1 + e2,
        k11=k[_K11],
        k12=k[_K12],
        k21=k[_K21],
        k22=k[_K22],
    )


@dataclass(frozen=True)
class WordClassReport:
    """Words contributed by one subset type: (count, ai, length) triples."""

    checks: str
    words: tuple[tuple[int, Fraction, int], ...]


def words_by_type(profile: GeneratorProfile, checks: str) -> WordClassReport:
    """Exact word accounting for one even-run subset type.

    ``checks`` is the 4-bit membership string of the check columns F1..F4.
    The mixed types (one check from each pair) split three ways on whether
    the diagonal classes (counts 5 and 6) and the off-diagonal classes
    (counts 1..4) are populated.
    """
    if len(checks) != 4 or set(checks) - {"0", "1"}:
        raise ValueError("checks must be a 4-bit string")
    off = length_offsets(profile).values
    exps = _exponents(profile)
    diag = profile.counts[4] + profile.counts[5]
    cross = sum(profile.counts[:4])

    def group(e: int, length: int, count: int | None = None):
        c = count if count is not None else 1 << (2 * e)
        return (c, _pow2inv(e), length)

    words: list[tuple[int, Fraction, int]] = []
    if checks in ("0100", "1000"):
        words.append(group(exps.rho1, off[0] + 1))
    elif checks in ("0001", "0010"):
        words.append(group(exps.rho2, off[1] + 1))
    elif checks in ("0111", "1011"):
        words.append(group(exps.rho1, off[2] + 3))
    elif checks in ("1101", "1110"):
        words.append(group(exps.rho2, off[3] + 3))
    elif checks == "1100":
        words.append(group(0, off[4] + 2))
    elif checks == "0011":
        words.append(group(0, off[5] + 2))
    elif checks == "1111":
        words.append(group(0, off[6] + 4))
    elif checks in ("0101", "1010", "0110", "1001"):
        matching = checks in ("0101", "1010")
        if diag == 0:
            e = exps.xi1 + exps.xi2
            words.append(group(e, off[7] + 2))
        elif cross == 0:
            length = off[9] + 2 if matching else off[8] + 2
            words.append(group(0, length))
        else:
            half = 1 << (2 * exps.xi - 1)
            words.append(group(exps.xi, off[8] + 2, half))
            words.append(group(exps.xi, off[9] + 2, half))
    return WordClassReport(checks, tuple(words))


def _merge(raw: RawSpectrum) -> RawSpectrum:
    acc: dict[tuple[int, int], int] = {}
    for length, e, count in raw:
        if count:
            key = (length, e)
            acc[key] = acc.get(key, 0) + count
    return [(length, e, count) for (length, e), count in sorted(acc.items())]


def _raw_even(profile: GeneratorProfile, sixteenth: bool) -> RawSpectrum:
    """Aggregate spectrum of the even-run families.

    The sixteenth fraction carries the full set of check-column types; the
    eighth fraction keeps only the types avoiding F1, which halves the
    rho1/rho2/mixed group sizes and drops two of the three full words.
    """
    off = length_offsets(profile).values
    exps = _exponents(profile)
    diag = profile.counts[4] + profile.counts[5]
    raw: RawSpectrum = []
    if sixteenth:
        raw.append((off[0] + 1, exps.rho1, 2 << (2 * exps.rho1)))
        raw.append((off[2] + 3, exps.rho1, 2 << (2 * exps.rho1)))
        raw.append((off[1] + 1, exps.rho2, 2 << (2 * exps.rho2)))
        raw.append((off[3] + 3, exps.rho2, 2 << (2 * exps.rho2)))
        raw.append((off[4] + 2, 0, 1))
        raw.append((off[5] + 2, 0, 1))
        raw.append((off[6] + 4, 0, 1))
        if diag == 0:
            e = exps.xi1 + exps.xi2
            raw.append((off[7] + 2, e, 4 << (2 * e)))
        else:
            raw.append((off[8] + 2, exps.xi, 2 << (2 * exps.xi)))
            raw.append((off[9] + 2, exps.xi, 2 << (2 * exps.xi)))
    else:
        raw.append((off[0] + 1, exps.rho1, 1 << (2 * exps.rho1)))
        raw.append((off[2] + 3, exps.rho1, 1 << (2 * exps.rho1)))
        raw.append((off[1] + 1, exps.rho2, 2 << (2 * exps.rho2)))
        raw.append((off[5] + 2, 0, 1))
        if diag == 0:
            e = exps.xi1 + exps.xi2
            raw.append((off[7] + 2, e, 2 << (2 * e)))
        else:
            raw.append((off[8] + 2, exps.xi, 1 << (2 * exps.xi)))
            raw.append((off[9] + 2, exps.xi, 1 << (2 * exps.xi)))
    return _merge(raw)


# ---------------------------------------------------------------------------
# Branched families: per-(u0 v0) count tables.
#
# Counts below are the weights N with word count N / ai^2; they are stored
# doubled so the half-integer entries of the eighth-fraction table stay
# integral.  Tokens K11/K12/K21/K22 depend on the profile (``_k_weights``):
#   k11 = 1/2 if classes 1, 3, 5 or 6 are populated else 0, k12 = 1 - k11,
#   k21 = 1 if classes 1, 3, 5 or 6 are populated else 0,   k22 = 2 - k21.
# The omega0 rows apply only when classes 5 and 6 are empty and the omega
# rows only when they are not, except in the 11/13/31/33 columns where both
# row groups always apply (their omega0 entries are zero there).
# ---------------------------------------------------------------------------

_H, _K11, _K12, _K21, _K22 = "h", "k11", "k12", "k21", "k22"
_T1, _T2, _ONE, _W0, _W = "theta1", "theta2", "one", "omega0", "omega"


def _k_weights(profile: GeneratorProfile) -> dict[str, int]:
    """Doubled values of the tokens k11, k12, k21, k22 of the eighth-fraction
    count table.

    They gate on classes 1, 3, 5 and 6 together: brute force shows the
    one-u-check words split evenly across the branch bit whenever any of
    those classes is populated, not only classes 1 and 3.
    """
    m1, _, m3, _, m5, m6, _, _, _, _ = profile.counts
    if m1 + m3 + m5 + m6 > 0:
        return {_K11: 1, _K12: 1, _K21: 2, _K22: 2}
    return {_K11: 0, _K12: 2, _K21: 0, _K22: 4}


_SIXTEENTH_COLS = ("00", "01", "02", "10", "11", "12", "13", "20", "21", "22")
_SIXTEENTH_ROWS: tuple[tuple[int, int, str, tuple], ...] = (
    (1, 1, _T1, (2, 2, 2, 1, 1, 1, 1, 0, 0, 0)),
    (1, 2, _T1, (0, 0, 0, 1, 1, 1, 1, 2, 2, 2)),
    (2, 1, _T2, (2, 1, 0, 2, 1, 0, 1, 2, 1, 0)),
    (2, 2, _T2, (0, 1, 2, 0, 1, 2, 1, 0, 1, 2)),
    (3, 3, _T1, (2, 0, 2, 1, 1, 1, 1, 0, 2, 0)),
    (3, 4, _T1, (0, 2, 0, 1, 1, 1, 1, 2, 0, 2)),
    (4, 3, _T2, (2, 1, 0, 0, 1, 2, 1, 2, 1, 0)),
    (4, 4, _T2, (0, 1, 2, 2, 1, 0, 1, 0, 1, 2)),
    (5, 2, _ONE, (1, 1, 1, 0, 0, 0, 0, 1, 1, 1)),
    (5, 3, _ONE, (0, 0, 0, 1, 1, 1, 1, 0, 0, 0)),
    (6, 2, _ONE, (1, 0, 1, 1, 0, 1, 0, 1, 0, 1)),
    (6, 3, _ONE, (0, 1, 0, 0, 1, 0, 1, 0, 1, 0)),
    (7, 4, _ONE, (1, 0, 1, 0, 1, 0, 1, 1, 0, 1)),
    (7, 5, _ONE, (0, 1, 0, 1, 0, 1, 0, 0, 1, 0)),
    (8, 2, _W0, (4, 2, 0, 2, 0, 2, 0, 0, 2, 4)),
    (8, 3, _W0, (0, 2, 4, 2, 0, 2, 0, 4, 2, 0)),
    (9, 2, _W, (2, 1, 0, 1, 0, 1, 2, 0, 1, 2)),
    (9, 3, _W, (0, 1, 2, 1, 2, 1, 0, 2, 1, 0)),
    (10, 2, _W, (2, 1, 0, 1, 2, 1, 0, 0, 1, 2)),
    (10, 3, _W, (0, 1, 2, 1, 0, 1, 2, 2, 1, 0)),
)

_EIGHTH_COLS = (
    "00", "01", "02", "10", "11", "12", "13",
    "20", "21", "22", "30", "31", "32", "33",
)
_EIGHTH_ROWS: tuple[tuple[int, int, str, tuple], ...] = (
    (1, 1, _T1, (1, 1, 1, _K11, _K11, _K11, _K11, 0, 0, 0, _K12, _K12, _K12, _K12)),
    (1, 2, _T1, (0, 0, 0, _K12, _K12, _K12, _K12, 1, 1, 1, _K11, _K11, _K11, _K11)),
    (2, 1, _T2, (2, 1, 0, 2, 1, 0, 1, 2, 1, 0, 2, 1, 0, 1)),
    (2, 2, _T2, (0, 1, 2, 0, 1, 2, 1, 0, 1, 2, 0, 1, 2, 1)),
    (3, 3, _T1, (1, 0, 1, _K11, _K12, _K11, _K12, 0, 1, 0, _K12, _K11, _K12, _K11)),
    (3, 4, _T1, (0, 1, 0, _K12, _K11, _K12, _K11, 1, 0, 1, _K11, _K12, _K11, _K12)),
    (6, 2, _ONE, (1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0)),
    (6, 3, _ONE, (0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1)),
    (8, 2, _W0, (2, 1, 0, _K21, 0, _K22, 0, 0, 1, 2, _K22, 0, _K21, 0)),
    (8, 3, _W0, (0, 1, 2, _K22, 0, _K21, 0, 2, 1, 0, _K21, 0, _K22, 0)),
    (9, 2, _W, (1, _H, 0, _H, 0, _H, 1, 0, _H, 1, _H, 1, _H, 0)),
    (9, 3, _W, (0, _H, 1, _H, 1, _H, 0, 1, _H, 0, _H, 0, _H, 1)),
    (10, 2, _W, (1, _H, 0, _H, 1, _H, 0, 0, _H, 1, _H, 0, _H, 1)),
    (10, 3, _W, (0, _H, 1, _H, 0, _H, 1, 1, _H, 0, _H, 1, _H, 0)),
)

#: u0v0 values whose omega0/omega rows apply unconditionally.
_UNGATED = {(1, 1), (1, 3), (3, 1), (3, 3)}

#: Merged-column mapping for the sixteenth-fraction count table.
_SIXTEENTH_CLASS = {
    "00": "00", "01": "01", "02": "02", "03": "01",
    "10": "10", "11": "11", "12": "12", "13": "13",
    "20": "20", "21": "21", "22": "22", "23": "21",
    "30": "10", "31": "13", "32": "12", "33": "11",
}

#: Merged-column mapping for the eighth-fraction count table.
_EIGHTH_CLASS = {f"{a}{b}": f"{a}{b}" for a in range(4) for b in range(4)}
_EIGHTH_CLASS["03"] = "01"
_EIGHTH_CLASS["23"] = "21"

U0V0_CLASSES_SIXTEENTH: tuple[tuple[int, int], ...] = tuple(
    (int(c[0]), int(c[1])) for c in _SIXTEENTH_COLS
)
U0V0_CLASSES_EIGHTH: tuple[tuple[int, int], ...] = tuple(
    (int(c[0]), int(c[1])) for c in _EIGHTH_COLS
)


def normalize_u0v0(u0v0: tuple[int, int] | str) -> tuple[int, int]:
    if isinstance(u0v0, str):
        text = u0v0.strip()
        if len(text) != 2 or not text.isdigit():
            raise ValueError(f"u0v0 must be two Z4 digits, got {u0v0!r}")
        u0v0 = (int(text[0]), int(text[1]))
    u0, v0 = int(u0v0[0]), int(u0v0[1])
    if u0 not in (0, 1, 2, 3) or v0 not in (0, 1, 2, 3):
        raise ValueError("u0 and v0 must lie in {0,1,2,3}")
    return (u0, v0)


def u0v0_class(family: Family, u0v0: tuple[int, int] | str) -> tuple[int, int]:
    """Representative of the merged count-table column containing u0v0."""
    u0, v0 = normalize_u0v0(u0v0)
    mapping = _SIXTEENTH_CLASS if family.sixteenth else _EIGHTH_CLASS
    rep = mapping[f"{u0}{v0}"]
    return (int(rep[0]), int(rep[1]))


def _raw_branched(
    profile: GeneratorProfile, u0v0: tuple[int, int], sixteenth: bool
) -> RawSpectrum:
    """Spectrum of a branched family from its count table."""
    off = length_offsets(profile).values
    exps = _exponents(profile, u0v0)
    diag = profile.counts[4] + profile.counts[5]
    # Doubled count weights per token (weights may be half-integers).
    doubled = {0: 0, 1: 2, 2: 4, 4: 8, _H: 1, **_k_weights(profile)}
    evals = {
        _T1: exps.theta1,
        _T2: exps.theta2,
        _ONE: 0,
        _W0: exps.omega0,
        _W: exps.omega,
    }
    if sixteenth:
        cols, rows, cls = _SIXTEENTH_COLS, _SIXTEENTH_ROWS, _SIXTEENTH_CLASS
    else:
        cols, rows, cls = _EIGHTH_COLS, _EIGHTH_ROWS, _EIGHTH_CLASS
    col = cols.index(cls[f"{u0v0[0]}{u0v0[1]}"])
    ungated = u0v0 in _UNGATED

    raw: RawSpectrum = []
    for l_index, offset, key, counts in rows:
        if not ungated:
            if key == _W0 and diag > 0:
                continue
            if key == _W and diag == 0:
                continue
        weight2 = doubled[counts[col]]
        if weight2 == 0:
            continue
        e = evals[key]
        count2 = weight2 << (2 * e)
        if count2 % 2:
            raise AssertionError("half-integer weight with unit aliasing index")
        raw.append((off[l_index - 1] + offset, e, count2 // 2))
    return _merge(raw)


def _raw_family(
    family: Family,
    profile: GeneratorProfile,
    u0v0: tuple[int, int] | None = None,
) -> RawSpectrum:
    if family.branched:
        if u0v0 is None:
            raise ValueError(f"{family.value} requires u0v0")
        return _raw_branched(profile, normalize_u0v0(u0v0), family.sixteenth)
    if u0v0 is not None:
        raise ValueError(f"{family.value} does not take u0v0")
    return _raw_even(profile, family.sixteenth)


def _to_spectrum(raw: RawSpectrum) -> WordSpectrum:
    return WordSpectrum.from_entries(
        (length, _pow2inv(e), count) for length, e, count in raw
    )


def sixteenth_even_spectrum(profile: GeneratorProfile) -> WordSpectrum:
    """Closed-form spectrum of the 2^(2n) run, 2n+4 factor design."""
    return _to_spectrum(_raw_even(profile, sixteenth=True))


def eighth_even_spectrum(profile: GeneratorProfile) -> WordSpectrum:
    """Closed-form spectrum of the 2^(2n) run, 2n+3 factor design."""
    return _to_spectrum(_raw_even(profile, sixteenth=False))


def sixteenth_odd_spectrum(
    profile: GeneratorProfile, u0v0: tuple[int, int] | str
) -> WordSpectrum:
    """Closed-form spectrum of the 2^(2n+1) run, 2n+5 factor design."""
    return _to_spectrum(_raw_branched(profile, normalize_u0v0(u0v0), True))


def eighth_odd_spectrum(
    profile: GeneratorProfile, u0v0: tuple[int, int] | str
) -> WordSpectrum:
    """Closed-form spectrum of the 2^(2n+1) run, 2n+4 factor design."""
    return _to_spectrum(_raw_branched(profile, normalize_u0v0(u0v0), False))


def family_spectrum(
    family: Family,
    profile: GeneratorProfile,
    u0v0: tuple[int, int] | str | None = None,
) -> WordSpectrum:
    """Dispatch to the closed-form spectrum for any family."""
    if u0v0 is not None:
        u0v0 = normalize_u0v0(u0v0)
    return _to_spectrum(_raw_family(family, profile, u0v0))


class NoClosedFormBound(ValueError):
    """Raised for families without a closed-form projectivity bound."""


def projectivity_bound(n: int, family: Family) -> int:
    """Upper bound on projectivity for the sixteenth-fraction families.

    The bound follows from the guaranteed full words: at least three of
    them exist, and their lengths cannot all be large at once.  No analog
    is available for the eighth fractions, which guarantee only one full
    word; those families raise :class:`NoClosedFormBound`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if family is Family.SIXTEENTH_EVEN:
        j = n % 3
        if j == 0:
            return 4 * n // 3 + 1
        return 4 * (n - j) // 3 + 3
    if family is Family.SIXTEENTH_ODD:
        j = n % 3
        if j == 0:
            return 4 * n // 3 + 2
        return 4 * (n - j) // 3 + 2 + j
    raise NoClosedFormBound(
        f"no closed-form projectivity bound for {family.value}"
    )
