"""Scalar closed forms, one candidate at a time: the reference for the
array program in ``qcdesign.theory`` and the keys in ``qcdesign.search``.

The length offsets, exponents, even-run spectra and keys are written out
term by term as plain Python; the branched spectra read the library's count
tables (the data under test through the theory == oracle checks) row by row.
"""

from __future__ import annotations

from qcdesign import Family, GeneratorProfile
from qcdesign.theory import (
    _EIGHTH_CLASS,
    _EIGHTH_COLS,
    _EIGHTH_ROWS,
    _H,
    _ONE,
    _SIXTEENTH_CLASS,
    _SIXTEENTH_COLS,
    _SIXTEENTH_ROWS,
    _T1,
    _T2,
    _W,
    _W0,
    _k_weights,
    normalize_u0v0,
)

RawSpectrum = list[tuple[int, int, int]]

#: u0v0 values whose omega0/omega rows apply unconditionally.
UNGATED = {(1, 1), (1, 3), (3, 1), (3, 3)}


def indicators(u0v0: tuple[int, int]) -> tuple[int, int, int, int]:
    """delta1, delta2, eps1, eps2 of a branching pair (u0, v0)."""
    u0, v0 = u0v0
    d1 = 1 if u0 in (1, 3) else 0
    d2 = 1 if v0 in (1, 3) else 0
    e1 = 1 if (u0, v0) in ((1, 0), (1, 2), (3, 0), (3, 2)) else 0
    e2 = 1 if (u0, v0) in ((0, 1), (0, 3), (2, 1), (2, 3)) else 0
    return d1, d2, e1, e2


def length_offsets(profile: GeneratorProfile) -> tuple[int, ...]:
    m1, m2, m3, m4, m5, m6, m7, m8, m9, _ = profile.counts
    return (
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


def exponents(
    profile: GeneratorProfile, u0v0: tuple[int, int] | None = None
) -> dict[str, int]:
    """Exponents e with aliasing index 2^-e for each word group."""
    m1, m2, m3, m4, m5, m6, _, _, _, _ = profile.counts
    exps = dict(
        rho1=(m1 + m3 + m5 + m6) // 2,
        rho2=(m2 + m4 + m5 + m6) // 2,
        xi1=(m1 + m3) // 2,
        xi2=(m2 + m4) // 2,
        xi=(m1 + m2 + m3 + m4 + 1) // 2,
    )
    if u0v0 is not None:
        d1, d2, e1, e2 = indicators(u0v0)
        exps.update(
            theta1=(m1 + m3 + m5 + m6 + d1) // 2,
            theta2=(m2 + m4 + m5 + m6 + d2) // 2,
            omega1=(m1 + m3 + e1) // 2,
            omega2=(m2 + m4 + e2) // 2,
            omega=(m1 + m2 + m3 + m4 + e1 + e2 + 1) // 2,
        )
        exps["omega0"] = exps["omega1"] + exps["omega2"]
    return exps


def merge(raw: RawSpectrum) -> RawSpectrum:
    acc: dict[tuple[int, int], int] = {}
    for length, e, count in raw:
        if count:
            key = (length, e)
            acc[key] = acc.get(key, 0) + count
    return [(length, e, count) for (length, e), count in sorted(acc.items())]


def raw_even(profile: GeneratorProfile, sixteenth: bool) -> RawSpectrum:
    """Aggregate spectrum of the even-run families.

    Written out term by term, without the library's count tables: the
    library reads the 00 column of its odd-run tables here, and this is
    the independent reference for that reading.

    The sixteenth fraction carries the full set of check-column types; the
    eighth fraction keeps only the types avoiding F1, which halves the
    rho1/rho2/mixed group sizes and drops two of the three full words.
    """
    off = length_offsets(profile)
    exps = exponents(profile)
    rho1, rho2, xi = exps["rho1"], exps["rho2"], exps["xi"]
    diag = profile.counts[4] + profile.counts[5]
    raw: RawSpectrum = []
    if sixteenth:
        raw.append((off[0] + 1, rho1, 2 << (2 * rho1)))
        raw.append((off[2] + 3, rho1, 2 << (2 * rho1)))
        raw.append((off[1] + 1, rho2, 2 << (2 * rho2)))
        raw.append((off[3] + 3, rho2, 2 << (2 * rho2)))
        raw.append((off[4] + 2, 0, 1))
        raw.append((off[5] + 2, 0, 1))
        raw.append((off[6] + 4, 0, 1))
        if diag == 0:
            e = exps["xi1"] + exps["xi2"]
            raw.append((off[7] + 2, e, 4 << (2 * e)))
        else:
            raw.append((off[8] + 2, xi, 2 << (2 * xi)))
            raw.append((off[9] + 2, xi, 2 << (2 * xi)))
    else:
        raw.append((off[0] + 1, rho1, 1 << (2 * rho1)))
        raw.append((off[2] + 3, rho1, 1 << (2 * rho1)))
        raw.append((off[1] + 1, rho2, 2 << (2 * rho2)))
        raw.append((off[5] + 2, 0, 1))
        if diag == 0:
            e = exps["xi1"] + exps["xi2"]
            raw.append((off[7] + 2, e, 2 << (2 * e)))
        else:
            raw.append((off[8] + 2, xi, 1 << (2 * xi)))
            raw.append((off[9] + 2, xi, 1 << (2 * xi)))
    return merge(raw)


def raw_branched(
    profile: GeneratorProfile, u0v0: tuple[int, int], sixteenth: bool
) -> RawSpectrum:
    """Spectrum of a branched family from its count table."""
    off = length_offsets(profile)
    exps = exponents(profile, u0v0)
    m1, _, m3, _, m5, m6, _, _, _, _ = profile.counts
    diag = m5 + m6
    # Doubled count weights per token (weights may be half-integers).
    doubled = {0: 0, 1: 2, 2: 4, 4: 8, _H: 1, **_k_weights(m1 + m3 + m5 + m6 > 0)}
    evals = {_T1: exps["theta1"], _T2: exps["theta2"], _ONE: 0,
             _W0: exps["omega0"], _W: exps["omega"]}
    if sixteenth:
        cols, rows, cls = _SIXTEENTH_COLS, _SIXTEENTH_ROWS, _SIXTEENTH_CLASS
    else:
        cols, rows, cls = _EIGHTH_COLS, _EIGHTH_ROWS, _EIGHTH_CLASS
    col = cols.index(cls.get(u0v0, u0v0))
    ungated = u0v0 in UNGATED

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
    return merge(raw)


def raw_family(
    family: Family, profile: GeneratorProfile, u0v0: tuple[int, int] | None = None
) -> RawSpectrum:
    if family.branched:
        return raw_branched(profile, normalize_u0v0(u0v0), family.sixteenth)
    return raw_even(profile, family.sixteenth)


def resolution_key(raw: RawSpectrum) -> tuple[int, int]:
    """Key increasing with resolution: (min length, exponent at min length)."""
    if not raw:
        return (1 << 30, 1 << 30)
    r = raw[0][0]
    return (r, min(e for length, e, _ in raw if length == r))


def wlp_key(raw: RawSpectrum, q: int) -> tuple[int, ...]:
    """Doubled-integer wordlength pattern (A_k sums the table weights)."""
    acc = [0] * q
    for length, e, count in raw:
        acc[length - 1] += (2 * count) >> (2 * e)
    return tuple(acc)
