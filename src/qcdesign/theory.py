"""Closed-form word spectra and projectivity bounds from generator profiles.

The word spectrum of every family depends on (u, v) only through the ten
pair-class counts, and on (u0, v0) through its merged class: a column of
the fraction's count table, where the even-run family reads column 00.
This module evaluates those closed forms exactly; the oracle module
recomputes the same spectra by brute force, and the two must agree entry
for entry.

The closed forms run as one integer array program over a batch of
candidates, profiles times u0v0 values (``closed_forms``): the length
offsets are a fixed linear map of the class counts, and each row of the
family's count table adds words of one length and one aliasing index 2^-e.
An exponent e halves a profile's class-count sum plus its pair's indicator
shift, so the batch keeps the sums and the shifts and works exponents out
only for the candidates asked for.  The one-design functions below are
one-candidate calls into the same program.  Aliasing indices are
powers of 1/2 throughout, so raw spectra are (length, exponent, count)
triples with integer arithmetic; the public functions return
:class:`~qcdesign.spectrum.WordSpectrum` values with exact ``Fraction``
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qc_core import (
    _CLASS_OF, _CLASS_PAIRS, Z4, Family, GeneratorProfile, _check_n, _check_pair,
    _check_u0v0,
)
from .spectrum import WordSpectrum

# Raw spectra are lists of (length, e, count) with aliasing index 2^-e.
RawSpectrum = list[tuple[int, int, int]]
U0V0 = tuple[int, int]

#: The sixteen (u0, v0) pairs, sorted.
U0V0_PAIRS: tuple[U0V0, ...] = tuple((u0, v0) for u0 in Z4 for v0 in Z4)

#: l1..l10 = counts @ _L; column j holds the coefficients of l(j+1) in the
#: class counts m1..m10 (rows).
_L = np.array(
    [
        # l1 l2 l3 l4 l5 l6 l7 l8 l9 l10
        [1, 0, 1, 2, 2, 0, 2, 1, 1, 1],  # m1
        [0, 1, 2, 1, 0, 2, 2, 1, 1, 1],  # m2
        [1, 2, 1, 0, 2, 0, 2, 1, 1, 1],  # m3
        [2, 1, 0, 1, 0, 2, 2, 1, 1, 1],  # m4
        [1, 1, 1, 1, 2, 2, 0, 0, 2, 0],  # m5
        [1, 1, 1, 1, 2, 2, 0, 0, 0, 2],  # m6
        [0, 2, 0, 2, 0, 0, 0, 2, 2, 2],  # m7
        [2, 0, 2, 0, 0, 0, 0, 2, 2, 2],  # m8
        [2, 2, 2, 2, 0, 0, 0, 0, 0, 0],  # m9
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # m10
    ],
    dtype=np.int16,
)

#: The five exponent groups are halved sums: (counts @ _X + shift) // 2,
#: where the shift of a branching pair is (delta1, delta2, eps1, eps2,
#: eps1 + eps2 + 1) and zero indicators give rho1, rho2, xi1, xi2, xi.
_X = np.array(
    [
        # theta1 theta2 omega1 omega2 omega
        [1, 0, 1, 0, 1],  # m1
        [0, 1, 0, 1, 1],  # m2
        [1, 0, 1, 0, 1],  # m3
        [0, 1, 0, 1, 1],  # m4
        [1, 1, 0, 0, 0],  # m5
        [1, 1, 0, 0, 0],  # m6
        [0, 0, 0, 0, 0],  # m7
        [0, 0, 0, 0, 0],  # m8
        [0, 0, 0, 0, 0],  # m9
        [0, 0, 0, 0, 0],  # m10
    ],
    dtype=np.int16,
)

#: Table weights are int8, lengths and sums int16, and an exponent, at most
#: n + 1, fits int8 and a resolution key's low byte; profiles stay this small.
_MAX_PROFILE_N = 126


def _indicators(u0v0: U0V0) -> tuple[int, int, int, int]:
    """delta1, delta2, eps1, eps2 of a branching pair (u0, v0): delta1 and
    delta2 are the parities of u0 and v0, eps1 = delta1 and not delta2,
    eps2 = delta2 and not delta1."""
    d1, d2 = u0v0[0] & 1, u0v0[1] & 1
    return d1, d2, d1 & (1 - d2), d2 & (1 - d1)


def _gates(counts: np.ndarray) -> np.ndarray:
    """Weight-table gate of each profile: 2 * (classes 1, 3, 5 or 6
    populated) + (classes 5 and 6 empty)."""
    populated = counts[:, [0, 2, 4, 5]].sum(axis=1) > 0
    diagonal_empty = counts[:, [4, 5]].sum(axis=1) == 0
    return 2 * populated.astype(np.intp) + diagonal_empty


# ---------------------------------------------------------------------------
# Count tables, one per fraction.
#
# Each row (l index i, offset o, exponent token, weights per column) holds
# words of length l_i + o with aliasing index 2^-e, e the token's exponent,
# and word count weight / ai^2.  The columns are the merged u0v0 classes,
# sorted.  Weights may be half-integers and are resolved doubled.
# Tokens K11/K12/K21/K22 depend on the profile (``_k_weights``):
#   k11 = 1/2 if classes 1, 3, 5 or 6 are populated else 0, k12 = 1 - k11,
#   k21 = 1 if classes 1, 3, 5 or 6 are populated else 0,   k22 = 2 - k21.
# The omega0 rows apply only when classes 5 and 6 are empty and the omega
# rows only when they are not, except where u0 and v0 are both odd (the
# 11/13/31/33 columns): there both row groups always apply (their omega0
# entries are zero).
#
# The even-run families read the u0v0 = 00 column: there the check columns
# do not depend on a0, so the odd-run design is the even-run design run
# with F5 = +1 and again with F5 = -1.  Every word with F5 has J = 0 (zero
# in column 00), every other word keeps its |J|/N, and the indicators are
# zero: theta1, theta2, omega0, omega reduce to rho1, rho2, xi1 + xi2, xi.
# ---------------------------------------------------------------------------

_H, _K11, _K12, _K21, _K22 = "h", "k11", "k12", "k21", "k22"
_T1, _T2, _ONE, _W0, _W = "theta1", "theta2", "one", "omega0", "omega"

#: Exponent tokens, and the groups (columns of _X) each one adds: omega0 is
#: omega1 + omega2, the unit token none (``ClosedForms.exponents`` folds so).
_TOKENS = (_T1, _T2, _W0, _ONE, _W)
_TOKEN_GROUPS = ((0,), (1,), (2, 3), (), (4,))


def _k_weights(populated: bool) -> dict[str, int]:
    """Doubled values of the tokens k11, k12, k21, k22 of the eighth-fraction
    count table, given whether classes 1, 3, 5 or 6 are populated.

    They gate on classes 1, 3, 5 and 6 together: brute force shows the
    one-u-check words split evenly across the branch bit whenever any of
    those classes is populated, not only classes 1 and 3.
    """
    if populated:
        return {_K11: 1, _K12: 1, _K21: 2, _K22: 2}
    return {_K11: 0, _K12: 2, _K21: 0, _K22: 4}


#: Merged columns of the sixteenth-fraction count table: the (k, s) sign
#: classes of a profile, each under its first-listed pair.
_SIXTEENTH_CLASS = {pair: _CLASS_PAIRS[c][0] for pair, c in _CLASS_OF.items()}

#: Merged columns of the eighth-fraction count table; other pairs stand alone.
_EIGHTH_CLASS = {(0, 3): (0, 1), (2, 3): (2, 1)}

_SIXTEENTH_COLS = tuple(sorted(set(_SIXTEENTH_CLASS.values())))
_EIGHTH_COLS = tuple(pair for pair in U0V0_PAIRS if pair not in _EIGHTH_CLASS)

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


def u0v0_classes(family: Family) -> tuple[U0V0 | None, ...]:
    """The family's u0v0 axis: one pair per merged count-table column, or
    ``(None,)`` for the even-run families."""
    if not family.branched:
        return (None,)
    return _SIXTEENTH_COLS if family.sixteenth else _EIGHTH_COLS


def normalize_u0v0(u0v0: U0V0 | str) -> U0V0:
    """(u0, v0) from two Z4 values or from two digits such as ``"12"``."""
    if isinstance(u0v0, str):
        text = u0v0.strip()
        if len(text) != 2 or not text.isdigit():
            raise ValueError(f"u0v0 must be two Z4 digits, got {u0v0!r}")
        u0v0 = (int(text[0]), int(text[1]))
    return _check_pair(u0v0)


def u0v0_class(family: Family, u0v0: U0V0 | str) -> U0V0:
    """Representative of the merged count-table column containing u0v0."""
    pair = normalize_u0v0(u0v0)
    return (_SIXTEENTH_CLASS if family.sixteenth else _EIGHTH_CLASS).get(pair, pair)


@dataclass(frozen=True)
class _Table:
    """A family's count table resolved for one tuple of u0v0 values."""

    l_index: np.ndarray  # (rows,) which of l1..l10, zero-based
    offset: np.ndarray  # (rows,) added to the length offset
    token: np.ndarray  # (rows,) position of the exponent token in _TOKENS
    weights: np.ndarray  # (4 gates, pairs, rows) int8 doubled weights


@lru_cache(maxsize=None)
def _table(family: Family, pairs: tuple[U0V0, ...]) -> _Table:
    """Resolve the fraction's count table for the given u0v0 values: tokens
    and row gates become doubled weights indexed [gate, pair, row], the
    gate numbered as in ``_gates``.  Rows that no gate and no pair
    populates are dropped (at 00 alone: the words with F5)."""
    cols = _SIXTEENTH_COLS if family.sixteenth else _EIGHTH_COLS
    rows = _SIXTEENTH_ROWS if family.sixteenth else _EIGHTH_ROWS
    weights = np.zeros((4, len(pairs), len(rows)), dtype=np.int8)
    for gate in range(4):
        populated, diagonal_empty = bool(gate >> 1), bool(gate & 1)
        doubled = {0: 0, 1: 2, 2: 4, 4: 8, _H: 1, **_k_weights(populated)}
        for j, pair in enumerate(pairs):
            col = cols.index(u0v0_class(family, pair))
            for r, (_, _, key, entries) in enumerate(rows):
                if _indicators(pair)[:2] != (1, 1) and (
                    (key == _W0 and not diagonal_empty)
                    or (key == _W and diagonal_empty)
                ):
                    continue
                weights[gate, j, r] = doubled[entries[col]]
    kept = weights.any(axis=(0, 1))
    weights, rows = weights[:, :, kept], [row for row, k in zip(rows, kept) if k]
    # A doubled WLP entry sums one candidate's weights, none negative (search prunes by it).
    assert int(weights.astype(np.int64).sum(axis=2).max()) <= np.iinfo(np.int8).max
    assert int(weights.min()) >= 0
    weights.flags.writeable = False
    return _Table(
        l_index=np.array([row[0] - 1 for row in rows]),
        offset=np.array([row[1] for row in rows], dtype=np.int16),
        token=np.array([_TOKENS.index(row[2]) for row in rows]),
        weights=weights,
    )


@dataclass(frozen=True, eq=False)
class ClosedForms:
    """The count-table rows of a batch of candidates, profiles x pairs.

    Row r of candidate (p, c) holds words of length ``lengths[p, r]`` and
    aliasing index 2^-e, with doubled weight w: their count is
    w * 4^e / 2, and their share of the wordlength-pattern entry A_length
    is w / 2.  w is ``table.weights[gates[p], c, r]``, and e adds the
    halved groups ``(sums[p] + shifts[c]) // 2`` of the row's token
    (``_TOKEN_GROUPS``).  Nothing of size profiles x pairs is stored;
    ``exponents`` and ``words`` work them out for the candidates given.
    """

    lengths: np.ndarray  # (profiles, rows) int16
    sums: np.ndarray  # (profiles, 5) int16 class-count sums counts @ _X
    shifts: np.ndarray  # (pairs, 5) int16 indicator shifts
    gates: np.ndarray  # (profiles,) index into table.weights
    table: _Table

    def exponents(self, p: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Exponents e of every row of the candidates (p[i], c[i]),
        (candidates, rows) int64."""
        groups = (self.sums[p] + self.shifts[c]).astype(np.int64) >> 1
        groups[:, 2] += groups[:, 3]  # omega0 in omega1's place, and the
        groups[:, 3] = 0  # unit token in omega2's: the order of _TOKENS
        return groups[:, self.table.token]

    def words(self, p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lengths, exponents e and word counts w * 4^e / 2 of every row of
        the candidates (p[i], c[i]), as (candidates, rows) int64 arrays, exact
        for n <= 28 (w <= 8, e <= n + 1); ``_raw_family``'s are unbounded."""
        exps = self.exponents(p, c)
        weights = self.table.weights[self.gates[p], c].astype(np.int64)
        return self.lengths[p].astype(np.int64), exps, (weights << 2 * exps) >> 1


def closed_forms(
    family: Family, counts: np.ndarray, pairs: Sequence[U0V0 | str | None]
) -> ClosedForms:
    """Evaluate the family's count table for every (profile, pair) candidate.

    ``counts`` is a (profiles, 10) array of class counts; ``pairs`` are the
    u0v0 values (``(None,)`` for the even-run families, which read 00).
    """
    pairs = tuple(
        _check_u0v0(family, p if p is None else normalize_u0v0(p)) or (0, 0) for p in pairs
    )
    counts = np.asarray(counts, dtype=np.int16).reshape(-1, 10)
    if counts.size and int(counts.sum(axis=1).max()) > _MAX_PROFILE_N:
        raise ValueError(f"closed forms are evaluated for n <= {_MAX_PROFILE_N}")
    table = _table(family, pairs)
    # Both products run on float64 BLAS, exact: no sum passes 2 * _MAX_PROFILE_N.
    rows = counts.astype(np.float64)
    lengths = (rows @ _L).astype(np.int16)[:, table.l_index] + table.offset
    sums, gates = (rows @ _X).astype(np.int16), _gates(counts)
    del rows
    shifts = np.array([(*i, i[2] + i[3] + 1) for i in map(_indicators, pairs)], np.int16)
    # No candidate's odd weight may meet e = 0: one (profiles, pairs)
    # exponent plane per token that carries an odd weight in any row.
    odd = (table.weights & 1).astype(bool)
    for t in set(table.token[odd.any(axis=(0, 1))].tolist()):
        exps = sum(((sums[:, g, None] + shifts[:, g]) >> 1 for g in _TOKEN_GROUPS[t]), 0)
        if np.any(odd[:, :, table.token == t].any(axis=2)[gates] & (exps == 0)):
            raise AssertionError("half-integer weight with unit aliasing index")
    return ClosedForms(lengths=lengths, sums=sums, shifts=shifts, gates=gates, table=table)


def _raw_family(
    family: Family, profile: GeneratorProfile, u0v0: U0V0 | str | None = None
) -> RawSpectrum:
    """The (length, e, count) table rows of one design, unmerged and with
    zero counts kept (``WordSpectrum.from_entries`` drops them); Python
    integers count them, exact at every n."""
    forms = closed_forms(family, np.array([profile.counts], dtype=np.int16), (u0v0,))
    exps = forms.exponents(np.array([0]), np.array([0]))[0].tolist()
    weights = forms.table.weights[forms.gates[0], 0].tolist()
    return [(r, e, w << 2 * e >> 1) for r, e, w in zip(forms.lengths[0].tolist(), exps, weights)]


def family_spectrum(
    family: Family, profile: GeneratorProfile, u0v0: U0V0 | str | None = None
) -> WordSpectrum:
    """Closed-form spectrum of one design of any family."""
    return WordSpectrum.from_entries(
        (length, Fraction(1, 1 << e), count)
        for length, e, count in _raw_family(family, profile, u0v0)
    )


def projectivity_bound(n: int, family: Family) -> int | None:
    """Upper bound on projectivity for the sixteenth-fraction families.

    The bound follows from the guaranteed full words: at least three of
    them exist, and their lengths cannot all be large at once.  No analog
    is available for the eighth fractions, which guarantee only one full
    word; those families get None.
    """
    n = _check_n(n)
    if not family.sixteenth:
        return None
    j = n % 3
    if j == 0:
        return 4 * n // 3 + 1 + family.branched
    return 4 * (n - j) // 3 + (2 + j if family.branched else 3)
