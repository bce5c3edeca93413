"""Brute-force, exact analysis of explicit design matrices.

Everything here works from the +1/-1 matrix alone (no generator theory):
J-characteristics through a subset-parity transform of the sign-pattern
frequency table, word spectra, and projectivity from the same J-table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .qc_core import DesignMatrix
from .spectrum import WordSpectrum

#: Default cap on the number of factors.  The J-table and the subset sums
#: that projectivity adds are 2^q int64 arrays each; with the smaller
#: per-subset arrays the oracle peaks near 18 * 2^q bytes (tracemalloc:
#: 17.7 to 18.1 MiB for the ``metrics`` command on 65536-run designs at
#: q = 20).
DEFAULT_MAX_FACTORS = 20


def _check_cap(q: int, max_factors: int) -> None:
    if q > max_factors:
        raise ValueError(
            f"design has {q} factors, above the cap of {max_factors}; "
            f"the oracle needs about 18 * 2^q bytes"
        )


def sign_patterns(design: DesignMatrix) -> np.ndarray:
    """Encode each run as a q-bit integer: +1 -> bit 0, -1 -> bit 1.

    Bit i corresponds to column i in label order.
    """
    negative = design.rows < 0
    patterns = np.zeros(design.n_runs, dtype=np.int64)
    for i in range(design.n_factors):
        patterns |= negative[:, i].astype(np.int64) << i
    return patterns


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Sylvester-ordered transform over the last axis, in place.

    out[s] = sum_p (-1)^popcount(s & p) in[p]; ``a`` must be a C-contiguous
    int64 array whose last axis has power-of-two length.  Returns ``a``.
    """
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError("transform length must be a power of two")
    h = 1
    while h < size:
        pairs = a.reshape(*a.shape[:-1], -1, 2, h)
        low, high = pairs[..., 0, :], pairs[..., 1, :]
        low += high
        high *= -2
        high += low
        h *= 2
    return a


def _subset_sums(a: np.ndarray) -> np.ndarray:
    """Zeta transform in place: out[s] = sum over submasks t of s of in[t]."""
    size = a.size
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        pairs[:, 1, :] += pairs[:, 0, :]
        h *= 2
    return a


def _popcounts(q: int) -> np.ndarray:
    counts = np.zeros(1 << q, dtype=np.uint8)
    h = 1
    while h < counts.size:
        counts[h : 2 * h] = counts[:h] + 1
        h *= 2
    return counts


@dataclass(frozen=True, eq=False)
class JTable:
    """All 2^q J-characteristics of a design, indexed by column-subset mask."""

    columns: tuple[str, ...]
    n_runs: int
    values: np.ndarray

    @cached_property
    def projections(self) -> "_Projections":
        """The projection filter of this table, built on first use."""
        return _Projections(self)


def j_characteristics(
    design: DesignMatrix, max_factors: int = DEFAULT_MAX_FACTORS
) -> JTable:
    """J(S) for every column subset S, via the subset-parity transform.

    The sign patterns of the runs are tallied into a 2^q frequency table
    and transformed, so J(S) = sum_p freq[p] * (-1)^popcount(p & S), the
    sum over runs of the product of the columns in S.
    """
    q = design.n_factors
    _check_cap(q, max_factors)
    freq = np.bincount(sign_patterns(design), minlength=1 << q)
    freq = freq.astype(np.int64, copy=False)
    return JTable(design.columns, design.n_runs, _walsh_hadamard(freq))


def spectrum_bruteforce(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    table: JTable | None = None,
) -> WordSpectrum:
    """Word spectrum from the full J-table.

    ``table`` is the design's J-table when the caller already has it.
    """
    q = design.n_factors
    if table is None:
        table = j_characteristics(design, max_factors)
    values = table.values.copy()
    values[0] = 0
    masks = np.nonzero(values)[0]
    if masks.size == 0:
        return WordSpectrum(())
    lengths = _popcounts(q)[masks].astype(np.int64)
    jabs = np.abs(values[masks])
    n = design.n_runs
    keys = lengths * (n + 1) + jabs
    uniq, counts = np.unique(keys, return_counts=True)
    entries = []
    for key, count in zip(uniq.tolist(), counts.tolist()):
        length, j = divmod(key, n + 1)
        entries.append((length, Fraction(j, n), count))
    return WordSpectrum.from_entries(entries)


# The sort-based projection scan below is the independent reference for
# ``projectivity``: the tests and the benchmark's reference generator
# (perfbench/make_reference.py) call it; the library does not.


def _distinct_patterns(design: DesignMatrix) -> np.ndarray:
    return np.unique(sign_patterns(design))


def _first_deficient(
    patterns: np.ndarray, q: int, p: int, chunk_elems: int = 1 << 22
) -> tuple[int, ...] | None:
    """First p-subset (lexicographic) whose projection misses a level combo."""
    full = 1 << p
    if patterns.size < full:
        return tuple(range(p))
    chunk = max(1, chunk_elems // patterns.size)
    buf: list[tuple[int, ...]] = []

    def scan(combos: list[tuple[int, ...]]) -> tuple[int, ...] | None:
        masks = np.array(
            [sum(1 << c for c in combo) for combo in combos], dtype=np.int64
        )
        proj = np.sort(patterns[None, :] & masks[:, None], axis=1)
        distinct = 1 + np.count_nonzero(proj[:, 1:] != proj[:, :-1], axis=1)
        bad = np.nonzero(distinct < full)[0]
        if bad.size:
            return combos[int(bad[0])]
        return None

    for combo in combinations(range(q), p):
        buf.append(combo)
        if len(buf) == chunk:
            hit = scan(buf)
            if hit is not None:
                return hit
            buf = []
    if buf:
        return scan(buf)
    return None


#: Cap on the entries one batch of exact projection checks gathers.
_BATCH_ELEMS = 1 << 20


class _Projections:
    """Which column sets P could miss a level combination, from the J-table.

    The runs' frequencies on the 2^p level combinations of a p-set P are
    2^-p * sum_{S subset of P} J(S) (-1)^popcount(S & x), with J(empty) = N.
    A combination is missing only if the nonempty terms sum to -N there,
    which needs sum_{nonempty S subset of P} |J(S)| >= N.  One subset-sum
    transform of |J| gives that sum for every P at once; the sets that reach
    N are the survivors, and only they need the exact check.
    """

    def __init__(self, table: JTable) -> None:
        self.values = table.values
        self.q = len(table.columns)
        sums = np.abs(table.values)
        sums[0] = 0
        self.survivors = np.flatnonzero(_subset_sums(sums) >= table.n_runs)
        self.sizes = _popcounts(self.q)[self.survivors]

    def deficient(self, p: int) -> bool:
        """Whether some p-column projection misses a level combination.

        Survivors of size p are checked exactly, in batches of 1, 2, 4, ...
        sets (at most about _BATCH_ELEMS gathered entries), so a deficient
        set early in the list ends the check early.  Each check gathers J
        over the set's 2^p submasks; their transform is 2^p times the
        projected frequencies, and the set is deficient iff one is 0.
        """
        masks = self.survivors[self.sizes == p]
        cap = max(1, _BATCH_ELEMS >> p)
        start, size = 0, 1
        while start < masks.size:
            batch = masks[start : start + size]
            bits = (batch[:, None] >> np.arange(self.q)) & 1
            columns = np.nonzero(bits)[1].reshape(batch.size, p)
            submasks = np.zeros((batch.size, 1), dtype=np.int64)
            for bit in (np.int64(1) << columns).T:
                submasks = np.concatenate(
                    [submasks, submasks + bit[:, None]], axis=1
                )
            if not _walsh_hadamard(self.values[submasks]).all():
                return True
            start += size
            size = min(2 * size, cap)
        return False


def projection_level_full(
    design: DesignMatrix,
    p: int,
    max_factors: int = DEFAULT_MAX_FACTORS,
    table: JTable | None = None,
) -> bool:
    """True when every p-column projection contains all 2^p level combos.

    ``table`` is the design's J-table when the caller already has it; the
    table keeps the projection filter built from it, so later calls on the
    same table reuse the filter.
    """
    q = design.n_factors
    if not 1 <= p <= q:
        raise ValueError("p must lie in 1..q")
    _check_cap(q, max_factors)
    if table is None:
        table = j_characteristics(design, max_factors)
    return not table.projections.deficient(p)


def projectivity(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    table: JTable | None = None,
) -> int:
    """Largest p such that every p-factor projection is a full factorial.

    Searches p upward and stops at the first level with a deficient
    projection (fullness at p implies fullness at p - 1, so the first
    failure is conclusive).  Returns q itself only when the design contains
    a complete 2^q factorial.  ``table`` is the design's J-table when the
    caller already has it.
    """
    q = design.n_factors
    _check_cap(q, max_factors)
    if table is None:
        table = j_characteristics(design, max_factors)
    for p in range(1, q + 1):
        if table.projections.deficient(p):
            return p - 1
    return q
