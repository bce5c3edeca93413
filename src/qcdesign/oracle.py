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
from typing import Iterator

import numpy as np

from .qc_core import DesignMatrix, Family, column_labels, design_stack, realize_profiles
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


def sign_patterns(rows: np.ndarray) -> np.ndarray:
    """Encode each run as a q-bit integer: +1 -> bit 0, -1 -> bit 1.

    ``rows`` is (..., N, q); bit i corresponds to column i in label order.
    """
    negative = rows < 0
    patterns = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(rows.shape[-1]):
        patterns |= negative[..., i].astype(np.int64) << i
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
    """Zeta transform in place over the last axis: out[s] = sum over
    submasks t of s of in[t]."""
    size = a.shape[-1]
    h = 1
    while h < size:
        pairs = a.reshape(*a.shape[:-1], -1, 2, h)
        pairs[..., 1, :] += pairs[..., 0, :]
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
    """All 2^q J-characteristics of a design, indexed by column-subset mask.

    ``values`` is (2^q,) for one design, or (designs, 2^q) for a stack of
    designs that share their columns and run count.
    """

    columns: tuple[str, ...]
    n_runs: int
    values: np.ndarray

    @cached_property
    def projections(self) -> "_Projections":
        """The projection filter of this table, built on first use."""
        return _Projections(self)

    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Design index, length and |J| of every word: each nonempty column
        set S with J(S) != 0, ordered by design, then by mask."""
        values = self.values.reshape(-1, self.values.shape[-1])
        design, masks = np.nonzero(values[:, 1:])
        masks += 1
        lengths = _popcounts(len(self.columns))[masks].astype(np.int64)
        return design, lengths, np.abs(values[design, masks])


def j_tables(rows: np.ndarray, max_factors: int = DEFAULT_MAX_FACTORS) -> np.ndarray:
    """J(S) for every column subset S of each design in a (designs, N, q)
    stack, as a (designs, 2^q) int64 array.

    The sign patterns of each design's runs are tallied into its own 2^q
    slice of one frequency table and transformed, so J(S) = sum_p freq[p] *
    (-1)^popcount(p & S), the sum over runs of the product of the columns
    in S.
    """
    designs, _, q = rows.shape
    _check_cap(q, max_factors)
    patterns = sign_patterns(rows)
    patterns += (np.arange(designs, dtype=np.int64) << q)[:, None]
    freq = np.bincount(patterns.ravel(), minlength=designs << q)
    freq = freq.astype(np.int64, copy=False).reshape(designs, 1 << q)
    return _walsh_hadamard(freq)


#: J-table entries per chunk of max(1, CHUNK_ENTRIES >> q) stacked designs.
#: ``verify --n-max 3`` takes 1.26 / 1.09 / 0.98 s and peaks at 32.8 / 33.1 /
#: 34.2 MiB RSS with 2^14 / 2^15 / 2^16 (in-process, 2 cores).
CHUNK_ENTRIES = 1 << 15


def j_table_chunks(
    family: Family, counts: np.ndarray, pairs: tuple, p: np.ndarray, c: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, JTable]]:
    """Profile and pair indices and the stacked J-table of each chunk of the
    designs (counts[p[i]], pairs[c[i]]), in order; ``counts`` holds
    equal-n profiles and ``pairs`` is ``(None,)`` for even-run families."""
    n = int(counts[0].sum())
    step = max(1, CHUNK_ENTRIES >> family.factor_count(n))
    pair_rows = np.array(pairs) if family.branched else None
    columns = column_labels(family, n)
    for start in range(0, p.size, step):
        cp, cc = p[start : start + step], c[start : start + step]
        u, v = realize_profiles(counts[cp])
        rows = design_stack(family, n, u, v, None if pair_rows is None else pair_rows[cc])
        yield cp, cc, JTable(columns, family.run_count(n), j_tables(rows))


def j_characteristics(
    design: DesignMatrix, max_factors: int = DEFAULT_MAX_FACTORS
) -> JTable:
    """J(S) for every column subset S of one design (see ``j_tables``)."""
    values = j_tables(design.rows[None], max_factors)[0]
    return JTable(design.columns, design.n_runs, values)


def spectrum_bruteforce(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    table: JTable | None = None,
) -> WordSpectrum:
    """Word spectrum from the full J-table.

    ``table`` is the design's J-table when the caller already has it.
    """
    if table is None:
        table = j_characteristics(design, max_factors)
    _, lengths, jabs = table.words()
    if lengths.size == 0:
        return WordSpectrum(())
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
    return np.unique(sign_patterns(design.rows))


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
    transform of |J| gives that sum for every P of every design at once;
    the sets that reach N are the survivors, and only they need the exact
    check.
    """

    def __init__(self, table: JTable) -> None:
        self.values = table.values.reshape(-1, table.values.shape[-1])
        self.q = len(table.columns)
        sums = np.abs(self.values)
        sums[:, 0] = 0
        # Survivors ordered by design, then by mask.
        self.design, self.survivors = np.nonzero(_subset_sums(sums) >= table.n_runs)
        self.sizes = _popcounts(self.q)[self.survivors]

    def deficient(self, levels: np.ndarray) -> np.ndarray:
        """Whether some levels[d]-column projection of design d misses a
        level combination, for every design d of the table.

        Each design's survivors of its size are checked exactly in rounds
        of 1, 2, 4, ... sets, and a design leaves the rounds at its first
        deficient set.  A round's checks of one size run in batches of at
        most about _BATCH_ELEMS gathered entries, skipping the designs an
        earlier batch resolved.
        """
        levels = np.asarray(levels)
        pick = self.sizes == levels[self.design]
        design, masks = self.design[pick], self.survivors[pick]
        rank = np.arange(design.size) - np.searchsorted(design, design)
        found = np.zeros(levels.shape, dtype=bool)
        start, size = 0, 1
        while True:
            todo = np.flatnonzero((rank >= start) & (rank < start + size))
            todo = todo[~found[design[todo]]]
            if todo.size == 0:
                return found
            sizes = levels[design[todo]]
            for p in np.flatnonzero(np.bincount(sizes)).tolist():
                group = todo[sizes == p]
                cap = max(1, _BATCH_ELEMS >> p)
                for lo in range(0, group.size, cap):
                    batch = group[lo : lo + cap]
                    batch = batch[~found[design[batch]]]
                    if batch.size:
                        hit = self._has_empty_cell(design[batch], masks[batch], p)
                        found[design[batch][hit]] = True
            start += size
            size *= 2

    def projectivity(self) -> np.ndarray:
        """Largest p with every p-column projection full, per design.

        Levels are searched upward for all designs at once; a design drops
        out at its first deficient level (fullness at p implies fullness at
        p - 1) and then asks for level 0, which no survivor has."""
        result = np.full(self.values.shape[0], self.q)
        for p in range(1, self.q + 1):
            searching = result == self.q
            if not searching.any():
                break
            result[self.deficient(np.where(searching, p, 0))] = p - 1
        return result

    def _has_empty_cell(
        self, design: np.ndarray, masks: np.ndarray, p: int
    ) -> np.ndarray:
        """Exact check of p-sets: gather J over each set's 2^p submasks;
        their transform is 2^p times the projected frequencies, and the set
        misses a level combination iff one is 0."""
        bits = (masks[:, None] >> np.arange(self.q)) & 1
        columns = np.nonzero(bits)[1].reshape(masks.size, p)
        submasks = np.zeros((masks.size, 1), dtype=np.int64)
        for bit in (np.int64(1) << columns).T:
            submasks = np.concatenate([submasks, submasks + bit[:, None]], axis=1)
        cells = _walsh_hadamard(self.values[design[:, None], submasks])
        return ~cells.all(axis=1)


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
    return not table.projections.deficient([p])[0]


def projectivity(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    table: JTable | None = None,
) -> int:
    """Largest p such that every p-factor projection is a full factorial.

    Returns q itself only when the design contains a complete 2^q
    factorial.  ``table`` is the design's J-table when the caller already
    has it.
    """
    _check_cap(design.n_factors, max_factors)
    if table is None:
        table = j_characteristics(design, max_factors)
    return int(table.projections.projectivity()[0])
