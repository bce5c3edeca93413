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

#: Default cap on q.  The oracle needs about PEAK_BYTES_PER_ENTRY * 2^q
#: bytes: tracemalloc measures 10.5 to 14.1 MiB for ``metrics --method
#: oracle`` on the q = 20 designs of perfbench/reference/oracle_docs.json
#: (8.1 MiB with --skip-projectivity).
DEFAULT_MAX_FACTORS, PEAK_BYTES_PER_ENTRY = 20, 14


def _check_cap(q: int, max_factors: int) -> None:
    if q > max_factors:
        raise ValueError(
            f"design has {q} factors, above the cap of {max_factors}; "
            f"the oracle needs about {PEAK_BYTES_PER_ENTRY} * 2^q bytes"
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


#: Butterfly stages with h below the width run on transposed blocks of at
#: most _BLOCK_ENTRIES entries.  A (64, 512) int32 stack, as ``verify``
#: transforms, takes 1.10 ms in place and 0.47 / 0.37 / 0.34 ms with width
#: 8 / 16 / 32; (1, 2^20) 40.3 ms and 20.4 / 17.0 / 16.5 ms (best of 9).
_BUTTERFLY_WIDTH, _BLOCK_ENTRIES = 32, 1 << 16


def _butterflies(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (low, high, k) for each stage k over the power-of-two last axis
    of the C-contiguous ``a``: views pairing the entries without bit 2^k with
    those that have it, for the caller to update in place.  Stages below the
    width, whose inner runs are too short for numpy's strided loops, run on
    a transposed (width, M) copy of each block, every operand a whole row."""
    width = min(_BUTTERFLY_WIDTH, a.shape[-1])
    blocks = a.reshape(-1, width)
    for start in range(0, blocks.shape[0], _BLOCK_ENTRIES // width):
        rows = blocks[start : start + _BLOCK_ENTRIES // width].T.copy()
        for k in range(width.bit_length() - 1):
            pairs = rows.reshape(-1, 2, 1 << k, rows.shape[1])
            yield pairs[:, 0], pairs[:, 1], k
        blocks[start : start + rows.shape[1]] = rows.T
    for k in range(width.bit_length() - 1, a.shape[-1].bit_length() - 1):
        pairs = a.reshape(*a.shape[:-1], -1, 2, 1 << k)
        yield pairs[..., 0, :], pairs[..., 1, :], k


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Sylvester transform in place over the last axis, out[s] = sum_p
    (-1)^popcount(s & p) in[p], in a dtype that holds it (see ``j_tables``)."""
    for low, high, _ in _butterflies(a):
        low += high
        high *= -2
        high += low
    return a


def _subset_sums(a: np.ndarray, cap: int) -> np.ndarray:
    """In-place zeta transform of entries in 0..cap (out[s] = sum of in[t]
    over submasks t of s), exact as far as ``out >= cap``: sums never
    decrease, so clipping at cap before a stage that could overflow keeps it."""
    period = (np.iinfo(a.dtype).max // max(cap, 1)).bit_length() - 1
    for low, high, stage in _butterflies(a):
        if stage and stage % period == 0:
            np.minimum(low, cap, out=low)
            np.minimum(high, cap, out=high)
        high += low
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

    ``values`` (int32, see ``j_tables``) is (2^q,) for one design, or
    (designs, 2^q) for a stack of designs sharing columns and run count.
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
        q = len(self.columns)
        flat = np.flatnonzero(self.values)  # several times faster than a 2-D nonzero
        flat = flat[(flat & ((1 << q) - 1)) != 0]  # J(empty) = N is no word
        lengths = _popcounts(q)[flat & ((1 << q) - 1)].astype(np.int64)
        return flat >> q, lengths, np.abs(self.values.ravel()[flat])


def j_tables(rows: np.ndarray, max_factors: int = DEFAULT_MAX_FACTORS) -> np.ndarray:
    """J(S) for every column subset S of each design in a (designs, N, q)
    stack, as a (designs, 2^q) int32 array.

    The sign patterns of each design's runs are tallied into its own 2^q
    slice of one int32 table (bincount's int64 one would double the peak)
    and transformed, so J(S) = sum_p freq[p] (-1)^popcount(p & S), the sum
    over runs of the product of the columns in S.  int32 is exact: each
    partial sum is the J-value of a sub-table, at most N (2^16 at q = 20).
    """
    designs, _, q = rows.shape
    _check_cap(q, max_factors)
    patterns = sign_patterns(rows)
    patterns += (np.arange(designs, dtype=np.int64) << q)[:, None]
    cells, counts = np.unique(patterns, return_counts=True)
    freq = np.zeros((designs, 1 << q), dtype=np.int32)
    freq.reshape(-1)[cells] = counts
    return _walsh_hadamard(freq)


#: J-table entries per chunk of max(1, CHUNK_ENTRIES >> q) stacked designs.
#: ``verify --n-max 3`` takes 0.92 / 0.67 / 0.55 s and peaks at 32.7 / 33.0 /
#: 33.7 MiB RSS with 2^14 / 2^15 / 2^16 (int32 tables, in-process, 2 cores).
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
        self.q, self.n_runs = len(table.columns), table.n_runs
        sums = np.abs(self.values)
        sums[:, 0] = 0
        # Survivors ordered by design, then by mask; the 2^q sums go first.
        flat = np.flatnonzero(_subset_sums(sums, self.n_runs) >= self.n_runs)
        del sums
        self.design, self.survivors = flat >> self.q, flat & ((1 << self.q) - 1)
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
        """Exact check of p-sets: gather J over each set's 2^p submasks; their
        transform (int64 where it can pass int32) is 2^p times the projected
        frequencies, and the set misses a level combination iff one is 0."""
        bits = (masks[:, None] >> np.arange(self.q)) & 1
        columns = np.nonzero(bits)[1].reshape(masks.size, p)
        submasks = np.zeros((masks.size, 1), dtype=np.int64)
        for bit in (np.int64(1) << columns).T:
            submasks = np.concatenate([submasks, submasks + bit[:, None]], axis=1)
        cells = self.values[design[:, None], submasks]
        wide = self.n_runs << p > np.iinfo(np.int32).max
        return ~_walsh_hadamard(cells.astype(np.int64) if wide else cells).all(axis=1)


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
