"""Brute-force, exact analysis of design matrices, with no closed form.

J-characteristics transform a sign-pattern frequency table, tallied from
the +1/-1 matrix (``j_characteristics``) or the Z4 code (``code_tables``,
``j_table_chunks``); word spectra and projectivity read the same J-table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, islice
from typing import Iterator

import numpy as np

from .qc_core import (
    GRAY, DesignMatrix, Family, column_labels, realize_profiles, run_digits, z4_code,
)
from .spectrum import WordSpectrum

#: Default cap on q.  On the q = 20 designs of perfbench/reference/oracle_docs.json, the
#: oracle's table takes 5.6 to 8.0 ms (2-core Xeon); with spectrum and projectivity tracemalloc
#: reads 5.3 to 9.0 MiB, and 7.1 to 10.3 MiB for ``metrics --method oracle`` (JSON load: 7.1).
DEFAULT_MAX_FACTORS = 20


def check_factor_cap(q: int, subject: str = "design has", use: str = "",
                     max_factors: int = DEFAULT_MAX_FACTORS) -> None:
    """Refuse a q above ``max_factors``, the one comparison of q with the
    oracle's cap: ``subject`` names what has q factors, ``use`` what needs
    the oracle."""
    if q > max_factors:
        raise ValueError(
            f"{subject} {q} factors, above the cap of {max_factors}; the oracle"
            f"{use} needs q <= {max_factors}"
        )


def _table_dtype(n_runs: int) -> np.dtype:
    """int16 for the J-table of N < 2^14 runs, else int32: the transform's
    partial sums stay within N, and the butterfly's ``high *= -2`` within 2N."""
    return np.dtype(np.int16 if n_runs < 1 << 14 else np.int32)


def _pattern_codes(rows: np.ndarray) -> np.ndarray:
    """``sign_patterns`` in float32 up to q = 24, int64 past it: (rows < 0)
    @ 2^i, one product per block of _BLOCK_ENTRIES entries."""
    q = rows.shape[-1]
    flat = rows.reshape(int(np.prod(rows.shape[:-1])), q)
    weights = (1 << np.arange(q)).astype(np.float32 if q <= 24 else np.int64)
    codes, step = np.empty(len(flat), weights.dtype), max(1, _BLOCK_ENTRIES // max(q, 1))
    for start in range(0, len(flat), step):
        np.matmul(flat[start : start + step] < 0, weights, out=codes[start : start + step])
    return codes.reshape(rows.shape[:-1])


def sign_patterns(rows: np.ndarray) -> np.ndarray:
    """Encode each run as a q-bit integer: +1 -> bit 0, -1 -> bit 1.

    ``rows`` is (..., N, q); bit i corresponds to column i in label order.
    """
    return _pattern_codes(rows).astype(np.int64, copy=False)


#: Butterfly stages with h below the width run on transposed blocks of at
#: most _BLOCK_ENTRIES entries.  From stage 0, a (2048, 256) int16 batch, as
#: ``JTable._has_empty_cell`` transforms, takes 5.30 ms in place and 3.56 /
#: 2.14 / 1.98 / 2.36 ms with width 8 / 16 / 32 / 64 (best of 11, 2-core
#: Xeon).  ``code_tables`` gathers every stage below the width and runs the
#: others radix 2 on rows of designs x width.
_BUTTERFLY_WIDTH, _BLOCK_ENTRIES = 32, 1 << 16


def _butterflies(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (low, high, k) for each stage k over the power-of-two
    last axis of the C-contiguous ``a``: views pairing the entries without bit
    2^k with those that have it, for the caller to update in place.  Stages
    below the width, whose inner runs are too short for numpy's strided loops,
    run on a transposed (width, M) copy of each block, every operand a row."""
    width = min(_BUTTERFLY_WIDTH, a.shape[-1])
    narrow = range(width.bit_length() - 1)
    blocks = a.reshape(-1, width)
    for start in range(0, blocks.shape[0] if narrow else 0, _BLOCK_ENTRIES // width):
        rows = blocks[start : start + _BLOCK_ENTRIES // width].T.copy()
        for k in narrow:
            pairs = rows.reshape(-1, 2, 1 << k, rows.shape[1])
            yield pairs[:, 0], pairs[:, 1], k
        blocks[start : start + rows.shape[1]] = rows.T
    for k in range(width.bit_length() - 1, a.shape[-1].bit_length() - 1):
        pairs = a.reshape(*a.shape[:-1], -1, 2, 1 << k)
        yield pairs[..., 0, :], pairs[..., 1, :], k


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Sylvester transform in place over the last axis, out[s] = sum_p
    (-1)^popcount(s & p) in[p], in a dtype that holds it (see ``_table_dtype``).

    The stages at and above the width run in pairs (k, k + 1), radix 4, on
    the quarters x0..x3 of one block of at most _BLOCK_ENTRIES entries at a
    time, x1 and x3 having bit 2^k and x2 and x3 bit 2^(k+1): nine
    quarter-size operations, two temporaries, where two radix-2 stages take
    six half-size ones.  When the number of those stages is odd, the first
    runs radix 2 after the narrow ones.  Integer wrap-around leaves the exact
    result wherever the dtype holds it."""
    top = a.shape[-1].bit_length() - 1
    wide = min(_BUTTERFLY_WIDTH, a.shape[-1]).bit_length() - 1
    wide += (top - wide) % 2
    for low, high, k in _butterflies(a):
        if k == wide:  # every narrow block is written back by now
            break
        low += high
        high *= -2
        high += low
    for k in range(wide, top, 2):
        quads = a.reshape(-1, 4, 1 << k)
        rows, cols = max(1, _BLOCK_ENTRIES >> k + 2), min(1 << k, _BLOCK_ENTRIES >> 2)
        for r in range(0, len(quads), rows):
            for c in range(0, 1 << k, cols):
                x0, x1, x2, x3 = quads[r : r + rows, :, c : c + cols].transpose(1, 0, 2)
                t, u = x0 + x1, x2 + x3
                np.subtract(x0, x1, out=x1)
                np.subtract(x2, x3, out=x3)
                np.add(t, u, out=x0)
                np.subtract(t, u, out=x2)
                np.add(x1, x3, out=t)
                np.subtract(x1, x3, out=x3)
                x1[...] = t
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


#: Cap on the entries one batch of exact projection checks gathers.
_BATCH_ELEMS = 1 << 20


@dataclass(frozen=True, eq=False)
class JTable:
    """All 2^q J-characteristics of a stack of designs sharing columns and
    run count, by column-subset mask, and the projection questions they answer.

    ``values`` (dtype ``_table_dtype(n_runs)``) is (designs, 2^q); one
    design is a stack of one.

    A full word S (|J(S)| = N) settles every level p >= |S|: the product of
    its columns is constant, so the projection on any p columns that hold S
    is a half fraction.  Other column sets go through a filter.  The runs'
    frequencies on the 2^p level combinations of a p-set P are 2^-p *
    sum_{S subset of P} J(S) (-1)^popcount(S & x), with J(empty) = N.  A
    combination is missing only if the nonempty terms sum to -N there, which
    needs sum_{nonempty S subset of P} |J(S)| >= N.  One subset-sum transform
    of |J| gives that sum for every P of every design at once; ``reach``
    marks the sets that reach N, and only they need the exact check.  No P
    of ceil(R) - 1 or fewer columns reaches N (Deng & Tang 1999): ceil(R) - 1
    = r - [top == N] for the shortest word length r and its largest |J| top,
    so P holds no word, or only itself with |J| <= top < N.
    """

    columns: tuple[str, ...]
    n_runs: int
    values: np.ndarray

    @cached_property
    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Design index, length and |J| of every word: each nonempty column
        set S with J(S) != 0, ordered by design, then by mask."""
        q = len(self.columns)
        # Scanning a bool mask takes 0.13 ms, the table 0.29 ms and a 2-D
        # nonzero 0.53 ms on a (64, 2048) int16 chunk with 5 % nonzero;
        # 0.58 / 2.1 / 3.6 ms on 2^20 int32 entries with 1 % (best of 31).
        nonzero = self.values != 0
        nonzero[:, 0] = False  # J(empty) = N is no word
        flat = np.flatnonzero(nonzero)
        lengths = np.bitwise_count(flat & ((1 << q) - 1)).astype(np.int64)
        return flat >> q, lengths, np.abs(np.take(self.values, flat))

    @cached_property
    def reach(self) -> np.ndarray:
        """Whether the |J| of each column set's nonempty subsets sum to N or
        more, per design and mask: the filter, built on first use."""
        # In the dtype of a table of 2N runs, which holds 4N: N < 2^13 keeps
        # int16, and the clip runs every second stage or less often.
        sums = np.abs(self.values, dtype=_table_dtype(2 * self.n_runs))
        sums[:, 0] = 0
        return _subset_sums(sums, self.n_runs) >= self.n_runs

    def deficient(self, p: int, designs: np.ndarray | None = None) -> np.ndarray:
        """Whether some p-column projection of each design misses a level
        combination; False for the designs the boolean mask ``designs`` omits.

        A full word of at most p columns settles a design.  The p-sets of
        the others that ``reach`` marks are checked exactly in rounds of 1,
        2, 4, ... sets, and a design leaves the rounds at its first deficient
        set.  A round's checks run in batches of at most about _BATCH_ELEMS
        gathered entries, skipping the designs an earlier batch resolved.
        The filter is built only when some design is left to check.
        """
        q = len(self.columns)
        design, lengths, jabs = self.words
        found = np.zeros(len(self.values), dtype=bool)
        found[design[(jabs == self.n_runs) & (lengths <= p)]] = True
        if designs is not None:
            found &= designs
        left = ~found if designs is None else designs & ~found
        if not left.any():
            return found
        rows = np.flatnonzero(left)
        flat = np.flatnonzero(self.reach[rows])
        flat = flat[np.bitwise_count(flat & ((1 << q) - 1)) == p]
        design, masks = rows[flat >> q], flat & ((1 << q) - 1)
        rank = np.arange(design.size) - np.searchsorted(design, design)
        cap = max(1, _BATCH_ELEMS >> p)
        start, size = 0, 1
        while True:
            todo = np.flatnonzero((rank >= start) & (rank < start + size))
            todo = todo[~found[design[todo]]]
            if todo.size == 0:
                return found
            for lo in range(0, todo.size, cap):
                batch = todo[lo : lo + cap]
                batch = batch[~found[design[batch]]]
                if batch.size:
                    hit = self._has_empty_cell(design[batch], masks[batch], p)
                    found[design[batch][hit]] = True
            start += size
            size *= 2

    def projectivity(self) -> np.ndarray:
        """Largest p with every p-column projection full, per design.

        Only the levels above a design's floor r - [top == N] (see the class
        docstring) and below its shortest full word's length are searched,
        upward for all designs at once; a design drops out at its first
        deficient level (fullness at p implies fullness at p - 1)."""
        q = len(self.columns)
        design, lengths, jabs = self.words
        full = jabs == self.n_runs
        result, floor = np.full((2, len(self.values)), q)
        np.minimum.at(result, design[full], lengths[full] - 1)
        np.minimum.at(floor, design, lengths - full)
        for p in range(int(floor.min()) + 1, int(result.max()) + 1):
            result[self.deficient(p, (result >= p) & (floor < p))] = p - 1
        return result

    def _has_empty_cell(
        self, design: np.ndarray, masks: np.ndarray, p: int
    ) -> np.ndarray:
        """Exact check of p-sets: gather J over each set's 2^p submasks; their
        transform (widened where N * 2^p can pass the table's dtype) is 2^p
        times the projected frequencies, and the set misses a level
        combination iff one is 0."""
        q = len(self.columns)
        bits = (masks[:, None] & (1 << np.arange(q))) != 0
        columns = np.nonzero(bits)[1].reshape(masks.size, p)
        submasks = np.zeros((masks.size, 1), dtype=np.int64)
        for bit in (np.int64(1) << columns).T:
            submasks = np.concatenate([submasks, submasks + bit[:, None]], axis=1)
        cells = np.take(self.values, design[:, None] << q | submasks)
        wide = np.promote_types(cells.dtype, np.min_scalar_type(-1 - (self.n_runs << p)))
        return ~_walsh_hadamard(cells.astype(wide, copy=False)).all(axis=1)


#: Pattern bits of the Gray pair of each Z4 value.
_GRAY_BITS = sign_patterns(GRAY).astype(np.uint8)
#: Check bits F1..F4 of the Z4 pair (a'u, a'v) = (x & 3, x >> 2), by x.
_CHECK_BITS = _GRAY_BITS[np.arange(16) & 3] | _GRAY_BITS[np.arange(16) >> 2] << 2


@cache
def _shared_slots(family: Family, n: int) -> np.ndarray:
    """The shared pattern of each run of ``qc_core.z4_code``, read-only."""
    digits = run_digits(family, n)  # F5 is the second Gray coordinate of a0
    shared = (_GRAY_BITS[digits] << 2 * np.arange(len(digits))[:, None]).sum(axis=0)
    shared >>= family.branched
    shared.flags.writeable = False
    return shared


@cache
def _group_rows(k: int, m: int, dtype: np.dtype) -> np.ndarray:
    """The first k + m butterfly stages of the one-hot pattern table of 2^m
    consecutive shared patterns i, whose runs have check bits c_i: the sum of
    rows i 2^k + c_i of the order 2^(k+m) Sylvester-Hadamard matrix, by
    c_0, ..., c_{2^m - 1} packed k bits each, c_0 highest: 2^(k 2^m) rows,
    4096 for k = 3 and 256 for k = 4 at the width of 2^5, and the Sylvester
    matrix itself for m = 0.  Read-only."""
    sylvester = _walsh_hadamard(np.eye(1 << k + m, dtype=dtype))
    blocks = sylvester.reshape(1 << m, 1 << k, 1 << k + m)  # block i: rows i 2^k + c
    rows = blocks[0]
    for block in blocks[1:]:
        rows = (rows[:, None] + block).reshape(-1, 1 << k + m)
    rows.flags.writeable = False
    return rows


def code_tables(family: Family, n: int, u: np.ndarray, v: np.ndarray, u0v0) -> np.ndarray:
    """The stacked J-tables of the designs ``qc_core.z4_code`` describes,
    worked from the code.

    The shared columns (F5 and the Gray pairs of a) form a full 2^(q-k)
    factorial, k = ``family.checks``, so the pattern table is one-hot: one run
    per shared pattern, its check bits c below them.  The k + m stages below
    the butterfly width mix only groups of 2^m consecutive shared patterns, so
    their output is gathered by each group's checks (``_group_rows``), group
    first.  Stages k + m..q-1 pair whole rows of that (2^(q-k-m), designs x
    2^(k+m)) array, radix 2; one transposed copy is the (designs, 2^q) stack."""
    k, q = family.checks, family.factor_count(n)
    check_factor_cap(q)
    m = _BUTTERFLY_WIDTH.bit_length() - 1 - k
    _, tu, tv = z4_code(family, n, u, v, u0v0)
    checks = np.empty_like(tu)
    checks[:, _shared_slots(family, n)] = np.take(_CHECK_BITS >> 4 - k, tv << 2 | tu)
    groups = checks.reshape(len(checks), -1, 1 << m).astype(np.uint16)  # k 2^m <= 12 bits
    index = groups[..., 0]
    for i in range(1, 1 << m):
        index = index << k | groups[..., i]
    rows = _group_rows(k, m, _table_dtype(family.run_count(n)))
    stages = np.take(rows, index.T, axis=0).reshape(index.shape[1], -1)
    for h in (1 << s for s in range(q - k - m)):
        low, high = stages.reshape(-1, 2, h, stages.shape[1]).swapaxes(0, 1)
        low += high
        high *= -2
        high += low
    return stages.reshape(len(stages), len(index), -1).swapaxes(0, 1).reshape(len(index), 1 << q)


#: J-table bytes per chunk of stacked designs (one design at least).  With
#: 2^17 / 2^18 / 2^19, ``verify --n-max 3`` takes 0.069 / 0.051 / 0.043 s and
#: ``--n-max 4`` 0.83 / 0.58 / 0.45 s, at 33.0 / 33.6 / 34.4 and 33.0 / 33.6 /
#: 34.3 MiB peak RSS (median of 15 and 5 calls in-process, of 3 processes, 2-core Xeon).
CHUNK_BYTES = 1 << 18


def j_table_chunks(
    family: Family, counts: np.ndarray, pairs: tuple, p: np.ndarray, c: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, JTable]]:
    """Profile and pair indices and the stacked J-table of each chunk of the
    designs (counts[p[i]], pairs[c[i]]), in order; ``counts`` holds
    equal-n profiles and ``pairs`` is ``(None,)`` for even-run families."""
    n = int(counts[0].sum())
    n_runs = family.run_count(n)
    step = max(1, CHUNK_BYTES // (_table_dtype(n_runs).itemsize << family.factor_count(n)))
    pair_rows = np.array(pairs)  # z4_code ignores it for even-run families
    columns = column_labels(family, n)
    distinct, inverse = np.unique(p, return_inverse=True)  # realize each profile once
    u, v = realize_profiles(counts[distinct]) if p.size else (None, None)
    for start in range(0, p.size, step):
        cp, cc, ci = (a[start : start + step] for a in (p, c, inverse))
        values = code_tables(family, n, u[ci], v[ci], pair_rows[cc])
        yield cp, cc, JTable(columns, n_runs, values)


def _tally_table(cells: np.ndarray, counts: np.ndarray, q: int) -> np.ndarray:
    """The 2^q J-values, dtype ``_table_dtype(N)``, of ``counts`` runs on the
    distinct sign patterns ``cells``: a float tally transformed in place,
    radix 2 above 2^17 entries, then in each sub-table by an even number of
    GEMMs x.reshape(2^b, -1).T @ H_b, b <= 5, each moving the digit it
    transforms to the bottom.  Exact: no partial sum passes 2N in magnitude,
    and float32 holds them while N < 2^24, float64 past it (README, oracle)."""
    n_runs = int(counts.sum())
    table = np.zeros(1 << q, np.float32 if n_runs < 1 << 24 else np.float64)
    table[cells.astype(np.intp)] = counts
    m = min(q, 17)  # one temporary of 2^17 entries, not a second table
    for k in range(m, q):
        low, high = table.reshape(-1, 2, 1 << k).swapaxes(0, 1)
        low += high
        high *= -2
        high += low
    count = 2 * -(-m // 10)  # digits of 5 bits at most: H_b of order 32 at most
    digits = [m // count + (i < m % count) for i in range(count)]
    temp = np.empty(1 << m, table.dtype)
    for x in table.reshape(-1, 1 << m):
        for b, (src, dst) in zip(digits, [(x, temp), (temp, x)] * count):
            np.matmul(src.reshape(1 << b, -1).T, _group_rows(b, 0, table.dtype),
                      out=dst.reshape(-1, 1 << b))
    values = table.view(_table_dtype(n_runs))[: 1 << q]
    for start in range(0, 1 << q, _BLOCK_ENTRIES):  # a block's bytes start at or below its own
        values[start : start + _BLOCK_ENTRIES] = table[start : start + _BLOCK_ENTRIES]
    return values


def j_characteristics(design: DesignMatrix, max_factors: int = DEFAULT_MAX_FACTORS) -> JTable:
    """J(S) for every column subset S of one design.

    The sign patterns of the runs are tallied into a 2^q table and
    transformed (``_tally_table``), so J(S) = sum_p freq[p] (-1)^popcount(p &
    S), the sum over runs of the product of the columns in S.  The functions
    below take this table to run above the default cap.
    """
    q = design.n_factors
    check_factor_cap(q, max_factors=max_factors)
    cells, counts = np.unique(_pattern_codes(design.rows), return_counts=True)
    return JTable(design.columns, design.n_runs, _tally_table(cells, counts, q)[None])


def spectrum_bruteforce(design: DesignMatrix, table: JTable | None = None) -> WordSpectrum:
    """Word spectrum from the full J-table.

    ``table`` is the design's J-table when the caller already has it.
    """
    if table is None:
        table = j_characteristics(design)
    _, lengths, jabs = table.words
    n = design.n_runs
    uniq, counts = np.unique(lengths * (n + 1) + jabs, return_counts=True)
    return WordSpectrum.from_entries(
        (key // (n + 1), Fraction(key % (n + 1), n), count)
        for key, count in zip(uniq.tolist(), counts.tolist())
    )


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
    combos = combinations(range(q), p)
    chunk = max(1, chunk_elems // patterns.size)
    while batch := list(islice(combos, chunk)):
        masks = np.array([sum(1 << c for c in combo) for combo in batch], dtype=np.int64)
        proj = np.sort(patterns[None, :] & masks[:, None], axis=1)
        distinct = 1 + np.count_nonzero(proj[:, 1:] != proj[:, :-1], axis=1)
        bad = np.flatnonzero(distinct < full)
        if bad.size:
            return batch[bad[0]]
    return None


def projection_level_full(design: DesignMatrix, p: int, table: JTable | None = None) -> bool:
    """True when every p-column projection contains all 2^p level combos.

    ``table`` is the design's J-table when the caller already has it; it
    keeps its words and its filter, ``reach``, for later calls.
    """
    if not 1 <= p <= design.n_factors:
        raise ValueError("p must lie in 1..q")
    if table is None:
        table = j_characteristics(design)
    return not table.deficient(p)[0]


def projectivity(design: DesignMatrix, table: JTable | None = None) -> int:
    """Largest p such that every p-factor projection is a full factorial.

    Returns q itself only when the design contains a complete 2^q
    factorial.  ``table`` is the design's J-table when the caller already
    has it.
    """
    if table is None:
        table = j_characteristics(design)
    return int(table.projectivity()[0])
