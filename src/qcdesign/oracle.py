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

#: Default cap on q.  On the q = 20 designs of perfbench/reference/oracle_docs.json,
#: tracemalloc measures 5.0 to 9.0 MiB for the oracle's table, spectrum and
#: projectivity, and 7.1 to 10.5 MiB for ``metrics --method oracle`` (its JSON load: 7.1).
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
#: most _BLOCK_ENTRIES entries.  From stage 0, a (1, 2^20) int32 table, as
#: ``j_characteristics`` transforms, takes 18.0 ms in place and 14.8 / 11.3 /
#: 11.4 / 11.9 ms with width 8 / 16 / 32 / 64; a (2048, 256) int16 batch, as
#: ``JTable._has_empty_cell`` transforms, 5.30 ms and 3.56 / 2.14 / 1.98 /
#: 2.36 ms (best of 11, 2-core Xeon).  ``code_tables`` gathers every stage
#: below the width and runs the others radix 2 on rows of designs x width.
_BUTTERFLY_WIDTH, _BLOCK_ENTRIES = 32, 1 << 16


def _butterflies(a: np.ndarray, first: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (low, high, k) for each stage k >= ``first`` over the power-of-two
    last axis of the C-contiguous ``a``: views pairing the entries without bit
    2^k with those that have it, for the caller to update in place.  Stages
    below the width, whose inner runs are too short for numpy's strided loops,
    run on a transposed (width, M) copy of each block, every operand a row."""
    width = min(_BUTTERFLY_WIDTH, a.shape[-1])
    narrow = range(first, width.bit_length() - 1)
    blocks = a.reshape(-1, width)
    for start in range(0, blocks.shape[0] if narrow else 0, _BLOCK_ENTRIES // width):
        rows = blocks[start : start + _BLOCK_ENTRIES // width].T.copy()
        for k in narrow:
            pairs = rows.reshape(-1, 2, 1 << k, rows.shape[1])
            yield pairs[:, 0], pairs[:, 1], k
        blocks[start : start + rows.shape[1]] = rows.T
    for k in range(max(first, width.bit_length() - 1), a.shape[-1].bit_length() - 1):
        pairs = a.reshape(*a.shape[:-1], -1, 2, 1 << k)
        yield pairs[..., 0, :], pairs[..., 1, :], k


def _walsh_hadamard(a: np.ndarray, first: int = 0) -> np.ndarray:
    """Sylvester transform in place over the last axis from stage ``first`` on,
    out[s] = sum_p (-1)^popcount(s & p) in[p] when ``first`` is 0, in a dtype
    that holds it (see ``_table_dtype``).

    The stages at and above the width run in pairs (k, k + 1), radix 4, on
    the quarters x0..x3 of one block of at most _BLOCK_ENTRIES entries at a
    time, x1 and x3 having bit 2^k and x2 and x3 bit 2^(k+1): nine
    quarter-size operations, two temporaries, where two radix-2 stages take
    six half-size ones.  When the number of those stages is odd, the first
    runs radix 2 after the narrow ones.  Integer wrap-around leaves the exact
    result wherever the dtype holds it."""
    top = a.shape[-1].bit_length() - 1
    wide = max(first, min(_BUTTERFLY_WIDTH, a.shape[-1]).bit_length() - 1)
    wide += (top - wide) % 2
    for low, high, k in _butterflies(a, first):
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
    4096 for k = 3 and 256 for k = 4 at the width of 2^5.  Read-only."""
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


def _int16_stages(cells: np.ndarray, counts: np.ndarray, q: int) -> int:
    """The largest s <= q such that each aligned 2^s-entry block of the tally
    (``counts`` runs on the ascending ``cells``) holds a run count that
    ``_table_dtype`` maps to int16.  That count bounds every partial sum of
    the first s transform stages inside the block."""
    if _table_dtype(int(counts.sum())) == np.int16:
        return q
    s = 0  # blocks of 2^s cells hold at most 2^s times the largest count
    while _table_dtype(int(counts.max()) << s + 1) == np.int16:
        s += 1
    while True:  # ends by s = q - 1: the whole table holds N runs, not int16
        starts = np.flatnonzero(np.diff(cells >> s + 1, prepend=-1))
        totals = np.add.reduceat(counts, starts)
        if _table_dtype(int(totals.max())) != np.int16:
            return s
        cells, counts, s = cells[starts], totals, s + 1


def j_characteristics(design: DesignMatrix, max_factors: int = DEFAULT_MAX_FACTORS) -> JTable:
    """J(S) for every column subset S of one design.

    The sign patterns of the runs are tallied into a 2^q table (bincount's
    int64 one would double the peak) and transformed, so J(S) = sum_p
    freq[p] (-1)^popcount(p & S), the sum over runs of the product of the
    columns in S.  The low stages that ``_int16_stages`` allows run in int16,
    the rest in ``_table_dtype(N)``.  The functions below take this table to
    run above the default cap.
    """
    q = design.n_factors
    check_factor_cap(q, max_factors=max_factors)
    cells, counts = np.unique(sign_patterns(design.rows), return_counts=True)
    low = _int16_stages(cells, counts, q)
    table = np.zeros(1 << q, dtype=_table_dtype(design.n_runs))
    widen = 0 < low < q  # then the int16 tally is the first half of the int32 table's bytes
    tally = table.view(np.int16)[: 1 << q] if widen else table
    tally[cells] = counts
    del cells, counts
    _walsh_hadamard(tally.reshape(-1, 1 << low))  # stages 0..low-1 mix only 2^low blocks
    if widen:  # entry i moves from byte 2i to 4i, each half after the one above it
        for half in (1 << k for k in reversed(range(q))):
            table[half : 2 * half] = tally[half : 2 * half]
        table[0] = tally[0]
    return JTable(design.columns, design.n_runs, _walsh_hadamard(table[None], low))


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
