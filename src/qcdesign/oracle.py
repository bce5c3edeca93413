"""Brute-force, exact analysis of explicit design matrices.

Everything here works from the +1/-1 matrix alone (no generator theory):
J-characteristics through a subset-parity transform of the sign-pattern
frequency table, word spectra, resolution/WLP, projectivity from the same
J-table, and an independent re-evaluation of subset correlations straight
from generator data for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .qc_core import DesignMatrix, GeneratorSpec
from .spectrum import DesignMetrics, WordSpectrum, spectrum_metrics

#: Default cap on the number of factors.  The J-table and the subset sums
#: that projectivity adds are 2^q int64 arrays each; with the smaller
#: per-subset arrays the oracle peaks near 18 * 2^q bytes (tracemalloc:
#: 17.7 to 18.1 MiB for ``metrics`` on 65536-run designs at q = 20).
DEFAULT_MAX_FACTORS = 20

# First/second Gray coordinate of k in Z4 (equivalently, the exact values
# of sqrt(2)*sin(pi/4 + pi*k/2) and sqrt(2)*cos(pi/4 + pi*k/2)).
_G1 = (1, 1, -1, -1)
_G2 = (1, -1, -1, 1)


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

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            try:
                i = self.columns.index(label)
            except ValueError:
                raise KeyError(f"unknown column {label!r}") from None
            mask |= 1 << i
        return mask

    def __getitem__(self, subset: int | Iterable[str]) -> int:
        mask = subset if isinstance(subset, int) else self.mask_of(subset)
        return int(self.values[mask])

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (mask, J) over all nonempty subsets."""
        for mask in range(1, self.values.size):
            yield mask, int(self.values[mask])

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(self.columns) if mask >> i & 1)

    @cached_property
    def projections(self) -> "_Projections":
        """The projection filter of this table, built on first use."""
        return _Projections(self)


def j_characteristics(
    design: DesignMatrix, max_factors: int = DEFAULT_MAX_FACTORS
) -> JTable:
    """J(S) for every column subset S, via the subset-parity transform.

    The sign patterns of the runs are tallied into a 2^q frequency table
    and transformed, so J(S) = sum_p freq[p] * (-1)^popcount(p & S); this
    agrees with the direct per-subset product sum (see ``j_direct``).
    """
    q = design.n_factors
    _check_cap(q, max_factors)
    freq = np.bincount(sign_patterns(design), minlength=1 << q)
    freq = freq.astype(np.int64, copy=False)
    return JTable(design.columns, design.n_runs, _walsh_hadamard(freq))


def j_direct(design: DesignMatrix, labels: Iterable[str]) -> int:
    """Direct row-by-row product sum over one column subset."""
    idx = [design.column_index(label) for label in labels]
    if not idx:
        raise ValueError("subset must be nonempty")
    return int(design.rows[:, idx].prod(axis=1, dtype=np.int64).sum())


def spectrum_bruteforce(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    exclude: Iterable[str] = (),
    table: JTable | None = None,
) -> WordSpectrum:
    """Word spectrum from the full J-table.

    ``exclude`` restricts to subsets avoiding the named columns, which is
    how an eighth fraction's spectrum is read off its parent sixteenth.
    ``table`` is the design's J-table when the caller already has it.
    """
    q = design.n_factors
    if table is None:
        table = j_characteristics(design, max_factors)
    values = table.values.copy()
    values[0] = 0
    for label in exclude:
        i = design.column_index(label)
        idx = np.arange(values.size)
        values[(idx >> i) & 1 == 1] = 0
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


def metrics(
    design: DesignMatrix,
    max_factors: int = DEFAULT_MAX_FACTORS,
    with_projectivity: bool = True,
) -> DesignMetrics:
    """Resolution, WLP, and projectivity of an explicit design matrix."""
    table = j_characteristics(design, max_factors)
    spec = spectrum_bruteforce(design, max_factors, table=table)
    resolution, wlp = spectrum_metrics(spec, design.n_factors)
    proj = projectivity(design, max_factors, table) if with_projectivity else None
    return DesignMetrics(resolution, wlp, proj)


@dataclass(frozen=True)
class SubsetType:
    """Structure of a column subset relative to the generator layout.

    ``checks`` records membership of F1..F4 as a 4-bit string; ``f5`` does
    the same for the branch column when the design has one.  ``pairs`` holds
    the j with both Fj1 and Fj2 in the subset, ``firsts`` those with only
    Fj1, and ``seconds`` those with only Fj2.
    """

    checks: str
    f5: int | None
    pairs: frozenset[int]
    seconds: frozenset[int]
    firsts: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.checks) != 4 or set(self.checks) - {"0", "1"}:
            raise ValueError("checks must be a 4-bit string")
        if self.pairs & self.seconds or self.pairs & self.firsts or self.seconds & self.firsts:
            raise ValueError("pair sets must be disjoint")

    @property
    def size(self) -> int:
        m = 2 * len(self.pairs) + len(self.seconds) + len(self.firsts)
        return m + sum(int(b) for b in self.checks) + (self.f5 or 0)


def classify_subset(
    columns: Sequence[str], subset: Iterable[str]
) -> SubsetType:
    """Classify a subset of generator-layout column labels."""
    chosen = set(subset)
    unknown = chosen - set(columns)
    if unknown:
        raise KeyError(f"unknown column(s): {sorted(unknown)}")
    if not chosen:
        raise ValueError("subset must be nonempty")
    checks = "".join("1" if f"F{k}" in chosen else "0" for k in range(1, 5))
    f5 = (1 if "F5" in chosen else 0) if "F5" in columns else None
    pairs, seconds, firsts = set(), set(), set()
    j = 1
    while f"F{j}1" in columns:
        one, two = f"F{j}1" in chosen, f"F{j}2" in chosen
        if one and two:
            pairs.add(j)
        elif two:
            seconds.add(j)
        elif one:
            firsts.add(j)
        j += 1
    return SubsetType(checks, f5, frozenset(pairs), frozenset(seconds), frozenset(firsts))


def _term_sign(stype: SubsetType, tu: int, tv: int, a: Sequence[int]) -> int:
    """Sign of one codeword's contribution to the subset correlation."""
    x1, x2, x3, x4 = (int(b) for b in stype.checks)
    sign = 1
    if x1:
        sign *= _G1[tu]
    if x2:
        sign *= _G2[tu]
    if x3:
        sign *= _G1[tv]
    if x4:
        sign *= _G2[tv]
    for j in stype.pairs:
        sign *= _G1[a[j - 1]] * _G2[a[j - 1]]
    for j in stype.seconds:
        sign *= _G2[a[j - 1]]
    for j in stype.firsts:
        sign *= _G1[a[j - 1]]
    return sign


def character_sum_even(spec: GeneratorSpec, stype: SubsetType) -> Fraction:
    """Signed subset correlation of an even-run design from generator data.

    Sums, over all a in Z4^n, the product of the subset's column values on
    the run indexed by a, normalised by the run count.  Its absolute value
    equals the aliasing index |J(S)|/N of the corresponding subset.  Exact:
    every term is +-1 because the paired sine/cosine values at the Z4
    angles are +-1/sqrt(2) and the normalisation absorbs the radicals.
    """
    if spec.family.branched:
        raise ValueError("even-run families only; use character_sum_odd")
    total = 0
    for a in product(range(4), repeat=spec.n):
        tu = sum(x * y for x, y in zip(a, spec.u)) % 4
        tv = sum(x * y for x, y in zip(a, spec.v)) % 4
        total += _term_sign(stype, tu, tv, a)
    return Fraction(total, 4**spec.n)


def character_sum_odd(spec: GeneratorSpec, stype: SubsetType) -> Fraction:
    """Aliasing index of a branched-design subset from generator data.

    Evaluates the two half-sums G and H over the a0 = 0 and a0 = 1 branches
    (the latter shifting a'u, a'v by u0, v0) and returns
    |G + (-1)^f5 * H|, which equals |J(S)|/N.
    """
    if not spec.family.branched:
        raise ValueError("branched families only; use character_sum_even")
    if stype.f5 is None:
        raise ValueError("subset type must carry an f5 bit")
    g_total = 0
    h_total = 0
    for a in product(range(4), repeat=spec.n):
        base_u = sum(x * y for x, y in zip(a, spec.u))
        base_v = sum(x * y for x, y in zip(a, spec.v))
        g_total += _term_sign(stype, base_u % 4, base_v % 4, a)
        h_total += _term_sign(stype, (base_u + spec.u0) % 4, (base_v + spec.v0) % 4, a)
    half = Fraction(1, 2 * 4**spec.n)
    g = g_total * half
    h = h_total * half
    return abs(g + (-1) ** stype.f5 * h)
