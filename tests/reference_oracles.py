"""Independent reference oracles for the J-characteristics and the CSV reader.

``j_direct`` multiplies the columns of one subset run by run.  The
character sums evaluate the paper's trigonometric sums term by term from the
generator data, with the Gray coordinates of k in Z4 taken from
``conftest.GRAY_PAIRS`` (the exact values of sqrt(2)*sin(pi/4 + pi*k/2) and
sqrt(2)*cos(pi/4 + pi*k/2)).  Neither shares code with the subset-parity
transform of ``qcdesign.oracle.j_characteristics`` that they check.
``walsh_hadamard_matrix`` and ``subset_sums_direct`` are the plain
definitions of the two in-place butterfly transforms of ``qcdesign.oracle``.
``csv_rows`` is the line-by-line CSV parser that ``qcdesign.cli`` used
before it read CSV as arrays; its acceptance and its messages are the
reference for ``design_from_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from conftest import GRAY_PAIRS
from qcdesign import DesignMatrix, GeneratorSpec

_G1 = tuple(GRAY_PAIRS[k][0] for k in range(4))
_G2 = tuple(GRAY_PAIRS[k][1] for k in range(4))


def j_direct(design: DesignMatrix, labels: Iterable[str]) -> int:
    """Direct row-by-row product sum over one column subset."""
    idx = [design.columns.index(label) for label in labels]
    if not idx:
        raise ValueError("subset must be nonempty")
    return int(design.rows[:, idx].prod(axis=1, dtype=np.int64).sum())


def walsh_hadamard_matrix(a: np.ndarray) -> np.ndarray:
    """The Sylvester transform over the last axis as an explicit product
    with the +1/-1 matrix H[s, p] = (-1)^popcount(s & p), in int64."""
    index = np.arange(a.shape[-1])
    common = index[:, None] & index[None, :]
    parity = np.zeros_like(common)
    for bit in range(max(1, a.shape[-1].bit_length())):
        parity ^= (common >> bit) & 1
    return a.astype(np.int64) @ (1 - 2 * parity)


def subset_sums_direct(a: np.ndarray) -> np.ndarray:
    """out[s] = sum of in[t] over the submasks t of s, as a product with the
    0/1 matrix M[t, s] = [t & s == t], in int64."""
    index = np.arange(a.shape[-1])
    submask = (index[:, None] & index[None, :]) == index[:, None]
    return a.astype(np.int64) @ submask.astype(np.int64)


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


def csv_rows(text: str) -> tuple[tuple[str, ...], list[list[int]]]:
    """Column labels and +1/-1 runs of a CSV design, line by line; a
    malformed document raises ValueError."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("a CSV design needs a header line and at least one run")
    columns = tuple(label.strip() for label in lines[0].split(","))
    rows = []
    for run, line in enumerate(lines[1:], start=1):
        entries = []
        for tok in line.split(","):
            tok = tok.strip()
            if tok in ("1", "+1"):
                entries.append(1)
            elif tok == "-1":
                entries.append(-1)
            else:
                raise ValueError(f"CSV entries must be +1 or -1, got {tok!r}")
        if len(entries) != len(columns):
            raise ValueError(
                f"CSV run {run} has {len(entries)} entries for {len(columns)} columns"
            )
        rows.append(entries)
    return columns, rows
