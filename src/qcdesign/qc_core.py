"""Construction of two-level designs from quaternary (Z4) generator data.

A generator pair (u, v) over Z4, together with an optional branching pair
(u0, v0), defines a code whose binary image under the Gray map is an N x q
matrix of +1/-1 entries.  Four families are supported:

==================  =========  ============  =======================
family              runs N     factors q     extra generator data
==================  =========  ============  =======================
``SIXTEENTH_EVEN``  2^(2n)     2n + 4        none
``EIGHTH_EVEN``     2^(2n)     2n + 3        none (first check column dropped)
``SIXTEENTH_ODD``   2^(2n+1)   2n + 5        u0, v0
``EIGHTH_ODD``      2^(2n+1)   2n + 4        u0, v0 (first check column dropped)
==================  =========  ============  =======================
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

Z4 = (0, 1, 2, 3)

#: Gray map of Z4 with levels +1/-1: row k holds the two coordinates of k.
GRAY = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=np.int8)


class Family(Enum):
    """The four supported design families."""

    SIXTEENTH_EVEN = "sixteenth-even"
    EIGHTH_EVEN = "eighth-even"
    SIXTEENTH_ODD = "sixteenth-odd"
    EIGHTH_ODD = "eighth-odd"

    @property
    def branched(self) -> bool:
        """True for the odd-power-of-two run sizes (u0/v0 required)."""
        return self in (Family.SIXTEENTH_ODD, Family.EIGHTH_ODD)

    @property
    def sixteenth(self) -> bool:
        return self in (Family.SIXTEENTH_EVEN, Family.SIXTEENTH_ODD)

    @property
    def checks(self) -> int:
        """Check columns kept: F1..F4 for a one-sixteenth fraction, and
        F2..F4 for a one-eighth fraction, which omits F1."""
        return 4 if self.sixteenth else 3

    def run_count(self, n: int) -> int:
        return 2 ** (2 * n + self.branched)

    def factor_count(self, n: int) -> int:
        return 2 * n + self.branched + self.checks

    def label(self, n: int) -> str:
        """The fraction as 2^{q-k}: q factors, k check columns."""
        return f"2^{{{self.factor_count(n)}-{self.checks}}}"

    @classmethod
    def from_label(cls, label: str) -> "Family":
        for fam in cls:
            if fam.value == label:
                return fam
        raise ValueError(f"unknown family {label!r}")


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    values = tuple(values)
    if any(isinstance(x, bool) for x in values):  # operator.index reads True as 1
        raise ValueError(f"{what}: 'bool' object cannot be interpreted as an integer")
    try:
        return tuple(map(operator.index, values))  # refused, never truncated
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _check_n(n: int) -> int:
    """The size n of a design, a positive integer."""
    n = _integers((n,), "n")[0]
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n


def _check_z4(values: Iterable[int], what: str) -> tuple[int, ...]:
    vals = _integers(values, f"{what} entries")
    for x in vals:
        if x not in Z4:
            raise ValueError(f"{what} entries must lie in {{0,1,2,3}}, got {x}")
    return vals


def _check_u0v0(family: Family, u0v0: Sequence[int] | None) -> tuple[int, int] | None:
    """``u0v0`` as two Z4 ints, present exactly for the branched families."""
    if (u0v0 is None) == family.branched:
        verb = "requires" if family.branched else "does not take"
        raise ValueError(f"{family.value} {verb} u0v0")
    return None if u0v0 is None else _check_pair(u0v0)


def _check_pair(u0v0: Sequence[int]) -> tuple[int, int]:
    pair = _check_z4(u0v0, "u0v0")
    if len(pair) != 2:
        raise ValueError(f"u0v0 must have two entries, got {len(pair)}")
    return pair


@dataclass(frozen=True)
class GeneratorSpec:
    """Generator data for one design: family tag plus Z4 vectors.

    ``u`` and ``v`` have length ``n``; ``u0``/``v0`` are single Z4 elements
    present exactly for the branched (odd-run) families.
    """

    family: Family
    n: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    u0: int | None = None
    v0: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n))
        object.__setattr__(self, "u", _check_z4(self.u, "u"))
        object.__setattr__(self, "v", _check_z4(self.v, "v"))
        if len(self.u) != self.n or len(self.v) != self.n:
            raise ValueError("u and v must both have length n")
        pair = None if self.u0 is None and self.v0 is None else (self.u0, self.v0)
        for name, x in zip(("u0", "v0"), _check_u0v0(self.family, pair) or (None, None)):
            object.__setattr__(self, name, x)

    @property
    def u0v0(self) -> tuple[int, int] | None:
        return None if self.u0 is None else (self.u0, self.v0)


def column_labels(family: Family, n: int) -> tuple[str, ...]:
    """Ordered factor labels: F1..F4 checks, F5 for branched, then pairs Fj1, Fj2."""
    labels = ["F1", "F2", "F3", "F4"][4 - family.checks :]
    if family.branched:
        labels.append("F5")
    for j in range(1, n + 1):
        labels.append(f"F{j}1")
        labels.append(f"F{j}2")
    return tuple(labels)


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """An N x q array over {+1, -1} with labeled columns."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if rows.shape[1] != len(self.columns):
            raise ValueError("row width must match the number of column labels")
        if rows.dtype.kind in "biu":  # reductions, no temporary as large as the rows
            valid = rows.all() and rows.min(initial=0) >= -1 and rows.max(initial=0) <= 1
        else:
            valid = np.all(np.abs(rows) == 1)
        if not valid:  # before the cast, which would wrap
            raise ValueError("design entries must be +1 or -1")
        rows = rows.astype(np.int8, copy=False)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_runs(self) -> int:
        return self.rows.shape[0]

    @property
    def n_factors(self) -> int:
        return self.rows.shape[1]


def run_digits(family: Family, n: int) -> np.ndarray:
    """The digits of ``z4_code``'s runs (see there)."""
    shape = (2,) * family.branched + (4,) * n
    return np.indices(shape, dtype=np.uint8).reshape(len(shape), -1)


def z4_code(
    family: Family, n: int, u: np.ndarray, v: np.ndarray, u0v0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Z4 code of many designs of one family and size at once.

    ``u`` and ``v`` are (designs, n) arrays of Z4 entries, and ``u0v0`` is
    a (designs, 2) array for the branched families.  Returns the (n, N)
    digits a = (a1, ..., an) of the runs, preceded by a row a0 in {0, 1}
    for the branched families, and the (designs, N) values (u0*a0 +) a'u
    and (v0*a0 +) a'v mod 4, all uint8 (whose wrapping keeps sums mod 4).
    Run a0*4^n + sum_j aj*4^(n-j) is column i, so an varies fastest.
    """
    digits = run_digits(family, n)
    u, v = np.asarray(u, dtype=np.uint8), np.asarray(v, dtype=np.uint8)
    if family.branched:
        pairs = np.asarray(u0v0, dtype=np.uint8)
        u, v = np.hstack([pairs[:, :1], u]), np.hstack([pairs[:, 1:], v])
    # A sum of rows: integer matmul is slower, and einsum costs resident memory.
    return digits, *(sum(w[:, j, None] * a for j, a in enumerate(digits)) & 3 for w in (u, v))


def build_design(spec: GeneratorSpec) -> DesignMatrix:
    """The design matrix of a generator spec (runs as in ``z4_code``): the Gray
    pairs of a'u and a'v, less F1 for the eighth fractions, then F5, +1 exactly
    when a0 = 0, the second Gray coordinate of a0, then the Gray pair of each aj."""
    family = spec.family  # z4_code ignores [None] for the even-run families
    digits, tu, tv = z4_code(family, spec.n, [spec.u], [spec.v], [spec.u0v0])
    # Each Gray coordinate GRAY[k, c] = 1 - ((k + c) & 2) of each code row into its
    # column, less F1 of an eighth fraction and the first of a0 (always +1).
    coords = [(code.view(np.int8), c) for code in (*tu, *tv, *digits) for c in (0, 1)]
    coords = coords[4 - family.checks : 4] + coords[4 + family.branched :]
    rows = np.empty((digits.shape[1], len(coords)), np.int8)
    for column, (code, c) in zip(rows.T, coords):
        np.subtract(1, (code + c) & 2, out=column)
    del digits, tu, tv, coords, code  # freed before DesignMatrix checks the rows
    return DesignMatrix(column_labels(family, spec.n), rows)


# The ten (k, s) pair classes, listed with a canonical representative each.
# A generator position contributes to exactly one class, and the design's
# word spectrum depends on (u, v) only through the ten class counts.
_CLASS_PAIRS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((1, 0), (3, 0)),
    ((0, 1), (0, 3)),
    ((1, 2), (3, 2)),
    ((2, 1), (2, 3)),
    ((1, 1), (3, 3)),
    ((1, 3), (3, 1)),
    ((0, 2),),
    ((2, 0),),
    ((2, 2),),
    ((0, 0),),
)

#: Class index (0..9) of each of the sixteen (k, s) pairs.
_CLASS_OF = {pair: c for c, pairs in enumerate(_CLASS_PAIRS) for pair in pairs}


@dataclass(frozen=True)
class GeneratorProfile:
    """The 10-tuple of pair-class counts summarising a generator pair."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _integers(self.counts, "profile entries"))
        if len(self.counts) != 10:
            raise ValueError("profile must have 10 entries")
        if any(x < 0 for x in self.counts):
            raise ValueError("profile entries must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def digits(self) -> str:
        if any(x > 9 for x in self.counts):
            return ",".join(str(x) for x in self.counts)
        return "".join(str(x) for x in self.counts)

    @classmethod
    def from_digits(cls, text: str) -> "GeneratorProfile":
        text = text.strip()
        if "," in text:
            parts = [int(p) for p in text.split(",")]
        else:
            parts = [int(ch) for ch in text]
        return cls(tuple(parts))


def profile_of(u: Sequence[int], v: Sequence[int]) -> GeneratorProfile:
    """Count how many positions j put (u_j, v_j) in each of the ten classes."""
    u = _check_z4(u, "u")
    v = _check_z4(v, "v")
    if len(u) != len(v):
        raise ValueError("u and v must have the same length")
    counts = [0] * 10
    for pair in zip(u, v):
        counts[_CLASS_OF[pair]] += 1
    return GeneratorProfile(tuple(counts))


#: Canonical (k, s) representative of each class, as (k, ...) and (s, ...).
_REPRESENTATIVES = np.array([pairs[0] for pairs in _CLASS_PAIRS], dtype=np.int64).T


def realize_profiles(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (u, v) rows of a (profiles, 10) array of equal-n profiles.

    Uses the first-listed representative of each class, emitting class 1
    positions first.  Any member of a class gives a spectrum-equivalent
    design, so this choice is a convention, not a restriction.
    """
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, 10)
    ends = np.cumsum(counts, axis=1)
    classes = (ends[:, :, None] <= np.arange(ends[0, -1])).sum(axis=1)
    return _REPRESENTATIVES[0][classes], _REPRESENTATIVES[1][classes]


def spec_for(
    family: Family,
    profile: GeneratorProfile,
    u0v0: tuple[int, int] | None = None,
) -> GeneratorSpec:
    """The GeneratorSpec of a profile's canonical (u, v) (see
    ``realize_profiles``); the all-zero profile is refused, as n = 0."""
    u, v = realize_profiles([profile.counts])
    u0, v0 = (None, None) if u0v0 is None else _check_pair(u0v0)
    return GeneratorSpec(family, profile.n, u[0], v[0], u0, v0)
