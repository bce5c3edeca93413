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

# First and second Gray coordinates of k in Z4, with levels +1/-1.
_GRAY1 = np.array([1, 1, -1, -1], dtype=np.int8)
_GRAY2 = np.array([1, -1, -1, 1], dtype=np.int8)


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
    def drops_first_check(self) -> bool:
        """True for the eighth fractions, which omit column F1."""
        return self in (Family.EIGHTH_EVEN, Family.EIGHTH_ODD)

    @property
    def sixteenth(self) -> bool:
        return self in (Family.SIXTEENTH_EVEN, Family.SIXTEENTH_ODD)

    def run_count(self, n: int) -> int:
        return 2 ** (2 * n + 1) if self.branched else 2 ** (2 * n)

    def factor_count(self, n: int) -> int:
        q = 2 * n + 4
        if self.branched:
            q += 1
        if self.drops_first_check:
            q -= 1
        return q

    @classmethod
    def from_label(cls, label: str) -> "Family":
        for fam in cls:
            if fam.value == label:
                return fam
        raise ValueError(f"unknown family {label!r}")


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    try:
        return tuple(map(operator.index, values))  # refused, never truncated
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _check_z4(values: Iterable[int], what: str) -> tuple[int, ...]:
    vals = _integers(values, f"{what} entries")
    for x in vals:
        if x not in Z4:
            raise ValueError(f"{what} entries must lie in {{0,1,2,3}}, got {x}")
    return vals


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
        object.__setattr__(self, "n", _integers((self.n,), "n")[0])
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "u", _check_z4(self.u, "u"))
        object.__setattr__(self, "v", _check_z4(self.v, "v"))
        if len(self.u) != self.n or len(self.v) != self.n:
            raise ValueError("u and v must both have length n")
        if self.family.branched:
            if self.u0 is None or self.v0 is None:
                raise ValueError(f"{self.family.value} requires u0 and v0")
            for name, x in zip(("u0", "v0"), _check_z4((self.u0, self.v0), "u0 and v0")):
                object.__setattr__(self, name, x)
        elif self.u0 is not None or self.v0 is not None:
            raise ValueError(f"{self.family.value} does not take u0/v0")

    @property
    def u0v0(self) -> tuple[int, int] | None:
        if self.u0 is None:
            return None
        return (self.u0, self.v0)


def column_labels(family: Family, n: int) -> tuple[str, ...]:
    """Ordered factor labels: F1..F4 checks, F5 for branched, then pairs Fj1, Fj2."""
    labels = ["F1", "F2", "F3", "F4"]
    if family.drops_first_check:
        labels = labels[1:]
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
        if not np.all(np.abs(rows) == 1):  # before the cast, which would wrap
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


def design_stack(
    family: Family,
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    u0v0: np.ndarray | None = None,
) -> np.ndarray:
    """The +1/-1 matrices of many designs of one family and size at once.

    ``u`` and ``v`` are (designs, n) arrays of Z4 entries, and ``u0v0`` is
    a (designs, 2) array for the branched families.  Returns an int8 array
    of shape (designs, N, q) with columns in ``column_labels`` order.

    Rows enumerate a = (a1, ..., an) over Z4^n (even-run families), preceded
    by a0 in {0, 1} for branched families; the row index is
    a0*4^n + sum_j aj*4^(n-j), so an varies fastest.  Check columns carry the
    Gray pairs of (u0*a0 +) a'u and (v0*a0 +) a'v mod 4, the branch column F5
    is +1 exactly when a0 = 0, and each pair (Fj1, Fj2) is the Gray pair of
    aj.  Only the check columns differ between the designs.
    """
    base = 4**n
    idx = np.arange(base, dtype=np.int64)
    digits = (idx[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
    tu = digits @ np.asarray(u, dtype=np.int64).T
    tv = digits @ np.asarray(v, dtype=np.int64).T
    shared: list[np.ndarray] = []
    if family.branched:
        pairs = np.asarray(u0v0, dtype=np.int64)
        digits = np.vstack([digits, digits])
        tu = np.vstack([tu, tu + pairs[:, 0]])
        tv = np.vstack([tv, tv + pairs[:, 1]])
        shared.append(np.repeat(np.array([1, -1], dtype=np.int8), base))
    tu %= 4
    tv %= 4
    checks = [_GRAY1[tu], _GRAY2[tu], _GRAY1[tv], _GRAY2[tv]]
    if family.drops_first_check:
        checks = checks[1:]
    for j in range(n):
        shared += [_GRAY1[digits[:, j]], _GRAY2[digits[:, j]]]
    stack = np.empty((tu.shape[1], tu.shape[0], len(checks) + len(shared)), np.int8)
    for i, col in enumerate(checks + shared):
        stack[:, :, i] = col.T
    return stack


def build_design(spec: GeneratorSpec) -> DesignMatrix:
    """Materialise the design matrix for a generator spec (see
    ``design_stack``)."""
    u0v0 = None if spec.u0v0 is None else [spec.u0v0]
    rows = design_stack(spec.family, spec.n, [spec.u], [spec.v], u0v0)[0]
    return DesignMatrix(column_labels(spec.family, spec.n), rows)


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


def realize_profile(profile: GeneratorProfile) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return a canonical (u, v) whose profile is the given one (see
    ``realize_profiles``)."""
    if profile.n == 0:
        raise ValueError("cannot realize the all-zero profile")
    u, v = realize_profiles([profile.counts])
    return tuple(u[0].tolist()), tuple(v[0].tolist())


def spec_for(
    family: Family,
    profile: GeneratorProfile,
    u0v0: tuple[int, int] | None = None,
) -> GeneratorSpec:
    """Build a GeneratorSpec from a profile via its canonical realization."""
    u, v = realize_profile(profile)
    if family.branched:
        if u0v0 is None:
            raise ValueError(f"{family.value} requires u0v0")
        return GeneratorSpec(family, profile.n, u, v, u0v0[0], u0v0[1])
    if u0v0 is not None:
        raise ValueError(f"{family.value} does not take u0v0")
    return GeneratorSpec(family, profile.n, u, v)
