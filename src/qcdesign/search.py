"""Exhaustive optimization over generator profiles and reference tables.

The profile space for n free coordinates is the C(n+9, 9) compositions of n
into ten class counts; branched families additionally range over the merged
(u0, v0) column classes.  Candidates are compared on exact integer keys, so
results are deterministic and independent of evaluation order.

Ties are real: distinct profiles (and distinct u0v0 classes) can share the
optimal wordlength pattern, resolution, and projectivity.  ``optimize``
therefore reports the full tie set under its refinement pipeline, and table
verification checks that the published design is among the ties with exactly
the published metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

import numpy as np

from .oracle import check_factor_cap, j_table_chunks
from .qc_core import _CLASS_OF, _CLASS_PAIRS, Family, GeneratorProfile, _check_n
from .theory import (
    U0V0,
    ClosedForms,
    closed_forms,
    projectivity_bound,
    u0v0_class,
    u0v0_classes,
)

#: Largest n ``optimize`` accepts.  At n = 10 the whole-space theory scan
#: takes 0.04-0.07 s for the even families, 0.07-0.11 s for sixteenth-odd
#: and 0.10-0.17 s for eighth-odd, peaking at 47, 48 and 58 MiB RSS; at
#: n = 11 the eighth-odd scan peaks at 79 MiB (2-core Xeon, Python 3.11.7,
#: numpy 2.4.6, one fresh process per scan).
MAX_N = 10

Candidate = tuple[GeneratorProfile, U0V0 | None]


class Criterion(Enum):
    RESOLUTION = "resolution"
    ABERRATION = "aberration"
    PROJECTIVITY = "projectivity"


def profile_array(n: int) -> np.ndarray:
    """All C(n+9, 9) compositions of n into ten counts, one per row, in
    lexicographic order, int16.

    Built one column at a time: a row with r left to place splits into
    r + 1 rows, which take 0..r in the next column, in order.
    """
    n = _check_n(n)
    rows = np.zeros((1, 0), dtype=np.int16)
    left = np.array([n], dtype=np.int16)
    for _ in range(9):
        splits = left + 1
        starts = np.cumsum(splits) - splits
        column = np.arange(starts[-1] + splits[-1]) - np.repeat(starts, splits)
        column = column.astype(np.int16)
        rows = np.hstack([np.repeat(rows, splits, axis=0), column[:, None]])
        left = np.repeat(left, splits) - column
    return np.hstack([rows, left[:, None]])


#: The signed permutations of (u, v) over Z4, as 2 x 2 matrices that act on
#: every (u_j, v_j) and on (u0, v0).  Each only permutes a design's columns:
#: Gray(-x) is Gray(x) with its coordinates swapped, so negating u and u0
#: swaps F1 and F2, negating v and v0 swaps F3 and F4, and swapping (u, u0)
#: with (v, v0) swaps (F1, F2) with (F3, F4).
_SIGNED_PERMUTATIONS = np.array([
    perm @ np.diag(signs) % 4
    for perm in (np.eye(2, dtype=int), np.eye(2, dtype=int)[::-1])
    for signs in ((1, 1), (3, 1), (1, 3), (3, 3))
])


def _isomorphisms(
    family: Family, pairs: tuple[U0V0 | None, ...]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The family's isomorphisms, each as its matrix, the class ``perm[c]``
    that takes profile class c, and the index in ``pairs`` of each pair's
    image.  An eighth fraction drops F1, so it keeps the maps that fix a'u:
    v -> -v.  Every pair of a class maps into one class, so the class's
    first-listed pair (``_CLASS_PAIRS``) or u0v0 decides."""
    maps = []
    for matrix in _SIGNED_PERMUTATIONS:
        if not family.sixteenth and matrix[0].tolist() != [1, 0]:
            continue
        perm = [_CLASS_OF[tuple(matrix @ members[0] % 4)] for members in _CLASS_PAIRS]
        images = [
            0 if pair is None else pairs.index(u0v0_class(family, tuple(matrix @ pair % 4)))
            for pair in pairs
        ]
        maps.append((matrix, np.array(perm), np.array(images)))
    return maps


def enumerate_profiles(n: int) -> Iterator[GeneratorProfile]:
    """All C(n+9, 9) compositions of n into ten counts, lexicographically."""
    for counts in profile_array(n).tolist():
        yield GeneratorProfile(tuple(counts))


def _wlp_keys(forms: ClosedForms, q: int) -> np.ndarray:
    """Doubled wordlength patterns, (profiles, q, pairs) int8, of the profiles
    ``optimize`` holds (``_min_wlp``): entry [p, k - 1, c] is 2 A_k of candidate
    (p, c), the sum of the doubled table weights of its rows of length k; no
    exponent enters, because (2 * count) >> 2e is the doubled weight.  They sum
    to at most 127 per candidate (``theory._table``), so int8 holds every entry.
    """
    weights = forms.table.weights[forms.gates].transpose(0, 2, 1)  # (profiles, rows, pairs)
    wlp = np.zeros((len(weights), q + 1, weights.shape[2]), dtype=np.int8)
    np.add.at(wlp, (np.arange(len(weights))[:, None], forms.lengths), weights)
    return wlp[:, 1:, :]


def _resolution_keys(forms: ClosedForms) -> np.ndarray:
    """Keys r << 8 | e increasing with resolution R = r + 1 - 2^-e, (profiles,
    pairs) int16: one pass takes the least length << 8 | e over the rows with a
    nonzero weight.  Lengths, at most 2n + 5, stay below 2^7 for n <= MAX_N."""
    keys = np.full(forms.tokens.shape[:2], np.iinfo(np.int16).max, dtype=np.int16)
    for r in range(forms.lengths.shape[1]):
        lengths, exps, weights = forms.row(r)
        np.minimum(keys, np.where(weights != 0, lengths[:, None] << 8 | exps, keys), out=keys)
    return keys


def _min_wlp(wlp_keys: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The candidates of ``alive`` whose wordlength pattern is the
    lexicographically smallest among them, filtered one length at a time.
    They have the longest shortest word in ``alive``: no weight is negative, so
    a shorter shortest word r gives A_r > 0 where they have A_1..A_r = 0."""
    for k in range(wlp_keys.shape[1]):
        column = wlp_keys[:, k, :]
        alive = alive & (column == column[alive].min())
    return alive


@dataclass(frozen=True)
class RegularReference:
    """Published regular minimum-aberration benchmark for one design size."""

    resolution: Fraction
    wlp_comparison: str


@dataclass(frozen=True)
class SearchResult:
    family: Family
    n: int
    criterion: Criterion
    profile: GeneratorProfile
    u0v0: U0V0 | None
    resolution: Fraction  # never UNBOUNDED: with 2^q > N every design has a word
    wlp: tuple[Fraction, ...]
    projectivity: int | None
    criteria_coincide: bool
    ties: tuple[Candidate, ...]
    regular_reference: RegularReference | None

    @property
    def wlp_from_4(self) -> tuple[Fraction, ...]:
        return self.wlp[3:]


def _projectivities(
    family: Family, profiles: np.ndarray, pairs: tuple, pool: np.ndarray
) -> np.ndarray:
    """Oracle projectivity of every candidate in the (profiles, pairs) mask
    ``pool``, scored as stacked J-tables; -1 outside the pool."""
    projs = np.full(pool.shape, -1)
    for p, c, table in j_table_chunks(family, profiles, pairs, *np.nonzero(pool)):
        projs[p, c] = table.projectivity()
    return projs


def optimize(
    n: int,
    family: Family,
    criterion: Criterion,
    with_projectivity: bool = True,
) -> SearchResult:
    """Best design over all profiles (and u0v0 classes) for one criterion.

    The winner set is refined in a fixed order: criterion value, then full
    wordlength pattern, then resolution, then (optionally) oracle
    projectivity of the realized designs, and finally the lexicographically
    smallest (profile, u0v0).  The surviving tie set is reported in full.
    Only one profile per orbit of ``_isomorphisms`` is scored, crossed with
    every u0v0 class; the ties are the orbits of the scored survivors.
    When oracle projectivity is needed, the oracle's cap on q is checked
    before the theory scan.
    """
    if _check_n(n) > MAX_N:
        raise ValueError(f"n must lie in 1..{MAX_N}")
    q = family.factor_count(n)
    size = f"{family.value} designs at n = {n} have"
    if criterion is Criterion.PROJECTIVITY:
        check_factor_cap(q, size, " for --criterion projectivity")
    elif with_projectivity:
        check_factor_cap(
            q, size, " for the projectivity refinement, which --skip-projectivity skips,"
        )
    profiles = profile_array(n)
    pairs = u0v0_classes(family)
    maps = _isomorphisms(family, pairs)
    # Keys order profiles as profile_array lists them; a profile is scored
    # when its key is the smallest of its images', and scores are equal
    # across an orbit, so the extremes below are those of every candidate.
    weights = (n + 1) ** np.arange(9, -1, -1, dtype=np.int64)
    keys = profiles @ weights
    image_keys = [profiles @ weights[perm] for _, perm, _ in maps]
    scored = profiles[np.all(keys <= image_keys, axis=0)]
    forms = closed_forms(family, scored, pairs)
    res = _resolution_keys(forms)
    max_res = res.max()
    projs = None
    if criterion is Criterion.PROJECTIVITY:  # scores every representative
        projs = _projectivities(family, scored, pairs, np.ones(res.shape, dtype=bool))
    # The sets minimised below lie in the held profiles (see ``_min_wlp``).
    top = res >> 8 == max_res >> 8
    held = (top if projs is None else top | (projs == projs.max())).any(axis=1)
    scored, res, top = scored[held], res[held], top[held]
    projs = None if projs is None else projs[held]
    wlp_keys = _wlp_keys(closed_forms(family, scored, pairs), q)

    ma_set = _min_wlp(wlp_keys, top)
    criteria_coincide = bool((res[ma_set] == max_res).any())

    if criterion is Criterion.ABERRATION:
        pool = ma_set & (res == res[ma_set].max())
    elif criterion is Criterion.RESOLUTION:
        pool = _min_wlp(wlp_keys, res == max_res)
    else:
        pool = _min_wlp(wlp_keys, projs == projs.max())
        pool &= res == res[pool].max()

    # The projectivity refinement scores only the ties.
    if with_projectivity and projs is None:
        projs = _projectivities(family, scored, pairs, pool)
        pool &= projs == projs.max()
    best_projectivity = None if projs is None else int(projs.max())

    # The ties are the orbits of the pool, in (profile, pair) index order:
    # profiles are lexicographic and pairs sorted.
    p, c = np.nonzero(pool)
    ties = np.unique(np.concatenate([
        np.searchsorted(keys, scored[p] @ weights[perm]) * len(pairs) + images[c]
        for _, perm, images in maps
    ]))
    ties = [
        (GeneratorProfile(tuple(profiles[i].tolist())), pairs[j])
        for i, j in zip(*np.divmod(ties, len(pairs)))
    ]
    # The pool and its orbits share one WLP and one key r << 8 | e: R = r + 1 - 2^-e.
    r, e = divmod(int(res[p[0], c[0]]), 1 << 8)
    return SearchResult(
        family=family,
        n=n,
        criterion=criterion,
        profile=ties[0][0],
        u0v0=ties[0][1],
        resolution=r + 1 - Fraction(1, 1 << e),
        wlp=tuple(Fraction(int(a), 2) for a in wlp_keys[p[0], :, c[0]]),
        projectivity=best_projectivity,
        criteria_coincide=criteria_coincide,
        ties=tuple(ties),
        regular_reference=_REGULAR_REFERENCE.get((family, n)),
    )


def orthogonal_array_ceiling(family: Family, n: int) -> int:
    """Highest projectivity any design of this size could have: log2 N - 1.

    A projectivity of log2 N would need an index-one orthogonal array of
    strength log2 N on more than log2 N + 1 factors, which does not exist;
    rows attaining the ceiling have maximum projectivity among all designs,
    not just the code-derived ones.
    """
    return family.run_count(n).bit_length() - 2


# ---------------------------------------------------------------------------
# Published reference values: the optimal-design tables (ids 3 and 4) and
# their projectivity tables (ids 5 and 6), plus the regular minimum-
# aberration benchmarks quoted alongside them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRowSpec:
    family: Family
    n: int
    profile: str
    u0v0: U0V0 | None
    resolution: Fraction
    wlp_from_4: tuple[int, ...]
    qc_projectivity: int
    regular_projectivity: int
    regular: RegularReference

    @property
    def label(self) -> str:
        return self.family.label(self.n)


def _row(family, n, profile, u0v0, res, a4, proj, reg_proj, reg_r, cmp):
    return TableRowSpec(
        family, n, profile, u0v0, Fraction(res), tuple(a4),
        proj, reg_proj, RegularReference(Fraction(reg_r), cmp),
    )


SIXTEENTH_ROWS: tuple[TableRowSpec, ...] = (
    _row(Family.SIXTEENTH_EVEN, 2, "0011000000", None,
         4, (14, 0, 0, 0, 1), 3, 3, 4, "same"),
    _row(Family.SIXTEENTH_ODD, 2, "0011000000", (1, 1),
         Fraction(9, 2), (6, 8, 0, 0, 1, 0), 4, 3, 4, "same"),
    _row(Family.SIXTEENTH_EVEN, 3, "0001110000", None,
         Fraction(9, 2), (2, 8, 4, 0, 1, 0, 0), 5, 3, 4, "same"),
    _row(Family.SIXTEENTH_ODD, 3, "0001110000", (1, 2),
         Fraction(11, 2), (0, 6, 6, 2, 1, 0, 0, 0), 6, 4, 5, "same"),
    _row(Family.SIXTEENTH_EVEN, 4, "0011110000", None,
         Fraction(13, 2), (0, 0, 12, 0, 3, 0, 0, 0, 0), 7, 5, 6, "same"),
    _row(Family.SIXTEENTH_ODD, 4, "0011110000", (2, 2),
         Fraction(13, 2), (0, 0, 4, 8, 3, 0, 0, 0, 0, 0), 7, 5, 6, "same"),
    _row(Family.SIXTEENTH_EVEN, 5, "1011110000", None,
         Fraction(13, 2), (0, 0, 2, 8, 3, 0, 2, 0, 0, 0, 0), 7, 6, 7, "better"),
)

EIGHTH_ROWS: tuple[TableRowSpec, ...] = (
    _row(Family.EIGHTH_EVEN, 2, "0011000000", None,
         4, (7, 0, 0, 0), 3, 3, 4, "same"),
    _row(Family.EIGHTH_ODD, 2, "0011000000", (1, 1),
         Fraction(9, 2), (3, 4, 0, 0, 0), 4, 3, 4, "same"),
    _row(Family.EIGHTH_EVEN, 3, "0010110000", None,
         Fraction(9, 2), (1, 4, 2, 0, 0, 0), 5, 3, 4, "same"),
    _row(Family.EIGHTH_ODD, 3, "0010110000", (2, 1),
         Fraction(11, 2), (0, 3, 3, 1, 0, 0, 0), 6, 4, 5, "same"),
    _row(Family.EIGHTH_EVEN, 4, "0011110000", None,
         Fraction(13, 2), (0, 0, 6, 0, 1, 0, 0, 0), 7, 5, 6, "same"),
    _row(Family.EIGHTH_ODD, 4, "0011110000", (1, 2),
         Fraction(27, 4), (0, 0, 2, 4, 1, 0, 0, 0, 0), 7, 5, 6, "same"),
    _row(Family.EIGHTH_EVEN, 5, "0021110000", None,
         Fraction(31, 4), (0, 0, 0, 4, 3, 0, 0, 0, 0, 0), 7, 6, 7, "same"),
)

_REGULAR_REFERENCE: dict[tuple[Family, int], RegularReference] = {
    (row.family, row.n): row.regular for row in SIXTEENTH_ROWS + EIGHTH_ROWS
}


@dataclass(frozen=True)
class ReportRow:
    """One verified table row: computed results against published values."""

    expected: TableRowSpec
    result: SearchResult
    flags: dict[str, bool]

    @property
    def label(self) -> str:
        return self.expected.label

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def reproduce_table(which: int) -> list[ReportRow]:
    """Re-derive one reference table and flag agreement row by row.

    Tables 3 and 4 verify the optimal (profile, u0v0, resolution, wordlength
    pattern) per design size; published entries must be in the search tie
    set with exact metrics.  Tables 5 and 6 verify the oracle projectivity
    of those optima, including (for sixteenth fractions) that it attains the
    closed-form bound.
    """
    if which not in (3, 4, 5, 6):
        raise ValueError("table id must be 3, 4, 5, or 6")
    rows = []
    for spec in SIXTEENTH_ROWS if which in (3, 5) else EIGHTH_ROWS:
        result = optimize(spec.n, spec.family, Criterion.ABERRATION)
        expected_wlp = tuple(map(Fraction, (0,) * 3 + spec.wlp_from_4))
        listed = (GeneratorProfile.from_digits(spec.profile), spec.u0v0)
        if which in (3, 4):
            flags = {
                "resolution": result.resolution == spec.resolution,
                "wlp": result.wlp == expected_wlp,
                "listed_design_in_ties": listed in result.ties,
                "criteria_coincide": result.criteria_coincide,
            }
        else:
            flags = {
                "projectivity": result.projectivity == spec.qc_projectivity,
                "listed_design_in_ties": listed in result.ties,
            }
            if spec.family.sixteenth:
                flags["attains_bound"] = (
                    result.projectivity == projectivity_bound(spec.n, spec.family)
                )
        rows.append(ReportRow(spec, result, flags))
    return rows
