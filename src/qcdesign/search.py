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
    U0V0_PAIRS,
    ClosedForms,
    closed_forms,
    projectivity_bound,
    u0v0_class,
    u0v0_classes,
)

#: Largest n ``optimize`` accepts.  At n = 10 the whole-space theory scan
#: takes 0.03-0.05 s for the even families and sixteenth-odd and 0.05 s for
#: eighth-odd, peaking at 44 / 50, 46 and 57 MiB RSS; at n = 11 the
#: eighth-odd scan takes 0.08 s and peaks at 74 MiB (2-core Xeon, Python
#: 3.11.7, numpy 2.4.6, one fresh process per scan).
MAX_N = 10
assert (MAX_N + 1) ** 10 < 2 ** 53  # the orbit filter's float64 keys are exact

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
    maps, classes = [], U0V0_PAIRS if family.branched else ()
    column = {None: 0} | {pair: pairs.index(u0v0_class(family, pair)) for pair in classes}
    for matrix in _SIGNED_PERMUTATIONS:
        (a, b), (c, d) = matrix.tolist()
        if not family.sixteenth and (a, b) != (1, 0):
            continue
        image = {(x, y): ((a * x + b * y) % 4, (c * x + d * y) % 4) for x, y in U0V0_PAIRS}
        perm = [_CLASS_OF[image[members[0]]] for members in _CLASS_PAIRS]
        images = [column[pair and image[pair]] for pair in pairs]
        maps.append((matrix, np.array(perm), np.array(images)))
    return maps


def enumerate_profiles(n: int) -> Iterator[GeneratorProfile]:
    """All C(n+9, 9) compositions of n into ten counts, lexicographically."""
    for counts in profile_array(n).tolist():
        yield GeneratorProfile(tuple(counts))


def _wlp_keys(forms: ClosedForms, q: int, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Doubled wordlength patterns of the candidates (p[i], c[i]), (candidates,
    q) int8: entry [i, k - 1] is 2 A_k, the sum of the doubled weights
    (2 * count) >> 2e of the candidate's rows of length k, exact as
    ``closed_forms`` refuses an odd weight at e = 0.  They sum to at most 127
    per candidate (``theory._table``), so int8 holds every entry."""
    lengths, exps, counts = forms.words(p, c)
    wlp = np.zeros((len(p), q + 1), dtype=np.int8)
    np.add.at(wlp, (np.arange(len(p))[:, None], lengths), (counts << 1) >> 2 * exps)
    return wlp[:, 1:]


def _shortest(forms: ClosedForms) -> np.ndarray:
    """Shortest word length r of every candidate, (profiles, pairs) int16: the
    least length over its rows with a nonzero weight, one minimum over the
    profiles per distinct (gate, pair) pattern of such rows."""
    nonzero = forms.table.weights != 0
    patterns, index = np.unique(nonzero.reshape(-1, nonzero.shape[2]), axis=0, return_inverse=True)
    lengths, none = np.ascontiguousarray(forms.lengths.T), np.iinfo(np.int16).max
    least = np.array([np.minimum.reduce(lengths[rows], initial=none) for rows in patterns])
    by_pair = index.reshape(nonzero.shape[:2]).astype(np.int8)[forms.gates]  # < 4 x 16 patterns
    return least[by_pair, np.arange(len(by_pair))[:, None]]


def _resolution_keys(forms: ClosedForms, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Keys r << 8 | e increasing with resolution R = r + 1 - 2^-e of the
    candidates (p[i], c[i]), int64: the least length << 8 | e over their rows
    with a nonzero weight, whose high bits are ``_shortest``'s r."""
    keys = forms.lengths[p].astype(np.int64) << 8 | forms.exponents(p, c)
    keys[forms.table.weights[forms.gates[p], c] == 0] = np.iinfo(np.int64).max
    return keys.min(axis=1)


def _min_wlp(forms: ClosedForms, q: int, r: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The candidates of the (profiles, pairs) mask ``alive`` whose wordlength
    pattern is the lexicographically smallest among them.  They have the
    longest shortest word in ``alive`` (``r``, from ``_shortest``): no weight
    is negative, so a shorter shortest word r gives A_r > 0 where they have
    A_1..A_r = 0.  Only those are keyed, and filtered one length at a time."""
    alive = alive & (r == r[alive].max())
    p, c = np.divmod(np.flatnonzero(alive), alive.shape[1])  # np.nonzero is slower
    best = np.ones(len(p), dtype=bool)
    for column in _wlp_keys(forms, q, p, c).T:
        best &= column == column[best].min()
    alive[p[~best], c[~best]] = False
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


def _projectivity_bounds(
    forms: ClosedForms, res: np.ndarray, p: np.ndarray, c: np.ndarray, n: int, family: Family
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (floor, ceiling) of the candidates' projectivity.  The
    floor ceil(R) - 1 = r - [e = 0] of the key r << 8 | e is Deng & Tang
    1999's, as in ``JTable.projectivity``.  A full word of length L makes its
    L-projection a half fraction: the ceiling is the shortest one's L - 1 (q
    without one), at most ``projectivity_bound`` for the sixteenth fractions."""
    r, e = np.divmod(res[p, c].astype(np.int64), 1 << 8)
    lengths, exps, counts = forms.words(p, c)
    cap = projectivity_bound(n, family) if family.sixteenth else family.factor_count(n)
    return r - (e == 0), np.where((exps == 0) & (counts != 0), lengths - 1, cap).min(axis=1)


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
    every u0v0 class; the ties are the orbits of the scored survivors.  Each
    wordlength-pattern minimum is ``_min_wlp``'s, which keys only the
    candidates it can keep.  The refinement builds only the ties that
    ``_projectivity_bounds`` leaves open, checking the oracle's cap on q first.
    """
    if _check_n(n) > MAX_N:
        raise ValueError(f"n must lie in 1..{MAX_N}")
    q = family.factor_count(n)
    subject = f"{family.value} designs at n = {n} have"
    if criterion is Criterion.PROJECTIVITY:
        check_factor_cap(q, subject, " for --criterion projectivity")
    profiles = profile_array(n)
    pairs = u0v0_classes(family)
    maps = _isomorphisms(family, pairs)
    # Keys order profiles as profile_array lists them; a profile is scored
    # when its key is the smallest of its images', and scores are equal
    # across an orbit, so the extremes below are those of every candidate.
    # One exact float64 BLAS product per map (keys < 11^10 < 2^53); stacking peaks higher.
    rows, weights = profiles.astype(np.float64), (n + 1.0) ** np.arange(9, -1, -1)
    keys = rows @ weights
    scored = profiles[np.all([keys <= rows @ weights[perm] for _, perm, _ in maps], axis=0)]
    del rows
    forms = closed_forms(family, scored, pairs)
    # A key's high byte is its r, so the top r holds the largest key and every
    # least pattern: only its candidates are keyed (0, below any key, elsewhere).
    shortest = _shortest(forms)
    res = np.zeros_like(shortest)
    p, c = np.divmod(np.flatnonzero(shortest == shortest.max()), len(pairs))
    res[p, c] = _resolution_keys(forms, p, c)
    max_res = res.max()

    ma_set = _min_wlp(forms, q, shortest, np.ones(res.shape, dtype=bool))
    criteria_coincide = bool((res[ma_set] == max_res).any())

    projs = None
    if criterion is Criterion.ABERRATION:
        pool = ma_set & (res == res[ma_set].max())
    elif criterion is Criterion.RESOLUTION:
        pool = _min_wlp(forms, q, shortest, res == max_res)
    else:  # scores every representative
        projs = _projectivities(family, scored, pairs, np.ones(res.shape, dtype=bool))
        pool = _min_wlp(forms, q, shortest, projs == projs.max())
        p, c = np.divmod(np.flatnonzero(pool), len(pairs))  # may lie below the top r
        res[p, c] = _resolution_keys(forms, p, c)
        pool &= res == res[pool].max()

    # The refinement builds only the ties whose floor is below their ceiling
    # and whose ceiling reaches the best floor; the rest keep their floor.
    if with_projectivity and projs is None:
        p, c = np.divmod(np.flatnonzero(pool), len(pairs))
        projs, upper = _projectivity_bounds(forms, res, p, c, n, family)
        build = (projs < upper) & (upper >= projs.max())
        if build.any():
            check_factor_cap(q, subject, " for the projectivity refinement, which"
                             " --skip-projectivity skips,")
            built = np.zeros_like(pool)
            built[p, c] = build
            projs[build] = _projectivities(family, scored, pairs, built)[p[build], c[build]]
        pool[p, c] = projs == projs.max()

    # The ties are the orbits of the pool, in (profile, pair) index order:
    # profiles are lexicographic and pairs sorted.
    p, c = np.divmod(np.flatnonzero(pool), len(pairs))
    ties = np.sort(np.concatenate([
        np.searchsorted(keys, scored[p] @ weights[perm]) * len(pairs) + images[c]
        for _, perm, images in maps
    ]))
    ties = ties[np.diff(ties, prepend=-1) > 0]  # a plain np.unique imports numpy.ma
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
        wlp=tuple(Fraction(int(a), 2) for a in _wlp_keys(forms, q, p[:1], c[:1])[0]),
        projectivity=None if projs is None else int(projs.max()),
        criteria_coincide=criteria_coincide,
        ties=tuple(ties),
        regular_reference=_REGULAR_REFERENCE.get((family, n)),
    )


def orthogonal_array_ceiling(family: Family, n: int) -> int:
    """Highest projectivity any design of this size could have: log2 N - 1,
    that is 2n + b - 1 with b = 1 for the branched families and 0 otherwise.

    A projectivity of log2 N would need an index-one orthogonal array of
    strength log2 N on more than log2 N + 1 factors, which does not exist;
    rows attaining the ceiling have maximum projectivity among all designs,
    not just the code-derived ones.
    """
    return 2 * _check_n(n) + family.branched - 1


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
