"""Independent reference oracles for the J-characteristics and the CSV reader.

``j_direct`` multiplies the columns of one subset run by run.  The
character sums evaluate the paper's trigonometric sums term by term from the
generator data, with the Gray coordinates of k in Z4 taken from
``conftest.GRAY_PAIRS`` (the exact values of sqrt(2)*sin(pi/4 + pi*k/2) and
sqrt(2)*cos(pi/4 + pi*k/2)).  Neither shares code with the subset-parity
transform of ``qcdesign.oracle.j_characteristics`` that they check.
``walsh_hadamard_matrix`` and ``subset_sums_direct`` are the plain
definitions of the two in-place butterfly transforms of ``qcdesign.oracle``
(and of its float tally transform), and ``sign_patterns_bits`` the bit loop
that is the reference for ``qcdesign.oracle.sign_patterns``.
``csv_rows`` is the line-by-line CSV parser that ``qcdesign.cli`` used
before it read CSV as arrays; its acceptance and its messages are the
reference for ``design_from_csv``.  ``json_document`` is the JSON reader
that ``qcdesign.cli`` used before it read ``rows`` as bytes: ``json.loads``
of the whole text, then ``json_runs`` on the nested lists.  It is the
reference for ``document_from_json``.  ``encode_runs``, ``json_text`` and
``csv_text`` are the writers that encoded every run in one array and
returned one string: the references for the block writers
``document_to_json``, ``design_to_csv`` and ``build``.  ``profile_array`` lists the
compositions from ``itertools.combinations``, and ``optimize`` is the search
that scores every candidate, not one per isomorphism orbit, and keys the
wordlength pattern and the resolution of each, not only of those at the
longest shortest word: the references for ``qcdesign.search.profile_array``
and ``qcdesign.search.optimize``.  Its exponents come from
``exponent_tokens``, an int64 product that stores every token of every
candidate, and ``table_row`` reads one count-table row of every candidate
from them, as ``ClosedForms`` did before it kept only the class-count sums;
``resolution_keys`` and ``candidate_rows`` are the row-by-row references for
``qcdesign.search._resolution_keys`` and ``ClosedForms.words``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Sequence

import numpy as np

from conftest import GRAY_PAIRS
from qcdesign import DesignMatrix, GeneratorSpec, build_design
from qcdesign.cli import (
    _CSV_RUN,
    _JSON_RUN,
    SCHEMA,
    DesignDocument,
    MismatchError,
    UsageError,
    _pair_text,
    _validate_metrics_payload,
)
from qcdesign.oracle import check_factor_cap
from qcdesign.qc_core import Family, GeneratorProfile
from qcdesign.search import _REGULAR_REFERENCE, MAX_N, Criterion, SearchResult, _projectivities
from qcdesign.spectrum import spectrum_metrics
from qcdesign.theory import (
    _ONE, _T1, _T2, _TOKENS, _W, _W0, _X, ClosedForms, _indicators, closed_forms,
    family_spectrum, normalize_u0v0, u0v0_classes,
)

_G1 = tuple(GRAY_PAIRS[k][0] for k in range(4))
_G2 = tuple(GRAY_PAIRS[k][1] for k in range(4))


def j_direct(design: DesignMatrix, labels: Iterable[str]) -> int:
    """Direct row-by-row product sum over one column subset."""
    idx = [design.columns.index(label) for label in labels]
    if not idx:
        raise ValueError("subset must be nonempty")
    return int(design.rows[:, idx].prod(axis=1, dtype=np.int64).sum())


def sign_patterns_bits(rows: np.ndarray) -> np.ndarray:
    """The q-bit pattern of each run of the (..., N, q) ``rows``, one bit-OR
    per column (bit i set where column i is -1): the loop that
    ``qcdesign.oracle.sign_patterns`` ran before it became one product."""
    negative = rows < 0
    patterns = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(rows.shape[-1]):
        patterns |= negative[..., i].astype(np.int64) << i
    return patterns


def walsh_hadamard_matrix(a: np.ndarray) -> np.ndarray:
    """The Sylvester transform over the last axis as explicit products with
    the +1/-1 matrices H_k[s, p] = (-1)^popcount(s & p) of order 2^k, in
    int64.  H_(i+j) is the Kronecker product of H_i and H_j, so each row,
    laid out as a 2^i x 2^j matrix X, goes to H_i X H_j, and rows of 2^k
    entries need matrices of order 2^ceil(k/2) at most."""
    k = a.shape[-1].bit_length() - 1

    def sylvester(order: int) -> np.ndarray:
        index = np.arange(1 << order)
        return 1 - 2 * (np.bitwise_count(index[:, None] & index[None, :]) & 1).astype(np.int64)

    x = a.astype(np.int64).reshape(*a.shape[:-1], 1 << k // 2, 1 << k - k // 2)
    return (sylvester(k // 2) @ x @ sylvester(k - k // 2)).reshape(a.shape)


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


def json_runs(rows, q: int) -> np.ndarray:
    """JSON ``rows``: a list per run of q entries, each the integer 1 or -1."""
    if type(rows) is not list or set(map(type, rows)) - {list}:
        raise UsageError("JSON rows must be a list of runs, each a list of entries")
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    if np.any(widths != q):
        run = np.argmax(widths != q)
        raise UsageError(f"JSON run {run + 1} has {widths[run]} entries for {q} columns")
    try:  # type() tells true from 1; np.array alone would also take 1.5 and "1"
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            values = np.array(rows, dtype=np.int8)
            if np.all(np.abs(values) == 1):
                return values
    except OverflowError:  # an integer beyond int8
        pass
    bad = next(x for x in chain.from_iterable(rows) if type(x) is not int or abs(x) != 1)
    raise UsageError(f"JSON entries must be the integers 1 and -1, got {json.dumps(bad)}")


def json_document(text: str) -> DesignDocument:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise UsageError("a design document must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise UsageError(f"unsupported schema {payload.get('schema')!r}")
    columns = payload["columns"]
    if type(columns) is not list or set(map(type, columns)) - {str}:
        raise UsageError("JSON columns must be a list of strings")
    design = DesignMatrix(tuple(columns), json_runs(payload["rows"], len(columns)))
    if design.n_runs != payload["n_runs"] or design.n_factors != payload["n_factors"]:
        raise UsageError("document run/factor counts disagree with the rows")
    spec = None
    if payload.get("family"):
        pair = normalize_u0v0(payload["u0v0"]) if payload.get("u0v0") else (None, None)
        spec = GeneratorSpec(Family.from_label(payload["family"]), payload["n"],
                             tuple(payload["u"]), tuple(payload["v"]), *pair)
        rebuilt = design.n_runs == spec.family.run_count(spec.n) and build_design(spec)
        if not (rebuilt and np.array_equal(rebuilt.rows, design.rows)):
            raise MismatchError("the rows differ from a rebuild of the generator fields")
    metrics = payload.get("metrics")
    if metrics is not None:
        metrics = _validate_metrics_payload(metrics)
    return DesignDocument(spec, design, metrics)


def encode_runs(rows: np.ndarray, head: bytes, tail: bytes) -> str:
    """Each run as ``head``, its entries as ``1``/``-1`` joined by commas,
    then ``tail``.  Each entry is a three-byte cell (0 or ``-``, ``1``,
    ``,``) of one uint8 buffer; a run's last comma and the zeros are cut."""
    n, q = rows.shape
    cells = np.empty((n, q, 3), np.uint8)
    cells[:, :, 0] = (rows < 0).view(np.uint8) * ord("-")
    cells[:, :, 1] = ord("1")
    cells[:, :, 2] = ord(",")
    edge = [np.broadcast_to(np.frombuffer(b, np.uint8), (n, len(b))) for b in (head, tail)]
    lines = np.concatenate([edge[0], cells.reshape(n, 3 * q)[:, :-1], edge[1]], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def json_text(doc: DesignDocument) -> str:
    spec = doc.spec
    payload = {
        "schema": SCHEMA,
        "family": spec.family.value if spec else None,
        "n": spec.n if spec else None,
        "u": list(spec.u) if spec else None,
        "v": list(spec.v) if spec else None,
        "u0v0": _pair_text(spec.u0v0) if spec else None,
        "n_runs": doc.design.n_runs,
        "n_factors": doc.design.n_factors,
        "columns": list(doc.design.columns),
        "rows": [],
        "metrics": doc.metrics,
    }
    text = json.dumps(payload, indent=2)
    if doc.design.n_runs:  # one run per line; quotes in earlier values are escaped
        runs = encode_runs(doc.design.rows, *_JSON_RUN)
        text = text.replace('"rows": []', f'"rows": [\n{runs[:-2]}\n  ]', 1)
    return text + "\n"


def csv_text(design: DesignMatrix) -> str:
    return ",".join(design.columns) + "\n" + encode_runs(design.rows, *_CSV_RUN)


def profile_array(n: int) -> np.ndarray:
    """The C(n+9, 9) compositions of n into ten counts, int16, in
    lexicographic order: row i places nine bars among n + 9 slots (the i-th
    9-subset in lexicographic order), and the counts are the gaps."""
    bars = np.array(list(combinations(range(n + 9), 9)), dtype=np.int16)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + 9))
    return np.diff(edges, axis=1) - 1


def exponent_tokens(counts: np.ndarray, pairs: Sequence) -> np.ndarray:
    """(profiles, pairs, tokens) int16 exponents of the count-table tokens
    in ``theory._TOKENS`` order, from an int64 product: theta1, theta2 and
    omega halve one class-count sum plus the pair's indicator each, omega0
    adds the halved omega1 and omega2, and the unit token is 0."""
    sums = np.asarray(counts, dtype=np.int64).reshape(-1, 10) @ _X.astype(np.int64)
    shifts = []
    for pair in pairs:
        d1, d2, e1, e2 = _indicators(pair or (0, 0))
        shifts.append((d1, d2, e1, e2, e1 + e2 + 1))
    g = (sums[:, None, :] + np.array(shifts, dtype=np.int64)) // 2
    token = {_T1: g[..., 0], _T2: g[..., 1], _ONE: 0 * g[..., 0],
             _W0: g[..., 2] + g[..., 3], _W: g[..., 4]}
    return np.stack([token[name] for name in _TOKENS], axis=-1).astype(np.int16)


def table_row(
    forms: ClosedForms, tokens: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths (profiles,), exponents and doubled weights (profiles, pairs)
    of count-table row r of every candidate."""
    return forms.lengths[:, r], tokens[:, :, forms.table.token[r]], _row_weights(forms, r)


def _row_weights(forms: ClosedForms, r: int) -> np.ndarray:
    """Doubled weights (profiles, pairs) of count-table row r."""
    return np.take(forms.table.weights[:, :, r], forms.gates, axis=0)


def resolution_keys(forms: ClosedForms, tokens: np.ndarray) -> np.ndarray:
    """Keys r << 8 | e of every candidate, (profiles, pairs) int64: the least
    length << 8 | e over the rows with a nonzero weight, row by row."""
    keys = np.full(tokens.shape[:2], np.iinfo(np.int64).max)
    for r in range(forms.lengths.shape[1]):
        lengths, exps, weights = table_row(forms, tokens, r)
        row_keys = lengths[:, None].astype(np.int64) << 8 | exps
        keys = np.minimum(keys, np.where(weights != 0, row_keys, keys))
    return keys


def candidate_rows(
    forms: ClosedForms, tokens: np.ndarray, p: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths, exponents and doubled weights of every row of the candidates
    (p[i], c[i]), (candidates, rows) int64, gathered row by row."""
    rows = [table_row(forms, tokens, r) for r in range(forms.lengths.shape[1])]
    lengths, exps, weights = zip(*((a[p], e[p, c], w[p, c]) for a, e, w in rows))
    return tuple(np.stack(x, axis=1).astype(np.int64) for x in (lengths, exps, weights))


def _wlp_keys(forms: ClosedForms, q: int) -> np.ndarray:
    """Doubled wordlength patterns of every candidate, (profiles, q, pairs)
    int8: entry [p, k - 1, c] sums the doubled weights of the rows of
    length k."""
    n_profiles, n_pairs = len(forms.gates), len(forms.shifts)
    wlp = np.zeros((n_profiles, q + 1, n_pairs), dtype=np.int8)
    profiles = np.arange(n_profiles)
    for r in range(forms.lengths.shape[1]):
        wlp[profiles, forms.lengths[:, r]] += _row_weights(forms, r)
    return wlp[:, 1:, :]


def _min_wlp(wlp_keys: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The candidates of ``alive`` with the lexicographically smallest
    wordlength pattern among them, filtered one length at a time."""
    for k in range(wlp_keys.shape[1]):
        column = wlp_keys[:, k, :]
        alive = alive & (column == column[alive].min())
    return alive


def optimize(
    n: int, family: Family, criterion: Criterion, with_projectivity: bool = True
) -> SearchResult:
    """``qcdesign.search.optimize`` scoring every (profile, u0v0 class), with
    the full wordlength pattern of every candidate keyed and minimised."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in 1..{MAX_N}")
    q = family.factor_count(n)
    if criterion is Criterion.PROJECTIVITY or with_projectivity:
        check_factor_cap(q)
    profiles = profile_array(n)
    pairs = u0v0_classes(family)
    forms = closed_forms(family, profiles, pairs)
    wlp_keys = _wlp_keys(forms, q)
    res = resolution_keys(forms, exponent_tokens(profiles, pairs))

    ma_set = _min_wlp(wlp_keys, np.ones(res.shape, dtype=bool))
    max_res = res.max()
    criteria_coincide = bool((res[ma_set] == max_res).any())

    projs = None
    if criterion is Criterion.ABERRATION:
        pool = ma_set & (res == res[ma_set].max())
    elif criterion is Criterion.RESOLUTION:
        pool = _min_wlp(wlp_keys, res == max_res)
    else:
        projs = _projectivities(family, profiles, pairs, np.ones(res.shape, dtype=bool))
        pool = _min_wlp(wlp_keys, projs == projs.max())
        pool &= res == res[pool].max()
    if with_projectivity and projs is None:
        projs = _projectivities(family, profiles, pairs, pool)
        pool &= projs == projs.max()

    ties = [
        (GeneratorProfile(tuple(profiles[p].tolist())), pairs[c])
        for p, c in zip(*np.nonzero(pool))
    ]
    resolution, wlp = spectrum_metrics(family_spectrum(family, *ties[0]), q)
    return SearchResult(
        family=family,
        n=n,
        criterion=criterion,
        profile=ties[0][0],
        u0v0=ties[0][1],
        resolution=resolution,
        wlp=wlp,
        projectivity=None if projs is None else int(projs.max()),
        criteria_coincide=criteria_coincide,
        ties=tuple(ties),
        regular_reference=_REGULAR_REFERENCE.get((family, n)),
    )
