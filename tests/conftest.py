"""Shared test helpers, kept deliberately independent of the library paths.

``reference_rows`` re-derives a design run by run with plain Python loops
and the Gray-map substitution table; it shares no code with the vectorized
builder it checks.  ``compositions_count`` counts integer compositions
recursively as an independent enumeration oracle.  ``scan_level_full`` and
``scan_projectivity`` answer projectivity questions with the sort-based
projection scan, an algorithm independent of the J-table path that the
library's ``projectivity`` takes.  ``drop_column`` deletes one column, which
is how an eighth fraction is read off its parent sixteenth.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from qcdesign import DesignMatrix, Family, GeneratorSpec
from qcdesign.oracle import _distinct_patterns, _first_deficient

GRAY_PAIRS = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}


def reference_rows(spec: GeneratorSpec) -> list[list[int]]:
    """Evaluate every run of a design directly from the generator data."""
    rows = []
    branch_values = (0, 1) if spec.family.branched else (0,)
    for a0 in branch_values:
        for a in product(range(4), repeat=spec.n):
            t_u = sum(x * y for x, y in zip(a, spec.u))
            t_v = sum(x * y for x, y in zip(a, spec.v))
            if spec.family.branched:
                t_u += spec.u0 * a0
                t_v += spec.v0 * a0
            row = list(GRAY_PAIRS[t_u % 4]) + list(GRAY_PAIRS[t_v % 4])
            if spec.family.drops_first_check:
                row = row[1:]
            if spec.family.branched:
                row.append(1 if a0 == 0 else -1)
            for aj in a:
                row.extend(GRAY_PAIRS[aj])
            rows.append(row)
    return rows


def drop_column(design: DesignMatrix, label: str) -> DesignMatrix:
    """The design without the named column."""
    i = design.columns.index(label)
    columns = design.columns[:i] + design.columns[i + 1 :]
    return DesignMatrix(columns, np.delete(design.rows, i, axis=1))


def compositions_count(n: int, parts: int) -> int:
    """Count compositions of n into `parts` nonnegative parts, recursively."""
    if parts == 1:
        return 1
    return sum(compositions_count(n - first, parts - 1) for first in range(n + 1))


#: The scan sorts every projection of every p-subset; beyond this q it is slow.
SCAN_MAX_FACTORS = 14


def scan_level_full(design: DesignMatrix, p: int) -> bool:
    """Every p-column projection holds all 2^p level combos, by sorting."""
    q = design.n_factors
    if q > SCAN_MAX_FACTORS:
        raise ValueError(f"the projection scan is limited to q <= {SCAN_MAX_FACTORS}")
    patterns = _distinct_patterns(design)
    return _first_deficient(patterns, q, p, chunk_elems=1 << 18) is None


def scan_projectivity(design: DesignMatrix) -> int:
    q = design.n_factors
    return next((p - 1 for p in range(1, q + 1) if not scan_level_full(design, p)), q)
