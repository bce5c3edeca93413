"""Regenerate the benchmark's reference outputs from the current program.

Run from the repository root at the commit whose outputs are the reference
(the reference files in ``perfbench/reference`` were made this way at the
seed commit):

    python3 perfbench/make_reference.py

It writes the exhaustive ``verify`` design count, the ``search`` JSON the
``search-n8`` workload must reproduce byte for byte, and the design pools
that ``oracle-docs`` draws from, each design with its oracle spectrum and,
where measured, its projectivity.  It takes a few minutes.
"""

from __future__ import annotations

import io
import json
import random
import re
import statistics
import sys
from contextlib import redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from qcdesign import cli  # noqa: E402
from qcdesign.oracle import (  # noqa: E402
    _distinct_patterns,
    _first_deficient,
    projectivity,
    spectrum_bruteforce,
)
from qcdesign.qc_core import Family, GeneratorProfile, build_design, spec_for  # noqa: E402
from qcdesign.search import enumerate_profiles, u0v0_classes  # noqa: E402
from qcdesign.spectrum import spectrum_metrics  # noqa: E402
from qcdesign.theory import family_spectrum  # noqa: E402

from workloads import REFERENCE, SEARCH_COMMANDS  # noqa: E402

POOL = 6

#: (family, n, projectivity every pool member must have, or None when the
#: workload skips projectivity at this size).  Eighth fractions at n = 6
#: (q = 15, 16) with projectivity 7 and 9 take about 1 s and 5 s to scan;
#: sixteenth-odd at n = 6 is left out because its q = 17 scan takes ~12 s.
SIZES = (
    ("eighth-even", 6, 7),
    ("eighth-odd", 6, 9),
    ("sixteenth-odd", 7, None),
    ("sixteenth-even", 8, None),
)


def capture(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def spectrum_entries(design) -> list[list]:
    return [[e.length, str(e.ai), e.count] for e in spectrum_bruteforce(design)]


def candidates(family: Family, n: int, rng: random.Random):
    """(profile, u0v0) pairs, highest closed-form resolution first."""
    q = family.factor_count(n)
    pairs = u0v0_classes(family) if family.branched else (None,)
    scored = []
    for profile in enumerate_profiles(n):
        for pair in pairs:
            resolution, _ = spectrum_metrics(family_spectrum(family, profile, pair), q)
            scored.append((resolution, rng.random(), profile, pair))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [(profile, pair) for _, _, profile, pair in scored]


def random_candidates(family: Family, n: int, rng: random.Random):
    while True:
        counts = [0] * 10
        for _ in range(n):
            counts[rng.randrange(10)] += 1
        pair = rng.choice(u0v0_classes(family)) if family.branched else None
        yield GeneratorProfile(tuple(counts)), pair


def entry(profile, pair, design, proj) -> dict:
    return {
        "profile": profile.digits,
        "u0v0": None if pair is None else f"{pair[0]}{pair[1]}",
        "projectivity": proj,
        "spectrum": spectrum_entries(design),
    }


def scan_work(design, proj: int) -> int:
    """Projections the oracle examines: every one of size <= proj, then
    those of size proj + 1 up to and including the first deficient one."""
    q = design.n_factors
    full = sum(comb(q, p) for p in range(1, proj + 1))
    if proj == q:
        return full
    hit = _first_deficient(_distinct_patterns(design), q, proj + 1)
    return full + 1 + next(i for i, c in enumerate(combinations(range(q), proj + 1)) if c == hit)


def projectivity_pool(family: Family, n: int, target: int, rng: random.Random) -> list[dict]:
    """POOL designs with the target projectivity and nearly equal scan work.

    Of twice POOL matching designs, the POOL whose scan work is closest to
    their median are kept, so that the seed changes which designs a pass
    runs, not how much work it holds.
    """
    found = []
    for profile, pair in candidates(family, n, rng):
        design = build_design(spec_for(family, profile, pair))
        proj = projectivity(design)
        if proj == target:
            work = scan_work(design, proj)
            found.append((work, entry(profile, pair, design, proj)))
            print(f"  {family.value} {profile.digits} {pair} work {work}", flush=True)
        if len(found) == 2 * POOL:
            break
    middle = statistics.median(w for w, _ in found)
    found.sort(key=lambda f: abs(f[0] - middle))
    return [e for _, e in found[:POOL]]


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    verified = capture(["verify", "--n-max", "3"])
    count = int(re.search(r"verified (\d+) designs", verified).group(1))
    (REFERENCE / "expected.json").write_text(
        json.dumps({"verify_exhaustive": count}, indent=2) + "\n"
    )
    for name, argv in SEARCH_COMMANDS:
        (REFERENCE / name).write_text(capture(list(argv)))
    rng = random.Random(20110512)
    sizes = []
    for label, n, target in SIZES:
        family = Family.from_label(label)
        if target is None:
            pool, seen = [], set()
            for profile, pair in random_candidates(family, n, rng):
                if (profile, pair) in seen:
                    continue
                seen.add((profile, pair))
                pool.append(entry(profile, pair, build_design(spec_for(family, profile, pair)), None))
                if len(pool) == POOL:
                    break
        else:
            pool = projectivity_pool(family, n, target, rng)
        sizes.append({
            "family": label,
            "n": n,
            "q": family.factor_count(n),
            "projectivity": target is not None,
            "pool": pool,
        })
    (REFERENCE / "oracle_docs.json").write_text(
        json.dumps({"sizes": sizes}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
