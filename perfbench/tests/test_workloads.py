"""A failed check or a raising command counts as a failed operation and the
pass goes on; the program is the checkout's ``src/qcdesign``.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from qcdesign import cli  # noqa: E402

from workloads import Operation, check_identical, check_verify, expect_exit, run_pass  # noqa: E402

BOUND = ("bound", "--family", "sixteenth-even", "--n", "2")


def _bound_output() -> str:
    [result] = run_pass(cli, [Operation(BOUND, lambda code, out: expect_exit(code))])
    assert result.failure is None
    return result.stdout


def test_wrong_expected_output_counts_as_failure_and_the_pass_goes_on():
    right = _bound_output()
    ops = [
        Operation(BOUND, check_identical(right)),
        Operation(BOUND, check_identical(right + "something else\n")),
        # q = 8 is above a cap of 4: the oracle raises out of cli.main.
        Operation(("spectrum", "--family", "sixteenth-even", "--n", "2", "--u", "0,1",
                   "--v", "1,1", "--method", "oracle", "--max-factors", "4"),
                  check_identical("")),
        Operation(("verify", "--n-max", "1", "--families", "sixteenth-even"),
                  check_verify(999)),
        Operation(BOUND, check_identical(right)),
    ]
    results = run_pass(cli, ops)
    failed = [r for r in results if r.failure is not None]
    assert len(results) == 5
    assert len(failed) == 3
    assert "differs from the reference" in results[1].failure
    assert "raised" in results[2].failure and "above the cap" in results[2].failure
    assert "verified 999 designs" in results[3].failure
    assert results[4].failure is None
    assert all(r.seconds > 0 for r in results)
