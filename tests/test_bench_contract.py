"""The benchmark's tracer contract, checked on every test run.

`perfbench/run.py --trace 1` wraps library functions by name and binds some
of their arguments by parameter name, and it runs `perfbench/selftest.py`'s
checks first; a library change that breaks either fails every traced
benchmark run.  These tests run the same checks, importing perfbench/ and
changing nothing in it.
"""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def selftest():
    sys.path.insert(0, str(PERFBENCH))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        import selftest

        yield selftest
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "check", ["check_self_times_toy", "check_wrapping_complete", "check_traced_bytes_equal"]
)
def test_selftest_check_passes(selftest, check):
    assert getattr(selftest, check)() == ""
