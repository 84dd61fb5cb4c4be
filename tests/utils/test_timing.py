"""Timer context manager."""

import time

import pytest

from repro.utils.timing import Timer


def test_elapsed_nonnegative():
    with Timer() as t:
        pass
    assert t.elapsed >= 0.0


def test_elapsed_measures_sleep():
    with Timer() as t:
        time.sleep(0.02)
    assert t.elapsed >= 0.015


def test_reusable():
    t = Timer()
    with t:
        pass
    first = t.elapsed
    with t:
        time.sleep(0.01)
    assert t.elapsed >= 0.008
    assert t.elapsed != first or first > 0


def test_exit_without_enter_raises():
    with pytest.raises(RuntimeError, match="never started"):
        Timer().__exit__(None, None, None)

