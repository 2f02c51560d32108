"""The worker protocol every stage that uses a second core goes through."""

import threading

import pytest

from csiwatch._lanes import split_in_two


def fail(message):
    raise FloatingPointError(message)


class TestSplitInTwo:
    def test_returns_both_results_second_from_the_named_worker(self):
        before = threading.active_count()
        caller = threading.current_thread().name
        got = split_in_two(lambda: ("first", threading.current_thread().name),
                           lambda: ("second", threading.current_thread().name), "csiwatch-test")
        assert got == (("first", caller), ("second", "csiwatch-test"))
        assert threading.active_count() == before

    def test_worker_error_raised_in_caller(self):
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^worker failed$"):
            split_in_two(lambda: 1, lambda: fail("worker failed"), "csiwatch-test")
        assert threading.active_count() == before

    def test_caller_error_wins_when_both_fail(self):
        # the caller fails only once the worker has failed
        worker_failed = threading.Event()

        def second():
            worker_failed.set()
            fail("worker failed")

        def first():
            assert worker_failed.wait(timeout=60)
            fail("caller failed")

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^caller failed$"):
            split_in_two(first, second, "csiwatch-test")
        assert threading.active_count() == before
