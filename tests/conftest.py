"""Fixtures shared by the test modules."""

import sys
import threading

import pytest


def _call_with_fast_thread_switching(calls):
    """Call each of ``calls`` on its own thread, all at once, while the
    interpreter switches threads every few microseconds; return their results
    in order. Each caller must finish within 60 s; a caller that raised gives
    None (and its exception fails the test that started it)."""
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=lambda k=k, call=call: got.__setitem__(k, call()))
                   for k, call in enumerate(calls)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return [got.get(k) for k in range(len(calls))]


@pytest.fixture
def fast_switching_callers():
    """The stress helper for the lanes: on fewer cores than callers, each
    caller with its own worker, every output must equal its oracle's."""
    return _call_with_fast_thread_switching
