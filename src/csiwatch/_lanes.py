"""How a pipeline stage puts work on a second core.

Each of three lanes runs on the one-thread concurrent.futures.ThreadPoolExecutor
that lane_pool makes, whose thread is named after the lane with the pool's
"_0" suffix (csiwatch-noise_0). The simulator's noise lane (csiwatch-noise)
draws each noisy stream's normals one stream ahead of the caller, in two
buffers that take turns (csi_sim.generate_trace). split_in_two runs one
callable on such a pool while the caller runs another: Hampel's halves of a
long row (csiwatch-hampel) and a long window's second half of derived
chunks (csiwatch-derive). Each lane's docstring gives its measured gain on
a one-hour night. PCA has no lane: it takes its blocks one at a time on the
caller.

No thread outlives the call that started it, and an error in the worker is
raised in the caller. A worker runs only the callables it is given; a stage
hands it private code, so that a tracer wrapping the public functions sees
every call on the caller's thread (tests/test_lanes.py checks this for every
function a csiwatch module names in __all__). The pool is imported where a
lane starts, so importing csiwatch loads no concurrent.futures.
"""

from __future__ import annotations

from collections.abc import Callable


def lane_pool(name: str):
    """A one-thread pool for the lane name; its thread, started at the first
    submit, is named name_0. Leaving its `with` block joins the thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, name)


def split_in_two(first: Callable[[], object], second: Callable[[], object],
                 name: str) -> tuple:
    """(first(), second()), with second run on the lane name's worker thread
    while the caller runs first. The worker is joined before this returns or
    raises; the caller's error wins over the worker's."""
    with lane_pool(name) as pool:
        theirs = pool.submit(second)
        mine = first()
        return mine, theirs.result()
