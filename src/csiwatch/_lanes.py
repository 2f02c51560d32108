"""How a pipeline stage puts work on a second core.

Three lanes each run on a one-thread concurrent.futures.ThreadPoolExecutor.
OneAhead makes a sequence of items in order, at most one ahead of the
caller, in two buffers that take turns: the simulator's noise draws
(csiwatch-noise). split_in_two runs one callable on such a pool while the
caller runs another: Hampel's halves of a long row (csiwatch-hampel) and a
long window's second half of derived chunks (csiwatch-derive). A pool names
its thread after the lane, with the pool's "_0" suffix (csiwatch-noise_0).
Each lane's docstring gives its measured gain on a one-hour night. PCA has
no lane: its batch worker gained least there and held two more batch
buffers at the pipeline's memory peak.

No thread outlives the call that started it, and an error in the worker is
raised in the caller. A worker runs only the callables it is given; a stage
hands it private code, so that a tracer wrapping the public functions sees
every call on the caller's thread (tests/test_lanes.py checks this for every
function a csiwatch module names in __all__). The pool is imported where a
lane starts, so importing csiwatch loads no concurrent.futures.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence


def split_in_two(first: Callable[[], object], second: Callable[[], object],
                 name: str) -> tuple:
    """(first(), second()), with second run on a worker thread named after
    name while the caller runs first. The worker is joined before this
    returns or raises; the caller's error wins over the worker's."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, name) as pool:
        theirs = pool.submit(second)
        mine = first()
        return mine, theirs.result()


class OneAhead:
    """Items 0 to n_items - 1, made on a worker thread in order, at most one
    item ahead of the caller.

    make(k, buffer) writes item k into buffers[k % 2]. Within `with`, the
    caller takes the items in turn; taking item k hands item k - 1's buffer
    to item k + 1, so the caller must be done with an item when it takes the
    next. The caller must not touch what make reads or writes meanwhile. An
    error in the worker is raised by take; after it, at most one item
    already handed to the worker may still run. Leaving the block cancels
    the items not yet started and joins the worker. With no item, no thread
    starts.
    """

    def __init__(self, make: Callable[[int, object], None], n_items: int,
                 buffers: Sequence, name: str):
        self._make = make
        self._n_items = n_items
        self._buffers = buffers
        self._name = name
        self._pool = None
        self._futures = [None, None]  # item k's future at k % 2, as its buffer
        self._taken = 0

    def _submit(self, k: int) -> None:
        self._futures[k % 2] = self._pool.submit(self._make, k, self._buffers[k % 2])

    def __enter__(self) -> OneAhead:
        if self._n_items:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(1, self._name)
            for k in range(min(self._n_items, 2)):
                self._submit(k)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def take(self):
        """The next item's buffer."""
        k = self._taken
        if 0 < k < self._n_items - 1:
            self._submit(k + 1)
        self._futures[k % 2].result()
        self._taken += 1
        return self._buffers[k % 2]
