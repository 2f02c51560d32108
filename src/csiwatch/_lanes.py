"""How a pipeline stage puts work on a second core.

OneAhead makes a sequence of items on a worker thread, in order and at most
one item ahead of the caller, in two buffers that take turns: the
simulator's noise draws (csiwatch-noise) and PCA's odd batches of blocks
(csiwatch-pca). split_in_two is a OneAhead of one item, made while the
caller runs other work: Hampel's halves of a long row (csiwatch-hampel),
ED's low bins (csiwatch-ed), and a long window's second half of derived
chunks, then half of its phase unwraps (csiwatch-derive).

No thread outlives the call that started it, and an error in the worker is
raised in the caller. A worker runs only the callables it is given; a stage
hands it private code, so that a tracer wrapping the public functions sees
every call on the caller's thread (tests/test_lanes.py checks this for every
function a csiwatch module names in __all__).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence


def split_in_two(first: Callable[[], object], second: Callable[[], object],
                 name: str) -> tuple:
    """(first(), second()), with second run on a worker thread called name
    while the caller runs first. The worker is joined before this returns
    or raises; the caller's error wins over the worker's."""
    with OneAhead(lambda _k, out: out.append(second()), 1, [[]], name) as ahead:
        mine = first()
        return mine, ahead.take()[0]


class OneAhead:
    """Items 0 to n_items - 1, made on a worker thread in order, at most one
    item ahead of the caller.

    make(k, buffer) writes item k into buffers[k % 2]. Within `with`, the
    caller takes the items in turn; taking one hands back the buffer of the
    one before, so the caller must be done with an item when it takes the
    next. The caller must not touch what make reads or writes meanwhile. An
    error in the worker is raised by take. Leaving the block stops and joins
    the worker. With no item, no thread starts.
    """

    def __init__(self, make: Callable[[int, object], None], n_items: int,
                 buffers: Sequence, name: str):
        self._make = make
        self._buffers = buffers
        self._filled = threading.Semaphore(0)
        self._free = threading.Semaphore(2)
        self._stopping = False
        self._error: BaseException | None = None
        self._taken = 0
        self._thread = threading.Thread(
            target=self._run, args=(n_items,), name=name
        ) if n_items else None

    def _run(self, n_items: int) -> None:
        try:
            for k in range(n_items):
                self._free.acquire()
                if self._stopping:
                    return
                self._make(k, self._buffers[k % 2])
                self._filled.release()
        except BaseException as exc:  # raised again by the caller's take
            self._error = exc
            self._filled.release()

    def __enter__(self) -> OneAhead:
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._stopping = True
            self._free.release()
            self._thread.join()

    def take(self):
        """The next item's buffer."""
        if self._taken:
            self._free.release()
        self._filled.acquire()
        if self._error is not None:
            raise self._error
        item = self._buffers[self._taken % 2]
        self._taken += 1
        return item
