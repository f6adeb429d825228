"""Host-speed probe: how fast this shared host runs Python right now.

The benchmark runs on a few cores of a host shared with other
tenants.  Their load does not steal CPU time from this process; it
slows the CPU it runs on (the process's CPU time tracks its wall
time), in bursts that last from a fraction of a second to tens of
seconds.  Medians over a whole run do not average that out: in one
60 s run on a 2-vCPU Xeon VM, 5 s medians of the same ``tpch_warm``
request loop read from 14.3 to 39.9 ms.

So the benchmark times a fixed task, :func:`probe_ms`, between
requests and around set-ups, and reports every time scaled to a
fixed host speed: ``ms * REFERENCE_MS / probe``, where ``probe`` is
the median of the probes around the timed work.  The task allocates
small objects, fills a dict and sorts, as the program's own hot paths
do.  Planning one fixed statement 850 times in 90 s on that VM, with
a probe either side of each planning, the medians of ten plannings in
a row spread 0.41 (interquartile range over median) unscaled, 0.17
scaled by a pure arithmetic loop, and 0.03 scaled by this task.

The task runs with the garbage collector off, so its time does not
depend on how large the program's heap is, and is timed in the
calling thread's CPU time, so a thread waiting for the GIL or for a
CPU does not count as a slow host.
"""

from __future__ import annotations

import gc
import statistics
import time

#: the probe's time, in ms, on the host speed every scaled figure
#: refers to: about its median on a quiet 2-vCPU Xeon VM
REFERENCE_MS = 1.1

#: probes each side of a request whose median scales it
WINDOW = 3


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def probe_ms() -> float:
    """CPU time of one fixed allocate/hash/sort task, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        table = {}
        for i in range(1500):
            item = _Item(i, str(i))
            table[(i % 97, item.name)] = item
        ordered = sorted(table.values(), key=lambda it: (it.key % 13, it.name))
        sum(it.key for it in ordered if it.key & 1)
        return (time.thread_time() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def burst() -> list[float]:
    """:data:`WINDOW` probes back to back."""
    return [probe_ms() for _ in range(WINDOW)]


def scale(probes: list[float]) -> float:
    """The factor that brings work timed among ``probes`` to the reference."""
    return REFERENCE_MS / statistics.median(probes)


def scales(probes: list[float], count: int) -> list[float]:
    """Scale factors for ``count`` timed pieces of work in a row.

    ``probes[i]`` was taken just before piece ``i`` and
    ``probes[i + 1]`` just after it, so ``len(probes) == count + 1``.
    Piece ``i`` is scaled by the :data:`WINDOW` probes each side of it.
    """
    return [
        scale(probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i in range(count)
    ]
