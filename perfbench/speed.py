"""Sample the CPU's speed while the measured code runs, to scale its times.

On a shared host a vCPU can run the same code up to ~1.75 times slower for
seconds at a time, when the host's other work competes for its core. The
slowdown is per vCPU and affects CPU time as much as wall time. A fixed
reference kernel, timed on the same CPU and at the same moments as the
measured code, shows how fast that CPU ran.

`start` arms a SIGPROF timer (every INTERVAL_S of CPU time). Its handler
runs the reference kernel, times it in thread CPU time, and adds
REF_NS / kernel ns (this CPU's speed against the reference) to the slot of
the process. Pool workers forked after `start` re-arm the timer and write
their own slot of a shared mapping, so one `totals()` call covers the
process and every worker it forked. A time scaled by the mean speed over
its interval is the time the code would have taken at the reference speed.

The kernel pushes and pops 300 (float, int) tuples on a heap: allocation,
tuple comparison and C calls, as in edsim's event calendar. Over repeated
`edsim run` commands the command's time scaled as this kernel's time to the
power 0.95-0.98 (between -0.3 and 1.96 for a plain integer loop or for list
and dict lookups), so the scaled time keeps little of the host's state.
"""

from __future__ import annotations

import heapq
import mmap
import os
import random
import signal
import struct
import time

INTERVAL_S = 0.02
REF_NS = 250_000  # kernel time at the reference speed: its median in edsim commands on a 2.1 GHz Xeon vCPU
SLOTS = 4096  # processes that can record: this one and the workers it forks
_SLOT = struct.Struct("dd")  # sum of speeds, samples

_KEYS = [random.Random(0).random() for _ in range(300)]
_shared: mmap.mmap | None = None
_slot = 0
_forks = 0
_running = False


def _kernel() -> None:
    heap: list = []
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)


def _on_tick(signum, frame) -> None:
    if not _running:  # a tick delivered after `stop`
        return
    began = time.thread_time_ns()
    _kernel()
    ns = max(1, time.thread_time_ns() - began)
    offset = _slot * _SLOT.size
    total, samples = _SLOT.unpack_from(_shared, offset)
    _SLOT.pack_into(_shared, offset, total + REF_NS / ns, samples + 1)


def _before_fork() -> None:
    global _forks
    _forks += 1


def _after_fork_in_child() -> None:
    global _slot
    if _running:
        _slot = min(_forks, SLOTS - 1)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def start() -> None:
    """Sample this process, and the workers it forks until `stop`."""
    global _shared, _slot, _forks, _running
    if _shared is None:
        os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
    _shared = mmap.mmap(-1, SLOTS * _SLOT.size)  # anonymous, shared with forked children
    _slot = _forks = 0
    _running = True
    signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Stop sampling; `totals` still reads what was sampled."""
    global _running
    _running = False
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def totals() -> tuple[float, int]:
    """Sum of speed samples and their number so far, over every process."""
    total = samples = 0.0
    for offset in range(0, (min(_forks, SLOTS - 1) + 1) * _SLOT.size, _SLOT.size):
        t, n = _SLOT.unpack_from(_shared, offset)
        total += t
        samples += n
    return total, int(samples)


def mean_speed(before: tuple[float, int], after: tuple[float, int]) -> float:
    """Mean speed against the reference between two `totals()` readings."""
    samples = after[1] - before[1]
    return (after[0] - before[0]) / samples if samples else 1.0
