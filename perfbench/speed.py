"""How fast the machine runs during a measurement.

The shared machine's speed drifts by up to 1.7x over seconds to
minutes, for every process alike. :class:`SpeedProbe` times fixed
slices of work that call no code under test; :meth:`SpeedProbe.factor`
is the reference slice time over the mean measured one, and times are
reported multiplied by it, i.e. as they would read at reference speed.
This module imports nothing from the code under test, so a set-up can
be probed before it imports it.

Two kinds of slice are used, since the machine's slow spells slow
different work by different amounts: :func:`compute_slice` (dict and
string work) next to analysis ops, and :func:`load_slice` (what an
import does) next to a fresh interpreter's imports: over 24 fresh
interpreters' set-ups, the load-slice factor cut the variation of the
set-up time from 20% to 6%, while compute slices had raised it in an
earlier trial.
"""

from __future__ import annotations

import bisect
import gc
import marshal
import statistics
import threading
import time
from pathlib import Path

#: Wall seconds of one slice of each kind on the reference machine (the
#: 2-vCPU machine the bounds were tuned on, when it ran at full speed).
COMPUTE_REFERENCE_S = 0.0009
LOAD_REFERENCE_S = 0.00036
#: Slices longer than this many times the median slice are dropped.
OUTLIER_RATIO = 3.0
#: The slices nearest an op's end whose mean gives its speed factor.
LOCAL_SLICES = 24

_LOAD_CODE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n"
    f"    x = {i}\n"
    f"    def __init__(self, a, b={i}):\n"
    f"        self.a, self.b = a, b\n"
    f"    def m(self, y):\n"
    f"        return [self.a + y + k for k in range(3)]\n"
    f"def f{i}(a, *args, **kw):\n"
    f"    return {{'k': a, 'n': len(args), **kw}}\n"
    f"T{i} = tuple(range({i % 7}))\n"
    for i in range(30)
), "<speed-probe>", "exec"))


def compute_slice() -> None:
    table: dict[int, int] = {}
    for i in range(6000):
        key = i % 211
        table[key] = table.get(key, 0) + len(str(i))


def load_slice() -> None:
    """Read a source file, unmarshal a module's code and run its body.
    The classes it defines are cyclic garbage: collect before timing
    anything after these slices."""
    Path(__file__).read_bytes()
    exec(marshal.loads(_LOAD_CODE), {"__name__": "speed_probe"})


class SpeedProbe:
    """Slice timings of one measurement.

    The slow spells of the shared machine are often shorter than the
    time between two slices, and an op's time adds up whatever spells
    it ran through; so the slices are averaged the same way, by their
    mean. (Their median picks the slow or the fast mode and
    over-corrects: over 66 passes of ``verify`` ops, the pass time over
    the probe varied by 5% with the mean and by 14% with the median.)
    Each slice runs with the garbage collector off, so a collection set
    off by the code under test's allocations is not charged to the
    machine, and a slice longer than ``OUTLIER_RATIO`` times the median
    (a thread switch landed in it) is dropped. Slices are serialized,
    so concurrent clients never time each other's slice.
    """

    def __init__(self, work=compute_slice, reference_s: float = COMPUTE_REFERENCE_S) -> None:
        self.work = work
        self.reference_s = reference_s
        self.samples: list[float] = []
        #: ``perf_counter`` time each slice ended, in increasing order
        self.ended: list[float] = []
        self._limit: float | None = None
        self._lock = threading.Lock()

    def sample(self, slices: int = 1) -> None:
        with self._lock:
            self._limit = None
            for _ in range(slices):
                collecting = gc.isenabled()
                gc.disable()
                started = time.perf_counter()
                self.work()
                ended = time.perf_counter()
                self.samples.append(ended - started)
                self.ended.append(ended)
                if collecting:
                    gc.enable()

    def factor(self) -> float:
        return self._factor(self.samples)

    def factor_at(self, at: float) -> float:
        """The factor from the ``LOCAL_SLICES`` slices that ended
        nearest ``at``, half before and half after it, so an op is
        scaled by the speed of the spell it ran in."""
        lo = bisect.bisect_left(self.ended, at) - LOCAL_SLICES // 2
        lo = max(0, min(lo, len(self.samples) - LOCAL_SLICES))
        return self._factor(self.samples[lo:lo + LOCAL_SLICES])

    def _factor(self, samples: list[float]) -> float:
        if self._limit is None:
            self._limit = OUTLIER_RATIO * statistics.median(self.samples)
        kept = [s for s in samples if s <= self._limit] or samples
        return self.reference_s / statistics.fmean(kept)
