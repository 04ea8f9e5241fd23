"""The machine's current speed, from a fixed loop that does not touch fmc.

Shared hosts change speed under load from elsewhere: on the 2-vCPU VM
this benchmark was built on, the same analyze pass took 3.8 s to 7.2 s
within a few minutes, in phases a minute or more long, so runs made
minutes apart differed by more than any bound worth setting. The worker
therefore times this loop between operations throughout each pass and
rescales the pass to the speed at which the loop takes ``REFERENCE_S``.
Over 30-second windows of back-to-back passes, that cut the IQR/median
of a typical pass from 0.23 to 0.04 on analyze, 0.17 to 0.05 on ontology
and 0.19 to 0.09 on consume.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.2
SAMPLES_PER_TICK = 3


def loop_seconds() -> float:
    """One run of a fixed loop of dict, tuple, str and list work (about 5 ms).

    The collector is paused so that the size of the caller's heap does not
    change the loop's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[str, tuple[int, str]] = {}
        keys: list[str] = []
        for i in range(12_000):
            key = f"k{i % 997}"
            table[key] = (i, key)
            if i % 3 == 0:
                keys.append(table[key][1])
        keys.sort()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Meter:
    """Samples the loop, at most every ``SAMPLE_EVERY_S``, while a pass runs.

    The median of the samples is the machine's speed over the whole pass;
    a single sample would only catch a moment of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.extend(loop_seconds() for _ in range(SAMPLES_PER_TICK))
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns the times measured between ticks into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
