"""Correction of timings for the speed of a shared machine.

On the 2-CPU host the benchmark was defined on, neighbours slowed every
instruction by 15 to 90% for stretches of seconds to minutes, in CPU time
as much as in wall time.  Timing a fixed loop for four minutes, the
medians of 20 s windows spread by 31% (interquartile range over median)
while their fastest samples spread by 3%, so medians of raw timings were
not steady from run to run however long the run.

Every timing is therefore bracketed by a fixed reference loop that runs
none of the program's code, just before and just after it (for the short
in-process queries, before and after each window of them).  Its mix of
small integers, ``Fraction`` and dict work tracked the program's speed
better than a pure integer loop did.  A timing is scaled by the loop's
nominal time, its fastest time on the defining host, over the mean of
its two brackets, so it reads as the time the operation takes on that
host when nothing disturbs it.  A faster program still reads faster.
Scaling to a fixed nominal time rather than to the fastest reference of
the run keeps a run that is slow from start to end steady too.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_LOOPS = 12_500  # about 25 ms
SHORT_REFERENCE_LOOPS = 1_250  # about 2.5 ms, between windows of in-process queries
NOMINAL_S_PER_LOOP = 2.0e-6  # the reference loop's fastest pace on the defining host


def reference_s(loops: int = REFERENCE_LOOPS) -> float:
    """Time of the reference loop: small-integer, ``Fraction`` and dict
    work, like the program's own mix, with none of the program's code."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[int, tuple[int, int]] = {}
    for i in range(loops):
        table[i & 63] = (i, i * i % 7)
        acc += Fraction(i % 13, 7 + i % 5)
    return time.perf_counter() - start


def corrected(timings: list[float], references: list[float], loops: int, per: int = 1) -> list[float]:
    """Scale each timing to the undisturbed speed of the defining host.
    Timing ``i`` belongs to window ``i // per``, which ``references[w]``
    and ``references[w + 1]`` (reference loops of ``loops`` iterations)
    bracket."""
    windows = -(-len(timings) // per)
    if len(references) != windows + 1:
        raise ValueError(f"{len(timings)} timings in {windows} windows need {windows + 1} references")
    nominal = loops * NOMINAL_S_PER_LOOP
    scale = [2 * nominal / (a + b) for a, b in zip(references, references[1:])]
    return [t * scale[i // per] for i, t in enumerate(timings)]


def slowdown(references: list[float], loops: int) -> float:
    """Median reference time over the nominal one: how much slower than
    undisturbed the machine ran, typically, during the run."""
    return statistics.median(references) / (loops * NOMINAL_S_PER_LOOP)
