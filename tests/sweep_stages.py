"""In-process timings of each stage of the surface-sweep query path.

The valid queries among the first 20,000 of the benchmark's seeded
surface-sweep stream (``perfbench/inputs.py``, read by path, as
``sweep_digest.py`` reads it) run through the README "Library" path, as
the sweep workload runs it: ``field_from_disc``, ``quadratic_algebra``,
``primes_above`` (only for a query with a level), ``SubgroupSpec`` and
``admissibility_report``.  Each stage runs alone over inputs built by the
stages before it, then the whole path runs as one; every figure is the
best of 7 passes, each of which runs every stage once, in microseconds
per query (per level query for ``primes_above``), after one pass that
warms the package's caches.  The last line counts the Python-level calls
per query of the whole path under ``cProfile``, builtins left out.

Figures depend on the host, so compare two trees only within one session
on one machine.  The script takes no options:

    PYTHONPATH=src python3 tests/sweep_stages.py
"""

from __future__ import annotations

import cProfile
import itertools
import math
import pstats
import sys
import time

from shimsurf.quadfield import field_from_disc, primes_above
from shimsurf.shimura import SubgroupKind, SubgroupSpec, admissibility_report, quadratic_algebra

from sweep_digest import QUERIES, SEED, benchmark_inputs

PASSES = 7


def _best_ns(stages) -> list[float]:
    """The best of ``PASSES`` timed calls of each stage's run, in ns.  Each
    pass runs every stage once, so a busy spell of the host slows one pass
    of every stage, not every pass of one stage."""
    best = [math.inf] * len(stages)
    for _ in range(PASSES):
        for i, (_, run, _) in enumerate(stages):
            start = time.perf_counter_ns()
            run()
            best[i] = min(best[i], time.perf_counter_ns() - start)
    return best


def main() -> None:
    queries = [q for q in itertools.islice(benchmark_inputs().sweep_queries(SEED), QUERIES) if q.valid]
    fields = [field_from_disc(q.disc) for q in queries]
    algebras = [quadratic_algebra(f, q.ram) for f, q in zip(fields, queries)]
    at_level = [(f, q.level) for f, q in zip(fields, queries) if q.level is not None]
    levels = [None if q.level is None else primes_above(f, q.level)[0] for f, q in zip(fields, queries)]
    kinds = [SubgroupKind(q.kind) for q in queries]
    specs = [SubgroupSpec(k, level) for k, level in zip(kinds, levels)]
    cases = list(zip(algebras, specs))

    def whole_path() -> None:
        for q in queries:
            field = field_from_disc(q.disc)
            algebra = quadratic_algebra(field, q.ram)
            level = None if q.level is None else primes_above(field, q.level)[0]
            admissibility_report(algebra, SubgroupSpec(SubgroupKind(q.kind), level))

    stages = [
        ("field_from_disc", lambda: [field_from_disc(q.disc) for q in queries], len(queries)),
        ("quadratic_algebra", lambda: [quadratic_algebra(f, q.ram) for f, q in zip(fields, queries)], len(queries)),
        ("primes_above (per level query)", lambda: [primes_above(f, p) for f, p in at_level], len(at_level)),
        ("SubgroupSpec", lambda: [SubgroupSpec(k, level) for k, level in zip(kinds, levels)], len(queries)),
        ("admissibility_report", lambda: [admissibility_report(A, spec) for A, spec in cases], len(queries)),
        ("whole path", whole_path, len(queries)),
    ]
    whole_path()  # warm every cache once
    print(f"{len(queries)} valid of the first {QUERIES} seed-{SEED} sweep queries, {len(at_level)} with a level")
    print(f"Python {sys.version.split()[0]}; best of {PASSES}, µs per query")
    for (name, _, count), ns in zip(stages, _best_ns(stages)):
        print(f"  {name:<32} {ns / 1000 / count:8.3f}")
    profile = cProfile.Profile(builtins=False)
    profile.runcall(whole_path)
    calls = pstats.Stats(profile).total_calls - 1  # less whole_path's own frame
    print(f"Python-level calls per query under cProfile: {calls / len(queries):.1f}")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: sweep_stages.py")
    main()
