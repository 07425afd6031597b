"""The surface-sweep workload, run in a process of its own so that it
never inherits caches warmed by another workload.

Usage: python3 sweep_worker.py --seed N (--seconds S | --count N) --trace 0|1

Runs the README "Library" path once per query, one query at a time, and
checks every result with the oracles (outside the timed region).  Then it
replays the queries stored in facts.json and compares their decided facts.

Standard output carries the per-query latencies in lines ``L <s> <s> ...``,
flushed every few thousand queries so that the worker's own memory stays
flat however many queries a run completes, and ends with one JSON line.
A short reference loop runs before the first query and after every
WINDOW queries (see steady.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from fractions import Fraction

import oracles
import steady
import tracer
from inputs import KINDS, QUOTIENT_TABLE_MAX_E, SweepQuery, sweep_queries

FLUSH_EVERY = 4096
WINDOW = 256
MAX_ERRORS_SHOWN = 10


class Sweep:
    def __init__(self, traced: bool) -> None:
        self.tracer = tracer.Tracer() if traced else None
        if self.tracer is not None:
            tracer.install(self.tracer)
        import shimsurf

        self.S = shimsurf
        self.e_full: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def run(self, q: SweepQuery):
        """One query through the public API: the timed operation."""
        S = self.S
        try:
            field = S.field_from_disc(q.disc)
            algebra = S.quadratic_algebra(field, q.ram)
            level = None if q.level is None else S.primes_above(field, q.level)[0]
            report = S.admissibility_report(algebra, S.SubgroupSpec(S.SubgroupKind(q.kind), level))
            table = None
            if report.admissible_type is not None and report.admissible_type <= QUOTIENT_TABLE_MAX_E:
                table = S.quotient_table(report.admissible_type)
        except ValueError:
            return None, None
        return report, table

    def outcome(self, report, table) -> dict:
        if report is None:
            return {"refused": True}
        s = report.surface
        return {
            "refused": False,
            "index": report.index,
            "checks_ok": bool(report.involution_ok and report.invariant_order_ok and report.level_invariance_ok),
            "euler": str(report.euler),
            "verdict": report.torsion.verdict.value,
            "order": report.torsion.order,
            "admissible_type": report.admissible_type,
            "surface": None if s is None else (s.c1sq, s.chi, s.pg),
            "quotient_genera": None if table is None else [g for g, _ in table],
        }

    def check(self, q: SweepQuery, report, outcome: dict, stored: dict | None = None) -> list[str]:
        """Oracle inputs from separate queries, then the oracle itself."""
        S = self.S
        e_full, chain = None, {}
        if report is not None:
            key = (q.disc, q.ram)
            if key not in self.e_full:
                full = S.admissibility_report(report.algebra, S.SubgroupSpec(S.SubgroupKind.FULL, None))
                self.e_full[key] = full.euler
            e_full = self.e_full[key]
            verdict = outcome["verdict"]
            i = KINDS.index(q.kind)
            if verdict == "free" and q.level is not None:
                others = KINDS[i + 1:]
            elif verdict == "torsion":
                others = KINDS[:i]
            else:
                others = ()
            base, ram, level = report.algebra.base, report.algebra.ram, report.spec.level
            for kind in others:
                if kind == "full":
                    chain[kind] = S.full_torsion_verdict(base, ram).verdict.value
                else:
                    fn = getattr(S, f"{kind}_torsion_verdict")
                    chain[kind] = fn(base, ram, level).verdict.value
        return oracles.check_surface(q, outcome, e_full, chain, stored)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sweep = Sweep(bool(args.trace))
    t = sweep.tracer
    caches = {}
    errors: list[str] = []
    ops = failed = refused = 0
    batch: list[float] = []
    stream = sweep_queries(args.seed)
    deadline = time.perf_counter() + (args.seconds or 0.0)
    limit = itertools.count() if args.count is None else range(args.count)
    references = [steady.reference_s(steady.SHORT_REFERENCE_LOOPS)]
    for _ in limit:
        if args.count is None and time.perf_counter() >= deadline:
            break
        q = next(stream)
        if t is not None:
            before = tracer.cache_counts()
        start = time.perf_counter()
        report, table = sweep.run(q)
        elapsed = time.perf_counter() - start
        if t is not None:
            after = tracer.cache_counts()
            tracer.merge(caches, {k: [a - b for a, b in zip(after[k], before[k])] for k in after})
            t.active = False
        ops += 1
        batch.append(elapsed)
        outcome = sweep.outcome(report, table)
        refused += outcome["refused"]
        problems = sweep.check(q, report, outcome)
        if t is not None:
            t.active = True
        if problems:
            failed += 1
            errors.extend(f"{q}: {p}" for p in problems[: MAX_ERRORS_SHOWN - len(errors)])
        if ops % WINDOW == 0:
            references.append(steady.reference_s(steady.SHORT_REFERENCE_LOOPS))
        if len(batch) >= FLUSH_EVERY:
            print("L " + " ".join(map(repr, batch)), flush=True)
            batch.clear()
    if ops % WINDOW:
        references.append(steady.reference_s(steady.SHORT_REFERENCE_LOOPS))
    if batch:
        print("L " + " ".join(map(repr, batch)), flush=True)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if t is not None:
        t.active = False
    stored = oracles.load_facts()["surface"]
    replayed = 0
    for entry in stored["queries"]:
        q = SweepQuery(entry["disc"], tuple(entry["ram"]), entry["kind"], entry["level"], entry["valid"])
        report, table = sweep.run(q)
        problems = sweep.check(q, report, sweep.outcome(report, table), entry["facts"])
        replayed += 1
        if problems:
            failed += 1
            errors.extend(f"stored {q}: {p}" for p in problems[: MAX_ERRORS_SHOWN - len(errors)])

    print(json.dumps({
        "ops": ops,
        "refused": refused,
        "replayed": replayed,
        "failed": failed,
        "errors": errors[:MAX_ERRORS_SHOWN],
        "window": WINDOW,
        "references": references,
        "peak_rss_kb": peak_rss_kb,
        "trace": None if t is None else t.snapshot(),
        "caches": caches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
