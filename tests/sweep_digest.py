"""A SHA-256 digest that pins every output of the first surface-sweep
queries.

Each query of the benchmark's seeded surface-sweep stream
(``perfbench/inputs.py``, which depends on nothing in the package) runs
through the README "Library" path, as the sweep workload runs it.  Each
query gives one line: for an answered query the repr of a tuple of plain
values (each check's ok and reason, the index, the Euler number, the
torsion verdict, order and reason, the obstructions, the admissible type,
the surface's five numbers, and the quotient table's rows of an
admissible e up to the stream's table bound), and for a refused one the
text of its ValueError.  The digest is the SHA-256 of the ``--lines``
output, so it moves with an output and never with a record's field names
or layout.
``tests/test_shimura.py`` pins the digest of the first 20,000 seed-1
queries; a change that moves an output on purpose updates that pin and
says so.  To print the current digest, or one line per query (two trees'
lines compare by ``diff``):

    PYTHONPATH=src python3 tests/sweep_digest.py [--lines]
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path
from typing import Iterator

from shimsurf.geometry import quotient_table
from shimsurf.quadfield import field_from_disc, primes_above
from shimsurf.shimura import SubgroupKind, SubgroupSpec, admissibility_report, quadratic_algebra

QUERIES = 20_000
SEED = 1


def benchmark_inputs():
    """The benchmark's seeded input generators, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_lines(count: int = QUERIES, seed: int = SEED) -> Iterator[str]:
    """One line of plain values per query of the seeded sweep stream."""
    inputs = benchmark_inputs()
    for q in itertools.islice(inputs.sweep_queries(seed), count):
        try:
            field = field_from_disc(q.disc)
            algebra = quadratic_algebra(field, q.ram)
            level = None if q.level is None else primes_above(field, q.level)[0]
            r = admissibility_report(algebra, SubgroupSpec(SubgroupKind(q.kind), level))
        except ValueError as exc:
            yield f"ValueError: {exc}"
            continue
        e, t = r.admissible_type, r.torsion
        rows = None if e is None or e > inputs.QUOTIENT_TABLE_MAX_E else quotient_table(e)
        yield repr((
            tuple((c.ok, c.reason) for c in (r.involution_ok, r.invariant_order_ok, r.level_invariance_ok)),
            r.index,
            str(r.euler),
            (t.verdict.value, t.order, t.reason),
            r.obstructions,
            e,
            None if r.surface is None else tuple(r.surface),
            None if rows is None else [(g, x.Ksq, x.c2, x.pg, x.q, x.general_type) for g, x in rows],
        ))


def sweep_digest(count: int = QUERIES, seed: int = SEED) -> str:
    digest = hashlib.sha256()
    for line in sweep_lines(count, seed):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        for line in sweep_lines():
            print(line)
    elif sys.argv[1:]:
        sys.exit("usage: sweep_digest.py [--lines]")
    else:
        print(sweep_digest())
