"""Regenerate facts.json: the certified facts of the program at the
commit that defined the benchmark, which every later run compares with.

Usage (from the root of a checkout): python3 perfbench/make_facts.py

Stores the 51 search rows with their status, the report facts of every
query the quartic-cli stream can draw, and those of the first
STORED_SWEEP_QUERIES surface-sweep queries of the default seed.  Each is
first checked by the oracles, so a defective value is never frozen in:
search and surface facts must pass, and a quartic value that fails is
stored as undecided, with the oracle's finding under ``defect``.  Run it only when a change is meant to alter a decided fact, and say
so in the change.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import oracles
import run
from inputs import DEFAULT_SEED, SEARCH_ARGV, all_quartic_queries, sweep_queries
from sweep_worker import Sweep

STORED_SWEEP_QUERIES = 1000


def search_facts() -> dict:
    code, out, err, _ = run.spawn(["-c", run.CLI_MAIN, *SEARCH_ARGV])
    if code != 0:
        sys.exit(f"search failed: {err}")
    rows = oracles.parse_search_csv(out)
    funnel = oracles.search_funnel(rows)
    expected = {"rows": 51, "candidates": 20, "matched": 14, "missing": 0, "extras": 6}
    if funnel != expected:
        sys.exit(f"search funnel {funnel}, expected {expected}")
    return {"rows": [[*r["key"][:2], list(r["key"][2]), r["key"][3], str(r["B2"]), r["status"]] for r in rows]}


def quartic_facts() -> dict:
    out = {}
    for q in all_quartic_queries():
        code, text, err, _ = run.spawn(["-c", run.CLI_MAIN, *q.argv])
        if code != 0:
            sys.exit(f"quartic {q}: exit status {code}: {err}")
        parsed = oracles.parse_quartic(text)
        facts = oracles.quartic_facts(parsed)
        problems = oracles.check_quartic(q, parsed, None)
        if problems:
            # A known defect: keep the oracle's finding on record and do
            # not freeze the wrong value as a decided fact.
            facts["euler"] = None
            facts["defect"] = "; ".join(problems)
            print(f"quartic {q.disc} {q.subgroup}: DEFECT {problems}", file=sys.stderr)
        out[f"{q.disc} {q.subgroup}"] = facts
    return out


def surface_facts() -> dict:
    sweep = Sweep(traced=False)
    queries = []
    for q in itertools.islice(sweep_queries(DEFAULT_SEED), STORED_SWEEP_QUERIES):
        report, table = sweep.run(q)
        outcome = sweep.outcome(report, table)
        problems = sweep.check(q, report, outcome)
        if problems:
            sys.exit(f"surface {q}: {problems}")
        queries.append({**q._asdict(), "ram": list(q.ram), "facts": oracles.surface_facts(outcome)})
    return {"seed": DEFAULT_SEED, "queries": queries}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    os.environ["PYTHONHASHSEED"] = "0"
    facts = {"search": search_facts(), "quartic": {"queries": quartic_facts()}, "surface": surface_facts()}
    oracles.FACTS_PATH.write_text(_dump(facts) + "\n")


def _dump(obj, depth: int = 0) -> str:
    """JSON with one stored record per line."""
    if depth == 3 or not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    pad = " " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in obj.items()]
        open_, close = "{", "}"
    else:
        items = [pad + _dump(v, depth + 1) for v in obj]
        open_, close = "[", "]"
    return open_ + "\n" + ",\n".join(items) + "\n" + " " * depth + close


if __name__ == "__main__":
    main()
