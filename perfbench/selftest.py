"""Self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Each oracle accepts the program's real output and flags doctored
   copies of it: a flipped torsion verdict, a wrong Euler number and a
   dropped reference row each raise the failure count, and so the
   error ratio, of a tally.
2. A short smoke run of every workload, untraced and traced, prints a
   result line with exactly the metrics BENCHMARK.json declares.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
4. Every quartic query held out of the timed draw as a known defect is
   recorded as one in facts.json, and the oracle still flags the
   program's output on it; once it no longer does, the check fails so
   that the query goes back into the draw.

Exits 1 and names the failed checks when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
import run
from inputs import DEFAULT_SEED, QUARTIC_KNOWN_DEFECTS, SEARCH_ARGV, QuarticQuery, SweepQuery, all_quartic_queries

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def raises_error_ratio(label: str, check, good, doctored) -> None:
    """The real result passes; the doctored one adds a failure to a tally."""
    tally = run.Tally()
    tally.record(1.0, check(good), label)
    expect(tally.failed == 0, f"{label}: the real result passes {tally.errors}")
    tally.record(1.0, check(doctored), label)
    expect(tally.failed == 1, f"{label}: the doctored result raises the error ratio")


def search_oracle() -> None:
    code, out, err, _ = run.spawn(["-c", run.CLI_MAIN, *SEARCH_ARGV])
    expect(code == 0, f"search exits 0 {err[-200:]}")
    facts = oracles.load_facts()["search"]
    rows = oracles.parse_search_csv(out)
    expect(oracles.search_funnel(rows) == {"rows": 51, "candidates": 20, "matched": 14, "missing": 0, "extras": 6},
           "search funnel is 51 rows, 14 matched, 0 missing, 6 extras")
    check = lambda r: oracles.check_search(r, facts)  # noqa: E731
    ref_index = next(i for i, r in enumerate(rows) if r["key"] in oracles.REFERENCE_ROWS)
    raises_error_ratio("search, dropped reference row", check, rows, rows[:ref_index] + rows[ref_index + 1:])
    revived = [dict(r, status="Candidate") for r in rows]
    raises_error_ratio("search, pruned row revived", check, rows, revived)
    wrong_b2 = [dict(r, B2=r["B2"] + 1) if i == 0 else r for i, r in enumerate(rows)]
    raises_error_ratio("search, wrong Bernoulli number", check, rows, wrong_b2)


def quartic_oracle() -> None:
    q = QuarticQuery(725, "1,-1,-3,1,1", 5, "unipotent", 29)
    code, out, err, _ = run.spawn(["-c", run.CLI_MAIN, *q.argv])
    expect(code == 0, f"quartic exits 0 {err[-200:]}")
    stored = oracles.load_facts()["quartic"]["queries"][f"{q.disc} {q.subgroup}"]
    check = lambda text: oracles.check_quartic(q, oracles.parse_quartic(text), stored)  # noqa: E731
    raises_error_ratio("quartic, wrong Euler number", check, out,
                       out.replace("euler number = 28 ", "euler number = 32 "))
    raises_error_ratio("quartic, flipped torsion verdict", check, out,
                       out.replace("torsion = free", "torsion = torsion"))
    raises_error_ratio("quartic, wrong type on the final line", check, out,
                       out.replace("ADMISSIBLE of type 28", "ADMISSIBLE of type 32"))


def surface_oracle() -> None:
    sys.path.insert(0, str(run.SRC))
    from sweep_worker import Sweep

    sweep = Sweep(traced=False)
    entries = oracles.load_facts()["surface"]["queries"]

    def first(pred):
        for e in entries:
            q = SweepQuery(e["disc"], tuple(e["ram"]), e["kind"], e["level"], e["valid"])
            if pred(q, e["facts"]):
                return q, e["facts"]
        raise LookupError("no stored query fits")

    def doctored_check(q, stored, doctor):
        report, table = sweep.run(q)
        outcome = sweep.outcome(report, table)
        check = lambda o: sweep.check(q, report, o, stored)  # noqa: E731
        return check, outcome, doctor(dict(outcome))

    q, stored = first(lambda q, f: q.kind == "unipotent" and f.get("verdict") == "free")
    check, good, bad = doctored_check(q, stored, lambda o: {**o, "verdict": "torsion", "order": 2})
    raises_error_ratio("surface, flipped torsion verdict", check, good, bad)
    q, stored = first(lambda q, f: q.valid)
    check, good, bad = doctored_check(q, stored, lambda o: {**o, "euler": str(Fraction(o["euler"]) + 4)})
    raises_error_ratio("surface, wrong Euler number", check, good, bad)
    q, stored = first(lambda q, f: not q.valid)
    report, table = sweep.run(q)
    good = sweep.outcome(report, table)
    raises_error_ratio("surface, invalid query accepted",
                       lambda o: oracles.check_surface(q, o, None, {}, stored), good, {**good, "refused": False})


def smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed",
                 str(DEFAULT_SEED), "--seconds", "2", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=300,
            )
            label = f"smoke {workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{label}: result line {proc.stderr[-300:]}")
                continue
            expect(proc.returncode == 0 and result["attempted"] >= 1, f"{label}: exits 0 after at least one operation")
            expect(result["correct"] and result["failed"] == 0, f"{label}: every operation correct")
            expect(set(result["metrics"]) == {m["name"] for m in declared}, f"{label}: declared metrics")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/ it exits non-zero and prints no result")


def known_defects() -> None:
    stored = oracles.load_facts()["quartic"]["queries"]
    recorded = {key for key, facts in stored.items() if "defect" in facts}
    held_out = {f"{disc} {subgroup}" for disc, subgroup in QUARTIC_KNOWN_DEFECTS}
    expect(recorded == held_out, f"held-out quartic queries {sorted(held_out)} are those facts.json records as defects")
    for q in all_quartic_queries():
        key = f"{q.disc} {q.subgroup}"
        if key not in held_out:
            continue
        code, out, err, _ = run.spawn(["-c", run.CLI_MAIN, *q.argv])
        problems = oracles.check_quartic(q, oracles.parse_quartic(out), stored[key]) if code == 0 else [err[-200:]]
        print(f"      known defect, quartic {key}: {problems}")
        expect(bool(problems), f"quartic {key} still fails its oracle (once fixed, put it back into the draw)")


def main() -> int:
    search_oracle()
    quartic_oracle()
    surface_oracle()
    known_defects()
    smoke()
    bare_directory()
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
