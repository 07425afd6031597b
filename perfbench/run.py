"""The shimsurf benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see DESIGN.md for why each exists):

- ``search-cold``: ``shimsurf search --format csv`` in a fresh interpreter
  per operation; the input is fixed, so the seed is unused.
- ``surface-sweep``: the README "Library" path in one worker process,
  one seeded query at a time.
- ``quartic-cli``: ``shimsurf quartic ... --zeta-bound 10000`` in a fresh
  interpreter per operation, on seeded (field, subgroup, level) queries.

All three are closed loops with one client.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the same object carries the per-layer metrics of a
traced run, timed at the module boundaries from the benchmark's own
files.  Timings are corrected for the speed of the shared machine
(steady.py).  Every operation's output is checked by the oracles in
oracles.py; ``failed`` counts the operations whose exit status or
exception was unexpected or whose certified facts failed an oracle.

The program is run from ``src/`` of the checkout; there is nothing to
build.  Without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import steady
import tracer
from inputs import DEFAULT_SEED, SEARCH_ARGV, quartic_queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("search-cold", "surface-sweep", "quartic-cli")
SETUP_SAMPLES = 15
OP_TIMEOUT_S = 120
P90_MIN_OPS = 100

CLI_MAIN = "import sys; from shimsurf.cli import main; sys.argv[0] = 'shimsurf'; main()"
IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import shimsurf; "
    "print(repr(time.perf_counter() - start))"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], timeout: float = OP_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run the interpreter with ``args`` and wait for it; returns (exit
    code, stdout, stderr, seconds from spawn to exit)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return -1, "", f"killed after {timeout} s", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """Median time of ``import shimsurf`` in a fresh interpreter, each
    sample corrected for machine speed (steady.py), and the raw median.
    One unmeasured import first writes the bytecode caches."""
    code, _, err, _ = spawn(["-c", "import shimsurf, shimsurf.cli"])
    if code != 0:
        raise RuntimeError(f"cannot import shimsurf from {SRC}: {err.strip()[-500:]}")
    samples, references = [], [steady.reference_s()]
    for _ in range(SETUP_SAMPLES):
        samples.append(float(spawn(["-c", IMPORT_TIMER])[1]))
        references.append(steady.reference_s())
    corrected = steady.corrected(samples, references, steady.REFERENCE_LOOPS)
    return statistics.median(corrected), statistics.median(samples)


class Tally:
    """Operations attempted and failed, raw latencies with the reference
    timings that bracket them (one per ``per`` operations), and the first
    errors."""

    def __init__(self, per: int = 1, loops: int = steady.REFERENCE_LOOPS) -> None:
        self.latencies: list[float] = []
        self.references: list[float] = []
        self.per = per
        self.loops = loops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, seconds: float, problems: list[str], label: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {problems[0]}")

    def corrected(self) -> list[float]:
        return steady.corrected(self.latencies, self.references, self.loops, self.per)


# ---------------------------------------------------------------------------
# fresh-process workloads


def _search_ops(seed: int):
    del seed  # the search input is fixed
    facts = oracles.load_facts()["search"]
    while True:
        yield "search", SEARCH_ARGV, lambda out, facts=facts: oracles.check_search(
            oracles.parse_search_csv(out), facts
        )


def _quartic_ops(seed: int):
    facts = oracles.load_facts()["quartic"]["queries"]
    for q in quartic_queries(seed):
        stored = facts[f"{q.disc} {q.subgroup}"]
        yield f"{q.disc} {q.subgroup}", q.argv, lambda out, q=q, stored=stored: oracles.check_quartic(
            q, oracles.parse_quartic(out), stored
        )


FRESH_OPS = {"search-cold": _search_ops, "quartic-cli": _quartic_ops}


def run_fresh(workload: str, seed: int, seconds: float, traced: bool, count: int | None = None):
    """Closed loop of fresh interpreters, one at a time, for ``seconds`` or
    for ``count`` operations.  Returns the tally and, when traced, the
    merged trace snapshot and cache counters."""
    tally = Tally()
    snapshot: dict = {}
    caches: dict = {}
    deadline = time.perf_counter() + seconds
    tally.references.append(steady.reference_s())
    for label, argv, check in FRESH_OPS[workload](seed):
        if (count is None and time.perf_counter() >= deadline) or (count is not None and tally.attempted >= count):
            break
        prefix = [str(BENCH / "traced_cli.py")] if traced else ["-c", CLI_MAIN]
        code, out, err, elapsed = spawn(prefix + list(argv))
        problems = [] if code == 0 else [f"exit status {code}: {err.strip()[-300:]}"]
        if not problems:
            try:
                problems = check(out)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"output does not parse: {exc!r}"]
        if traced and code == 0:
            extra = json.loads(err.strip().splitlines()[-1])
            tracer.merge(snapshot, extra["trace"])
            tracer.merge(caches, extra["caches"])
        tally.record(elapsed, problems, label)
        tally.references.append(steady.reference_s())
    return tally, snapshot, caches


# ---------------------------------------------------------------------------
# surface-sweep


def run_sweep(seed: int, seconds: float, traced: bool, count: int | None = None):
    args = [str(BENCH / "sweep_worker.py"), "--seed", str(seed), "--trace", str(int(traced))]
    args += ["--seconds", str(seconds)] if count is None else ["--count", str(count)]
    code, out, err, _ = spawn(args, timeout=seconds + OP_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"surface-sweep worker exited with {code}: {err.strip()[-1000:]}")
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    tally = Tally(per=summary["window"], loops=steady.SHORT_REFERENCE_LOOPS)
    tally.references = summary["references"]
    for line in lines[:-1]:
        tally.latencies.extend(float(x) for x in line[2:].split())
    tally.attempted = summary["ops"] + summary["replayed"]
    tally.failed = summary["failed"]
    tally.errors = summary["errors"]
    return tally, summary


# ---------------------------------------------------------------------------


def _info(workload: str, tally: Tally, extra: str = "") -> None:
    """One line for people: counts, the error ratio, the raw median, how
    much the machine slowed down, and the p90 where there are enough
    operations for it."""
    lat = sorted(tally.corrected())
    parts = [
        f"{workload}: {len(lat)} timed ops, {tally.attempted} attempted, {tally.failed} failed",
        f"error_ratio {tally.failed / max(tally.attempted, 1):.4f}",
        f"raw latency_p50_ms {statistics.median(tally.latencies) * 1e3:.4f}",
        f"machine slowdown {steady.slowdown(tally.references, tally.loops):.3f}",
    ]
    if len(lat) >= P90_MIN_OPS:
        parts.append(f"latency_p90_ms {statistics.quantiles(lat, n=10)[-1] * 1e3:.4f}")
    if extra:
        parts.append(extra)
    print("; ".join(parts))
    for e in tally.errors:
        print(f"  error: {e}")


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup, raw_setup = measure_setup()
    extra = f"raw setup_s {raw_setup:.5f}"
    if workload == "surface-sweep":
        tally, summary = run_sweep(seed, seconds, traced=False)
        peak_kb = summary["peak_rss_kb"]
        extra += f"; {summary['refused']} refused as expected; {summary['replayed']} stored queries replayed"
    else:
        tally, _, _ = run_fresh(workload, seed, seconds, traced=False)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    _info(workload, tally, extra)
    latencies = tally.corrected()
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Half the time untraced, then the same operations traced; the ratio
    of their corrected operation times is the tracing overhead."""
    if workload == "surface-sweep":
        plain, _ = run_sweep(seed, seconds / 2, traced=False)
        ops = len(plain.latencies)
        tally, summary = run_sweep(seed, 0, traced=True, count=ops)
        snapshot, caches = summary["trace"], summary["caches"]
    else:
        plain, _, _ = run_fresh(workload, seed, seconds / 2, traced=False)
        ops = len(plain.latencies)
        tally, snapshot, caches = run_fresh(workload, seed, 0, traced=True, count=ops)
    overhead = sum(tally.corrected()) / sum(plain.corrected()) - 1
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors += plain.errors
    _info(workload, tally, f"caches {json.dumps(caches)}")
    values = tracer.layer_metrics(snapshot, caches, ops, overhead)
    units = dict(tracer.PER_LAYER)
    return tally, {name: (value, units[name]) for name, value in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "shimsurf" / "__init__.py").is_file():
        print(f"error: no shimsurf package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
