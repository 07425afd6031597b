"""Oracles: each checks certified facts of one workload's output, never
its wording, so that a later change may reword a reason or sharpen an
undecided outcome without tripping them.

An UNKNOWN torsion verdict or an unrecognized Euler number may become
decided later; a decided verdict or value that changes is an error.
Every check returns a list of error strings, empty when the output holds.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from inputs import KINDS, QUOTIENT_TABLE_MAX_E, QuarticQuery, SweepQuery, splits

FACTS_PATH = Path(__file__).with_name("facts.json")

# The fourteen rows of the published classification: (e, D, rational
# primes under the ramification, index).  Kept here, apart from the
# program, so that the oracle does not trust the program's own copy.
REFERENCE_ROWS = frozenset((
    (12, 17, (2,), 18), (16, 13, (3,), 12), (16, 17, (2,), 24),
    (20, 17, (2,), 30), (24, 8, (7,), 4), (24, 13, (3,), 18),
    (24, 17, (2,), 36), (24, 33, (2,), 12), (28, 17, (2,), 42),
    (32, 13, (3,), 24), (32, 17, (2,), 48), (32, 28, (3,), 6),
    (36, 17, (2,), 54), (36, 33, (2,), 18),
))

# Euler number of the full unit group over each quartic field.
QUARTIC_E_FULL = {
    725: Fraction(1, 15), 1125: Fraction(2, 15), 2000: Fraction(1, 3),
    2048: Fraction(5, 12), 2304: Fraction(1, 2), 2525: Fraction(7, 15),
}
QUARTIC_GOLDEN = {(725, "unipotent:29"): "ADMISSIBLE of type 28; p_g(X) = 6"}


def load_facts() -> dict:
    return json.loads(FACTS_PATH.read_text())


def subgroup_index(kind: str, s: int) -> int:
    """Index of the congruence subgroup of the given kind at a level of
    residue field size s."""
    t = gcd(s - 1, 2)
    return {"full": 1, "borel": s + 1, "unipotent": (s * s - 1) // t,
            "principal": s * (s * s - 1) // t}[kind]


def quadratic_norm(disc: int, p: int) -> int:
    """Norm of a prime over p in the quadratic field of discriminant disc."""
    inert = not splits(disc, p) and disc % p != 0
    return p * p if inert else p


def _admissible_expected(checks_ok: bool, verdict: str, euler: Fraction | None) -> int | None:
    if checks_ok and verdict == "free" and euler is not None and euler.denominator == 1 \
            and euler > 0 and euler % 4 == 0:
        return int(euler)
    return None


def _surface_errors(e: int, c1sq: int, chi: int, pg: int) -> list[str]:
    errors = []
    if c1sq != 2 * e:
        errors.append(f"c1^2 = {c1sq}, expected 2e = {2 * e}")
    if 4 * chi != e:
        errors.append(f"chi = {chi}, expected e/4 = {Fraction(e, 4)}")
    if pg != chi - 1:
        errors.append(f"p_g = {pg}, expected chi - 1 = {chi - 1}")
    return errors


def _chain_errors(chain: dict[str, str]) -> list[str]:
    """principal <= unipotent <= borel <= full: a free group has free
    subgroups, and torsion in a subgroup is torsion in every group above."""
    errors = []
    for i, above in enumerate(KINDS):
        for below in KINDS[i + 1:]:
            if chain.get(above) == "free" and chain.get(below) == "torsion":
                errors.append(f"{above} is free but its subgroup {below} has torsion")
    return errors


def _decided_changes(stored: dict, now: dict) -> list[str]:
    """Facts stored at the commit that defined the benchmark, compared
    where they were decided."""
    errors = []
    for key in ("refused", "index", "checks_ok"):
        if key in stored and stored[key] != now.get(key):
            errors.append(f"{key} changed from {stored[key]} to {now.get(key)}")
    if stored.get("euler") is not None and stored["euler"] != now.get("euler"):
        errors.append(f"euler changed from {stored['euler']} to {now.get('euler')}")
    if stored.get("verdict") not in (None, "unknown"):
        if (stored["verdict"], stored.get("order")) != (now.get("verdict"), now.get("order")):
            errors.append(
                f"torsion changed from {stored['verdict']}/{stored.get('order')} "
                f"to {now.get('verdict')}/{now.get('order')}"
            )
    return errors


# ---------------------------------------------------------------------------
# search-cold


def parse_search_csv(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append({
            "key": (int(rec["e"]), int(rec["D"]),
                    tuple(int(p) for p in rec["ram_primes"].split(";")), int(rec["index"])),
            "d": int(rec["d"]),
            "B2": Fraction(int(rec["B2_num"]), int(rec["B2_den"])),
            "status": rec["status"],
        })
    return rows


def search_funnel(rows: list[dict]) -> dict[str, int]:
    candidates = {r["key"] for r in rows if r["status"] == "Candidate"}
    return {
        "rows": len(rows),
        "candidates": len(candidates),
        "matched": len(candidates & REFERENCE_ROWS),
        "missing": len(REFERENCE_ROWS - candidates),
        "extras": len(candidates - REFERENCE_ROWS),
    }


def check_search(rows: list[dict], facts: dict) -> list[str]:
    """51 enumerated rows with their Bernoulli values, every row on the
    Euler identity, all 14 reference rows among the candidates, and the
    candidates a subset of the 20 survivors stored with the benchmark."""
    errors = []
    stored = {(e, D, tuple(ram), index): Fraction(b2) for e, D, ram, index, b2, _ in facts["rows"]}
    survivors = {(e, D, tuple(ram), index) for e, D, ram, index, _, status in facts["rows"]
                 if status == "Candidate"}
    seen = {}
    for r in rows:
        e, D, ram, index = r["key"]
        if r["key"] in seen:
            errors.append(f"row {r['key']} printed twice")
        seen[r["key"]] = r
        product = 1
        for p in ram:
            product *= (p - 1) ** 2
        if Fraction(e) != index * r["B2"] / 12 * product:
            errors.append(f"row {r['key']} violates e = index * B2/12 * prod (p-1)^2")
        if D != (r["d"] if r["d"] % 4 == 1 else 4 * r["d"]):
            errors.append(f"row {r['key']}: radicand {r['d']} does not match discriminant {D}")
        if r["key"] in stored and stored[r["key"]] != r["B2"]:
            errors.append(f"row {r['key']}: B2 = {r['B2']}, stored {stored[r['key']]}")
        if r["status"] not in ("Candidate", "Pruned"):
            errors.append(f"row {r['key']}: unknown status {r['status']!r}")
    if set(seen) != set(stored):
        errors.append(
            f"enumerated {len(seen)} rows, stored {len(stored)}: "
            f"{len(set(seen) - set(stored))} new, {len(set(stored) - set(seen))} lost"
        )
    candidates = {k for k, r in seen.items() if r["status"] == "Candidate"}
    for key in sorted(REFERENCE_ROWS - candidates):
        errors.append(f"reference row {key} is not a candidate")
    for key in sorted(candidates - survivors):
        errors.append(f"row {key} is a candidate but was pruned when the benchmark was defined")
    return errors


# ---------------------------------------------------------------------------
# quartic-cli


def parse_quartic(text: str) -> dict:
    """Facts of one ``shimsurf quartic`` report."""
    lines = text.strip().splitlines()
    out: dict = {"final": lines[-1] if lines else "", "checks": []}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key == "index":
            out["index"] = int(value)
        elif key == "subgroup":
            out["norm"] = 1 if value.startswith("full") else int(value.split("(norm ")[1].split(",")[0])
        elif key == "euler number":
            token = value.split(" ")[0]
            out["euler"] = None if token == "unrecognized" else Fraction(token)
        elif key == "torsion":
            out["verdict"] = value.split(" ")[0]
        elif key in ("involution of second kind", "invariant maximal order", "level invariance"):
            out["checks"].append(value.startswith("yes"))
    out["checks_ok"] = len(out["checks"]) == 3 and all(out["checks"])
    return out


def quartic_facts(parsed: dict) -> dict:
    euler = parsed.get("euler")
    return {
        "index": parsed.get("index"),
        "checks_ok": parsed["checks_ok"],
        "euler": None if euler is None else str(euler),
        "verdict": parsed.get("verdict"),
        "final": parsed["final"],
    }


def check_quartic(q: QuarticQuery, parsed: dict, stored: dict | None) -> list[str]:
    errors = []
    missing = [k for k in ("index", "norm", "euler", "verdict") if k not in parsed]
    if missing or len(parsed["checks"]) != 3:
        return [f"report lacks {missing or 'the three involution-side checks'}"]
    norm = parsed["norm"]
    if q.level is not None:
        s = norm
        while s % q.level == 0:
            s //= q.level
        if s != 1:
            errors.append(f"level norm {norm} is not a power of {q.level}")
    if parsed["index"] != subgroup_index(q.kind, norm):
        errors.append(f"index {parsed['index']}, expected {subgroup_index(q.kind, norm)}")
    euler = parsed["euler"]
    if euler is not None and euler != QUARTIC_E_FULL[q.disc] * parsed["index"]:
        errors.append(f"euler number {euler} != e(full) {QUARTIC_E_FULL[q.disc]} * index {parsed['index']}")
    expected = _admissible_expected(parsed["checks_ok"], parsed["verdict"], euler)
    if expected is None:
        if not parsed["final"].startswith("NOT ADMISSIBLE"):
            errors.append(f"final line {parsed['final']!r}, expected NOT ADMISSIBLE")
    elif parsed["final"] != f"ADMISSIBLE of type {expected}; p_g(X) = {expected // 4 - 1}":
        errors.append(f"final line {parsed['final']!r}, expected type {expected}")
    golden = QUARTIC_GOLDEN.get((q.disc, q.subgroup))
    if golden is not None and parsed["final"] != golden:
        errors.append(f"{q.disc} {q.subgroup}: {parsed['final']!r}, expected {golden!r}")
    if stored is not None:
        now = quartic_facts(parsed)
        errors += _decided_changes(stored, now)
        if stored["final"].startswith("ADMISSIBLE") and stored["final"] != now["final"]:
            errors.append(f"final line changed from {stored['final']!r} to {now['final']!r}")
    return errors


# ---------------------------------------------------------------------------
# surface-sweep


def check_surface(
    q: SweepQuery,
    outcome: dict,
    e_full: Fraction | None,
    chain: dict[str, str],
    stored: dict | None = None,
) -> list[str]:
    """One surface-sweep query.  ``outcome`` holds the facts of the
    report (or ``refused``), ``e_full`` the Euler number of the full group
    from a separate query, and ``chain`` torsion verdicts of other
    subgroup kinds at the same level."""
    if outcome["refused"]:
        return [] if not q.valid else [f"valid query {q} was refused"]
    if not q.valid:
        return [f"invalid query {q} was not refused"]
    errors = []
    norm = 1 if q.level is None else quadratic_norm(q.disc, q.level)
    if outcome["index"] != subgroup_index(q.kind, norm):
        errors.append(f"index {outcome['index']}, expected {subgroup_index(q.kind, norm)}")
    euler = Fraction(outcome["euler"])
    if e_full is None or euler != outcome["index"] * e_full:
        errors.append(f"euler number {euler} != index {outcome['index']} * e(full) {e_full}")
    expected = _admissible_expected(outcome["checks_ok"], outcome["verdict"], euler)
    if outcome["admissible_type"] != expected:
        errors.append(f"admissible type {outcome['admissible_type']}, expected {expected}")
    if outcome["surface"] is not None:
        errors += _surface_errors(int(euler), *outcome["surface"])
    elif expected is not None:
        errors.append("admissible report without surface invariants")
    if expected is not None and expected <= QUOTIENT_TABLE_MAX_E:
        genera = [g for g in range(2, (expected - 4) // 4 + 1) if (expected - 4 - 4 * g) % 8 == 0]
        if outcome["quotient_genera"] != genera:
            errors.append(f"quotient table genera {outcome['quotient_genera']}, expected {genera}")
    errors += _chain_errors({**chain, q.kind: outcome["verdict"]})
    if stored is not None:
        errors += _decided_changes(stored, outcome)
    return errors


def surface_facts(outcome: dict) -> dict:
    if outcome["refused"]:
        return {"refused": True}
    keys = ("refused", "index", "checks_ok", "euler", "verdict", "order")
    return {k: outcome[k] for k in keys}
