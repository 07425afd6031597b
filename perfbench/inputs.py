"""Seeded input generators for the benchmark workloads.

The generators depend only on the seed and on number theory computed
here, never on the program under test, so the program only ever receives
the generated inputs.  The same seed always yields the same stream.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

KINDS = ("full", "borel", "unipotent", "principal")

# The seed whose queries are stored in facts.json.
DEFAULT_SEED = 1

# surface-sweep parameters (see DESIGN.md for why)
SWEEP_DISC_RANGE = (5, 400)
SWEEP_RAM_BOUND = 60
SWEEP_LEVEL_BOUND = 200
SWEEP_INVALID_SHARE = 0.05
QUOTIENT_TABLE_MAX_E = 36

# quartic-cli: (field discriminant, defining polynomial, subfield radicand)
QUARTIC_FIELDS = (
    (725, "1,-1,-3,1,1", 5),
    (1125, "1,-5,5,5,-5", 5),
    (2000, "1,-6,1,4,1", 5),
    (2048, "1,-4,-2,4,-1", 2),
    (2304, "1,-4,2,4,-2", 2),
    (2525, "1,-5,3,5,1", 5),
)
QUARTIC_LEVELS = (7, 11, 19, 29)
QUARTIC_ZETA_BOUND = 10_000
# Queries on which the program prints a wrong certified fact today, held
# out of the timed quartic-cli draw because a benchmark run must consist
# of operations that succeed.  Each is stored in facts.json with the
# oracle's finding under "defect", and selftest.py still runs it and
# fails once the defect is gone, so that the query is put back.  See
# DESIGN.md, "Known defect".
QUARTIC_KNOWN_DEFECTS = frozenset({(2525, "borel:7")})

SEARCH_ARGV = ("search", "--format", "csv")


def primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % q for q in range(2, int(p**0.5) + 1))]


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, int(n**0.5) + 1))


def real_fundamental_discriminants(lo: int, hi: int) -> list[int]:
    out = []
    for disc in range(max(lo, 5), hi + 1):
        if disc % 4 == 1 and _squarefree(disc):
            out.append(disc)
        elif disc % 4 == 0 and (disc // 4) % 4 in (2, 3) and _squarefree(disc // 4):
            out.append(disc)
    return out


def splits(disc: int, p: int) -> bool:
    """Whether the rational prime p splits in the quadratic field of
    fundamental discriminant disc: (disc|p) = 1."""
    if p == 2:
        return disc % 8 == 1
    return pow(disc % p, (p - 1) // 2, p) == 1


class SweepQuery(NamedTuple):
    disc: int
    ram: tuple[int, ...]
    kind: str
    level: int | None
    valid: bool


def sweep_queries(seed: int) -> Iterator[SweepQuery]:
    """Endless surface-sweep query stream: a field drawn from the
    fundamental discriminants 5..400, one or two split ramified primes
    below 60, a uniform subgroup kind and a level prime below 200 outside
    the ramification.  About 5% of the queries are invalid, and the
    library must refuse them: either the level lies over a ramified
    prime, or a ramified prime does not split."""
    rng = random.Random(f"surface-sweep:{seed}")
    discs = real_fundamental_discriminants(*SWEEP_DISC_RANGE)
    ram_primes = primes_below(SWEEP_RAM_BOUND)
    level_primes = primes_below(SWEEP_LEVEL_BOUND)
    split = {d: [p for p in ram_primes if splits(d, p)] for d in discs}
    nonsplit = {d: [p for p in ram_primes if not splits(d, p)] for d in discs}
    while True:
        disc = rng.choice(discs)
        size = 1 if len(split[disc]) < 2 else rng.choice((1, 2))
        ram = tuple(sorted(rng.sample(split[disc], size)))
        kind = rng.choice(KINDS)
        if rng.random() >= SWEEP_INVALID_SHARE:
            level = None if kind == "full" else rng.choice([p for p in level_primes if p not in ram])
            yield SweepQuery(disc, ram, kind, level, True)
        elif rng.random() < 0.5 and nonsplit[disc]:
            bad = rng.choice(nonsplit[disc])
            level = None if kind == "full" else rng.choice([p for p in level_primes if p not in ram and p != bad])
            yield SweepQuery(disc, tuple(sorted(ram + (bad,))), kind, level, False)
        else:
            yield SweepQuery(disc, ram, rng.choice(KINDS[1:]), rng.choice(ram), False)


class QuarticQuery(NamedTuple):
    disc: int
    poly: str
    subfield: int
    kind: str
    level: int | None

    @property
    def subgroup(self) -> str:
        return self.kind if self.level is None else f"{self.kind}:{self.level}"

    @property
    def argv(self) -> tuple[str, ...]:
        return (
            "quartic", "--poly", self.poly, "--subfield", str(self.subfield),
            "--subgroup", self.subgroup, "--infinite-conjugate-assert",
            "--zeta-bound", str(QUARTIC_ZETA_BOUND),
        )


def quartic_queries(seed: int) -> Iterator[QuarticQuery]:
    """Endless quartic-cli query stream.  Fields come in blocks that hold
    each of the six fields once, in a seeded order, so every run covers
    the fields evenly whatever its length; the subgroup kind and the
    level prime are drawn per query, and drawn again while they name a
    query in QUARTIC_KNOWN_DEFECTS."""
    rng = random.Random(f"quartic-cli:{seed}")
    while True:
        block = list(QUARTIC_FIELDS)
        rng.shuffle(block)
        for disc, poly, sub in block:
            while True:
                kind = rng.choice(KINDS)
                level = None if kind == "full" else rng.choice(QUARTIC_LEVELS)
                q = QuarticQuery(disc, poly, sub, kind, level)
                if (disc, q.subgroup) not in QUARTIC_KNOWN_DEFECTS:
                    break
            yield q


def all_quartic_queries() -> list[QuarticQuery]:
    """Every query of the quartic-cli fields, subgroup kinds and levels,
    QUARTIC_KNOWN_DEFECTS included."""
    out = []
    for disc, poly, sub in QUARTIC_FIELDS:
        out.append(QuarticQuery(disc, poly, sub, "full", None))
        for kind in KINDS[1:]:
            for level in QUARTIC_LEVELS:
                out.append(QuarticQuery(disc, poly, sub, kind, level))
    return out
