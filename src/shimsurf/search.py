"""Bounded classification search over real quadratic base fields.

For each admissible surface type e in {12, 16, ..., 36} the exact Euler
number identity  e = I * (B/12) * prod (p - 1)^2  (B the weight-2
generalized Bernoulli number of the field character, one factor per
rational prime under a conjugate pair of ramified places, I the subgroup
index) bounds everything: B/12 <= 36 with 225 B^2 >= d^3 caps the field
discriminant at 347, and (p - 1)^2 <= 12 e / B the usable split primes.  Enumeration
emits every (discriminant, type, ramification, index) solution; pruning
then discards rows whose index is not divisible by the order of some
torsion element certified in the full unit group, since a torsion-free
subgroup's index must be divisible by every such order.  The survivors
are diffed against the embedded fourteen-row classification table.

The necessary conditions implemented here are not complete: a handful of
rows (at discriminants 21, 33, 41, 57, 65) pass all of them yet admit no
torsion-free group; they are reported as extras rather than suppressed.

Two sharper criteria have been tried and must not be retried:

* Klein-four or dihedral subgroups of the unit group, to force a larger
  index.  They do not exist: every finite subgroup of the group is
  cyclic.  A finite subgroup fixes a point of H x H (Cartan), so it lies
  in a point stabilizer, which is abelian.  Two commuting elements whose
  lifts to the quaternion algebra B commute lie in one CM field L over
  the base K, where x -> x/conj(x) embeds the torsion of L^x/K^x into the
  cyclic group of roots of unity of L.  Lifts a, b that anticommute, with
  a^2 and b^2 in K, give B = (a^2, b^2)_K, and both squares are negative
  at each split real place, because the reduced norms are positive
  there; then B would ramify at places where it is split.  Elements of
  odd order cannot anticommute.
* Requiring the Borel, unipotent or principal index at a single
  conjugation-stable prime.  It prunes the reference row
  (e, D, ramification, index) = (16, 13, (3,), 12).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import NamedTuple

from .exact import InvariantError, primes_up_to
from .quadfield import (
    Splitting,
    bernoulli2,
    field_from_disc,
    fundamental_discriminants,
    primes_above,
    splitting_type,
)
from .torsion import gamma1_torsion_orders

__all__ = [
    "DEFAULT_TYPES",
    "DISCRIMINANT_BOUND",
    "RowStatus",
    "CandidateRow",
    "enumerate_candidates",
    "prune_by_torsion",
    "REFERENCE_ROWS",
    "DiffReport",
    "compare_to_reference",
    "run_pipeline",
]

DEFAULT_TYPES = (12, 16, 20, 24, 28, 32, 36)

# Enumeration ceiling.  A row of type e has B/12 <= e, and every real
# quadratic field has 225 B^2 >= d^3: zeta_k(2) = zeta(2) L(2, chi) >=
# zeta(4) = pi^4/90, so B = 24 zeta_k(-1) = 6 d^(3/2) zeta_k(2)/pi^4 >=
# d^(3/2)/15.  The cutoff d^3 <= 225 (12 e)^2 this gives (347 for e = 36)
# must lie within the ceiling; the largest d attaining B/12 <= 36 is 317.
DISCRIMINANT_BOUND = 372


class RowStatus(Enum):
    CANDIDATE = "Candidate"
    PRUNED = "Pruned"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _CandidateRowFields(NamedTuple):
    D: int
    B2: Fraction
    e: int
    ram_primes: tuple[int, ...]
    index: int
    status: RowStatus = RowStatus.CANDIDATE
    reason: str = ""


class CandidateRow(_CandidateRowFields):
    """One solution of the Euler number identity: a field (by fundamental
    discriminant), a surface type, the rational primes under the ramified
    conjugate pairs, and the subgroup index."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CandidateRow:
        self = super().__new__(cls, *args, **kwargs)
        product = 1
        for p in self.ram_primes:
            product *= (p - 1) ** 2
        if Fraction(self.e) != self.index * self.B2 / 12 * product:  # kept under python -O
            raise InvariantError("row violates the exact Euler number identity")
        return self

    @property
    def key(self) -> tuple[int, int, tuple[int, ...], int]:
        return (self.e, self.D, self.ram_primes, self.index)


def enumerate_candidates(e_values: tuple[int, ...] = DEFAULT_TYPES) -> list[CandidateRow]:
    """All exact solutions of the identity over fundamental discriminants
    5 <= D <= the cutoff for the largest requested type (347 for 36),
    nonempty sets of split rational primes, and positive integer indices,
    for the requested types; sorted by (e, D, index)."""
    types = sorted(set(e_values))
    if not types or any(e % 4 != 0 or not 12 <= e <= 36 for e in types):
        raise ValueError(f"surface types must be multiples of 4 in [12, 36], got {e_values}")
    rows: list[CandidateRow] = []
    e_max = max(types)
    cutoff = max(d for d in range(DISCRIMINANT_BOUND + 2) if d**3 <= 225 * (12 * e_max) ** 2)
    if cutoff > DISCRIMINANT_BOUND:
        raise InvariantError(f"discriminant cutoff {cutoff} exceeds {DISCRIMINANT_BOUND}")
    for disc in fundamental_discriminants(5, cutoff):
        bern = bernoulli2(disc)
        if bern / 12 > e_max:
            continue
        field = field_from_disc(disc)
        # any usable prime satisfies (p - 1)^2 <= 12 e_max / B
        r_max = Fraction(12 * e_max) / bern
        prime_cap = 1 + isqrt(int(r_max))
        split = [p for p in primes_up_to(prime_cap) if splitting_type(field, p) is Splitting.SPLIT]
        for e in types:
            ratio = Fraction(12 * e) / bern
            for size in range(1, len(split) + 1):
                for subset in combinations(split, size):
                    product = 1
                    for p in subset:
                        product *= (p - 1) ** 2
                    index = ratio / product
                    if index >= 1 and index.denominator == 1:
                        rows.append(
                            CandidateRow(D=disc, B2=bern, e=e, ram_primes=subset, index=int(index))
                        )
    rows.sort(key=lambda r: (r.e, r.D, r.index, r.ram_primes))
    return rows


def _revised(row: CandidateRow, reason: str, status: RowStatus | None = None) -> CandidateRow:
    """The row with a new reason, and status if given, built and checked
    again by its constructor."""
    return CandidateRow(row.D, row.B2, row.e, row.ram_primes, row.index, status or row.status, reason)


def prune_by_torsion(rows: list[CandidateRow]) -> list[CandidateRow]:
    """Keep a row Candidate exactly when every certified torsion order of
    the full unit group divides its index; otherwise mark it Pruned with
    the smallest failing order."""
    orders_cache: dict[tuple[int, tuple[int, ...]], frozenset[int]] = {}
    out: list[CandidateRow] = []
    for row in rows:
        cache_key = (row.D, row.ram_primes)
        orders = orders_cache.get(cache_key)
        if orders is None:
            field = field_from_disc(row.D)
            ram = [q for p in row.ram_primes for q in primes_above(field, p)]
            orders = gamma1_torsion_orders(field, ram)
            orders_cache[cache_key] = orders
        failing = sorted(m for m in orders if row.index % m != 0)
        if failing:
            m = failing[0]
            reason = f"order {m} torsion, {m} does not divide index {row.index}"
            out.append(_revised(row, reason, RowStatus.PRUNED))
        else:
            out.append(row)
    return out


# The fourteen classification rows: (e, D, rational primes under the
# ramification, index).
REFERENCE_ROWS: tuple[tuple[int, int, tuple[int, ...], int], ...] = (
    (12, 17, (2,), 18),
    (16, 13, (3,), 12),
    (16, 17, (2,), 24),
    (20, 17, (2,), 30),
    (24, 8, (7,), 4),
    (24, 13, (3,), 18),
    (24, 17, (2,), 36),
    (24, 33, (2,), 12),
    (28, 17, (2,), 42),
    (32, 13, (3,), 24),
    (32, 17, (2,), 48),
    (32, 28, (3,), 6),
    (36, 17, (2,), 54),
    (36, 33, (2,), 18),
)


class DiffReport(NamedTuple):
    """Surviving rows classified against the embedded reference table.
    Extras carry the caveat that only necessary conditions are checked."""

    matched: tuple[CandidateRow, ...]
    missing: tuple[tuple[int, int, tuple[int, ...], int], ...]
    extras: tuple[CandidateRow, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.matched), len(self.missing), len(self.extras))


def compare_to_reference(rows: list[CandidateRow]) -> DiffReport:
    """Diff the Candidate rows against the embedded reference table."""
    reference = set(REFERENCE_ROWS)
    candidates = [r for r in rows if r.status is RowStatus.CANDIDATE]
    found = {r.key for r in candidates}
    matched = tuple(
        _revised(r, "matches the reference classification")
        for r in candidates
        if r.key in reference
    )
    extras = tuple(
        _revised(r, "beyond the reference classification: passes the documented necessary conditions only")
        for r in candidates
        if r.key not in reference
    )
    missing = tuple(t for t in REFERENCE_ROWS if t not in found)
    return DiffReport(matched=matched, missing=missing, extras=extras)


def run_pipeline(
    e_values: tuple[int, ...] = DEFAULT_TYPES,
) -> tuple[list[CandidateRow], DiffReport]:
    """Enumerate, prune, and diff; returns every row (pruned ones carry
    their pruning reason, surviving ones their classification against the
    reference) together with the diff report."""
    pruned = prune_by_torsion(enumerate_candidates(e_values))
    report = compare_to_reference(pruned)
    annotated_reason = {r.key: r.reason for r in report.matched + report.extras}
    rows = [
        _revised(r, annotated_reason[r.key]) if r.status is RowStatus.CANDIDATE else r
        for r in pruned
    ]
    return rows, report
