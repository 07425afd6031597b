"""Quaternion algebras over totally real fields and their arithmetic
groups: existence tests for involutions of second kind, invariant maximal
orders and level invariance, congruence-subgroup indices, and Euler
numbers of the associated surfaces.

An algebra is recorded by its base field and the set of finite ramified
places, kept conjugate-closed over the nontrivial automorphism of the
base over its fixed field (the rationals for a quadratic base, the
declared quadratic subfield for a quartic one).  The number of ramified
infinite places is implied by the degree: a surface algebra is unramified
at exactly two infinite places.

Euler numbers are exact rationals for both degrees,
index * 2^(3-n) * zeta_k(-1) * prod (N - 1)^2, with zeta_k(-1) from
Siegel's formula.  A quadratic base is read through its
``bernoulli2()``, B_2 = 24 zeta_k(-1) from Cohen's closed sum
(``quadfield.bernoulli2``), so the Euler number is index * B_2/12 *
prod (p - 1)^2; a quartic base is read through its ``zeta_minus1()``,
which hands its defining polynomial to the lattice kernel
(``siegel.zeta_minus1``).  This is the package's only way to an Euler
number; the float volume formula the tests check it against lives in
``tests/float_reference.py``.

Each fact is proven once, at the public boundary.  ``quadratic_algebra``
checks its field and primes and builds the algebra through
``QuaternionAlgebra._trusted``, since the places it derives are distinct
conjugate pairs over that field by construction.  ``admissibility_report``
checks that it got an algebra and a subgroup spec, admits the level once,
through the torsion verdict it calls, and then reads level invariance and
the Euler number from unchecked kernels.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .exact import CheckedRecord, factorize
from .geometry import SurfaceInvariants, shimura_surface_invariants
from .quadfield import Place, QuadField, QuadPrime, Splitting, _is_field, primes_above
from .torsion import (
    TorsionVerdict,
    Verdict,
    _require_admitted,
    borel_torsion_verdict,
    full_torsion_verdict,
    principal_torsion_verdict,
    unipotent_torsion_verdict,
)

if TYPE_CHECKING:
    from .quartic import QuarticField
    from .torsion import BaseField

__all__ = [
    "Check",
    "SubgroupKind",
    "SubgroupSpec",
    "QuaternionAlgebra",
    "quadratic_algebra",
    "quartic_algebra",
    "subgroup_index",
    "involution_exists",
    "invariant_order_exists",
    "level_invariance_ok",
    "euler_number_quadratic",
    "AdmissibilityReport",
    "admissibility_report",
]


class Check(NamedTuple):
    """A boolean verdict carrying its justification."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


class SubgroupKind(Enum):
    FULL = "full"
    BOREL = "borel"
    UNIPOTENT = "unipotent"
    PRINCIPAL = "principal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def subgroup_index(kind: SubgroupKind, s: int) -> int:
    """Index in the projectivized unit group of the congruence subgroup of
    the given kind at a level prime of norm s (a prime power)."""
    if not isinstance(s, int) or s < 2 or len(factorize(s)) != 1:
        raise ValueError(f"the residue field size must be a prime power, got {s!r}")
    return _index(kind, s)


def _index(kind: SubgroupKind, s: int) -> int:
    """``subgroup_index`` for the norm s of a place, a prime power."""
    t = math.gcd(s - 1, 2)
    if kind is SubgroupKind.FULL:
        return 1
    if kind is SubgroupKind.BOREL:
        return s + 1
    if kind is SubgroupKind.UNIPOTENT:
        return (s * s - 1) // t
    if kind is SubgroupKind.PRINCIPAL:
        return s * (s * s - 1) // t
    raise ValueError(f"unknown subgroup kind {kind!r}")  # pragma: no cover


_UNRAMIFIED_QUADRATIC = (
    "a surface algebra over a quadratic field must ramify somewhere "
    "finite, otherwise it is a matrix algebra and the quotient is "
    "non-compact"
)


class _QuaternionAlgebraFields(NamedTuple):
    base: BaseField
    ram: tuple[Place, ...]
    # Only meaningful over a quartic base, where the conjugacy of the two
    # unramified infinite places under the subfield automorphism cannot be
    # checked without archimedean embeddings and is taken on assertion.
    infinite_conjugate_asserted: bool = False


class QuaternionAlgebra(CheckedRecord, _QuaternionAlgebraFields):
    """A quaternion algebra over a totally real field, determined by its
    finite ramification; unramified at exactly two infinite places."""

    __slots__ = ()

    def _check(self) -> None:
        degree = self.base.degree
        if degree == 2 and not _is_field(self.base):
            raise ValueError(f"{self.base!r} is not a real quadratic field")
        _require_admitted(self.base, self.ram)
        if len(set(self.ram)) != len(self.ram):
            raise ValueError("duplicate ramified place")
        if degree == 2 and not self.ram:
            raise ValueError(_UNRAMIFIED_QUADRATIC)
        if degree not in (2, 4):
            raise ValueError(f"unsupported base field degree {degree}")

    @property
    def degree(self) -> int:
        return self.base.degree

    @property
    def ram_rational_primes(self) -> tuple[int, ...]:
        return tuple(sorted({r.p for r in self.ram}))

    @property
    def ram_norms(self) -> tuple[int, ...]:
        """Norms of the finite ramified places, one per conjugation orbit
        (conjugate places lie over the same rational prime and share
        their norm)."""
        norms = {r.p: r.norm for r in self.ram}
        return tuple(norms[p] for p in sorted(norms))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        places = ", ".join(str(r) for r in self.ram) or "no finite place"
        return f"A({self.base}; {places})"


def quadratic_algebra(field: QuadField, rational_primes: Iterable[int]) -> QuaternionAlgebra:
    """The algebra over the quadratic field ramified at the conjugate pair
    of places over each given rational prime; every prime must split.

    Built without the algebra's check: after the field, each prime (an
    ``int``, checked before duplicates merge) and its splitting are
    checked here, the places are distinct conjugate pairs over the field,
    in (p, tag) order, and there is at least one pair."""
    if not _is_field(field):
        raise ValueError(f"{field!r} is not a real quadratic field")
    primes = list(rational_primes)
    for p in primes:
        if not isinstance(p, int):
            raise ValueError(f"ramified prime must be an int, got {p!r}")
    ram: list[QuadPrime] = []
    for p in sorted(set(primes)):
        above = primes_above(field, p)
        if len(above) != 2:
            raise ValueError(
                f"{p} does not split in {field}; the finite ramification must "
                "consist of conjugate pairs of distinct places"
            )
        ram.extend(above)
    if not ram:
        raise ValueError(_UNRAMIFIED_QUADRATIC)
    return QuaternionAlgebra._trusted(field, tuple(ram), False)


def quartic_algebra(field: QuarticField, infinite_conjugate_asserted: bool = False) -> QuaternionAlgebra:
    """The algebra over a quartic field ramified exactly at the two
    infinite places left out of the surface construction; the user asserts
    those two places to be conjugate under the subfield automorphism."""
    return QuaternionAlgebra(field, (), infinite_conjugate_asserted=infinite_conjugate_asserted)


def involution_exists(A: QuaternionAlgebra) -> Check:
    """Whether the algebra admits an involution of second kind over the
    fixed field of the base: the finite ramified places must form
    conjugate pairs of distinct places, and the two unramified infinite
    places must be swapped (automatic over a quadratic base)."""
    if A.degree == 2:
        by_p: dict[int, list[QuadPrime]] = {}
        for r in A.ram:
            by_p.setdefault(r.p, []).append(r)
        for p, places in sorted(by_p.items()):
            if places[0].splitting is not Splitting.SPLIT:
                return Check(
                    False,
                    f"the place over {p} is fixed by conjugation ({p} does not split "
                    "in the base field), so it cannot be exchanged with a partner",
                )
            if len(places) != 2:
                return Check(
                    False,
                    f"the ramification over {p} is not conjugation-closed: only one "
                    "of the two conjugate places is ramified",
                )
        pairs = len(by_p)
        return Check(
            True,
            f"the finite ramification consists of {pairs} conjugate pair(s) of "
            "distinct places over rational primes split in the base field; the "
            "infinite-place condition is automatic over a real quadratic base",
        )
    # quartic base, empty finite ramification by construction
    if A.infinite_conjugate_asserted:
        return Check(
            True,
            "no finite ramification; the two unramified infinite places are "
            "asserted to be conjugate under the subfield automorphism (user assertion)",
        )
    return Check(
        False,
        "over a quartic base the two unramified infinite places must be conjugate "
        "under the subfield automorphism; this was not asserted",
    )


def invariant_order_exists(A: QuaternionAlgebra) -> Check:
    """Whether some maximal order is stable under the involution.  The
    only obstruction arises when the base is unramified over the fixed
    field and the number of ramified places of the algebra — finite ones
    plus ramified infinite ones — is congruent to 2 mod 4.  Only a quartic
    base can be unramified over its fixed field (a real quadratic one has
    d_base >= 5 over d_Q = 1), which the conductor-discriminant relation
    d_base = d_fixed^2 detects; a quartic algebra ramifies exactly at its
    two excluded infinite places, so there the count is 2."""
    return _invariant_order(A, involution_exists(A))


def _invariant_order(A: QuaternionAlgebra, inv: Check) -> Check:
    """``invariant_order_exists`` given the algebra's involution check."""
    if not inv:
        return Check(False, "no involution of second kind: " + inv.reason)
    if not (A.degree == 4 and A.base.disc == A.base.subfield.disc**2):
        return Check(
            True,
            "the base field is ramified over the fixed field of the involution, "
            "so an invariant maximal order always exists",
        )
    return Check(
        False,
        "the base field is unramified over the fixed field and the algebra "
        "has 2 ramified places (finite plus ramified infinite ones), "
        "which is 2 mod 4: the exceptional case without an invariant maximal order",
    )


def level_invariance_ok(A: QuaternionAlgebra, q: Place) -> Check:
    """Whether the congruence subgroups at the level prime q are preserved
    by the involution, i.e. whether conjugation maps q to itself.  q must
    be an unramified level of A, a place over its base field that lies
    over no rational prime under the ramification (ValueError otherwise)."""
    _require_admitted(A.base, A.ram, q)
    return _level_invariance(q)


def _level_invariance(q: Place) -> Check:
    """``level_invariance_ok`` for a level already admitted."""
    if q.is_conjugation_stable():
        detail = (
            f"the level prime is {q.splitting.value} over the fixed field"
            if isinstance(q, QuadPrime)
            else "no prime of the fixed field below it splits in the base field"
        )
        return Check(True, detail + ", hence equal to its conjugate")
    return Check(
        False,
        f"the level prime over {q.p} splits off from its conjugate, so the "
        "congruence subgroup is not preserved by the involution",
    )


def euler_number_quadratic(A: QuaternionAlgebra, index: int) -> Fraction:
    """Exact Euler number of the surface for a subgroup of the given index
    over a quadratic base: index * B_2/12 * prod (p - 1)^2, one factor per
    rational prime under the ramification."""
    if A.degree != 2:
        raise TypeError("exact Euler numbers via Bernoulli values need a quadratic base")
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"index must be a positive integer, got {index}")
    return _euler_quadratic(A, index)


def _euler_quadratic(A: QuaternionAlgebra, index: int) -> Fraction:
    """``euler_number_quadratic`` for a quadratic algebra and a positive
    integer index: one integer numerator, then one Fraction."""
    b2 = A.base.bernoulli2()
    numerator = index * b2.numerator
    for p in A.ram_rational_primes:
        numerator *= (p - 1) ** 2
    return Fraction(numerator, 12 * b2.denominator)


class _SubgroupSpecFields(NamedTuple):
    kind: SubgroupKind
    level: Place | None = None


class SubgroupSpec(CheckedRecord, _SubgroupSpecFields):
    """Which congruence subgroup to take: the full projectivized unit
    group, or the Borel / unipotent / principal subgroup at a level
    prime.  The spec knows no algebra, so it checks only that the level
    is a ``Place``; the level must also be unramified in the algebra,
    which every use against an algebra checks (``level_invariance_ok``,
    the torsion verdicts, ``admissibility_report``)."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.kind, SubgroupKind):
            raise ValueError(f"subgroup kind {self.kind!r} is not a SubgroupKind")
        if (self.kind is SubgroupKind.FULL) != (self.level is None):
            raise ValueError("a level prime is required exactly for the non-full subgroup kinds")
        if self.level is not None and not isinstance(self.level, Place):
            raise ValueError(f"level prime {self.level!r} is not a Place")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is SubgroupKind.FULL:
            return "full"
        return f"{self.kind.value}:{self.level.p}"


class AdmissibilityReport(NamedTuple):
    """Everything the pipeline certifies about one subgroup: the three
    involution-side checks, the index and Euler number, the torsion
    verdict, the obstructions to admissibility (one short phrase per
    failed condition, in that order), and — when there are none — the
    admissible type e and the surface invariants."""

    algebra: QuaternionAlgebra
    spec: SubgroupSpec
    involution_ok: Check
    invariant_order_ok: Check
    level_invariance_ok: Check
    index: int
    euler: Fraction
    torsion: TorsionVerdict
    obstructions: tuple[str, ...]
    admissible_type: int | None
    surface: SurfaceInvariants | None


_TORSION_DISPATCH = {
    SubgroupKind.BOREL: borel_torsion_verdict,
    SubgroupKind.UNIPOTENT: unipotent_torsion_verdict,
    SubgroupKind.PRINCIPAL: principal_torsion_verdict,
}


def admissibility_report(A: QuaternionAlgebra, spec: SubgroupSpec) -> AdmissibilityReport:
    """Run the full pipeline for one algebra and subgroup.  The Euler
    number is exact over both bases.

    The level is admitted once, by the public torsion verdict, which is
    the home of that check and runs before anything else reads the level
    (ValueError, with the message ``level_invariance_ok`` gives)."""
    if not isinstance(A, QuaternionAlgebra):
        raise ValueError(f"{A!r} is not a QuaternionAlgebra")
    if not isinstance(spec, SubgroupSpec):
        raise ValueError(f"{spec!r} is not a SubgroupSpec")
    inv = involution_exists(A)
    order_ok = _invariant_order(A, inv)
    if spec.kind is SubgroupKind.FULL:
        index = 1
        level_ok = Check(True, "the full unit group needs no level prime")
        torsion = full_torsion_verdict(A.base, A.ram)
    else:
        q = spec.level
        torsion = _TORSION_DISPATCH[spec.kind](A.base, A.ram, q)
        level_ok = _level_invariance(q)
        index = _index(spec.kind, q.norm)

    if A.degree == 2:
        euler = _euler_quadratic(A, index)
    else:  # index * 2^(3-4) * zeta_K(-1); a quartic algebra has no finite ramification
        euler = index * A.base.zeta_minus1() / 2

    obstructions = []
    if not inv:
        obstructions.append("no involution of second kind")
    if not order_ok:
        obstructions.append("no conjugation-invariant maximal order")
    if not level_ok:
        obstructions.append("level not invariant under conjugation")
    if torsion.verdict is Verdict.TORSION:
        obstructions.append(f"torsion of order {torsion.order}")
    elif torsion.verdict is Verdict.UNKNOWN:
        obstructions.append("torsion undecided")
    if euler.denominator != 1 or euler.numerator <= 0 or euler.numerator % 4:
        obstructions.append(f"Euler number {euler} is not a positive integer divisible by 4")
    admissible_type: int | None = None
    surface: SurfaceInvariants | None = None
    if not obstructions:
        admissible_type = euler.numerator
        surface = shimura_surface_invariants(admissible_type)
    return AdmissibilityReport(
        algebra=A,
        spec=spec,
        involution_ok=inv,
        invariant_order_ok=order_ok,
        level_invariance_ok=level_ok,
        index=index,
        euler=euler,
        torsion=torsion,
        obstructions=tuple(obstructions),
        admissible_type=admissible_type,
        surface=surface,
    )
