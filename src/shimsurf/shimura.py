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
Siegel's formula, read only through the base field's ``zeta_minus1()``:
a quadratic field answers with B_2/24 from Cohen's closed sum
(``quadfield.bernoulli2``), a quartic one hands its defining polynomial
to the lattice kernel (``siegel.zeta_minus1``).  The volume formula
with a floating zeta_k(2) stays as an independent cross-check
(``euler_number_general``), and a zeta_k(2) estimate handed to the
report must enclose the exact value.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import factorize, recognize_rational
from .geometry import SurfaceInvariants, shimura_surface_invariants
from .quadfield import QuadField, QuadPrime, Splitting, primes_above
from .quartic import QuarticField
from .torsion import (
    BaseField,
    Place,
    TorsionVerdict,
    Verdict,
    borel_torsion_verdict,
    full_torsion_verdict,
    principal_torsion_verdict,
    unipotent_torsion_verdict,
)

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
    "EulerEstimate",
    "euler_number_general",
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
    if s < 2 or len(factorize(s)) != 1:
        raise ValueError(f"the residue field size must be a prime power, got {s}")
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


class _QuaternionAlgebraFields(NamedTuple):
    base: BaseField
    ram: tuple[Place, ...]
    # Only meaningful over a quartic base, where the conjugacy of the two
    # unramified infinite places under the subfield automorphism cannot be
    # checked without archimedean embeddings and is taken on assertion.
    infinite_conjugate_asserted: bool = False


class QuaternionAlgebra(_QuaternionAlgebraFields):
    """A quaternion algebra over a totally real field, determined by its
    finite ramification; unramified at exactly two infinite places."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> QuaternionAlgebra:
        self = super().__new__(cls, *args, **kwargs)
        degree = self.base.degree
        for r in self.ram:
            if r.field != self.base:
                raise ValueError(f"ramified place {r} does not live over the base field")
        if len(set(self.ram)) != len(self.ram):
            raise ValueError("duplicate ramified place")
        if degree == 2:
            if not self.ram:
                raise ValueError(
                    "a surface algebra over a quadratic field must ramify somewhere "
                    "finite, otherwise it is a matrix algebra and the quotient is "
                    "non-compact"
                )
        elif degree == 4:
            if self.ram:
                raise ValueError("quartic base algebras are supported only with empty finite ramification")
        else:
            raise ValueError(f"unsupported base field degree {degree}")
        return self

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
    of places over each given rational prime; every prime must split."""
    primes = sorted(set(rational_primes))
    if not primes:
        raise ValueError("at least one ramified rational prime is required")
    ram: list[QuadPrime] = []
    for p in primes:
        above = primes_above(field, p)
        if len(above) != 2:
            raise ValueError(
                f"{p} does not split in {field}; the finite ramification must "
                "consist of conjugate pairs of distinct places"
            )
        ram.extend(above)
    ram.sort(key=lambda r: (r.p, r.tag))
    return QuaternionAlgebra(field, tuple(ram))


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
    inv = involution_exists(A)
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
    by the involution, i.e. whether conjugation maps q to itself."""
    if q.field != A.base:
        raise ValueError(f"level prime {q} does not live over the base field")
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
    if index < 1:
        raise ValueError(f"index must be a positive integer, got {index}")
    value = Fraction(index) * A.base.bernoulli2() / 12
    for p in A.ram_rational_primes:
        value *= (p - 1) ** 2
    return value


class EulerEstimate(NamedTuple):
    """A floating Euler number together with its rational recognition."""

    value: float
    recognized: Fraction | None
    tolerance: float
    max_den: int
    note: str


def euler_number_general(
    d_k: int,
    n: int,
    zeta2: float,
    ram_norms: Sequence[int],
    index: int,
    zeta2_error: float,
) -> EulerEstimate:
    """Euler number from the volume formula in arbitrary degree n:

        index * d_k^(3/2) * zeta_k(2) / (2^(2n-3) pi^(2n)) * prod (N - 1)^2

    with one norm per conjugation orbit of finite ramified places.  The
    zeta estimate's relative error (zeta2_error is an upper bound for the
    absolute error of zeta2) is propagated into a recognition tolerance,
    and the denominator cap is shrunk until at most one rational fits the
    error window, so a reported rational is unambiguous."""
    if n < 2:
        raise ValueError(f"the volume formula needs degree >= 2, got {n}")
    if not zeta2 > 1.0:
        raise ValueError(f"zeta_k(2) must exceed 1, got {zeta2}")
    if index < 1 or d_k < 1 or zeta2_error < 0:
        raise ValueError("index and discriminant must be positive, error nonnegative")
    value = index * d_k**1.5 * zeta2 / (2 ** (2 * n - 3) * math.pi ** (2 * n))
    for norm in ram_norms:
        value *= (norm - 1) ** 2
    tol = value * (zeta2_error / zeta2) + 1e-12 * (1.0 + abs(value))
    cap = int(math.isqrt(int(1.0 / (4.0 * tol)))) if 4.0 * tol < 1.0 else 1
    max_den = max(1, min(10_000, cap))
    recognized = recognize_rational(value, max_den=max_den, tol=tol)
    if recognized is None:
        note = f"no rational with denominator <= {max_den} fits within {tol:.3e}"
    else:
        note = f"unique rational within {tol:.3e} at denominators <= {max_den}"
    return EulerEstimate(value=value, recognized=recognized, tolerance=tol, max_den=max_den, note=note)


class _SubgroupSpecFields(NamedTuple):
    kind: SubgroupKind
    level: Place | None = None


class SubgroupSpec(_SubgroupSpecFields):
    """Which congruence subgroup to take: the full projectivized unit
    group, or the Borel / unipotent / principal subgroup at a level
    prime coprime to the ramification of the algebra."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SubgroupSpec:
        self = super().__new__(cls, *args, **kwargs)
        if (self.kind is SubgroupKind.FULL) != (self.level is None):
            raise ValueError("a level prime is required exactly for the non-full subgroup kinds")
        return self

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


def admissibility_report(
    A: QuaternionAlgebra,
    spec: SubgroupSpec,
    zeta2: float | None = None,
    zeta2_error: float | None = None,
) -> AdmissibilityReport:
    """Run the full pipeline for one algebra and subgroup.  The Euler
    number is exact over both bases.  A zeta_k(2) estimate, if supplied
    with its error bound (as ``zeta2_euler_product`` returns them), must
    enclose (2 pi^2)^n zeta_k(-1) / d_k^(3/2); ValueError otherwise."""
    if zeta2 is not None:
        if zeta2_error is None:
            raise ValueError("a zeta_k(2) estimate needs its error bound")
        exact = (2 * math.pi**2) ** A.degree * float(A.base.zeta_minus1()) / A.base.disc**1.5
        if not zeta2 * (1 - 1e-12) <= exact <= (zeta2 + zeta2_error) * (1 + 1e-12):
            raise ValueError(
                f"zeta_k(2) = {zeta2} (error bound {zeta2_error}) does not enclose the exact {exact}"
            )
    inv = involution_exists(A)
    order_ok = invariant_order_exists(A)
    if spec.kind is SubgroupKind.FULL:
        index = 1
        level_ok = Check(True, "the full unit group needs no level prime")
        torsion = full_torsion_verdict(A.base, A.ram)
    else:
        q = spec.level
        level_ok = level_invariance_ok(A, q)
        if q.p in A.ram_rational_primes:
            raise ValueError(
                f"the level prime lies over {q.p}, which meets the ramification of "
                "the algebra; congruence subgroups need an unramified level"
            )
        index = subgroup_index(spec.kind, q.norm)
        torsion = _TORSION_DISPATCH[spec.kind](A.base, A.ram, q)

    if A.degree == 2:
        euler = euler_number_quadratic(A, index)
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
    if not (euler.denominator == 1 and euler > 0 and euler % 4 == 0):
        obstructions.append(f"Euler number {euler} is not a positive integer divisible by 4")
    admissible_type: int | None = None
    surface: SurfaceInvariants | None = None
    if not obstructions:
        admissible_type = int(euler)
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
