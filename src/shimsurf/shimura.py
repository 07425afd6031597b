"""Quaternion algebras over totally real fields and their arithmetic
groups: congruence-subgroup indices, and one admissibility report per
algebra and subgroup, which certifies the involution of second kind, the
invariant maximal order, level invariance, torsion and the Euler number
of the associated surface.  The report is the one public way to each of
these facts.

An algebra is recorded by its base field and the set of finite ramified
places, kept conjugate-closed over the nontrivial automorphism of the
base over its fixed field (the rationals for a quadratic base, the
declared quadratic subfield for a quartic one).  A surface algebra is
unramified at exactly two infinite places; over a quartic base it ramifies
at the two real places over one real place of the subfield.

Euler numbers are exact rationals for both degrees,
index * 2^(3-n) * zeta_k(-1) * prod (N(v) - 1), one factor per finite
ramified place v, with zeta_k(-1) from Siegel's formula.  A quadratic
base is read through ``quadfield.bernoulli2`` of its discriminant,
B_2 = 24 zeta_k(-1) from Cohen's closed sum, so the Euler number is
index * B_2/12 * prod (N(v) - 1), where a conjugate pair of places over a
split p gives (p - 1)^2; a quartic base is read through its ``zeta_minus1()``,
which hands its defining polynomial to the lattice kernel
(``siegel.zeta_minus1``).  This is the package's only way to an Euler
number; the float volume formula the tests check it against lives in
``tests/float_reference.py``.

Each fact is proven once, at the public boundary.  A field, a place and
a subgroup spec check themselves when built, so an algebra admits its
base by type.  ``QuaternionAlgebra`` admits only ramification with an
involution of second kind (Albert-Riehm-Scharlau): over a quadratic
base, a non-empty union of conjugate pairs over split primes, by
torsion's ramification rule, which the public torsion functions share.
``quadratic_algebra`` checks its primes and builds the algebra through
``QuaternionAlgebra._trusted``, since the places it derives are distinct
conjugate pairs over that field by construction.
``admissibility_report`` checks that it got an algebra and a subgroup
spec, admits the level against the algebra's ramification, and then
reads level invariance, the torsion decision and the Euler number from
unchecked kernels.  The involution and the invariant order need no
kernel: every algebra has the involution, and the invariant order fails
only over a quartic base unramified over its subfield.  A check whose
text names no query value is a module constant: the involution over a
quartic base, both invariant-order checks, the full group's level, a
level at an inert or ramified quadratic place and a level at a quartic
place equal to its conjugate.

The report path takes no Python-level hop that adds nothing to the
answer.  It reads ``check.ok``, not ``bool(check)``, whose ``__bool__``
stays for callers; a level's own ``norm``, not ``Place.norm`` through
``residue_degree``, and a ramified place's rational prime ``p``, which
is its norm, the place being split; it picks the inert or ramified
level check by ``is``, since hashing a ``Splitting`` member runs
``Enum.__hash__``; and it tests a place's field for identity with the
base before comparing the two as tuples.  It reads B_2 by ``bernoulli2(A.base.disc)``, not
through the field's method, and B_2 and the Euler number as ints, by one
``as_integer_ratio()`` each, not by the ``numerator`` and
``denominator`` properties of a ``Fraction``.  It builds an admissible
report's ``SurfaceInvariants`` directly, giving all five fields so that
the record takes the constructor's direct route, with its own check,
since the obstruction test has just proven e a positive multiple of 4;
and it builds the plain ``AdmissibilityReport`` by ``tuple.__new__``,
not through the NamedTuple's ``_make``.

On this path a check, verdict or obstruction whose text names no query
value is built once: the constants above and torsion's fixed verdicts.
One whose text names only an int is built once per int, in a bounded
cache keyed by that int and never by a record: the involution check per
number of conjugate pairs, the split-off level check per level prime p,
the torsion obstruction per order m, and torsion's rule A, B and C
verdicts per p.  Nothing is cached per algebra, since a sweep touches
thousands of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .exact import CheckedRecord, factorize, is_int, require_int
from .quadfield import _INERT, _RAMIFIED, Field, Place, QuadField, QuadPrime, _split_pair, bernoulli2
from .torsion import (
    _BOREL,
    _FULL,
    _PRINCIPAL,
    _TORSION,
    _UNIPOTENT,
    _UNKNOWN,
    SubgroupKind,
    TorsionVerdict,
    _UNRAMIFIED_QUADRATIC,
    _require_level,
    _require_ramification,
    _verdict,
)

if TYPE_CHECKING:
    from .geometry import SurfaceInvariants
    from .quartic import QuarticField


class Check(NamedTuple):
    """A boolean verdict carrying its justification."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def subgroup_index(kind: SubgroupKind, s: int) -> int:
    """Index in the projectivized unit group of the congruence subgroup of
    the given kind at a level prime of norm s (a prime power)."""
    require_int(s, "the residue field size")
    if s < 2 or len(factorize(s)) != 1:
        raise ValueError(f"the residue field size must be a prime power, got {s!r}")
    return _index(kind, s)


def _index(kind: SubgroupKind, s: int) -> int:
    """``subgroup_index`` for the norm s of a place, a prime power."""
    if kind is _FULL:
        return 1
    if kind is _BOREL:
        return s + 1
    if kind is _UNIPOTENT:
        return (s * s - 1) // math.gcd(s - 1, 2)
    if kind is _PRINCIPAL:
        return s * (s * s - 1) // math.gcd(s - 1, 2)
    raise ValueError(f"unknown subgroup kind {kind!r}")  # pragma: no cover


class _QuaternionAlgebraFields(NamedTuple):
    base: Field
    ram: tuple[Place, ...]


class QuaternionAlgebra(CheckedRecord, _QuaternionAlgebraFields):
    """A quaternion algebra over a totally real field K, determined by its
    finite ramification; unramified at exactly two infinite places.

    Every algebra built has an involution of second kind over the fixed
    field k of K (the rationals for a quadratic base, the declared subfield
    for a quartic one).  By Albert-Riehm-Scharlau it has one iff its
    corestriction to k splits (Knus, Merkurjev, Rost, Tignol, The Book of
    Involutions, 1998, Thm. 3.1): at a place of k with two places of K
    over it, the algebra ramifies at both or at neither; at a place with
    one, it is split there.  The check is torsion's ramification rule,
    which the public torsion functions share.  Over a quadratic base it
    refuses (ValueError) a ramified place that conjugation fixes and one
    whose conjugate is not ramified, naming the least such p; the infinite
    places pass automatically over k = Q.  The finite ramification is then
    a non-empty union of conjugate pairs, hence even, as Hilbert
    reciprocity requires of an algebra split at both real places, so no
    parity test is needed.  A quartic base admits no finite ramification,
    and its infinite places pass by the choice in ``quartic_algebra``.

    So that a record stays hashable and one algebra is one record, ``ram``
    must be a tuple, refused (ValueError) before the rule runs, and its
    places must then be in the (p, tag) order that ``quadratic_algebra``
    builds."""

    __slots__ = ()

    def _check(self) -> None:
        ram = self.ram
        if not isinstance(ram, tuple):
            raise ValueError(f"the ramified places must be a tuple, got {type(ram).__name__}")
        _require_ramification(self.base, ram)
        for a, b in zip(ram, ram[1:]):
            if (a.p, a.tag) > (b.p, b.tag):
                raise ValueError(f"the ramified places must be in (p, tag) order: {a} comes before {b}")

    @property
    def ram_rational_primes(self) -> tuple[int, ...]:
        return tuple(sorted({r.p for r in self.ram}))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        places = ", ".join(str(r) for r in self.ram) or "no finite place"
        return f"A({self.base}; {places})"


def quadratic_algebra(field: QuadField, rational_primes: Iterable[int]) -> QuaternionAlgebra:
    """The algebra over the quadratic field ramified at the conjugate pair
    of places over each given rational prime; every prime must split.

    Built without the algebra's check: the field checked itself when built,
    each prime (an ``int``, checked before duplicates merge) and its
    splitting are checked here, so the places are distinct conjugate pairs
    over the field, in (p, tag) order, and there is at least one pair.
    Each pair is built once per discriminant and prime (``_split_pair``)."""
    if not isinstance(field, QuadField):
        raise ValueError(f"{field!r} is not a real quadratic field")
    primes = list(rational_primes)
    for p in primes:
        if not is_int(p):
            raise ValueError(f"ramified prime must be an int, got {p!r}")
    ram: list[QuadPrime] = []
    for p in sorted(set(primes)):
        pair = _split_pair(field.disc, p)
        if pair is None:
            raise ValueError(
                f"{p} does not split in {field}; the finite ramification must "
                "consist of conjugate pairs of distinct places"
            )
        ram.extend(pair)
    if not ram:
        raise ValueError(_UNRAMIFIED_QUADRATIC)
    return QuaternionAlgebra._trusted((field, tuple(ram)))


def quartic_algebra(field: QuarticField) -> QuaternionAlgebra:
    """The algebra over the quartic field with no finite ramification,
    ramified at the two real places over one real place of the subfield:
    the real roots of one quadratic factor of the defining polynomial over
    the subfield (certified by ``quartic_new``), which the subfield
    automorphism swaps.  The choice of real place changes no fact of the
    report: the Euler number, the torsion decision (a CM field splits no
    real place) and the level checks read no infinite place."""
    return QuaternionAlgebra(field, ())


_CONJUGATE_REAL_PAIR = Check(
    True,
    "no finite ramification, and the ramified infinite places are the two real places over "
    "one real place of the fixed field, which conjugation swaps, so the corestriction to the "
    "fixed field splits (Albert-Riehm-Scharlau)",
)


@lru_cache(maxsize=1 << 6)
def _paired(pairs: int) -> Check:
    """The involution check of a quadratic algebra ramified at this many
    conjugate pairs, built once per count: keyed by the int, never by a
    record, which compares as its tuple of values."""
    return Check(
        True,
        f"the finite ramification consists of {pairs} conjugate pair(s) of "
        "distinct places over rational primes split in the base field; the "
        "infinite-place condition is automatic over a real quadratic base",
    )


# The invariant-order checks.  The only obstruction to a maximal order
# stable under the involution arises when the base is unramified over the
# fixed field and the number of ramified places of the algebra, finite
# plus ramified infinite ones, is 2 mod 4.  Only a quartic base can be
# unramified over its fixed field (a real quadratic one has d_base >= 5
# over d_Q = 1), which the conductor-discriminant relation
# d_base = d_fixed^2 detects; a quartic algebra ramifies exactly at two
# real places, so there the count is 2.
_RAMIFIED_OVER_FIXED = Check(
    True,
    "the base field is ramified over the fixed field of the involution, "
    "so an invariant maximal order always exists",
)
_UNRAMIFIED_OVER_FIXED = Check(
    False,
    "the base field is unramified over the fixed field and the algebra "
    "has 2 ramified places (finite plus ramified infinite ones), "
    "which is 2 mod 4: the exceptional case without an invariant maximal order",
)

_FULL_LEVEL = Check(True, "the full unit group needs no level prime")
# The level check at an inert and at a ramified quadratic place.
_INERT_LEVEL, _RAMIFIED_LEVEL = (
    Check(True, f"the level prime is {s.value} over the fixed field, hence equal to its conjugate")
    for s in (_INERT, _RAMIFIED)
)
# The level check at a quartic place equal to its conjugate.
_STABLE_QUARTIC_LEVEL = Check(
    True, "no prime of the fixed field below it splits in the base field, hence equal to its conjugate"
)


def _level_invariance(q: Place) -> Check:
    """Whether the congruence subgroups at the admitted level q are
    preserved by the involution, i.e. whether conjugation maps q to
    itself.  The quadratic constant is picked by ``is``, since hashing a
    ``Splitting`` member runs the Python-level ``Enum.__hash__``."""
    if isinstance(q, QuadPrime):
        splitting = q.splitting
        if splitting is _INERT:
            return _INERT_LEVEL
        if splitting is _RAMIFIED:
            return _RAMIFIED_LEVEL
    elif q.is_conjugation_stable():
        return _STABLE_QUARTIC_LEVEL
    return _split_off(q.p)


@lru_cache(maxsize=1 << 8)
def _split_off(p: int) -> Check:
    """The failed level check at a level prime over p that splits off from
    its conjugate, built once per p, keyed by the int."""
    return Check(
        False,
        f"the level prime over {p} splits off from its conjugate, so the "
        "congruence subgroup is not preserved by the involution",
    )


def _euler_quadratic(A: QuaternionAlgebra, index: int) -> Fraction:
    """Exact Euler number of the surface for a subgroup of the given index
    over a quadratic base, index * B_2/12 * prod (N(v) - 1), one factor
    per finite ramified place v: one integer numerator, then one Fraction.
    Every ramified place lies over a prime p split in the base (the
    ramification rule), so N(v) = p and its factor is ``v.p - 1``, read
    from the tuple field with no ``norm`` property.  B_2 is read from
    ``bernoulli2`` of the base's discriminant, not through the field's
    method, and as ints by one ``as_integer_ratio()``, not by its
    ``numerator`` and ``denominator`` properties."""
    numerator, denominator = bernoulli2(A.base.disc).as_integer_ratio()
    numerator *= index
    for v in A.ram:
        numerator *= v.p - 1
    return Fraction(numerator, 12 * denominator)


class _SubgroupSpecFields(NamedTuple):
    kind: SubgroupKind
    level: Place | None = None


class SubgroupSpec(CheckedRecord, _SubgroupSpecFields):
    """Which congruence subgroup to take: the full projectivized unit
    group, or the Borel / unipotent / principal subgroup at a level
    prime.  The spec knows no algebra, so it checks only that the level
    is a ``Place``; the level must also be unramified in the algebra,
    which ``admissibility_report`` checks by the level rule."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.kind, SubgroupKind):
            raise ValueError(f"subgroup kind {self.kind!r} is not a SubgroupKind")
        if (self.kind is _FULL) != (self.level is None):
            raise ValueError("a level prime is required exactly for the non-full subgroup kinds")
        if self.level is not None and not isinstance(self.level, Place):
            raise ValueError(f"level prime {self.level!r} is not a Place")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is _FULL:
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


def admissibility_report(A: QuaternionAlgebra, spec: SubgroupSpec) -> AdmissibilityReport:
    """Run the full pipeline for one algebra and subgroup.  The Euler
    number is exact over both bases, and linear in the index: the full
    group's is ``euler / index``.

    The level is admitted once, by the level rule, before anything reads
    it (ValueError when it is no place over the base field or lies over a
    rational prime under the ramification); the algebra's ramification
    was admitted when it was built, and with it the involution, so the
    involution and invariant-order checks are constants of the base's
    degree (and, over a quartic base, of d_K = d_k^2)."""
    if not isinstance(A, QuaternionAlgebra):
        raise ValueError(f"{A!r} is not a QuaternionAlgebra")
    if not isinstance(spec, SubgroupSpec):
        raise ValueError(f"{spec!r} is not a SubgroupSpec")
    q = spec.level
    if q is None:
        index = 1
        level_ok = _FULL_LEVEL
    else:
        _require_level(A.base, A.ram, q)
        level_ok = _level_invariance(q)
        index = _index(spec.kind, q.norm)
    torsion = _verdict(spec.kind, A.base, A.ram, q)

    base = A.base
    if base.degree == 2:
        inv = _paired(len(A.ram) // 2)
        order_ok = _RAMIFIED_OVER_FIXED
        euler = _euler_quadratic(A, index)
    else:  # index * 2^(3-4) * zeta_K(-1); a quartic algebra has no finite ramification
        inv = _CONJUGATE_REAL_PAIR
        order_ok = _UNRAMIFIED_OVER_FIXED if base.disc == base.subfield.disc**2 else _RAMIFIED_OVER_FIXED
        euler = index * base.zeta_minus1() / 2

    obstructions = []
    if not order_ok.ok:
        obstructions.append("no conjugation-invariant maximal order")
    if not level_ok.ok:
        obstructions.append("level not invariant under conjugation")
    if torsion.verdict is _TORSION:
        obstructions.append(_torsion_of_order(torsion.order))
    elif torsion.verdict is _UNKNOWN:
        obstructions.append("torsion undecided")
    e, denominator = euler.as_integer_ratio()
    if denominator != 1 or e <= 0 or e % 4:
        obstructions.append(f"Euler number {euler} is not a positive integer divisible by 4")
    if obstructions:
        e = surface = None
    else:
        # e is a positive multiple of 4, so the record is built directly,
        # with every field given, and its own check still runs.
        chi = e // 4
        surface = _surface_record()(e, 2 * e, chi, chi - 1, 0)
    return tuple.__new__(
        AdmissibilityReport, (A, spec, inv, order_ok, level_ok, index, euler, torsion, tuple(obstructions), e, surface)
    )


@lru_cache(maxsize=1 << 8)
def _torsion_of_order(m: int) -> str:
    """The torsion obstruction for order m, built once per m."""
    return f"torsion of order {m}"


@lru_cache(maxsize=1)
def _surface_record() -> type[SurfaceInvariants]:
    """``geometry.SurfaceInvariants``, imported by the first admissible
    report: only an admissible report has a surface, so a NOT ADMISSIBLE
    one never loads geometry."""
    from .geometry import SurfaceInvariants

    return SurfaceInvariants
