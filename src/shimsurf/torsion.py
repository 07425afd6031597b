"""Torsion in projectivized unit groups of quaternion orders.

An element of finite order m in the projectivized units forces the trace
2 cos(pi/m) into the base field and amounts to an embedding of the CM
field base(zeta_n), where n = m for odd m and n = 2m for even m.  The
orders m = 2, 3 are candidates over every base; a real quadratic field
adds m = 4, 5 or 6 when its radicand is 2, 5 or 3; a quartic field adds those same
orders through its quadratic subfield, plus possibly m = 15, 8 or 10
when its discriminant collides with a degree-four real cyclotomic field
(those candidates are reported as undecided rather than resolved).

The embedding of base(zeta_n) into the algebra exists exactly when no
ramified place splits in base(zeta_n)/base, so everything reduces to
splitting computations in quadratic extensions:

* n = 3, 4 over a quadratic base: the extension sits inside the
  biquadratic field generated by sqrt(d) and sqrt(m), m = -3 or -1, and
  the verdict follows from the Kronecker symbols of the three quadratic
  subfield discriminants at p.
* n = 5, 8, 12 over the matching quadratic base (radicand 5, 2, 3): the
  extension is the full cyclotomic field of order n and the verdict
  follows from the ramification/residue degrees of p in it.
* n = 3, 4 over a quartic base at a prime not dividing 2m: Euler's
  criterion in the residue field.

Every ramified place is decided: the quadratic criteria cover every
candidate, and a quartic base has no finite ramification (the verdicts
refuse one, as the algebra layer does).  Only a level prime over a
quartic base can escape them, raising Undecidable, and the subgroup
verdict then degrades to UNKNOWN instead of guessing.

For a level prime q (a prime where the algebra is unramified) the
congruence subgroups at q satisfy: principal inside unipotent inside
upper-triangular (Borel) inside the full group.  The Borel subgroup has
torsion iff some candidate extension both embeds in the algebra and has
q split in it.  Prime-order torsion in the principal or unipotent
subgroup must have order equal to the residue characteristic of q, which
certifies freeness whenever that characteristic is not an available
order; 2- and 3-torsion in the principal subgroup are certified present
when the corresponding extension embeds and q splits in it.  The same
criteria decide the unipotent subgroup, which contains the principal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .exact import euler_phi, factorize, kronecker, multiplicative_order
from .quadfield import QuadField, QuadPrime, Splitting, fundamental_discriminant
from .quartic import QuarticField, QuarticPrime

BaseField = QuadField | QuarticField
Place = QuadPrime | QuarticPrime


class Undecidable(Exception):
    """The splitting question falls outside the implemented criteria."""


class Verdict(Enum):
    FREE = "free"
    TORSION = "torsion"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TorsionOrder:
    """A candidate order m of torsion, realized through roots of unity of
    order n.  `decided` is False when membership of the trace field in the
    base could not itself be settled."""

    m: int
    n: int
    decided: bool = True


# Quartic fields whose discriminant matches a degree-four real cyclotomic
# field; the corresponding torsion order cannot be confirmed or excluded
# from the data we keep, so the candidate is marked undecided.
_QUARTIC_TRACE_DISC = {1125: (15, 15), 2048: (8, 16), 2000: (10, 20)}

_QUAD_EXTRA_ORDER = {2: (4, 8), 3: (6, 12), 5: (5, 5)}

# radicand of the quadratic base over which base(zeta_n) is the full
# cyclotomic field of order n
_REAL_CYCLOTOMIC_RADICAND = {5: 5, 8: 2, 12: 3}


def possible_torsion_orders(field: BaseField) -> tuple[TorsionOrder, ...]:
    """Candidate torsion orders for the given totally real base field."""
    orders = [TorsionOrder(2, 4), TorsionOrder(3, 3)]
    degree = field.degree
    if degree == 2:
        extra = _QUAD_EXTRA_ORDER.get(field.d)
        if extra is not None:
            orders.append(TorsionOrder(*extra))
    elif degree == 4:
        extra = _QUAD_EXTRA_ORDER.get(field.subfield.d)
        if extra is not None:
            orders.append(TorsionOrder(*extra))
        undecided = _QUARTIC_TRACE_DISC.get(field.disc)
        if undecided is not None:
            orders.append(TorsionOrder(*undecided, decided=False))
    else:
        raise TypeError(f"unsupported base field {field!r}")
    return tuple(sorted(orders, key=lambda c: c.m))


_SYMBOL_TO_SPLITTING = {1: Splitting.SPLIT, -1: Splitting.INERT, 0: Splitting.RAMIFIED}


def _biquadratic_splitting(field: QuadField, p: int, m: int) -> Splitting:
    """Splitting of a prime of the field over p in field(sqrt(m))/field.

    The compositum is biquadratic over Q with quadratic subfields of
    discriminants D1 = disc(field), D2 = disc(Q(sqrt m)), D3 =
    disc(Q(sqrt(d*m))); the Kronecker symbols (Di|p) determine the
    inertia and decomposition groups, hence the verdict.  The answer is
    the same for both primes over a split p.
    """
    c1 = kronecker(field.disc, p)
    c2 = kronecker(fundamental_discriminant(m), p)
    c3 = kronecker(fundamental_discriminant(field.d * m), p)
    zeros = (c1 == 0) + (c2 == 0) + (c3 == 0)
    if zeros == 0:
        assert c1 * c2 * c3 == 1, "quadratic characters must multiply to 1"
        if c1 == -1:
            # residue field of q is already quadratic; every unit below is
            # a square in it, so the extension splits at q
            return Splitting.SPLIT
        return _SYMBOL_TO_SPLITTING[c2]
    assert zeros != 1, "lone ramified subfield cannot occur for m in {-1,-3}"
    if zeros == 3 or c1 != 0:
        # all of the inertia of p sits in field(sqrt m)/field
        return Splitting.RAMIFIED
    # p ramifies in the base and in exactly one other quadratic subfield;
    # the remaining unramified subfield carries the residue extension
    c = c2 if c2 != 0 else c3
    return _SYMBOL_TO_SPLITTING[c]


def _real_cyclotomic_splitting(field: QuadField, q: QuadPrime, n: int) -> Splitting:
    """Splitting of q in the degree-two extension (cyclotomic n)/field,
    valid when the field is the maximal real subfield of that cyclotomic
    field (radicand 5, 2, 3 for n = 5, 8, 12)."""
    p = q.p
    a, rest = 0, n
    while rest % p == 0:
        a += 1
        rest //= p
    e_top = euler_phi(p**a)
    f_top = multiplicative_order(p % rest, rest) if rest > 1 else 1
    e_rel, e_rem = divmod(e_top, q.ramification_index)
    f_rel, f_rem = divmod(f_top, q.residue_degree)
    assert e_rem == 0 and f_rem == 0 and e_rel * f_rel in (1, 2)
    if e_rel == 2:
        return Splitting.RAMIFIED
    if f_rel == 2:
        return Splitting.INERT
    return Splitting.SPLIT


def cyclotomic_splitting(q: Place, n: int) -> Splitting:
    """How the prime q behaves in base(zeta_n)/base, a quadratic extension.

    Raises Undecidable when no implemented criterion applies (some quartic
    configurations).
    """
    field = q.field
    degree = field.degree
    if degree == 2:
        if n in (3, 4):
            return _biquadratic_splitting(field, q.p, -3 if n == 3 else -1)
        if _REAL_CYCLOTOMIC_RADICAND.get(n) == field.d:
            return _real_cyclotomic_splitting(field, q, n)
        raise Undecidable(f"no criterion for zeta_{n} over {field}")
    if degree == 4:
        if n in (3, 4):
            m = -3 if n == 3 else -1
            p = q.p
            if p == 2 or (-m) % p == 0:
                raise Undecidable(f"no criterion for zeta_{n} over a quartic field at p={p}")
            if q.residue_degree % 2 == 0:
                return Splitting.SPLIT  # every unit of F_p is a square in F_{p^2}
            euler = pow((m) % p, (p - 1) // 2, p)
            return Splitting.SPLIT if euler == 1 else Splitting.INERT
        raise Undecidable(f"no criterion for zeta_{n} over a quartic field")
    raise TypeError(f"unsupported base field {field!r}")


def _require_admitted(field: BaseField, ram: Sequence[Place]) -> None:
    if field.degree == 4 and ram:
        raise ValueError("quartic base algebras are supported only with empty finite ramification")


def _embeds(ram: Sequence[Place], n: int) -> bool:
    """Whether base(zeta_n) embeds in the algebra: no finite ramified
    prime splits in it (ramified real places never split in a CM
    extension)."""
    return all(cyclotomic_splitting(r, n) is not Splitting.SPLIT for r in ram)


def gamma1_torsion_orders(field: BaseField, ram: Sequence[Place]) -> frozenset[int]:
    """Orders of torsion certified in the full projectivized unit group:
    the decided candidates whose cyclotomic extension embeds in the
    algebra.  Undecided candidates are omitted.  Raises ValueError on a
    quartic base with finite ramification, which no algebra admits."""
    _require_admitted(field, ram)
    return frozenset(c.m for c in possible_torsion_orders(field) if c.decided and _embeds(ram, c.n))


def _prime_divisors(orders: Iterable[int]) -> set[int]:
    return {p for m in orders for p, _ in factorize(m)}


@dataclass(frozen=True)
class TorsionVerdict:
    verdict: Verdict
    order: int | None
    reason: str

    @property
    def is_free(self) -> bool:
        return self.verdict is Verdict.FREE


def full_torsion_verdict(field: BaseField, ram: Sequence[Place]) -> TorsionVerdict:
    """Torsion verdict for the full projectivized unit group."""
    orders = gamma1_torsion_orders(field, ram)
    if orders:
        m = min(orders)
        return TorsionVerdict(
            Verdict.TORSION, m, f"cyclotomic extension for order {m} embeds in the algebra"
        )
    return TorsionVerdict(Verdict.FREE, None, "no candidate cyclotomic extension embeds")


def borel_torsion_verdict(field: BaseField, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the upper-triangular (Borel) subgroup at level q.

    Torsion is present iff some candidate extension embeds in the algebra
    and has q split in it; scanned in increasing order of m.
    """
    _require_admitted(field, ram)
    unknown: list[str] = []
    for cand in possible_torsion_orders(field):
        if not cand.decided:
            unknown.append(f"candidate order {cand.m} undecided for this field")
            continue
        if not _embeds(ram, cand.n):
            continue  # order m impossible everywhere
        try:
            split = cyclotomic_splitting(q, cand.n) is Splitting.SPLIT
        except Undecidable as exc:
            unknown.append(str(exc))
            continue
        if split:
            return TorsionVerdict(
                Verdict.TORSION,
                cand.m,
                f"order {cand.m}: its cyclotomic extension embeds and the level prime splits in it",
            )
    if unknown:
        return TorsionVerdict(Verdict.UNKNOWN, None, "; ".join(unknown))
    return TorsionVerdict(
        Verdict.FREE,
        None,
        "no embedding cyclotomic extension has the level prime split in it",
    )


def principal_torsion_verdict(field: BaseField, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the principal congruence subgroup at level q."""
    _require_admitted(field, ram)
    p = q.p
    if p not in _prime_divisors(c.m for c in possible_torsion_orders(field)):
        return TorsionVerdict(
            Verdict.FREE,
            None,
            f"prime-order torsion at level q would have order {p}, "
            "which is not available over this base field",
        )
    achievable = gamma1_torsion_orders(field, ram)
    if p not in _prime_divisors(achievable):
        return TorsionVerdict(
            Verdict.FREE,
            None,
            f"order-{p} torsion is already absent from the full unit group",
        )
    if p in (2, 3) and p in achievable:
        try:
            if cyclotomic_splitting(q, 4 if p == 2 else 3) is Splitting.SPLIT:
                return TorsionVerdict(
                    Verdict.TORSION,
                    p,
                    f"order {p}: its cyclotomic extension embeds and the level prime splits in it, "
                    "which realizes the torsion inside the principal subgroup",
                )
        except Undecidable:
            pass
    borel = borel_torsion_verdict(field, ram, q)
    if borel.is_free:
        return TorsionVerdict(
            Verdict.FREE,
            None,
            "contained in the torsion-free upper-triangular subgroup at the same level",
        )
    return TorsionVerdict(Verdict.UNKNOWN, None, "no implemented criterion settles this level")


def unipotent_torsion_verdict(field: BaseField, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the unipotent-level subgroup at q (matrices
    reducing to upper-triangular with equal diagonal entries mod q).

    Torsion in the principal subgroup is torsion here.  Conversely every
    criterion that certifies the principal subgroup free applies verbatim:
    a torsion element here has a power of prime order, and that order
    must be p, both inside the principal subgroup and for elements with
    nontrivial unipotent image (whose image order is p); and this
    subgroup lies in the upper-triangular one.
    """
    principal = principal_torsion_verdict(field, ram, q)
    if principal.verdict is Verdict.TORSION:
        return TorsionVerdict(
            Verdict.TORSION,
            principal.order,
            "inherited from the principal congruence subgroup it contains: " + principal.reason,
        )
    return principal
