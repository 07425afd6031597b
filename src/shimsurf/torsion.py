"""Torsion in projectivized unit groups of quaternion orders.

An element of finite order m in the projectivized units forces the trace
2 cos(pi/m) into the base field and amounts to an embedding of the CM
field base(zeta_n), where n = m for odd m and n = 2m for even m.  The
orders m = 2, 3 are candidates over every base; each real quadratic
subfield of radicand 2, 5 or 3 adds m = 4, 5 or 6 (for a quadratic base
the field itself, for a quartic base every subfield its resolvent cubic
certifies).  Composite orders such as 8, 10, 12 or 15 are not listed, and
need not be: a torsion element has a power of prime order in the same
subgroup, and an odd prime order l needs Q(cos(2 pi/l)), of degree
(l - 1)/2, inside the base, so the only prime orders are 2, 3 and 5, the
last one only when sqrt(5) lies in the base.  So a subgroup with no
candidate torsion is torsion-free, and FREE is a proof.

The embedding of base(zeta_n) into the algebra exists exactly when no
ramified place splits in base(zeta_n)/base, so everything reduces to one
question: how does a place q over p behave in that quadratic extension?

* q not dividing n: Frobenius at q sends zeta_n to zeta_n^N(q), so q
  splits exactly when N(q) = 1 (mod n), and is inert otherwise
  (Washington, Introduction to Cyclotomic Fields, Thm 2.13).
* q dividing n over a quadratic base Q(sqrt(d)): zeta_5 at 5 ramifies.
  Otherwise p is 2 or 3 and base(zeta_n) = base(sqrt(m)) with m = -1 or
  -3 respectively (Q(zeta_8) = Q(sqrt(2), sqrt(-1)) and Q(zeta_12) =
  Q(sqrt(3), sqrt(-1)) = Q(sqrt(3), sqrt(-3))).  If p is unramified in the
  base it ramifies in the extension; otherwise the extension behaves at q
  as p does in Q(sqrt(d m)).

Every ramified place is decided: over a quadratic base both rules cover
it, and a quartic base has no finite ramification (the verdicts refuse
one, as the algebra layer does).  Only a level prime over 2, 3 or 5 on a
quartic base, dividing a candidate n, raises Undecidable, and the
subgroup verdict then degrades to UNKNOWN instead of guessing.

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

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .exact import factorize, kronecker
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


class TorsionOrder(NamedTuple):
    """A candidate order m of torsion, realized through roots of unity of
    order n."""

    m: int
    n: int


_ALWAYS_ORDERS = (TorsionOrder(2, 4), TorsionOrder(3, 3))
# the order added by a real quadratic subfield of the given radicand, in
# increasing order of m
_SUBFIELD_ORDER = {2: TorsionOrder(4, 8), 5: TorsionOrder(5, 5), 3: TorsionOrder(6, 12)}


def possible_torsion_orders(field: BaseField) -> tuple[TorsionOrder, ...]:
    """Candidate torsion orders for the given totally real base field,
    in increasing order of m."""
    degree = field.degree
    if degree == 2:
        radicands: tuple[int, ...] = (field.d,)
    elif degree == 4:
        radicands = field.subfield_radicands
    else:
        raise TypeError(f"unsupported base field {field!r}")
    return _ALWAYS_ORDERS + tuple(c for d, c in _SUBFIELD_ORDER.items() if d in radicands)


_SYMBOL_TO_SPLITTING = {1: Splitting.SPLIT, -1: Splitting.INERT, 0: Splitting.RAMIFIED}


def cyclotomic_splitting(q: Place, n: int) -> Splitting:
    """How the prime q behaves in base(zeta_n)/base, a quadratic extension
    for every candidate n of the base (see the module docstring for the
    two rules).

    Raises Undecidable when n is not a candidate of the base, and at a q
    dividing n over a quartic base.
    """
    field = q.field
    if all(c.n != n for c in possible_torsion_orders(field)):
        raise Undecidable(f"no criterion for zeta_{n} over {field}")
    p = q.p
    if n % p:
        return Splitting.SPLIT if q.norm % n == 1 else Splitting.INERT
    if field.degree == 4:
        raise Undecidable(f"no criterion for zeta_{n} over a quartic field at p={p}")
    if n == 5 or kronecker(field.disc, p) != 0:
        return Splitting.RAMIFIED
    m = -1 if p == 2 else -3
    return _SYMBOL_TO_SPLITTING[kronecker(fundamental_discriminant(field.d * m), p)]


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
    the candidates whose cyclotomic extension embeds in the algebra.
    Raises ValueError on a quartic base with finite ramification, which
    no algebra admits."""
    _require_admitted(field, ram)
    return frozenset(c.m for c in possible_torsion_orders(field) if _embeds(ram, c.n))


def _prime_divisors(orders: Iterable[int]) -> set[int]:
    return {p for m in orders for p, _ in factorize(m)}


class TorsionVerdict(NamedTuple):
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
