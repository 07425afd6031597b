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
candidate torsion is torsion-free.

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
it, and a quartic base has no finite ramification (the ramification rule
refuses one).  Only a level prime over 2, 3 or 5 on a quartic base,
dividing a candidate n, raises Undecidable, and the subgroup verdict
then degrades to UNKNOWN instead of guessing.

One function, ``_verdict``, decides every subgroup kind on places that
two rules admit: the ramification rule, applied when a
``QuaternionAlgebra`` is built, and the level rule, applied to a level.
The public verdicts apply both (ValueError), then decide.  Every n the
decision asks about is a candidate, so it skips ``cyclotomic_splitting``'s check.

For a level prime q (a prime where the algebra is unramified) the
congruence subgroups at q satisfy: principal inside unipotent inside
upper-triangular (Borel) inside the full group.  The Borel verdict is
TORSION at the least m whose candidate extension embeds in the algebra
and has q split in it, and FREE when there is none.  That FREE is no
proof when q lies over p and an order-p candidate embeds: the Borel index
N(q) + 1 is prime to p, so an element of order p fixes a coset whatever
the splitting (over Q, the elliptic points of Gamma_0(2) and Gamma_0(3)).
Prime-order torsion in the principal subgroup must have order p, so its
verdict takes the first rule that applies: (A) FREE when p divides no
candidate order; (B) FREE when p divides no candidate order whose
extension embeds; (C) TORSION of order p when the order-p candidate's
extension embeds and q splits in it, which never holds at p = 5; (D)
FREE when the Borel scan is free, which rests on that scan and is no
proof in the same case; otherwise UNKNOWN.
The unipotent subgroup contains the principal one and inherits its
torsion, and each FREE rule applies to it verbatim: it lies in the Borel
one, and its prime-order torsion has order p as well, by its unipotent
image mod q or else inside the principal subgroup.

Function bodies read the members of ``Verdict`` and ``SubgroupKind``
through module aliases defined beside each class (``_FREE``, ``_BOREL``,
...), and those of ``Splitting`` through ``quadfield``'s: on Python 3.11
``EnumType.__getattr__`` makes a class attribute load such as
``Verdict.FREE`` about ten times the cost of a module global.  Each alias
is the member itself, so ``is`` tests and every output are unchanged.

A verdict whose text names no query value is a module constant, built
once: FULL FREE, BOREL FREE, FULL and BOREL TORSION for each candidate
order m, rule D's FREE and the closing UNKNOWN.  One whose text names only
the level's rational prime p is built once per p, in a bounded cache keyed
by the int and never by a record: rule A's and rule B's FREE, and rule C's
TORSION (one for the principal subgroup, one for the unipotent one that
inherits it).  Two reports with the same such verdict hold the same
object, which compares and prints as a fresh one would.  The decision
reads a quadratic base's candidates by its radicand, an int, a place
that does not divide n by the norm rule in line, and settles rule A at
once for a p above the largest candidate order.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .exact import kronecker
from .quadfield import _INERT, _RAMIFIED, _SPLIT, _SPLITTING, Field, Place, Splitting, fundamental_discriminant


class Undecidable(Exception):
    """The splitting question falls outside the implemented criteria."""


class Verdict(Enum):
    FREE = "free"
    TORSION = "torsion"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The members, for function bodies (see the module docstring).
_FREE, _TORSION, _UNKNOWN = Verdict.FREE, Verdict.TORSION, Verdict.UNKNOWN


class SubgroupKind(Enum):
    FULL = "full"
    BOREL = "borel"
    UNIPOTENT = "unipotent"
    PRINCIPAL = "principal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_FULL, _BOREL, _UNIPOTENT, _PRINCIPAL = (
    SubgroupKind.FULL, SubgroupKind.BOREL, SubgroupKind.UNIPOTENT, SubgroupKind.PRINCIPAL
)


class TorsionOrder(NamedTuple):
    """A candidate order m of torsion, realized through roots of unity of
    order n."""

    m: int
    n: int


_ALWAYS_ORDERS = (TorsionOrder(2, 4), TorsionOrder(3, 3))
# the order added by a real quadratic subfield of the given radicand, in
# increasing order of m
_SUBFIELD_ORDER = {2: TorsionOrder(4, 8), 5: TorsionOrder(5, 5), 3: TorsionOrder(6, 12)}


# The candidates of a real quadratic base, by its radicand d: only the
# radicands 2, 5 and 3 add an order.
_QUADRATIC_ORDERS = {d: (*_ALWAYS_ORDERS, c) for d, c in _SUBFIELD_ORDER.items()}


def possible_torsion_orders(field: Field) -> tuple[TorsionOrder, ...]:
    """Candidate torsion orders for the given totally real base field,
    in increasing order of m.  A quadratic base is read by its radicand,
    an int, without building and hashing a tuple of radicands."""
    if field.degree == 2:
        return _QUADRATIC_ORDERS.get(field.d, _ALWAYS_ORDERS)
    radicands = field.subfield_radicands
    return _ALWAYS_ORDERS + tuple(c for d, c in _SUBFIELD_ORDER.items() if d in radicands)


def cyclotomic_splitting(q: Place, n: int) -> Splitting:
    """How the prime q behaves in base(zeta_n)/base, a quadratic extension
    for every candidate n of the base (see the module docstring for the
    two rules).

    Raises Undecidable when n is not a candidate of the base, and at a q
    dividing n over a quartic base.
    """
    if all(c.n != n for c in possible_torsion_orders(q.field)):
        raise Undecidable(f"no criterion for zeta_{n} over {q.field}")
    return _splitting(q, n)


def _splitting(q: Place, n: int) -> Splitting:
    """``cyclotomic_splitting`` for an n known to be a candidate of q's
    field, as every n the verdicts ask about is."""
    p = q.p
    if n % p:
        return _SPLIT if q.norm % n == 1 else _INERT
    if q.field.degree == 4:
        raise Undecidable(f"no criterion for zeta_{n} over a quartic field at p={p}")
    if n == 5 or q.ramification_index == 1:
        return _RAMIFIED
    m = -1 if p == 2 else -3
    return _SPLITTING.get(kronecker(fundamental_discriminant(q.field.d * m), p), _INERT)


def _require_place(x: object, field: Field, role: str) -> None:
    if not isinstance(x, Place):
        raise ValueError(f"{role} {x!r} is not a Place")
    # The interned field is usually the very object; test that first.
    if x.field is not field and x.field != field:
        raise ValueError(f"{role} {x} does not live over the base field")


def _require_ramification(field: Field, ram: Sequence[Place]) -> None:
    """The ramification rule: the base is a ``Field``, every ramified place
    is a ``Place`` over it, and a quartic base has none, which no algebra
    there admits.  The type comes first: a place's field equals the plain
    tuple of its values, so a tuple base would pass the place test."""
    if not isinstance(field, Field):
        raise ValueError(f"base {field!r} is not a Field")
    for r in ram:
        _require_place(r, field, "ramified place")
    if field.degree == 4 and ram:
        raise ValueError("quartic base algebras are supported only with empty finite ramification")


def _require_level(field: Field, ram: Sequence[Place], q: Place) -> None:
    """The level rule, against admitted ramification: q is a ``Place`` over
    the base field, lying over no rational prime under the ramification."""
    _require_place(q, field, "level prime")
    p = q.p
    for r in ram:
        if r.p == p:
            raise ValueError(
                f"the level prime lies over {p}, which meets the ramification of "
                "the algebra; congruence subgroups need an unramified level"
            )


def _admit(field: Field, ram: Sequence[Place], q: Place) -> None:
    """Both rules, for the public level verdicts, which refuse a level that
    is no ``Place`` over the base field before a quartic base's ramification."""
    for r in ram:
        _require_place(r, field, "ramified place")
    _require_place(q, field, "level prime")
    _require_ramification(field, ram)
    _require_level(field, ram, q)


def _embeds(ram: Sequence[Place], n: int) -> bool:
    """Whether base(zeta_n) embeds in the algebra: no finite ramified
    prime splits in it (ramified real places never split in a CM
    extension).  A place not dividing n is read by the norm rule in line,
    without the call to ``_splitting``."""
    for r in ram:
        if n % r.p:
            if r.norm % n == 1:
                return False
        elif _splitting(r, n) is _SPLIT:
            return False
    return True


def gamma1_torsion_orders(field: Field, ram: Sequence[Place]) -> frozenset[int]:
    """Orders of torsion certified in the full projectivized unit group:
    the candidates whose cyclotomic extension embeds in the algebra.
    Raises ValueError on a quartic base with finite ramification, which
    no algebra admits, and on places over another field."""
    _require_ramification(field, ram)
    return frozenset(c.m for c in possible_torsion_orders(field) if _embeds(ram, c.n))


class TorsionVerdict(NamedTuple):
    verdict: Verdict
    order: int | None
    reason: str


_SPLIT_REASON = "its cyclotomic extension embeds and the level prime splits in it"

# The verdicts whose text names no query value, built once (see the module
# docstring); the TORSION ones keyed by the candidate order m.
_CANDIDATE_ORDERS = [c.m for c in (*_ALWAYS_ORDERS, *_SUBFIELD_ORDER.values())]
_FULL_FREE = TorsionVerdict(_FREE, None, "no candidate cyclotomic extension embeds")
_FULL_TORSION = {
    m: TorsionVerdict(_TORSION, m, f"cyclotomic extension for order {m} embeds in the algebra")
    for m in _CANDIDATE_ORDERS
}
_BOREL_FREE = TorsionVerdict(_FREE, None, "no embedding cyclotomic extension has the level prime split in it")
_BOREL_TORSION = {m: TorsionVerdict(_TORSION, m, f"order {m}: {_SPLIT_REASON}") for m in _CANDIDATE_ORDERS}
_INSIDE_BOREL_FREE = TorsionVerdict(
    _FREE, None, "contained in the torsion-free upper-triangular subgroup at the same level"
)
_LEVEL_UNKNOWN = TorsionVerdict(_UNKNOWN, None, "no implemented criterion settles this level")


# The principal and unipotent verdicts whose text names only the level's
# rational prime p, built once per p (see the module docstring).
@lru_cache(maxsize=1 << 8)
def _unavailable_free(p: int) -> TorsionVerdict:
    """Rule A's FREE: no candidate order is divisible by p."""
    return TorsionVerdict(
        _FREE, None, f"prime-order torsion at level q would have order {p}, which is not available over this base field"
    )


@lru_cache(maxsize=1 << 8)
def _absent_free(p: int) -> TorsionVerdict:
    """Rule B's FREE: no embedding candidate order is divisible by p."""
    return TorsionVerdict(_FREE, None, f"order-{p} torsion is already absent from the full unit group")


@lru_cache(maxsize=1 << 4)
def _principal_torsion(p: int, inherited: bool) -> TorsionVerdict:
    """Rule C's TORSION of order p, for the principal subgroup, or for the
    unipotent one that inherits it."""
    reason = f"order {p}: {_SPLIT_REASON}, which realizes the torsion inside the principal subgroup"
    if inherited:
        reason = "inherited from the principal congruence subgroup it contains: " + reason
    return TorsionVerdict(_TORSION, p, reason)


def _borel_scan(embedding: Iterable[TorsionOrder], q: Place) -> TorsionVerdict:
    """The Borel verdict at q from the candidates whose extension embeds,
    in increasing order of m: TORSION at the first one q splits in."""
    unknown: list[str] = []
    for cand in embedding:
        try:
            if _splitting(q, cand.n) is _SPLIT:
                return _BOREL_TORSION[cand.m]
        except Undecidable as exc:
            unknown.append(str(exc))
    if unknown:
        return TorsionVerdict(_UNKNOWN, None, "; ".join(unknown))
    return _BOREL_FREE


def _verdict(kind: SubgroupKind, field: Field, ram: Sequence[Place], q: Place | None) -> TorsionVerdict:
    """The verdict for the subgroup of this kind at the admitted level q
    (None for the full group), by the module docstring's rules, testing
    candidates for embedding lazily: FULL and the Borel scan stop early."""
    candidates = possible_torsion_orders(field)
    if kind is _FULL:
        for c in candidates:
            if _embeds(ram, c.n):
                return _FULL_TORSION[c.m]
        return _FULL_FREE
    if kind is _BOREL:
        return _borel_scan((c for c in candidates if _embeds(ram, c.n)), q)
    # The principal rules, which decide the unipotent subgroup as well.  The
    # candidates come in increasing order of m, so a prime p above the last
    # m divides none of them.
    p = q.p
    if p > candidates[-1].m or all(c.m % p for c in candidates):
        return _unavailable_free(p)
    embedding = [c for c in candidates if _embeds(ram, c.n)]
    if all(c.m % p for c in embedding):
        return _absent_free(p)
    try:
        if any(c.m == p and _splitting(q, c.n) is _SPLIT for c in embedding):
            return _principal_torsion(p, kind is _UNIPOTENT)
    except Undecidable:
        pass
    if _borel_scan(embedding, q).verdict is _FREE:
        return _INSIDE_BOREL_FREE
    return _LEVEL_UNKNOWN


def full_torsion_verdict(field: Field, ram: Sequence[Place]) -> TorsionVerdict:
    """Torsion verdict for the full projectivized unit group."""
    _require_ramification(field, ram)
    return _verdict(_FULL, field, ram, None)


def borel_torsion_verdict(field: Field, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the upper-triangular (Borel) subgroup at level
    q, by the module docstring's scan; FREE is no proof at a q over p
    where an order-p candidate embeds."""
    _admit(field, ram, q)
    return _verdict(_BOREL, field, ram, q)


def unipotent_torsion_verdict(field: Field, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the unipotent-level subgroup at q (matrices
    reducing to upper-triangular with equal diagonal entries mod q)."""
    _admit(field, ram, q)
    return _verdict(_UNIPOTENT, field, ram, q)


def principal_torsion_verdict(field: Field, ram: Sequence[Place], q: Place) -> TorsionVerdict:
    """Torsion verdict for the principal congruence subgroup at level q,
    by rules A to D of the module docstring."""
    _admit(field, ram, q)
    return _verdict(_PRINCIPAL, field, ram, q)
