"""Real quadratic fields and their primes.

A field is identified by its squarefree radicand d > 1; the fundamental
discriminant is d when d = 1 (mod 4) and 4d otherwise.  Rational primes
split, stay inert, or ramify according to the Kronecker symbol of the
discriminant, read at an odd prime p by Euler's criterion, D^((p-1)/2)
mod p, and at 2 by the Kronecker rule mod 8.  A prime of the field is
modelled as the rational prime below it plus a tag selecting one of the
(at most two) primes above.  A radicand, discriminant or prime that is
not an ``int`` is refused with ValueError, before any cache is asked.
Fields are interned per discriminant, and the conjugate pair of places
over a split prime per discriminant and prime (``_split_pair``).

Function bodies read the members of ``Splitting`` through the module
aliases ``_SPLIT``, ``_INERT`` and ``_RAMIFIED``, here and in every module
that imports them.  On Python 3.11 ``EnumType`` defines ``__getattr__``,
which sends each class attribute load such as ``Splitting.SPLIT`` through
the interpreter's slow attribute hook, about ten times the cost of a
module global, and a sweep query makes dozens of them.  Each alias is the
member itself, so ``is`` tests and every output are unchanged.

The generalized second Bernoulli number of the field's quadratic
character is B_2 = 24 zeta_k(-1) = 2 s(1)/5, by Siegel's formula in
Cohen's closed form: the totally positive nu in the inverse different
d^-1 = (1/sqrt(D)) O with Tr(nu) = 1 are nu = (u + sqrt(D))/(2 sqrt(D))
for the integers u with u^2 < D and u = D (mod 2), and nu d is the
primitive ideal ((u + sqrt(D))/2) of norm (D - u^2)/4, whose ideal
divisor sum is the integer sigma_1((D - u^2)/4) (Cohen, Math. Ann. 217,
1975; Zagier, Enseign. Math. 22, 1976).  So

    s(1) = sum over u^2 < D, u = D (mod 2) of sigma_1((D - u^2)/4),

in about sqrt(D) integer divisor sums, cached across fields.  Every
evaluation also checks s(2) = 9 s(1), over the points gamma = w + sqrt(D)
of trace 2; the degree-n Siegel kernel (``siegel.zeta_minus1``) and the
Theta(D) character sum are the tests' references.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, NamedTuple

from .exact import CheckedRecord, InvariantError, factorize, is_int, is_prime, is_squarefree, kronecker, square_part


class Splitting(Enum):
    """Behaviour of a rational prime in a quadratic extension."""

    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The members, for function bodies (see the module docstring).
_SPLIT, _INERT, _RAMIFIED = Splitting.SPLIT, Splitting.INERT, Splitting.RAMIFIED


class Field(CheckedRecord):
    """Base of the checked field records, ``QuadField`` and
    ``QuarticField``, with their ``degree``, ``disc`` and ``subfield_radicands``."""

    __slots__ = ()


class Place(CheckedRecord):
    """Base of the checked place records, ``QuadPrime`` and
    ``QuarticPrime``: a prime of a base field over the rational prime
    ``p``, with its ``residue_degree``."""

    __slots__ = ()

    @property
    def norm(self) -> int:
        return self.p**self.residue_degree


class _QuadFieldFields(NamedTuple):
    d: int
    disc: int


class QuadField(Field, _QuadFieldFields):
    """The real quadratic field generated by the square root of d; checked
    when built to equal the interned field of its discriminant (equal, not
    identical: the cache may have dropped the field a caller holds)."""

    __slots__ = ()

    degree = 2

    def _check(self) -> None:
        if not (is_int(self.d) and is_int(self.disc) and self.disc > 1 and _field(self.disc) == self):
            raise ValueError(f"{self!r} is not a real quadratic field")

    @property
    def subfield_radicands(self) -> tuple[int, ...]:
        """The radicands of the real quadratic subfields: the field's own."""
        return (self.d,)

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"

    def bernoulli2(self) -> Fraction:
        return bernoulli2(self.disc)

    def zeta_minus1(self) -> Fraction:
        """zeta_k(-1) = B_2/24, exactly, by Cohen's closed sum."""
        return self.bernoulli2() / 24


# Fields kept by each per-field cache below: many more than a sweep or the
# search touches, at a few hundred bytes per entry.
_FIELDS_KEPT = 1 << 12


def quad_field(d: int) -> QuadField:
    """The real quadratic field of squarefree radicand d > 1, the same
    object on every call (see ``field_from_disc``)."""
    if not is_int(d):
        raise ValueError(f"radicand must be an int, got {d!r}")
    if d <= 1:
        raise ValueError(f"radicand must exceed 1, got {d}")
    # d > 1 is squarefree exactly when its discriminant is fundamental
    field = _field(d if d % 4 == 1 else 4 * d)
    if field is None:
        raise ValueError(f"radicand must be squarefree, got {d}")
    return field


def fundamental_discriminant(n: int) -> int:
    """Fundamental discriminant of Q(sqrt(n)) for a nonzero integer n.

    Returns 1 when n is a perfect square (the extension is trivial).
    """
    if not is_int(n):
        raise ValueError(f"radicand must be an int, got {n!r}")
    if n == 0:
        raise ValueError("radicand must be nonzero")
    sign = 1 if n > 0 else -1
    free, _ = square_part(abs(n))
    s = sign * free
    if s == 1:
        return 1
    return s if s % 4 == 1 else 4 * s


def is_fundamental_discriminant(disc: int) -> bool:
    """True when disc is the discriminant of a quadratic field (or 1)."""
    if not is_int(disc):
        raise ValueError(f"discriminant must be an int, got {disc!r}")
    if disc == 1:
        return True
    if disc % 4 == 1:
        return is_squarefree(abs(disc))
    if disc % 4 == 0:
        m = disc // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def fundamental_discriminants(lo: int, hi: int) -> Iterator[int]:
    """The real-quadratic fundamental discriminants in [lo, hi], increasing.
    Bounds that are not ``int``s are refused with ValueError by the call,
    before anything is iterated."""
    if not (is_int(lo) and is_int(hi)):
        raise ValueError(f"discriminant bounds must be ints, got {lo!r} and {hi!r}")
    return (disc for disc in range(max(lo, 5), hi + 1) if is_fundamental_discriminant(disc))


def field_from_disc(disc: int) -> QuadField:
    """The real quadratic field with the given fundamental discriminant.

    Fields are interned: each is validated and built once per process, and
    every later call, here or through ``quad_field``, returns that object.
    A non-``int`` is refused before the cache is asked, since 5.0 would
    otherwise find the field of 5."""
    if not is_int(disc) or disc <= 1 or (field := _field(disc)) is None:
        raise ValueError(f"{disc!r} is not a real-quadratic fundamental discriminant")
    return field


@lru_cache(maxsize=_FIELDS_KEPT)
def _field(disc: int) -> QuadField | None:
    """The field of the integer disc > 1, or None when disc is not a
    fundamental discriminant; built unchecked, as the check reads it."""
    if not is_fundamental_discriminant(disc):
        return None
    return QuadField._trusted((disc if disc % 4 == 1 else disc // 4, disc))


# The splitting of p in a quadratic extension by the Kronecker symbol of
# its discriminant at p; every other value, -1 or Euler's p - 1, is inert.
_SPLITTING = {1: _SPLIT, 0: _RAMIFIED}


def splitting_type(field: QuadField, p: int) -> Splitting:
    """How the rational prime p behaves in the field: by the Kronecker
    symbol (D|p), which at an odd prime is D^((p-1)/2) mod p (Euler's
    criterion): 1, p - 1 or 0.  The field must be a ``QuadField``: the
    rule read off the discriminant of a quartic field is no splitting law
    there (ValueError)."""
    if not isinstance(field, QuadField):
        raise ValueError(f"{field!r} is not a real quadratic field")
    if not is_int(p):
        raise ValueError(f"rational prime must be an int, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    symbol = kronecker(field.disc, 2) if p == 2 else pow(field.disc, (p - 1) // 2, p)
    return _SPLITTING.get(symbol, _INERT)


class _QuadPrimeFields(NamedTuple):
    field: QuadField
    p: int
    splitting: Splitting
    tag: int = 0


class QuadPrime(Place, _QuadPrimeFields):
    """A prime of a real quadratic field, lying over the rational prime p.

    Over a split p there are two primes, distinguished by tag 0 / tag 1
    and exchanged by conjugation.  Over an inert or ramified p the tag
    is 0.
    """

    __slots__ = ()

    def _check(self) -> None:
        if splitting_type(self.field, self.p) is not self.splitting:
            raise ValueError(
                f"{self.p} is {splitting_type(self.field, self.p).value} "
                f"in {self.field}, not {self.splitting.value}"
            )
        allowed = (0, 1) if self.splitting is _SPLIT else (0,)
        if not is_int(self.tag) or self.tag not in allowed:
            raise ValueError(f"tag {self.tag} invalid for a {self.splitting.value} prime")

    @property
    def residue_degree(self) -> int:
        return 2 if self.splitting is _INERT else 1

    @property
    def norm(self) -> int:
        """p^2 at an inert p, else p: ``Place.norm`` without the hop
        through ``residue_degree``."""
        return self.p * self.p if self.splitting is _INERT else self.p

    @property
    def ramification_index(self) -> int:
        return 2 if self.splitting is _RAMIFIED else 1

    def conjugate(self) -> "QuadPrime":
        """The image under the nontrivial automorphism of the field."""
        if self.splitting is _SPLIT:
            return QuadPrime(self.field, self.p, self.splitting, 1 - self.tag)
        return self

    def is_conjugation_stable(self) -> bool:
        return self.splitting is not _SPLIT

    def __str__(self) -> str:
        suffix = f"#{self.tag}" if self.splitting is _SPLIT else ""
        return f"prime({self.p}{suffix} in {self.field})"


def primes_above(field: QuadField, p: int) -> list[QuadPrime]:
    """All primes of the field over the rational prime p (one or two),
    built without the constructor's check, which would derive the same
    splitting again."""
    kind = splitting_type(field, p)
    if kind is _SPLIT:
        return [QuadPrime._trusted((field, p, kind, 0)), QuadPrime._trusted((field, p, kind, 1))]
    return [QuadPrime._trusted((field, p, kind, 0))]


# Conjugate pairs kept by ``_split_pair``: a sweep over the discriminants
# below 400 and the primes below 60 touches about a thousand, at a few
# hundred bytes each.
_PAIRS_KEPT = 1 << 12


@lru_cache(maxsize=_PAIRS_KEPT)
def _split_pair(disc: int, p: int) -> tuple[QuadPrime, QuadPrime] | None:
    """The two places over p of the interned field of the fundamental
    discriminant disc, or None when p does not split there; ValueError
    when p is not prime.  Keyed by ints, so a caller checks ``is_int``
    first: 2.0 would otherwise find the pair of 2."""
    above = primes_above(_field(disc), p)
    return tuple(above) if len(above) == 2 else None


@lru_cache(maxsize=1 << 14)
def _sigma1(n: int) -> int:
    """The sum of the divisors of n >= 1."""
    total = 1
    for p, k in factorize(n):
        total *= (p ** (k + 1) - 1) // (p - 1)
    return total


@lru_cache(maxsize=_FIELDS_KEPT)
def bernoulli2(disc: int) -> Fraction:
    """Generalized Bernoulli number B_2 of the quadratic character mod disc:
    24 zeta_k(-1) = 2 s(1)/5 for the field k of discriminant disc.

    Raises InvariantError, also under ``python -O``, unless s(2) = 9 s(1).
    The points of trace 2 are gamma = w + sqrt(D) with w^2 < D, of norm
    D - w^2.  gamma has content 2 exactly when w = D (mod 2), and is
    primitive otherwise, with divisor sum sigma_1(D - w^2).  For content
    2, (gamma) = (2) b with b primitive of norm (D - w^2)/4 = 2^a m, m odd;
    the primes over 2 give the factor 5 (2 inert, so a = 0),
    3 (2^(a+2) - 1) (2 split) or 2^(a+3) - 1 (2 ramified, a <= 1)."""
    field = field_from_disc(disc)
    chi2 = kronecker(disc, 2)  # 1, -1, 0: 2 splits, is inert, ramifies
    r = isqrt(disc)
    s1 = s2 = 0
    for w in range(-r, r + 1):
        norm = disc - w * w
        if (disc - w) % 2:
            s2 += _sigma1(norm)
            continue
        n = norm // 4  # also the norm of the trace-1 point u = w
        low = n & -n  # 2^a
        s1 += _sigma1(n)
        s2 += _sigma1(n // low) * (5 if chi2 < 0 else 3 * (4 * low - 1) if chi2 else 8 * low - 1)
    if s2 != 9 * s1:
        raise InvariantError(f"Siegel's identity s(2) = 9 s(1) fails for {field}: s(1) = {s1}, s(2) = {s2}")
    return Fraction(2 * s1, 5)
