"""Real quadratic fields and their primes.

A field is identified by its squarefree radicand d > 1; the fundamental
discriminant is d when d = 1 (mod 4) and 4d otherwise.  Rational primes
split, stay inert, or ramify according to the Kronecker symbol of the
discriminant, and a prime of the field is modelled as the rational prime
below it plus a tag selecting one of the (at most two) primes above.

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

from .exact import InvariantError, factorize, is_prime, is_squarefree, kronecker, square_part


class Splitting(Enum):
    """Behaviour of a rational prime in a quadratic extension."""

    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class QuadField(NamedTuple):
    """The real quadratic field generated by the square root of d."""

    d: int
    disc: int

    degree = 2

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"

    def bernoulli2(self) -> Fraction:
        return bernoulli2(self.disc)

    def zeta_minus1(self) -> Fraction:
        """zeta_k(-1) = B_2/24, exactly, by Cohen's closed sum."""
        return self.bernoulli2() / 24


def quad_field(d: int) -> QuadField:
    """The real quadratic field of squarefree radicand d > 1."""
    if d <= 1:
        raise ValueError(f"radicand must exceed 1, got {d}")
    if not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree, got {d}")
    disc = d if d % 4 == 1 else 4 * d
    return QuadField(d, disc)


def fundamental_discriminant(n: int) -> int:
    """Fundamental discriminant of Q(sqrt(n)) for a nonzero integer n.

    Returns 1 when n is a perfect square (the extension is trivial).
    """
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
    if disc == 1:
        return True
    if disc % 4 == 1:
        return is_squarefree(abs(disc))
    if disc % 4 == 0:
        m = disc // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def fundamental_discriminants(lo: int, hi: int) -> Iterator[int]:
    """Yield real-quadratic fundamental discriminants in [lo, hi]."""
    for disc in range(max(lo, 5), hi + 1):
        if is_fundamental_discriminant(disc):
            yield disc


def field_from_disc(disc: int) -> QuadField:
    """The real quadratic field with the given fundamental discriminant."""
    if disc <= 1 or not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a real-quadratic fundamental discriminant")
    d = disc if disc % 4 == 1 else disc // 4
    return quad_field(d)


def splitting_type(field: QuadField, p: int) -> Splitting:
    """How the rational prime p behaves in the field."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    symbol = kronecker(field.disc, p)
    if symbol == 1:
        return Splitting.SPLIT
    if symbol == -1:
        return Splitting.INERT
    return Splitting.RAMIFIED


class _QuadPrimeFields(NamedTuple):
    field: QuadField
    p: int
    splitting: Splitting
    tag: int = 0


class QuadPrime(_QuadPrimeFields):
    """A prime of a real quadratic field, lying over the rational prime p.

    Over a split p there are two primes, distinguished by tag 0 / tag 1
    and exchanged by conjugation.  Over an inert or ramified p the tag
    is 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> QuadPrime:
        self = super().__new__(cls, *args, **kwargs)
        if splitting_type(self.field, self.p) is not self.splitting:
            raise ValueError(
                f"{self.p} is {splitting_type(self.field, self.p).value} "
                f"in {self.field}, not {self.splitting.value}"
            )
        allowed = (0, 1) if self.splitting is Splitting.SPLIT else (0,)
        if self.tag not in allowed:
            raise ValueError(f"tag {self.tag} invalid for a {self.splitting.value} prime")
        return self

    @property
    def residue_degree(self) -> int:
        return 2 if self.splitting is Splitting.INERT else 1

    @property
    def ramification_index(self) -> int:
        return 2 if self.splitting is Splitting.RAMIFIED else 1

    @property
    def norm(self) -> int:
        return self.p**self.residue_degree

    def conjugate(self) -> "QuadPrime":
        """The image under the nontrivial automorphism of the field."""
        if self.splitting is Splitting.SPLIT:
            return QuadPrime(self.field, self.p, self.splitting, 1 - self.tag)
        return self

    def is_conjugation_stable(self) -> bool:
        return self.conjugate() == self

    def __str__(self) -> str:
        suffix = f"#{self.tag}" if self.splitting is Splitting.SPLIT else ""
        return f"prime({self.p}{suffix} in {self.field})"


def primes_above(field: QuadField, p: int) -> list[QuadPrime]:
    """All primes of the field over the rational prime p (one or two)."""
    kind = splitting_type(field, p)
    if kind is Splitting.SPLIT:
        return [QuadPrime(field, p, kind, 0), QuadPrime(field, p, kind, 1)]
    return [QuadPrime(field, p, kind, 0)]


@lru_cache(maxsize=1 << 14)
def _sigma1(n: int) -> int:
    """The sum of the divisors of n >= 1."""
    total = 1
    for p, k in factorize(n):
        total *= (p ** (k + 1) - 1) // (p - 1)
    return total


@lru_cache(maxsize=None)
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
