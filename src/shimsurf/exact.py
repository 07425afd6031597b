"""Exact integer and rational arithmetic kernel.

Everything in this module is pure and deterministic: Kronecker symbols
with the standard conventions at 2 and -1, integer factorization (trial
division, Miller-Rabin, perfect powers by integer roots, Brent's rho),
square-part decomposition and a prime sieve.

Rationals are `fractions.Fraction` throughout the package, and no float
enters it.  Python integers are unbounded, so no overflow handling is
required anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


class InvariantError(AssertionError):
    """An internal invariant of the package failed: an identity that the
    mathematics guarantees did not hold.  Raised explicitly, so that it
    also fires under ``python -O``; a subclass of AssertionError, so that
    callers catching that still see it."""


class CheckedRecord:
    """Base of the ``NamedTuple`` records that check their values: its
    ``__new__`` builds the tuple and calls the record's ``_check()``, which
    raises on a bad value.  Its ``_make``, which ``_replace`` calls, builds
    through the class, so that public construction always checks.  List it
    before the record's NamedTuple of fields, whose own ``_make`` does
    skip it.  Only a module's own constructors that derive the fields
    themselves, like ``primes_above``, build their records through
    ``_trusted``, without the check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def _trusted(cls, *fields):
        return tuple.__new__(cls, fields)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Least strong pseudoprime to the bases _SMALL_PRIMES (Sorenson, Webster 2017)
PRIME_PROOF_BOUND = 318665857834031151167461


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n != 0.

    Fully multiplicative in both arguments, with (a|2) = 0, +1, -1 for
    a even, a = +-1 mod 8, a = +-3 mod 8, and (a|-1) = sign(a).
    """
    if n == 0:
        raise ValueError("kronecker symbol (a|0) is not defined here")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # n odd and positive: Jacobi symbol.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..37: a proof of primality below
    PRIME_PROOF_BOUND.  At or above it, a composite witness still returns
    False, and passing every base raises ValueError."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_PROOF_BOUND:
        raise ValueError(f"primality of {n} is not proven: it passes Miller-Rabin to bases 2..37")
    return True


def _brent_rho(n: int) -> int:
    # Brent's cycle variant of Pollard rho; n odd composite, not a perfect
    # power.  Deterministic scan over increment constants.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r^k and k >= 2, for m > 1, else None.  The k-th
    root comes from Newton's method on integers, started above it."""
    for k in range(2, m.bit_length()):
        x = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
            x = y
        if x**k == m:
            return x, k
    return None


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes increasing."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # rho needs about sqrt(p) steps to split a power of p
        power = _perfect_power(m)
        if power is not None:
            stack.extend([power[0]] * power[1])
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return sorted(out.items())


def square_part(n: int) -> tuple[int, int]:
    """Write n >= 1 as squarefree * square with square the largest square divisor."""
    if n < 1:
        raise ValueError(f"square_part needs n >= 1, got {n}")
    squarefree = square = 1
    for p, e in factorize(n):
        if e % 2:
            squarefree *= p
        square *= p ** (e - e % 2)
    return squarefree, square


def is_squarefree(n: int) -> bool:
    return n >= 1 and square_part(n)[0] == n


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]

