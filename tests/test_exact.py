"""Kernel arithmetic: Kronecker symbols, primality, factorization, square
parts and modular square roots; and the guarded rational recognition of
the tests' float reference."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf.exact import (
    PRIME_PROOF_BOUND,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    primes_up_to,
    square_part,
)

from float_reference import recognize_rational

PRIMES_200 = primes_up_to(200)


def test_primes_up_to_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert primes_up_to(100) == [n for n in range(101) if trial(n)]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_is_prime_small_and_carmichael():
    assert [n for n in range(60) if is_prime(n)] == primes_up_to(59)
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(carmichael)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # Mersenne composite (Cole's factorization)


def test_is_prime_refuses_unproven_pseudoprime():
    # The least strong pseudoprime to the bases 2..37 (Sorenson and Webster,
    # Math. Comp. 86, 2017): the bases prove nothing at or above it.
    n = PRIME_PROOF_BOUND
    assert n == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="not proven"):
        is_prime(n)
    with pytest.raises(ValueError, match="not proven"):
        factorize(n)
    # A witness still proves compositeness above the bound.
    assert not is_prime(2**101 - 1)  # 7432339208719 * 341117531003194129


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs_and_certifies(n):
    factors = factorize(n)
    product = 1
    for p, e in factors:
        assert is_prime(p)
        assert e >= 1
        product *= p**e
    assert product == n
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]
    # prime powers beyond trial division, which rho would need ~sqrt(r) steps to split
    r = 10**15 + 37
    assert factorize(r**2) == [(r, 2)]
    assert factorize(r**3 * 7) == [(7, 1), (r, 3)]
    assert factorize(1) == []
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=200, deadline=None)
def test_square_part_decomposition(n):
    squarefree, square = square_part(n)
    assert squarefree * square == n
    assert isqrt(square) ** 2 == square
    assert is_squarefree(squarefree)


def test_kronecker_against_euler_criterion():
    for p in PRIMES_200:
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a % p == 0 else (1 if a in squares else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_at_two_and_negative():
    # (a|2) follows the residue of a mod 8; (a|-1) the sign of a.
    for a in range(-20, 21):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1
    with pytest.raises(ValueError):
        kronecker(3, 0)


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=200, deadline=None)
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(min_value=-2000, max_value=2000), st.integers(min_value=1, max_value=60))
@settings(max_examples=300, deadline=None)
def test_recognize_rational_roundtrip(num, den):
    r = Fraction(num, den)
    got = recognize_rational(float(r), max_den=60, tol=1e-9)
    assert got == r


def test_recognize_rational_refuses_ambiguity():
    # 1/3 and 1/2 are 1/6 apart; a window wide enough to cover both must
    # be refused rather than resolved arbitrarily.
    midpoint = (1 / 3 + 1 / 2) / 2
    assert recognize_rational(midpoint, max_den=3, tol=0.1) is None
    # A tight window around 1/3 is accepted.
    assert recognize_rational(1 / 3, max_den=3, tol=1e-12) == Fraction(1, 3)
    nearly_third = 0.3333333333
    assert recognize_rational(nearly_third, max_den=10**4, tol=1e-12) is None
    with pytest.raises(ValueError):
        recognize_rational(0.5, max_den=3, tol=0.0)
    with pytest.raises(ValueError):
        recognize_rational(0.5, max_den=0, tol=1e-9)
