"""Real quadratic fields: fundamental discriminants, prime splitting,
conjugation, and exact generalized Bernoulli values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf.exact import is_prime, kronecker, primes_up_to
from shimsurf.quadfield import (
    QuadPrime,
    Splitting,
    _field,
    bernoulli2,
    field_from_disc,
    fundamental_discriminant,
    fundamental_discriminants,
    is_fundamental_discriminant,
    primes_above,
    quad_field,
    splitting_type,
)
from shimsurf.quartic import quartic_new
from shimsurf.siegel import _siegel_sums

# The exact B_2 values of the fifteen fields entering the bounded search,
# keyed by fundamental discriminant.
BERNOULLI_TABLE = {
    137: Fraction(192),
    113: Fraction(144),
    109: Fraction(108),
    105: Fraction(144),
    85: Fraction(72),
    40: Fraction(28),
    37: Fraction(20),
    33: Fraction(24),
    29: Fraction(12),
    28: Fraction(16),
    24: Fraction(12),
    17: Fraction(8),
    13: Fraction(4),
    8: Fraction(2),
    5: Fraction(4, 5),
}


def character_sum_bernoulli(disc):
    """B_2 of the quadratic character mod disc by two closed forms,
    disc * sum_a chi(a) B2(a/disc) with B2(x) = x^2 - x + 1/6, and
    (1/disc) * sum_a chi(a) a^2, asserted equal through their integer
    numerators over the denominator 6 * disc: Theta(disc) Kronecker
    symbols, kept as the reference for Cohen's closed sum."""
    chi = [0] + [kronecker(disc, a) for a in range(1, disc)]
    squares = sum(chi[a] * a * a for a in range(1, disc))
    via_poly = sum(chi[a] * (6 * a * a - 6 * a * disc + disc * disc) for a in range(1, disc))
    assert via_poly == 6 * squares, disc
    return Fraction(squares, disc)


def test_kernel_matches_the_character_sum_to_2000():
    count = 0
    for disc in fundamental_discriminants(5, 2000):
        assert bernoulli2(disc) == character_sum_bernoulli(disc), disc
        count += 1
    assert count == 607


def test_bernoulli_frozen_table():
    for disc, value in BERNOULLI_TABLE.items():
        assert bernoulli2(disc) == value, disc


def test_bernoulli_closed_forms_agree_up_to_400():
    # bernoulli2 checks Siegel's identity s(2) = 9 s(1) on every
    # evaluation; also pin positivity and the zeta bridge:
    # zeta_k(2) = pi^4 B / (6 d^(3/2)) must land in (1, zeta(2)^2).
    zeta_q2_squared = (math.pi**2 / 6) ** 2
    for disc in fundamental_discriminants(5, 400):
        value = bernoulli2(disc)
        assert value > 0
        zeta2 = math.pi**4 * float(value) / (6 * disc**1.5)
        assert 1.0 < zeta2 < zeta_q2_squared, (disc, zeta2)


def test_fundamental_discriminants():
    listed = list(fundamental_discriminants(5, 60))
    assert listed == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53, 56, 57, 60]
    for disc in listed:
        assert is_fundamental_discriminant(disc)
        field = field_from_disc(disc)
        assert field.disc == disc
        assert fundamental_discriminant(field.d) == disc
    assert is_fundamental_discriminant(1)  # trivial extension, by convention
    assert not is_fundamental_discriminant(16)
    assert not is_fundamental_discriminant(15)  # 15 = 3 mod 4
    with pytest.raises(ValueError):
        field_from_disc(1)
    with pytest.raises(ValueError):
        field_from_disc(32)


def test_quad_field_validation():
    assert quad_field(6).disc == 24
    assert quad_field(5).disc == 5
    with pytest.raises(ValueError):
        quad_field(12)  # not squarefree
    with pytest.raises(ValueError):
        quad_field(1)


def test_fields_are_interned():
    # A field is validated and built once per process: every later call,
    # through either constructor, returns the same object.
    assert field_from_disc(5) is field_from_disc(5)
    assert quad_field(2) is field_from_disc(8)
    assert quad_field(33) is quad_field(33)


@pytest.mark.parametrize("make", [field_from_disc, quad_field, is_fundamental_discriminant, fundamental_discriminant])
@pytest.mark.parametrize("value", [5.0, Fraction(5), "5", True], ids=["float", "Fraction", "str", "bool"])
@pytest.mark.parametrize("int_seen_first", [False, True], ids=["unseen", "seen"])
def test_non_int_arguments_are_refused(make, value, int_seen_first):
    # 5.0 and Fraction(5) equal 5 and hash alike, so only the check before
    # the cache keeps them from finding the interned field of 5 (and the
    # discriminant helpers would answer for 5); True is an int to
    # isinstance, and the discriminant helpers would answer for 1.
    _field.cache_clear()
    if int_seen_first:
        make(5)
    with pytest.raises(ValueError):
        make(value)


def test_per_field_caches_are_bounded():
    # A long-lived library sweep over ever new fields must not grow them
    # without limit.
    for cache in (_field, bernoulli2, _siegel_sums):
        assert cache.cache_info().maxsize is not None, cache


def test_splitting_matches_kronecker():
    # splitting_type reads Euler's criterion D^((p-1)/2) mod p at odd p.
    expected = {1: Splitting.SPLIT, -1: Splitting.INERT, 0: Splitting.RAMIFIED}
    primes = primes_up_to(199)
    for disc in fundamental_discriminants(5, 2000):
        field = field_from_disc(disc)
        for p in primes:
            assert splitting_type(field, p) is expected[kronecker(disc, p)], (disc, p)


@pytest.mark.parametrize("value", [7.0, Fraction(7)], ids=["float", "Fraction"])
def test_non_int_primes_are_refused(value):
    # 7.0 and Fraction(7) pass is_prime, and Euler's criterion would raise
    # TypeError from pow; both are refused first.
    field = quad_field(33)
    with pytest.raises(ValueError, match="rational prime must be an int"):
        splitting_type(field, value)
    with pytest.raises(ValueError, match="rational prime must be an int"):
        primes_above(field, value)
    with pytest.raises(ValueError, match="rational prime must be an int"):
        QuadPrime(field, value, Splitting.INERT)


def _no_quadfield(which):
    """A field that is not a ``QuadField``: the quartic field of
    discriminant 725, whose places over 11 have norms 11, 11 and 121, or
    the plain tuple of Q(sqrt 33)'s values."""
    return quartic_new((1, -1, -3, 1, 1), 5) if which == "quartic" else tuple(quad_field(33))


NO_QUADFIELD = pytest.mark.parametrize("which", ["quartic", "tuple"])


@NO_QUADFIELD
def test_splitting_type_refuses_a_field_that_is_no_quadfield(which):
    # The Kronecker rule read off disc 725 called 11 inert there, and a
    # tuple raised AttributeError.
    with pytest.raises(ValueError, match="is not a real quadratic field"):
        splitting_type(_no_quadfield(which), 11)


@NO_QUADFIELD
def test_primes_above_refuses_a_field_that_is_no_quadfield(which):
    # It gave the quartic field one "inert" place of norm 121 over 11.
    with pytest.raises(ValueError, match="is not a real quadratic field"):
        primes_above(_no_quadfield(which), 11)


@NO_QUADFIELD
def test_quadprime_refuses_a_field_that_is_no_quadfield(which):
    # The checked constructor built the same place that does not exist.
    with pytest.raises(ValueError, match="is not a real quadratic field"):
        QuadPrime(_no_quadfield(which), 11, Splitting.INERT, 0)


def test_primes_above_norms_and_conjugation():
    field = quad_field(33)
    # 2 ramifies? disc 33 odd, kronecker(33, 2): 33 = 1 mod 8 -> split.
    above2 = primes_above(field, 2)
    assert len(above2) == 2
    q, qbar = above2
    assert q.conjugate() == qbar and qbar.conjugate() == q
    assert q.norm == 2 and q.residue_degree == 1
    assert not q.is_conjugation_stable()
    # 11 divides 33: ramified, self-conjugate, norm 11.
    (r11,) = primes_above(field, 11)
    assert r11.splitting is Splitting.RAMIFIED
    assert r11.norm == 11 and r11.ramification_index == 2
    assert r11.is_conjugation_stable()
    # 7: kronecker(33,7) = kronecker(5,7) = -1 -> inert, norm 49.
    (r7,) = primes_above(field, 7)
    assert r7.splitting is Splitting.INERT
    assert r7.norm == 49 and r7.residue_degree == 2
    assert r7.is_conjugation_stable()


def test_quadprime_constructor_rejects_wrong_shape():
    field = quad_field(33)
    with pytest.raises(ValueError):
        QuadPrime(field, 7, Splitting.SPLIT, 0)  # 7 is inert
    with pytest.raises(ValueError):
        QuadPrime(field, 7, Splitting.INERT, 1)  # inert primes have tag 0


@given(st.sampled_from(list(fundamental_discriminants(5, 200))))
@settings(max_examples=60, deadline=None)
def test_splitting_partitions_norm(disc):
    field = field_from_disc(disc)
    for p in (2, 3, 5, 7, 11):
        total = 1
        for q in primes_above(field, p):
            total *= q.norm ** q.ramification_index
        assert total == p * p  # e, f, g bookkeeping: sum of e_i f_i = 2


def test_bernoulli_denominator_divides_radicand_structure():
    # B_2 for the quadratic character is integral except possibly for a
    # denominator dividing 15 in the small-conductor cases.
    for disc in fundamental_discriminants(5, 400):
        den = bernoulli2(disc).denominator
        assert 15 % den == 0, (disc, den)
