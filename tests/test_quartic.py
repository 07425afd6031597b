"""Totally real quartic fields with a quadratic subfield: discriminants,
the maximality of the equation order, Dedekind splitting, level primes,
and the Dedekind zeta Euler product of the tests' float reference."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shimsurf.exact import primes_up_to, square_part
from shimsurf.polymod import distinct_degree_factors, poly, poly_factor_mod_p
from shimsurf.quadfield import bernoulli2, quad_field
from shimsurf.quartic import (
    QuarticPrime,
    _cubic_discriminant,
    _integer_roots,
    _pair_discriminants,
    _real_root_count,
    _resolvent_cubic,
    choose_level_prime,
    primes_above_quartic,
    quartic_new,
    quartic_splitting,
)
from shimsurf.shimura import SubgroupKind, SubgroupSpec, admissibility_report, quartic_algebra

from float_reference import zeta2_euler_product

# The totally real quartic field of smallest discriminant (725 = 5^2 * 29),
# quadratic over Q(sqrt 5).
GOLDEN = (1, -1, -3, 1, 1)

# (field discriminant, defining polynomial, subfield radicand) of the six
# fields the quartic benchmark queries.
BENCHMARK_FIELDS = (
    (725, (1, -1, -3, 1, 1), 5),
    (1125, (1, -5, 5, 5, -5), 5),
    (2000, (1, -6, 1, 4, 1), 5),
    (2048, (1, -4, -2, 4, -1), 2),
    (2304, (1, -4, 2, 4, -2), 2),
    (2525, (1, -5, 3, 5, 1), 5),
)


@pytest.fixture(scope="module")
def K():
    return quartic_new(GOLDEN, 5)


@pytest.fixture(scope="module")
def K_biquadratic():
    # Q(sqrt2, sqrt3), discriminant 2304 = 8 * 12 * 24.
    return quartic_new((1, -4, 2, 4, -2), 2)


def test_golden_field_discriminants(K):
    assert K.disc == 725
    assert K.degree == 4
    assert K.subfield == quad_field(5)


def test_golden_splittings(K):
    assert quartic_splitting(K, 29) == [(1, 2), (2, 1)]
    assert quartic_splitting(K, 2) == [(4, 1)]
    assert quartic_splitting(K, 11) == [(1, 1), (1, 1), (2, 1)]
    assert quartic_splitting(K, 5) == [(2, 2)]
    for p in (2, 5, 11, 29, 31):
        shapes = quartic_splitting(K, p)
        assert sum(f * e for f, e in shapes) == 4


def test_primes_above_and_level_choice(K):
    above29 = primes_above_quartic(K, 29)
    assert [(q.residue_degree, q.ramification_index) for q in above29] == [(1, 2), (2, 1)]
    assert [q.norm for q in above29] == [29, 841]
    level = choose_level_prime(K, 29)
    assert level.norm == 29
    assert level.is_conjugation_stable()
    # Over 2 the single inert prime has norm 16.
    assert choose_level_prime(K, 2).norm == 16


def test_conjugation_stability(K):
    # Each place decides for itself: it is stable exactly when it is the
    # only place of K over the prime of Q(sqrt(5)) below it.  2 is inert
    # in Q(sqrt(5)) and its one place has f e = 4; 29 splits there and
    # each of its two places has f e = 2; 11 splits there too, but only
    # one of its primes splits further in K, so the two degree-one places
    # are swapped by conjugation and the degree-two place is fixed.
    def stability(p):
        return [
            ((q.residue_degree, q.ramification_index), q.is_conjugation_stable())
            for q in primes_above_quartic(K, p)
        ]

    assert stability(2) == [((4, 1), True)]
    assert stability(11) == [((1, 1), False), ((1, 1), False), ((2, 1), True)]
    assert stability(29) == [((1, 2), True), ((2, 1), True)]


def test_constructor_validation():
    with pytest.raises(ValueError, match="reducible"):
        quartic_new((1, 0, 0, 0, -1), 5)
    # A linear factor times an irreducible cubic has no quadratic factor:
    # (x - 1)(x^3 - 2) and x(x^3 - 2).
    for coeffs in ((1, -1, 0, -2, 2), (1, 0, 0, -2, 0)):
        with pytest.raises(ValueError, match="reducible"):
            quartic_new(coeffs, 5)
    with pytest.raises(ValueError, match="not totally real"):
        quartic_new((1, 0, 0, 0, 1), 5)
    with pytest.raises(ValueError, match=r"has 2 real root\(s\)"):
        quartic_new((1, 0, 0, 0, -2), 2)
    # Positive discriminant but no real root: one of 8b - 3a^2 and
    # 64d - 16b^2 + 16a^2 b - 16ac - 3a^4 is negative, the other is not.
    for coeffs in ((1, 0, -4, 0, 8), (1, -3, 5, -3, 1)):
        with pytest.raises(ValueError, match=r"has 0 real root\(s\)"):
            quartic_new(coeffs, 2)
    with pytest.raises(ValueError, match="must divide the field discriminant"):
        quartic_new(GOLDEN, 2)
    with pytest.raises(ValueError, match="monic quartic"):
        quartic_new((2, 0, -4, 0, 2), 2)
    # d_sub^2 divides disc(f), but the resolvent cubic has no rational
    # root: the field has no quadratic subfield at all.
    with pytest.raises(ValueError, match="resolvent cubic"):
        quartic_new((1, -6, -6, 6, -1), 2)
    # A biquadratic field certifies each of its three quadratic subfields.
    for d in (2, 3, 6):
        assert quartic_new((1, -4, 2, 4, -2), d).subfield.d == d
    # Q(sqrt3, sqrt5) again, but Z[x]/(f) has index 32 in its maximal
    # order: disc(f) = 3686400 = 32^2 * 3600.
    for d in (3, 5, 15):
        with pytest.raises(ValueError, match="not maximal at 2 "):
            quartic_new((1, 0, -16, 0, 4), d)


def test_quartic_prime_checks_its_shape():
    # 7 has shape (2, 1)(2, 1) in the golden field; a place of residue
    # degree 3 over it would give a Borel index of 7^3 + 1 = 344.
    K = quartic_new(GOLDEN, 5)
    algebra = quartic_algebra(K, True)
    with pytest.raises(ValueError, match=r"f=3, e=1; the shapes \(f, e\) over 7 are \[\(2, 1\), \(2, 1\)\]"):
        admissibility_report(algebra, SubgroupSpec(SubgroupKind.BOREL, QuarticPrime(K, 7, 3, 1)))
    assert QuarticPrime(K, 7, 2, 1) == primes_above_quartic(K, 7)[0]


def test_maximality_matches_conductor_discriminant_formula():
    # Every quartic in [-12, 12]^4 whose resolvent cubic has three integer
    # roots and that is otherwise accepted defines a biquadratic field,
    # whose discriminant is the product d1 d2 d3 of the discriminants of
    # its three quadratic subfields.  The order Z[x]/(f) is maximal exactly
    # when disc(f) = d1 d2 d3; quartic_new must accept exactly those.
    seen = maximal = 0
    for coeffs in itertools.product([1], *[range(-12, 13)] * 4):
        disc = _cubic_discriminant(_resolvent_cubic(coeffs))
        if disc <= 0 or math.isqrt(disc) ** 2 != disc:
            continue  # a cubic with three integer roots has a square discriminant
        roots = _integer_roots(_resolvent_cubic(coeffs))
        pairs = [_pair_discriminants(coeffs, r) for r in roots]
        radicands = {square_part(n)[0] for pair in pairs for n in pair if n > 0} - {1}
        if len(roots) != 3 or len(radicands) != 3:
            continue
        try:
            quartic_new(coeffs, min(radicands))
            accepted = True
        except ValueError as exc:
            if "not maximal" not in str(exc):
                continue
            accepted = False
        seen += 1
        maximal += accepted
        assert accepted == (disc == math.prod(quad_field(r).disc for r in radicands)), coeffs
    assert (seen, maximal) == (125, 13)


@pytest.mark.parametrize("disc, coeffs, sub", BENCHMARK_FIELDS)
def test_scaled_orders_refused_at_their_prime(disc, coeffs, sub):
    # p^4 f(x/p) defines the same field through Z[p theta], of index p^6:
    # maximal at every prime but p.
    for p in (2, 3, 5, 7):
        scaled = tuple(c * p**k for k, c in enumerate(coeffs))
        with pytest.raises(ValueError, match=f"not maximal at {p} "):
            quartic_new(scaled, sub)


@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=4),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
)
@settings(max_examples=200, deadline=None)
def test_integer_roots_of_large_polynomials(roots, p, q):
    # prod (x - r_i), times x^2 + p x + (p^2 // 4 + q) when that keeps the
    # degree at most 4: the extra factor has no real root, so the integer
    # roots are exactly the r_i, whatever the size of the coefficients.
    factors = [(1, -r) for r in roots]
    if len(roots) <= 2:
        factors.append((1, p, p * p // 4 + q))
    coeffs = (1,)
    for f in factors:
        coeffs = tuple(
            sum(coeffs[i] * f[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(f))
            for k in range(len(coeffs) + len(f) - 1)
        )
    assert _integer_roots(coeffs) == sorted(set(roots))


def _disc_and_real_roots(coeffs):
    disc = _cubic_discriminant(_resolvent_cubic(coeffs))
    return disc, _real_root_count(coeffs, disc)


@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_resolvent_facts_for_split_quartics(roots):
    # f = prod (x - r_i) over distinct integers: disc(f) = prod (r_i - r_j)^2.
    coeffs = (1,)
    for r in roots:
        coeffs = tuple(u - r * v for u, v in zip(coeffs + (0,), (0,) + coeffs))
    disc, real_roots = _disc_and_real_roots(coeffs)
    assert disc == math.prod((ri - rj) ** 2 for ri, rj in itertools.combinations(roots, 2))
    assert disc != 0 and real_roots == 4
    with pytest.raises(ValueError, match="reducible"):
        quartic_new(coeffs, 5)


@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_resolvent_facts_for_products_of_quadratics(params):
    # f = (x^2 + p x + q)(x^2 + s x + t): disc(f) is the product of the
    # factors' discriminants and their squared resultant, and each factor
    # adds two real roots when its own discriminant is positive.
    p, q, s, t = params
    coeffs = (1, p + s, q + t + p * s, p * t + q * s, q * t)
    disc, real_roots = _disc_and_real_roots(coeffs)
    resultant = (q - t) ** 2 + (p - s) * (p * t - q * s)
    assert disc == (p * p - 4 * q) * (s * s - 4 * t) * resultant**2
    assume(disc != 0)
    assert real_roots == 2 * (p * p > 4 * q) + 2 * (s * s > 4 * t)
    with pytest.raises(ValueError, match="reducible"):
        quartic_new(coeffs, 5)


def test_biquadratic_splittings(K_biquadratic):
    # 2 ramifies in all three quadratic subfields, 3 in two of them; 5 is
    # inert in Q(sqrt2) and Q(sqrt3) and splits in Q(sqrt6); 23 splits in all.
    assert quartic_splitting(K_biquadratic, 2) == [(1, 4)]
    assert quartic_splitting(K_biquadratic, 3) == [(2, 2)]
    assert quartic_splitting(K_biquadratic, 5) == [(2, 1), (2, 1)]
    assert quartic_splitting(K_biquadratic, 23) == [(1, 1)] * 4


def test_zeta_bound_validation(K):
    with pytest.raises(ValueError, match="at least 100"):
        zeta2_euler_product(K, 50)


def test_zeta_estimates_nest(K):
    value_small, err_small = zeta2_euler_product(K, 300)
    value_large, err_large = zeta2_euler_product(K, 2000)
    # Euler products increase monotonically in the bound, and the error
    # bound at the smaller bound must cover the larger partial product.
    assert value_small <= value_large <= value_small + err_small
    assert err_large < err_small
    assert 1.0 < value_small < 1.1


def test_zeta_matches_bernoulli_bridge_for_quadratic_fields():
    # Degree-two sanity: the same Euler-product code over a quadratic
    # field must approach pi^4 B / (6 d^(3/2)).
    for d in (13, 17, 33):
        field = quad_field(d)
        estimate, error = zeta2_euler_product(field, 2000)
        exact = math.pi**4 * float(bernoulli2(field.disc)) / (6 * field.disc**1.5)
        assert abs(estimate - exact) <= error, (d, estimate, exact, error)


def test_zeta_error_bound_is_honest(K):
    # The tail bound at a small cutoff must cover the refined value.
    value_100, err_100 = zeta2_euler_product(K, 100)
    value_5000, _ = zeta2_euler_product(K, 5000)
    assert abs(value_5000 - value_100) <= err_100


def test_distinct_degree_pattern_matches_factorization():
    # quartic_splitting reads (residue degree, multiplicity) off the
    # squarefree and distinct-degree steps, and away from disc(f) off the
    # distinct-degree split alone; both must agree with the factorization,
    # at the primes dividing disc(f) too.
    for disc, coeffs, sub in BENCHMARK_FIELDS:
        K = quartic_new(coeffs, sub)
        assert K.disc == disc
        for p in primes_up_to(2000):
            f = poly(p, list(reversed(coeffs)))
            factors = poly_factor_mod_p(f)
            if K.disc % p:
                pattern = [d for d, g in distinct_degree_factors(f) for _ in range(g.degree // d)]
                assert pattern == sorted(g.degree for g, _ in factors), (disc, p)
            assert quartic_splitting(K, p) == sorted((g.degree, m) for g, m in factors), (disc, p)


def test_golden_zeta_value(K):
    value, error = zeta2_euler_product(K, 2000)
    assert abs(value - 1.0369) < 2e-3
    assert error < 1e-2


@given(st.sampled_from([3, 7, 11, 13, 17, 19, 23, 29, 31, 37]))
@settings(max_examples=10, deadline=None)
def test_splitting_shapes_are_partitions(K_biquadratic, p):
    shapes = quartic_splitting(K_biquadratic, p)
    assert sum(f * e for f, e in shapes) == 4
    assert shapes == sorted(shapes)
