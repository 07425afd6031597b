"""Polynomial arithmetic and factorization over prime fields.

The factorization trust chain: every factorization is checked by product
reconstruction, and every factor reported irreducible is checked by
exhaustion over low-degree monic divisors (degree <= 5 polynomials are
irreducible precisely when they have no monic factor of degree 1 or 2).
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shimsurf.exact import primes_up_to
from shimsurf.polymod import (
    PolyModP,
    distinct_degree_factors,
    is_p_maximal,
    padd,
    pderiv,
    pdivmod,
    pgcd,
    pmod,
    pmonic,
    pmul,
    poly,
    poly_factor_mod_p,
    ppow_mod,
    psub,
    squarefree_decomposition,
)
from shimsurf.quartic import _cubic_discriminant, _resolvent_cubic

PRIMES_31 = primes_up_to(31)


def _product(p, factors):
    out = poly(p, [1])
    for h, mult in factors:
        for _ in range(mult):
            out = pmul(out, h)
    return out


def _monic_of_degree(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield poly(p, list(tail) + [1])


def _assert_irreducible_by_exhaustion(h: PolyModP):
    # degree <= 5: irreducible iff no monic factor of degree 1 or 2
    assert h.degree <= 5, "exhaustive check only written for degree <= 5"
    for k in (1, 2):
        if k >= h.degree:
            continue
        for candidate in _monic_of_degree(h.p, k):
            _, rem = pdivmod(h, candidate)
            assert rem.coeffs != (), (
                f"{h} claimed irreducible but is divisible by {candidate}"
            )


def test_divmod_and_ring_axioms_exhaustive_small():
    p = 5
    cubics = list(_monic_of_degree(p, 3))[:40]
    quadratics = list(_monic_of_degree(p, 2))[:10]
    for a in cubics:
        for b in quadratics:
            q, r = pdivmod(a, b)
            assert padd(pmul(q, b), r) == a
            assert r.degree < b.degree or r.coeffs == ()
            assert psub(a, a).coeffs == ()


def test_factor_known_shapes():
    # x^2 + 1 mod 5 = (x+2)(x+3); mod 3 it is irreducible.
    f5 = poly(5, [1, 0, 1])
    assert poly_factor_mod_p(f5) == [(poly(5, [2, 1]), 1), (poly(5, [3, 1]), 1)]
    f3 = poly(3, [1, 0, 1])
    assert poly_factor_mod_p(f3) == [(f3, 1)]
    # Repeated factor: (x+1)^2 mod 7.
    sq = pmul(poly(7, [1, 1]), poly(7, [1, 1]))
    assert poly_factor_mod_p(sq) == [(poly(7, [1, 1]), 2)]
    # Frobenius collapse: x^p - x factors into all linear polynomials.
    for p in (2, 3, 5, 7):
        coeffs = [0] * (p + 1)
        coeffs[1] = -1
        coeffs[p] = 1
        factors = poly_factor_mod_p(poly(p, coeffs))
        assert sorted(h.coeffs[0] for h, _ in factors) == list(range(p))
        assert all(h.degree == 1 and m == 1 for h, m in factors)


def test_factor_equal_degree_products_in_characteristic_two():
    # F_2 has one irreducible quadratic, so no quartic mod 2 reaches the
    # trace loop that splits equal-degree factors in characteristic 2 at
    # d >= 2.  These products of distinct irreducibles of one degree do:
    # both cubics over F_2, and all three quartics.
    cubics = [(1, 1, 0, 1), (1, 0, 1, 1)]
    quartics = [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)]
    for known in (cubics, quartics):
        factors = [(poly(2, g), 1) for g in known]
        assert poly_factor_mod_p(_product(2, factors)) == sorted(factors, key=lambda fm: fm[0].coeffs)


def test_factor_reconstruction_and_irreducibility_sampled():
    import random

    rng = random.Random(20260814)
    for p in PRIMES_31:
        for _ in range(12):
            degree = rng.randint(1, 5)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
            f = poly(p, coeffs)
            factors = poly_factor_mod_p(f)
            assert _product(p, factors) == pmonic(f)
            assert sum(h.degree * m for h, m in factors) == f.degree
            for h, _ in factors:
                _assert_irreducible_by_exhaustion(h)


def test_factor_deterministic():
    f = poly(31, [7, 3, 0, 11, 1, 1])
    assert poly_factor_mod_p(f) == poly_factor_mod_p(f)


def test_irreducible_counts_match_necklace_formula():
    # Number of monic irreducible quadratics over F_p is p(p-1)/2.
    for p in (2, 3, 5, 7):
        count = 0
        for f in _monic_of_degree(p, 2):
            factors = poly_factor_mod_p(f)
            if len(factors) == 1 and factors[0] == (f, 1):
                count += 1
        assert count == p * (p - 1) // 2


def test_pgcd_and_powmod():
    p = 11
    a = pmul(poly(p, [1, 1]), poly(p, [3, 0, 1]))
    b = pmul(poly(p, [1, 1]), poly(p, [5, 1]))
    assert pgcd(a, b) == poly(p, [1, 1])
    # Fermat: x^p = x mod (x^2 - a) has trace structure; spot check x^p mod f.
    f = poly(p, [1, 0, 1])  # x^2 + 1, irreducible mod 11
    frob = ppow_mod(poly(p, [0, 1]), p**2, f)
    assert pmod(psub(frob, poly(p, [0, 1])), f).coeffs == ()


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=120, deadline=None)
def test_mul_commutes_and_degree_adds(degree, data):
    p = data.draw(st.sampled_from(PRIMES_31))
    a = poly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [1])
    b = poly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2)) + [1])
    assert pmul(a, b) == pmul(b, a)
    assert pmul(a, b).degree == a.degree + b.degree


def test_constructor_validation():
    with pytest.raises(ValueError):
        poly(4, [1, 1])  # modulus must be prime
    with pytest.raises(ZeroDivisionError):
        pdivmod(poly(5, [1, 1]), poly(5, []))
    with pytest.raises(ValueError, match="exponent"):
        ppow_mod(poly(5, [0, 1]), -1, poly(5, [1, 0, 1]))


def test_squarefree_decomposition_rejects_constants():
    # A constant has zero derivative; it must be refused, not sent on to
    # its own p-th root without end.
    for coeffs in ([1], [3], []):
        with pytest.raises(ValueError, match="need degree >= 1"):
            squarefree_decomposition(poly(5, coeffs))


@pytest.mark.parametrize(
    "p, factors",
    [
        (3, [((1, 1), 3), ((1, 0, 1), 3)]),  # (x + 1)^3 (x^2 + 1)^3
        (2, [((1, 1, 1), 2), ((1, 1), 4)]),  # (x^2 + x + 1)^2 (x + 1)^4
        (5, [((2, 1), 5), ((2, 0, 1), 1)]),  # (x + 2)^5 (x^2 + 2): a p-th power left in the tail
    ],
    ids=["cube-over-3", "square-over-2", "fifth-power-tail-over-5"],
)
def test_squarefree_decomposition_of_pth_powers(p, factors):
    # The first two have f' = 0, so the decomposition runs on the p-th
    # root and multiplies the multiplicities by p.
    f = _product(p, [(poly(p, g), m) for g, m in factors])
    parts = squarefree_decomposition(f)
    assert _product(p, parts) == f
    expected = {}
    for g, m in factors:
        expected[m] = pmul(expected.get(m, poly(p, [1])), poly(p, g))
    assert len(parts) == len(expected) and {m: g for g, m in parts} == expected


def test_factorization_steps_reject_non_monic():
    # 2x^2 + 1 over F_5 must be refused, not decomposed as x^2 + 3.
    f = poly(5, [1, 0, 2])
    for step in (squarefree_decomposition, distinct_degree_factors, poly_factor_mod_p):
        with pytest.raises(ValueError, match="monic"):
            step(f)


def _times_x_mod(a: list[int], f: list[int]) -> list[int]:
    # x * a mod the monic f over Z (ascending coefficients, len(a) = deg f).
    top, c = a[-1], [0] + a[:-1]
    return [x - top * y for x, y in zip(c, f)]


def _some_element_over_p_is_integral(f: list[int], p: int) -> bool:
    # Whether A(x)/p is integral over Z for some nonzero A of degree
    # < deg f with coefficients in [0, p): the characteristic polynomial of
    # M/p, M the matrix of multiplication by A, has coefficients c_k(M)/p^k,
    # with the c_k(M) from the Faddeev-LeVerrier recursion.
    n = len(f) - 1
    for A in itertools.product(range(p), repeat=n):
        if not any(A):
            continue
        cols = [list(A)]
        while len(cols) < n:
            cols.append(_times_x_mod(cols[-1], f))
        M = [[col[i] for col in cols] for i in range(n)]
        N, integral = M, True
        for k in range(1, n + 1):
            c = -sum(N[i][i] for i in range(n)) // k
            integral = integral and c % p**k == 0
            B = [[N[i][j] + c * (i == j) for j in range(n)] for i in range(n)]
            N = [[sum(M[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        if integral:
            return True
    return False


def test_dedekind_criterion_matches_integral_elements():
    # Z[x]/(f) is p-maximal exactly when no element of (1/p) Z[x]/(f)
    # outside it is integral; checked for every separable monic quartic in
    # [-2, 2]^4 and each p in {2, 3} with p^2 | disc(f).
    checked = refused = 0
    for tail in itertools.product(range(-2, 3), repeat=4):
        coeffs = (1, *tail)
        disc = _cubic_discriminant(_resolvent_cubic(coeffs))
        for p in (2, 3):
            if disc and disc % (p * p) == 0:
                f = list(coeffs[::-1])
                maximal = is_p_maximal(f, p)
                assert maximal != _some_element_over_p_is_integral(f, p), (coeffs, p)
                checked, refused = checked + 1, refused + (not maximal)
    assert (checked, refused) == (416, 152)


def _reduced(h: PolyModP, p: int) -> bool:
    return h.p == p and all(0 <= c < p for c in h.coeffs) and (not h.coeffs or h.coeffs[-1] != 0)


_coeff_lists = st.lists(st.integers(-(10**6), 10**6), max_size=7)


@given(st.sampled_from(PRIMES_31), _coeff_lists, _coeff_lists, _coeff_lists, st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_kernel_outputs_stay_reduced(p, ca, cb, cu, e):
    # PolyModP is an unchecked record, so every kernel must keep its form:
    # coefficients in [0, p) and a nonzero leading coefficient.
    a, b = poly(p, ca), poly(p, cb)
    u = poly(p, cu + [1])  # monic of degree >= 0
    outputs = [padd(a, b), psub(a, b), pmul(a, b), pmonic(a), pgcd(a, b), pderiv(a)]
    if b.coeffs:
        outputs += pdivmod(a, b)
    if b.degree >= 1:
        outputs.append(ppow_mod(a, e, b))
    f = pmul(pmul(u, u), pmul(u, poly(p, [1, 1])))  # repeated factors, degree >= 1
    parts = squarefree_decomposition(f)
    assert sum(g.degree * m for g, m in parts) == f.degree
    for g, _ in parts:
        outputs.append(g)
        outputs += [h for _, h in distinct_degree_factors(g)]
    for h in outputs:
        assert _reduced(h, p), (p, h)


@given(st.sampled_from(PRIMES_31), st.lists(st.integers(0, 30), max_size=8))
@settings(max_examples=200, deadline=None)
def test_distinct_degree_matches_frobenius_definition(p, tail):
    # Each part is gcd(x^(p^d) - x, rest) with the power taken directly,
    # not by the composition the factorization uses.
    f = poly(p, tail + [1])
    assume(f.degree >= 1 and pgcd(f, pderiv(f)).degree == 0)
    x = poly(p, [0, 1])
    rest, product, last = f, poly(p, [1]), 0
    for d, g in distinct_degree_factors(f):
        assert d > last and g.degree % d == 0
        assert g == pgcd(psub(ppow_mod(x, p**d, rest), x), rest)
        product = pmul(product, g)
        rest, last = pdivmod(rest, g)[0], d
    assert product == f


def _schoolbook_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    # a * b mod m over F_p, reducing at every step; independent of polymod.
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    dm, lead_inv = len(m) - 1, pow(m[-1], p - 2, p)
    for i in range(len(prod) - 1, dm - 1, -1):
        q = prod[i] * lead_inv % p
        for j in range(dm + 1):
            prod[i - dm + j] = (prod[i - dm + j] - q * m[j]) % p
    rem = prod[:dm]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


@given(
    st.sampled_from(PRIMES_31[1:]),
    _coeff_lists,
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7),
    st.integers(2, 30),
    st.integers(0, 60),
)
@settings(max_examples=300, deadline=None)
def test_ppow_mod_matches_schoolbook_reference(p, ca, cm, lead, e):
    assume(lead % p > 1)  # a non-monic modulus of degree >= 1
    a, m = poly(p, ca), poly(p, cm + [lead])
    expected = [1]
    for _ in range(e):
        expected = _schoolbook_mulmod(expected, list(a.coeffs), list(m.coeffs), p)
    assert list(ppow_mod(a, e, m).coeffs) == expected
