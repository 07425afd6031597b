"""Exact zeta_K(-1) by Siegel's formula: the pinned values of the
benchmark fields, the float Euler product as an independent oracle, the
weight-8 identity s(2) = 129 s(1) over a box of defining polynomials, the
degree-4 point test and the descent against generic reference code,
with the pinned number of points each sum visits, the determinant
against the Leibniz sum, the Kummer-Dedekind valuations, sigma_1's one
rule and its memo against the valuations at every prime, the
degree-2 kernel as the reference for Cohen's closed sum in
``quadfield``, and the identity check surviving ``python -O``."""

import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from shimsurf.exact import factorize, square_part
from shimsurf.polymod import pdivmod, poly, poly_factor_mod_p
from shimsurf.quadfield import bernoulli2, fundamental_discriminants, quad_field
from shimsurf.quartic import (
    _integer_roots,
    _pair_discriminants,
    _resolvent_cubic,
    quartic_new,
)
from shimsurf.siegel import (
    _det,
    _open_range,
    _siegel_sums,
    _SiegelSum,
    mul_mod,
    valuation,
    zeta_minus1,
)

from float_reference import zeta2_euler_product

SRC = Path(__file__).resolve().parents[1] / "src"

# (field discriminant, defining polynomial, subfield radicand, zeta_K(-1))
# for the six fields of the quartic benchmark; zeta_K(-1) is twice the
# Euler number of the full unit group.
BENCHMARK_FIELDS = (
    (725, (1, -1, -3, 1, 1), 5, Fraction(2, 15)),
    (1125, (1, -5, 5, 5, -5), 5, Fraction(4, 15)),
    (2000, (1, -6, 1, 4, 1), 5, Fraction(2, 3)),
    (2048, (1, -4, -2, 4, -1), 2, Fraction(5, 6)),
    (2304, (1, -4, 2, 4, -2), 2, Fraction(1)),
    (2525, (1, -5, 3, 5, 1), 5, Fraction(14, 15)),
)


@pytest.mark.parametrize("disc, coeffs, sub, value", BENCHMARK_FIELDS)
def test_benchmark_fields_pinned(disc, coeffs, sub, value):
    K = quartic_new(coeffs, sub)
    assert K.disc == disc
    assert zeta_minus1(K) == K.zeta_minus1() == value


@pytest.mark.parametrize("disc, coeffs, sub, value", BENCHMARK_FIELDS)
def test_exact_value_in_the_euler_product_window(disc, coeffs, sub, value):
    # zeta_K(2) = (2 pi^2)^4 zeta_K(-1) / d_K^(3/2) by the functional
    # equation, and the truncated product's proven window holds it.
    K = quartic_new(coeffs, sub)
    estimate, error = zeta2_euler_product(K, 2000)
    exact = (2 * math.pi**2) ** 4 * float(zeta_minus1(K)) / disc**1.5
    assert estimate <= exact <= estimate + error, (disc, estimate, exact, error)


def _accepted_quartics(bound):
    """Every monic x^4 + a x^3 + b x^2 + c x + d with |a|, |b|, |c|, |d| <= bound
    that quartic_new accepts with one of its certified quadratic subfields."""
    for tail in itertools.product(range(-bound, bound + 1), repeat=4):
        coeffs = (1, *tail)
        radicands = {
            square_part(x)[0]
            for r in _integer_roots(_resolvent_cubic(coeffs))
            for x in _pair_discriminants(coeffs, r)
            if x > 0
        } - {1}
        for d in sorted(radicands):
            try:
                yield quartic_new(coeffs, d)
            except ValueError:  # not totally real, or the equation order is not maximal
                continue
            break


def test_weight_eight_identity_on_a_coefficient_box():
    # 42 polynomials, eleven fields with d_K from 725 to 20808; one field
    # presented by different polynomials must give one value.
    values: dict[int, set[int]] = {}
    for K in _accepted_quartics(4):
        kernel = _SiegelSum(K.polynomial, K.disc)
        s1, s2 = kernel.s(1), kernel.s(2)
        assert s1 > 0 and s2 == 129 * s1, (K.coeffs, s1, s2)
        values.setdefault(K.disc, set()).add(s1)
    assert len(values) == 11 and sum(1 for _ in _accepted_quartics(4)) == 42
    assert all(len(v) == 1 for v in values.values()), values


def _norm_if_positive_reference(kernel, beta, m, e):
    """The kernel's point test for any degree, the reference for its
    written-out degree-4 form: P_k as the Hankel form of beta^(k - k//2)
    and beta^(k//2) through mul_mod, and Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) P_i in a loop; N(X) when X is
    totally positive, else 0."""
    f, p1 = kernel.f, kernel.disc * m
    P = [0, p1, p1 * p1 - 2 * e]
    E = [1, p1, e]
    powers = {1: beta, 2: mul_mod(beta, beta, f)}
    for k in range(3, kernel.n + 1):
        h, x, y = kernel.hankel[k], powers[k - k // 2], powers[k // 2]
        P.append(kernel.sign**k * sum(a * b * h[i + j] for i, a in enumerate(x) for j, b in enumerate(y)))
        e = sum((-1) ** (i - 1) * E[k - i] * P[i] for i in range(1, k + 1)) // k
        if e <= 0:
            return 0
        E.append(e)
    return e


def _lines_reference(kernel, m):
    """(beta_1 .. beta_(n-1), a, lin, const) of every innermost line, by a
    descent that re-sums each level's Schur-complement form over the fixed
    coordinates: the reference for the kernel's descent by Sylvester's
    identity."""
    n = kernel.n
    bound = (kernel.disc * m) ** 2
    beta = [0] * n
    beta[n - 1] = m
    lines = []

    def level(k):
        W, d_k = kernel.levels[k]
        rest = beta[k + 1 :]
        a = W[0][0]
        lin = sum(w * x for w, x in zip(W[0][1:], rest))
        const = sum(W[i + 1][j + 1] * x * y for i, x in enumerate(rest) for j, y in enumerate(rest)) - d_k * bound
        if k:
            for t in _open_range(a, lin, const):
                beta[k] = t
                level(k - 1)
        else:
            lines.append((tuple(beta[1:]), a, lin, const))

    level(n - 2)
    return lines


class _CheckedPointSum(_SiegelSum):
    """The kernel, checking its point test against the reference at every
    point it visits, counting the points visited and the totally positive
    ones, and recording its innermost lines."""

    def __init__(self, field):
        super().__init__(field.polynomial, field.disc)
        self.visited = self.positive = 0
        self.lines = []

    def _line(self, beta, m, a, lin, const):
        self.lines.append((tuple(beta[1:]), a, lin, const))
        return super()._line(beta, m, a, lin, const)

    def _norm_if_positive(self, beta, m, e):
        value = super()._norm_if_positive(beta, m, e)
        assert value == _norm_if_positive_reference(self, list(beta), m, e), (self.f, beta, m)
        self.visited += 1
        self.positive += value > 0
        return value


# (points visited, totally positive) by s(1) and by s(2) on each benchmark field
_POINT_COUNTS = {
    725: ((36, 4), (282, 36)),
    1125: ((44, 8), (360, 50)),
    2000: ((60, 10), (487, 65)),
    2048: ((57, 7), (461, 61)),
    2304: ((59, 9), (515, 69)),
    2525: ((72, 8), (542, 66)),
}


def _checked_counts(K):
    """(points visited, totally positive) by s(1) and by s(2), with the
    point test checked at every point and the lines against the
    reference descent."""
    kernel = _CheckedPointSum(K)
    counts = []
    for m in (1, 2):
        kernel.visited = kernel.positive = 0
        kernel.lines = []
        kernel.s(m)
        assert kernel.lines == _lines_reference(kernel, m), (K.coeffs, m)
        counts.append((kernel.visited, kernel.positive))
    return tuple(counts)


def test_kernel_matches_the_reference_descent_and_point_test():
    # The written-out degree-4 point test equals the generic one at every
    # point, and the descent by Sylvester's identity reaches the same
    # lines with the same quadratics, on the six benchmark fields and the
    # 42 polynomials of the box.
    fields = [quartic_new(coeffs, sub) for _, coeffs, sub, _ in BENCHMARK_FIELDS]
    assert {K.disc: _checked_counts(K) for K in fields} == _POINT_COUNTS
    for K in _accepted_quartics(4):
        assert all(positive > 0 for _, positive in _checked_counts(K)), K.coeffs


def _primes_over(f, p):
    """(residue degree, ramification index, tau) of each prime (p, g(x)) of
    Z[x]/(f), for the factors g of f mod p and tau the lift of f/g."""
    fp = poly(p, f)
    return [(g.degree, e, pdivmod(fp, g)[0].coeffs) for g, e in poly_factor_mod_p(fp)]


def _sigma1_reference(f, beta, norm):
    """sigma_1 of the ideal (beta) of the given norm, from the valuation of
    beta at every Kummer-Dedekind prime over every p dividing the norm."""
    total = 1
    for p, _ in factorize(norm):
        for degree, _, tau in _primes_over(f, p):
            size = p**degree
            total *= (size ** (valuation(f, p, tau, beta) + 1) - 1) // (size - 1)
    return total


class _NeverAnswers(dict):
    """A (norm, content) memo that stores what the kernel puts in but
    never answers, so that the kernel runs _sigma1 at every point."""

    def get(self, key, default=None):
        return default


class _RecordingSum(_SiegelSum):
    """The kernel, recording (beta, norm, content, sigma_1) at every point."""

    def __init__(self, field):
        super().__init__(field.polynomial, field.disc)
        self.known = _NeverAnswers()
        self.points = []

    def _sigma1(self, beta, norm, content):
        value = super()._sigma1(beta, norm, content)
        self.points.append((tuple(beta), norm, content, value))
        return value


def test_sigma1_shortcuts_match_every_valuation():
    # _sigma1's one rule (the k = 1 identity, else the valuation at every
    # prime over p but the last and the norm at the last) and what its
    # (norm, content) memo stores, against the valuations at every prime,
    # on each point of s(1) and s(2) of the six benchmark fields and the
    # 42 polynomials of the box.
    fields = [quartic_new(coeffs, sub) for _, coeffs, sub, _ in BENCHMARK_FIELDS]
    for K in [*fields, *_accepted_quartics(4)]:
        kernel = _RecordingSum(K)
        kernel.s(1), kernel.s(2)
        memo = dict(kernel.known)
        assert kernel.points
        for beta, norm, content, value in kernel.points:
            expected = _sigma1_reference(K.polynomial, beta, norm)
            assert value == expected == memo.get((norm, content), expected), (K.coeffs, beta)


def _norm(f, beta):
    n = len(f) - 1
    columns = [beta]
    for _ in range(n - 1):
        columns.append(mul_mod(columns[-1], [int(i == 1) for i in range(n)], f))
    return abs(_det([[col[i] for col in columns] for i in range(n)]))


def _leibniz(M):
    # sum over permutations s of sign(s) prod M[i][s(i)]; 1 for the empty matrix
    n, total = len(M), 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


@pytest.mark.parametrize("n", range(6))
def test_det_matches_the_leibniz_sum(n):
    # Entries 0..5, mostly zero, so that zero pivots, which need a row
    # swap, and singular matrices are frequent; both are counted, so that
    # the test fails should the draw stop producing them.
    rng = random.Random(n)
    zero_pivots = singular = 0
    for _ in range(300):
        M = [[rng.choice((0, 0, 0, rng.randint(0, 5))) for _ in range(n)] for _ in range(n)]
        det = _leibniz(M)
        assert _det(M) == det, M
        zero_pivots += n > 1 and not M[0][0]
        singular += not det
    assert n < 2 or (zero_pivots and singular)


def _times_x_mod(a, f):
    # x a mod the monic f over Z, for a of deg f ascending coefficients.
    top = a[-1]
    return [x - top * y for x, y in zip([0, *a[:-1]], f)]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_mul_mod_takes_a_short_second_factor(length):
    # A lift tau of f/g has fewer than n coefficients; the product must
    # equal sum_j b_j x^j a mod f, built here one shift at a time.
    f = (1, 1, -3, -1, 1)
    for a in itertools.product(range(-2, 3), repeat=4):
        for b in [(3, -1, 2, 5)[:length], (0, 0, 0, 7)[:length]]:
            expected, shifted = [0] * 4, list(a)
            for y in b:
                expected = [u + y * v for u, v in zip(expected, shifted)]
                shifted = _times_x_mod(shifted, f)
            assert mul_mod(a, b, f) == expected, (a, b)


@pytest.mark.parametrize("coeffs", [(-1, -1, 1), (-2, 0, 1), (1, 1, -3, -1, 1), (-2, 4, 2, -4, 1)])
def test_valuations_add_up_to_the_norm(coeffs):
    # For x^2 - x - 1, x^2 - 2 and two benchmark quartics, all with a
    # maximal equation order: v(p) = e at every prime over p, and
    # sum f v(beta) = v_p(N(beta)) over a box of beta, which reaches
    # primes p with several primes over them.
    n = len(coeffs) - 1
    primes_over = {}
    for beta in itertools.product(range(-5, 6) if n == 2 else range(-2, 3), repeat=n):
        if not any(beta):
            continue
        for p, k in factorize(_norm(coeffs, beta)):
            if p not in primes_over:
                primes_over[p] = _primes_over(coeffs, p)
                assert sum(degree * e for degree, e, _ in primes_over[p]) == n
                for _, e, tau in primes_over[p]:
                    assert valuation(coeffs, p, tau, [p] + [0] * (n - 1)) == e
            assert sum(degree * valuation(coeffs, p, tau, beta) for degree, _, tau in primes_over[p]) == k, (beta, p)
    assert any(len(primes) > 1 for primes in primes_over.values())


@dataclass(frozen=True)
class _QuadraticOrder:
    """Q(sqrt D) as the kernel reads it: the minimal polynomial of
    (1 + sqrt D)/2 or of sqrt(D/4), a generator of the ring of integers."""

    disc: int
    degree: int = 2

    @property
    def polynomial(self):
        D = self.disc
        return (-(D - 1) // 4, -1, 1) if D % 4 == 1 else (-D // 4, 0, 1)


def test_quadratic_presentations_agree():
    # Q(sqrt 5) through x^2 - x - 1, Q(sqrt 13) through x^2 - x - 3 and
    # Q(sqrt 7) through x^2 - 7 give Cohen's values 1/30, 1/6 and 2/3.
    cases = ((5, (-1, -1, 1), Fraction(1, 30)), (13, (-3, -1, 1), Fraction(1, 6)), (7, (-7, 0, 1), Fraction(2, 3)))
    for d, polynomial, value in cases:
        K = _QuadraticOrder(quad_field(d).disc)
        assert K.polynomial == polynomial
        assert zeta_minus1(K) == value == quad_field(d).zeta_minus1()


def test_quadratic_kernel_matches_the_closed_sum_to_2000():
    # The lattice kernel's degree-2 instance against Cohen's closed sum.
    count = 0
    for disc in fundamental_discriminants(5, 2000):
        assert 24 * zeta_minus1(_QuadraticOrder(disc)) == bernoulli2(disc), disc
        count += 1
    assert count == 607


def test_rejects_unsupported_degree_and_a_wrong_discriminant():
    class Cubic:
        degree, disc, polynomial = 3, 49, (1, -2, -1, 1)

    with pytest.raises(ValueError, match="degree 2 and 4"):
        zeta_minus1(Cubic())

    class Wrong:
        degree, disc, polynomial = 2, 5, (-5, 0, 1)  # disc(x^2 - 5) = 20

    with pytest.raises(ValueError, match="not maximal"):
        zeta_minus1(Wrong())


# Breaks sigma_1 for every point, so s(2) = 9 s(1) or 129 s(1) cannot
# hold: the closed sum's integer sigma_1 for a quadratic field, the
# kernel's ideal sigma_1 for a quartic one.
_BROKEN = {
    "bernoulli": "import shimsurf.quadfield as q; q._sigma1 = lambda n: 1",
    "quartic": "import shimsurf.siegel as s; s._SiegelSum._sigma1 = lambda self, beta, norm, content: 1",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "--d", "33"],
        ["quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5", "--subgroup", "full"],
    ],
)
def test_identity_mismatch_raises_under_optimize(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import sys; {_BROKEN[argv[0]]}; from shimsurf.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "internal invariant violation: Siegel's identity s(2) =" in proc.stderr


def test_one_polynomial_is_summed_once():
    # x^4 - 4x^3 + 2x^2 + 4x - 2 declared with each of its three certified
    # subfields is one field to the kernel: one sum, then two cache hits.
    _siegel_sums.cache_clear()
    values = [quartic_new((1, -4, 2, 4, -2), d).zeta_minus1() for d in (2, 3, 6)]
    assert values == [Fraction(1)] * 3
    info = _siegel_sums.cache_info()
    assert (info.hits, info.misses) == (2, 1)
