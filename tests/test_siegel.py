"""Exact zeta_K(-1) by Siegel's formula: the pinned values of the
benchmark fields, the float Euler product as an independent oracle, the
weight-8 identity s(2) = 129 s(1) over a box of defining polynomials, the
Kummer-Dedekind valuation helpers, the shape shortcuts of sigma_1 against
the valuations at every prime, the degree-2 kernel as the reference
for Cohen's closed sum in ``quadfield``, and the identity check surviving
``python -O``."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from shimsurf.exact import factorize, square_part
from shimsurf.quadfield import bernoulli2, fundamental_discriminants, quad_field
from shimsurf.quartic import (
    _integer_roots,
    _pair_discriminants,
    _resolvent_cubic,
    quartic_new,
)
from shimsurf.siegel import (
    _det,
    _siegel_sums,
    _SiegelSum,
    kummer_dedekind_primes,
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


def _sigma1_reference(f, beta, norm):
    """sigma_1 of the ideal (beta) of the given norm, from the valuation of
    beta at every Kummer-Dedekind prime over every p dividing the norm."""
    total = 1
    for p, _ in factorize(norm):
        for q in kummer_dedekind_primes(f, p):
            size = p**q.residue_degree
            total *= (size ** (valuation(f, q, beta) + 1) - 1) // (size - 1)
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
    # The shape shortcuts of _sigma1 and its (norm, content) memo against
    # the valuations at every prime, on each point of s(1) and s(2) of the
    # six benchmark fields and the 42 polynomials of the box.
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
                primes_over[p] = kummer_dedekind_primes(coeffs, p)
                assert sum(q.residue_degree * q.ramification_index for q in primes_over[p]) == n
                for q in primes_over[p]:
                    assert valuation(coeffs, q, [p] + [0] * (n - 1)) == q.ramification_index
            assert sum(q.residue_degree * valuation(coeffs, q, beta) for q in primes_over[p]) == k, (beta, p)
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
