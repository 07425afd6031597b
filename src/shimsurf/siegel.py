"""Exact values zeta_K(-1) of totally real fields of degree 2 and 4, by
Siegel's formula, with the ideal arithmetic of a maximal equation order
that the formula needs.

The weight-2 Hilbert Eisenstein series of a totally real field K of
degree n restricts on the diagonal to a modular form of weight 2n for
SL_2(Z).  For n = 2 and n = 4 that space is spanned by E_4 and E_8, and
comparing coefficients gives

    zeta_K(-1) = s(1)/60 (n = 2),    zeta_K(-1) = s(1)/30 (n = 4),

where s(m) sums sigma_1(nu d) over the totally positive nu in the inverse
different d^-1 with Tr(nu) = m, and sigma_1(a) is the sum of the norms of
the ideals dividing a (Siegel, "Berechnung von Zetafunktionen an
ganzzahligen Stellen", Nachr. Akad. Wiss. Goettingen 1969; Zagier, "On the
values at negative integers of the zeta-function of a real quadratic
field", Enseign. Math. 22, 1976; for n = 2 this is Cohen's sum, Math. Ann.
217, 1975).  The coefficient of q^2 gives s(2) = sigma_{2n-1}(2) s(1),
that is 9 s(1) or 129 s(1), and every evaluation checks it.  A quartic
field reads zeta_K(-1) from here (``QuarticField.zeta_minus1``); a
quadratic one sums Cohen's closed form (``QuadField.zeta_minus1``), and
the degree-2 instance of this kernel is that sum's test reference.

The field comes with a monic defining polynomial f whose equation order
Z[alpha] = Z[x]/(f) is maximal.  Then d = (f'(alpha)), so nu = beta/f'(alpha)
with beta in Z[alpha], and Tr(nu) is beta's top coefficient (Euler's
lemma).  A totally positive nu has Tr(nu^2) < Tr(nu)^2, a positive
definite quadratic form in beta with a rational Gram matrix; the
Fincke-Pohst enumeration runs over it in integers, through the Schur
complements of that matrix scaled to integers (Fincke and Pohst, Math.
Comp. 44, 1985).  nu is totally positive exactly when every elementary
symmetric function of its conjugates is positive; they come from the
power sums by Newton's identities, in integers for X = disc(f) nu.

sigma_1 of the ideal (beta) = nu d is a product over the rational primes
p dividing its norm N(nu) |disc f|, and needs the exponent of each prime
of K over p.  The primes over p are (p, g(alpha)) for the irreducible
factors g of f mod p, of residue degree deg g and ramification index the
multiplicity of g (Kummer-Dedekind; Cohen, A Course in Computational
Algebraic Number Theory, Thm 4.8.13), so the field hands over only its
polynomial.  Those shapes, the content of beta and the norm settle the
exponents, except where two or more primes over p could share them in
more than one way.  There a valuation is read off by multiplying with the
lift tau of f/g, for which tau/p has valuation -1 at (p, g(alpha)) and
is integral at every other prime (Cohen, Alg. 4.8.17).  These helpers
take a defining polynomial of any degree.  No float is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple, Protocol, Sequence

from .exact import InvariantError, factorize
from .polymod import pdivmod, poly, poly_factor_mod_p

__all__ = ["TotallyRealField", "PrimeIdeal", "kummer_dedekind_primes", "valuation", "zeta_minus1"]

Element = Sequence[int]


class TotallyRealField(Protocol):
    """What the kernel reads of a field: its degree and discriminant and a
    monic defining polynomial (ascending coefficients) whose equation
    order is the maximal order.  The primes over each p come from the
    Kummer-Dedekind factors of that polynomial."""

    degree: int
    disc: int

    @property
    def polynomial(self) -> tuple[int, ...]: ...


def mul_mod(a: Element, b: Element, f: Sequence[int]) -> list[int]:
    """The product of a and b in Z[x]/(f), for f monic of degree n and a, b
    given by n ascending coefficients."""
    n = len(f) - 1
    c = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                c[j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        t = c[i]
        if t:
            for j in range(n):
                c[i - n + j] -= t * f[j]
    return c[:n]


class PrimeIdeal(NamedTuple):
    """The prime (p, g(alpha)) of Z[alpha] for an irreducible factor g of f
    mod p of multiplicity e; tau is the lift of f/g, so that tau/p has
    valuation -1 here and is integral at every other prime."""

    p: int
    residue_degree: int
    ramification_index: int
    tau: tuple[int, ...]


def kummer_dedekind_primes(f: Sequence[int], p: int) -> list[PrimeIdeal]:
    """The primes over p of Z[x]/(f), for f monic (ascending coefficients)
    and the order maximal at p."""
    fp = poly(p, f)
    n = len(f) - 1
    out = []
    for g, e in poly_factor_mod_p(fp):
        tau = pdivmod(fp, g)[0].coeffs
        out.append(PrimeIdeal(p, g.degree, e, tau + (0,) * (n - len(tau))))
    return out


def valuation(f: Sequence[int], prime: PrimeIdeal, beta: Element) -> int:
    """The valuation of a nonzero beta in Z[x]/(f) at the prime: the
    largest k with beta (tau/p)^k integral."""
    k = 0
    x = mul_mod(beta, prime.tau, f)
    while not any(c % prime.p for c in x):
        k += 1
        x = mul_mod([c // prime.p for c in x], prime.tau, f)
    return k


def _det(M: list[list[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty one), by
    Bareiss's fraction-free elimination."""
    A = [list(row) for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            swap = next((r for r in range(k + 1, n) if A[r][k]), None)
            if swap is None:
                return 0
            A[k], A[swap], sign = A[swap], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def _power_sums(f: Sequence[int], count: int) -> list[int]:
    """Tr(alpha^k) for k < count, by Newton's identities on the
    coefficients of the monic f."""
    n = len(f) - 1
    s = [n]
    for k in range(1, count):
        s.append(-sum(f[n - i] * (s[k - i] if i < k else k) for i in range(1, min(k, n) + 1)))
    return s


def _open_range(a: int, b: int, c: int) -> range:
    """The integers t with a t^2 + 2 b t + c < 0, for a > 0: an interval,
    located by an integer square root and trimmed by exact evaluation."""
    disc = b * b - a * c
    if disc <= 0:
        return range(0)
    r = isqrt(disc)
    lo, hi = (-b - r) // a, (-b + r + 1) // a
    while lo <= hi and a * lo * lo + 2 * b * lo + c >= 0:
        lo += 1
    while hi >= lo and a * hi * hi + 2 * b * hi + c >= 0:
        hi -= 1
    return range(lo, hi + 1)


class _SiegelSum:
    """s(m) for one field, through its maximal equation order Z[alpha].

    A point is beta in Z[alpha] with top coefficient m, standing for
    nu = beta/f'(alpha).  The kernel works with the algebraic integer
    X = disc(f) nu = sign gamma beta, where gamma = N(f'(alpha))/f'(alpha)
    and sign = disc(f)/N(f'(alpha)) = +-1.  Its power sums are integers:
    P_1 = disc(f) m, and P_k = Tr(X^k) = sign^k Tr(gamma^k beta^k) is the
    Hankel form sum_(i,j) x_i y_j h_k[i + j] of x = beta^(k - k//2) and
    y = beta^(k//2), with h_k[t] = Tr(gamma^k alpha^t)."""

    def __init__(self, f: tuple[int, ...], disc: int) -> None:
        n = len(f) - 1
        self.f, self.n, self.disc = f, n, disc
        derivative = [i * c for i, c in enumerate(f)][1:]
        columns, column = [], derivative  # f'(alpha) alpha^i
        for _ in range(n):
            columns.append(column)
            column = mul_mod(column, [int(i == 1) for i in range(n)], f)
        M = [[col[i] for col in columns] for i in range(n)]
        norm = _det(M)  # N(f'(alpha)) = +-disc(f)
        if abs(norm) != disc:
            raise ValueError(
                f"|N(f'(alpha))| = |disc f| = {abs(norm)}, not the field discriminant {disc}: "
                "the equation order is not maximal"
            )
        self.sign = disc // norm
        # gamma, the first column of adj(M), solves M gamma = N(f'(alpha)) e_0
        gamma = [(-1) ** i * _det([row[:i] + row[i + 1 :] for row in M[1:]]) for i in range(n)]
        traces = _power_sums(f, 3 * n - 2)

        def trace_row(x: list[int], length: int) -> list[int]:  # Tr(x alpha^j), j < length
            return [sum(c * traces[i + j] for i, c in enumerate(x)) for j in range(length)]

        self.hankel, power = {}, gamma
        for k in range(2, n + 1):
            power = mul_mod(power, gamma, f)
            self.hankel[k] = trace_row(power, 2 * n - 1)
        h = self.hankel[2]  # P_2 = Tr(X^2) = beta^T H beta with H[i][j] = h[i + j]
        # Level k enumerates beta_k with beta_0 .. beta_(k-1) free.  The
        # least value of the form over those is the Schur complement of
        # H[:k][:k]; W_k, that complement times d_k = det H[:k][:k], is
        # the integer matrix k steps of Bareiss's elimination leave
        # (Sylvester's identity).
        self.levels = [([[h[i + j] for j in range(n)] for i in range(n)], 1)]
        for _ in range(n - 2):
            W, d_k = self.levels[-1]
            size = len(W)
            self.levels.append((
                [[(W[0][0] * W[i][j] - W[i][0] * W[0][j]) // d_k for j in range(1, size)] for i in range(1, size)],
                W[0][0],
            ))
        self.primes: dict[int, list[PrimeIdeal]] = {}
        self.known: dict[tuple[int, int], int] = {}

    def s(self, m: int) -> int:
        """The sum of sigma_1(nu d) over totally positive nu in d^-1 with
        Tr(nu) = m."""
        n = self.n
        bound = (self.disc * m) ** 2  # P_1^2
        beta = [0] * n
        beta[n - 1] = m
        total = 0

        def level(k: int) -> None:
            nonlocal total
            W, d_k = self.levels[k]
            rest = beta[k + 1 :]
            a = W[0][0]
            lin = sum(w * x for w, x in zip(W[0][1:], rest))
            const = sum(W[i + 1][j + 1] * x * y for i, x in enumerate(rest) for j, y in enumerate(rest))
            const -= d_k * bound
            if k:
                for t in _open_range(a, lin, const):
                    beta[k] = t
                    level(k - 1)
            else:
                total += self._line(beta, m, a, lin, const)

        level(n - 2)
        return total

    def _line(self, beta: list[int], m: int, a: int, lin: int, const: int) -> int:
        """The sum over the innermost line, beta_0 = t with
        a t^2 + 2 lin t + const < 0: there P_2 < P_1^2, that is
        Tr(nu^2) < m^2, so e_1 and e_2 of X are positive."""
        n, known = self.n, self.known
        scale = self.disc ** (n - 1)  # N(nu d) = N(X) / disc^(n-1)
        total = 0
        for t in _open_range(a, lin, const):
            beta[0] = t
            e = -(a * t * t + 2 * lin * t + const) // 2
            if n > 2:
                e = self._norm_if_positive(beta, m, e)
                if not e:
                    continue
            norm, rest = divmod(e, scale)
            if rest:
                raise InvariantError(f"the norm of {beta} is not an integer")
            content = gcd(*beta)
            value = known.get((norm, content))
            total += self._sigma1(beta, norm, content) if value is None else value
        return total

    def _norm_if_positive(self, beta: list[int], m: int, e: int) -> int:
        """N(X) when X, with e_2(X) = e > 0, is totally positive, else 0:
        Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) P_i give the
        elementary symmetric functions of its conjugates."""
        f, p1 = self.f, self.disc * m
        P = [0, p1, p1 * p1 - 2 * e]
        E = [1, p1, e]
        powers = {1: beta, 2: mul_mod(beta, beta, f)}  # beta^(k//2) for k <= 4
        for k in range(3, self.n + 1):
            h, x, y = self.hankel[k], powers[k - k // 2], powers[k // 2]
            P.append(self.sign**k * sum(a * b * h[i + j] for i, a in enumerate(x) for j, b in enumerate(y)))
            e = sum((-1) ** (i - 1) * E[k - i] * P[i] for i in range(1, k + 1)) // k
            if e <= 0:
                return 0
            E.append(e)
        return e

    def _sigma1(self, beta: list[int], norm: int, content: int) -> int:
        """sigma_1 of the ideal (beta), of the given norm and content.

        The exponent of (beta) at a prime over p of ramification index e
        is a e + v, with p^a the p-part of the content and v the valuation
        of beta1 = beta / p^a, which is not in pO; the residue degrees
        times the v add up to the norm exponent less n a.  The value is
        remembered for (norm, content) unless a valuation had to be
        computed."""
        n, f = self.n, self.f
        total, known = 1, True
        for p, k in factorize(norm):
            if k == 1:  # one prime of norm p divides (beta), once
                total *= p + 1
                continue
            primes = self.primes.get(p)
            if primes is None:
                primes = self.primes[p] = kummer_dedekind_primes(f, p)
            shape = [(q.residue_degree, q.ramification_index) for q in primes]
            a = 0
            while content % p ** (a + 1) == 0:
                a += 1
            k -= n * a
            (f1, e1), *others = shape
            if not others:
                v = [k // f1]
            elif not k:
                v = [0] * len(shape)
            elif others == [(f1, 1)] and e1 == 1:
                # pO = P1 P2 does not divide beta1, so only one of the two,
                # of equal norm, divides it: which one leaves sigma_1 as it is.
                v = [k // f1, 0]
            else:
                known = False
                beta1 = [c // p**a for c in beta]
                v = [valuation(f, q, beta1) for q in primes[:-1]]
                v.append((k - sum(fd * x for (fd, _), x in zip(shape, v))) // shape[-1][0])
            if min(v) < 0 or sum(fd * x for (fd, _), x in zip(shape, v)) != k:
                raise InvariantError(f"the valuations of {beta} over {p} do not add up to its norm")
            for (fd, e), x in zip(shape, v):
                q = p**fd
                total *= (q ** (a * e + x + 1) - 1) // (q - 1)
        if known:
            self.known[(norm, content)] = total
        return total


def zeta_minus1(field: TotallyRealField) -> Fraction:
    """zeta_K(-1) of a totally real field of degree 2 or 4, exactly.

    Raises InvariantError, also under ``python -O``, unless
    s(2) = sigma_{2n-1}(2) s(1)."""
    n = field.degree
    if n not in (2, 4):
        raise ValueError(f"Siegel's formula is implemented for degree 2 and 4, not {n}")
    s1, s2 = _siegel_sums(field.polynomial, field.disc)
    if s2 != (1 + 2 ** (2 * n - 1)) * s1:
        raise InvariantError(
            f"Siegel's identity s(2) = {1 + 2 ** (2 * n - 1)} s(1) fails for {field}: s(1) = {s1}, s(2) = {s2}"
        )
    return Fraction(s1, 60 if n == 2 else 30)


@lru_cache(maxsize=None)
def _siegel_sums(f: tuple[int, ...], disc: int) -> tuple[int, int]:
    """s(1) and s(2), kept per defining polynomial and discriminant, all
    the kernel reads: one field declared with different subfields is
    summed once."""
    kernel = _SiegelSum(f, disc)
    return kernel.s(1), kernel.s(2)
