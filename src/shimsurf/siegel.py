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
Comp. 44, 1985).  Level k fixes rest = (beta_(k+1), ..., beta_(n-1)) and
needs the constant c_k = rest^T W_k[1:, 1:] rest of its integer form W_k,
with a_k = W_k[0][0] and lin_k = W_k[0][1:] . rest.  It takes c_k from
the parent's value q_(k+1) = rest^T W_(k+1) rest, in O(n) steps rather
than a sum over rest: Bareiss's step W_(k+1) = (a_k W_k[1:, 1:] - w w^T)/d_k,
w = W_k[0][1:] (``_bareiss_step``, which ``_det`` runs as well), gives
d_k q_(k+1) = a_k c_k - lin_k^2, that is
c_k = (d_k q_(k+1) + lin_k^2)/a_k (Sylvester's identity), an exact
division since W_k is an integer matrix; a remainder raises
InvariantError.  nu is totally positive exactly when every elementary
symmetric function of its conjugates is positive; they come from the
power sums by Newton's identities, in integers for X = disc(f) nu.  For
n = 2 the enumeration alone makes e_1 and e_2 positive; for n = 4 a
point computes beta^2 mod f once, then e_3 from P_3, and P_4 and e_4 only
when e_3 > 0, in straight-line integer arithmetic.

sigma_1 of the ideal (beta) = nu d is a product over the rational primes
p dividing its norm N(nu) |disc f|, and needs the exponent of each prime
of K over p.  The primes over p are (p, g(alpha)) for the irreducible
factors g of f mod p, of residue degree deg g and ramification index the
multiplicity of g (Kummer-Dedekind; Cohen, A Course in Computational
Algebraic Number Theory, Thm 4.8.13; ``quartic.QuarticPrime`` is that
ideal as a place), so the field hands over only its polynomial.  One rule
gives the exponents: where p divides the norm once, one prime of degree 1
divides (beta), once; otherwise the exponent at each prime over p but the
last is read off by multiplying with the lift tau of f/g, for which tau/p
has valuation -1 at (p, g(alpha)) and is integral at every other prime
(Cohen, Alg. 4.8.17), and the last one follows from the norm.  The
kernel keeps (deg g, e, tau) per p, and ``mul_mod`` and ``valuation`` take
a defining polynomial of any degree; ``mul_mod`` multiplies through
``polymod``'s integer product and keeps only the reduction by the monic f.
No float is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Protocol, Sequence

from .exact import InvariantError, factorize
from .polymod import _mul, pdivmod, poly, poly_factor_mod_p


Element = Sequence[int]


class TotallyRealField(Protocol):
    """What the kernel reads of a field: its degree and discriminant and a
    monic defining polynomial (ascending coefficients) whose equation
    order is the maximal order."""

    degree: int
    disc: int

    @property
    def polynomial(self) -> tuple[int, ...]: ...


def mul_mod(a: Element, b: Element, f: Sequence[int]) -> list[int]:
    """The product of a and b in Z[x]/(f), for f monic of degree n and a, b
    given by at most n ascending coefficients: ``polymod``'s integer
    product, padded to 2n - 1 entries and reduced by f top down."""
    n = len(f) - 1
    c = _mul(a, b)
    c += [0] * (2 * n - 1 - len(c))
    for i in range(2 * n - 2, n - 1, -1):
        t = c[i]
        if t:
            for j in range(n):
                c[i - n + j] -= t * f[j]
    return c[:n]


def valuation(f: Sequence[int], p: int, tau: Element, beta: Element) -> int:
    """The valuation of a nonzero beta in Z[x]/(f) at (p, g(x)), for tau
    the lift of f/g mod p: the largest k with beta (tau/p)^k integral."""
    k = 0
    x = mul_mod(beta, tau, f)
    while not any(c % p for c in x):
        k += 1
        x = mul_mod([c // p for c in x], tau, f)
    return k


def _bareiss_step(W: list[list[int]], d: int) -> list[list[int]]:
    """One step of Bareiss's fraction-free elimination on the square integer
    matrix W, with pivot W[0][0] and d the previous step's pivot (1 at the
    first): the trailing block (W00 Wij - Wi0 W0j)/d, i, j >= 1, whose
    entries are minors of the original matrix (Sylvester's identity), so
    the division is exact."""
    a, top = W[0][0], W[0][1:]
    return [[(a * x - row[0] * y) // d for x, y in zip(row[1:], top)] for row in W[1:]]


def _det(M: list[list[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty one), by
    Bareiss's steps, a row with a nonzero leading entry swapped to the top
    before each."""
    A, sign, d = [list(row) for row in M], 1, 1
    while len(A) > 1:
        pivot = next((i for i, row in enumerate(A) if row[0]), None)
        if pivot is None:
            return 0
        if pivot:
            A[0], A[pivot], sign = A[pivot], A[0], -sign
        A, d = _bareiss_step(A, d), A[0][0]
    return sign * A[0][0] if A else 1


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
            self.levels.append((_bareiss_step(W, d_k), W[0][0]))
        self.primes: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}  # p -> [(deg g, e, tau)]
        self.known: dict[tuple[int, int], int] = {}

    def s(self, m: int) -> int:
        """The sum of sigma_1(nu d) over totally positive nu in d^-1 with
        Tr(nu) = m."""
        n, levels = self.n, self.levels
        bound = (self.disc * m) ** 2  # P_1^2
        beta = [0] * n
        beta[n - 1] = m
        total = 0

        def level(k: int, lin: int, c: int) -> None:
            # lin = W_k[0][1:] . rest and c = rest^T W_k[1:, 1:] rest for
            # the fixed rest = beta[k + 1:]
            nonlocal total
            W, d_k = levels[k]
            a, const = W[0][0], c - d_k * bound
            if not k:
                total += self._line(beta, m, a, lin, const)
                return
            child, d_child = levels[k - 1]
            a_child, w_t = child[0][0], child[0][1]
            fixed = sum(w * x for w, x in zip(child[0][2:], beta[k + 1 :]))
            for t in _open_range(a, lin, const):
                beta[k] = t
                lin_child = fixed + w_t * t
                c_child, r = divmod(d_child * (a * t * t + 2 * lin * t + c) + lin_child * lin_child, a_child)
                if r:
                    raise InvariantError(f"Sylvester's identity leaves a remainder at {beta[k:]}")
                level(k - 1, lin_child, c_child)

        top = levels[n - 2][0]
        level(n - 2, top[0][1] * m, top[1][1] * m * m)
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

    def _norm_if_positive(self, beta: list[int], m: int, e2: int) -> int:
        """N(X) = e_4(X) when X, with e_2(X) = e2 > 0, is totally positive,
        else 0.  Only degree 4 comes here: for n = 2, e_1 > 0 and e_2 > 0
        decide.  Newton's identities 3 e_3 = e_2 P_1 - e_1 P_2 + P_3 and
        4 e_4 = e_3 P_1 - e_2 P_2 + e_1 P_3 - P_4, with e_1 = P_1, give
        e_3 and then e_4, from P_3, the Hankel form of (x, beta), and P_4,
        that of (x, x), for x = beta^2 mod f."""
        b0, b1, b2, b3 = beta
        f0, f1, f2, f3, _ = self.f
        # x = beta^2 mod f: the square's coefficients c6, c5, c4 of alpha^6,
        # alpha^5, alpha^4 fold down in that order, by alpha^4 = -(f0 + f1
        # alpha + f2 alpha^2 + f3 alpha^3); P_3 = sign^3 (...) = sign (...).
        c6 = b3 * b3
        c5 = 2 * b2 * b3 - c6 * f3
        c4 = 2 * b1 * b3 + b2 * b2 - c6 * f2 - c5 * f3
        x3 = 2 * (b0 * b3 + b1 * b2) - c6 * f1 - c5 * f2 - c4 * f3
        x2 = 2 * b0 * b2 + b1 * b1 - c6 * f0 - c5 * f1 - c4 * f2
        x1 = 2 * b0 * b1 - c5 * f0 - c4 * f1
        x0 = b0 * b0 - c4 * f0
        h0, h1, h2, h3, h4, h5, h6 = self.hankel[3]
        p1 = self.disc * m
        p2 = p1 * p1 - 2 * e2
        p3 = self.sign * (
            x0 * (b0 * h0 + b1 * h1 + b2 * h2 + b3 * h3)
            + x1 * (b0 * h1 + b1 * h2 + b2 * h3 + b3 * h4)
            + x2 * (b0 * h2 + b1 * h3 + b2 * h4 + b3 * h5)
            + x3 * (b0 * h3 + b1 * h4 + b2 * h5 + b3 * h6)
        )
        e3 = (e2 * p1 - p1 * p2 + p3) // 3
        if e3 <= 0:
            return 0
        h0, h1, h2, h3, h4, h5, h6 = self.hankel[4]
        p4 = (
            x0 * x0 * h0
            + x1 * x1 * h2
            + x2 * x2 * h4
            + x3 * x3 * h6
            + 2 * (x0 * (x1 * h1 + x2 * h2 + x3 * h3) + x1 * (x2 * h3 + x3 * h4) + x2 * x3 * h5)
        )
        e4 = (e3 * p1 - e2 * p2 + p1 * p3 - p4) // 4
        return e4 if e4 > 0 else 0

    def _sigma1(self, beta: list[int], norm: int, content: int) -> int:
        """sigma_1 of the ideal (beta), of the given norm and content.

        Where p^k divides the norm exactly, k = 1 means one prime of
        degree 1 divides (beta), once.  For k >= 2 the exponent at a prime
        over p of ramification index e is a e + v, with p^a the p-part of
        the content and v the valuation of beta1 = beta / p^a: read at
        every prime over p but the last, and at the last one from the
        norm, since the residue degrees times the v add up to k - n a.
        The value is remembered for (norm, content) when no valuation was
        read, that is, when each such p has one prime over it."""
        n, f = self.n, self.f
        total, known = 1, True
        for p, k in factorize(norm):
            if k == 1:
                total *= p + 1
                continue
            if p not in self.primes:
                fp = poly(p, f)
                self.primes[p] = [(g.degree, e, pdivmod(fp, g)[0].coeffs) for g, e in poly_factor_mod_p(fp)]
            primes = self.primes[p]
            a = 0
            while content % p ** (a + 1) == 0:
                a += 1
            k -= n * a
            beta1 = [c // p**a for c in beta]
            v = [valuation(f, p, tau, beta1) for _, _, tau in primes[:-1]]
            known = known and not v
            last, r = divmod(k - sum(fd * x for (fd, _, _), x in zip(primes, v)), primes[-1][0])
            if last < 0 or r:
                raise InvariantError(f"the valuations of {beta} over {p} do not add up to its norm")
            v.append(last)
            for (fd, e, _), x in zip(primes, v):
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


@lru_cache(maxsize=1 << 10)
def _siegel_sums(f: tuple[int, ...], disc: int) -> tuple[int, int]:
    """s(1) and s(2), kept per defining polynomial and discriminant, all
    the kernel reads: one field declared with different subfields is
    summed once."""
    kernel = _SiegelSum(f, disc)
    return kernel.s(1), kernel.s(2)
