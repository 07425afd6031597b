"""Totally real quartic fields through a monic defining polynomial:
discriminant by resultant, totally-real certification by Sturm counting,
certification of the declared quadratic subfield by the resolvent cubic,
prime splitting by factorization of the polynomial modulo p, the
nonsplit-over-the-subfield test for level primes, and a truncated Euler
product for the Dedekind zeta value at 2.

No general number-field arithmetic is attempted: every splitting question
is answered through the factorization of the defining polynomial mod p,
valid at primes not dividing the index [O_K : Z[x]/(f)] (read off
disc(f)/d_K; it is 1 for the fields of interest here).  The zeta product
also accepts real quadratic fields, where splitting comes from the field
character instead; this gives an exact cross-check of the volume formula
in degree 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from .exact import is_prime, primes_up_to, square_part
from .polymod import PolyModP, distinct_degree_factors, poly, poly_factor_mod_p
from .quadfield import QuadField, Splitting, quad_field, splitting_type

__all__ = [
    "QuarticField",
    "QuarticPrime",
    "quartic_new",
    "quartic_splitting",
    "primes_above_quartic",
    "choose_level_prime",
    "subfield_prime_nonsplit",
    "zeta2_euler_product",
]


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _quartic_discriminant(coeffs: Sequence[int]) -> int:
    """Discriminant of a monic quartic, as the resultant of f and f'
    (the sign (-1)^(n(n-1)/2) is +1 for n = 4)."""
    c4, c3, c2, c1, c0 = coeffs
    f = [c4, c3, c2, c1, c0]
    fp = [4 * c4, 3 * c3, 2 * c2, c1]
    sylvester = [[0] * i + f + [0] * (2 - i) for i in range(3)]
    sylvester += [[0] * i + fp + [0] * (3 - i) for i in range(4)]
    return _det_bareiss(sylvester)


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.extend((d, -d, n // d, -(n // d)))
    return sorted(set(out))


def _has_quadratic_factor(coeffs: Sequence[int]) -> bool:
    """Whether a monic integer quartic with nonzero constant term splits
    into two monic integer quadratics (x^2 + ax + b)(x^2 + cx + d); by
    Gauss's lemma this covers all rational quadratic factors."""
    _, c3, c2, c1, c0 = coeffs
    assert c0 != 0
    for b in _divisors_signed(c0):
        d = c0 // b
        # remaining equations: a + c = c3, b + d + a c = c2, a d + b c = c1
        if d != b:
            num = c1 - c3 * b
            if num % (d - b) != 0:
                continue
            a = num // (d - b)
            c = c3 - a
            if b + d + a * c == c2:
                return True
        else:
            if c1 != c3 * b:
                continue
            # a + c = c3 and a c = c2 - 2b: integer roots of t^2 - c3 t + (c2 - 2b)
            delta = c3 * c3 - 4 * (c2 - 2 * b)
            if delta >= 0:
                r = math.isqrt(delta)
                if r * r == delta and (c3 + r) % 2 == 0:
                    return True
    return False


def _is_irreducible_quartic(coeffs: Sequence[int]) -> bool:
    c0 = coeffs[4]
    if c0 == 0:
        return False  # x divides f
    if any(_poly_eval(coeffs, r) == 0 for r in _divisors_signed(c0)):
        return False  # a monic integer polynomial's rational roots are integral
    return not _has_quadratic_factor(coeffs)


def _certified_subfield_radicands(coeffs: Sequence[int]) -> set[int]:
    """Radicands of the quadratic subfields certified by the resolvent
    cubic y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2) of the monic
    quartic f = x^4 + a x^3 + b x^2 + c x + d.

    Its roots are r = t1 t2 + t3 t4 over the pairings of the roots t_i of
    f.  When r is rational (hence an integer), t1 + t2 and t1 t2 are roots
    of z^2 + a z + (b - r) and z^2 - r z + d and lie in Q(t1), so each of
    a^2 - 4b + 4r and r^2 - 4d that is positive and not a square puts the
    square root of its squarefree part into the field.
    """
    _, a, b, c, d = coeffs
    cubic = [1, -b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c)]
    roots = []
    while cubic[-1] == 0:  # y divides the cubic
        cubic.pop()
        roots.append(0)
    roots += [r for r in _divisors_signed(cubic[-1]) if _poly_eval(cubic, r) == 0]
    radicands = {
        square_part(n)[0]
        for r in roots
        for n in (a * a - 4 * b + 4 * r, r * r - 4 * d)
        if n > 0
    }
    radicands.discard(1)
    return radicands


def _sturm_real_root_count(coeffs: Sequence[int]) -> int:
    """Real-root count via Sturm's theorem for a squarefree integer
    polynomial (descending coefficients): the difference of the numbers
    of sign variations of the Sturm chain at -oo and at +oo."""
    f = [Fraction(c) for c in coeffs]
    n = len(f) - 1
    fp = [Fraction((n - i) * f[i]) for i in range(n)]
    chain = [f, fp]
    while len(chain[-1]) > 1:
        a, b = chain[-2][:], chain[-1]
        # a mod b, negated
        while len(a) >= len(b) and any(a):
            if a[0] == 0:
                a.pop(0)
                continue
            factor = a[0] / b[0]
            for i in range(len(b)):
                a[i] -= factor * b[i]
            a.pop(0)
        while a and a[0] == 0:
            a.pop(0)
        if not a:
            break  # nontrivial gcd: input was not squarefree
        chain.append([-c for c in a])

    def variations(signs: list[int]) -> int:
        nz = [s for s in signs if s != 0]
        return sum(1 for x, y in zip(nz, nz[1:]) if x * y < 0)

    at_minus = [(1 if p[0] > 0 else -1) * (-1) ** (len(p) - 1) if p[0] != 0 else 0 for p in chain]
    at_plus = [1 if p[0] > 0 else -1 if p[0] < 0 else 0 for p in chain]
    return variations(at_minus) - variations(at_plus)


@dataclass(frozen=True)
class QuarticField:
    """A totally real quartic field presented by a monic defining
    polynomial (descending coefficients), its polynomial and field
    discriminants, and a declared real quadratic subfield."""

    coeffs: tuple[int, int, int, int, int]
    disc_poly: int
    disc: int
    subfield: QuadField
    degree: ClassVar[int] = 4

    @property
    def index(self) -> int:
        """The index [O_K : Z[x]/(f)], from disc(f) = index^2 * d_K."""
        return math.isqrt(self.disc_poly // self.disc)

    def __str__(self) -> str:
        """The defining polynomial, e.g. ``x^4 - x^3 - 3*x^2 + x + 1``."""
        terms: list[str] = []
        for k, c in zip(range(4, -1, -1), self.coeffs):
            if c == 0:
                continue
            magnitude = abs(c)
            if k == 0:
                body = str(magnitude)
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if magnitude == 1 else f"{magnitude}*{power}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def quartic_new(
    coeffs: Sequence[int], subfield_d: int, field_disc_hint: int | None = None
) -> QuarticField:
    """Build and certify a totally real quartic field.

    The polynomial must be a monic integer quartic, irreducible over the
    rationals, with four real roots.  Without a hint the polynomial
    discriminant is taken as the field discriminant (i.e. the equation
    order is presumed maximal); a hint is accepted when the quotient
    disc(f)/hint is the square of a positive integer.  The declared
    quadratic subfield must satisfy d_sub^2 | d_K and be certified by an
    integer root of the resolvent cubic.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != 5 or coeffs[0] != 1:
        raise ValueError(f"need five coefficients of a monic quartic, got {coeffs}")
    if not _is_irreducible_quartic(coeffs):
        raise ValueError(f"reducible polynomial: {list(coeffs)} factors over the rationals")
    real_roots = _sturm_real_root_count(coeffs)
    if real_roots != 4:
        raise ValueError(
            f"not totally real: the polynomial has {real_roots} real root(s) out of 4"
        )
    disc_poly = _quartic_discriminant(coeffs)
    assert disc_poly > 0, "a totally real quartic has positive discriminant"
    if field_disc_hint is None:
        field_disc = disc_poly
    else:
        if field_disc_hint <= 0 or disc_poly % field_disc_hint != 0:
            raise ValueError(
                f"inconsistent hint: {field_disc_hint} does not divide disc(f) = {disc_poly}"
            )
        quotient = disc_poly // field_disc_hint
        root = math.isqrt(quotient)
        if root * root != quotient:
            raise ValueError(
                f"inconsistent hint: disc(f)/hint = {quotient} is not a perfect square"
            )
        field_disc = field_disc_hint
    subfield = quad_field(subfield_d)
    if field_disc % subfield.disc**2 != 0:
        raise ValueError(
            f"the square of the subfield discriminant {subfield.disc} must divide "
            f"the field discriminant {field_disc}"
        )
    certified = _certified_subfield_radicands(coeffs)
    if subfield.d not in certified:
        found = ", ".join(f"Q(sqrt({r}))" for r in sorted(certified)) or "none"
        raise ValueError(
            f"Q(sqrt({subfield.d})) is not a subfield certified by the resolvent cubic "
            f"(certified quadratic subfields: {found})"
        )
    return QuarticField(coeffs=coeffs, disc_poly=disc_poly, disc=field_disc, subfield=subfield)


@dataclass(frozen=True)
class QuarticPrime:
    """A prime of a quartic field over the rational prime p, recorded by
    its residue degree and ramification exponent."""

    field: QuarticField
    p: int
    residue_degree: int
    ramification_index: int

    @property
    def norm(self) -> int:
        return self.p**self.residue_degree

    def is_conjugation_stable(self) -> bool:
        """Stable under the nontrivial automorphism over the declared
        quadratic subfield; decided for all primes over p at once."""
        return subfield_prime_nonsplit(self.field, self.field.subfield.d, self.p)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"prime over {self.p} with f={self.residue_degree}, e={self.ramification_index}"


def _reduced_polynomial(K: QuarticField, p: int) -> PolyModP:
    return poly(p, list(reversed(K.coeffs)))


def quartic_splitting(K: QuarticField, p: int) -> list[tuple[int, int]]:
    """Shape of p in the field: a sorted list of (residue degree f_i,
    ramification exponent e_i) with sum f_i e_i = 4, read off the
    factorization of the defining polynomial mod p.  Requires p coprime
    to the index of the equation order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if K.index % p == 0:
        raise ValueError(
            f"Dedekind inapplicable: {p} divides the index {K.index} of the equation order"
        )
    shapes = sorted((g.degree, mult) for g, mult in poly_factor_mod_p(_reduced_polynomial(K, p)))
    assert sum(f * e for f, e in shapes) == 4
    return shapes


def primes_above_quartic(K: QuarticField, p: int) -> list[QuarticPrime]:
    return [
        QuarticPrime(field=K, p=p, residue_degree=f, ramification_index=e)
        for f, e in quartic_splitting(K, p)
    ]


def choose_level_prime(K: QuarticField, p: int) -> QuarticPrime:
    """The prime over p of smallest norm (smallest residue degree,
    then smallest ramification exponent)."""
    return min(primes_above_quartic(K, p), key=lambda q: (q.residue_degree, q.ramification_index))


def subfield_prime_nonsplit(K: QuarticField, subfield_d: int, p: int) -> bool:
    """True when no prime of the quadratic subfield over p splits into two
    distinct primes of K: as K is quadratic over the subfield, that holds
    exactly when both fields have the same number of primes over p."""
    if subfield_d != K.subfield.d:
        raise ValueError(f"declared subfield radicand {subfield_d} does not match the field")
    g_upper = len(quartic_splitting(K, p))
    g_lower = 2 if splitting_type(K.subfield, p) is Splitting.SPLIT else 1
    assert g_lower <= g_upper <= 2 * g_lower
    return g_upper == g_lower


def zeta2_euler_product(field, prime_bound: int) -> tuple[float, float]:
    """Truncated Euler product for the Dedekind zeta value at 2, with an
    absolute error bound.

    Returns (estimate, error_bound) where the true value lies in
    [estimate, estimate * (1 + error_bound/estimate)]: each omitted local
    factor exceeds 1, and the tail over primes beyond the bound is
    controlled by exp(n * sum 1/(p^2 - 1)) - 1 <= expm1(n/(bound - 1)).
    Accepts quartic fields (polynomial splitting) and real quadratic
    fields (character splitting).  Primes dividing the index of a quartic
    equation order are skipped, widening the error bound by their
    worst-case local factor.
    """
    if prime_bound < 100:
        raise ValueError(f"prime bound must be at least 100, got {prime_bound}")
    degree = field.degree
    if degree not in (2, 4):
        raise TypeError(f"unsupported base field {field!r}")
    estimate = 1.0
    relative_error = math.expm1(degree / (prime_bound - 1))
    for p in primes_up_to(prime_bound):
        if degree == 2:
            kind = splitting_type(field, p)
            if kind is Splitting.SPLIT:
                local = 1.0 / (1.0 - p**-2.0) ** 2
            elif kind is Splitting.INERT:
                local = 1.0 / (1.0 - p**-4.0)
            else:
                local = 1.0 / (1.0 - p**-2.0)
        else:
            if field.index % p == 0:
                # unknown local factor in [1, (1 - p^-2)^-4]: widen the bound
                relative_error = (1.0 + relative_error) / (1.0 - p**-2.0) ** 4 - 1.0
                continue
            if field.disc_poly % p != 0:
                # f is squarefree mod p: the distinct-degree split suffices
                fdegs = [
                    d
                    for d, g in distinct_degree_factors(_reduced_polynomial(field, p))
                    for _ in range(g.degree // d)
                ]
            else:
                fdegs = [f for f, _ in quartic_splitting(field, p)]
            local = 1.0
            for f in fdegs:
                local /= 1.0 - float(p) ** (-2.0 * f)
        estimate *= local
    return estimate, estimate * relative_error
