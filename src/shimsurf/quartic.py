"""Totally real quartic fields through a monic defining polynomial f:
certification from the resolvent cubic (irreducibility, the
discriminant, the real-root count and the quadratic subfields)
and from Dedekind's criterion (the equation order Z[x]/(f) is maximal),
the primes of the field, and the conjugation stability of each place
over the declared subfield.

The order being maximal, the primes over p are the ideals (p, g(alpha))
for the irreducible factors g of f mod p, of residue degree deg g and
ramification index the multiplicity of g (Kummer-Dedekind; Cohen, A
Course in Computational Algebraic Number Theory, Thm 4.8.13), and a
``QuarticPrime`` records its g.  ``quartic_splitting`` reads only their
shapes, without splitting factors of equal degree.
``QuarticField.zeta_minus1`` hands f to ``siegel.zeta_minus1``, which
gives zeta_K(-1), and so every Euler number, exactly.  The truncated
Euler product for zeta_K(2), which checks that value through the
functional equation zeta_K(2) = (2 pi^2)^4 zeta_K(-1) / d_K^(3/2), lives
in the tests (``tests/float_reference.py``), since no reported number
may come from floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import InvariantError, factorize, is_int, square_part
from .polymod import distinct_degree_factors, is_p_maximal, poly, poly_factor_mod_p, squarefree_decomposition
from .quadfield import _SPLIT, Field, Place, QuadField, quad_field, splitting_type
from .siegel import zeta_minus1


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _polynomial_str(coeffs: Sequence[int]) -> str:
    """A polynomial in x from its ascending coefficients, leading term
    first, e.g. ``x^4 - x^3 - 3*x^2 + x + 1``."""
    terms: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[k]:
            power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
            magnitude = "" if abs(c) == 1 and power else str(abs(c))
            body = f"{magnitude}*{power}" if magnitude and power else magnitude or power
            sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
            terms.append(sign + body)
    return " ".join(terms)


def _root_floors(coeffs: Sequence[int]) -> set[int]:
    """Integers that include floor(t) for every real root t of an integer
    polynomial with nonzero leading coefficient (descending coefficients).

    Every root lies below the Cauchy bound in absolute value.  Between
    consecutive floors of the derivative's roots the polynomial is
    strictly monotone, so integer bisection finds the floor of the one
    root there, if any; a multiple root is a root of the derivative.  No
    coefficient is factored: the cost grows with their digits only."""
    n = len(coeffs) - 1
    if n == 0:
        return set()
    bound = 2 + max(abs(c) for c in coeffs[1:]) // abs(coeffs[0])
    derivative = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    floors = {m for m in _root_floors(derivative) if -bound <= m < bound}
    marks = [-bound - 1, *sorted(floors), bound]
    for lo, hi in zip(marks, marks[1:]):
        lo += 1
        if _poly_eval(coeffs, lo) * _poly_eval(coeffs, hi) <= 0:
            while hi - lo > 1:  # a root lies in [lo, hi]
                mid = (lo + hi) // 2
                if _poly_eval(coeffs, lo) * _poly_eval(coeffs, mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            floors.add(hi if _poly_eval(coeffs, hi) == 0 else lo)
    return floors


def _integer_roots(coeffs: Sequence[int]) -> list[int]:
    """The integer roots of a monic integer polynomial (descending
    coefficients), which are its rational roots."""
    return [m for m in sorted(_root_floors(coeffs)) if _poly_eval(coeffs, m) == 0]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _resolvent_cubic(coeffs: Sequence[int]) -> tuple[int, int, int, int]:
    """The resolvent cubic y^3 + p y^2 + q y + r of the monic quartic
    f = x^4 + a x^3 + b x^2 + c x + d: p = -b, q = ac - 4d and
    r = -(a^2 d - 4bd + c^2).  Its roots are t1 t2 + t3 t4 over the three
    pairings of the roots t_i of f (Kappe and Warren, "An elementary test
    for the Galois group of a quartic polynomial", Amer. Math. Monthly 96,
    1989)."""
    _, a, b, c, d = coeffs
    return 1, -b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c)


def _pair_discriminants(coeffs: Sequence[int], r: int) -> tuple[int, int]:
    """For a root r = t1 t2 + t3 t4 of the resolvent cubic, the
    discriminants a^2 - 4b + 4r and r^2 - 4d of z^2 + a z + (b - r) and
    z^2 - r z + d, whose roots are t1 + t2, t3 + t4 and t1 t2, t3 t4.

    When r is an integer, both quadratics have integer coefficients and
    their roots lie in Q(t1): f has the rational factor
    (x - t1)(x - t2) exactly when both discriminants are squares, and
    each one that is positive and not a square puts the square root of
    its squarefree part into the field (Kappe and Warren, 1989)."""
    _, a, b, _, d = coeffs
    return a * a - 4 * b + 4 * r, r * r - 4 * d


def _cubic_discriminant(cubic: Sequence[int]) -> int:
    """Discriminant p^2 q^2 - 4q^3 - 4p^3 r - 27r^2 + 18pqr of a monic
    cubic y^3 + p y^2 + q y + r.  For the resolvent cubic it equals the
    discriminant of the quartic, since the differences of its roots are
    (t1 - t4)(t2 - t3) and its two companions."""
    _, p, q, r = cubic
    return p * p * q * q - 4 * q**3 - 4 * p**3 * r - 27 * r * r + 18 * p * q * r


def _real_root_count(coeffs: Sequence[int], disc: int) -> int:
    """Number of real roots of a monic quartic with discriminant
    disc != 0: 2 when disc < 0; otherwise all four roots are real or none
    is, and they are real exactly when P = 8b - 3a^2 and
    D = 64d - 16b^2 + 16a^2 b - 16ac - 3a^4 are both negative (Rees,
    "Graphical discussion of the roots of a quartic equation", Amer.
    Math. Monthly 29, 1922)."""
    _, a, b, c, d = coeffs
    if disc < 0:
        return 2
    P = 8 * b - 3 * a * a
    D = 64 * d - 16 * b * b + 16 * a * a * b - 16 * a * c - 3 * a**4
    return 4 if P < 0 and D < 0 else 0


class _QuarticFieldFields(NamedTuple):
    coeffs: tuple[int, int, int, int, int]
    disc: int
    subfield: QuadField
    subfield_radicands: tuple[int, ...]


class QuarticField(Field, _QuarticFieldFields):
    """A totally real quartic field presented by a monic defining
    polynomial (descending coefficients) whose equation order is maximal,
    its discriminant disc(f) = d_K, a declared real quadratic subfield,
    and the radicands of all its quadratic subfields, in increasing order,
    as certified by the resolvent cubic.  Checked when built: the record
    must be the one ``quartic_new`` certifies, which builds it unchecked."""

    __slots__ = ()

    degree = 4

    def _check(self) -> None:
        # A tuple subfield would compare equal to the QuadField of its values.
        if not isinstance(self.subfield, QuadField) or quartic_new(self.coeffs, self.subfield.d) != self:
            raise ValueError(f"{self!r} is not the field quartic_new certifies")

    @property
    def polynomial(self) -> tuple[int, ...]:
        """The defining polynomial in ascending coefficients."""
        return self.coeffs[::-1]

    def zeta_minus1(self) -> Fraction:
        """zeta_K(-1), exactly, by Siegel's formula."""
        return zeta_minus1(self)

    def __str__(self) -> str:
        """The defining polynomial, e.g. ``x^4 - x^3 - 3*x^2 + x + 1``."""
        return _polynomial_str(self.polynomial)


def quartic_new(coeffs: Sequence[int], subfield_d: int) -> QuarticField:
    """Build and certify a totally real quartic field.

    The polynomial must be a monic integer quartic, irreducible over the
    rationals, with four real roots.  The declared quadratic subfield must
    satisfy d_sub^2 | disc(f) and be certified by an integer root of the
    resolvent cubic.  Last, Dedekind's criterion must prove the equation
    order Z[x]/(f) maximal at every p with p^2 | disc(f), so that disc(f)
    is the field discriminant; otherwise the polynomial is refused.

    Irreducibility, the discriminant, the real-root count and the
    subfields are all read off the resolvent cubic and its integer roots.
    Every quadratic subfield is found: the Galois group keeps the pairing
    of the roots into the two pairs conjugate over it, so the resolvent
    root r of that pairing is an integer, and t1 + t2 or t1 t2 (not both
    rational, f being irreducible) generates the subfield.
    """
    coeffs = tuple(coeffs)
    if not all(is_int(c) for c in coeffs):
        raise ValueError(f"coefficients must be ints, got {coeffs}")
    if len(coeffs) != 5 or coeffs[0] != 1:
        raise ValueError(f"need five coefficients of a monic quartic, got {coeffs}")
    cubic = _resolvent_cubic(coeffs)
    pair_discs = [_pair_discriminants(coeffs, r) for r in _integer_roots(cubic)]
    if _integer_roots(coeffs) or any(_is_square(u) and _is_square(v) for u, v in pair_discs):
        raise ValueError(f"reducible polynomial: {list(coeffs)} factors over the rationals")
    # f is irreducible over Q, hence separable: disc != 0 (> 0 when totally real)
    disc = _cubic_discriminant(cubic)
    real_roots = _real_root_count(coeffs, disc)
    if real_roots != 4:
        raise ValueError(
            f"not totally real: the polynomial has {real_roots} real root(s) out of 4"
        )
    subfield = quad_field(subfield_d)
    if disc % subfield.disc**2 != 0:
        raise ValueError(
            f"the square of the subfield discriminant {subfield.disc} must divide "
            f"the field discriminant {disc}"
        )
    certified = {square_part(n)[0] for pair in pair_discs for n in pair if n > 0} - {1}
    if subfield.d not in certified:
        found = ", ".join(f"Q(sqrt({r}))" for r in sorted(certified)) or "none"
        raise ValueError(
            f"Q(sqrt({subfield.d})) is not a subfield certified by the resolvent cubic "
            f"(certified quadratic subfields: {found})"
        )
    for p, e in factorize(disc):
        if e >= 2 and not is_p_maximal(coeffs[::-1], p):
            raise ValueError(
                f"the equation order Z[x]/(f) is not maximal at {p} (Dedekind's criterion), "
                f"so the field discriminant is not disc(f) = {disc}"
            )
    return QuarticField._trusted((coeffs, disc, subfield, tuple(sorted(certified))))


class _QuarticPrimeFields(NamedTuple):
    field: QuarticField
    p: int
    residue_degree: int
    ramification_index: int
    generator: tuple[int, ...]


class QuarticPrime(Place, _QuarticPrimeFields):
    """The prime (p, g(alpha)) of a quartic field, for g, its generator, a
    monic irreducible factor of f mod p (ascending coefficients mod p):
    one of the primes that ``primes_above_quartic`` gives over p."""

    __slots__ = ()

    def _check(self) -> None:
        # A float equal to a place's value would pass the membership test
        # below and carry into the norm; a non-tuple generator fails it.
        entries = self.generator if isinstance(self.generator, tuple) else ()
        if not all(is_int(v) for v in (self.p, self.residue_degree, self.ramification_index, *entries)):
            raise ValueError(
                "p, residue_degree, ramification_index and the generator's coefficients must be ints, "
                f"got {self.p!r}, {self.residue_degree!r}, {self.ramification_index!r}, {self.generator!r}"
            )
        places = primes_above_quartic(self.field, self.p)  # rejects a non-prime p
        shapes = [(q.residue_degree, q.ramification_index) for q in places]
        if (self.residue_degree, self.ramification_index) not in shapes:
            raise ValueError(
                f"no prime over {self.p} has f={self.residue_degree}, e={self.ramification_index}; "
                f"the shapes (f, e) over {self.p} are {shapes}"
            )
        if self not in places:
            raise ValueError(
                f"no prime over {self.p} has the generator {self.generator!r}; "
                f"the generators over {self.p} are {[q.generator for q in places]}"
            )

    def is_conjugation_stable(self) -> bool:
        """Stable under the nontrivial automorphism over the declared
        quadratic subfield k: exactly when it is the only prime of K over
        the prime of k below it, that is when its local degree f e over
        that prime is 2, so f e = 2 if p splits in k and f e = 4 if not."""
        local = 2 if splitting_type(self.field.subfield, self.p) is _SPLIT else 4
        return self.residue_degree * self.ramification_index == local

    def __str__(self) -> str:
        g = _polynomial_str(self.generator)
        return f"prime ({self.p}, {g}) with f={self.residue_degree}, e={self.ramification_index}"


def _require_quartic(K: object) -> None:
    """Refuse a field that is not a ``QuarticField``, such as a
    ``QuadField``, whose places ``quadfield`` gives (ValueError)."""
    if not isinstance(K, QuarticField):
        raise ValueError(f"{K!r} is not a quartic field")


def quartic_splitting(K: QuarticField, p: int) -> list[tuple[int, int]]:
    """Shape of p in the field: a sorted list of (residue degree f_i,
    ramification exponent e_i) with sum f_i e_i = 4, the shapes of
    ``primes_above_quartic`` without splitting factors of equal degree:
    the squarefree decomposition of f mod p gives the multiplicities, the
    distinct-degree split of each part the degrees.  When p does not
    divide disc(f), f is squarefree mod p."""
    _require_quartic(K)
    f = poly(p, K.polynomial)  # rejects a non-prime p
    parts = [(f, 1)] if K.disc % p else squarefree_decomposition(f)
    shapes = sorted(
        (d, mult)
        for g, mult in parts
        for d, h in distinct_degree_factors(g)
        for _ in range(h.degree // d)
    )
    if sum(f * e for f, e in shapes) != 4:
        raise InvariantError(f"the shape {shapes} of {p} does not add up to the degree 4")
    return shapes


def primes_above_quartic(K: QuarticField, p: int) -> list[QuarticPrime]:
    """All primes of the field over p, one per factor (g, e) of f mod p,
    sorted by (f, e, generator), so in the order of ``quartic_splitting``;
    built without the constructor's check, which would factor again."""
    _require_quartic(K)
    places = [
        QuarticPrime._trusted((K, p, g.degree, e, g.coeffs))
        for g, e in poly_factor_mod_p(poly(p, K.polynomial))  # rejects a non-prime p
    ]
    return sorted(places, key=lambda q: (q.residue_degree, q.ramification_index, q.generator))


def choose_level_prime(K: QuarticField, p: int) -> QuarticPrime:
    """The prime over p of smallest norm, the first of ``primes_above_quartic``
    (least residue degree, then ramification index, then generator)."""
    return primes_above_quartic(K, p)[0]
