"""Univariate polynomial arithmetic and factorization over F_p.

Polynomials are coefficient tuples in ascending order (coeffs[i] is the
coefficient of x^i) with a nonzero leading coefficient; the zero
polynomial is the empty tuple.  ``poly`` is the one checked constructor:
it rejects a non-prime modulus, then reduces and trims.  The kernels
trust that form and keep it, building unchecked ``PolyModP`` records.

Products and remainders share one plain-integer kernel on coefficient
lists: ``_mul`` multiplies with no reduction, and ``_reduce`` divides top
down by the modulus, inverting its leading coefficient once and taking
one ``% p`` per remainder coefficient.  ``ppow_mod`` squares and
multiplies over it, converting to ``PolyModP`` only at its ends.

Factorization runs squarefree decomposition, then distinct-degree
splitting (these two give the degrees and multiplicities of the factors),
then Cantor-Zassenhaus equal-degree splitting with a seeded generator, so
results are reproducible across runs.  The distinct-degree step powers by
p once, for x^p, and reaches each higher Frobenius power x^(p^d) by
composing with it (von zur Gathen and Shoup, Computational Complexity 2,
1992).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .exact import InvariantError, is_prime

Coeffs = tuple[int, ...]


class PolyModP(NamedTuple):
    """A polynomial over F_p, coeffs ascending and reduced, leading
    coefficient nonzero; an unchecked record that the kernels produce."""

    p: int
    coeffs: Coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial gets -1


def poly(p: int, coeffs: list[int] | Coeffs) -> PolyModP:
    """Build a PolyModP from ascending coefficients, reducing mod p; the
    one constructor that checks, raising ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return PolyModP(p, _trim([x % p for x in coeffs]))


def _trim(c: list[int]) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    n = max(len(a.coeffs), len(b.coeffs))
    c = [0] * n
    for i, x in enumerate(a.coeffs):
        c[i] = x
    for i, x in enumerate(b.coeffs):
        c[i] = (c[i] + x) % p
    return PolyModP(p, _trim(c))


def psub(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    n = max(len(a.coeffs), len(b.coeffs))
    c = [0] * n
    for i, x in enumerate(a.coeffs):
        c[i] = x
    for i, x in enumerate(b.coeffs):
        c[i] = (c[i] - x) % p
    return PolyModP(p, _trim(c))


def _mul(a: Coeffs | list[int], b: Coeffs | list[int]) -> list[int]:
    # Schoolbook product in plain integers, with no reduction mod p.
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                c[j] += x * y
    return c


def _lead_inverse(m: PolyModP) -> int:
    if not m.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    return pow(m.coeffs[-1], -1, m.p)


def _reduce(c: list[int], m: Coeffs, inv: int, p: int) -> Coeffs:
    """Divide the integer coefficients c by m over F_p, top down and in
    place; inv is the inverse of m's leading coefficient mod p.  Returns
    the remainder, reduced and trimmed, and leaves the quotient, reduced,
    in c[deg m:].  The module's one reduction loop: c may hold any
    integers, since the subtractions stay in plain integers and the
    remainder takes one ``% p`` per coefficient at the end."""
    dm = len(m) - 1
    low = m[:-1]
    for i in range(len(c) - 1, dm - 1, -1):
        q = c[i] * inv % p
        c[i] = q
        if q:
            for j, y in enumerate(low, i - dm):
                c[j] -= q * y
    return _trim([x % p for x in c[:dm]])


def pmul(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    return PolyModP(p, _trim([x % p for x in _mul(a.coeffs, b.coeffs)]))


def pdivmod(a: PolyModP, b: PolyModP) -> tuple[PolyModP, PolyModP]:
    p = a.p
    c = list(a.coeffs)
    rem = _reduce(c, b.coeffs, _lead_inverse(b), p)
    return PolyModP(p, _trim(c[b.degree :])), PolyModP(p, rem)


def pmod(a: PolyModP, b: PolyModP) -> PolyModP:
    return pdivmod(a, b)[1]


def pmonic(a: PolyModP) -> PolyModP:
    if not a.coeffs or a.coeffs[-1] == 1:
        return a
    inv = _lead_inverse(a)
    return PolyModP(a.p, tuple(c * inv % a.p for c in a.coeffs))


def pgcd(a: PolyModP, b: PolyModP) -> PolyModP:
    while b.coeffs:
        a, b = b, pmod(a, b)
    return pmonic(a)


def ppow_mod(base: PolyModP, e: int, mod: PolyModP) -> PolyModP:
    """base^e mod ``mod`` over F_p (1 when e = 0), by left-to-right
    square-and-multiply on coefficient tuples: each step is one product
    and one top-down reduction in ``_reduce``, with the modulus's leading
    inverse computed once."""
    if e < 0:
        raise ValueError(f"need an exponent >= 0, got {e}")
    p, m = base.p, mod.coeffs
    inv = _lead_inverse(mod)
    b = _reduce(list(base.coeffs), m, inv, p)
    r = b if e else (1,)
    for bit in bin(e)[3:]:
        r = _reduce(_mul(r, r), m, inv, p)
        if bit == "1":
            r = _reduce(_mul(r, b), m, inv, p)
    return PolyModP(p, r)


def _compose(h: PolyModP, g: PolyModP, mod: PolyModP) -> PolyModP:
    # h(g) mod ``mod`` by Horner's rule: deg h kernel products.
    p, m = h.p, mod.coeffs
    inv = _lead_inverse(mod)
    acc = h.coeffs[-1:]
    for c in h.coeffs[-2::-1]:
        t = _mul(acc, g.coeffs) or [0]
        t[0] += c
        acc = _reduce(t, m, inv, p)
    return PolyModP(p, acc)


def pderiv(a: PolyModP) -> PolyModP:
    p = a.p
    c = [i * x % p for i, x in enumerate(a.coeffs)][1:]
    return PolyModP(p, _trim(c))


def _pth_root(a: PolyModP) -> PolyModP:
    # a is a p-th power over F_p, i.e. a(x) = b(x)^p with b built from
    # every p-th coefficient (Frobenius fixes the prime field).
    p = a.p
    return PolyModP(p, _trim(list(a.coeffs[::p])))


def squarefree_decomposition(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Squarefree decomposition of a monic polynomial of degree >= 1.

    Returns (g, m) pairs with f = prod g^m, each g monic, squarefree and
    of degree >= 1, and the g pairwise coprime (Cohen, A Course in
    Computational Algebraic Number Theory, 3.4.2).
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    if f.coeffs[-1] != 1:
        raise ValueError("need a monic polynomial")
    p = f.p
    out: list[tuple[PolyModP, int]] = []
    d = pderiv(f)
    if not d.coeffs:
        for g, m in squarefree_decomposition(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = pgcd(f, d)
    w = pdivmod(f, c)[0]
    i = 1
    while w.degree > 0:
        y = pgcd(w, c)
        z = pdivmod(w, y)[0]
        if z.degree > 0:
            out.append((pmonic(z), i))
        w = y
        c = pdivmod(c, y)[0]
        i += 1
    if c.degree > 0:
        for g, m in squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def is_p_maximal(coeffs: list[int] | Coeffs, p: int) -> bool:
    """Dedekind's criterion: whether the order Z[x]/(f) is maximal at the
    prime p, for a monic integer polynomial f (ascending coefficients).

    With f = prod g_i^e_i mod p, g = prod g_i (the product of the parts of
    the squarefree decomposition) and h = f/g lifted to Z, and
    F = (g h - f)/p, the order is p-maximal exactly when gcd(F, g, h) = 1
    over F_p (Cohen, A Course in Computational Algebraic Number Theory,
    Thm 6.1.4)."""
    f = poly(p, coeffs)
    g = PolyModP(p, (1,))
    for part, _ in squarefree_decomposition(f):
        g = pmul(g, part)
    h = pdivmod(f, g)[0]
    F = poly(p, [(x - c) // p for x, c in zip(_mul(g.coeffs, h.coeffs), coeffs)])
    return pgcd(pgcd(F, g), h).degree == 0


def _equal_degree_split(f: PolyModP, d: int, rng: random.Random) -> list[PolyModP]:
    # f is a product of distinct irreducibles, all of degree d.
    p = f.p
    if f.degree == d:
        return [f]
    while True:
        u = PolyModP(p, tuple(rng.randrange(p) for _ in range(f.degree)) + (1,))
        if p == 2:
            t = u
            acc = u
            for _ in range(d - 1):
                t = pmod(pmul(t, t), f)
                acc = padd(acc, t)
            g = pgcd(acc, f)
        else:
            w = ppow_mod(u, (p**d - 1) // 2, f)
            g = pgcd(psub(w, PolyModP(p, (1,))), f)
        if 0 < g.degree < f.degree:
            h = pdivmod(f, g)[0]
            return _equal_degree_split(g, d, rng) + _equal_degree_split(pmonic(h), d, rng)


def distinct_degree_factors(f: PolyModP) -> list[tuple[int, PolyModP]]:
    """Distinct-degree factorization of a monic squarefree polynomial.

    Returns (d, g) pairs with d increasing, where g is the product of all
    irreducible factors of f of degree d; the degrees of the irreducible
    factors of f are d repeated g.degree // d times (Cohen, A Course in
    Computational Algebraic Number Theory, 3.4.3).

    g is gcd(x^(p^d) - x, rest), rest being f with the earlier parts
    divided out.  Only x^p mod rest is computed by powering; each further
    Frobenius power is a composition, x^(p^d) = h(x^p) mod rest with
    h = x^(p^(d-1)) mod rest, at most deg(rest) - 1 products in place of
    about 2 log2 p (von zur Gathen and Shoup, "Computing Frobenius maps
    and factoring polynomials", Computational Complexity 2, 1992).
    """
    if not f.coeffs or f.coeffs[-1] != 1:
        raise ValueError("need a monic polynomial")
    p = f.p
    out: list[tuple[int, PolyModP]] = []
    x = PolyModP(p, (0, 1))
    d = 0
    rest = f
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest.degree, rest))
            break
        if d == 1:
            frob = h = ppow_mod(x, p, rest)
        else:
            h = _compose(h, frob, rest)
        g = pgcd(psub(h, x), rest)
        if g.degree > 0:
            out.append((d, g))
            rest = pmonic(pdivmod(rest, g)[0])
            h, frob = pmod(h, rest), pmod(frob, rest)
    return out


def poly_factor_mod_p(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Factor a monic polynomial over F_p into monic irreducibles.

    Returns (factor, multiplicity) pairs sorted by degree then by the
    ascending coefficient sequence; deterministic because the internal
    randomness is seeded from (p, coefficients).
    """
    seed = f.p
    for c in f.coeffs:
        seed = (seed * 1_000_003 + c) % (1 << 61)
    rng = random.Random(seed)
    out: list[tuple[PolyModP, int]] = []
    for g, m in squarefree_decomposition(f):
        for d, h in distinct_degree_factors(g):
            out.extend((irr, m) for irr in _equal_degree_split(h, d, rng))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    if sum(g.degree * m for g, m in out) != f.degree:
        raise InvariantError(f"the factors of {f.coeffs} mod {f.p} do not add up to its degree")
    return out
