"""The float reference the tests check the exact Euler numbers against.

The package computes zeta_k(-1), and so every Euler number, exactly:
Cohen's closed sum over a quadratic base, Siegel's formula over a quartic
one.  The tests cross-check those values by an independent route, the
volume formula with a truncated Euler product for zeta_k(2) and a
rational recognizer, which lives here because no reported number may
come from floating point.

This is not a ``test_*.py`` file, so pytest does not rewrite its
asserts; every check raises explicitly and also holds under
``python -O``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from shimsurf.exact import primes_up_to
from shimsurf.quadfield import Splitting, splitting_type
from shimsurf.quartic import quartic_splitting

__all__ = ["EulerEstimate", "euler_number_general", "recognize_rational", "zeta2_euler_product"]


def recognize_rational(x: float, max_den: int, tol: float) -> Fraction | None:
    """Recover x as a fraction with denominator <= max_den.

    Returns the unique fraction r with |x - r| <= tol, provided no other
    fraction with denominator <= max_den lies within 2*tol of x; returns
    None otherwise.  The margin guards against fabricating a wrong value
    from an under-resolved estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    xf = Fraction(x)
    wide = Fraction(tol) * 2
    candidates: set[Fraction] = set()
    for q in range(1, max_den + 1):
        mid = round(x * q)
        for num in (mid - 1, mid, mid + 1):
            r = Fraction(num, q)
            if abs(xf - r) <= wide:
                candidates.add(r)
    if len(candidates) != 1:
        return None
    (r,) = candidates
    return r if abs(xf - r) <= Fraction(tol) else None


def zeta2_euler_product(field, prime_bound: int) -> tuple[float, float]:
    """Truncated Euler product for the Dedekind zeta value at 2, with an
    absolute error bound.

    Returns (estimate, error_bound) where the true value lies in
    [estimate, estimate * (1 + error_bound/estimate)]: each omitted local
    factor exceeds 1, and the tail over primes beyond the bound is
    controlled by exp(n * sum 1/(p^2 - 1)) - 1 <= expm1(n/(bound - 1)).
    Accepts quartic fields, whose local factors come from the residue
    degrees that ``quartic_splitting`` reads, and real quadratic fields
    (character splitting).
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
            local = 1.0
            for f, _ in quartic_splitting(field, p):
                local /= 1.0 - float(p) ** (-2.0 * f)
        estimate *= local
    return estimate, estimate * relative_error


class EulerEstimate(NamedTuple):
    """A floating Euler number together with its rational recognition."""

    value: float
    recognized: Fraction | None
    tolerance: float
    max_den: int
    note: str


def euler_number_general(
    d_k: int,
    n: int,
    zeta2: float,
    ram_norms: Sequence[int],
    index: int,
    zeta2_error: float,
) -> EulerEstimate:
    """Euler number from the volume formula in arbitrary degree n:

        index * d_k^(3/2) * zeta_k(2) / (2^(2n-3) pi^(2n)) * prod (N - 1)^2

    with one norm per conjugation orbit of finite ramified places.  The
    zeta estimate's relative error (zeta2_error is an upper bound for the
    absolute error of zeta2) is propagated into a recognition tolerance,
    and the denominator cap is shrunk until at most one rational fits the
    error window, so a reported rational is unambiguous."""
    if n < 2:
        raise ValueError(f"the volume formula needs degree >= 2, got {n}")
    if not zeta2 > 1.0:
        raise ValueError(f"zeta_k(2) must exceed 1, got {zeta2}")
    if index < 1 or d_k < 1 or zeta2_error < 0:
        raise ValueError("index and discriminant must be positive, error nonnegative")
    value = index * d_k**1.5 * zeta2 / (2 ** (2 * n - 3) * math.pi ** (2 * n))
    for norm in ram_norms:
        value *= (norm - 1) ** 2
    tol = value * (zeta2_error / zeta2) + 1e-12 * (1.0 + abs(value))
    cap = int(math.isqrt(int(1.0 / (4.0 * tol)))) if 4.0 * tol < 1.0 else 1
    max_den = max(1, min(10_000, cap))
    recognized = recognize_rational(value, max_den=max_den, tol=tol)
    if recognized is None:
        note = f"no rational with denominator <= {max_den} fits within {tol:.3e}"
    else:
        note = f"unique rational within {tol:.3e} at denominators <= {max_den}"
    return EulerEstimate(value=value, recognized=recognized, tolerance=tol, max_den=max_den, note=note)
