"""Chern invariants of compact quaternionic surfaces and their involution
quotients, the numbers of the fixed curve, and the genus formula for the
corresponding curves over the rationals.

For a smooth compact quotient X of the bidisc the Euler number e = c_2(X)
determines everything: c_1^2 = 2e, chi(O_X) = e/4, p_g = e/4 - 1 and the
irregularity q vanishes.  When an involution with smooth quotient Z = X/s
fixes a curve of arithmetic genus g, the invariants of (the resolution of)
Z are linear in e and g; Noether's formula K^2 + c_2 = 12(1 + p_g) is a
built-in consistency check on every output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact import CheckedRecord, InvariantError, is_int, is_prime, require_int


# Largest e at which the sufficient criterion K^2 > 0 decides general type.
GENERAL_TYPE_MAX_E = 36


class _SurfaceInvariantsFields(NamedTuple):
    e: int
    c1sq: int
    chi: int
    pg: int
    q: int = 0


class SurfaceInvariants(CheckedRecord, _SurfaceInvariantsFields):
    """Chern and Hodge numbers of a smooth compact bidisc quotient."""

    __slots__ = ()

    def _check(self) -> None:
        if (self.c1sq, 4 * self.chi, self.pg, self.q) != (2 * self.e, self.e, self.chi - 1, 0):
            raise InvariantError(
                f"inconsistent surface invariants {self}: need c1^2 = 2e = 8 chi, p_g = chi - 1 and q = 0"
            )


class _QuotientInvariantsFields(NamedTuple):
    Ksq: int
    c2: int
    pg: int
    q: int = 0
    general_type: bool | None = None


class QuotientInvariants(CheckedRecord, _QuotientInvariantsFields):
    """Invariants of the quotient of the surface by the involution.

    ``general_type`` is decided for every e <= GENERAL_TYPE_MAX_E; None
    means the implemented bound does not settle the question.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.Ksq + self.c2 != 12 * (1 + self.pg) or self.q != 0:
            raise InvariantError(f"Noether identity violated or q != 0: {self}")


class _CurveDataFields(NamedTuple):
    g: int
    Csq: int
    KC: int


class CurveData(CheckedRecord, _CurveDataFields):
    """Intersection numbers of the curve fixed by the involution."""

    __slots__ = ()

    def _check(self) -> None:
        if (self.Csq, self.KC) != (2 - 2 * self.g, 4 * (self.g - 1)):
            raise InvariantError(f"inconsistent fixed-curve numbers {self}: need C^2 = 2 - 2g, K.C = 4(g - 1)")


def shimura_surface_invariants(e: int) -> SurfaceInvariants:
    """Invariants of a smooth compact quotient with Euler number e."""
    require_int(e, "Euler number")
    if e <= 0 or e % 4 != 0:
        raise ValueError(
            f"Euler number must be a positive multiple of 4, got {e} "
            "(the holomorphic Euler characteristic e/4 must be a positive integer)"
        )
    chi = e // 4
    return SurfaceInvariants(e, 2 * e, chi, chi - 1, 0)


def quotient_invariants(e: int, g: int) -> QuotientInvariants:
    """Invariants of the involution quotient when the fixed curve has
    arithmetic genus g.

    The genus is constrained to 2 <= g <= (e - 4)/4 and to the parity
    class making the geometric genus (e - 4 - 4g)/8 an integer.
    """
    require_int(e, "Euler number")
    if e <= 0 or e % 4 != 0:
        raise ValueError(f"Euler number must be a positive multiple of 4, got {e}")
    require_int(g, "genus")
    if not 2 <= g <= (e - 4) // 4:
        raise ValueError(f"genus bound violated: need 2 <= g <= (e - 4)/4 = {Fraction(e - 4, 4)}, got {g}")
    if (e - 4 - 4 * g) % 8 != 0:
        raise ValueError(
            f"non-integral geometric genus: (e - 4 - 4g)/8 = {Fraction(e - 4 - 4 * g, 8)} for e={e}, g={g}"
        )
    ksq = e + 5 * (1 - g)
    c2 = e // 2 + 1 - g
    pg = (e - 4 - 4 * g) // 8
    general_type = (ksq > 0) if e <= GENERAL_TYPE_MAX_E else None
    return QuotientInvariants(Ksq=ksq, c2=c2, pg=pg, general_type=general_type)


def quotient_table(e: int) -> list[tuple[int, QuotientInvariants]]:
    """All admissible fixed-curve genera for the given Euler number,
    ascending, with the corresponding quotient invariants."""
    require_int(e, "Euler number")
    if e <= 0 or e % 4 != 0:
        raise ValueError(f"Euler number must be a positive multiple of 4, got {e}")
    rows = []
    for g in range(2, (e - 4) // 4 + 1):
        if (e - 4 - 4 * g) % 8 == 0:
            rows.append((g, quotient_invariants(e, g)))
    return rows


def quotient_invariants_from_pg(pg_X: int) -> QuotientInvariants:
    """Quotient invariants in the boundary case g = p_g(X), where the
    quotient has p_g = q = 0: K^2 = 9 - p_g(X) and c_2 = 3 + p_g(X).

    Checked to agree with ``quotient_invariants(4(1 + p_g), p_g)``, also
    under ``python -O``.
    """
    require_int(pg_X, "geometric genus")
    if not 2 <= pg_X <= 8:
        raise ValueError(f"geometric genus must lie in [2, 8], got {pg_X}")
    direct = QuotientInvariants(Ksq=9 - pg_X, c2=3 + pg_X, pg=0, general_type=True)
    computed = quotient_invariants(4 * (1 + pg_X), pg_X)
    if direct != computed:
        raise InvariantError(f"closed form {direct} disagrees with the general quotient formulas {computed}")
    return computed


def fixed_curve_numbers(g: int) -> CurveData:
    """Self-intersection and canonical degree of the fixed curve."""
    require_int(g, "genus")
    if g < 2:
        raise ValueError(f"the fixed curve has arithmetic genus >= 2, got {g}")
    return CurveData(g=g, Csq=2 - 2 * g, KC=4 * (g - 1))


class CurveResult(NamedTuple):
    """Euler characteristic of a quotient curve over the rationals; the
    genus is filled in only when the characteristic is consistent with a
    torsion-free group (an even integer 2 - 2g with g >= 2)."""

    chi: Fraction
    genus: int | None
    note: str


def shimura_curve_genus(ram_primes: Iterable[int], index: int) -> CurveResult:
    """Genus of the compact curve attached to a rational quaternion
    algebra ramified at the given even set of primes, for a subgroup of
    the stated index in the projectivized unit group of a maximal order.

    The volume formula gives chi = -(index/6) * prod (p - 1); a genus is
    reported only when 2 - 2g = chi has an integer solution g >= 2 (which
    presumes the group is torsion-free).
    """
    given = list(ram_primes)
    primes = sorted(set(given))
    if len(primes) != len(given) or len(primes) % 2 != 0 or len(primes) < 2 or not all(
        is_prime(p) for p in primes
    ):
        raise ValueError(
            f"ramification set must consist of an even number >= 2 of distinct primes, got {given}"
        )
    if not is_int(index) or index < 1:
        raise ValueError(f"index must be a positive integer, got {index}")
    chi = -Fraction(index, 6)
    for p in primes:
        chi *= p - 1
    two_g = 2 - chi
    if two_g.denominator == 1 and two_g % 2 == 0 and two_g // 2 >= 2:
        return CurveResult(chi=chi, genus=int(two_g // 2), note="valid only for torsion-free groups")
    return CurveResult(chi=chi, genus=None, note="orbifold Euler characteristic; the group may have torsion")
