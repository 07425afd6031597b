"""Chern invariants of the surfaces, involution quotients, and curves."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf.geometry import (
    fixed_curve_numbers,
    quotient_invariants,
    quotient_invariants_from_pg,
    quotient_table,
    shimura_curve_genus,
    shimura_surface_invariants,
)

# Quotient invariants (g, K^2, c_2, p_g) for every admissible fixed-curve
# genus at each surface type e in the classification range.
QUOTIENT_TABLE = {
    12: [(2, 7, 5, 0)],
    16: [(3, 6, 6, 0)],
    20: [(2, 15, 9, 1), (4, 5, 7, 0)],
    24: [(3, 14, 10, 1), (5, 4, 8, 0)],
    28: [(2, 23, 13, 2), (4, 13, 11, 1), (6, 3, 9, 0)],
    32: [(3, 22, 14, 2), (5, 12, 12, 1), (7, 2, 10, 0)],
    36: [(2, 31, 17, 3), (4, 21, 15, 2), (6, 11, 13, 1), (8, 1, 11, 0)],
}


def test_surface_invariants():
    s = shimura_surface_invariants(24)
    assert (s.e, s.c1sq, s.chi, s.pg, s.q) == (24, 48, 6, 5, 0)
    s = shimura_surface_invariants(28)
    assert (s.e, s.c1sq, s.chi, s.pg, s.q) == (28, 56, 7, 6, 0)
    for e in (12, 16, 20, 24, 28, 32, 36):
        s = shimura_surface_invariants(e)
        # Noether: K^2 + c_2 = 12 chi with c_2 = e and q = 0.
        assert s.c1sq + s.e == 12 * s.chi
        assert s.pg == s.chi - 1
    for bad in (0, -4, 10, 13):
        with pytest.raises(ValueError):
            shimura_surface_invariants(bad)


def test_quotient_table_frozen():
    for e, rows in QUOTIENT_TABLE.items():
        got = [(g, inv.Ksq, inv.c2, inv.pg) for g, inv in quotient_table(e)]
        assert got == rows, e
        for _, inv in quotient_table(e):
            assert inv.q == 0
            assert inv.Ksq + inv.c2 == 12 * (1 + inv.pg)  # Noether
            assert inv.general_type is (inv.Ksq > 0)
    assert sum(len(rows) for rows in QUOTIENT_TABLE.values()) == 16


def test_quotient_golden_case():
    inv = quotient_invariants(24, 5)
    assert (inv.Ksq, inv.c2, inv.pg, inv.q) == (4, 8, 0, 0)
    assert inv.general_type is True


def test_quotient_validation():
    with pytest.raises(ValueError, match="genus bound"):
        quotient_invariants(24, 6)  # 6 > (24-4)/4
    with pytest.raises(ValueError, match="genus bound"):
        quotient_invariants(24, 1)
    with pytest.raises(ValueError, match="non-integral geometric genus"):
        quotient_invariants(24, 4)
    with pytest.raises(ValueError):
        quotient_invariants(25, 5)


def test_boundary_rows_have_pg_zero_and_bounded_ksq():
    # The last row of each type (g maximal) has p_g = q = 0, where general
    # type forces 1 <= K^2 <= 9.
    for e, rows in QUOTIENT_TABLE.items():
        g, ksq, c2, pg = rows[-1]
        assert pg == 0
        assert 1 <= ksq <= 9


def test_from_pg_agrees_with_general_formula():
    for p in range(2, 9):
        inv = quotient_invariants_from_pg(p)
        assert (inv.Ksq, inv.c2, inv.pg, inv.q) == (9 - p, 3 + p, 0, 0)
        assert inv == quotient_invariants(4 * (1 + p), p)
    with pytest.raises(ValueError):
        quotient_invariants_from_pg(1)
    with pytest.raises(ValueError):
        quotient_invariants_from_pg(9)


def test_general_type_outside_bound_is_undetermined():
    assert quotient_invariants(40, 9).general_type is None
    assert quotient_invariants(36, 8).general_type is True


def test_fixed_curve_numbers():
    data = fixed_curve_numbers(5)
    assert (data.g, data.Csq, data.KC) == (5, -8, 16)
    # Adjunction: C^2 + K.C = 2g - 2.
    for g in range(2, 12):
        data = fixed_curve_numbers(g)
        assert data.Csq + data.KC == 2 * g - 2
    with pytest.raises(ValueError):
        fixed_curve_numbers(1)


def test_curve_genus_golden():
    result = shimura_curve_genus((2, 5), 12)
    assert result.chi == Fraction(-8)
    assert result.genus == 5


def test_curve_chi_linear_in_index():
    base = shimura_curve_genus((2, 5), 1).chi
    for index in (2, 3, 7, 12):
        assert shimura_curve_genus((2, 5), index).chi == index * base


def test_curve_non_integral_genus_is_flagged():
    result = shimura_curve_genus((2, 3), 1)  # chi = -1/3
    assert result.chi == Fraction(-1, 3)
    assert result.genus is None
    assert "torsion" in result.note


def test_curve_validation():
    with pytest.raises(ValueError):
        shimura_curve_genus((2,), 1)  # odd number of primes
    with pytest.raises(ValueError):
        shimura_curve_genus((2, 2), 1)  # repeated prime
    with pytest.raises(ValueError):
        shimura_curve_genus((2, 4), 1)  # 4 is not prime
    with pytest.raises(ValueError):
        shimura_curve_genus((), 1)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=80, deadline=None)
def test_noether_identity_everywhere(k):
    e = 4 * k
    for g, inv in quotient_table(e):
        assert inv.Ksq + inv.c2 == 12 * (1 + inv.pg)
        # Chern numbers of the double cover recombine: c_2(X) = 2 c_2 + 2(g - 1).
        assert 2 * inv.c2 + 2 * (g - 1) == e


# Each construction breaks an invariant of its class.
_INCONSISTENT = """
from shimsurf import InvariantError
from shimsurf.geometry import CurveData, QuotientInvariants, SurfaceInvariants
for make in (
    lambda: SurfaceInvariants(e=5, c1sq=1, chi=9, pg=0),
    lambda: SurfaceInvariants(e=4, c1sq=8, chi=1, pg=0, q=1),
    lambda: QuotientInvariants(Ksq=1, c2=1, pg=1),
    lambda: QuotientInvariants(Ksq=7, c2=5, pg=0, q=1),
    lambda: CurveData(g=2, Csq=0, KC=4),
    lambda: CurveData(g=2, Csq=-2, KC=0),
):
    try:
        make()
        print("constructed")
    except InvariantError:
        print("raised")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
def test_inconsistent_invariants_raise(flags):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _INCONSISTENT], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout == "raised\n" * 6, proc.stderr
