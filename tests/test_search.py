"""The bounded classification search: exact enumeration, torsion pruning,
and the diff against the embedded reference classification."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf import InvariantError, search
from shimsurf.quadfield import bernoulli2, fundamental_discriminants
from shimsurf.search import (
    DEFAULT_TYPES,
    DISCRIMINANT_BOUND,
    REFERENCE_ROWS,
    CandidateRow,
    RowStatus,
    compare_to_reference,
    enumerate_candidates,
    prune_by_torsion,
    run_pipeline,
)

# Rows beyond the reference classification that satisfy every documented
# necessary condition (integral index, surviving torsion divisibility).
EXPECTED_EXTRAS = {
    (12, 33, (2,), 6),
    (16, 41, (2,), 6),
    (28, 57, (2,), 6),
    (32, 21, (5,), 3),
    (32, 41, (2,), 12),
    (32, 65, (2,), 6),
}


def test_pipeline_counts_and_reference_match():
    rows, report = run_pipeline()
    assert len(rows) == 51
    candidates = [r for r in rows if r.status is RowStatus.CANDIDATE]
    assert len(candidates) == 20
    matched, missing, extras = report.counts
    assert matched == 14
    assert missing == 0
    assert extras == 6
    assert {r.key for r in report.matched} == set(REFERENCE_ROWS)
    assert {r.key for r in report.extras} == EXPECTED_EXTRAS


def test_rows_satisfy_exact_identity():
    rows, _ = run_pipeline()
    for r in rows:
        product = 1
        for p in r.ram_primes:
            product *= (p - 1) ** 2
        assert Fraction(r.e) == Fraction(r.index) * r.B2 / 12 * product
        assert r.B2 == bernoulli2(r.D)
        assert r.index >= 1 and r.e in DEFAULT_TYPES


def test_known_rows_frozen():
    rows, _ = run_pipeline()
    by_key = {r.key: r for r in rows}
    # Candidate anchor rows of the reference classification.
    assert by_key[(24, 8, (7,), 4)].status is RowStatus.CANDIDATE
    assert by_key[(12, 17, (2,), 18)].status is RowStatus.CANDIDATE
    assert by_key[(24, 33, (2,), 12)].status is RowStatus.CANDIDATE
    # Pruned: index not divisible by a certified torsion order.
    pruned_16_29 = by_key[(16, 29, (5,), 1)]
    assert pruned_16_29.status is RowStatus.PRUNED
    pruned_20_5 = by_key[(20, 5, (11,), 3)]
    assert pruned_20_5.status is RowStatus.PRUNED
    assert pruned_20_5.reason == "order 2 torsion, 2 does not divide index 3"


def test_matched_and_extra_reasons():
    rows, _ = run_pipeline()
    for r in rows:
        if r.status is not RowStatus.CANDIDATE:
            continue
        if r.key in set(REFERENCE_ROWS):
            assert r.reason == "matches the reference classification"
        else:
            assert r.key in EXPECTED_EXTRAS
            assert "necessary conditions" in r.reason


def test_pruning_only_removes_by_divisibility():
    raw = enumerate_candidates()
    pruned = prune_by_torsion(raw)
    assert [r.key for r in raw] == [r.key for r in pruned]  # no reordering
    for before, after in zip(raw, pruned):
        if after.status is RowStatus.PRUNED:
            assert "does not divide index" in after.reason


def test_enumeration_is_deterministic_and_sorted():
    first = enumerate_candidates()
    second = enumerate_candidates()
    assert first == second
    keys = [(r.e, r.D, r.ram_primes, r.index) for r in first]
    assert keys == sorted(keys)


def test_enumeration_respects_type_filter():
    only24 = enumerate_candidates((24,))
    assert {r.e for r in only24} == {24}
    full = enumerate_candidates()
    assert [r for r in full if r.e == 24] == only24


def test_enumeration_validates_types():
    with pytest.raises(ValueError):
        enumerate_candidates((10,))
    with pytest.raises(ValueError):
        enumerate_candidates((40,))
    with pytest.raises(ValueError):
        enumerate_candidates(())
    # Diffing nothing flags every reference row as missing.
    assert compare_to_reference([]).counts == (0, 14, 0)


def test_row_constructor_enforces_identity():
    with pytest.raises(InvariantError):
        CandidateRow(D=17, B2=Fraction(8), e=12, ram_primes=(2,), index=17)


def test_row_identity_is_checked_under_optimize():
    code = (
        "from fractions import Fraction; from shimsurf.search import CandidateRow; "
        "CandidateRow(D=17, B2=Fraction(8), e=12, ram_primes=(2,), index=17)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "InvariantError: row violates the exact Euler number identity" in proc.stderr


def test_discriminant_bound_is_safe():
    # Beyond the cutoff, B/12 exceeds the largest admissible type for
    # every fundamental discriminant, so larger fields cannot contribute.
    for disc in fundamental_discriminants(DISCRIMINANT_BOUND + 1, 1000):
        assert bernoulli2(disc) / 12 > 36, disc
    # The largest discriminant actually contributing is 317, inside it.
    contributing = [
        disc
        for disc in fundamental_discriminants(5, DISCRIMINANT_BOUND)
        if bernoulli2(disc) / 12 <= 36
    ]
    assert max(contributing) == 317


def test_bernoulli_lower_bound_and_cutoff(monkeypatch):
    # 225 B^2 >= d^3, from zeta_k(2) >= pi^4/90, is what lets the
    # enumeration stop at the cutoff; check it exhaustively up to 2000.
    for disc in fundamental_discriminants(5, 2000):
        assert 225 * bernoulli2(disc) ** 2 >= disc**3, disc
    # The cutoff is 347 for types up to 36 and 167 for type 12: a ceiling
    # at the cutoff loses no row, and one below it raises.
    full = enumerate_candidates()
    for e_values, cutoff in ((DEFAULT_TYPES, 347), ((12,), 167)):
        monkeypatch.setattr(search, "DISCRIMINANT_BOUND", cutoff)
        assert enumerate_candidates(e_values) == [r for r in full if r.e in e_values]
        monkeypatch.setattr(search, "DISCRIMINANT_BOUND", cutoff - 1)
        with pytest.raises(InvariantError, match=f"cutoff {cutoff} exceeds {cutoff - 1}"):
            enumerate_candidates(e_values)


@given(st.sets(st.sampled_from(DEFAULT_TYPES), min_size=1))
@settings(max_examples=30, deadline=None)
def test_pipeline_restricted_types_are_consistent(types):
    subset = tuple(sorted(types))
    rows, _ = run_pipeline(subset)
    all_rows, _ = run_pipeline()
    assert rows == [r for r in all_rows if r.e in subset]
