"""The package's records: immutable NamedTuples that compare by value as
tuples, and the seven that check themselves refuse a bad value through
every construction path the package takes, the rebuilt records of
``QuadPrime.conjugate`` and of the search's status and reason updates
among them."""

from fractions import Fraction

import pytest

from shimsurf import InvariantError, search
from shimsurf.geometry import (
    CurveData,
    QuotientInvariants,
    SurfaceInvariants,
    fixed_curve_numbers,
    quotient_invariants,
    shimura_curve_genus,
    shimura_surface_invariants,
)
from shimsurf.polymod import poly
from shimsurf.quadfield import QuadField, QuadPrime, Splitting, primes_above, quad_field
from shimsurf.quartic import choose_level_prime, quartic_new
from shimsurf.search import (
    CandidateRow,
    DiffReport,
    RowStatus,
    compare_to_reference,
    enumerate_candidates,
    prune_by_torsion,
    run_pipeline,
)
from shimsurf.shimura import (
    QuaternionAlgebra,
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    euler_number_general,
    quadratic_algebra,
)
from shimsurf.siegel import kummer_dedekind_primes
from shimsurf.torsion import possible_torsion_orders


def _one_of_each():
    field = quad_field(33)
    (q11,) = primes_above(field, 11)
    algebra = quadratic_algebra(field, [2])
    spec = SubgroupSpec(SubgroupKind.BOREL, q11)
    report = admissibility_report(algebra, spec)
    quartic = quartic_new((1, -1, -3, 1, 1), 5)
    return [
        shimura_surface_invariants(24),
        quotient_invariants(24, 5),
        fixed_curve_numbers(3),
        shimura_curve_genus([2, 5], 12),
        field,
        q11,
        quartic,
        choose_level_prime(quartic, 11),
        poly(5, [1, 2, 3]),
        possible_torsion_orders(field)[0],
        report.torsion,
        report.involution_ok,
        algebra,
        euler_number_general(33, 2, 1.2, (2,), 12, 1e-9),
        spec,
        report,
        enumerate_candidates((12,))[0],
        compare_to_reference([]),
        kummer_dedekind_primes((-1, -1, 1), 5)[0],
    ]


def test_every_public_record_is_immutable():
    records = _one_of_each()
    assert len({type(r) for r in records}) == 19
    for record in records:
        assert isinstance(record, tuple) and hash(record) == hash(tuple(record))
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 0
    assert QuadField(5, 5) == (5, 5)


# (record, positional arguments of a bad value, exception, message)
_BAD_VALUES = [
    pytest.param(SurfaceInvariants, (5, 1, 9, 0), InvariantError, "inconsistent surface invariants", id="surface"),
    pytest.param(QuotientInvariants, (1, 1, 1), InvariantError, "Noether identity violated", id="quotient"),
    pytest.param(CurveData, (2, 0, 4), InvariantError, "inconsistent fixed-curve numbers", id="curve"),
    pytest.param(
        QuadPrime, (quad_field(33), 5, Splitting.SPLIT), ValueError, r"5 is inert in Q\(sqrt\(33\)\), not split",
        id="prime-splitting",
    ),
    pytest.param(
        QuadPrime, (quad_field(33), 2, Splitting.SPLIT, 2), ValueError, "tag 2 invalid for a split prime",
        id="prime-tag",
    ),
    pytest.param(CandidateRow, (17, Fraction(8), 12, (2,), 17), InvariantError, "exact Euler number", id="row"),
    pytest.param(QuaternionAlgebra, (quad_field(33), ()), ValueError, "must ramify somewhere finite", id="algebra"),
    pytest.param(SubgroupSpec, (SubgroupKind.BOREL,), ValueError, "level prime is required", id="subgroup"),
]


@pytest.mark.parametrize("cls, args, exc, match", _BAD_VALUES)
def test_validated_records_refuse_bad_values(cls, args, exc, match):
    with pytest.raises(exc, match=match):
        cls(*args)
    with pytest.raises(exc, match=match):
        cls(**dict(zip(cls._fields, args)))


def test_conjugate_builds_through_the_constructor():
    field = quad_field(33)
    assert [q.conjugate() for q in primes_above(field, 2)] == primes_above(field, 2)[::-1]
    # _make skips the check, so the bad tag reaches conjugate(), whose
    # rebuilt prime must refuse tag 1 - 2 = -1.
    bad = QuadPrime._make((field, 2, Splitting.SPLIT, 2))
    with pytest.raises(ValueError, match="tag -1 invalid"):
        bad.conjugate()


def test_search_updates_build_through_the_constructor(monkeypatch):
    # Each rebuilt row is checked again: a row whose B2 breaks the identity
    # (built by _replace, which skips the check) is refused by the prune,
    # the diff and the final annotation alike.
    rows = enumerate_candidates((12,))
    statuses = [r.status for r in prune_by_torsion(rows)]
    pruned = rows[statuses.index(RowStatus.PRUNED)]
    kept = rows[statuses.index(RowStatus.CANDIDATE)]
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        prune_by_torsion([pruned._replace(B2=2 * pruned.B2)])
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        compare_to_reference([kept._replace(B2=2 * kept.B2)])
    monkeypatch.setattr(search, "prune_by_torsion", lambda rows: [kept._replace(B2=2 * kept.B2)])
    monkeypatch.setattr(search, "compare_to_reference", lambda rows: DiffReport((kept,), (), ()))
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        run_pipeline((12,))
