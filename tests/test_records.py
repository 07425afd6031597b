"""The package's records: immutable NamedTuples that compare by value as
tuples, and the eight that check themselves refuse a bad value through
every public construction path: the constructor, ``_make`` and
``_replace``, and so the rebuilt records of ``QuadPrime.conjugate`` and of
the search's status and reason updates.  All eight check through one
hook, ``CheckedRecord.__new__``, which calls the record's ``_check``.  A
bad record can be built only around the check, by ``tuple.__new__``,
which ``CheckedRecord._trusted`` calls for the constructors that derive
the fields themselves."""

import pkgutil
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import shimsurf
from shimsurf import InvariantError, search
from shimsurf.exact import CheckedRecord
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
from shimsurf.quartic import QuarticPrime, choose_level_prime, quartic_new
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
        spec,
        report,
        enumerate_candidates((12,))[0],
        compare_to_reference([]),
        kummer_dedekind_primes((-1, -1, 1), 5)[0],
    ]


def test_every_public_record_is_immutable():
    records = _one_of_each()
    assert len({type(r) for r in records}) == 18
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
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 3, 1), ValueError, "no prime over 7 has f=3, e=1",
        id="quartic-prime-shape",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 9, 1, 1), ValueError, "modulus 9 is not prime",
        id="quartic-prime-p",
    ),
    pytest.param(CandidateRow, (17, Fraction(8), 12, (2,), 17), InvariantError, "exact Euler number", id="row"),
    pytest.param(QuaternionAlgebra, (quad_field(33), ()), ValueError, "must ramify somewhere finite", id="algebra"),
    pytest.param(
        QuaternionAlgebra, (QuadField(6, 6), tuple(primes_above(QuadField(6, 6), 5))), ValueError,
        r"QuadField\(d=6, disc=6\) is not a real quadratic field", id="algebra-base",
    ),
    pytest.param(SubgroupSpec, (SubgroupKind.BOREL,), ValueError, "level prime is required", id="subgroup"),
    pytest.param(
        SubgroupSpec, ("borel", primes_above(quad_field(33), 11)[0]), ValueError, "'borel' is not a SubgroupKind",
        id="subgroup-kind",
    ),
    pytest.param(SubgroupSpec, (SubgroupKind.BOREL, 11), ValueError, "level prime 11 is not a Place", id="subgroup-level"),
]


def test_records_check_through_one_hook():
    # A __new__ compiled from the package's own source is one written
    # here; the NamedTuple and Enum machinery supply the others.
    package = Path(shimsurf.__file__).parent
    modules = [import_module(f"shimsurf.{m.name}") for m in pkgutil.iter_modules(shimsurf.__path__)]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__}
    own_new = {
        c.__qualname__
        for c in classes
        if "__new__" in vars(c) and Path(c.__new__.__code__.co_filename).parent == package
    }
    assert own_new == {"CheckedRecord"}
    checked = {c for c in classes if issubclass(c, CheckedRecord) and hasattr(c, "_fields")}
    assert {c.__name__ for c in checked} == {
        "QuadPrime", "QuarticPrime", "QuaternionAlgebra", "SubgroupSpec",
        "CandidateRow", "SurfaceInvariants", "QuotientInvariants", "CurveData",
    }
    assert all("_check" in vars(c) for c in checked)


def _unchecked(cls, *args):
    """A record of ``cls`` built around its check, defaults filled in."""
    return tuple.__new__(cls, (*args, *(cls._field_defaults[f] for f in cls._fields[len(args) :])))


@pytest.mark.parametrize("cls, args, exc, match", _BAD_VALUES)
def test_validated_records_refuse_bad_values(cls, args, exc, match):
    bad = _unchecked(cls, *args)
    with pytest.raises(exc, match=match):
        cls(*args)
    with pytest.raises(exc, match=match):
        cls(**dict(zip(cls._fields, args)))
    with pytest.raises(exc, match=match):
        cls._make(bad)
    with pytest.raises(exc, match=match):
        bad._replace()


def test_replace_refuses_a_bad_value():
    row = enumerate_candidates((12,))[0]
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        row._replace(B2=2 * row.B2)
    with pytest.raises(ValueError, match="tag 2 invalid"):
        primes_above(quad_field(33), 2)[0]._replace(tag=2)
    assert row._replace(reason="x") == (*row[:-1], "x")


def test_conjugate_builds_through_the_constructor():
    field = quad_field(33)
    assert [q.conjugate() for q in primes_above(field, 2)] == primes_above(field, 2)[::-1]
    # The bad tag, built around the check, reaches conjugate(), whose
    # rebuilt prime must refuse tag 1 - 2 = -1.
    bad = _unchecked(QuadPrime, field, 2, Splitting.SPLIT, 2)
    with pytest.raises(ValueError, match="tag -1 invalid"):
        bad.conjugate()


def test_search_updates_build_through_the_constructor(monkeypatch):
    # Each rebuilt row is checked again: a row whose B2 breaks the identity
    # (built around the check) is refused by the prune, the diff and the
    # final annotation alike.
    rows = enumerate_candidates((12,))
    statuses = [r.status for r in prune_by_torsion(rows)]
    pruned = rows[statuses.index(RowStatus.PRUNED)]
    kept = rows[statuses.index(RowStatus.CANDIDATE)]

    def doubled(row):
        return _unchecked(CandidateRow, row.D, 2 * row.B2, *row[2:])

    with pytest.raises(InvariantError, match="exact Euler number identity"):
        prune_by_torsion([doubled(pruned)])
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        compare_to_reference([doubled(kept)])
    monkeypatch.setattr(search, "prune_by_torsion", lambda rows: [doubled(kept)])
    monkeypatch.setattr(search, "compare_to_reference", lambda rows: DiffReport((kept,), (), ()))
    with pytest.raises(InvariantError, match="exact Euler number identity"):
        run_pipeline((12,))
