"""The package's records: immutable NamedTuples that compare by value as
tuples, and the ten that check themselves refuse a bad value through
every public construction path: the constructor, ``_make`` and
``_replace``, and so the rebuilt records of ``QuadPrime.conjugate`` and of
the search's status and reason updates.  All ten check through one
hook, ``CheckedRecord.__new__``, which calls the record's ``_check``
on both of its routes: a positional call that gives every field builds
the tuple directly, and a keyword call or one that leaves a default out
goes through the NamedTuple's own ``__new__``.  A bad record can be
built only around the check, by ``tuple.__new__``, which
``CheckedRecord._trusted(fields)`` is, taking every field as one tuple,
for the constructors that derive the fields themselves."""

import pkgutil
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import shimsurf
from shimsurf import InvariantError
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
from shimsurf.quadfield import QuadField, QuadPrime, Splitting, bernoulli2, primes_above, quad_field
from shimsurf.quartic import QuarticField, QuarticPrime, choose_level_prime, quartic_new
from shimsurf.search import (
    CandidateRow,
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
    ]


def test_every_public_record_is_immutable():
    records = _one_of_each()
    assert len({type(r) for r in records}) == 17
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
    pytest.param(SurfaceInvariants, (24, 48, 6, 5, 1), InvariantError, "inconsistent surface invariants", id="surface-q"),
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
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 3, 1, (1, 0, 0, 1)), ValueError,
        "no prime over 7 has f=3, e=1", id="quartic-prime-shape",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 2, 1, (1, 0, 1)), ValueError,
        r"no prime over 7 has the generator \(1, 0, 1\)", id="quartic-prime-generator",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 9, 1, 1, (0, 1)), ValueError, "modulus 9 is not prime",
        id="quartic-prime-p",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 2.0, 1, (2.0, 5.0, 1.0)), ValueError,
        r"must be ints, got 7, 2\.0, 1, \(2\.0, 5\.0, 1\.0\)", id="quartic-prime-float",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 2, 1, (2, 5.0, 1)), ValueError, "must be ints",
        id="quartic-prime-float-generator",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7.0, 2, 1, (2, 5, 1)), ValueError, "must be ints",
        id="quartic-prime-float-p",
    ),
    pytest.param(
        QuarticPrime, (quartic_new((1, -1, -3, 1, 1), 5), 7, 2, True, (2, 5, 1)), ValueError,
        r"must be ints, got 7, 2, True, \(2, 5, 1\)", id="quartic-prime-bool",
    ),
    pytest.param(
        QuadPrime, (quad_field(33), 2, Splitting.SPLIT, True), ValueError, "tag True invalid for a split prime",
        id="prime-bool-tag",
    ),
    pytest.param(CandidateRow, (17, Fraction(8), 12, (2,), 17), InvariantError, "exact Euler number", id="row"),
    pytest.param(QuaternionAlgebra, (quad_field(33), ()), ValueError, "must ramify somewhere finite", id="algebra"),
    # A sequence field is a tuple, so the record hashes, and an algebra's
    # places are in the (p, tag) order quadratic_algebra builds, so one
    # algebra is one record.
    pytest.param(
        QuaternionAlgebra, (quad_field(33), primes_above(quad_field(33), 2)), ValueError,
        "the ramified places must be a tuple, got list", id="algebra-list",
    ),
    pytest.param(
        QuaternionAlgebra, (quad_field(33), (q for q in primes_above(quad_field(33), 2))), ValueError,
        "the ramified places must be a tuple, got generator", id="algebra-generator",
    ),
    pytest.param(
        QuaternionAlgebra, (quad_field(33), tuple(primes_above(quad_field(33), 2))[::-1]), ValueError,
        r"the ramified places must be in \(p, tag\) order", id="algebra-order",
    ),
    pytest.param(
        CandidateRow, (17, bernoulli2(17), 12, [2], 18), ValueError, "ram_primes must be a tuple, got list",
        id="row-list",
    ),
    pytest.param(
        QuadField, (6, 6), ValueError, r"QuadField\(d=6, disc=6\) is not a real quadratic field", id="field",
    ),
    pytest.param(QuadField, (33, 132), ValueError, "is not a real quadratic field", id="field-disc"),
    pytest.param(QuadField, (5.0, 5), ValueError, "is not a real quadratic field", id="field-float"),
    # Q(sqrt 2, sqrt 3) declared with a fourth subfield, Q(sqrt 5), which
    # it does not contain: the record is not the one quartic_new certifies.
    pytest.param(
        QuarticField, ((1, -4, 2, 4, -2), 2304, quad_field(2), (2, 3, 5, 6)), ValueError,
        "is not the field quartic_new certifies", id="quartic-field",
    ),
    # A tuple subfield compares equal to the QuadField of its values.
    pytest.param(
        QuarticField, ((1, -4, 2, 4, -2), 2304, (2, 8), (2, 3, 6)), ValueError,
        "is not the field quartic_new certifies", id="quartic-field-subfield",
    ),
    pytest.param(QuaternionAlgebra, ((5, 5), ()), ValueError, r"base \(5, 5\) is not a Field", id="algebra-base"),
    pytest.param(QuaternionAlgebra, (5, ()), ValueError, "base 5 is not a Field", id="algebra-base-int"),
    pytest.param(SubgroupSpec, (SubgroupKind.BOREL,), ValueError, "level prime is required", id="subgroup"),
    pytest.param(
        SubgroupSpec, ("borel", primes_above(quad_field(33), 11)[0]), ValueError, "'borel' is not a SubgroupKind",
        id="subgroup-kind",
    ),
    pytest.param(SubgroupSpec, (SubgroupKind.BOREL, 11), ValueError, "level prime 11 is not a Place", id="subgroup-level"),
]


def test_one_algebra_is_one_hashable_record():
    # The checked constructor, given the tuple in (p, tag) order, builds
    # the record quadratic_algebra builds; the order check runs after the
    # ramification rule, whose refusal of a half pair still comes first.
    field = quad_field(33)
    q2, q2bar = primes_above(field, 2)
    q17, q17bar = primes_above(field, 17)
    A = QuaternionAlgebra(field, (q2, q2bar, q17, q17bar))
    assert A == quadratic_algebra(field, [17, 2]) and hash(A) == hash(quadratic_algebra(field, [2, 17]))
    with pytest.raises(ValueError, match=r"\(p, tag\) order"):
        QuaternionAlgebra(field, (q17, q17bar, q2, q2bar))
    with pytest.raises(ValueError, match="not conjugation-closed"):
        QuaternionAlgebra(field, (q17, q2))
    row = CandidateRow(17, bernoulli2(17), 12, (2,), 18)
    assert compare_to_reference([row], (12,)).matched[0].key == (12, 17, (2,), 18)


def _package_classes() -> set[type]:
    """Every class defined in a module of the package."""
    modules = [import_module(f"shimsurf.{m.name}") for m in pkgutil.iter_modules(shimsurf.__path__)]
    return {c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__}


def _checked_records() -> set[type]:
    return {c for c in _package_classes() if issubclass(c, CheckedRecord) and hasattr(c, "_fields")}


def test_records_check_through_one_hook():
    # A __new__ compiled from the package's own source is one written
    # here; the NamedTuple and Enum machinery supply the others.
    package = Path(shimsurf.__file__).parent
    own_new = {
        c.__qualname__
        for c in _package_classes()
        if "__new__" in vars(c) and Path(c.__new__.__code__.co_filename).parent == package
    }
    assert own_new == {"CheckedRecord"}
    checked = _checked_records()
    assert {c.__name__ for c in checked} == {
        "QuadField", "QuarticField", "QuadPrime", "QuarticPrime", "QuaternionAlgebra", "SubgroupSpec",
        "CandidateRow", "SurfaceInvariants", "QuotientInvariants", "CurveData",
    }
    assert all("_check" in vars(c) for c in checked)


def _unchecked(cls, *args):
    """A record of ``cls`` built around its check, defaults filled in."""
    return tuple.__new__(cls, (*args, *(cls._field_defaults[f] for f in cls._fields[len(args) :])))


def _routes(cls, args):
    """Each public way to build the record of these positional arguments,
    by name: every field given positionally (the direct route), every
    field by keyword, the trailing fields that hold their defaults left
    out (when there are any), ``_make`` and ``_replace``."""
    defaults = cls._field_defaults
    fields = (*args, *(defaults[f] for f in cls._fields[len(args) :]))
    short = len(fields)  # the first field of every record has no default
    while cls._fields[short - 1] in defaults and fields[short - 1] == defaults[cls._fields[short - 1]]:
        short -= 1
    routes = {
        "every field": lambda: cls(*fields),
        "keywords": lambda: cls(**dict(zip(cls._fields, fields))),
        "_make": lambda: cls._make(_unchecked(cls, *fields)),
        "_replace": lambda: _unchecked(cls, *fields)._replace(),
    }
    if short < len(fields):
        routes["defaults left out"] = lambda: cls(*fields[:short])
    return routes


@pytest.mark.parametrize("cls, args, exc, match", _BAD_VALUES)
def test_validated_records_refuse_bad_values(cls, args, exc, match):
    for route, build in _routes(cls, args).items():
        with pytest.raises(exc, match=match):
            build()
            pytest.fail(f"built through {route}")


def test_every_checked_record_is_refused_on_every_route():
    # Each checked record has a bad value above, and each one with a
    # default has a bad value that can leave it out.
    routes = {}
    for param in _BAD_VALUES:
        cls, args = param.values[:2]
        routes.setdefault(cls, set()).update(_routes(cls, args))
    every = {"every field", "keywords", "_make", "_replace"}
    assert routes == {c: every | ({"defaults left out"} if c._field_defaults else set()) for c in _checked_records()}


def test_the_direct_route_keeps_the_argument_checks():
    # A positional call with every field skips only the NamedTuple's
    # __new__; a wrong argument list still reaches it and raises TypeError.
    field = quad_field(33)
    (q11,) = primes_above(field, 11)
    with pytest.raises(TypeError):
        SubgroupSpec(SubgroupKind.BOREL, q11, None)
    with pytest.raises(TypeError):
        SurfaceInvariants(24, 48, 6, 5, 0, 0)
    with pytest.raises(TypeError):
        SurfaceInvariants(24, 48, 6, 5, 0, e=24)
    with pytest.raises(TypeError):
        QuadField()
    assert SubgroupSpec(SubgroupKind.BOREL, q11) == SubgroupSpec(kind=SubgroupKind.BOREL, level=q11)
    assert SurfaceInvariants(24, 48, 6, 5, 0) == SurfaceInvariants(24, 48, 6, 5) == (24, 48, 6, 5, 0)
    assert type(SurfaceInvariants(24, 48, 6, 5, 0)) is SurfaceInvariants


def test_trusted_builds_without_the_check():
    # _trusted is tuple.__new__ on the record's class: one tuple of every
    # field, and no check.
    spec = SubgroupSpec._trusted((SubgroupKind.BOREL, 11))
    assert type(spec) is SubgroupSpec and spec.level == 11
    surface = SurfaceInvariants._trusted((24, 48, 6, 5, 1))
    assert type(surface) is SurfaceInvariants and surface.q == 1
    with pytest.raises(InvariantError, match="inconsistent surface invariants"):
        surface._replace()


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


def test_search_updates_build_through_the_constructor():
    # Each rebuilt row is checked again: a row whose B2 breaks the identity
    # (built around the check) is refused by the prune and by the diff.
    # The pipeline rebuilds nothing after the diff: each candidate row it
    # returns is one of the diff report's own rows.
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
    rows, report = run_pipeline((12,))
    own = {id(r) for r in report.matched + report.extras}
    candidates = [r for r in rows if r.status is RowStatus.CANDIDATE]
    assert candidates and all(id(r) in own for r in candidates)
