"""The constructors that build records without their check, because they
derive the fields themselves, agree with the checked public paths, and
the report's Euler number, built from one integer numerator, agrees with
the Fraction formula.  The report, which admits its level once and then
reads unchecked kernels, agrees with the checked public torsion
verdicts.  That
the public constructors and ``cyclotomic_splitting`` still refuse bad
input is tested with their modules and in test_records."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from shimsurf.exact import primes_up_to
from shimsurf.quadfield import (
    QuadField,
    QuadPrime,
    Splitting,
    field_from_disc,
    fundamental_discriminants,
    primes_above,
    splitting_type,
)
from shimsurf.quartic import QuarticField, QuarticPrime, primes_above_quartic, quartic_new
from shimsurf import shimura, torsion
from shimsurf.geometry import shimura_surface_invariants
from shimsurf.shimura import (
    Check,
    QuaternionAlgebra,
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    quadratic_algebra,
    quartic_algebra,
    subgroup_index,
)


def _benchmark_inputs():
    """The benchmark's seeded input generators, ``perfbench/inputs.py``,
    which depend on nothing in the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _benchmark_inputs()


def test_interned_and_certified_fields_equal_the_checked_constructor():
    for disc in fundamental_discriminants(5, 400):
        field = field_from_disc(disc)
        assert type(field) is QuadField and QuadField(*field) == field
    for _, coeffs, sub in INPUTS.QUARTIC_FIELDS:
        K = quartic_new([int(c) for c in coeffs.split(",")], sub)
        assert type(K) is QuarticField and QuarticField(*K) == K


def test_primes_above_equals_the_checked_constructor():
    for disc in fundamental_discriminants(5, 400):
        field = field_from_disc(disc)
        for p in primes_up_to(199):
            kind = splitting_type(field, p)
            tags = (0, 1) if kind is Splitting.SPLIT else (0,)
            above = primes_above(field, p)
            assert above == [QuadPrime(field, p, kind, tag) for tag in tags]
            assert all(type(q) is QuadPrime for q in above)


def test_primes_above_quartic_equals_the_checked_constructor():
    for _, coeffs, sub in INPUTS.QUARTIC_FIELDS:
        K = quartic_new([int(c) for c in coeffs.split(",")], sub)
        for p in primes_up_to(199):
            above = primes_above_quartic(K, p)
            assert above == [QuarticPrime(*q) for q in above]
            assert all(type(q) is QuarticPrime for q in above)


def _sweep_reports(count):
    """(algebra, spec, report) for the first count valid seed-1 sweep
    queries."""
    valid = (q for q in INPUTS.sweep_queries(1) if q.valid)
    for query in itertools.islice(valid, count):
        A = quadratic_algebra(field_from_disc(query.disc), query.ram)
        level = None if query.level is None else primes_above(A.base, query.level)[0]
        spec = SubgroupSpec(SubgroupKind(query.kind), level)
        yield A, spec, admissibility_report(A, spec)


def test_euler_number_equals_the_fraction_formula_on_the_sweep():
    for A, spec, report in _sweep_reports(3000):
        index = 1 if spec.level is None else subgroup_index(spec.kind, spec.level.norm)
        pairs = math.prod((p - 1) ** 2 for p in A.ram_rational_primes)
        expected = Fraction(index) * A.base.bernoulli2() / 12 * pairs
        assert (report.index, report.euler) == (index, expected), spec


def test_quadratic_algebra_equals_the_checked_constructor():
    for disc in fundamental_discriminants(5, 400):
        field = field_from_disc(disc)
        split = [p for p in primes_up_to(59) if splitting_type(field, p) is Splitting.SPLIT]
        for primes in itertools.chain(itertools.combinations(split, 1), itertools.combinations(split, 2)):
            ram = tuple(q for p in primes for q in primes_above(field, p))
            A = quadratic_algebra(field, primes[::-1])
            assert A == QuaternionAlgebra(field, ram), (disc, primes)
            assert type(A) is QuaternionAlgebra


def test_report_equals_the_checked_functions_on_the_sweep():
    public = {
        SubgroupKind.BOREL: torsion.borel_torsion_verdict,
        SubgroupKind.UNIPOTENT: torsion.unipotent_torsion_verdict,
        SubgroupKind.PRINCIPAL: torsion.principal_torsion_verdict,
    }
    admissible = 0
    for A, spec, report in _sweep_reports(2000):
        # quadratic_algebra ramifies at conjugate pairs over a quadratic base
        assert report.involution_ok.ok and report.invariant_order_ok.ok, spec
        if spec.level is None:
            assert report.level_invariance_ok == Check(True, "the full unit group needs no level prime")
            assert report.torsion == torsion.full_torsion_verdict(A.base, A.ram)
        else:
            # a quadratic level is conjugation-stable exactly when its prime does not split
            assert report.level_invariance_ok.ok == (spec.level.splitting is not Splitting.SPLIT), spec
            assert report.torsion == public[spec.kind](A.base, A.ram, spec.level), spec
        if report.admissible_type is None:
            assert report.surface is None, spec
        else:
            assert report.surface == shimura_surface_invariants(report.admissible_type), spec
            admissible += 1
    assert 0 < admissible < 2000


def _counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the torsion decision and of the two admission
    rules, at every binding of each in the package."""
    counts = {"decision": 0, "ramification": 0, "level": 0}
    for module in (shimura, torsion):
        for name, key in (("_verdict", "decision"), ("_require_ramification", "ramification"), ("_require_level", "level")):
            monkeypatch.setattr(module, name, _counting(counts, key, getattr(module, name)))
    return counts


def test_each_report_calls_one_verdict_and_admits_once(calls):
    # A report decides torsion once, never proves its algebra's
    # ramification again, and admits a level once, when it has one.
    reports = list(_sweep_reports(1000))
    levels = sum(spec.level is not None for _, spec, _ in reports)
    assert 0 < levels < len(reports)
    assert calls == {"decision": len(reports), "ramification": 0, "level": levels}


def test_quartic_report_equals_the_public_verdicts():
    # Every kind at every place over p < 60 of the six benchmark quartic
    # fields: the report decides as the checked public verdict does.
    reports = 0
    for _, coeffs, sub in INPUTS.QUARTIC_FIELDS:
        K = quartic_new([int(c) for c in coeffs.split(",")], sub)
        A = quartic_algebra(K)
        report = admissibility_report(A, SubgroupSpec(SubgroupKind.FULL, None))
        assert report.torsion == torsion.full_torsion_verdict(K, ()), coeffs
        for q in (q for p in primes_up_to(59) for q in primes_above_quartic(K, p)):
            for kind in (SubgroupKind.BOREL, SubgroupKind.UNIPOTENT, SubgroupKind.PRINCIPAL):
                report = admissibility_report(A, SubgroupSpec(kind, q))
                public = getattr(torsion, f"{kind.value}_torsion_verdict")(K, (), q)
                assert report.torsion == public, (coeffs, kind, q)
                reports += 1
    assert reports == 564
