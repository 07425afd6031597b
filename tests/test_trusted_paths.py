"""The constructors that build records without their check, because they
derive the fields themselves, agree with the checked public paths, and
the Euler number built from one integer numerator agrees with the
Fraction formula.  That the public constructors and
``cyclotomic_splitting`` still refuse bad input is tested with their
modules and in test_records."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

from shimsurf.exact import primes_up_to
from shimsurf.quadfield import (
    QuadPrime,
    Splitting,
    field_from_disc,
    fundamental_discriminants,
    primes_above,
    splitting_type,
)
from shimsurf.quartic import QuarticPrime, primes_above_quartic, quartic_new, quartic_splitting
from shimsurf.shimura import SubgroupKind, euler_number_quadratic, quadratic_algebra, subgroup_index


def _benchmark_inputs():
    """The benchmark's seeded input generators, ``perfbench/inputs.py``,
    which depend on nothing in the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _benchmark_inputs()


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
            assert above == [QuarticPrime(K, p, f, e) for f, e in quartic_splitting(K, p)]
            assert all(type(q) is QuarticPrime for q in above)


def test_euler_number_equals_the_fraction_formula_on_the_sweep():
    valid = (q for q in INPUTS.sweep_queries(1) if q.valid)
    for query in itertools.islice(valid, 3000):
        A = quadratic_algebra(field_from_disc(query.disc), query.ram)
        kind = SubgroupKind(query.kind)
        index = 1 if query.level is None else subgroup_index(kind, primes_above(A.base, query.level)[0].norm)
        expected = Fraction(index) * A.base.bernoulli2() / 12 * math.prod((p - 1) ** 2 for p in query.ram)
        assert euler_number_quadratic(A, index) == expected, query
