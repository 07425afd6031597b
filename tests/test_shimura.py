"""Quaternion algebras with involutions of second kind: existence checks,
subgroup indices, Euler numbers, and admissibility reports."""

import math
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf.exact import factorize, primes_up_to
from shimsurf.quadfield import QuadField, _field, bernoulli2, primes_above, quad_field
from shimsurf.quartic import choose_level_prime, primes_above_quartic, quartic_new
from shimsurf.shimura import (
    QuaternionAlgebra,
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    euler_number_quadratic,
    invariant_order_exists,
    involution_exists,
    level_invariance_ok,
    quadratic_algebra,
    quartic_algebra,
    subgroup_index,
)
from shimsurf.torsion import Verdict

from float_reference import euler_number_general

PRIME_POWERS_1000 = sorted(
    s for s in range(2, 1001) if len(factorize(s)) == 1
)


def test_subgroup_index_frozen_values():
    assert subgroup_index(SubgroupKind.FULL, 11) == 1
    assert subgroup_index(SubgroupKind.BOREL, 11) == 12
    assert subgroup_index(SubgroupKind.BOREL, 17) == 18
    assert subgroup_index(SubgroupKind.UNIPOTENT, 29) == 420
    assert subgroup_index(SubgroupKind.PRINCIPAL, 2) == 6
    assert subgroup_index(SubgroupKind.PRINCIPAL, 11) == 660
    assert subgroup_index(SubgroupKind.UNIPOTENT, 2) == 3


def test_subgroup_index_identities_all_prime_powers():
    for s in PRIME_POWERS_1000:
        t = gcd(s - 1, 2)
        full = subgroup_index(SubgroupKind.FULL, s)
        borel = subgroup_index(SubgroupKind.BOREL, s)
        unipotent = subgroup_index(SubgroupKind.UNIPOTENT, s)
        principal = subgroup_index(SubgroupKind.PRINCIPAL, s)
        assert full == 1
        assert borel == s + 1
        assert unipotent == (s * s - 1) // t
        assert principal == s * (s * s - 1) // t
        assert principal == s * unipotent
        assert unipotent == borel * (s - 1) // t


def test_subgroup_index_rejects_non_prime_powers():
    for bad in (1, 6, 10, 12, 100, 7.0, Fraction(7)):
        with pytest.raises(ValueError):
            subgroup_index(SubgroupKind.BOREL, bad)


def test_involution_exists_quadratic():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    assert involution_exists(algebra).ok
    # Construct defective ramification sets directly: a half pair, and a
    # conjugation-fixed place.
    q2, q2bar = primes_above(field, 2)
    assert not involution_exists(QuaternionAlgebra(field, (q2,))).ok
    (q7,) = primes_above(field, 7)
    assert not involution_exists(QuaternionAlgebra(field, (q7,))).ok


def test_quadratic_algebra_rejects_nonsplit_primes():
    with pytest.raises(ValueError, match="does not split"):
        quadratic_algebra(quad_field(33), [3])  # 3 ramifies in Q(sqrt 33)
    with pytest.raises(ValueError, match="does not split"):
        quadratic_algebra(quad_field(33), [7])  # 7 is inert


def test_invariant_order_quadratic_always_exists():
    for d, p in ((33, 2), (17, 2), (13, 3), (7, 3)):
        algebra = quadratic_algebra(quad_field(d), [p])
        assert invariant_order_exists(algebra).ok


def test_invariant_order_exceptional_case_over_quartic():
    # disc(f) = 24336 = 156^2 is the square of the discriminant of
    # Q(sqrt39), so the field is unramified over it, and the algebra has
    # exactly two ramified places (both infinite): 2 mod 4, the exceptional
    # combination without an invariant maximal order.
    K = quartic_new((1, -2, -11, 12, -3), 39)
    assert K.disc == K.subfield.disc**2 == 156**2
    algebra = quartic_algebra(K, infinite_conjugate_asserted=True)
    assert involution_exists(algebra).ok
    check = invariant_order_exists(algebra)
    assert not check.ok
    assert "2 mod 4" in check.reason


def test_invariant_order_generic_quartic_exists():
    K = quartic_new((1, -1, -3, 1, 1), 5)
    algebra = quartic_algebra(K, infinite_conjugate_asserted=True)
    assert involution_exists(algebra).ok
    assert invariant_order_exists(algebra).ok


def test_involution_quartic_requires_assertion():
    K = quartic_new((1, -1, -3, 1, 1), 5)
    assert not involution_exists(quartic_algebra(K)).ok
    assert involution_exists(quartic_algebra(K, infinite_conjugate_asserted=True)).ok


def test_level_invariance():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    (q11,) = primes_above(field, 11)  # ramified: conjugation-stable
    assert level_invariance_ok(algebra, q11).ok
    (q7,) = primes_above(field, 7)  # inert: conjugation-stable
    assert level_invariance_ok(algebra, q7).ok
    q17, _ = primes_above(field, 17)  # split: swapped with its conjugate
    assert not level_invariance_ok(algebra, q17).ok
    with pytest.raises(ValueError, match="level prime 11 is not a Place"):
        level_invariance_ok(algebra, 11)
    with pytest.raises(ValueError, match="meets the ramification"):
        level_invariance_ok(algebra, primes_above(field, 2)[0])


def test_quartic_level_invariance_is_decided_per_place():
    # Over the field of discriminant 725, 11 splits in Q(sqrt 5) and only
    # one of the two primes over it splits again: the two degree-one
    # places over 11 are swapped by conjugation, the degree-two place is
    # fixed, and its torsion-free subgroups are admissible.
    K = quartic_new((1, -1, -3, 1, 1), 5)
    algebra = quartic_algebra(K, infinite_conjugate_asserted=True)
    swapped, _, fixed = primes_above_quartic(K, 11)
    assert not level_invariance_ok(algebra, swapped).ok
    assert level_invariance_ok(algebra, fixed).ok
    unipotent = admissibility_report(algebra, SubgroupSpec(SubgroupKind.UNIPOTENT, fixed))
    principal = admissibility_report(algebra, SubgroupSpec(SubgroupKind.PRINCIPAL, fixed))
    assert (unipotent.obstructions, unipotent.admissible_type) == ((), 488)
    assert (principal.obstructions, principal.admissible_type) == ((), 59048)


def test_euler_numbers_quadratic_frozen():
    cases = {
        (33, 2): Fraction(2),
        (17, 2): Fraction(2, 3),
        (7, 3): Fraction(16, 3),
        (13, 3): Fraction(4, 3),
    }
    for (d, p), expected in cases.items():
        algebra = quadratic_algebra(quad_field(d), [p])
        assert euler_number_quadratic(algebra, 1) == expected, (d, p)
        # linear in the index
        for index in (2, 5, 12):
            assert euler_number_quadratic(algebra, index) == index * expected
    # An index that is not a positive integer names no subgroup.
    for index in (0, 2.5, Fraction(5, 2)):
        with pytest.raises(ValueError, match="index must be a positive integer"):
            euler_number_quadratic(algebra, index)


def test_general_formula_consistent_with_quadratic_at_degree_two():
    # The volume formula at n = 2, fed the exact zeta value through the
    # Bernoulli bridge zeta_k(2) = pi^4 B / (6 d^(3/2)), must recognize
    # exactly the quadratic closed form.
    for d, p in ((13, 3), (17, 2), (33, 2)):
        field = quad_field(d)
        algebra = quadratic_algebra(field, [p])
        zeta2 = math.pi**4 * float(bernoulli2(field.disc)) / (6 * field.disc**1.5)
        for index in (1, 6):
            exact = euler_number_quadratic(algebra, index)
            estimate = euler_number_general(
                field.disc, 2, zeta2, algebra.ram_norms, index, zeta2_error=1e-13
            )
            assert estimate.recognized == exact, (d, p, index)


def test_euler_estimate_refuses_underresolved_input():
    estimate = euler_number_general(725, 4, 1.04, [29], 1, zeta2_error=0.5)
    assert estimate.recognized is None or estimate.max_den == 1


def test_algebra_constructor_validation():
    field = quad_field(33)
    q2, q2bar = primes_above(field, 2)
    with pytest.raises(ValueError, match="duplicate ramified place"):
        QuaternionAlgebra(field, (q2, q2))
    with pytest.raises(ValueError, match="must ramify somewhere finite"):
        QuaternionAlgebra(field, ())
    with pytest.raises(ValueError, match="must ramify somewhere finite"):
        quadratic_algebra(field, [])  # refused before the unchecked construction
    with pytest.raises(ValueError, match="ramified place 2 is not a Place"):
        QuaternionAlgebra(field, (2,))
    K = quartic_new((1, -1, -3, 1, 1), 5)
    with pytest.raises(ValueError, match="supported only with empty finite ramification"):
        QuaternionAlgebra(K, (choose_level_prime(K, 11),))
    with pytest.raises(ValueError, match="does not live over the base field"):
        QuaternionAlgebra(K, (q2,))


@pytest.mark.parametrize(
    "primes",
    [[2.0], [2, 2.0], [2.0, 2], [Fraction(2)]],
    ids=["float", "int-then-float", "float-then-int", "Fraction"],
)
def test_quadratic_algebra_refuses_non_int_primes(primes):
    # Checked before duplicates merge, so [2, 2.0] cannot collapse to [2].
    with pytest.raises(ValueError, match="ramified prime must be an int"):
        quadratic_algebra(quad_field(33), primes)


@pytest.mark.parametrize(
    "field",
    [QuadField(6, 6), QuadField(33, 132), QuadField(5.0, 5), (33, 33), 33],
    ids=["non-fundamental", "wrong-disc", "float-radicand", "tuple", "int"],
)
def test_quadratic_algebra_refuses_a_non_field(field):
    with pytest.raises(ValueError, match="is not a real quadratic field"):
        quadratic_algebra(field, [5])


def test_quadratic_algebra_accepts_any_field_equal_to_the_interned_one():
    # A field the interning cache has dropped, or one built directly,
    # still names a valid field and is accepted.
    held = quad_field(33)
    _field.cache_clear()
    assert quad_field(33) is not held
    for field in (held, QuadField(33, 33)):
        assert quadratic_algebra(field, [2]) == quadratic_algebra(quad_field(33), [2])


def test_admissibility_report_refuses_non_records():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    (q11,) = primes_above(field, 11)
    spec = SubgroupSpec(SubgroupKind.BOREL, q11)
    with pytest.raises(ValueError, match="is not a QuaternionAlgebra"):
        admissibility_report(tuple(algebra), spec)
    with pytest.raises(ValueError, match="is not a SubgroupSpec"):
        admissibility_report(algebra, (SubgroupKind.BOREL, q11))


@pytest.mark.parametrize("kind", [SubgroupKind.BOREL, SubgroupKind.UNIPOTENT, SubgroupKind.PRINCIPAL])
def test_admissibility_refusal_messages(kind):
    # The report admits the level once, through its torsion verdict, with
    # the messages that level_invariance_ok gives.
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    expected = {
        primes_above(field, 2)[1]: (
            "the level prime lies over 2, which meets the ramification of the "
            "algebra; congruence subgroups need an unramified level"
        ),
        primes_above(quad_field(5), 11)[0]: (
            "level prime prime(11#0 in Q(sqrt(5))) does not live over the base field"
        ),
    }
    for q, message in expected.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            level_invariance_ok(algebra, q)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            admissibility_report(algebra, SubgroupSpec(kind, q))


def test_admissibility_golden_chain():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    (q11,) = primes_above(field, 11)
    report = admissibility_report(algebra, SubgroupSpec(SubgroupKind.BOREL, q11))
    assert report.index == 12
    assert report.euler == 24
    assert report.torsion.verdict is Verdict.FREE
    assert report.admissible_type == 24
    assert report.obstructions == ()
    assert (report.surface.pg, report.surface.c1sq) == (5, 48)


def test_admissibility_negative_controls():
    field17 = quad_field(17)
    a17 = quadratic_algebra(field17, [2])
    (q17,) = primes_above(field17, 17)
    report = admissibility_report(a17, SubgroupSpec(SubgroupKind.BOREL, q17))
    assert report.index == 18 and report.euler == 12
    assert (report.torsion.verdict, report.torsion.order) == (Verdict.TORSION, 2)
    assert report.obstructions == ("torsion of order 2",)
    assert report.admissible_type is None and report.surface is None

    field7 = quad_field(7)
    a7 = quadratic_algebra(field7, [3])
    (q2,) = primes_above(field7, 2)
    report = admissibility_report(a7, SubgroupSpec(SubgroupKind.PRINCIPAL, q2))
    assert report.index == 6 and report.euler == 32
    assert (report.torsion.verdict, report.torsion.order) == (Verdict.TORSION, 2)
    assert report.obstructions == ("torsion of order 2",)
    assert report.admissible_type is None


def test_admissibility_full_group_not_integral():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    report = admissibility_report(algebra, SubgroupSpec(SubgroupKind.FULL, None))
    assert report.index == 1 and report.euler == 2
    assert report.admissible_type is None  # 2 is not divisible by 4
    assert report.obstructions == (
        "torsion of order 2",
        "Euler number 2 is not a positive integer divisible by 4",
    )


def test_admissibility_rejects_level_meeting_ramification():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    q2, _ = primes_above(field, 2)
    with pytest.raises(ValueError, match="ramification"):
        admissibility_report(algebra, SubgroupSpec(SubgroupKind.BOREL, q2))


@given(st.sampled_from(PRIME_POWERS_1000), st.sampled_from(list(SubgroupKind)))
@settings(max_examples=100, deadline=None)
def test_index_divides_group_order(s, kind):
    # Every subgroup index divides |PSL_2(F_s)| = s(s^2 - 1)/gcd(s - 1, 2).
    order = s * (s * s - 1) // gcd(s - 1, 2)
    assert order % subgroup_index(kind, s) == 0
