"""Quaternion algebras with involutions of second kind: subgroup indices,
and the admissibility report's checks, Euler numbers and verdicts."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf import geometry, torsion
from shimsurf.exact import factorize
from shimsurf.quadfield import (
    QuadField,
    QuadPrime,
    Splitting,
    _field,
    bernoulli2,
    field_from_disc,
    primes_above,
    quad_field,
    splitting_type,
)
from shimsurf.quartic import choose_level_prime, primes_above_quartic, quartic_new
from shimsurf.shimura import (
    AdmissibilityReport,
    Check,
    QuaternionAlgebra,
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    quadratic_algebra,
    quartic_algebra,
    subgroup_index,
)
from shimsurf.torsion import Verdict

from float_reference import euler_number_general
from sweep_digest import benchmark_inputs, sweep_digest

PRIME_POWERS_1000 = sorted(
    s for s in range(2, 1001) if len(factorize(s)) == 1
)


def _report(algebra, kind=SubgroupKind.FULL, level=None):
    return admissibility_report(algebra, SubgroupSpec(kind, level))


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
    assert _report(algebra).involution_ok.ok
    # An algebra without an involution of second kind is refused when
    # built.  The defective sets, each of an even number of places: half
    # of each of the split pairs over 2 and 17, and the fixed places over
    # the inert 5 and 7.  The least prime that is no pair is named.
    q2, _ = primes_above(field, 2)
    _, q17 = primes_above(field, 17)
    (q5,), (q7,) = primes_above(field, 5), primes_above(field, 7)
    half = "the ramification over {} is not conjugation-closed: only one of the two conjugate places is ramified"
    fixed = "the place over {} is fixed by conjugation ({} does not split in the base field), so it cannot be exchanged with a partner"
    for ram, message in (
        ((q17, q2), half.format(2)),
        ((q7, q5), fixed.format(5, 5)),
        ((q17, q5), fixed.format(5, 5)),
        ((q7, q2), half.format(2)),
    ):
        with pytest.raises(ValueError) as refused:
            QuaternionAlgebra(field, ram)
        assert str(refused.value) == message, ram


def _is_union_of_split_pairs(field, ram):
    """Whether ram is a non-empty union of the conjugate pairs over split
    primes, counted per rational prime."""
    count = Counter(r.p for r in ram)
    return bool(ram) and all(n == 2 and splitting_type(field, p) is Splitting.SPLIT for p, n in count.items())


def test_the_constructor_accepts_exactly_the_unions_of_conjugate_pairs():
    # Every set of at most four places over the primes below 20, in
    # Q(sqrt 33) (2 and 17 split) and Q(sqrt 2) (7 and 17 split).
    accepted = 0
    for d in (33, 2):
        field = quad_field(d)
        places = [q for p in (2, 3, 5, 7, 11, 13, 17, 19) for q in primes_above(field, p)]
        assert len(places) == 10
        for size in range(5):
            for ram in itertools.combinations(places, size):
                if _is_union_of_split_pairs(field, ram):
                    primes = sorted({r.p for r in ram})
                    assert QuaternionAlgebra(field, ram) == quadratic_algebra(field, primes), ram
                    accepted += 1
                else:
                    with pytest.raises(ValueError):
                        QuaternionAlgebra(field, ram)
    assert accepted == 6  # {2}, {17}, {2, 17} and {7}, {17}, {7, 17}


def test_quadratic_algebra_rejects_nonsplit_primes():
    with pytest.raises(ValueError, match="does not split"):
        quadratic_algebra(quad_field(33), [3])  # 3 ramifies in Q(sqrt 33)
    with pytest.raises(ValueError, match="does not split"):
        quadratic_algebra(quad_field(33), [7])  # 7 is inert


def test_invariant_order_quadratic_always_exists():
    for d, p in ((33, 2), (17, 2), (13, 3), (7, 3)):
        algebra = quadratic_algebra(quad_field(d), [p])
        assert _report(algebra).invariant_order_ok.ok


def test_invariant_order_exceptional_case_over_quartic():
    # disc(f) = 24336 = 156^2 is the square of the discriminant of
    # Q(sqrt39), so the field is unramified over it, and the algebra has
    # exactly two ramified places (both infinite): 2 mod 4, the exceptional
    # combination without an invariant maximal order.
    K = quartic_new((1, -2, -11, 12, -3), 39)
    assert K.disc == K.subfield.disc**2 == 156**2
    report = _report(quartic_algebra(K))
    assert report.involution_ok.ok
    check = report.invariant_order_ok
    assert not check.ok
    assert "2 mod 4" in check.reason


def test_invariant_order_generic_quartic_exists():
    K = quartic_new((1, -1, -3, 1, 1), 5)
    report = _report(quartic_algebra(K))
    assert report.involution_ok.ok
    assert report.invariant_order_ok.ok


def test_involution_quartic_is_proven():
    # The algebra is ramified at the two real places over one real place
    # of the subfield, so the involution follows from the construction,
    # over a field ramified over its subfield and over one unramified.
    for coeffs, d in (((1, -1, -3, 1, 1), 5), ((1, -2, -11, 12, -3), 39)):
        algebra = quartic_algebra(quartic_new(coeffs, d))
        assert algebra == (algebra.base, ())
        check = _report(algebra).involution_ok
        assert check.ok and check.reason.endswith("(Albert-Riehm-Scharlau)")


def test_level_invariance():
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    (q11,) = primes_above(field, 11)  # ramified: conjugation-stable
    assert _report(algebra, SubgroupKind.BOREL, q11).level_invariance_ok.ok
    (q7,) = primes_above(field, 7)  # inert: conjugation-stable
    assert _report(algebra, SubgroupKind.BOREL, q7).level_invariance_ok.ok
    q17, _ = primes_above(field, 17)  # split: swapped with its conjugate
    assert _report(algebra, SubgroupKind.BOREL, q17).level_invariance_ok == (
        False,
        "the level prime over 17 splits off from its conjugate, so the congruence subgroup "
        "is not preserved by the involution",
    )
    # The spec refuses a level that is no Place, and so does the report's
    # level rule, given a spec built without its check.
    with pytest.raises(ValueError, match="level prime 11 is not a Place"):
        _report(algebra, SubgroupKind.BOREL, 11)
    with pytest.raises(ValueError, match="level prime 11 is not a Place"):
        admissibility_report(algebra, SubgroupSpec._trusted((SubgroupKind.BOREL, 11)))
    with pytest.raises(ValueError, match="meets the ramification"):
        _report(algebra, SubgroupKind.BOREL, primes_above(field, 2)[0])


def test_fixed_check_texts_are_pinned():
    # The involution check per number of conjugate pairs and over a
    # quartic base, and the level check at an inert and at a ramified
    # place, word for word.
    field = quad_field(33)
    for primes, pairs in (([2], 1), ([2, 17], 2)):
        assert _report(quadratic_algebra(field, primes)).involution_ok.reason == (
            f"the finite ramification consists of {pairs} conjugate pair(s) of distinct places over "
            "rational primes split in the base field; the infinite-place condition is automatic "
            "over a real quadratic base"
        )
    assert _report(quartic_algebra(quartic_new((1, -1, -3, 1, 1), 5))).involution_ok.reason == (
        "no finite ramification, and the ramified infinite places are the two real places over "
        "one real place of the fixed field, which conjugation swaps, so the corestriction to the "
        "fixed field splits (Albert-Riehm-Scharlau)"
    )
    algebra = quadratic_algebra(field, [2])
    for p, splitting in ((7, "inert"), (11, "ramified")):
        (q,) = primes_above(field, p)
        assert _report(algebra, SubgroupKind.BOREL, q).level_invariance_ok.reason == (
            f"the level prime is {splitting} over the fixed field, hence equal to its conjugate"
        )


def test_quartic_level_invariance_is_decided_per_place():
    # Over the field of discriminant 725, 11 splits in Q(sqrt 5) and only
    # one of the two primes over it splits again: the two degree-one
    # places over 11 are swapped by conjugation, the degree-two place is
    # fixed, and its torsion-free subgroups are admissible.
    K = quartic_new((1, -1, -3, 1, 1), 5)
    algebra = quartic_algebra(K)
    swapped, _, fixed = primes_above_quartic(K, 11)
    assert not _report(algebra, SubgroupKind.BOREL, swapped).level_invariance_ok.ok
    assert _report(algebra, SubgroupKind.BOREL, fixed).level_invariance_ok.ok
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
        field = quad_field(d)
        algebra = quadratic_algebra(field, [p])
        report = _report(algebra)
        assert (report.index, report.euler) == (1, expected), (d, p)
        # linear in the index: every kind at levels over 2, 5 and 11
        indices = set()
        for q in (primes_above(field, ell)[0] for ell in (2, 5, 11) if ell != p):
            for kind in (SubgroupKind.BOREL, SubgroupKind.UNIPOTENT, SubgroupKind.PRINCIPAL):
                report = _report(algebra, kind, q)
                assert report.euler == report.index * expected, (d, p, kind, q)
                indices.add(report.index)
        assert len(indices) >= 4 and min(indices) > 1, (d, p)


def test_euler_number_has_one_factor_per_place():
    # index * B_2/12 * prod (N(v) - 1) with B_2 = 2 over Q(sqrt 2): a
    # conjugate pair over a split p gives (p - 1)^2, by the checked
    # constructor as by quadratic_algebra.
    field = quad_field(2)
    pair7, pair17 = primes_above(field, 7), primes_above(field, 17)
    assert _report(QuaternionAlgebra(field, tuple(pair7))).euler == 2 * 36 / Fraction(12) == 6
    assert _report(QuaternionAlgebra(field, (*pair7, *pair17))).euler == Fraction(2 * 36 * 256, 12)
    assert _report(quadratic_algebra(field, [7, 17])).euler == Fraction(2 * 36 * 256, 12)


def test_general_formula_consistent_with_quadratic_at_degree_two():
    # The volume formula at n = 2, fed the exact zeta value through the
    # Bernoulli bridge zeta_k(2) = pi^4 B / (6 d^(3/2)), must recognize
    # exactly the quadratic closed form.
    for d, p in ((13, 3), (17, 2), (33, 2)):
        field = quad_field(d)
        algebra = quadratic_algebra(field, [p])
        zeta2 = math.pi**4 * float(bernoulli2(field.disc)) / (6 * field.disc**1.5)
        for index in (1, 6):
            exact = index * _report(algebra).euler
            norms = [v.norm for v in algebra.ram[::2]]  # one per conjugate pair
            estimate = euler_number_general(field.disc, 2, zeta2, norms, index, zeta2_error=1e-13)
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
    # The ramification must be a union of conjugate pairs (so it is even,
    # as Hilbert reciprocity requires); checked after the refusals above.
    (q7,) = primes_above(field, 7)
    for ram in ((q7,), (q2, q2bar, q7)):
        with pytest.raises(ValueError, match=r"^the place over 7 is fixed by conjugation"):
            QuaternionAlgebra(field, ram)
    with pytest.raises(ValueError, match=r"^the ramification over 2 is not conjugation-closed"):
        QuaternionAlgebra(field, (q2bar,))
    with pytest.raises(ValueError, match="duplicate ramified place"):
        QuaternionAlgebra(field, (q2, q2, q7))
    with pytest.raises(ValueError, match="ramified place 2 is not a Place"):
        QuaternionAlgebra(field, (q7, 2, q2))
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


def test_quadratic_algebra_checks_primes_with_the_pair_kept():
    # The pair over 2 is built once and kept, keyed by ints: 2.0 and True,
    # equal to 2 and 1, are refused before the key is read, and the inert
    # 7 still does not split.
    field = quad_field(33)
    assert quadratic_algebra(field, [2]).ram[0] is quadratic_algebra(field, [2]).ram[0]
    for primes in ([2.0], [True]):
        with pytest.raises(ValueError, match="ramified prime must be an int"):
            quadratic_algebra(field, primes)
    with pytest.raises(ValueError, match="7 does not split"):
        quadratic_algebra(field, [7])


@pytest.mark.parametrize(
    "make_field",
    [lambda: QuadField(6, 6), lambda: QuadField(33, 132), lambda: QuadField(5.0, 5), lambda: (33, 33), lambda: 33],
    ids=["non-fundamental", "wrong-disc", "float-radicand", "tuple", "int"],
)
def test_quadratic_algebra_refuses_a_non_field(make_field):
    # A bad QuadField refuses itself when built; anything else that is no
    # QuadField, the algebra refuses.
    with pytest.raises(ValueError, match="is not a real quadratic field"):
        quadratic_algebra(make_field(), [5])


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
    # The report admits the level once, by the level rule, with these
    # messages.
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


# The Python-level calls that the report path leaves out, each with the
# class or module attribute that holds it and a call that makes it.
_HOPS = {
    "Check.__bool__": (Check, "__bool__", lambda: bool(Check(True, ""))),
    "QuadPrime.residue_degree": (
        QuadPrime, "residue_degree", lambda: primes_above(quad_field(33), 7)[0].residue_degree
    ),
    "Splitting.__hash__": (Splitting, "__hash__", lambda: hash(Splitting.INERT)),
    "Fraction.numerator": (Fraction, "numerator", lambda: Fraction(1, 2).numerator),
    "Fraction.denominator": (Fraction, "denominator", lambda: Fraction(1, 2).denominator),
    "shimura_surface_invariants": (
        geometry, "shimura_surface_invariants", lambda: geometry.shimura_surface_invariants(4)
    ),
    # The report gives SurfaceInvariants every field, so the record takes
    # the constructor's direct route and never the NamedTuple's __new__.
    "SurfaceInvariants NamedTuple __new__": (
        geometry._SurfaceInvariantsFields, "__new__", lambda: geometry.SurfaceInvariants(4, 8, 1, 0)
    ),
    "QuadField.bernoulli2": (QuadField, "bernoulli2", lambda: quad_field(33).bernoulli2()),
    "QuadField.subfield_radicands": (QuadField, "subfield_radicands", lambda: quad_field(33).subfield_radicands),
    "AdmissibilityReport._make": (AdmissibilityReport, "_make", lambda: AdmissibilityReport._make(range(11))),
    "AdmissibilityReport.__new__": (AdmissibilityReport, "__new__", lambda: AdmissibilityReport(*range(11))),
}


def _hop_cases():
    """The first 1,000 valid seed-1 sweep queries, as (algebra, spec)."""
    valid = (q for q in benchmark_inputs().sweep_queries(1) if q.valid)
    cases = []
    for query in itertools.islice(valid, 1000):
        A = quadratic_algebra(field_from_disc(query.disc), query.ram)
        level = None if query.level is None else primes_above(A.base, query.level)[0]
        cases.append((A, SubgroupSpec(SubgroupKind(query.kind), level)))
    return cases


def test_the_report_takes_no_python_level_hop(monkeypatch):
    cases = _hop_cases()  # built outside the count
    counts = Counter()
    for name, (cls, attr, _) in _HOPS.items():
        held = getattr(cls, attr)

        def counted(*args, _name=name, _fn=getattr(held, "fget", held)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cls, attr, property(counted) if isinstance(held, property) else counted)
    reports = [admissibility_report(A, spec) for A, spec in cases]
    assert counts == Counter()
    for _, _, call in _HOPS.values():
        call()  # each counter sees its call
    monkeypatch.undo()
    assert counts == Counter(dict.fromkeys(_HOPS, 1))

    # A verdict whose text names no query value is one object.
    seen = {}
    for report in reports:
        if report.spec.kind in (SubgroupKind.FULL, SubgroupKind.BOREL):
            assert seen.setdefault(report.torsion, report.torsion) is report.torsion, report.spec
    assert {v.verdict for v in seen} == {Verdict.FREE, Verdict.TORSION}
    assert len(seen) < sum(r.spec.kind in (SubgroupKind.FULL, SubgroupKind.BOREL) for r in reports)

    # One whose text names only the level's rational prime p, or only the
    # torsion order m, is one object per int: rule A's FREE verdict, the
    # split-off level check and the torsion obstruction.
    first, uses = {}, Counter()
    for report in reports:
        named = []
        if report.torsion.reason.startswith("prime-order torsion at level q would have order"):
            named.append(("rule A", report.spec.level.p, report.torsion))
        if not report.level_invariance_ok.ok:
            named.append(("split off", report.spec.level.p, report.level_invariance_ok))
        named += [("torsion", report.torsion.order, t) for t in report.obstructions if t.startswith("torsion of")]
        for what, key, obj in named:
            assert first.setdefault((what, key), obj) is obj, (what, key)
            uses[what] += 1
    for what in ("rule A", "split off", "torsion"):
        assert len([k for k in first if k[0] == what]) < uses[what], what


def test_the_report_reads_a_ramified_place_by_its_prime(monkeypatch):
    # Every ramified place lies over a split prime p, so the embedding test
    # and the Euler number read its p: no norm read and no splitting call
    # on a place of the report's algebra.ram.  A level place may read both.
    cases = _hop_cases()
    ram = ()
    counts = Counter()
    norm, splitting = QuadPrime.norm.fget, torsion._splitting

    def counted_norm(q):
        counts["norm", q in ram] += 1
        return norm(q)

    def counted_splitting(q, n):
        counts["_splitting", q in ram] += 1
        return splitting(q, n)

    monkeypatch.setattr(QuadPrime, "norm", property(counted_norm))
    monkeypatch.setattr(torsion, "_splitting", counted_splitting)
    for A, spec in cases:
        ram = A.ram
        admissibility_report(A, spec)
    monkeypatch.undo()
    assert (counts["norm", True], counts["_splitting", True]) == (0, 0)
    assert counts["norm", False] > 0 and counts["_splitting", False] > 0  # the counters were live


def test_the_first_sweep_outputs_are_pinned():
    # SHA-256 over every output of the first 20,000 seed-1 surface-sweep
    # queries, as plain values (see sweep_digest.py); it moves only with
    # an output, never with a record's field names or layout.
    assert sweep_digest() == "2648a21b7663d2da947072080a7c65b12a49f63a6670d48acb995d801565722a"
