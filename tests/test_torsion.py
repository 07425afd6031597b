"""Certified torsion decisions for congruence subgroups.

The oracle values here were fixed independently: the cyclotomic splitting
verdicts reduce to quadratic-residue facts in small residue fields (cross
checked by brute force in test_brute_force_residue_squares), and the
headline verdicts are anchored to the algebra over Q(sqrt(33)) ramified
over 2 (free at the Borel level over 11) and its two sanity controls
(2-torsion at level 17 over Q(sqrt(17)), and 2-torsion in the principal
subgroup at the prime over 2 for Q(sqrt(7)) ramified over 3).
"""

import pytest

from shimsurf.exact import primes_up_to
from shimsurf.quadfield import (
    Splitting,
    field_from_disc,
    fundamental_discriminants,
    primes_above,
    quad_field,
    splitting_type,
)
from shimsurf.quartic import choose_level_prime, primes_above_quartic, quartic_new
from shimsurf.torsion import (
    Verdict,
    borel_torsion_verdict,
    cyclotomic_splitting,
    full_torsion_verdict,
    gamma1_torsion_orders,
    possible_torsion_orders,
    principal_torsion_verdict,
    unipotent_torsion_verdict,
)


def _field_and_ram(d, ram_p):
    field = quad_field(d)
    return field, primes_above(field, ram_p)


def test_possible_orders_generic_and_special_radicands():
    # Orders 2 and 3 are candidates over every real quadratic field; the
    # radicands 2, 3, 5 admit extra real-cyclotomic subfields.
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(33))] == [(2, 4), (3, 3)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(2))] == [(2, 4), (3, 3), (4, 8)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(3))] == [(2, 4), (3, 3), (6, 12)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(5))] == [(2, 4), (3, 3), (5, 5)]
    assert all(c.decided for c in possible_torsion_orders(quad_field(33)))


def test_gamma1_orders_frozen():
    cases = {
        (33, 2): [2, 3],
        (17, 2): [2, 3],
        (7, 3): [2, 3],
        (13, 3): [2, 3],
        (2, 7): [2, 4],
        (6, 5): [3],
        (5, 11): [2, 3],
    }
    for (d, p), expected in cases.items():
        field, ram = _field_and_ram(d, p)
        assert sorted(gamma1_torsion_orders(field, ram)) == expected, (d, p)


def test_cyclotomic_splitting_at_the_free_level():
    field = quad_field(33)
    (q11,) = primes_above(field, 11)
    assert cyclotomic_splitting(q11, 4) is Splitting.INERT
    assert cyclotomic_splitting(q11, 3) is Splitting.INERT


def test_cyclotomic_splitting_brute_force_squares():
    # For a prime q over an odd p with p not dividing the discriminant of
    # the cyclotomic quadratic (so the local extension is unramified), the
    # subextension generated by zeta_4 (resp. zeta_3) splits at q exactly
    # when -1 (resp. -3) is a square in the residue field of q.  Degree-one
    # primes reduce to squares mod p; over an inert prime the residue
    # field is F_{p^2}, where every element of F_p^* is a square.
    for d in (6, 7, 33, 17):
        field = quad_field(d)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for q in primes_above(field, p):
                squares = {x * x % p for x in range(1, p)}
                for n, a in ((4, -1), (3, -3)):
                    if a % p == 0:
                        continue  # wildly local; no residue-square oracle
                    got = cyclotomic_splitting(q, n)
                    if q.residue_degree == 1:
                        expected = Splitting.SPLIT if a % p in squares else Splitting.INERT
                    else:
                        expected = Splitting.SPLIT
                    assert got is expected, (d, p, n)


def test_borel_free_at_11_over_radicand_33():
    field, ram = _field_and_ram(33, 2)
    (q11,) = primes_above(field, 11)
    verdict = borel_torsion_verdict(field, ram, q11)
    assert verdict.verdict is Verdict.FREE and verdict.is_free
    assert verdict.order is None


def test_controls_certify_two_torsion():
    field17, ram17 = _field_and_ram(17, 2)
    (q17,) = primes_above(field17, 17)
    v = borel_torsion_verdict(field17, ram17, q17)
    assert (v.verdict, v.order) == (Verdict.TORSION, 2)

    field7, ram7 = _field_and_ram(7, 3)
    (q2,) = primes_above(field7, 2)
    v = principal_torsion_verdict(field7, ram7, q2)
    assert (v.verdict, v.order) == (Verdict.TORSION, 2)
    # The unipotent subgroup contains the principal one, so it inherits.
    v = unipotent_torsion_verdict(field7, ram7, q2)
    assert (v.verdict, v.order) == (Verdict.TORSION, 2)


def test_full_group_torsion():
    field33, ram33 = _field_and_ram(33, 2)
    v = full_torsion_verdict(field33, ram33)
    assert (v.verdict, v.order) == (Verdict.TORSION, 2)
    field17, ram17 = _field_and_ram(17, 2)
    v = full_torsion_verdict(field17, ram17)
    assert (v.verdict, v.order) == (Verdict.TORSION, 2)


def test_borel_kills_orders_not_dividing_index():
    # Over Q(sqrt(6)) ramified over 5 the only certified order is 3; a
    # level prime splitting in the order-3 cyclotomic extension keeps it.
    field, ram = _field_and_ram(6, 5)
    for p in (7, 11, 13):
        for q in primes_above(field, p):
            v = borel_torsion_verdict(field, ram, q)
            if v.verdict is Verdict.TORSION:
                assert v.order == 3
            else:
                assert v.verdict is Verdict.FREE


def test_verdicts_respect_subgroup_containment():
    # principal inside unipotent inside Borel inside full: freeness passes
    # down the chain and torsion passes up it, on every decided verdict.
    chains = 0
    for D in fundamental_discriminants(5, 200):
        field = field_from_disc(D)
        split = [p for p in primes_up_to(29) if splitting_type(field, p) is Splitting.SPLIT]
        for ram_p in split[:2]:
            ram = primes_above(field, ram_p)
            for level_p in primes_up_to(39):
                if level_p == ram_p:
                    continue
                q = primes_above(field, level_p)[0]
                chain = [
                    full_torsion_verdict(field, ram),
                    borel_torsion_verdict(field, ram, q),
                    unipotent_torsion_verdict(field, ram, q),
                    principal_torsion_verdict(field, ram, q),
                ]
                for i, larger in enumerate(chain):
                    for smaller in chain[i + 1 :]:
                        if larger.verdict is Verdict.FREE:
                            assert smaller.verdict is Verdict.FREE, (D, ram_p, level_p)
                        if smaller.verdict is Verdict.TORSION:
                            assert larger.verdict is Verdict.TORSION, (D, ram_p, level_p)
                chains += 1
    assert chains == 1320


def test_verdicts_expose_reasons():
    field, ram = _field_and_ram(33, 2)
    (q11,) = primes_above(field, 11)
    for verdict in (
        full_torsion_verdict(field, ram),
        borel_torsion_verdict(field, ram, q11),
        principal_torsion_verdict(field, ram, q11),
        unipotent_torsion_verdict(field, ram, q11),
    ):
        assert isinstance(verdict.reason, str) and verdict.reason


def test_quartic_base_with_finite_ramification_is_refused():
    # No algebra over a quartic base ramifies at a finite place, so every
    # entry point refuses one, with the algebra layer's message.
    K = quartic_new((1, -1, -3, 1, 1), 5)
    ram = primes_above_quartic(K, 11)[:1]
    q = choose_level_prime(K, 29)
    calls = [
        lambda: gamma1_torsion_orders(K, ram),
        lambda: full_torsion_verdict(K, ram),
        lambda: borel_torsion_verdict(K, ram, q),
        lambda: unipotent_torsion_verdict(K, ram, q),
        lambda: principal_torsion_verdict(K, ram, q),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="empty finite ramification"):
            call()
    assert sorted(gamma1_torsion_orders(K, ())) == [2, 3, 5]
