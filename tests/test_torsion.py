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

from shimsurf.exact import is_squarefree, kronecker, primes_up_to
from shimsurf.quadfield import (
    QuadField,
    Splitting,
    field_from_disc,
    fundamental_discriminant,
    fundamental_discriminants,
    primes_above,
    quad_field,
    splitting_type,
)
from shimsurf.quartic import choose_level_prime, primes_above_quartic, quartic_new
from shimsurf.shimura import QuaternionAlgebra, quadratic_algebra
from shimsurf.torsion import (
    Undecidable,
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


def test_a_ramified_place_splits_exactly_when_p_is_1_mod_n():
    # A ramified place lies over a split p, with completion Q_p, whose roots
    # of unity have order dividing p - 1 (or 2 at p = 2): the p-rule of
    # _embeds equals the place rule of cyclotomic_splitting at both places.
    cases = 0
    for disc in fundamental_discriminants(5, 400):
        field = field_from_disc(disc)
        candidates = possible_torsion_orders(field)
        for p in primes_up_to(199):
            if splitting_type(field, p) is not Splitting.SPLIT:
                continue
            ram = primes_above(field, p)
            by_place = {
                c.m for c in candidates if all(cyclotomic_splitting(v, c.n) is not Splitting.SPLIT for v in ram)
            }
            by_prime = {c.m for c in candidates if p % c.n != 1}
            assert gamma1_torsion_orders(field, ram) == by_place == by_prime, (disc, p)
            cases += 1
    assert cases > 2000


def test_possible_orders_generic_and_special_radicands():
    # Orders 2 and 3 are candidates over every real quadratic field; the
    # radicands 2, 3, 5 admit extra real-cyclotomic subfields.
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(33))] == [(2, 4), (3, 3)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(2))] == [(2, 4), (3, 3), (4, 8)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(3))] == [(2, 4), (3, 3), (6, 12)]
    assert [(c.m, c.n) for c in possible_torsion_orders(quad_field(5))] == [(2, 4), (3, 3), (5, 5)]
    # A quartic field takes them from every quadratic subfield its
    # resolvent cubic certifies, whichever one is declared: Q(sqrt 2,
    # sqrt 3) contains sqrt 2 and sqrt 3, the field of discriminant 725
    # only sqrt 5.
    for sub in (2, 3, 6):
        K = quartic_new((1, -4, 2, 4, -2), sub)
        assert K.subfield_radicands == (2, 3, 6)
        assert [(c.m, c.n) for c in possible_torsion_orders(K)] == [(2, 4), (3, 3), (4, 8), (6, 12)]
    K = quartic_new((1, -1, -3, 1, 1), 5)
    assert [(c.m, c.n) for c in possible_torsion_orders(K)] == [(2, 4), (3, 3), (5, 5)]


def test_candidates_are_kept_per_radicands_not_per_record():
    # QuadField(5, 5) equals the plain tuple (5, 5) and hashes alike, so a
    # cache keyed on the record would answer the tuple with its entry.
    assert possible_torsion_orders(QuadField(5, 5))[-1] == (5, 5)
    with pytest.raises(AttributeError):
        possible_torsion_orders((5, 5))


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


def _reference_kronecker_triple(field, p, m):
    # Q(sqrt d, sqrt m) has the quadratic subfields of discriminants
    # D1 = disc(field), D2 = disc(Q(sqrt m)), D3 = disc(Q(sqrt(d m))); the
    # symbols (Di|p) fix the inertia and decomposition groups over p.
    symbol = {1: Splitting.SPLIT, -1: Splitting.INERT, 0: Splitting.RAMIFIED}
    c1 = kronecker(field.disc, p)
    c2 = kronecker(fundamental_discriminant(m), p)
    c3 = kronecker(fundamental_discriminant(field.d * m), p)
    zeros = (c1 == 0) + (c2 == 0) + (c3 == 0)
    if zeros == 0:
        assert c1 * c2 * c3 == 1
        return Splitting.SPLIT if c1 == -1 else symbol[c2]
    assert zeros != 1
    if zeros == 3 or c1 != 0:
        return Splitting.RAMIFIED
    return symbol[c2 if c2 != 0 else c3]


def _reference_real_cyclotomic(q, n):
    # base(zeta_n) is all of Q(zeta_n) over its maximal real subfield, so
    # the relative e and f are those of p in Q(zeta_n) divided by those of q.
    p, a, rest = q.p, 0, n
    while rest % p == 0:
        a, rest = a + 1, rest // p
    e_top = p**a - p ** (a - 1) if a else 1
    f_top = next(k for k in range(1, rest + 1) if pow(p, k, rest) == 1 % rest)
    e_rel, f_rel = e_top // q.ramification_index, f_top // q.residue_degree
    assert e_rel * q.ramification_index == e_top and f_rel * q.residue_degree == f_top
    assert e_rel * f_rel in (1, 2)
    if e_rel == 2:
        return Splitting.RAMIFIED
    return Splitting.INERT if f_rel == 2 else Splitting.SPLIT


def test_cyclotomic_splitting_matches_the_quadratic_reference_criteria():
    # The Frobenius rule and the rule at q dividing n agree with the
    # Kronecker-triple criterion (n = 3, 4) and the real-cyclotomic one
    # (n = 5, 8, 12 over radicand 5, 2, 3) at every place over p < 300,
    # for every candidate n of every squarefree radicand below 400.
    pairs = 0
    primes = primes_up_to(299)
    for d in range(2, 400):
        if not is_squarefree(d):
            continue
        field = quad_field(d)
        for cand in possible_torsion_orders(field):
            n = cand.n
            for p in primes:
                for q in primes_above(field, p):
                    if n in (3, 4):
                        expected = _reference_kronecker_triple(field, p, -3 if n == 3 else -1)
                    else:
                        expected = _reference_real_cyclotomic(q, n)
                    assert cyclotomic_splitting(q, n) is expected, (d, p, q.tag, n)
                    pairs += 1
    assert pairs == 44277


def test_cyclotomic_splitting_raises_where_no_rule_applies():
    with pytest.raises(Undecidable):
        cyclotomic_splitting(primes_above(quad_field(33), 7)[0], 5)  # not a candidate
    K = quartic_new((1, -1, -3, 1, 1), 5)
    with pytest.raises(Undecidable):
        cyclotomic_splitting(choose_level_prime(K, 5), 5)  # q | n on a quartic base
    assert cyclotomic_splitting(choose_level_prime(K, 11), 5) is Splitting.SPLIT


def test_cyclotomic_splitting_refuses_bad_input():
    # A rational prime is no place, and an order n that is a float or a
    # bool is no int, though 4.0 == 4 and True == 1.
    (q11,) = primes_above(quad_field(33), 11)
    with pytest.raises(ValueError, match="prime 7 is not a Place"):
        cyclotomic_splitting(7, 4)
    for n in (4.0, True):
        with pytest.raises(ValueError, match=rf"order n must be an int, got {n!r}"):
            cyclotomic_splitting(q11, n)


def test_verdicts_do_not_depend_on_the_declared_subfield():
    # Q(sqrt 2, sqrt 3) declared through any of its three quadratic
    # subfields is one field, so it gets one verdict at every level.
    fields = [quartic_new((1, -4, 2, 4, -2), sub) for sub in (2, 3, 6)]
    for p in primes_up_to(59):
        places = [primes_above_quartic(K, p) for K in fields]
        for i in range(len(places[0])):
            verdicts = {
                (borel_torsion_verdict(K, (), qs[i]), principal_torsion_verdict(K, (), qs[i]))
                for K, qs in zip(fields, places)
            }
            assert len(verdicts) == 1, (p, verdicts)
    for K in fields:
        assert borel_torsion_verdict(K, (), choose_level_prime(K, 23)).verdict is Verdict.FREE


def test_borel_free_at_11_over_radicand_33():
    field, ram = _field_and_ram(33, 2)
    (q11,) = primes_above(field, 11)
    verdict = borel_torsion_verdict(field, ram, q11)
    assert verdict.verdict is Verdict.FREE
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


_SPLITS = "its cyclotomic extension embeds and the level prime splits in it"
_REALIZED = f"{_SPLITS}, which realizes the torsion inside the principal subgroup"


@pytest.mark.parametrize(
    "verdict, d, ram_p, level_p, expected",
    [
        pytest.param(
            full_torsion_verdict, 5, 11, None,
            (Verdict.TORSION, 2, "cyclotomic extension for order 2 embeds in the algebra"),
            id="full-torsion",
        ),
        pytest.param(
            full_torsion_verdict, 3, 13, None,
            (Verdict.FREE, None, "no candidate cyclotomic extension embeds"),
            id="full-free",
        ),
        pytest.param(
            borel_torsion_verdict, 5, 11, 3, (Verdict.TORSION, 2, f"order 2: {_SPLITS}"), id="borel-torsion"
        ),
        pytest.param(
            borel_torsion_verdict, 5, 11, 59,
            (Verdict.FREE, None, "no embedding cyclotomic extension has the level prime split in it"),
            id="borel-free",
        ),
        pytest.param(
            principal_torsion_verdict, 5, 11, 7,
            (
                Verdict.FREE,
                None,
                "prime-order torsion at level q would have order 7, which is not available over this base field",
            ),
            id="principal-rule-a",
        ),
        pytest.param(
            principal_torsion_verdict, 5, 29, 2,
            (Verdict.FREE, None, "order-2 torsion is already absent from the full unit group"),
            id="principal-rule-b",
        ),
        pytest.param(
            principal_torsion_verdict, 7, 3, 2, (Verdict.TORSION, 2, f"order 2: {_REALIZED}"), id="principal-torsion-2"
        ),
        pytest.param(
            principal_torsion_verdict, 6, 5, 3, (Verdict.TORSION, 3, f"order 3: {_REALIZED}"), id="principal-torsion-3"
        ),
        pytest.param(
            principal_torsion_verdict, 5, 19, 2,
            (Verdict.FREE, None, "contained in the torsion-free upper-triangular subgroup at the same level"),
            id="principal-borel-free",
        ),
        pytest.param(
            principal_torsion_verdict, 5, 11, 2,
            (Verdict.UNKNOWN, None, "no implemented criterion settles this level"),
            id="principal-unknown",
        ),
        pytest.param(
            unipotent_torsion_verdict, 6, 5, 3,
            (
                Verdict.TORSION,
                3,
                f"inherited from the principal congruence subgroup it contains: order 3: {_REALIZED}",
            ),
            id="unipotent-inherited",
        ),
    ],
)
def test_every_verdict_exit_is_pinned(verdict, d, ram_p, level_p, expected):
    # The CLI prints every reason, so each exit of each verdict is pinned
    # whole: verdict, order and reason.
    field, ram = _field_and_ram(d, ram_p)
    args = (field, ram) if level_p is None else (field, ram, primes_above(field, level_p)[0])
    assert tuple(verdict(*args)) == expected


def test_borel_unknown_exit_is_pinned():
    # The one place over 2 on the field of discriminant 2048 divides both
    # n = 4 and n = 8, and no rule covers q | n on a quartic base.
    K = quartic_new((1, -4, -2, 4, -1), 2)
    (q,) = primes_above_quartic(K, 2)
    assert tuple(borel_torsion_verdict(K, (), q)) == (
        Verdict.UNKNOWN,
        None,
        "no criterion for zeta_4 over a quartic field at p=2; no criterion for zeta_8 over a quartic field at p=2",
    )


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
    # The ramification is checked first, as the algebra checks it; over the
    # admitted empty ramification, a level that is no Place is refused.
    for verdict in (borel_torsion_verdict, unipotent_torsion_verdict, principal_torsion_verdict):
        with pytest.raises(ValueError, match="level prime 7 is not a Place"):
            verdict(K, (), 7)


# Ramification that no algebra has, and the algebra's refusal of it.
_NO_ALGEBRA = {
    "inert-7": "the place over 7 is fixed by conjugation (7 does not split in the base field), "
               "so it cannot be exchanged with a partner",
    "half-pair-2": "the ramification over 2 is not conjugation-closed: only one of the two "
                   "conjugate places is ramified",
    "pair-2-twice": "duplicate ramified place",
    "empty-quadratic": "a surface algebra over a quadratic field must ramify somewhere finite, "
                       "otherwise it is a matrix algebra and the quotient is non-compact",
    "quartic-finite": "quartic base algebras are supported only with empty finite ramification",
}


def _no_algebra_has(case):
    """(field, ram, level) for one kind of ramification that no algebra
    has, with a level that the level rule admits."""
    K33 = quad_field(33)
    q2, q2bar = primes_above(K33, 2)
    if case == "quartic-finite":
        K = quartic_new((1, -1, -3, 1, 1), 5)
        return K, primes_above_quartic(K, 11)[:1], choose_level_prime(K, 29)
    ram = {
        "inert-7": primes_above(K33, 7),
        "half-pair-2": [q2],
        "pair-2-twice": [q2, q2bar, q2, q2bar],
        "empty-quadratic": (),
    }[case]
    return K33, ram, primes_above(K33, 17)[0]


@pytest.mark.parametrize("case", list(_NO_ALGEBRA))
@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda field, ram, q: QuaternionAlgebra(field, tuple(ram)), id="QuaternionAlgebra"),
        pytest.param(lambda field, ram, q: gamma1_torsion_orders(field, ram), id="gamma1_torsion_orders"),
        pytest.param(lambda field, ram, q: full_torsion_verdict(field, ram), id="full_torsion_verdict"),
        pytest.param(borel_torsion_verdict, id="borel_torsion_verdict"),
        pytest.param(unipotent_torsion_verdict, id="unipotent_torsion_verdict"),
        pytest.param(principal_torsion_verdict, id="principal_torsion_verdict"),
    ],
)
def test_every_entry_point_refuses_ramification_no_algebra_has(entry, case):
    # One ramification rule: the public torsion functions answer only for
    # algebras that exist, and refuse the rest as the algebra does.
    with pytest.raises(ValueError) as refused:
        entry(*_no_algebra_has(case))
    assert str(refused.value) == _NO_ALGEBRA[case]


def test_every_public_verdict_refuses_a_base_that_is_no_field():
    # The tuple (33, 33) equals Q(sqrt 33) by value, so the places of an
    # algebra over that field pass the place test; the base's type decides.
    K33 = quad_field(33)
    ram = quadratic_algebra(K33, [2]).ram
    q = primes_above(K33, 17)[0]
    calls = [
        lambda: gamma1_torsion_orders((33, 33), ram),
        lambda: full_torsion_verdict((33, 33), ram),
        lambda: borel_torsion_verdict((33, 33), ram, q),
        lambda: unipotent_torsion_verdict((33, 33), ram, q),
        lambda: principal_torsion_verdict((33, 33), ram, q),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"base \(33, 33\) is not a Field"):
            call()


def test_verdicts_refuse_places_over_another_field():
    # Places over Q(sqrt 13) handed with the base Q(sqrt 5): the candidate
    # n = 5 of Q(sqrt 5) is no candidate of Q(sqrt 13), so an unchecked
    # cascade would raise Undecidable or decide for the wrong field.
    K5, K13 = quad_field(5), quad_field(13)
    over3 = primes_above(K13, 3)
    with pytest.raises(ValueError, match=r"ramified place prime\(3#0 in Q\(sqrt\(13\)\)\) does not live over"):
        full_torsion_verdict(K5, over3)
    with pytest.raises(ValueError, match="ramified place .* does not live over the base field"):
        borel_torsion_verdict(K5, over3, primes_above(K5, 11)[0])
    with pytest.raises(ValueError, match=r"level prime prime\(3#0 in Q\(sqrt\(13\)\)\) does not live over"):
        principal_torsion_verdict(K5, primes_above(K5, 11), over3[0])
    # A rational prime where a place belongs is refused, not read as one.
    with pytest.raises(ValueError, match="ramified place 11 is not a Place"):
        full_torsion_verdict(K13, [11])
    with pytest.raises(ValueError, match="level prime 11 is not a Place"):
        borel_torsion_verdict(K13, over3, 11)
    # A level over a rational prime under the ramification is no level of
    # a congruence subgroup: each level verdict refuses it.
    K33 = quad_field(33)
    algebra = quadratic_algebra(K33, [2])
    q2 = primes_above(K33, 2)[0]
    for verdict in (borel_torsion_verdict, unipotent_torsion_verdict, principal_torsion_verdict):
        with pytest.raises(ValueError, match="meets the ramification"):
            verdict(K33, algebra.ram, q2)
