"""Acceptance gate: eight criteria, one visible PASS/FAIL line each.

Each test prints its verdict line straight to the terminal (bypassing
capture) before asserting, so the per-criterion status is always shown.

Known red: criterion 2 requires the surviving candidate set to exceed the
reference classification by at most the single row (D=33, e=12, index 6).
The documented necessary conditions (integral index, torsion-order
divisibility) are satisfied by six extra rows, not one — see the module
docstring of shimsurf.search.  The extra rows all carry the honest
"necessary conditions only" flag; the subset bound itself does not hold
for this pipeline, and the test reports that rather than hiding it.
"""

import math
import time
from fractions import Fraction

from shimsurf.exact import primes_up_to
from shimsurf.geometry import (
    quotient_invariants,
    quotient_invariants_from_pg,
    quotient_table,
    shimura_curve_genus,
)
from shimsurf.polymod import pdivmod, pmonic, pmul, poly, poly_factor_mod_p
from shimsurf.quadfield import (
    Splitting,
    bernoulli2,
    fundamental_discriminants,
    primes_above,
    quad_field,
)
from shimsurf.quartic import choose_level_prime, quartic_new, quartic_splitting
from shimsurf.search import REFERENCE_ROWS, enumerate_candidates, run_pipeline
from shimsurf.shimura import (
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    quadratic_algebra,
    quartic_algebra,
    subgroup_index,
)
from shimsurf.torsion import Verdict, borel_torsion_verdict, cyclotomic_splitting

from float_reference import euler_number_general, zeta2_euler_product

BERNOULLI_TABLE = {
    137: Fraction(192), 113: Fraction(144), 109: Fraction(108), 105: Fraction(144),
    85: Fraction(72), 40: Fraction(28), 37: Fraction(20), 33: Fraction(24),
    29: Fraction(12), 28: Fraction(16), 24: Fraction(12), 17: Fraction(8),
    13: Fraction(4), 8: Fraction(2), 5: Fraction(4, 5),
}

# The intermediate solution table of the bounded search, with the two
# arithmetic-progression families over discriminants 17 and 13 expanded.
INTERMEDIATE_ROWS = [
    (137, 16, (2,), 1), (113, 12, (2,), 1), (109, 36, (3,), 1), (105, 12, (2,), 1),
    (85, 24, (3,), 1), (40, 28, (3,), 3), (37, 20, (3,), 3), (33, 24, (2,), 12),
    (29, 16, (5,), 1), (29, 32, (5,), 2), (29, 36, (7,), 1),
    (28, 16, (3,), 3), (28, 32, (3,), 6),
    (24, 16, (5,), 1), (24, 32, (5,), 2),
    *[(17, 12 + 4 * k, (2,), 18 + 6 * k) for k in range(7)],
    *[(13, 12 + 4 * k, (3,), 9 + 3 * k) for k in range(7)],
    (8, 12, (7,), 2), (8, 24, (7,), 4), (8, 36, (7,), 6),
    (5, 20, (11,), 3),
]

QUOTIENT_TABLE = {
    12: [(2, 7, 5, 0)],
    16: [(3, 6, 6, 0)],
    20: [(2, 15, 9, 1), (4, 5, 7, 0)],
    24: [(3, 14, 10, 1), (5, 4, 8, 0)],
    28: [(2, 23, 13, 2), (4, 13, 11, 1), (6, 3, 9, 0)],
    32: [(3, 22, 14, 2), (5, 12, 12, 1), (7, 2, 10, 0)],
    36: [(2, 31, 17, 3), (4, 21, 15, 2), (6, 11, 13, 1), (8, 1, 11, 0)],
}


def _emit(capsys, number, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, "; ".join(failures)


def test_criterion_1_bernoulli_table(capsys):
    start = time.perf_counter()
    failures = []
    for disc, expected in BERNOULLI_TABLE.items():
        got = bernoulli2(disc)
        if got != expected:
            failures.append(f"B({disc}) = {got} != {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s >= 1s")
    _emit(capsys, 1, "exact Bernoulli table", failures)


def test_criterion_2_search_pipeline(capsys):
    start = time.perf_counter()
    failures = []
    enumerated = {(r.D, r.e, r.ram_primes, r.index) for r in enumerate_candidates()}
    not_covered = [row for row in INTERMEDIATE_ROWS if row not in enumerated]
    if not_covered:
        failures.append(f"intermediate rows missing from enumeration: {not_covered}")
    rows, report = run_pipeline()
    matched, missing, extras = report.counts
    if matched != 14:
        failures.append(f"matched {matched} != 14")
    if missing != 0:
        failures.append(f"missing {missing} != 0")
    allowed_extra = {(12, 33, (2,), 6)}
    extra_keys = {r.key for r in report.extras}
    flagged = all("necessary conditions" in r.reason for r in report.extras)
    if not flagged:
        failures.append("extras lack the necessary-conditions flag")
    if not extra_keys <= allowed_extra:
        failures.append(
            f"extras beyond the single allowed row: {sorted(extra_keys - allowed_extra)}"
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s >= 10s")
    _emit(capsys, 2, "search pipeline vs reference", failures)


def test_criterion_3_admissible_chain_quadratic(capsys):
    failures = []
    field = quad_field(33)
    algebra = quadratic_algebra(field, [2])
    if admissibility_report(algebra, SubgroupSpec(SubgroupKind.FULL, None)).euler != 2:
        failures.append("e(full group) != 2")
    (q11,) = primes_above(field, 11)
    if q11.norm != 11 or subgroup_index(SubgroupKind.BOREL, q11.norm) != 12:
        failures.append("Borel index at norm 11 != 12")
    if cyclotomic_splitting(q11, 4) is not Splitting.INERT:
        failures.append("level prime not inert in the order-4 cyclotomic extension")
    if cyclotomic_splitting(q11, 3) is not Splitting.INERT:
        failures.append("level prime not inert in the order-3 cyclotomic extension")
    ram = primes_above(field, 2)
    verdict = borel_torsion_verdict(field, ram, q11)
    if verdict.verdict is not Verdict.FREE:
        failures.append(f"torsion verdict {verdict.verdict} != free")
    report = admissibility_report(algebra, SubgroupSpec(SubgroupKind.BOREL, q11))
    if report.euler != 24:
        failures.append(f"e = {report.euler} != 24")
    if report.admissible_type != 24:
        failures.append(f"admissible type {report.admissible_type} != 24")
    if report.surface is None or report.surface.pg != 5:
        failures.append("p_g(X) != 5")
    _emit(capsys, 3, "admissible chain over Q(sqrt 33)", failures)


def test_criterion_4_negative_controls(capsys):
    failures = []
    field17 = quad_field(17)
    a17 = quadratic_algebra(field17, [2])
    (q17,) = primes_above(field17, 17)
    if cyclotomic_splitting(q17, 4) is not Splitting.SPLIT:
        failures.append("level over 17 should split in the order-4 cyclotomic extension")
    if any(cyclotomic_splitting(q, 4) is Splitting.SPLIT for q in primes_above(field17, 2)):
        failures.append("ramified primes over 2 should be non-split in it")
    report = admissibility_report(a17, SubgroupSpec(SubgroupKind.BOREL, q17))
    if (report.torsion.verdict, report.torsion.order) != (Verdict.TORSION, 2):
        failures.append("no certified 2-torsion at Borel level 17")
    if report.index != 18 or report.euler != 12:
        failures.append(f"(index, e) = ({report.index}, {report.euler}) != (18, 12)")

    field7 = quad_field(7)
    a7 = quadratic_algebra(field7, [3])
    (q2,) = primes_above(field7, 2)
    report = admissibility_report(a7, SubgroupSpec(SubgroupKind.PRINCIPAL, q2))
    if (report.torsion.verdict, report.torsion.order) != (Verdict.TORSION, 2):
        failures.append("no certified 2-torsion at principal level 2")
    if report.index != 6 or report.euler != 32:
        failures.append(f"(index, e) = ({report.index}, {report.euler}) != (6, 32)")
    _emit(capsys, 4, "torsion negative controls", failures)


def test_criterion_5_admissible_chain_quartic(capsys):
    start = time.perf_counter()
    failures = []
    K = quartic_new((1, -1, -3, 1, 1), 5)
    if K.disc != 725:
        failures.append(f"disc {K.disc} != 725")
    if quartic_splitting(K, 29) != [(1, 2), (2, 1)]:
        failures.append(f"splitting at 29 = {quartic_splitting(K, 29)}")
    zeta2, zeta2_error = zeta2_euler_product(K, 10**5)
    estimate = euler_number_general(K.disc, 4, zeta2, [], 1, zeta2_error)
    if estimate.recognized != Fraction(1, 15):
        failures.append(f"e(full group) recognized as {estimate.recognized} != 1/15")
    if abs(estimate.value - 1 / 15) >= 1e-6:
        failures.append(f"float error {abs(estimate.value - 1 / 15):.2e} >= 1e-6")
    level = choose_level_prime(K, 29)
    index = subgroup_index(SubgroupKind.UNIPOTENT, level.norm)
    if index != 420:
        failures.append(f"unipotent index {index} != 420")
    exact_zeta2 = (2 * math.pi**2) ** 4 * float(K.zeta_minus1()) / K.disc**1.5
    if not zeta2 * (1 - 1e-12) <= exact_zeta2 <= (zeta2 + zeta2_error) * (1 + 1e-12):
        failures.append(
            f"zeta_K(2) = {zeta2} (error bound {zeta2_error}) does not enclose the exact {exact_zeta2}"
        )
    algebra = quartic_algebra(K)
    report = admissibility_report(algebra, SubgroupSpec(SubgroupKind.UNIPOTENT, level))
    if report.euler != 28:
        failures.append(f"e = {report.euler} != 28")
    if report.torsion.verdict is not Verdict.FREE:
        failures.append("torsion not certified free")
    if report.admissible_type != 28 or report.surface is None or report.surface.pg != 6:
        failures.append("admissible type/p_g not (28, 6)")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s >= 30s")
    _emit(capsys, 5, "admissible chain over the quartic field", failures)


def test_criterion_6_geometry_tables(capsys):
    failures = []
    for e, expected in QUOTIENT_TABLE.items():
        got = [(g, inv.Ksq, inv.c2, inv.pg) for g, inv in quotient_table(e)]
        if got != expected:
            failures.append(f"quotient_table({e}) = {got}")
        for _, inv in quotient_table(e):
            if inv.Ksq + inv.c2 != 12 * (1 + inv.pg):
                failures.append(f"Noether fails at e={e}")
    inv = quotient_invariants(24, 5)
    if (inv.Ksq, inv.c2, inv.pg) != (4, 8, 0):
        failures.append(f"quotient_invariants(24, 5) = {(inv.Ksq, inv.c2, inv.pg)}")
    for p in range(2, 9):
        if quotient_invariants_from_pg(p) != quotient_invariants(4 * (1 + p), p):
            failures.append(f"closed form disagrees at p_g = {p}")
    _emit(capsys, 6, "quotient invariant tables", failures)


def test_criterion_7_curve_genus(capsys):
    failures = []
    result = shimura_curve_genus((2, 5), 12)
    if result.genus != 5:
        failures.append(f"genus {result.genus} != 5")
    _emit(capsys, 7, "quotient curve genus", failures)


def test_criterion_8a_splitting_vs_residue_squares(capsys):
    failures = []
    norm_bound = 10**4
    for d in (33, 6):
        field = quad_field(d)
        for p in primes_up_to(norm_bound):
            if p == 2 or field.disc % p == 0:
                continue
            for q in primes_above(field, p):
                if q.norm > norm_bound:
                    continue
                for n, a in ((4, -1), (3, -3)):
                    if a % p == 0:
                        continue
                    got = cyclotomic_splitting(q, n)
                    if q.residue_degree == 1:
                        is_square = any(x * x % p == a % p for x in range(1, p))
                        expected = Splitting.SPLIT if is_square else Splitting.INERT
                    else:
                        expected = Splitting.SPLIT  # F_p* lands in the squares of F_{p^2}
                    if got is not expected:
                        failures.append(f"(d={d}, p={p}, n={n}): {got} != {expected}")
    _emit(capsys, "8a", "cyclotomic splitting vs residue squares", failures)


def test_criterion_8b_factorization_certificates(capsys):
    import random

    failures = []
    rng = random.Random(1729)
    for p in primes_up_to(31):
        for _ in range(8):
            degree = rng.randint(1, 5)
            f = poly(p, [rng.randrange(p) for _ in range(degree)] + [1])
            factors = poly_factor_mod_p(f)
            product = poly(p, [1])
            for h, mult in factors:
                for _ in range(mult):
                    product = pmul(product, h)
            if product != pmonic(f):
                failures.append(f"product reconstruction fails for {f} mod {p}")
            for h, _ in factors:
                for k in (1, 2):
                    if k >= h.degree:
                        continue
                    import itertools

                    for tail in itertools.product(range(p), repeat=k):
                        candidate = poly(p, list(tail) + [1])
                        if pdivmod(h, candidate)[1].coeffs == ():
                            failures.append(f"claimed irreducible {h} divisible by {candidate}")
    _emit(capsys, "8b", "factorization certificates p <= 31", failures)


def test_criterion_8c_volume_formula_degree_two(capsys):
    failures = []
    for d, p in ((13, 3), (17, 2), (33, 2)):
        field = quad_field(d)
        algebra = quadratic_algebra(field, [p])
        zeta2 = math.pi**4 * float(bernoulli2(field.disc)) / (6 * field.disc**1.5)
        for index in (1, 6, 12):
            exact = index * admissibility_report(algebra, SubgroupSpec(SubgroupKind.FULL, None)).euler
            estimate = euler_number_general(
                field.disc, 2, zeta2, [v.norm for v in algebra.ram[::2]], index, zeta2_error=1e-13
            )
            if estimate.recognized != exact:
                failures.append(f"(d={d}, index={index}): {estimate.recognized} != {exact}")
    _emit(capsys, "8c", "volume formula at degree two", failures)


def test_criterion_8d_bernoulli_closed_forms(capsys):
    failures = []
    count = 0
    for disc in fundamental_discriminants(5, 400):
        value = bernoulli2(disc)  # raises unless Siegel's identity s(2) = 9 s(1) holds
        count += 1
        if not value > 0:
            failures.append(f"B({disc}) = {value} not positive")
    if count < 100:
        failures.append(f"only {count} fundamental discriminants covered")
    _emit(capsys, "8d", "Bernoulli closed forms agree to 400", failures)


def test_criterion_8e_subgroup_index_identities(capsys):
    from shimsurf.exact import factorize

    failures = []
    for s in range(2, 1001):
        if len(factorize(s)) != 1:
            continue
        t = math.gcd(s - 1, 2)
        checks = (
            subgroup_index(SubgroupKind.FULL, s) == 1,
            subgroup_index(SubgroupKind.BOREL, s) == s + 1,
            subgroup_index(SubgroupKind.UNIPOTENT, s) == (s * s - 1) // t,
            subgroup_index(SubgroupKind.PRINCIPAL, s) == s * (s * s - 1) // t,
        )
        if not all(checks):
            failures.append(f"index identities fail at s = {s}")
    _emit(capsys, "8e", "subgroup index identities", failures)
