"""Command-line frontend: golden invocations, exit codes, output formats.

Every invocation runs in-process through ``run(argv)``; stdout/stderr are
captured with capsys.  The golden set pins exit codes for well-formed and
malformed calls, the headline report lines, CSV round-tripping, and the
agreement of numeric facts between text and CSV modes.  A few checks run
commands in a fresh interpreter, to see which modules they load.
"""

import ast
import contextlib
import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimsurf.cli import run
from shimsurf.exact import primes_up_to


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bernoulli


def test_bernoulli_integer(capsys):
    code, out, _ = invoke(capsys, "bernoulli", "--d", "6")
    assert code == 0 and out == "12\n"


def test_bernoulli_fractional(capsys):
    code, out, _ = invoke(capsys, "bernoulli", "--d", "5")
    assert code == 0 and out == "4/5\n"


def test_bernoulli_large_radicand_quickly(capsys):
    # B_2 of Q(sqrt 1000003), disc 4000012: Cohen's closed sum takes
    # about 4000 integer divisor sums where the character sum needs 4
    # million Kronecker symbols; both give this value.
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "bernoulli", "--d", "1000003")
    elapsed = time.perf_counter() - start
    assert code == 0 and out == "906137484\n"
    assert elapsed < 2.0, f"took {elapsed:.2f}s >= 2s"


def test_bernoulli_rejects_non_squarefree(capsys):
    code, out, err = invoke(capsys, "bernoulli", "--d", "12")
    assert code == 2 and out == "" and "squarefree" in err


_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

_LOADS_QUARTIC_LAYERS = """
import contextlib, io, sys
from shimsurf.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(code, *(f"shimsurf.{m}" in sys.modules for m in ("quartic", "polymod", "siegel")))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["bernoulli", "--d", "33"], False),
        (["search", "--format", "csv"], False),
        (["surface", "--d", "33", "--ram", "2", "--subgroup", "borel:11", "--format", "csv"], False),
        (["quotient", "--e", "24"], False),
        (["curve", "--ram", "2,5", "--index", "12"], False),
        (["quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5", "--subgroup", "borel:11"], True),
    ],
    ids=["bernoulli", "search", "surface", "quotient", "curve", "quartic"],
)
def test_only_quartic_loads_the_quartic_layers(argv, loaded):
    # Cohen's closed sum gives every quadratic B_2, the CLI imports each
    # subcommand's layers when it runs, and torsion and shimura import the
    # quartic types for annotations only: so a fresh process compiles
    # quartic, polymod and the Siegel kernel only for a quartic query.
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS_QUARTIC_LAYERS, *argv], capture_output=True, text=True, env=_SRC_ENV, timeout=60
    )
    assert proc.stdout == f"0 {loaded} {loaded} {loaded}\n", proc.stderr


_LOADS_SEARCH_LAYER = """
import contextlib, io, sys
from shimsurf.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(code, "shimsurf.search" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["bernoulli", "--d", "33"], False),
        (["search", "--e", "24"], True),
        (["surface", "--d", "33", "--ram", "2", "--subgroup", "borel:11"], False),
        (["quotient", "--e", "24"], False),
        (["curve", "--ram", "2,5", "--index", "12"], False),
        (["quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5", "--subgroup", "borel:11"], False),
    ],
    ids=["bernoulli", "search", "surface", "quotient", "curve", "quartic"],
)
def test_only_search_loads_the_search_layer(argv, loaded):
    # Without bytecode caches a process compiles every module it imports,
    # so the other subcommands must not import the search layer.
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS_SEARCH_LAYER, *argv], capture_output=True, text=True, env=_SRC_ENV, timeout=60
    )
    assert proc.stdout == f"0 {loaded}\n", proc.stderr


def test_a_closed_pipe_ends_the_command_quietly():
    # About 500 kB of rows overflow the pipe, so the command is still
    # writing when the reader leaves after the first line, as under
    # ``shimsurf quotient --e 40000 | head -1``.
    main = "import sys; from shimsurf.cli import main; sys.argv[0] = 'shimsurf'; main()"
    proc = subprocess.Popen(
        [sys.executable, "-c", main, "quotient", "--e", "40000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_SRC_ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"fixed-curve genera and quotient invariants for e = 40000:\n"
    assert (proc.returncode, err) == (141, b"")


def test_package_import_loads_no_submodule():
    # The exports resolve on first access; a name loads its home module.
    script = (
        "import sys, shimsurf; print(sorted(m for m in sys.modules if m.startswith('shimsurf.')));"
        "shimsurf.quad_field; print(sorted(m for m in sys.modules if m.startswith('shimsurf.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=_SRC_ENV, timeout=60
    )
    assert proc.stdout == "[]\n['shimsurf.exact', 'shimsurf.quadfield']\n", proc.stderr


_LOADS_DATACLASSES = """
import contextlib, io, sys
import shimsurf, shimsurf.cli
print("dataclasses" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = shimsurf.cli.run(["quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5", "--subgroup", "borel:11"])
print(code, "shimsurf.siegel" in sys.modules, "dataclasses" in sys.modules)
"""


def test_package_import_leaves_dataclasses_unloaded():
    # The records are NamedTuples, so neither importing the package nor a
    # quartic run (which loads the Siegel kernel) pays for dataclasses and
    # what it imports.  -S keeps a site hook from loading it first.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADS_DATACLASSES], capture_output=True, text=True, env=_SRC_ENV, timeout=60
    )
    assert proc.stdout == "False\n0 True False\n", proc.stderr


# ---------------------------------------------------------------------------
# surface


def test_surface_golden_admissible(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:11")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ADMISSIBLE of type 24; p_g(X) = 5"
    assert "π₁(X/σ) finite" in lines
    assert "index = 12" in lines
    assert "euler number = 24" in lines
    assert "g = 5: K² = 4, c₂ = 8, p_g = 0, q = 0, general type: yes" in out


def test_surface_torsion_control(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "17", "--ram", "2", "--subgroup", "borel:17")
    assert code == 0
    assert "index = 18" in out
    assert "euler number = 12" in out
    assert out.splitlines()[-1] == "NOT ADMISSIBLE (torsion of order 2)"


def test_surface_principal_control(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "7", "--ram", "3", "--subgroup", "principal:2")
    assert code == 0
    assert "index = 6" in out and "euler number = 32" in out
    assert "NOT ADMISSIBLE" in out.splitlines()[-1]


def test_surface_full_group(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "full")
    assert code == 0
    assert "index = 1" in out
    assert "euler number = 2" in out
    assert out.splitlines()[-1] == (
        "NOT ADMISSIBLE (torsion of order 2; Euler number 2 is not a positive integer divisible by 4)"
    )


def test_surface_large_type_prints_no_quotient_table(capsys):
    # Beyond e = 36 the sufficient bound decides no genus, so the report
    # points to the per-genus query instead of listing about e/8 rows.
    # The last level is a prime near 10^15 whose inert norm is its square.
    lines = {}
    for d, ram, subgroup in (
        ("29", "5", "principal:11"),
        ("165", "43", "unipotent:191"),
        ("33", "2", "borel:1000000000000037"),
    ):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "surface", "--d", d, "--ram", ram, "--subgroup", subgroup)
        assert code == 0 and len(out.splitlines()) <= 20
        assert time.perf_counter() - start < 2.0
        lines[subgroup] = out.splitlines()
    assert (
        "quotient invariants for e = 14171520: general type undetermined by the sufficient "
        "bound (e > 36); per genus: shimsurf quotient --e 14171520 --g <genus>"
    ) in lines["principal:11"]
    assert "π₁(X/σ) finite" in lines["principal:11"]


def test_surface_rejects_nonsplit_ram(capsys):
    code, out, err = invoke(capsys, "surface", "--d", "33", "--ram", "3", "--subgroup", "full")
    assert code == 2 and out == ""
    assert "does not split" in err


def test_surface_rejects_level_over_ramification(capsys):
    code, _, err = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:2")
    assert code == 2 and "ramification" in err


def test_surface_rejects_composite_level(capsys):
    code, _, err = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:9")
    assert code == 2 and "prime" in err


def test_surface_rejects_unproven_prime_level(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37.
    code, out, err = invoke(
        capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:318665857834031151167461"
    )
    assert code == 2 and out == "" and "not proven" in err


def test_surface_rejects_malformed_subgroup_spec(capsys):
    for spec, message in (
        ("full:", "the full unit group takes no level prime"),
        ("full:3", "the full unit group takes no level prime"),
        ("borel", "needs a level prime"),
    ):
        code, out, err = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", spec)
        assert code == 2 and out == "" and message in err, spec


def test_surface_rejects_unknown_subgroup(capsys):
    code, _, err = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "parabolic:3")
    assert code == 2 and "unknown subgroup" in err


def test_surface_csv_round_trip_and_parity(capsys):
    code, text_out, _ = invoke(capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:11")
    assert code == 0
    code, csv_out, _ = invoke(
        capsys, "surface", "--d", "33", "--ram", "2", "--subgroup", "borel:11", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["index"] == "12"
    assert record["euler_num"] == "24" and record["euler_den"] == "1"
    assert record["admissible_type"] == "24"
    assert record["torsion"] == "free"
    assert record["pg"] == "5"
    # the same numeric facts appear in the text report
    assert "index = 12" in text_out and "euler number = 24" in text_out
    assert "p_g = 5" in text_out
    # byte-identical re-serialization
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert buffer.getvalue() == csv_out


# ---------------------------------------------------------------------------
# quotient


def test_quotient_golden_line(capsys):
    code, out, _ = invoke(capsys, "quotient", "--e", "24", "--g", "5")
    assert code == 0
    assert out == "K² = 4, c₂ = 8, p_g = 0, q = 0, general type: yes\n"


def test_quotient_table(capsys):
    code, out, _ = invoke(capsys, "quotient", "--e", "24")
    assert code == 0
    assert "g = 3: K² = 14, c₂ = 10, p_g = 1, q = 0, general type: yes" in out
    assert "g = 5: K² = 4, c₂ = 8, p_g = 0, q = 0, general type: yes" in out


def test_quotient_undetermined_beyond_bound(capsys):
    code, out, _ = invoke(capsys, "quotient", "--e", "40", "--g", "9")
    assert code == 0
    assert "general type: undetermined by the sufficient bound" in out


def test_quotient_invalid_genus(capsys):
    code, _, err = invoke(capsys, "quotient", "--e", "24", "--g", "4")
    assert code == 2 and "non-integral geometric genus" in err


def test_quotient_refusals_print_exact_values(capsys):
    # The bounds a refusal quotes are exact rationals: 5 and 1/2, not 5.0 and 0.5.
    assert invoke(capsys, "quotient", "--e", "24", "--g", "1") == (
        2, "", "error: genus bound violated: need 2 <= g <= (e - 4)/4 = 5, got 1\n"
    )
    assert invoke(capsys, "quotient", "--e", "24", "--g", "4") == (
        2, "", "error: non-integral geometric genus: (e - 4 - 4g)/8 = 1/2 for e=24, g=4\n"
    )


def test_quotient_csv(capsys):
    code, out, _ = invoke(capsys, "quotient", "--e", "24", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["e", "g", "Ksq", "c2", "pg", "q", "general_type"]
    assert rows[1:] == [
        ["24", "3", "14", "10", "1", "0", "yes"],
        ["24", "5", "4", "8", "0", "0", "yes"],
    ]


# ---------------------------------------------------------------------------
# curve


def test_curve_golden(capsys):
    code, out, _ = invoke(capsys, "curve", "--ram", "2,5", "--index", "12")
    assert code == 0
    assert out.splitlines()[:2] == ["chi = -8", "genus = 5"]


def test_curve_orbifold_case(capsys):
    code, out, _ = invoke(capsys, "curve", "--ram", "2,3", "--index", "1")
    assert code == 0
    assert "chi = -1/3" in out and "genus = undefined" in out


def test_curve_invalid_ram(capsys):
    code, _, err = invoke(capsys, "curve", "--ram", "2", "--index", "3")
    assert code == 2 and err != ""


# ---------------------------------------------------------------------------
# search


def test_search_text_summary(capsys):
    code, out, _ = invoke(capsys, "search")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "rows: 51 (20 candidates, 31 pruned)"
    assert lines[-1] == "reference classification: 14 matched, 0 missing, 6 beyond"


def test_search_csv_round_trip(capsys):
    code, out, _ = invoke(capsys, "search", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "D", "d", "B2_num", "B2_den", "e", "ram_primes", "index", "status", "reason",
    ]
    assert len(rows) == 52
    body = rows[1:]
    assert sum(1 for r in body if r[7] == "Candidate") == 20
    matched = [r for r in body if r[8] == "matches the reference classification"]
    assert len(matched) == 14
    # spot anchors: first matched row and the fractional-Bernoulli prune
    assert ["17", "17", "8", "1", "12", "2", "18", "Candidate"] == matched[0][:8]
    prune = [r for r in body if r[0] == "5"]
    assert prune == [
        ["5", "5", "4", "5", "20", "11", "3", "Pruned",
         "order 2 torsion, 2 does not divide index 3"]
    ]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert buffer.getvalue() == out


def test_search_type_filter_and_parity(capsys):
    code, csv_out, _ = invoke(capsys, "search", "--e", "24", "--format", "csv")
    assert code == 0
    body = list(csv.reader(io.StringIO(csv_out)))[1:]
    code, text_out, _ = invoke(capsys, "search", "--e", "24")
    assert code == 0
    text_rows = [line for line in text_out.splitlines() if line.startswith("D=")]
    assert len(body) == len(text_rows) == 8
    for row in body:
        assert f"D={row[0]} " in text_out
        assert f"index={row[6]} " in text_out


def test_search_rejects_bad_types(capsys):
    code, _, err = invoke(capsys, "search", "--e", "10")
    assert code == 2 and "multiples of 4" in err
    code, _, err = invoke(capsys, "search", "--e", "12,x")
    assert code == 2 and "comma-separated integers" in err
    code, out, err = invoke(capsys, "search", "--e", "")
    assert code == 2 and out == "" and "--e expects comma-separated integers, got ''" in err


# ---------------------------------------------------------------------------
# quartic


def test_quartic_golden_admissible(capsys):
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5",
        "--subgroup", "unipotent:29", "--zeta-bound", "1000",
        "--infinite-conjugate-assert",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polynomial = x^4 - x^3 - 3*x^2 + x + 1"
    assert "field discriminant = 725" in lines
    assert "index = 420" in lines
    assert "euler number of the full group = 1/15" in lines
    assert lines[-1] == "ADMISSIBLE of type 28; p_g(X) = 6"


def test_quartic_euler_number_is_exact_for_a_large_index(capsys):
    # A prime of norm 2401 over 7: the old float recognizer printed 1121.
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", "1,-5,3,5,1", "--subfield", "5",
        "--subgroup", "borel:7", "--zeta-bound", "10000",
        "--infinite-conjugate-assert",
    )
    assert code == 0
    lines = out.splitlines()
    assert "index = 2402" in lines
    assert "euler number of the full group = 7/15" in lines
    assert "euler number = 16814/15 (index 2402 times zeta_k(-1)/2)" in lines


def test_quartic_full_group_not_admissible(capsys):
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5",
        "--subgroup", "full", "--zeta-bound", "1000",
        "--infinite-conjugate-assert",
    )
    assert code == 0
    assert "NOT ADMISSIBLE" in out.splitlines()[-1]
    assert "torsion of order 2" in out.splitlines()[-1]


def test_quartic_without_assertion_fails_involution(capsys):
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", "1,-1,-3,1,1", "--subfield", "5",
        "--subgroup", "unipotent:29", "--zeta-bound", "1000",
    )
    assert code == 0
    assert "involution of second kind = no" in out
    assert out.splitlines()[-1] == (
        "NOT ADMISSIBLE (no involution of second kind; no conjugation-invariant maximal order)"
    )


@pytest.mark.parametrize(
    "poly, subfield, subgroup, torsion",
    [
        # Frobenius at a prime of norm 11 = 1 (mod 5) is trivial on zeta_5.
        ("1,-1,-3,1,1", "5", "borel:11", "torsion = torsion (order 5: "),
        ("1,-5,3,5,1", "5", "borel:11", "torsion = torsion (order 5: "),
        # Q(zeta_16)^+ at 47: N(q) = 47 is not 1 mod 4, 3 or 8.
        ("1,-4,-2,4,-1", "2", "borel:47", "torsion = free ("),
        # a level over 5 divides n = 5 on a quartic base: no rule applies
        ("1,-1,-3,1,1", "5", "principal:5", "torsion = unknown ("),
    ],
)
def test_quartic_torsion_goldens(capsys, poly, subfield, subgroup, torsion):
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", poly, "--subfield", subfield, "--subgroup", subgroup,
        "--zeta-bound", "1000", "--infinite-conjugate-assert",
    )
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("torsion = ")]
    assert line.startswith(torsion), line


def test_quartic_exceptional_invariant_order(capsys):
    # disc(f) = 156^2: the field is unramified over Q(sqrt 39).
    code, out, _ = invoke(
        capsys,
        "quartic", "--poly", "1,-2,-11,12,-3", "--subfield", "39",
        "--subgroup", "full", "--zeta-bound", "1000",
        "--infinite-conjugate-assert",
    )
    assert code == 0
    lines = out.splitlines()
    assert "field discriminant = 24336" in lines
    assert "subfield = Q(sqrt(39)), discriminant 156" in lines
    assert (
        "invariant maximal order = no (the base field is unramified over the fixed field and "
        "the algebra has 2 ramified places (finite plus ramified infinite ones), which is "
        "2 mod 4: the exceptional case without an invariant maximal order)"
    ) in lines


def test_quartic_rejects_non_maximal_equation_order(capsys):
    # x^4 - 16x^2 + 4 defines Q(sqrt3, sqrt5), of discriminant 3600, but
    # disc(f) = 3686400: the equation order has index 32.
    code, out, err = invoke(
        capsys, "quartic", "--poly", "1,0,-16,0,4", "--subfield", "15", "--subgroup", "full"
    )
    assert code == 2 and out == "" and "not maximal at 2 " in err


def test_quartic_rejects_reducible_poly(capsys):
    code, _, err = invoke(
        capsys, "quartic", "--poly", "1,0,0,0,-1", "--subfield", "5", "--subgroup", "full"
    )
    assert code == 2 and "reducible" in err


def test_quartic_rejects_uncertified_subfield(capsys):
    # The resolvent cubic of this polynomial has no rational root, so the
    # field has no quadratic subfield, although 8^2 divides disc(f).
    for subgroup in ("borel:3", "full"):
        code, out, err = invoke(
            capsys,
            "quartic", "--poly", "1,-6,-6,6,-1", "--subfield", "2",
            "--subgroup", subgroup, "--infinite-conjugate-assert", "--zeta-bound", "1000",
        )
        assert code == 2 and out == "" and "resolvent cubic" in err


def test_quartic_rejects_large_coefficients_quickly(capsys):
    # Integer roots of the quartic and of its resolvent cubic are found by
    # bisection, not among the divisors of a constant term with large
    # prime factors: 10^16 + 61, (10^17 + 3)(3*10^17 + 11) and, in the
    # cubic, (10^17 + 3)^2.
    c = 10**17 + 3
    for poly, reason in (
        ("1,0,-10,0,10000000000000061", "not totally real"),
        (f"1,0,-10,0,{c * (3 * c + 2)}", "not totally real"),
        (f"1,0,0,{c},1", "not totally real"),
        (f"1,0,0,{c},0", "reducible"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "quartic", "--poly", poly, "--subfield", "2", "--subgroup", "full"
        )
        assert code == 2 and out == "" and reason in err
        assert time.perf_counter() - start < 2.0


def test_quartic_rejects_wrong_coefficient_count(capsys):
    code, _, err = invoke(
        capsys, "quartic", "--poly", "1,2,3", "--subfield", "5", "--subgroup", "full"
    )
    assert code == 2 and "five comma-separated" in err


# ---------------------------------------------------------------------------
# global behaviors


def test_unknown_subcommand_and_missing_args(capsys):
    assert invoke(capsys, "nosuch")[0] == 2
    assert invoke(capsys, "bernoulli")[0] == 2  # missing --d
    assert invoke(capsys, "surface", "--d", "33")[0] == 2  # missing flags
    assert invoke(capsys, "quotient", "--e", "not-a-number")[0] == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "search", "--help")[0] == 0


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so every invariant check raises
    # InvariantError explicitly, which run() maps to exit code 1.
    package = Path(__file__).resolve().parents[1] / "src" / "shimsurf"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# bounded fuzz over every subcommand's argument grammar


def _joined(values):
    return ",".join(map(str, values))


_SMALL_INT = st.integers(min_value=-10, max_value=10**4)
_PRIME = st.sampled_from(primes_up_to(97))
_INT_LIST = st.lists(st.one_of(_PRIME, _PRIME, _PRIME, _SMALL_INT), min_size=1, max_size=3).map(_joined)
_SUBGROUP = st.one_of(
    st.just("full"),
    st.tuples(
        st.sampled_from(["borel", "unipotent", "principal"] * 2 + ["full", "parabolic"]),
        st.one_of(_PRIME, _PRIME, _SMALL_INT),
    ).map(lambda t: f"{t[0]}:{t[1]}"),
)
_RAM = st.one_of(st.sampled_from(["2", "3", "5", "2,3", "2,5", "3,7", "2,3,5,7"]), _INT_LIST)
_QUADRATIC_ALGEBRA = st.one_of(
    st.sampled_from([(33, "2"), (17, "2"), (7, "3"), (29, "5"), (6, "5"), (2, "7"), (105, "2,13")]),
    st.tuples(st.integers(min_value=-2, max_value=400), _RAM),
)
_TYPE = st.one_of(st.integers(min_value=1, max_value=2500).map(lambda k: 4 * k), _SMALL_INT)
_FORMAT = st.sampled_from([[], ["--format", "csv"], ["--format", "xml"]])
_COEFFS = st.lists(st.integers(min_value=-10, max_value=10), min_size=4, max_size=5)
_QUARTIC_FIELD = st.one_of(
    st.sampled_from([("1,-1,-3,1,1", 5), ("1,-5,3,5,1", 5), ("1,-4,2,4,-2", 2), ("1,-2,-11,12,-3", 39)]),
    st.tuples(
        st.one_of(_COEFFS.map(lambda xs: _joined([1] + xs)), _COEFFS.map(_joined)),
        st.integers(min_value=-3, max_value=10),
    ),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_ARGV = st.one_of(
    _SMALL_INT.map(lambda d: ["bernoulli", "--d", str(d)]),
    st.tuples(
        _opt("--e", st.lists(st.sampled_from([8, 12, 24, 36, 40]), min_size=1, max_size=2).map(_joined)),
        _FORMAT,
    ).map(lambda t: ["search", *t[0], *t[1]]),
    st.tuples(_QUADRATIC_ALGEBRA, _SUBGROUP, _FORMAT).map(
        lambda t: ["surface", "--d", str(t[0][0]), "--ram", t[0][1], "--subgroup", t[1], *t[2]]
    ),
    st.tuples(_TYPE, _opt("--g", st.integers(min_value=-2, max_value=40)), _FORMAT).map(
        lambda t: ["quotient", "--e", str(t[0]), *t[1], *t[2]]
    ),
    st.tuples(_RAM, _SMALL_INT).map(lambda t: ["curve", "--ram", t[0], "--index", str(t[1])]),
    st.tuples(
        _QUARTIC_FIELD,
        _SUBGROUP,
        st.integers(min_value=-10, max_value=1000),
        st.sampled_from([[], ["--infinite-conjugate-assert"]]),
    ).map(
        lambda t: [
            "quartic", "--poly", t[0][0], "--subfield", str(t[0][1]), "--subgroup", t[1],
            "--zeta-bound", str(t[2]), *t[3],
        ]
    ),
)


@given(_ARGV)
@settings(max_examples=150, deadline=None)
def test_fuzz_every_subcommand_exits_cleanly(argv):
    # Valid and invalid arguments alike end in exit code 0 or 2, never in
    # an uncaught exception or an internal invariant violation.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2), argv
