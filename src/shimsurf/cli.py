"""Command-line frontend for the arithmetic pipelines.

Subcommands mirror the library layers: ``bernoulli`` prints the exact
B_2 value of a real quadratic field, ``search`` runs the bounded
classification over real quadratic fields, ``surface`` produces the full
admissibility report for a congruence subgroup over a quadratic base,
``quotient`` prints the numerical invariants of an involution quotient,
``curve`` the Euler characteristic and genus of a quotient curve, and
``quartic`` the admissibility report over a totally real quartic base
(with zeta_k(-1), hence the Euler number, exact by Siegel's formula).

All output is deterministic.  Text mode prints ``key = value`` report
lines; ``--format csv`` prints comma-separated rows with a header, stable
column order, and ``\\n`` line endings, so emitted CSV re-serializes
byte-identically.  Exit codes: 0 on success, 2 on invalid input (with a
diagnostic on standard error), 1 on an internal invariant violation, and
141 (128 + SIGPIPE, as a shell reports a writer the signal ended), with
nothing on standard error, when standard output closes early, as under
``| head``.

Each subcommand imports its own layers when it runs: only ``search``
loads the search layer, only ``quartic`` the quartic layers
(``quartic``, ``polymod``, ``siegel``), a ``surface`` or ``quartic``
report loads ``geometry`` only when it is admissible, and ``csv`` is
loaded only for ``--format csv``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable

from .exact import InvariantError, is_prime
from .quadfield import Place, QuadPrime, field_from_disc, primes_above, quad_field

if TYPE_CHECKING:
    import csv

    from .geometry import QuotientInvariants
    from .shimura import AdmissibilityReport, SubgroupSpec


# ---------------------------------------------------------------------------
# small parsing helpers (all raise ValueError -> exit code 2)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_primes(text: str, flag: str) -> list[int]:
    values = _parse_int_list(text, flag)
    for p in values:
        if not is_prime(p):
            raise ValueError(f"{flag} entries must be rational primes, got {p}")
    return values


def _parse_subgroup(text: str, level_of: Callable[[int], Place]) -> SubgroupSpec:
    """``full`` or ``<kind>:<rational prime>`` for borel/unipotent/principal;
    ``level_of`` picks the level prime of the base over the rational one."""
    from .shimura import SubgroupKind, SubgroupSpec
    from .torsion import _FULL

    kind_name, colon, level_text = text.partition(":")
    try:
        kind = SubgroupKind(kind_name)
    except ValueError:
        raise ValueError(
            f"unknown subgroup {text!r}; expected full, borel:<p>, "
            "unipotent:<p>, or principal:<p>"
        ) from None
    if kind is _FULL:
        if colon:
            raise ValueError("the full unit group takes no level prime")
        return SubgroupSpec(kind, None)
    if not level_text:
        raise ValueError(f"subgroup kind {kind.value!r} needs a level prime, e.g. {kind.value}:11")
    p = int(level_text) if level_text.removeprefix("-").isdecimal() else None
    if p is None or not is_prime(p):
        raise ValueError(f"the level must be a rational prime, got {level_text!r}")
    return SubgroupSpec(kind, level_of(p))


def _csv_writer() -> csv.writer:
    import csv  # only --format csv needs it

    return csv.writer(sys.stdout, lineterminator="\n")


# ---------------------------------------------------------------------------
# shared rendering


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _quotient_line(inv: QuotientInvariants) -> str:
    flag = inv.general_type
    general = "undetermined by the sufficient bound" if flag is None else _yes_no(flag)
    return f"K² = {inv.Ksq}, c₂ = {inv.c2}, p_g = {inv.pg}, q = {inv.q}, general type: {general}"


def _subgroup_line(spec: SubgroupSpec) -> str:
    if spec.level is None:
        return "subgroup = full unit group"
    q = spec.level
    if isinstance(q, QuadPrime):
        detail = q.splitting.value
    else:
        detail = f"residue degree {q.residue_degree}, ramification index {q.ramification_index}"
    return f"subgroup = {spec.kind.value}, level over {q.p} (norm {q.norm}, {detail})"


def _report_check_lines(report: AdmissibilityReport) -> list[str]:
    """The subgroup, its index and the three structural checks."""
    checks = (
        ("involution of second kind", report.involution_ok),
        ("invariant maximal order", report.invariant_order_ok),
        ("level invariance", report.level_invariance_ok),
    )
    return [
        _subgroup_line(report.spec),
        f"index = {report.index}",
        *(f"{label} = {_yes_no(check.ok)} ({check.reason})" for label, check in checks),
    ]


def _report_tail_lines(report: AdmissibilityReport, with_quotients: bool) -> list[str]:
    """Torsion, surface invariants, and the final verdict line."""
    lines = [f"torsion = {report.torsion.verdict.value} ({report.torsion.reason})"]
    if report.admissible_type is not None:
        s = report.surface
        lines.append(f"surface: c₁² = {s.c1sq}, c₂ = {s.e}, χ = {s.chi}, p_g = {s.pg}, q = {s.q}")
        if with_quotients:
            from .geometry import GENERAL_TYPE_MAX_E, quotient_table

            if s.e > GENERAL_TYPE_MAX_E:
                lines.append(
                    f"quotient invariants for e = {s.e}: general type undetermined by the sufficient "
                    f"bound (e > {GENERAL_TYPE_MAX_E}); per genus: shimsurf quotient --e {s.e} --g <genus>"
                )
            else:
                lines.append(f"quotient invariants for e = {s.e}:")
                lines.extend(f"  g = {g}: {_quotient_line(inv)}" for g, inv in quotient_table(s.e))
            lines.append("π₁(X/σ) finite")
        lines.append(f"ADMISSIBLE of type {report.admissible_type}; p_g(X) = {s.pg}")
    else:
        lines.append(f"NOT ADMISSIBLE ({'; '.join(report.obstructions)})")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    field = quad_field(args.d)
    print(field.bernoulli2())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import DEFAULT_TYPES, run_pipeline

    e_values = tuple(_parse_int_list(args.e, "--e")) if args.e is not None else DEFAULT_TYPES
    rows, report = run_pipeline(e_values)
    # each row's cells, derived once for both formats
    cells = [
        (r.D, field_from_disc(r.D).d, r.B2, r.e, ";".join(map(str, r.ram_primes)), r.index, r.status.value, r.reason)
        for r in rows
    ]
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "d", "B2_num", "B2_den", "e", "ram_primes", "index", "status", "reason"])
        writer.writerows((D, d, B2.numerator, B2.denominator, *rest) for D, d, B2, *rest in cells)
        return 0
    for D, d, B2, e, ram, index, status, reason in cells:
        print(f"D={D} d={d} B2={B2} e={e} ram={ram} index={index} {status}: {reason}")
    matched, missing, extras = report.counts
    candidates = matched + extras
    print(f"rows: {len(rows)} ({candidates} candidates, {len(rows) - candidates} pruned)")
    print(f"reference classification: {matched} matched, {missing} missing, {extras} beyond")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    from .shimura import admissibility_report, quadratic_algebra

    field = quad_field(args.d)
    algebra = quadratic_algebra(field, _parse_primes(args.ram, "--ram"))
    spec = _parse_subgroup(args.subgroup, lambda p: primes_above(field, p)[0])
    report = admissibility_report(algebra, spec)
    if args.format == "csv":
        s = report.surface
        row = {
            "d": field.d,
            "disc": field.disc,
            "ram_primes": ";".join(str(p) for p in algebra.ram_rational_primes),
            "subgroup": report.spec.kind.value,
            "level_norm": "" if report.spec.level is None else report.spec.level.norm,
            "index": report.index,
            "involution": _yes_no(report.involution_ok.ok),
            "invariant_order": _yes_no(report.invariant_order_ok.ok),
            "level_invariance": _yes_no(report.level_invariance_ok.ok),
            "euler_num": report.euler.numerator,
            "euler_den": report.euler.denominator,
            "torsion": report.torsion.verdict.value,
            "torsion_order": "" if report.torsion.order is None else report.torsion.order,
            "admissible_type": "" if report.admissible_type is None else report.admissible_type,
            "c1sq": "" if s is None else s.c1sq,
            "c2": "" if s is None else s.e,
            "chi": "" if s is None else s.chi,
            "pg": "" if s is None else s.pg,
            "q": "" if s is None else s.q,
        }
        writer = _csv_writer()
        writer.writerow(row)
        writer.writerow(row.values())
        return 0
    ram = ", ".join(str(p) for p in report.algebra.ram_rational_primes)
    lines = [
        f"field = Q(sqrt({field.d}))",
        f"discriminant = {field.disc}",
        f"ramification = conjugate pairs over {ram}",
        *_report_check_lines(report),
        f"euler number of the full group = {report.euler / report.index}",
        f"euler number = {report.euler}",
    ]
    lines.extend(_report_tail_lines(report, with_quotients=True))
    print("\n".join(lines))
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    from .geometry import quotient_invariants, quotient_table

    if args.g is not None:
        table = [(args.g, quotient_invariants(args.e, args.g))]
    else:
        table = quotient_table(args.e)
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["e", "g", "Ksq", "c2", "pg", "q", "general_type"])
        for g, inv in table:
            general = "undetermined" if inv.general_type is None else _yes_no(inv.general_type)
            writer.writerow([args.e, g, inv.Ksq, inv.c2, inv.pg, inv.q, general])
        return 0
    if args.g is not None:
        print(_quotient_line(table[0][1]))
        return 0
    print(f"fixed-curve genera and quotient invariants for e = {args.e}:")
    for g, inv in table:
        print(f"g = {g}: {_quotient_line(inv)}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from .geometry import shimura_curve_genus

    primes = _parse_primes(args.ram, "--ram")
    result = shimura_curve_genus(primes, args.index)
    print(f"chi = {result.chi}")
    print(f"genus = {'undefined' if result.genus is None else result.genus}")
    print(f"note: {result.note}")
    return 0


def _cmd_quartic(args: argparse.Namespace) -> int:
    from .quartic import choose_level_prime, quartic_new
    from .shimura import admissibility_report, quartic_algebra

    coeffs = _parse_int_list(args.poly, "--poly")
    if len(coeffs) != 5:
        raise ValueError("--poly takes five comma-separated coefficients c4,c3,c2,c1,c0")
    K = quartic_new(tuple(coeffs), args.subfield)
    algebra = quartic_algebra(K)
    spec = _parse_subgroup(args.subgroup, lambda p: choose_level_prime(K, p))
    report = admissibility_report(algebra, spec)
    lines = [
        f"polynomial = {K}",
        f"polynomial discriminant = {K.disc}",
        f"field discriminant = {K.disc}",
        f"subfield = Q(sqrt({K.subfield.d})), discriminant {K.subfield.disc}",
        *_report_check_lines(report),
        f"zeta_k(-1) = {K.zeta_minus1()} (Siegel's formula, checked by s(2) = 129 s(1))",
        f"euler number of the full group = {report.euler / report.index}",
        f"euler number = {report.euler} (index {report.index} times zeta_k(-1)/2)",
    ]
    lines.extend(_report_tail_lines(report, with_quotients=False))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser and entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shimsurf",
        description="Arithmetic of quaternionic surfaces with involutions: "
        "exact Bernoulli values, admissibility reports, quotient invariants, "
        "and the bounded classification search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="exact B_2 value of a real quadratic field")
    p.add_argument("--d", type=int, required=True, help="squarefree radicand of Q(sqrt(d))")
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("search", help="bounded classification search over quadratic fields")
    p.add_argument("--e", help="comma-separated surface types, multiples of 4 in [12, 36]")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("surface", help="admissibility report over a real quadratic field")
    p.add_argument("--d", type=int, required=True, help="squarefree radicand of Q(sqrt(d))")
    p.add_argument(
        "--ram",
        required=True,
        help="comma-separated rational primes under the ramified conjugate pairs",
    )
    p.add_argument(
        "--subgroup",
        required=True,
        help="full, borel:<p>, unipotent:<p>, or principal:<p>",
    )
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("quotient", help="numerical invariants of the involution quotient")
    p.add_argument("--e", type=int, required=True, help="Euler number of the covering surface")
    p.add_argument("--g", type=int, help="arithmetic genus of the fixed curve")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("curve", help="Euler characteristic and genus of a quotient curve")
    p.add_argument("--ram", required=True, help="comma-separated ramified rational primes")
    p.add_argument("--index", type=int, required=True, help="subgroup index in the unit group")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("quartic", help="admissibility report over a totally real quartic field")
    p.add_argument(
        "--poly",
        required=True,
        help="five comma-separated integer coefficients c4,c3,c2,c1,c0 of a monic quartic",
    )
    p.add_argument("--subfield", type=int, required=True, help="radicand of the real quadratic subfield")
    p.add_argument(
        "--subgroup",
        required=True,
        help="full, borel:<p>, unipotent:<p>, or principal:<p> (level = smallest-norm prime over p)",
    )
    p.add_argument(
        "--zeta-bound",
        type=int,
        help="ignored: zeta_k(-1) is exact by Siegel's formula and no Euler product runs; "
        "accepted so that older command lines still parse",
    )
    p.add_argument(
        "--infinite-conjugate-assert",
        action="store_true",
        help="ignored: the algebra is ramified at the two real places over one real place of the "
        "subfield, which the subfield automorphism swaps, so its involution is proven; accepted so "
        "that older command lines still parse",
    )
    p.set_defaults(func=_cmd_quartic)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left.  The interpreter flushes stdout once more at
        # exit, so point it at the null device, where that cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
