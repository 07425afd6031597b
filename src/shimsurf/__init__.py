"""Arithmetic of quaternionic Shimura surfaces carrying involutions of
the second kind over totally real fields.

The layers, bottom up:

- :mod:`shimsurf.exact` — integer/rational kernel (Kronecker symbols,
  deterministic primality and factorization, rational recognition);
- :mod:`shimsurf.polymod` — dense polynomial arithmetic and factorization
  over prime fields;
- :mod:`shimsurf.siegel` — exact zeta_K(-1) of totally real fields of
  degree 2 and 4 by Siegel's formula, with Kummer-Dedekind primes and
  valuations in a maximal equation order; it runs for quartic fields,
  and its degree-2 instance is the tests' reference for ``quadfield``;
- :mod:`shimsurf.quadfield` — real quadratic fields: splitting of primes,
  conjugation, exact generalized Bernoulli values B_2 = 24 zeta_k(-1)
  from Cohen's closed divisor sum;
- :mod:`shimsurf.quartic` — totally real quartic fields with a quadratic
  subfield: discriminants, splitting read off the defining polynomial
  mod p, and the zeta_K(2) Euler product kept as a cross-check;
- :mod:`shimsurf.torsion` — certified torsion-freeness of congruence
  subgroups via cyclotomic splitting;
- :mod:`shimsurf.shimura` — quaternion algebras, involutions of second
  kind, subgroup indices, Euler numbers, admissibility reports;
- :mod:`shimsurf.geometry` — Chern invariants of the surfaces, their
  involution quotients, and quotient curves;
- :mod:`shimsurf.search` — the bounded classification search;
- :mod:`shimsurf.cli` — the command-line frontend.
"""

from .exact import is_prime, kronecker, recognize_rational
from .geometry import (
    CurveResult,
    QuotientInvariants,
    SurfaceInvariants,
    fixed_curve_numbers,
    quotient_invariants,
    quotient_invariants_from_pg,
    quotient_table,
    shimura_curve_genus,
    shimura_surface_invariants,
)
from .quadfield import (
    QuadField,
    QuadPrime,
    Splitting,
    bernoulli2,
    field_from_disc,
    fundamental_discriminants,
    primes_above,
    quad_field,
    splitting_type,
)
from .quartic import (
    QuarticField,
    QuarticPrime,
    choose_level_prime,
    quartic_new,
    quartic_splitting,
    zeta2_euler_product,
)
from .search import (
    CandidateRow,
    DiffReport,
    RowStatus,
    compare_to_reference,
    enumerate_candidates,
    prune_by_torsion,
    run_pipeline,
)
from .shimura import (
    AdmissibilityReport,
    EulerEstimate,
    QuaternionAlgebra,
    SubgroupKind,
    SubgroupSpec,
    admissibility_report,
    euler_number_general,
    euler_number_quadratic,
    invariant_order_exists,
    involution_exists,
    level_invariance_ok,
    quadratic_algebra,
    quartic_algebra,
    subgroup_index,
)
from .torsion import (
    TorsionVerdict,
    Verdict,
    borel_torsion_verdict,
    full_torsion_verdict,
    possible_torsion_orders,
    principal_torsion_verdict,
    unipotent_torsion_verdict,
)

__all__ = [
    "AdmissibilityReport",
    "CandidateRow",
    "CurveResult",
    "DiffReport",
    "EulerEstimate",
    "QuadField",
    "QuadPrime",
    "QuarticField",
    "QuarticPrime",
    "QuaternionAlgebra",
    "QuotientInvariants",
    "RowStatus",
    "Splitting",
    "SubgroupKind",
    "SubgroupSpec",
    "SurfaceInvariants",
    "TorsionVerdict",
    "Verdict",
    "admissibility_report",
    "bernoulli2",
    "borel_torsion_verdict",
    "choose_level_prime",
    "compare_to_reference",
    "enumerate_candidates",
    "euler_number_general",
    "euler_number_quadratic",
    "field_from_disc",
    "fixed_curve_numbers",
    "full_torsion_verdict",
    "fundamental_discriminants",
    "invariant_order_exists",
    "involution_exists",
    "is_prime",
    "kronecker",
    "level_invariance_ok",
    "possible_torsion_orders",
    "primes_above",
    "principal_torsion_verdict",
    "prune_by_torsion",
    "quad_field",
    "quadratic_algebra",
    "quartic_algebra",
    "quartic_new",
    "quartic_splitting",
    "quotient_invariants",
    "quotient_invariants_from_pg",
    "quotient_table",
    "recognize_rational",
    "run_pipeline",
    "shimura_curve_genus",
    "shimura_surface_invariants",
    "splitting_type",
    "subgroup_index",
    "unipotent_torsion_verdict",
    "__version__",
]

__version__ = "0.1.0"
