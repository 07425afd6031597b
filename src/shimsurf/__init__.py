"""Arithmetic of quaternionic Shimura surfaces carrying involutions of
the second kind over totally real fields.

The layers, bottom up:

- :mod:`shimsurf.exact` — integer/rational kernel (Kronecker symbols,
  deterministic primality and factorization, a prime sieve);
- :mod:`shimsurf.polymod` — dense polynomial arithmetic and factorization
  over prime fields;
- :mod:`shimsurf.siegel` — exact zeta_K(-1) of totally real fields of
  degree 2 and 4 by Siegel's formula, with valuations at Kummer-Dedekind
  primes of a maximal equation order; it runs for quartic fields,
  and its degree-2 instance is the tests' reference for ``quadfield``;
- :mod:`shimsurf.quadfield` — real quadratic fields: splitting of primes,
  conjugation, exact generalized Bernoulli values B_2 = 24 zeta_k(-1)
  from Cohen's closed divisor sum;
- :mod:`shimsurf.quartic` — totally real quartic fields with a quadratic
  subfield: discriminants, maximality of the equation order, and
  the prime ideals read off the defining polynomial mod p;
- :mod:`shimsurf.torsion` — one torsion decision for every kind of
  congruence subgroup, via cyclotomic splitting;
- :mod:`shimsurf.shimura` — quaternion algebras, subgroup indices, and
  the admissibility report, the one public way to the involution of
  second kind, invariant order, level invariance and exact Euler number;
- :mod:`shimsurf.geometry` — Chern invariants of the surfaces, their
  involution quotients, and quotient curves;
- :mod:`shimsurf.search` — the bounded classification search;
- :mod:`shimsurf.cli` — the command-line frontend.

Records are immutable, hashable ``NamedTuple``s that compare by value as
tuples, so ``QuadField(5, 5) == (5, 5)``.  Public construction of a
checked one, ``_make`` and ``_replace`` included, always runs its
``_check``: a positional call that gives every field builds the tuple
directly, and a keyword call or one that leaves a default out goes
through the NamedTuple's own ``__new__``, both ending in the check.
Only constructors that derive the fields themselves build through
``_trusted(fields)``, which takes every field as one tuple, without it:
``quadfield._field`` and ``quartic_new`` their fields, ``primes_above``
and ``primes_above_quartic`` their places, ``quadratic_algebra`` its
algebra.
Every boundary that takes an integer refuses a ``bool`` (``exact.is_int``).
A violated internal invariant raises :class:`InvariantError`, a subclass
of AssertionError that also fires under ``python -O``.

``_EXPORTS`` below is the package's one list of public names; no
submodule keeps an ``__all__`` of its own.  ``import shimsurf`` loads no
submodule.  Each exported name is imported from its home module on first
access and then bound here, so a caller loads only the layers it uses:
``from shimsurf import quad_field`` loads ``exact`` and ``quadfield``,
and nothing of ``quartic`` or ``siegel``.  Since this module defines
``__getattr__``, CPython does not specialize loads of ``shimsurf.<name>``,
so a hot loop should bind its names once with ``from shimsurf import ...``.
"""

from importlib import import_module as _import_module

# Each exported name, grouped by its home module.
_EXPORTS = {
    "exact": ("InvariantError", "is_prime", "kronecker"),
    "geometry": (
        "CurveResult",
        "QuotientInvariants",
        "SurfaceInvariants",
        "fixed_curve_numbers",
        "quotient_invariants",
        "quotient_invariants_from_pg",
        "quotient_table",
        "shimura_curve_genus",
        "shimura_surface_invariants",
    ),
    "quadfield": (
        "QuadField",
        "QuadPrime",
        "Splitting",
        "bernoulli2",
        "field_from_disc",
        "fundamental_discriminants",
        "primes_above",
        "quad_field",
        "splitting_type",
    ),
    "quartic": (
        "QuarticField",
        "QuarticPrime",
        "choose_level_prime",
        "quartic_new",
        "quartic_splitting",
    ),
    "search": (
        "CandidateRow",
        "DiffReport",
        "RowStatus",
        "compare_to_reference",
        "enumerate_candidates",
        "prune_by_torsion",
        "run_pipeline",
    ),
    "shimura": (
        "AdmissibilityReport",
        "QuaternionAlgebra",
        "SubgroupKind",
        "SubgroupSpec",
        "admissibility_report",
        "quadratic_algebra",
        "quartic_algebra",
        "subgroup_index",
    ),
    "torsion": (
        "TorsionVerdict",
        "Verdict",
        "borel_torsion_verdict",
        "full_torsion_verdict",
        "principal_torsion_verdict",
        "unipotent_torsion_verdict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name from its home module and bind it here, so
    that later lookups never reach this function.  A home module's own
    name, as in ``shimsurf.search.DEFAULT_TYPES``, imports that module."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
