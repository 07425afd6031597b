"""Module-boundary tracing for the benchmark's traced runs.

``install`` wraps every shimsurf function at the bindings where another
shimsurf module, or the benchmark, looks it up: the attribute
``shimsurf.quartic.ppow_mod`` is wrapped, the defining module's own
``shimsurf.polymod.ppow_mod`` is not, so calls inside a module (about
150k ``pmul``/``pmod`` per quartic query) stay untraced and count as
that module's self time.  A few entry points are wrapped inside their
own module as well, because they are called only a handful of times per
operation and their counts are the point: the three search stages that
``run_pipeline`` calls, and ``gamma1_torsion_orders``, which the torsion
cascades call.  Two methods that other modules reach through an object
are wrapped on their class: ``QuadField.bernoulli2`` and
``QuarticPrime.is_conjugation_stable``.

Spans are aggregated per name as they close rather than stored one by
one, since a quartic query crosses about 12k boundaries.  A span's self
time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

LAYERS = ("exact", "polymod", "quadfield", "quartic", "torsion", "shimura", "geometry", "search", "cli")

_INTERNAL = {
    "search": ("enumerate_candidates", "prune_by_torsion", "compare_to_reference"),
    "torsion": ("gamma1_torsion_orders",),
}
# is_prime is read through cache_info() instead: PolyModP validates its
# modulus with it about 190k times per quartic query, and a wrapper there
# would cost more than the cached call, skewing polymod's self time.
_UNWRAPPED = frozenset({"is_prime"})
_METHODS = (("quadfield", "QuadField", "bernoulli2"), ("quartic", "QuarticPrime", "is_conjugation_stable"))


class _CountedPrimes(list):
    """The prime list handed to the quartic layer; counts the primes it
    actually walks through."""

    def __init__(self, primes, tracer):
        super().__init__(primes)
        self._tracer = tracer

    def __iter__(self):
        for p in super().__iter__():
            if self._tracer.active:
                self._tracer.counts["quartic.primes_scanned"] += 1
            yield p


class Tracer:
    """Per-span self time, calls and refusals, and counters.  Nothing is
    recorded while ``active`` is false, so an oracle can call the program
    without polluting the figures."""

    def __init__(self) -> None:
        self.active = True
        self.counts: Counter = Counter()
        self._spans: dict[str, list] = {}  # name -> [self seconds, calls, ValueErrors]
        self._stack: list[float] = []
        self._wrapped: dict[tuple[int, int], object] = {}

    def wrap(self, name: str, fn, on_result=None):
        key = (id(fn), id(on_result))
        if key in self._wrapped:
            return self._wrapped[key]
        stack = self._stack
        record = self._spans.setdefault(name, [0.0, 0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                record[2] += 1
                raise
            finally:
                duration = clock() - start
                record[0] += duration - stack.pop()
                record[1] += 1
                if stack:
                    stack[-1] += duration
            return result if on_result is None else on_result(result)

        self._wrapped[key] = traced
        return traced

    def snapshot(self) -> dict:
        spans = [(name, rec) for name, rec in self._spans.items() if rec[1]]
        return {
            "self_s": {name: rec[0] for name, rec in spans},
            "calls": {name: rec[1] for name, rec in spans},
            "refused": {name: rec[2] for name, rec in spans if rec[2]},
            "counts": dict(self.counts),
        }


def _home_layer(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("shimsurf."):
        return None
    layer = module.split(".")[1]
    return layer if layer in LAYERS else None


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _result_hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def enumerated(rows):
        counts["search.rows_enumerated"] += len(rows)
        return rows

    def pruned(rows):
        counts["search.rows_candidate"] += sum(1 for r in rows if r.status.value == "Candidate")
        return rows

    def compared(report):
        counts["search.extras"] += len(report.extras)
        return report

    def verdict(v):
        counts["torsion.verdicts"] += 1
        counts["torsion.decided"] += v.verdict.value != "unknown"
        return v

    def report(r):
        counts["shimura.admissible"] += r.admissible_type is not None
        counts["shimura.euler_recognized"] += r.euler is not None
        return r

    return {
        "search.enumerate_candidates": enumerated,
        "search.prune_by_torsion": pruned,
        "search.compare_to_reference": compared,
        "torsion.full_torsion_verdict": verdict,
        "torsion.borel_torsion_verdict": verdict,
        "torsion.unipotent_torsion_verdict": verdict,
        "torsion.principal_torsion_verdict": verdict,
        "shimura.admissibility_report": report,
        "exact.primes_up_to@quartic": lambda primes: _CountedPrimes(primes, tracer),
    }


def install(tracer: Tracer) -> None:
    """Wrap the cross-module bindings of every shimsurf module, and of the
    package namespace the benchmark calls through."""
    hooks = _result_hooks(tracer)
    modules = {"shimsurf": importlib.import_module("shimsurf")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"shimsurf.{layer}")

    def wrapped(binding_layer: str, fn):
        name = f"{_home_layer(fn)}.{fn.__name__}"
        return tracer.wrap(name, fn, hooks.get(f"{name}@{binding_layer}") or hooks.get(name))

    def crosses(binding_layer: str, value) -> bool:
        home = _home_layer(value) if _is_function(value) else None
        return home is not None and home != binding_layer and value.__name__ not in _UNWRAPPED

    for binding_layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if crosses(binding_layer, value):
                setattr(module, attr, wrapped(binding_layer, value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if crosses(binding_layer, v):
                        value[k] = wrapped(binding_layer, v)
    for layer, names in _INTERNAL.items():
        for attr in names:
            setattr(modules[layer], attr, wrapped(layer, getattr(modules[layer], attr)))
    for layer, cls_name, method in _METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{method}", getattr(cls, method)))


def cache_counts() -> dict[str, list[int]]:
    """[hits, misses] of the program's two lru caches, from ``cache_info()``."""
    from shimsurf import exact, quadfield

    return {
        "is_prime": list(exact.is_prime.cache_info()[:2]),
        "bernoulli2": list(quadfield.bernoulli2.cache_info()[:2]),
    }


# Per-layer metrics of the traced run: (name, unit).  Counts and self
# times are per operation; a ratio's base is the count listed with it.
PER_LAYER = (
    ("exact.self_s", "s/op"), ("exact.calls", "count/op"),
    ("exact.kronecker.calls", "count/op"), ("exact.factorize.calls", "count/op"),
    ("exact.is_prime.lookups", "count/op"), ("exact.is_prime.hit_ratio", "ratio"),
    ("polymod.self_s", "s/op"), ("polymod.calls", "count/op"), ("polymod.factorizations", "count/op"),
    ("quadfield.self_s", "s/op"), ("quadfield.calls", "count/op"),
    ("quadfield.bernoulli2.self_s", "s/op"), ("quadfield.bernoulli2.lookups", "count/op"),
    ("quadfield.bernoulli2.misses", "count/op"), ("quadfield.bernoulli2.hit_ratio", "ratio"),
    ("quartic.self_s", "s/op"), ("quartic.zeta.self_s", "s/op"),
    ("quartic.field.self_s", "s/op"), ("quartic.primes_scanned", "count/op"),
    ("torsion.self_s", "s/op"), ("torsion.verdicts", "count/op"),
    ("torsion.decided_ratio", "ratio"), ("torsion.gamma1.calls", "count/op"),
    ("shimura.self_s", "s/op"), ("shimura.reports", "count/op"), ("shimura.refused", "count/op"),
    ("shimura.admissible_ratio", "ratio"), ("shimura.euler_recognized_ratio", "ratio"),
    ("geometry.self_s", "s/op"), ("geometry.calls", "count/op"),
    ("search.enumerate.self_s", "s/op"), ("search.prune.self_s", "s/op"),
    ("search.compare.self_s", "s/op"), ("search.rows_enumerated", "count/op"),
    ("search.rows_candidate", "count/op"), ("search.extras", "count/op"),
    ("cli.self_s", "s/op"), ("cli.calls", "count/op"),
    ("trace.overhead_ratio", "ratio"),
)


def merge(total: dict, part: dict) -> None:
    """Add one snapshot (or cache count table) into a running total."""
    for key, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            old = total.setdefault(key, [0] * len(value))
            total[key] = [a + b for a, b in zip(old, value)]
        else:
            total[key] = total.get(key, 0) + value


def layer_metrics(snap: dict, caches: dict, ops: int, overhead: float) -> dict[str, float]:
    """The PER_LAYER figures from a merged snapshot over ``ops`` operations."""
    self_s, calls = snap.get("self_s", {}), snap.get("calls", {})
    refused, counts = snap.get("refused", {}), snap.get("counts", {})

    def layer_sum(table: dict, layer: str) -> float:
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    done = calls.get("shimura.admissibility_report", 0) - refused.get("shimura.admissibility_report", 0)
    is_prime_hits, is_prime_misses = caches.get("is_prime", [0, 0])
    b2_hits, b2_misses = caches.get("bernoulli2", [0, 0])
    raw = {
        "exact.kronecker.calls": calls.get("exact.kronecker", 0),
        "exact.factorize.calls": calls.get("exact.factorize", 0),
        "exact.is_prime.lookups": is_prime_hits + is_prime_misses,
        "polymod.factorizations": calls.get("polymod.poly_factor_mod_p", 0),
        "quadfield.bernoulli2.self_s": self_s.get("quadfield.bernoulli2", 0.0),
        "quadfield.bernoulli2.lookups": b2_hits + b2_misses,
        "quadfield.bernoulli2.misses": b2_misses,
        "quartic.zeta.self_s": self_s.get("quartic.zeta2_euler_product", 0.0),
        "quartic.field.self_s": self_s.get("quartic.quartic_new", 0.0),
        "quartic.primes_scanned": counts.get("quartic.primes_scanned", 0),
        "torsion.verdicts": counts.get("torsion.verdicts", 0),
        "torsion.gamma1.calls": calls.get("torsion.gamma1_torsion_orders", 0),
        "shimura.reports": calls.get("shimura.admissibility_report", 0),
        "shimura.refused": layer_sum(refused, "shimura"),
        "search.enumerate.self_s": self_s.get("search.enumerate_candidates", 0.0),
        "search.prune.self_s": self_s.get("search.prune_by_torsion", 0.0),
        "search.compare.self_s": self_s.get("search.compare_to_reference", 0.0),
        "search.rows_enumerated": counts.get("search.rows_enumerated", 0),
        "search.rows_candidate": counts.get("search.rows_candidate", 0),
        "search.extras": counts.get("search.extras", 0),
    }
    for layer in LAYERS:
        raw[f"{layer}.self_s"] = layer_sum(self_s, layer)
        raw[f"{layer}.calls"] = layer_sum(calls, layer)
    out = {name: value / ops for name, value in raw.items()}
    out.update({
        "exact.is_prime.hit_ratio": ratio(is_prime_hits, is_prime_hits + is_prime_misses),
        "quadfield.bernoulli2.hit_ratio": ratio(b2_hits, b2_hits + b2_misses),
        "torsion.decided_ratio": ratio(counts.get("torsion.decided", 0), counts.get("torsion.verdicts", 0)),
        "shimura.admissible_ratio": ratio(counts.get("shimura.admissible", 0), done),
        "shimura.euler_recognized_ratio": ratio(counts.get("shimura.euler_recognized", 0), done),
        "trace.overhead_ratio": overhead,
    })
    return {name: out[name] for name, _ in PER_LAYER}
