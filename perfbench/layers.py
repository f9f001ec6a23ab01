"""Which sympgen callables the traced run wraps, and the per-layer metrics.

Every public function of the modules in MODULES is wrapped under the span
name ``<module>.<function>``, in every namespace that bound it at import
(``claims.element_order`` and ``grouporder.element_order`` are separate
bindings of one function; both calls are traced).  A few methods are wrapped
on their class under a layer name of their own (METHODS).

PER_LAYER lists the metrics a traced run reports, each with the end-to-end
metric and workload it should move.  BENCHMARK.json's ``per_layer`` mirrors
its names, units and directions.
"""

from __future__ import annotations

import importlib
import sys
import types

from spans import Tracer

MODULES = ("gf", "poly", "matrix", "factorint", "construct", "grouporder",
           "claims", "cli")

_ELIM = "matrix.elim"
# (module, class, method) -> span name
METHODS = {
    ("gf", "FieldCtx", "__init__"): "gf.field_init",
    ("poly", "Poly", "powmod"): "poly.powmod",
    ("matrix", "Mat", "__init__"): "matrix.new",
    ("matrix", "Mat", "__mul__"): "matrix.mul",
    ("matrix", "Mat", "__pow__"): "matrix.pow",
    ("matrix", "Mat", "kernel"): _ELIM,
    ("matrix", "Mat", "rank"): _ELIM,
    ("matrix", "Mat", "inverse"): _ELIM,
    ("matrix", "Mat", "det"): _ELIM,
    ("matrix", "Mat", "solve"): _ELIM,
}


def _madds(result, a, b):
    """rows * inner * cols of a matrix product (0 for a scalar multiple)."""
    return a.rows * a.cols * b.cols if hasattr(b, "cols") else 0


def _squarings(result, m, e):
    """Squarings done by square-and-multiply for a non-negative exponent.

    A negative exponent inverts and recurses into a non-negative one,
    which is counted there.
    """
    return e.bit_length() if e >= 0 else 0


def _elements(result, *args, **kwargs):
    return result if isinstance(result, int) else 0


# span name -> (stat name, per-call work count)
WORK = {"matrix.mul": ("madds", _madds), "matrix.pow": ("squarings", _squarings),
        "grouporder.closure_bfs": ("elements", _elements)}

# cache name -> (module, lru-cached function) whose cache_info() gives hits
CACHES = {"gf.standard_field": ("gf", "standard_field"),
          "factorint.q_pow_minus_one": ("factorint", "factor_q_pow_minus_one")}

# span or cache name -> (stats, what it should move)
_LAYERS = {
    "gf.field_init": (("calls", "s"), "fields wall_s and peak_rss_mb"),
    "gf.standard_field": (("hit_ratio",), "fields wall_s"),
    "gf.mult_order": (("calls", "s"), "fields wall_s"),
    "gf.subfield_degree": (("calls", "s"), "fields wall_s"),
    "poly.factor": (("calls", "s", "self_s"), "certify and orders wall_s"),
    "poly.powmod": (("calls", "s"), "certify and orders wall_s"),
    "poly.is_irreducible": (("calls", "s"), "identities wall_s"),
    "matrix.mul": (("calls", "s", "self_s", "madds"),
                   "certify wall_s (large dims) and orders wall_s (tiny dims)"),
    "matrix.new": (("calls", "s"),
                   "certify wall_s (large dims) and orders wall_s (tiny dims)"),
    "matrix.pow": (("calls", "s", "squarings"), "certify wall_s"),
    "matrix.char_poly": (("calls", "s"), "identities wall_s"),
    "matrix.elim": (("calls", "s"), "identities wall_s"),
    "matrix.eigenspace": (("calls", "s"), "identities wall_s"),
    "matrix.similarity_invariants": (("calls", "s"), "identities wall_s"),
    "factorint.q_pow_minus_one": (("hit_ratio",), "certify wall_s"),
    "factorint.multiplicative_order": (("calls", "s"), "certify wall_s"),
    "grouporder.element_order": (("calls", "s", "self_s"),
                                 "certify and orders wall_s"),
    "grouporder.lps_certificate": (("calls", "s"), "certify wall_s"),
    "grouporder.closure_bfs": (("calls", "s", "elements"), "orders wall_s"),
    "construct.build": (("calls", "s"), "certify and identities wall_s"),
    "construct.tau_of": (("calls", "s"), "identities wall_s"),
    "claims.certify_pair": (("calls", "s"), "certify wall_s"),
    "claims.eval_word": (("calls", "s"), "certify wall_s"),
    "claims.run_claim": (("calls", "s"), "identities wall_s"),
    "claims.quadratic_form_obstruction": (("calls", "s"),
                                          "certify and identities wall_s"),
    "claims.search_parameter": (("calls", "s", "self_s"), "fields wall_s"),
    "cli.main": (("calls", "s"), "wall_s of certify, identities and fields"),
}

_UNIT = {"calls": "count", "madds": "count", "squarings": "count",
         "elements": "count", "s": "s", "self_s": "s", "hit_ratio": "ratio"}

# (metric name, unit, better, what it should move)
PER_LAYER = [(f"{layer}.{stat}", _UNIT[stat],
              "higher" if stat == "hit_ratio" else "lower", moves)
             for layer, (stats, moves) in _LAYERS.items() for stat in stats]
PER_LAYER.append(("trace.overhead", "ratio", "lower",
                  "none: traced wall_ref / untraced wall_ref of the workload"))


def _sympgen_modules():
    return [m for name, m in sys.modules.items()
            if name == "sympgen" or name.startswith("sympgen.")]


def _public_callables(mod):
    """Public functions (lru-cached ones too) defined in the module itself."""
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        fn = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            yield name, obj


def install(tracer: Tracer):
    """Wrap sympgen's public functions and the METHODS.

    Returns the CACHES' lru-cached functions, whose cache_info() the
    report reads.
    """
    mods = {short: importlib.import_module(f"sympgen.{short}") for short in MODULES}
    caches = {name: getattr(mods[short], fn) for name, (short, fn) in CACHES.items()}
    namespaces = _sympgen_modules()
    for short, mod in mods.items():
        for name, obj in list(_public_callables(mod)):
            span = f"{short}.{name}"
            wrapped = tracer.wrap(span, obj, WORK.get(span, (None, None))[1])
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, attr, wrapped)
    for (short, cls_name, meth), span in METHODS.items():
        cls = getattr(mods[short], cls_name)
        if meth in vars(cls):  # a removed method reports zero calls
            work = WORK.get(span, (None, None))[1]
            setattr(cls, meth, tracer.wrap(span, vars(cls)[meth], work))
    return caches


def hit_ratio(cache) -> float:
    info = cache.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(stats: dict, ratios: dict, overhead: float) -> dict:
    """PER_LAYER values from aggregated spans and cache hit ratios."""
    out = {}
    for name, unit, _better, _moves in PER_LAYER:
        if name == "trace.overhead":
            value = overhead
        else:
            layer, stat = name.rsplit(".", 1)
            if stat == "hit_ratio":
                value = ratios[layer]
            else:
                rec = stats.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
                value = rec["work"] if stat == WORK.get(layer, (None,))[0] else rec[stat]
        out[name] = {"value": value, "unit": unit}
    return out
