"""Outside-in tracing: spans around the public functions of each layer.

Nothing in ``cuntz`` is edited.  ``Tracer.install`` replaces each listed
function or method with a wrapper that records a span (name, start, end,
parent) and counts taken from the operands and result at the call
boundary.  A function imported by value into another module (for example
``sweep_first_failure`` in ``cuntz.rfs`` and ``cuntz.parafermion``, or
``rep_apply`` in ``cuntz.parafermion`` and ``cuntz.cli``) is rebound in
every ``cuntz`` module that holds it, so calls made through those names
are traced too.  ``uninstall`` restores the originals.

Jobs run one at a time in one thread, so spans nest properly and a span's
self time is its duration minus the durations of its direct children.
Spans are kept in flat arrays in memory; ``reset`` clears them between
passes and ``write`` writes out those of the last pass at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# Layer name -> the (module, qualified name) it wraps.  A method is named
# ``Class.method`` and patched on its class.
LAYERS = {
    "algebra.mul": [("cuntz.algebra", "Element.__mul__")],
    "algebra.add": [("cuntz.algebra", "Element.__add__")],
    "algebra.equals": [("cuntz.algebra", "Element.equals")],
    "algebra.normal_form": [("cuntz.algebra", "Element.normal_form")],
    "endomorphisms.apply": [("cuntz.endomorphisms", "Endomorphism.apply")],
    "rfs.zeta_apply": [("cuntz.rfs", "RecursiveMap.apply")],
    "rfs.verify": [("cuntz.rfs", name) for name in (
        "verify_seed_condition", "verify_recursive_condition", "verify_normalization",
        "verify_car", "verify_all", "validate_system")],
    "parafermion.verify": [("cuntz.parafermion", name) for name in (
        "verify_green_seed", "verify_green_recursive", "verify_green_normalization",
        "verify_cross_commutation", "verify_green_relations", "verify_trilinear",
        "verify_spectrum_polynomial", "verify_parafermion_vacuum", "verify_parafermion",
        "verify_klein_identities", "validate_green_system")],
    "parafermion.klein_factor": [("cuntz.parafermion", "klein_factor")],
    "reports.sweep": [("cuntz.reports", "sweep_first_failure")],
    "representation.rep_apply": [("cuntz.representation", "rep_apply")],
    "serialize.load": [("cuntz.serialize", name) for name in (
        "system_from_spec", "endomorphism_from_spec", "element_from_dict",
        "vector_from_dict")],
    "serialize.dump": [("cuntz.serialize", "element_to_dict"),
                       ("cuntz.serialize", "vector_to_dict"),
                       ("cuntz.reports", "Report.to_json_lines")],
    "cli.main": [("cuntz.cli", "main")],
}

# Layers whose result size is recorded as ``<layer>.out_terms``.
OUT_TERMS = ("algebra.mul", "algebra.normal_form", "endomorphisms.apply",
             "rfs.zeta_apply", "representation.rep_apply")
# Layers whose results count towards ``algebra.max_terms``.
MAX_TERMS = ("algebra.mul", "algebra.add", "algebra.normal_form",
             "endomorphisms.apply", "rfs.zeta_apply")
CALLS = ("algebra.mul", "algebra.add", "algebra.equals", "algebra.normal_form",
         "endomorphisms.apply", "rfs.zeta_apply", "representation.rep_apply")

# Every per-layer metric a traced run computes; the run record lists them all.
METRICS = (
    [f"{layer}.calls" for layer in CALLS]
    + [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.out_terms" for layer in OUT_TERMS]
    + ["algebra.mul.term_pairs", "algebra.mul.yield", "algebra.equals.raised",
       "algebra.normal_form.in_terms", "algebra.max_terms", "reports.sweep.candidates",
       "trace.self_sum_s"]
)

# The per-layer metrics of the result line (BENCHMARK.json "per_layer"):
# every count, and the self times of the layers that every workload enters.
# The self time of a layer a workload never enters is exactly 0 on every
# run, so it stays in the run record only.
PER_LAYER = (
    [name for name in METRICS if not name.endswith("_s")]
    + [f"{layer}.self_s" for layer in ("algebra.mul", "algebra.add", "algebra.equals",
                                       "algebra.normal_form", "serialize.load",
                                       "serialize.dump")]
    + ["trace.overhead_s"]
)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; wrappers keep writing to the same arrays."""
        for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del column[:]
        self._stack[:] = [-1]
        self.counts.clear()
        for key in ("algebra.mul.term_pairs", "algebra.normal_form.in_terms",
                    "reports.sweep.candidates", "algebra.max_terms"):
            self.counts[key] = 0
        for layer in OUT_TERMS:
            self.counts[f"{layer}.out_terms"] = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        layer_id = self.names.index(layer)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        out_key = f"{layer}.out_terms" if layer in OUT_TERMS else None
        track_max = layer in MAX_TERMS
        is_mul = layer == "algebra.mul"
        is_nf = layer == "algebra.normal_form"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(layer_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if result is NotImplemented:
                return result
            if is_mul and hasattr(args[1], "terms"):
                counts["algebra.mul.term_pairs"] += len(args[0]) * len(args[1])
            elif is_nf:
                counts["algebra.normal_form.in_terms"] += len(args[0])
            if out_key is not None:
                counts[out_key] += len(result)
            if track_max and len(result) > counts["algebra.max_terms"]:
                counts["algebra.max_terms"] = len(result)
            return result

        if layer != "reports.sweep":
            return traced

        def sweep(predicate, items, *args, **kwargs):
            scanned = [0]

            def counted(item):
                scanned[0] += 1
                return predicate(item)

            try:
                return traced(counted, items, *args, **kwargs)
            finally:
                counts["reports.sweep.candidates"] += scanned[0]

        return sweep

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cuntz" or name.startswith("cuntz.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(layer, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        equals_id = self.names.index("algebra.equals")
        nf_id = self.names.index("algebra.normal_form")
        raised = 0
        for i in range(n):
            layer_id = self.span_name[i]
            calls[layer_id] += 1
            self_s[layer_id] += self.span_end[i] - self.span_start[i] - child[i]
            parent = self.span_parent[i]
            if layer_id == nf_id and parent >= 0 and self.span_name[parent] == equals_id:
                raised += 1
        out = dict(self.counts)
        for layer_id, layer in enumerate(self.names):
            out[f"{layer}.self_s"] = self_s[layer_id]
            if layer in CALLS:
                out[f"{layer}.calls"] = calls[layer_id]
        pairs = out["algebra.mul.term_pairs"]
        out["algebra.mul.yield"] = out["algebra.mul.out_terms"] / pairs if pairs else 0.0
        out["algebra.equals.raised"] = raised
        out["trace.self_sum_s"] = sum(self_s)
        return out

    def write(self, path: str):
        """Write the recorded spans, one column per field, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, handle)
