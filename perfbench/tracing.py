"""Span tracing of antimorph's layers from outside the package.

`Tracer.install()` wraps the public module-level functions of each layer
module (plus `cli.Registry.__init__` and the cached corpus builders) and
patches every antimorph module namespace that imported them by name. Each
call records one span: name, start, end, parent span and the id of the
query or section that was current when it started. Spans live in flat
arrays while the run lasts and are written out once at the end.

Self time is a span's duration minus the time its child spans cover.
Nothing runs concurrently, so child spans nest strictly inside parents.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# the layers, named after the antimorph modules they trace
LAYERS = ("cli", "suite", "categories", "semilinear", "morphisms", "theorems",
          "groups", "rings", "formats", "reports", "kernels", "corpus")

# Inner helpers called 100k+ times per full report. Wrapping them would
# multiply the span count several times over; their time stays in the self
# time of the wrapped caller, which is in the same layer.
HOT_HELPERS = {
    "categories.compose_functors", "categories.compose_factorable",
    "categories.functor_witness", "categories.factorable_witness",
    "categories.induced_an_map", "semilinear.mat_mul",
    "semilinear.corresponding_twisted", "semilinear.maps_equal",
}

CORPUS_BUILDERS = ("group_corpus", "ring_corpus", "category_corpus")

SECTIONS = (
    "variance_table_reports", "correspondence_reports",
    "endomorphism_monoid_report", "star_monoid_reports",
    "reconstruction_reports", "morphism_property_reports",
    "theorem_instance_reports", "audit_reports", "semilinear_reports",
    "category_reports",
)

VERIFIERS = (
    "verify_anti_factorization", "verify_anti_hom_theorem",
    "verify_second_anti_iso", "verify_third_anti_iso",
    "verify_abelian_collapse", "verify_subring_and_transport",
    "verify_groups_vs_star_category",
)


def _pairs(args, result):
    return len(args[4]) * len(args[5])


def _maps_scanned(args, result):
    return args[1] ** args[0]


def _emitted_bytes(args, result):
    return len(result.encode("utf-8"))


def _records(args, result):
    return len(result)


def _enum_key(args, result):
    a, b, variance = args[0], args[1], args[2]
    tables = (a.cayley, b.cayley) if hasattr(a, "cayley") else (a.add, a.mul, b.add, b.mul)
    return (tables, variance)


def _lift_key(args, result):
    return (args[0].key(), args[1].name, args[2].name)


# name -> (counter name, fn(positional args, result) -> amount)
AMOUNTS = {
    "kernels.compose_classify_pairs": ("pairs", _pairs),
    "kernels.scan_morphism_space": ("maps_scanned", _maps_scanned),
    "reports.emit_records": ("bytes", _emitted_bytes),
    "reports.records_from_report": ("records", _records),
}
# name -> fn(positional args, result) -> hashable key; counts distinct calls
DISTINCT = {
    "morphisms.enumerate_morphisms": _enum_key,
    "categories.make_factorable": _lift_key,
}


class Tracer:
    """Records spans; names in `units` start a new query id when entered."""

    def __init__(self, units=()):
        self.units = set(units)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.qid = array("i")
        self.outer = array("b")   # 1 when no enclosing span has the same name
        self.queries: list[str] = []
        self.current_qid = -1
        self.amounts: dict[tuple, int] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin_query(self, label: str) -> None:
        self.queries.append(label)
        self.current_qid = len(self.queries) - 1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        amount = AMOUNTS.get(name)
        distinct_key = DISTINCT.get(name)
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        name_id, start, end = self.name_id, self.start, self.end
        parent, qid, outer = self.parent, self.qid, self.outer
        tracer = self
        is_unit = name in self.units

        def traced(*args, **kwargs):
            if is_unit:
                tracer.begin_query(name)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            qid.append(tracer.current_qid)
            depth = active.get(nid, 0)
            outer.append(1 if depth == 0 else 0)
            active[nid] = depth + 1
            stack.append(idx)
            end.append(0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] = depth
            if amount is not None:
                key = (name, amount[0])
                tracer.amounts[key] = tracer.amounts.get(key, 0) + amount[1](args, result)
            if distinct_key is not None:
                tracer.distinct.setdefault(name, set()).add(distinct_key(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and patch all antimorph namespaces that
        hold it."""
        modules = {m: importlib.import_module(f"antimorph.{m}") for m in LAYERS}
        all_modules = [mod for name, mod in sys.modules.items()
                       if name == "antimorph" or name.startswith("antimorph.")]
        replacements = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                name = f"{short}.{attr}"
                own_function = (inspect.isfunction(value)
                                 and value.__module__ == mod.__name__)
                cached_builder = short == "corpus" and attr in CORPUS_BUILDERS
                if name in HOT_HELPERS or not (own_function or cached_builder):
                    continue
                replacements[id(value)] = (value, self.wrap(name, value))
        for mod in all_modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        registry = modules["cli"].Registry
        init = registry.__init__
        self._patches.append((registry, "__init__", init))
        registry.__init__ = self.wrap("cli.Registry", init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_id)

    def write(self, path: Path) -> None:
        """Write spans as a JSON header plus the raw arrays, in one file."""
        header = {
            "names": self.names,
            "queries": self.queries,
            "spans": self.span_count(),
            "arrays": [["name_id", "i"], ["start_ns", "q"], ["end_ns", "q"],
                       ["parent", "i"], ["qid", "i"], ["outer", "b"]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode("utf-8")
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.name_id, self.start, self.end, self.parent,
                        self.qid, self.outer):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-name inclusive and self seconds, calls, and recorded amounts."""
        n = self.span_count()
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per_name = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0}
                    for name in self.names}
        names, name_id, outer = self.names, self.name_id, self.outer
        for i in range(n):
            rec = per_name[names[name_id[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_ns"] += dur - child[i]
            if outer[i]:
                rec["incl_ns"] += dur
        for (name, counter), value in self.amounts.items():
            per_name[name][counter] = value
        for name, keys in self.distinct.items():
            per_name[name]["distinct"] = len(keys)
        return per_name


def layer_metrics(per_name: dict) -> dict:
    """The per-layer metrics the benchmark reports, from `Tracer.summary()`."""
    def get(name, field="incl_ns"):
        return per_name.get(name, {}).get(field, 0)

    def secs(name):
        return get(name) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        self_ns = sum(rec["self_ns"] for name, rec in per_name.items()
                      if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_ns / 1e9, "s")
    for section in SECTIONS:
        out[f"suite.{section}.s"] = (secs(f"suite.{section}"), "s")
    out["suite.records"] = (get("reports.records_from_report", "records"), "count")

    out["categories.adjunction_report.s"] = (secs("categories.adjunction_report"), "s")
    lifts = get("categories.make_factorable", "calls")
    lifts_distinct = get("categories.make_factorable", "distinct")
    out["categories.make_factorable.calls"] = (lifts, "count")
    out["categories.make_factorable.distinct"] = (lifts_distinct, "count")
    out["categories.lift_reuse"] = (ratio(lifts_distinct, lifts), "ratio")
    out["categories.enumerate_functors.calls"] = (get("categories.enumerate_functors", "calls"), "count")

    out["semilinear.bifunctor_grid_report.s"] = (secs("semilinear.bifunctor_grid_report"), "s")
    out["semilinear.generalized_suite.s"] = (secs("semilinear.generalized_suite"), "s")
    out["semilinear.compose_semilinear.calls"] = (get("semilinear.compose_semilinear", "calls"), "count")

    enum = "morphisms.enumerate_morphisms"
    out[f"{enum}.s"] = (secs(enum), "s")
    out[f"{enum}.calls"] = (get(enum, "calls"), "count")
    out[f"{enum}.distinct"] = (get(enum, "distinct"), "count")
    out[f"{enum}.useful_ratio"] = (ratio(get(enum, "distinct"), get(enum, "calls")), "ratio")
    out["morphisms.brute_force_tables.s"] = (secs("morphisms.brute_force_tables"), "s")
    out["morphisms.factorization_classes.s"] = (secs("morphisms.factorization_classes"), "s")
    out["morphisms.pointwise_ring_audit.s"] = (secs("morphisms.pointwise_ring_audit"), "s")

    out["kernels.compose_classify_pairs.s"] = (secs("kernels.compose_classify_pairs"), "s")
    out["kernels.compose_classify_pairs.pairs"] = (get("kernels.compose_classify_pairs", "pairs"), "count")
    out["kernels.scan_morphism_space.s"] = (secs("kernels.scan_morphism_space"), "s")
    out["kernels.scan_morphism_space.maps_scanned"] = (get("kernels.scan_morphism_space", "maps_scanned"), "count")
    out["kernels.associativity_witness.s"] = (secs("kernels.associativity_witness"), "s")
    out["kernels.associativity_witness.calls"] = (get("kernels.associativity_witness", "calls"), "count")

    out["cli.Registry.s"] = (secs("cli.Registry"), "s")
    out["cli.build_parser.s"] = (secs("cli.build_parser"), "s")
    out["formats.load_path.s"] = (secs("formats.load_path"), "s")
    out["formats.load_path.calls"] = (get("formats.load_path", "calls"), "count")
    out["groups.validate_group.s"] = (secs("groups.validate_group"), "s")
    out["groups.validate_group.calls"] = (get("groups.validate_group", "calls"), "count")

    for verifier in VERIFIERS:
        out[f"theorems.{verifier}.s"] = (secs(f"theorems.{verifier}"), "s")

    out["rings.validate_ring.s"] = (secs("rings.validate_ring"), "s")
    out["reports.emit_records.s"] = (secs("reports.emit_records"), "s")
    out["reports.emit_records.bytes"] = (get("reports.emit_records", "bytes"), "bytes")
    out["corpus.build.s"] = (sum(secs(f"corpus.{b}") for b in CORPUS_BUILDERS), "s")
    return out
