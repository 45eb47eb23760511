"""Traced mode: spans and counters around edimkit's layer boundaries.

Everything lives in the benchmark; edimkit is not modified.  `Tracer.install`
rebinds each listed function wherever it is bound: on its class, in its
defining module, and at every `from ... import` site inside edimkit (for
example `engine.rdim` and `cli.character_table`).  `uninstall` restores the
originals, so traced and untraced passes can alternate in one process.

A span records name, start, end, parent span and query id in flat arrays
kept in memory; `dump` writes them out when the run ends.  Self time is a
span's duration minus the durations of its child spans (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path); each becomes a span
SPANS = [
    ("cli", "edimkit.cli", "main"),
    ("named.group_from_json", "edimkit.named", "group_from_json"),
    ("groups.from_generators", "edimkit.groups", "from_generators"),
    ("groups.direct_product", "edimkit.groups", "direct_product"),
    ("groups.conjugacy_classes", "edimkit.groups", "FiniteGroup.conjugacy_classes"),
    ("groups.fingerprint", "edimkit.groups", "FiniteGroup.fingerprint"),
    ("groups.feet", "edimkit.groups", "FiniteGroup.feet"),
    ("groups.socle", "edimkit.groups", "FiniteGroup.socle"),
    ("groups.normal_closure", "edimkit.groups", "FiniteGroup.normal_closure"),
    ("groups.subgroup_closure", "edimkit.groups", "FiniteGroup.subgroup_closure"),
    ("groups.center", "edimkit.groups", "FiniteGroup.center"),
    ("groups.commutator_subgroup", "edimkit.groups", "FiniteGroup.commutator_subgroup"),
    ("groups.quotient", "edimkit.groups", "FiniteGroup.quotient"),
    ("groups.as_group", "edimkit.groups", "Subgroup.as_group"),
    ("fields.k_center", "edimkit.fields", "k_center"),
    ("chartab.character_table", "edimkit.chartab", "character_table"),
    ("chartab.verify_orthogonality", "edimkit.chartab", "CharacterTable.verify_orthogonality"),
    ("chartab.deserialize", "edimkit.chartab", "CharacterTable.deserialize"),
    ("chartab.serialize", "edimkit.chartab", "CharacterTable.serialize"),
    ("chartab.cache_load", "edimkit.chartab", "_cache_load"),
    ("chartab.cache_store", "edimkit.chartab", "_cache_store"),
    ("chartab.kernel", "edimkit.chartab", "kernel"),
    ("chartab.gcd_min_condition", "edimkit.chartab", "gcd_min_condition"),
    ("chartab.all_central_characters", "edimkit.chartab", "all_central_characters"),
    ("repdim.rdim", "edimkit.repdim", "rdim"),
    ("repdim.rdim.path_A", "edimkit.repdim", "_rdim_path_a"),
    ("repdim.rdim.path_B", "edimkit.repdim", "_rdim_path_b"),
    ("repdim.rdim.path_C", "edimkit.repdim", "_rdim_path_c"),
    ("repdim.restriction_data", "edimkit.repdim", "restriction_data"),
    ("repdim.minimal_basis", "edimkit.repdim", "minimal_basis"),
    ("repdim.min_components", "edimkit.repdim", "min_components"),
    ("repdim.central_ext_rdim", "edimkit.repdim", "central_ext_rdim"),
    ("abelian.structure", "edimkit.abelian", "structure"),
    ("abelian.submodule_span", "edimkit.abelian", "submodule_span"),
    ("abelian.dual_module", "edimkit.abelian", "dual_module"),
    ("snf.smith_normal_form", "edimkit.snf", "smith_normal_form"),
    ("engine.edim", "edimkit.engine", "edim"),
    ("engine.covdim", "edimkit.engine", "covdim"),
    ("engine.factstore_lookup", "edimkit.engine", "FactStore.lookup"),
    ("mhom.homogenize", "edimkit.mhom", "homogenize"),
    ("mhom.weight_decompose", "edimkit.mhom", "weight_decompose"),
    ("mhom.degree_matrix", "edimkit.mhom", "degree_matrix"),
    ("mhom.matrix_rank", "edimkit.mhom", "matrix_rank"),
    ("mhom.map_from_json", "edimkit.mhom", "map_from_json"),
]

# hot arithmetic: counted, not timed (a span per call would dwarf the work)
COUNTS = [
    ("cyclo.mul", "edimkit.cyclo", "Cyclotomic.__mul__"),
    ("cyclo.add", "edimkit.cyclo", "Cyclotomic.__add__"),
    ("poly.mul", "edimkit.poly", "Polynomial.__mul__"),
]

# layers whose self time is shared out in the design check
LAYERS = ("cli", "named", "groups", "fields", "chartab", "repdim", "abelian",
          "snf", "engine", "mhom")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.depth = array("i")     # same-name spans open at entry
        self.counts: Counter = Counter()
        self.query_id = -1
        self.paused = False
        self._stack: list[int] = []
        self._open: list[int] = []
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, post=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._open.append(0)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.query.append(tr.query_id)
            tr.depth.append(tr._open[nid])
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr._open[nid] += 1
            t0 = perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr._open[nid] -= 1
                tr._stack.pop()
            if post is not None:
                post(result, *args, **kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- cache observers --------------------------------------------------

    def _cache_size(self, g, cache_dir):
        chartab = sys.modules["edimkit.chartab"]
        self.paused = True
        try:
            path = chartab._cache_path(g, cache_dir)
        finally:
            self.paused = False
        return path.stat().st_size if path.exists() else 0

    def _after_load(self, result, g, cache_dir):
        if result is None:
            self.counts["chartab.cache_misses"] += 1
        else:
            self.counts["chartab.cache_hits"] += 1
            self.counts["chartab.cache_bytes_read"] += self._cache_size(g, cache_dir)

    def _after_store(self, result, g, table, cache_dir):
        self.counts["chartab.cache_bytes_written"] += self._cache_size(g, cache_dir)

    # -- installation -----------------------------------------------------

    def install(self):
        posts = {"chartab.cache_load": self._after_load,
                 "chartab.cache_store": self._after_store}
        for metric, modname, path in SPANS + COUNTS:
            mod = importlib.import_module(modname)
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if (metric, modname, path) in COUNTS:
                wrapped = self._counter(metric, func)
            else:
                wrapped = self._span(metric, func, posts.get(metric))
            if isinstance(owner, type):
                # class attribute and its aliases (__radd__ = __add__)
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._rebind(owner, key, raw, new)
            else:
                for name, module in list(sys.modules.items()):
                    if name == "edimkit" or name.startswith("edimkit."):
                        for key, value in list(vars(module).items()):
                            if value is func:
                                self._rebind(module, key, func, wrapped)

    def _rebind(self, owner, key, old, new):
        self._restore.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "query": np.frombuffer(self.query, dtype=np.int32),
            "depth": np.frombuffer(self.depth, dtype=np.int32),
        }

    def dump(self, path, query_ids):
        np.savez_compressed(path, names=np.array(self.names),
                            queries=np.array(query_ids), **self.arrays())

    def summary(self, passes):
        """Per-layer metrics, per pass over the pool."""
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        outer = a["depth"] == 0     # recursion counted once in total_s
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=np.where(outer, dur, 0.0), minlength=n)
        own = np.bincount(a["name"], weights=self_time, minlength=n)
        m = {}
        for i, name in enumerate(self.names):
            m[f"{name}.calls"] = calls[i] / passes
            m[f"{name}.total_s"] = total[i] / passes
            m[f"{name}.self_s"] = own[i] / passes
        for name, c in self.counts.items():
            m[f"{name}.calls" if name in ("cyclo.mul", "cyclo.add", "poly.mul")
              else name] = c / passes
        edim = self.name_id.get("engine.edim")
        depth = a["depth"][a["name"] == edim] if edim is not None else a["depth"][:0]
        m["engine.edim.calls_nested"] = int((depth >= 1).sum()) / passes
        m["engine.edim.max_depth"] = int(depth.max()) if len(depth) else 0
        hits = m.get("chartab.cache_hits", 0.0)
        ct_calls = m.get("chartab.character_table.calls", 0.0)
        m["chartab.cache_hit_ratio"] = hits / ct_calls if ct_calls else 0.0
        root = total[self.name_id["cli"]] if "cli" in self.name_id else 0.0
        for layer in LAYERS:
            layer_self = sum(own[i] for i, name in enumerate(self.names)
                             if name.split(".")[0] == layer)
            m[f"share.{layer}.self_frac"] = layer_self / root if root else 0.0
        return m
