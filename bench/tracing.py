"""Spans and counters around kschur's public entry points.

The tracer is installed from outside the package: it replaces each
entry point, in every kschur module namespace that holds it, by a
wrapper that records one span (name, start, end, parent span, query
id).  Spans live in flat arrays in memory and are written out once, at
the end of the job.  Self time per span is its duration minus the part
covered by its child spans; a module's self time is the sum over the
spans named after it.

Cache hit ratios come from `cache_info()` deltas and the two module
counters (`schubert.eta_invalid_count`, `abctab.distance_zero_skips`)
from before/after deltas.  A cache or counter the library no longer has
is reported as absent, never as 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

MODULES = ("affine", "cores", "strips", "abctab", "tableaux", "tpoly", "symfun", "schubert", "cli")


def _len(out):
    return len(out)


def _nonzero_gw(out):
    return 1 if out else 0


# (module, function or Class.method, span name, items of the result).
# Spans that share a name are one metric; names without a metric still
# carry their module's self time, so it is not charged to the caller.
ENTRY_POINTS = [
    ("affine", "AffinePermutation.__mul__", "affine.mul", None),
    ("affine", "AffinePermutation.length", "affine.length", None),
    ("affine", "cyclically_decreasing_of_length", "affine.cd_elements", None),
    ("affine", "is_cyclically_decreasing", "affine.is_cd", None),
    ("affine", "from_word", "affine.from_word", None),
    ("affine", "reduced_word", "affine.reduced_word", None),
    ("affine", "transposition", "affine.transposition", None),
    ("cores", "NCore.__init__", "cores.ncore", None),
    ("cores", "strong_covers_up", "cores.covers", _len),
    ("cores", "strong_covers_down", "cores.covers", _len),
    ("cores", "c_map", "cores.c_map", None),
    ("cores", "c_inverse", "cores.c_inverse", None),
    ("cores", "core_of", "cores.core_of", None),
    ("cores", "a_map", "cores.a_map", None),
    ("cores", "act_s", "cores.act_s", None),
    ("cores", "core_to_word", "cores.core_to_word", None),
    ("cores", "cores_of_degree", "cores.cores_of_degree", None),
    ("cores", "rect_translation", "cores.rect_translation", None),
    ("cores", "w_core", "cores.w_core", None),
    ("strips", "horizontal_strong_strips_from", "strips.hss", _len),
    ("strips", "phi", "strips.phi", None),
    ("strips", "psi", "strips.psi", None),
    ("strips", "ribbon_strong_strips", "strips.ribbon", _len),
    ("strips", "col_r", "strips.col_r", None),
    ("strips", "marked_strong_covers", "strips.marked_strong_covers", None),
    ("strips", "marked_tail_strips", "strips.marked_tail_strips", None),
    ("strips", "strong_strips", "strips.strong_strips", None),
    ("abctab", "abc_counts", "abctab.counts", _len),
    ("abctab", "enumerate_abc", "abctab.enumerate", _len),
    ("abctab", "ABC.n_cocharge", "abctab.n_cocharge", None),
    ("abctab", "count_affine_factorizations", "abctab.factorizations", None),
    ("abctab", "count_abc", "abctab.count_abc", None),
    ("tableaux", "semistandard_tableaux", "tableaux.ssyt", _len),
    ("tableaux", "cocharge", "tableaux.cocharge", None),
    ("tableaux", "kostka_foulkes", "tableaux.kf", None),
    ("tableaux", "kostka_number", "tableaux.kostka_number", None),
    ("tpoly", "TPoly.__mul__", "tpoly.mul", None),
    ("tpoly", "TPoly.__rmul__", "tpoly.mul", None),
    ("tpoly", "TPoly.__add__", "tpoly.add", None),
    ("symfun", "kn1_matrix", "symfun.kn1", None),
    ("symfun", "kn_matrix", "symfun.kn", None),
    ("symfun", "kf_matrix", "symfun.kf_matrix", None),
    ("symfun", "kschur_to_h", "symfun.inverse", None),
    ("symfun", "kschur_to_h0t", "symfun.inverse", None),
    ("symfun", "ptilde_to_s", "symfun.inverse", None),
    ("symfun", "m_to_s", "symfun.inverse", None),
    ("symfun", "weak_kostka_foulkes", "symfun.weak_kf", None),
    ("symfun", "dual_kschur", "symfun.dual_kschur", None),
    ("symfun", "kschur", "symfun.kschur", None),
    ("symfun", "ptilde_in_m", "symfun.ptilde_in_m", None),
    ("symfun", "h0t_in_m", "symfun.h0t_in_m", None),
    ("symfun", "hall_pairing", "symfun.hall_pairing", None),
    ("symfun", "multiply", "symfun.multiply", None),
    ("schubert", "homology_structure_constants", "schubert.sc", _len),
    ("schubert", "gw_invariant", "schubert.gw", _nonzero_gw),
    ("schubert", "weak_pieri", "schubert.pieri", None),
    ("schubert", "horizontal_pieri", "schubert.pieri", None),
    ("schubert", "strong_pieri_cohomology", "schubert.pieri", None),
    ("schubert", "affine_monk_check", "schubert.affine_monk_check", None),
    ("schubert", "rect_pieri_check", "schubert.rect_pieri_check", None),
    ("schubert", "quantum_monk", "schubert.quantum_monk", None),
    ("schubert", "sh_map", "schubert.sh_map", None),
    ("cli", "main", "cli.main", None),
]

# metric prefix -> (module, cached function); several are summed
CACHES = {
    "affine.cd_elements": [("affine", "cyclically_decreasing_of_length")],
    "cores.covers": [("cores", "_covers_up"), ("cores", "_covers_down")],
    "cores.core_of": [("cores", "_core_of_window")],
    "strips.hss": [("strips", "_hss_from")],
    "abctab.counts": [("abctab", "abc_counts")],
    "abctab.factorizations": [("abctab", "_count_factorizations")],
    "tableaux.kf": [("tableaux", "kostka_foulkes")],
    "symfun.weak_kf": [("symfun", "weak_kostka_foulkes")],
    "schubert.sc": [("schubert", "_structure_constants")],
}

COUNTERS = {
    "schubert.eta_invalid": ("schubert", "eta_invalid_count"),
    "abctab.distance_zero_skips": ("abctab", "distance_zero_skips"),
}


class Tracer:
    """Records spans around the entry points of an imported kschur."""

    def __init__(self, package):
        self.package = package
        self.mods = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.stack: list[int] = []
        self.query = 0
        self.items: dict[str, int] = {}
        self.kn1_entries = 0
        self.caches = {
            key: [getattr(self.mods[m], attr) for m, attr in refs]
            for key, refs in CACHES.items()
            if all(hasattr(self.mods[m], attr) for m, attr in refs)
        }
        self.cache_before = {key: self._cache_totals(key) for key in self.caches}
        self.counter_before = {
            key: getattr(self.mods[m], attr)
            for key, (m, attr) in COUNTERS.items()
            if hasattr(self.mods[m], attr)
        }
        for module, target, name, items in ENTRY_POINTS:
            self._install(module, target, name, items)

    def _cache_totals(self, key):
        hits = misses = 0
        for fn in self.caches[key]:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def _install(self, module, target, name, items):
        mod = self.mods[module]
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                return
            setattr(cls, meth, self._wrap(vars(cls)[meth], name, items))
            return
        orig = getattr(mod, target, None)
        if orig is None:
            return
        wrapper = self._wrap(orig, name, items)
        if name == "symfun.kn1":
            wrapper = self._count_kn1_entries(wrapper, orig)
        for holder in [self.package, *self.mods.values()]:
            for attr, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, attr, wrapper)

    def _wrap(self, fn, name, items):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        clock = time.perf_counter_ns
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, queries = self.span_parent, self.span_query
        counted = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if items is not None:
                counted[name] = counted.get(name, 0) + items(out)
            return out

        return wrapper

    def _count_kn1_entries(self, wrapper, orig):
        """kn1.entries counts the entries of the matrices actually built."""

        @functools.wraps(orig)
        def counting(n, d):
            before = orig.cache_info().misses
            out = wrapper(n, d)
            if orig.cache_info().misses > before:
                self.kn1_entries += sum(len(row) for row in out)
            return out

        return counting

    # -- report --------------------------------------------------------

    def self_times(self):
        """Self seconds per span name."""
        count = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * count
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            out[nid] += dur[i] - child[i]
        return {name: out[k] / 1e9 for k, name in enumerate(self.names)}

    def summary(self) -> dict:
        """Raw per-layer sums for one job; the runner aggregates jobs."""
        calls = [0] * len(self.names)
        for nid in self.span_name:
            calls[nid] += 1
        after = {key: self._cache_totals(key) for key in self.caches}
        caches = {
            key: [after[key][0] - self.cache_before[key][0],
                  after[key][1] - self.cache_before[key][1]]
            for key in self.caches
        }
        counters = {
            key: getattr(self.mods[COUNTERS[key][0]], COUNTERS[key][1]) - before
            for key, before in self.counter_before.items()
            if hasattr(self.mods[COUNTERS[key][0]], COUNTERS[key][1])
        }
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": self.self_times(),
            "items": dict(self.items),
            "kn1_entries": self.kn1_entries,
            "caches": caches,
            "counters": counters,
            "spans": len(self.span_start),
        }

    def write_spans(self, path):
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", "H"], ["start_ns", "q"], ["end_ns", "q"],
                       ["parent", "l"], ["query", "l"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_query):
                arr.tofile(fh)
