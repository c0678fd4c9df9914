"""Outside-in tracer: spans around the public functions of hibikit's modules.

install() replaces every public module-level function of the nine package
modules with a wrapper that records a span (name, start, end, parent span,
job id), under every module name that binds it: `cone` imports
`lp_feasible` with `from .exactgeom import ...`, so patching the defining
module alone would miss those calls.  The O(1) vector helpers are left
alone; wrapping them would cost more than they do.  Methods of classes are
not wrapped either, so their time counts toward the calling function.

Spans are kept in memory in flat arrays and written out when the run ends.
A span's self time is its duration minus the part its child spans cover;
children nest strictly because the worker runs single-threaded.  Counts
that need the call's arguments or result are taken in a child span named
`tracer.count`, so their cost lands in no layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from fractions import Fraction
from math import comb

LAYERS = ["poset", "lattice", "exactgeom", "cone", "subdivision", "hibi",
          "weightpoly", "flaggt", "cli"]
SKIP = {"vadd", "vdot", "vsub", "vscale", "zero_vec", "to_vec", "is_integral",
        "fraction_pair", "vector_pairs"}

# function groups reported as one self time
GROUPS = {
    "exactgeom.simplex": ["exactgeom.solve_eq_nonneg"],
    "exactgeom.linalg": ["exactgeom.rref", "exactgeom.rank", "exactgeom.nullspace",
                         "exactgeom.solve_linear"],
    "exactgeom.integer_points": ["exactgeom.integer_points"],
    "exactgeom.intlattice": ["exactgeom.integer_kernel", "exactgeom.int_row_echelon",
                             "exactgeom.lattice_member", "exactgeom.same_lattice",
                             "exactgeom.affine_lattice_basis"],
    "exactgeom.facet_hyperplanes": ["exactgeom.facet_hyperplanes"],
    "cli.serialize": ["cli.canonical_json", "exactgeom.polytope_json",
                      "subdivision.subdivision_json"],
}
# functions whose inclusive time is reported (recursive calls counted once)
INCLUSIVE = ["exactgeom.lp_feasible", "exactgeom.convex_combination",
             "exactgeom.hull_vertices", "cone.cone_K", "cone.enumerate_faces",
             "subdivision.adjacency_graph", "hibi.initial_ideal_dim",
             "hibi.intersection_dim", "hibi.standard_monomial_count",
             "weightpoly.weight_polytope", "weightpoly.distinguished_faces",
             "flaggt.gt_vertices", "flaggt.gt_subdivision"]
CALLS = ["poset.linear_extensions", "lattice.diamond_pairs", "exactgeom.lp_feasible",
         "exactgeom.convex_combination", "cone.cone_K", "cone.enumerate_faces",
         "subdivision.regular_subdivision", "subdivision.adjacency_graph",
         "flaggt.component_shape", "flaggt.marked_order_polytope"]
COUNT_SPAN = "tracer.count"


def _affine_dim(points) -> int:
    """Rank of the difference vectors, by exact elimination."""
    if not points:
        return 0
    base = points[0]
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.calls: list[int] = []
        self.current = -1
        self.job = -1
        self.counts = {"simplex.cells": 0, "lp.feasible": 0, "facets.subsets": 0,
                       "facets.found": 0, "faces.candidates": 0, "faces.found": 0,
                       "faces.repeats": 0, "hibi.degree_basis": 0}
        self.enumerated = set()
        self._count_id = self._name_id(COUNT_SPAN)

    def _name_id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self.name_of[name]

    # -- counters ------------------------------------------------------------

    # counters get the call's arguments by parameter name

    def _count_simplex(self, arg, result):
        A, c = arg["A"], arg["c"]
        self.counts["simplex.cells"] += len(A) * (len(c) + len(A) + 1)

    def _count_lp(self, arg, result):
        self.counts["lp.feasible"] += result is not None

    def _count_facets(self, arg, result):
        vertices = list(arg["vertices"])
        d = _affine_dim(vertices)
        if d:
            self.counts["facets.subsets"] += comb(len(vertices), d)
        self.counts["facets.found"] += len(result)

    def _count_faces(self, arg, result):
        K = arg["K"]
        self.counts["faces.candidates"] += 1 << len(K.pairs)
        self.counts["faces.found"] += len(result)
        key = (K.lattice.elements, K.lattice.poset_P.label_pairs())
        self.counts["faces.repeats"] += key in self.enumerated
        self.enumerated.add(key)

    def _count_initial(self, arg, result):
        n, l = len(arg["w"]), arg["l"]
        self.counts["hibi.degree_basis"] += comb(n + l - 1, l)

    def _count_intersection(self, arg, result):
        L, l = arg["L"], arg["l"]
        self.counts["hibi.degree_basis"] += comb(L.size + l - 1, l)

    # -- wrapping ------------------------------------------------------------

    def _open(self, nid: int) -> tuple[int, int]:
        parent = self.current
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.current = idx
        self.span_start[idx] = time.perf_counter()
        return idx, parent

    def _close(self, idx: int, parent: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.current = parent

    def _bookkeep(self, counter, signature, args, kwargs, result) -> None:
        idx, parent = self._open(self._count_id)
        try:
            counter(signature.bind(*args, **kwargs).arguments, result)
        finally:
            self._close(idx, parent)

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time between items is
            # not charged to the generator
            def gen_wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx, parent = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, parent)
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        signature = inspect.signature(fn) if counter is not None else None

        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            idx, parent = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent)
            if counter is not None:
                tracer._bookkeep(counter, signature, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hibikit.{layer}") for layer in LAYERS}
        counters = {
            "exactgeom.solve_eq_nonneg": self._count_simplex,
            "exactgeom.lp_feasible": self._count_lp,
            "exactgeom.facet_hyperplanes": self._count_facets,
            "cone.enumerate_faces": self._count_faces,
            "hibi.initial_ideal_dim": self._count_initial,
            "hibi.intersection_dim": self._count_intersection,
        }
        originals = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals.append((f"{layer}.{attr}", obj))
        wrapped = {id(fn): self.wrap(name, fn, counters.get(name))
                   for name, fn in originals}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer and per-group self times, inclusive times, call counts
        and argument-derived counts, over every span recorded."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_by_name = [0.0] * len(self.names)
        for i in range(n):
            self_by_name[names[i]] += ends[i] - starts[i] - covered[i]

        incl_ids = {self.name_of[f] for f in INCLUSIVE if f in self.name_of}
        incl_by_name = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            if nid not in incl_ids:
                continue
            p = parents[i]
            while p >= 0 and names[p] != nid:
                p = parents[p]
            if p < 0:  # outermost call of this function on the stack
                incl_by_name[nid] += ends[i] - starts[i]

        def self_of(name):
            nid = self.name_of.get(name)
            return self_by_name[nid] if nid is not None else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, nid in self.name_of.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_by_name[nid]
        return {
            "spans": n,
            "layer_self_s": layer_self,
            "tracer_self_s": self_of(COUNT_SPAN),
            "group_self_s": {g: sum(self_of(f) for f in fns) for g, fns in GROUPS.items()},
            "incl_s": {f: incl_by_name[self.name_of[f]] if f in self.name_of else 0.0
                       for f in INCLUSIVE},
            "calls": {f: self.calls[self.name_of[f]] if f in self.name_of else 0
                      for f in CALLS + ["exactgeom.solve_eq_nonneg"]},
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV: name, start, end, parent span, job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,job\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_job[i]}\n")
