"""Spans and counters around the calls into each evoalg module.

Functions are wrapped where the caller looks them up.  ``cli``, ``limits``
and ``structure`` bind functions with from-imports, so each importing
namespace gets its own wrapper; methods are wrapped on their class.  A span
records name, start, end, busy time, parent span, pass and operation.
Spans stay in memory and are written when the run ends.  A layer's self
time is its busy time minus that of its child spans.  A generator span is
busy only while the generator runs, not while its consumer does.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

from evoalg import algebra, cli, limits, measures, structure

# span name -> metric; every other span name maps to name + "_s"
_SPAN_METRIC = {"cli.main": "cli.self_s"}

TIME_METRICS = (
    "cli.load_scenario_s",
    "cli.self_s",
    "algebra.build_algebra_s",
    "algebra.matrix_entries_s",
    "algebra.export_matrix_csv_s",
    "algebra.export_matrix_json_s",
    "algebra.square_s",
    "algebra.multiply_s",
    "structure.build_hierarchy_s",
    "structure.iso_check_s",
    "structure.structure_counts_s",
    "structure.generated_subalgebra_s",
    "structure.descent_chain_s",
    "measures.measure_from_json_s",
    "measures.gibbs_measure_s",
    "measures.dlr_check_s",
    "limits.coefficient_sequence_s",
    "limits.finite_volume_coeff_s",
    "limits.low_temp_limit_algebras_s",
    "limits.scheme_measure_s",
    "cells.children_set_s",
    "graphs.components_s",
)

# exact counts: equal in every traced pass of a run and in every run of a seed
COUNT_METRICS = (
    "cli.report_bytes",
    "algebra.nonzeros",
    "algebra.distinct_rows",
    "algebra.max_children",
    "algebra.row_calls",
    "structure.level_count",
    "structure.blocks",
    "measures.gibbs_measure_calls",
    "measures.cells_enumerated",
    "measures.conditional_prob_calls",
    "cells.children_set_calls",
    "limits.measure_cache_hit_ratio",
)

COUNT_UNITS = {
    **dict.fromkeys(COUNT_METRICS, "count"),
    "cli.report_bytes": "bytes",
    "limits.measure_cache_hit_ratio": "ratio",
}


class Tracer:
    """Installs the wrappers and collects spans and counts per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, busy, parent, pass, op]
        self.counts = Counter()
        self.algebras = []
        self.where = (-1, -1)
        self._stack = []
        self._patches = []
        self._measures = {}

    def begin_pass(self, index: int):
        self.where = (index, -1)
        self.counts.clear()
        self.algebras.clear()
        self._measures.clear()

    def at_op(self, index: int):
        self.where = (self.where[0], index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, None, None, 0.0, parent, *self.where])
        return len(self.spans) - 1

    def _resume(self, idx: int) -> float:
        self._stack.append(idx)
        now = time.perf_counter()
        if self.spans[idx][1] is None:
            self.spans[idx][1] = now
        return now

    def _suspend(self, idx: int, resumed: float):
        now = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[2] = now
        span[3] += now - resumed

    def span(self, name: str, after=None):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                resumed = self._resume(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._suspend(idx, resumed)
                if after is not None:
                    after(result, *args)
                return result

            return wrapper

        return wrap

    def span_iter(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                items = fn(*args, **kwargs)
                while True:
                    resumed = self._resume(idx)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._suspend(idx, resumed)
                    yield item

            return wrapper

        return wrap

    def count(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def _built(self, result, *args):
        self.algebras.append(result)

    def _hierarchy(self, result, *args):
        self.counts["structure.level_count"] += result.level_count
        self.counts["structure.blocks"] += sum(len(level) for level in result.levels)

    def _gibbs(self, result, h, *args):
        self.counts["measures.gibbs_measure_calls"] += 1
        self.counts["measures.cells_enumerated"] += h.k**h.n

    def _children(self, result, *args):
        self.counts["cells.children_set_calls"] += 1

    def _scheme_measure(self, result, scheme, radius):
        """A hit is a call returning the object an earlier call returned."""
        self.counts["limits.scheme_measure_calls"] += 1
        key = (id(scheme), radius)
        seen = self._measures.get(key)
        if seen is not None and seen[1] is result:
            self.counts["limits.scheme_measure_hits"] += 1
        else:
            self._measures[key] = (scheme, result)

    def install(self):
        span = self.span
        build = span("algebra.build_algebra", after=self._built)
        hierarchy = span("structure.build_hierarchy", after=self._hierarchy)
        gibbs = span("measures.gibbs_measure", after=self._gibbs)
        components = span("graphs.components")
        entries = self.span_iter("algebra.matrix_entries")
        targets = [
            (cli, "main", span("cli.main")),
            (cli, "load_scenario", span("cli.load_scenario")),
            (cli, "build_algebra", build),
            (algebra, "build_algebra", build),
            (cli, "matrix_entries", entries),
            (algebra, "matrix_entries", entries),
            (cli, "export_matrix_csv", span("algebra.export_matrix_csv")),
            (cli, "export_matrix_json", span("algebra.export_matrix_json")),
            (algebra.HeredityMatrix, "row", self.count("algebra.row_calls")),
            (algebra.EvolutionAlgebra, "square", span("algebra.square")),
            (algebra.EvolutionAlgebra, "multiply", span("algebra.multiply")),
            (algebra, "components", components),
            (cli, "build_hierarchy", hierarchy),
            (structure, "build_hierarchy", hierarchy),
            (cli, "iso_check", span("structure.iso_check")),
            (cli, "structure_counts", span("structure.structure_counts")),
            (structure, "generated_subalgebra", span("structure.generated_subalgebra")),
            (structure, "descent_chain", span("structure.descent_chain")),
            (structure, "components", components),
            (cli, "measure_from_json", span("measures.measure_from_json")),
            (measures, "gibbs_measure", gibbs),
            (limits, "gibbs_measure", gibbs),
            (cli, "dlr_check", span("measures.dlr_check")),
            (measures, "conditional_prob", self.count("measures.conditional_prob_calls")),
            (cli, "coefficient_sequence", span("limits.coefficient_sequence")),
            (limits, "finite_volume_coeff", span("limits.finite_volume_coeff")),
            (cli, "low_temp_limit_algebras", span("limits.low_temp_limit_algebras")),
            (limits.VolumeScheme, "measure", span("limits.scheme_measure", after=self._scheme_measure)),
            (limits, "children_set", span("cells.children_set", after=self._children)),
            (limits, "components", components),
        ]
        for owner, attr, wrap in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, pass_index: int, op_scales, setup_scale: float) -> dict:
        """Self seconds per time metric over the spans of one pass and of set-up.

        A span's self time is multiplied by the probe scale of its operation,
        or by ``setup_scale`` for set-up spans, to give reference seconds.
        """
        child_busy = defaultdict(float)
        for name, start, end, busy, parent, *_ in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, busy, parent, where, op) in enumerate(self.spans):
            if where in (-1, pass_index):
                metric = _SPAN_METRIC.get(name, name + "_s")
                scale = setup_scale if where == -1 else op_scales[op]
                out[metric] += (busy - child_busy[i]) * scale
        return out

    def pass_counts(self) -> dict:
        calls = self.counts["limits.scheme_measure_calls"]
        hits = self.counts["limits.scheme_measure_hits"]
        out = {name: self.counts[name] for name in COUNT_METRICS}
        out["limits.measure_cache_hit_ratio"] = hits / calls if calls else 0.0
        return out


def _blocks(graph) -> list:
    """Component sizes by union-find, independent of ``evoalg.graphs``."""
    parent = list(range(graph.vertex_count))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in graph.edges:
        parent[root(x)] = root(y)
    return list(Counter(root(v) for v in range(graph.vertex_count)).values())


def closed_form_nonzeros(built) -> int:
    """``prod_b (m_b + 4 m_b (m_b - 1))`` with ``m_b = k^|b|`` per component ``b``."""
    k = built.space.k
    return math.prod(k**size + 4 * k**size * (k**size - 1) for size in _blocks(built.graph))


def algebra_stats(algebras) -> tuple:
    """``(counts, problems)`` over every row of the given algebras.

    Rows are read through the public ``EvolutionAlgebra.row``; a row is the
    outer product of its children set with itself, so its width is the
    square of the children count.
    """
    nonzeros = distinct = widest = 0
    problems = []
    for built in algebras:
        rows = set()
        total = 0
        for g in range(built.dimension):
            row = built.row(g)
            total += len(row)
            widest = max(widest, len(row))
            rows.add(frozenset(row))
        expected = closed_form_nonzeros(built)
        if total != expected:
            problems.append(f"algebra with {total} nonzeros, closed form gives {expected}")
        nonzeros += total
        distinct += len(rows)
    counts = {
        "algebra.nonzeros": nonzeros,
        "algebra.distinct_rows": distinct,
        "algebra.max_children": math.isqrt(widest),
    }
    return counts, problems
