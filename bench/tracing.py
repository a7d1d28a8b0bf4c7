"""Spans around the calls into each layer, taken from outside the program.

`Tracer.install()` replaces public functions at the module attributes where
their callers look them up (for example `transita.detour.oriented_compath`,
which `comdetour` calls, and `transita.compath.oriented_compath`, which
`compath` calls) with wrappers that record a span: name, start, end, parent
span and an optional note (a count read from the arguments or the result).
Spans stay in memory and are written out at the end.  `layer_metrics`
turns the spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
from time import perf_counter


class MissingName(RuntimeError):
    """A wrapped name no longer exists in the program."""


def _len_result(args, kwargs, result):
    return len(result)


def _family(args, kwargs, result):
    return (id(result), len(result))


def _reduce_rows(args, kwargs, result):
    return (len(args[0]), len(result))


def _max_family(args, kwargs, result):
    stats = kwargs.get("stats")
    return stats.get("max_family", 0) if stats else 0


# (module, attribute, span name, note); one span name may sit at several
# call sites.
WRAPS = (
    ("transita.compath", "family_for_bound", "compath.family_for_bound", _family),
    ("transita.detour", "family_for_bound", "compath.family_for_bound", _family),
    ("transita.cli", "family_for_bound", "compath.family_for_bound", _family),
    ("transita.compath", "SlotGraph", "compath.SlotGraph", None),
    ("transita.detour", "SlotGraph", "compath.SlotGraph", None),
    ("transita.compath", "oriented_compath", "compath.oriented_compath", None),
    ("transita.detour", "oriented_compath", "compath.oriented_compath", None),
    ("transita.compath", "compath", "compath.compath", None),
    ("transita.cli", "compath", "compath.compath", None),
    ("transita.detour", "comdetour", "detour.comdetour", None),
    ("transita.cli", "comdetour", "detour.comdetour", None),
    ("transita.detour", "bfs_dist", "core.bfs_dist", None),
    ("transita.io", "validate_transition_system", "core.validate_transition_system", None),
    ("transita.cli", "validate_transition_system", "core.validate_transition_system", None),
    ("transita.pchc", "rank_based_pchc", "pchc.rank_based_pchc", _max_family),
    ("transita.cli", "rank_based_pchc", "pchc.rank_based_pchc", _max_family),
    ("transita.pchc", "build_nice_tree", "pchc.build_nice_tree", None),
    ("transita.pchc", "reduce_representatives", "pchc.reduce_representatives", _reduce_rows),
    ("transita.cli", "validate_tree_decomposition", "pchc.validate_tree_decomposition", None),
    ("transita.treecut", "exhaustive_treecut_decomposition", "treecut.search", None),
    ("transita.cli", "exhaustive_treecut_decomposition", "treecut.search", None),
    ("transita.treecut", "evaluate_width", "treecut.evaluate_width", None),
    ("transita.treecut", "comvdp", "treecut.comvdp", None),
    ("transita.cli", "comvdp", "treecut.comvdp", None),
    ("transita.treecut", "enumerate_records", "treecut.enumerate_records", _len_result),
    ("transita.treecut", "scomvdp_state", "treecut.scomvdp_state", None),
    ("transita.dsp", "edge_disjoint_2dspp", "dsp.edge_disjoint_2dspp", None),
    ("transita.cli", "edge_disjoint_2dspp", "dsp.edge_disjoint_2dspp", None),
    ("transita.dsp", "vertex_disjoint_2dspp", "dsp.vertex_disjoint_2dspp", None),
    ("transita.cli", "vertex_disjoint_2dspp", "dsp.vertex_disjoint_2dspp", None),
    ("transita.cli", "check_positive_cycles", "dsp.check_positive_cycles", None),
    ("transita.dsp", "dag_compatible_path_raw", "dsp.dag_compatible_path_raw", None),
    ("transita.io", "parse_instance", "io.parse", None),
    ("transita.io", "parse_decomposition", "io.parse", None),
    ("transita.io", "serialize_instance", "io.serialize", None),
    ("transita.genred", "gen_random_ftg", "genred.gen", None),
    ("transita.genred", "gen_random_edge_colored", "genred.gen", None),
    ("transita.genred", "gen_random_psi", "genred.gen", None),
    ("transita.genred", "psi_reduction", "genred.gen", None),
    ("transita.genred", "hamiltonian_reduction", "genred.gen", None),
    ("transita.cli", "gen_random_ftg", "genred.gen", None),
    ("transita.cli", "gen_random_edge_colored", "genred.gen", None),
    ("transita.cli", "gen_random_psi", "genred.gen", None),
    ("transita.cli", "psi_reduction", "genred.gen", None),
    ("transita.cli", "hamiltonian_reduction", "genred.gen", None),
    ("transita.cli", "main", "cli.main", None),
)

NAME, START, END, PARENT, NOTE = range(5)
WHEEL_LABEL = re.compile(r"(?:no-)?wheel-l(\d+)-")  # query labels of the triple wheels


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, note]
        self._stack = []
        self._saved = []

    def install(self):
        """Wrap every name in WRAPS; raise MissingName if one is gone."""
        targets = []
        for mod_name, attr, span, note in WRAPS:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                raise MissingName(
                    f"{mod_name}.{attr} no longer exists; update WRAPS in bench/tracing.py"
                )
            targets.append((module, attr, span, note))
        for module, attr, span, note in targets:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrapper(orig, span, note))
            self._saved.append((module, attr, orig))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrapper(self, orig, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    def open(self, name, note=None) -> int:
        """Start a span from the benchmark itself (set-up, a pass, a query)."""
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][END] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def write(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


# The per-layer metrics: (name, unit).  Set-up metrics come from the traced
# set-up; the others are per-pass values, the median over the traced passes.
PER_LAYER = (
    ("compath.family_build_s", "s"),
    ("compath.family_members", "count"),
    ("compath.slot_graph_ms", "ms"),
    ("compath.oriented_calls", "count"),
    ("compath.oriented_ms", "ms"),
    ("compath.compath_ms", "ms"),
    ("detour.comdetour_ms", "ms"),
    ("detour.self_ms", "ms"),
    ("core.bfs_ms", "ms"),
    ("core.validate_ts_ms", "ms"),
    ("pchc.nice_tree_ms", "ms"),
    ("pchc.dp_self_ms", "ms"),
    ("pchc.reduce_ms", "ms"),
    ("pchc.reduce_rows_in", "count"),
    ("pchc.reduce_keep_ratio", "ratio"),
    ("pchc.max_family", "count"),
    ("pchc.solve_ms_l5", "ms"),
    ("pchc.solve_ms_l50", "ms"),
    ("pchc.solve_ms_l500", "ms"),
    ("treecut.search_ms", "ms"),
    ("treecut.width_evals", "count"),
    ("treecut.width_eval_ms", "ms"),
    ("treecut.comvdp_ms", "ms"),
    ("treecut.records", "count"),
    ("treecut.scomvdp_calls", "count"),
    ("dsp.edge_ms", "ms"),
    ("dsp.vertex_ms", "ms"),
    ("dsp.inner_dag_calls", "count"),
    ("io.parse_ms", "ms"),
    ("io.serialize_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("genred.gen_s", "s"),
)


def _within(spans, root):
    """Indices of the spans below span `root`.

    Spans are stored in start order and nest, so the descendants of a span
    are the run of spans right after it.
    """
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] not in inside:
            break
        inside.add(i)
        out.append(i)
    return out


def _pass_values(spans, idxs):
    """Per-layer values of the spans `idxs` (those of one pass)."""
    dur = {}
    child_time = {}
    for i in idxs:
        s = spans[i]
        d = s[END] - s[START]
        dur[i] = d
        child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + d
    total = {}
    count = {}
    self_total = {}
    for i in idxs:
        name = spans[i][NAME]
        total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + dur[i] - child_time.get(i, 0.0)
    notes = {}
    for i in idxs:
        if spans[i][NOTE] is not None:
            notes.setdefault(spans[i][NAME], []).append(spans[i][NOTE])

    def ms(name):
        return 1000 * total.get(name, 0.0)

    rows = notes.get("pchc.reduce_representatives", [])
    rows_in = sum(a for a, _ in rows)
    wheel = {}
    for i in idxs:
        s = spans[i]
        match = WHEEL_LABEL.match(s[NOTE] or "") if s[NAME] == "query" else None
        if match:
            colors = match.group(1)
            rank = [j for j in _within(spans, i) if spans[j][NAME] == "pchc.rank_based_pchc"]
            wheel.setdefault(colors, []).append(1000 * sum(dur[j] for j in rank))
    return {
        "compath.slot_graph_ms": ms("compath.SlotGraph"),
        "compath.oriented_calls": count.get("compath.oriented_compath", 0),
        "compath.oriented_ms": ms("compath.oriented_compath"),
        "compath.compath_ms": ms("compath.compath"),
        "detour.comdetour_ms": ms("detour.comdetour"),
        "detour.self_ms": 1000 * self_total.get("detour.comdetour", 0.0),
        "core.bfs_ms": ms("core.bfs_dist"),
        "core.validate_ts_ms": ms("core.validate_transition_system"),
        "pchc.nice_tree_ms": ms("pchc.build_nice_tree"),
        "pchc.dp_self_ms": 1000 * self_total.get("pchc.rank_based_pchc", 0.0),
        "pchc.reduce_ms": ms("pchc.reduce_representatives"),
        "pchc.reduce_rows_in": rows_in,
        "pchc.reduce_keep_ratio": sum(k for _, k in rows) / rows_in if rows_in else 0.0,
        "pchc.max_family": max(notes.get("pchc.rank_based_pchc", [0])),
        "pchc.solve_ms_l5": statistics.median(wheel.get("5", [0.0])),
        "pchc.solve_ms_l50": statistics.median(wheel.get("50", [0.0])),
        "pchc.solve_ms_l500": statistics.median(wheel.get("500", [0.0])),
        "treecut.search_ms": ms("treecut.search"),
        "treecut.width_evals": count.get("treecut.evaluate_width", 0),
        "treecut.width_eval_ms": ms("treecut.evaluate_width"),
        "treecut.comvdp_ms": ms("treecut.comvdp"),
        "treecut.records": sum(notes.get("treecut.enumerate_records", [])),
        "treecut.scomvdp_calls": count.get("treecut.scomvdp_state", 0),
        "dsp.edge_ms": ms("dsp.edge_disjoint_2dspp"),
        "dsp.vertex_ms": ms("dsp.vertex_disjoint_2dspp"),
        "dsp.inner_dag_calls": count.get("dsp.dag_compatible_path_raw", 0),
        "io.parse_ms": ms("io.parse"),
        "io.serialize_ms": ms("io.serialize"),
        "cli.overhead_ms": 1000 * self_total.get("cli.main", 0.0),
    }


def layer_metrics(spans, setup_idx, pass_idxs) -> dict:
    """Per-layer metrics from a traced set-up span and traced pass spans."""
    setup = _within(spans, setup_idx)
    family_s = sum(spans[i][END] - spans[i][START] for i in setup
                   if spans[i][NAME] == "compath.family_for_bound")
    gen_s = sum(spans[i][END] - spans[i][START] for i in setup
                if spans[i][NAME] == "genred.gen")
    families = {s[NOTE] for s in spans if s[NAME] == "compath.family_for_bound"}
    per_pass = [_pass_values(spans, _within(spans, p)) for p in pass_idxs]
    values = {
        "compath.family_build_s": family_s,
        "compath.family_members": sum(size for _, size in families),
        "genred.gen_s": gen_s,
    }
    for name in per_pass[0]:
        values[name] = statistics.median(v[name] for v in per_pass)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
