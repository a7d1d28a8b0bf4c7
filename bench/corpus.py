"""Seeded corpora for the four workloads.

`build(name, seed, workdir)` makes every input of one workload and returns
the queries of one pass.  Each query has the timed call, a checker that
compares the answer with an oracle from `transita.oracle` or with a
checker from `checks`, and a key that must repeat exactly from pass to
pass.

The problem instances of a workload are drawn once from CORPUS_SEED; the
workload seed draws a fresh numbering of each instance's vertices and
edges (and flips the orientation in which undirected edges are listed)
before the program sees it.  Solver time varies a lot between graphs of
one size (a ComDetour query's spread over graphs of one size is about half
its mean), but little between numberings of one graph, so the workload
seed changes every input without moving the corpus totals.  The solvers'
own seed is fixed too, so set-up builds the same hash families for every
workload seed.

Every call into the program goes through a module attribute
(`compath.compath`, `cli.main`, ...), which is where the traced run puts
its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from transita import cli, compath, detour, genred, oracle, pchc, treecut
from transita import io as tio
from transita.core import DiGraph, EdgeColoring, Graph, TransitionSystem
from transita.io import DecompositionFile, Instance

import checks

CORPUS_SEED = 2009
SOLVER_SEED = 0

# route: (n, length bound) cells of ComPath queries, and (n, slack, count)
# cells of ComDetour queries.  Bound 8 is left out because a cold certified
# family for it takes 2.6-19 s to build; slack 2 and 3 are left out because
# one query at n = 60 with slack 3 takes 2-22 s and the slack-2 cells have
# the widest spread between graphs.
COMPATH_CELLS = ((16, 5), (16, 6), (16, 7), (24, 5), (24, 6), (24, 7), (28, 5), (28, 6))
COMPATH_RANDOM_PER_CELL = 4
COMPATH_PLANTED_PER_CELL = 3
DETOUR_CELLS = ((30, 0, 24), (30, 1, 40), (48, 0, 24), (48, 1, 6), (60, 0, 20), (60, 1, 4),
                (90, 0, 12))

# pchc-wheel
WHEEL_COLORS = (5, 50, 500)
WHEEL_RIMS = (8, 10, 12, 14, 16)
RANDOM_COLORED_SIZES = (7, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10)

# vdp-search: n = 10 is left out; its search alone takes 0.7 s, a quarter
# of a pass.  The counts put the median (rank 21-22) inside the n = 7
# queries and the tail (rank 33) inside the n = 8 queries, away from the
# jumps in time between sizes.
VDP_SIZES = (6,) * 14 + (7,) * 16 + (8,) * 12 + (9,) * 2
VDP_MAX_WIDTH = 4

# cli-mix: instances per command (dsp runs each instance in both modes),
# and the one operation that fails on every run, on a fixed input
CLI_COUNTS = {"validate": 8, "compath": 10, "detour": 10, "pchc": 8, "comvdp": 10, "dsp": 10}
FAILING_GEN = ["gen", "psi-reduce", "--mh", "16", "--n", "6", "--seed", "0"]


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    key: Callable[[object], object]


def build(name: str, seed: int, workdir: str) -> list:
    """The queries of one pass of workload `name`."""
    base = random.Random(f"{name}/{CORPUS_SEED}")
    rng = random.Random(f"{name}/numbering/{seed}")
    if name == "route":
        return _route(base, rng)
    if name == "pchc-wheel":
        return _pchc_wheel(base, rng)
    if name == "vdp-search":
        return _vdp_search(base, rng)
    if name == "cli-mix":
        return _cli_mix(base, rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Instances and their numbering


class Numbering:
    """A random numbering of one instance's vertices and edges."""

    def __init__(self, rng, n, m, directed=False):
        self.vertex = list(range(n))
        rng.shuffle(self.vertex)
        self.order = list(range(m))  # new edge i is old edge order[i]
        rng.shuffle(self.order)
        self.edge = [0] * m
        for new, old in enumerate(self.order):
            self.edge[old] = new
        self.flip = [not directed and rng.random() < 0.5 for _ in range(m)]

    def edges(self, edges):
        out = []
        for old in self.order:
            u, v = (self.vertex[w] for w in edges[old])
            out.append((v, u) if self.flip[old] else (u, v))
        return out

    def per_edge(self, values):
        return tuple(values[old] for old in self.order)

    def pairs(self, pairs):
        return [(self.edge[a], self.edge[b]) for a, b in pairs]


def renumbered(rng, g, t):
    """(graph, transitions, numbering) of `g` and `t` under a fresh numbering."""
    num = Numbering(rng, g.n, g.m)
    return Graph(g.n, num.edges(g.edges)), TransitionSystem(num.pairs(t.pairs)), num


def _ftg(n, mean_degree, q, rng):
    return genred.gen_random_ftg(n, mean_degree / (n - 1), q, rng.getrandbits(32))


def _endpoints_at_walk_distance(g, permitted, lo, hi, rng):
    """A random (x, y) whose shortest compatible walk has lo..hi edges."""
    starts = list(range(g.n))
    rng.shuffle(starts)
    for x in starts:
        dist = checks.walk_distances(g.n, g.edges, permitted, x)
        ys = [y for y in range(g.n) if y != x and lo <= dist[y] <= hi]
        if ys:
            return x, rng.choice(ys)
    return None


def planted_no_instance(n, rng):
    """A ComPath no-instance whose only short compatible walks revisit a vertex.

    x and y are joined through k = n // 5 hubs, each with its own triangle:
    the edges are x-h, h-y, h-c, c-d, d-h.  At a hub only {x-h, h-c} and
    {d-h, h-y} are permitted, so every x-y walk goes round a triangle and
    enters its hub twice, and no x-y path is compatible.  The shortest walk
    has five edges, within every bound used here.  The other vertices form
    two random forbidden-transition graphs, one around x and one around y.
    Returns (g, t, x, y).
    """
    k = n // 5
    na = (n - 3 * k) // 2
    nb = n - 3 * k - na
    ga, ta = _ftg(na, 3.0, 0.7, rng)
    gb, tb = _ftg(nb, 3.0, 0.7, rng)
    x, y = rng.randrange(na), na + rng.randrange(nb)
    edges = list(ga.edges) + [(u + na, v + na) for u, v in gb.edges]
    gadgets = []
    for i in range(k):
        h, c, d = (na + nb + 3 * i + j for j in range(3))
        gadgets.append([(x, h), (h, y), (h, c), (c, d), (d, h)])
        edges += gadgets[-1]
    g = Graph(n, edges)
    pairs = list(ta.pairs) + [(e + ga.m, f + ga.m) for e, f in tb.pairs]
    for gadget in gadgets:
        x_h, h_y, h_c, c_d, d_h = (g.edge_id(u, v) for u, v in gadget)
        pairs += [(e, x_h) for _, e in ga.adj(x)]
        pairs += [(h_y, e + ga.m) for _, e in gb.adj(y - na)]
        pairs += [(x_h, h_c), (h_c, c_d), (c_d, d_h), (d_h, h_y)]
    return g, TransitionSystem(pairs), x, y


def _bfs(n, edges, s):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * n
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _detour_endpoints(g, rng, lo, hi):
    starts = list(range(g.n))
    rng.shuffle(starts)
    for s in starts:
        dist = _bfs(g.n, g.edges, s)
        ts = [v for v in range(g.n) if dist[v] is not None and lo <= dist[v] <= hi]
        if ts:
            tgt = rng.choice(ts)
            return s, tgt, dist[tgt]
    return None


def triple_wheel(rim_len, colors, rng, no_wheel=False):
    """Three hubs 0, 1, 2 joined to every vertex of the rim path 3..n-1.

    Consecutive rim edges get distinct colors.  With no_wheel, every spoke
    of one hub gets one color, so no Hamiltonian cycle is properly colored.
    Returns (graph, colors per edge, width-4 path decomposition, rim).
    """
    n = 3 + rim_len
    rim = list(range(3, n))
    edges = [(rim[i], rim[i + 1]) for i in range(rim_len - 1)]
    edges += [(h, p) for h in (0, 1, 2) for p in rim]
    g = Graph(n, edges)
    cols = [rng.randint(1, colors) for _ in range(g.m)]
    for i in range(1, rim_len - 1):
        e, pe = g.edge_id(rim[i], rim[i + 1]), g.edge_id(rim[i - 1], rim[i])
        while cols[e] == cols[pe]:
            cols[e] = rng.randint(1, colors)
    if no_wheel:
        hub, c = rng.randrange(3), rng.randint(1, colors)
        for p in rim:
            cols[g.edge_id(hub, p)] = c
    bags = [tuple(sorted({0, 1, 2, rim[i], rim[i + 1]})) for i in range(rim_len - 1)]
    dec = DecompositionFile(0, tuple((i, i + 1) for i in range(len(bags) - 1)), tuple(bags))
    return g, cols, dec, rim


def renumbered_decomposition(dec, num):
    return DecompositionFile(
        dec.root, dec.tree_edges, tuple(tuple(sorted(num.vertex[v] for v in b)) for b in dec.bags)
    )


# ---------------------------------------------------------------------------
# route


def _compath_query(label, g, t, x, y, bound):
    permitted = checks.pair_set(t.pairs)

    def run():
        return compath.compath(g, t, x, y, bound, seed=SOLVER_SEED, witness=True)

    def check(res):
        length, walk = res
        ref = oracle.brute_compatible_path(g, t, x, y, bound)
        if length != ref:
            return f"length {length}, oracle {ref}"
        if length is None:
            return None
        return checks.undirected_path(g.n, g.edges, permitted, list(walk.vertices), x, y, length)

    def key(res):
        length, walk = res
        return length, walk.vertices if walk is not None else None

    return Query(label, run, check, key)


def _detour_query(label, g, t, s, tgt, k, d):
    permitted = checks.pair_set(t.pairs)

    def run():
        return detour.comdetour(g, t, s, tgt, k, seed=SOLVER_SEED, witness=True)

    def check(res):
        ref = oracle.brute_compatible_path(g, t, s, tgt, d + k, size_guard=False)
        if res.dist != d or res.yes != (ref is not None) or res.nu != ref:
            return f"yes={res.yes} nu={res.nu} dist={res.dist}; oracle {ref}, dist {d}"
        if ref is None:
            return None
        return checks.undirected_path(
            g.n, g.edges, permitted, list(res.witness.vertices), s, tgt, res.nu
        )

    def key(res):
        return res.yes, res.nu, res.dist, res.witness.vertices if res.witness else None

    return Query(label, run, check, key)


def _route(base, rng):
    queries = []
    families = set()
    for n, bound in COMPATH_CELLS:
        for i in range(COMPATH_RANDOM_PER_CELL):
            while True:
                g, t = _ftg(n, 3.0, 0.7, base)
                ends = _endpoints_at_walk_distance(
                    g, checks.pair_set(t.pairs), bound - 2, bound, base
                )
                if ends:
                    break
            g, t, num = renumbered(rng, g, t)
            x, y = (num.vertex[v] for v in ends)
            queries.append(_compath_query(f"compath-n{n}-b{bound}", g, t, x, y, bound))
        for i in range(COMPATH_PLANTED_PER_CELL):
            g, t, x, y = planted_no_instance(n, base)
            g, t, num = renumbered(rng, g, t)
            x, y = num.vertex[x], num.vertex[y]
            queries.append(_compath_query(f"compath-planted-n{n}-b{bound}", g, t, x, y, bound))
        families.add((n, bound))
    for n, k, count in DETOUR_CELLS:
        for i in range(count):
            while True:
                g, t = _ftg(n, 3.0, 0.7, base)
                # dist > slack, so comdetour runs its layered algorithm and
                # needs only the family for bound 2k + 1
                ends = _detour_endpoints(g, base, 4, 7)
                if ends:
                    break
            s, tgt, d = ends
            g, t, num = renumbered(rng, g, t)
            s, tgt = num.vertex[s], num.vertex[tgt]
            queries.append(_detour_query(f"detour-n{n}-k{k}", g, t, s, tgt, k, d))
            families.add((n, 2 * k + 1))
    # A long-lived caller builds each family once; do it before timing.
    for n, bound in sorted(families):
        compath.family_for_bound(n, bound, SOLVER_SEED)
    return queries


# ---------------------------------------------------------------------------
# pchc-wheel


def _pchc_query(label, g, col, dec, expected):
    def run():
        return pchc.rank_based_pchc(g, col, dec, stats={})

    def check(yes):
        want = expected()
        return None if yes == want else f"answer {yes}, reference {want}"

    return Query(label, run, check, lambda yes: yes)


def _pchc_wheel(base, rng):
    queries = []
    for colors in WHEEL_COLORS:
        for rim_len in WHEEL_RIMS:
            for no_wheel in (False, True):
                g, cols, dec, rim = triple_wheel(rim_len, colors, base, no_wheel)
                num = Numbering(rng, g.n, g.m)
                g = Graph(g.n, num.edges(g.edges))
                cols = num.per_edge(cols)
                dec = renumbered_decomposition(dec, num)
                rim = [num.vertex[v] for v in rim]
                hubs = tuple(num.vertex[h] for h in (0, 1, 2))
                cmap = {frozenset(e): c for e, c in zip(g.edges, cols)}

                def expected(rim=rim, hubs=hubs, cmap=cmap):
                    return checks.wheel_has_pchc(
                        rim, hubs, lambda u, v: cmap.get(frozenset((u, v)))
                    )

                kind = "no-wheel" if no_wheel else "wheel"
                queries.append(_pchc_query(
                    f"{kind}-l{colors}-rim{rim_len}", g, EdgeColoring(cols, colors), dec, expected
                ))
    for n in RANDOM_COLORED_SIZES:
        g, col = genred.gen_random_edge_colored(
            n, 0.5, base.choice((2, 3, 4)), base.getrandbits(32)
        )
        num = Numbering(rng, g.n, g.m)
        g = Graph(g.n, num.edges(g.edges))
        col = EdgeColoring(num.per_edge(col.colors), col.num_colors)
        dec = pchc.min_degree_decomposition(g)
        queries.append(_pchc_query(
            f"random-n{n}", g, col, dec, lambda g=g, col=col: oracle.brute_pchc(g, col)
        ))
    return queries


# ---------------------------------------------------------------------------
# vdp-search


def searchable_graph(n, rng):
    """A random graph with at most four vertices of degree three or more.

    With those vertices as the root bag and one leaf per other vertex, the
    root torso has at most four vertices and every leaf has at most two cut
    edges, so the search finds a decomposition of width at most four.
    """
    while True:
        g, t = genred.gen_random_ftg(n, 2.6 / (n - 1), 0.75, rng.getrandbits(32))
        if g.m >= n - 1 and sum(g.degree(v) >= 3 for v in range(n)) <= 4:
            return g, t


def _vdp_query(label, g, t, pairs):
    def run():
        dec = treecut.exhaustive_treecut_decomposition(g, VDP_MAX_WIDTH)
        yes, info = treecut.comvdp(g, t, pairs, dec)
        return dec, yes, info.get("width")

    def check(res):
        dec, yes, width = res
        if sorted(v for bag in dec.bags for v in bag) != list(range(g.n)):
            return "decomposition bags do not partition the vertices"
        if width is None or width > VDP_MAX_WIDTH:
            return f"width {width} above {VDP_MAX_WIDTH}"
        ref = oracle.brute_disjoint_paths(g, t, pairs, "vertex")
        return None if yes == ref else f"answer {yes}, oracle {ref}"

    def key(res):
        dec, yes, width = res
        return yes, width, dec.root, dec.tree_edges, dec.bags

    return Query(label, run, check, key)


def _vdp_search(base, rng):
    queries = []
    for n in VDP_SIZES:
        g, t = searchable_graph(n, base)
        vs = base.sample(range(n), 2 * base.choice((1, 2)))
        g, t, num = renumbered(rng, g, t)
        vs = [num.vertex[v] for v in vs]
        pairs = [(vs[i], vs[i + 1]) for i in range(0, len(vs), 2)]
        queries.append(_vdp_query(f"vdp-n{n}-p{len(pairs)}", g, t, pairs))
    return queries


# ---------------------------------------------------------------------------
# cli-mix


def _write(workdir, name, data: bytes) -> str:
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _cli_run(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _report(res):
    code, text = res
    rep = json.loads(text)
    rep["stats"].pop("elapsed_ms", None)
    return code, rep


def _report_key(res):
    code, rep = _report(res)
    return code, json.dumps(rep, sort_keys=True)


def _cli_query(label, argv, check):
    def checked(res):
        code, rep = _report(res)
        if code != 0 or "error" in rep:
            return f"exit {code}, report {rep}"
        return check(rep)

    return Query(label, _cli_run(argv), checked, _report_key)


def _all_transitions(edges):
    at = {}
    for e, (u, v) in enumerate(edges):
        at.setdefault(u, []).append(e)
        at.setdefault(v, []).append(e)
    return [(e, f) for inc in at.values() for i, e in enumerate(inc) for f in inc[i + 1:]]


def _clustered(rng, clusters):
    """Triangles joined into a random tree by one or two edges per tree edge.

    Bag i is triangle i, so the decomposition has width three.
    """
    n = 3 * clusters
    edges = [(3 * i + a, 3 * i + b) for i in range(clusters) for a, b in ((0, 1), (1, 2), (0, 2))]
    tree = []
    for i in range(1, clusters):
        p = rng.randrange(i)
        tree.append((p, i))
        links = [(3 * p + a, 3 * i + b) for a in range(3) for b in range(3)]
        edges += rng.sample(links, rng.choice((1, 2)))
    g = Graph(n, edges)
    t = TransitionSystem([p for p in _all_transitions(g.edges) if rng.random() < 0.8])
    bags = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(clusters))
    return g, t, DecompositionFile(0, tuple(tree), bags)


def _grid(rng, rows, cols, back_arcs):
    """Unit-weight grid digraph: arcs right and down, plus some arcs left and up.

    Returns (digraph, transitions, (s1, t1, s2, t2)).
    """
    vid = lambda r, c: r * cols + c
    arcs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                arcs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                arcs.append((vid(r, c), vid(r + 1, c)))
    if back_arcs:
        arcs += [(v, u) for u, v in arcs if rng.random() < 0.3]
    into, out = {}, {}
    for a, (u, v) in enumerate(arcs):
        out.setdefault(u, []).append(a)
        into.setdefault(v, []).append(a)
    pairs = [
        (a, b)
        for v in into
        for a in into[v]
        for b in out.get(v, ())
        if arcs[b][1] != arcs[a][0] and rng.random() < 0.85
    ]
    g = DiGraph(rows * cols, arcs, (1,) * len(arcs))
    if rng.random() < 0.5:  # both pairs run from the top left to the bottom right
        ends = (vid(0, 0), vid(rows - 1, cols - 2), vid(1, 0), vid(rows - 1, cols - 1))
    else:  # one pair runs down, the other across
        ends = (vid(0, 1), vid(rows - 1, cols - 2), vid(1, 0), vid(rows - 2, cols - 1))
    return g, TransitionSystem(pairs), ends


def _parsed_instance_problem(path, colors=None, terminals=False):
    """Independent structural check of an instance file written by `gen`."""
    with open(path, "rb") as fh:
        obj = json.loads(fh.read())
    n, edges = obj["n"], [tuple(e) for e in obj["edges"]]
    if any(not (0 <= u < n and 0 <= v < n) or u == v for u, v in edges):
        return "edge endpoint out of range or a self-loop"
    if len({frozenset(e) for e in edges}) != len(edges):
        return "parallel edges"
    for e, f in obj["transitions"]:
        if len(set(edges[e]) & set(edges[f])) != 1:
            return f"transition {e},{f} joins edges without one shared vertex"
    if colors is not None and any(not 1 <= c <= colors for c in obj["colors"]):
        return "color out of range"
    if terminals and len(obj.get("terminals", ())) != 1:
        return "expected one terminal pair"
    return None


def _gen_query(label, argv, path, **expect):
    def check(res):
        code, text = res
        if code != 0 or text:
            return f"exit {code}, output {text!r}"
        return _parsed_instance_problem(path, **expect)

    def key(res):
        with open(path, "rb") as fh:
            return res, hashlib.sha256(fh.read()).hexdigest()

    return Query(label, _cli_run(argv + ["--out", path]), check, key)


def _cli_mix(base, rng, workdir):
    queries = []

    def instance_file(name, g, t, **extra):
        return _write(workdir, name, tio.serialize_instance(Instance(g, t, **extra)))

    for i in range(CLI_COUNTS["validate"]):
        g, t, _ = renumbered(rng, *_ftg(120, 3.0, 0.7, base))
        path = instance_file(f"validate{i}.json", g, t)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()

        def check(rep, digest=digest):
            if rep["answer"] is not True or rep["violations"] or rep["input_digest"] != digest:
                return f"valid instance reported as {rep}"
            return None

        queries.append(_cli_query("cli-validate-n120", ["validate", "--instance", path], check))

    for i in range(CLI_COUNTS["compath"]):
        n, bound = base.choice((12, 14, 16)), base.choice((4, 5, 6))
        while True:
            g, t = _ftg(n, 3.0, 0.7, base)
            ends = _endpoints_at_walk_distance(g, checks.pair_set(t.pairs), bound - 2, bound, base)
            if ends:
                break
        g, t, num = renumbered(rng, g, t)
        x, y = (num.vertex[v] for v in ends)
        path = instance_file(f"compath{i}.json", g, t)
        argv = ["compath", "--instance", path, "--from", str(x), "--to", str(y),
                "--max-len", str(bound), "--witness", "--seed", str(SOLVER_SEED)]

        def check(rep, g=g, t=t, x=x, y=y, bound=bound):
            ref = oracle.brute_compatible_path(g, t, x, y, bound)
            if rep["length"] != ref:
                return f"length {rep['length']}, oracle {ref}"
            if ref is None:
                return None
            return checks.undirected_path(
                g.n, g.edges, checks.pair_set(t.pairs), rep["witness"], x, y, ref
            )

        queries.append(_cli_query(f"cli-compath-n{n}", argv, check))

    for i in range(CLI_COUNTS["detour"]):
        n, k = base.choice((14, 17, 20)), base.choice((0, 1, 2))
        while True:
            g, t = _ftg(n, 3.0, 0.7, base)
            ends = _detour_endpoints(g, base, 3, 6)
            if ends:
                break
        s, tgt, d = ends
        g, t, num = renumbered(rng, g, t)
        s, tgt = num.vertex[s], num.vertex[tgt]
        path = instance_file(f"detour{i}.json", g, t)
        argv = ["detour", "--instance", path, "--from", str(s), "--to", str(tgt),
                "--slack", str(k), "--witness", "--seed", str(SOLVER_SEED)]

        def check(rep, g=g, t=t, s=s, tgt=tgt, k=k, d=d):
            ref = oracle.brute_compatible_path(g, t, s, tgt, d + k, size_guard=False)
            if rep["dist"] != d or rep["yes"] != (ref is not None) or rep["nu"] != ref:
                return f"report {rep}; oracle {ref}, dist {d}"
            if ref is None:
                return None
            return checks.undirected_path(
                g.n, g.edges, checks.pair_set(t.pairs), rep["witness"], s, tgt, ref
            )

        queries.append(_cli_query(f"cli-detour-n{n}-k{k}", argv, check))

    for i in range(CLI_COUNTS["pchc"]):
        n = base.choice((8, 9, 10))
        g, col = genred.gen_random_edge_colored(n, 0.5, 3, base.getrandbits(32))
        num = Numbering(rng, g.n, g.m)
        g = Graph(g.n, num.edges(g.edges))
        col = EdgeColoring(num.per_edge(col.colors), col.num_colors)
        inst = instance_file(f"pchc{i}.json", g, TransitionSystem(), coloring=col)
        dec = _write(workdir, f"pchc{i}.dec.json",
                     tio.serialize_decomposition(pchc.min_degree_decomposition(g)))
        argv = ["pchc", "--instance", inst, "--decomposition", dec, "--engine", "rank"]

        def check(rep, g=g, col=col):
            ref = oracle.brute_pchc(g, col)
            return None if rep["answer"] == ref else f"answer {rep['answer']}, oracle {ref}"

        queries.append(_cli_query(f"cli-pchc-n{n}", argv, check))

    for i in range(CLI_COUNTS["comvdp"]):
        g, t, dec = _clustered(base, base.choice((3, 4)))
        vs = base.sample(range(g.n), 2 * base.choice((1, 2)))
        g, t, num = renumbered(rng, g, t)
        inst = instance_file(f"comvdp{i}.json", g, t)
        decp = _write(workdir, f"comvdp{i}.dec.json",
                      tio.serialize_decomposition(renumbered_decomposition(dec, num)))
        vs = [num.vertex[v] for v in vs]
        pairs = [(vs[j], vs[j + 1]) for j in range(0, len(vs), 2)]
        argv = ["comvdp", "--instance", inst, "--decomposition", decp,
                "--pairs"] + [f"{a},{b}" for a, b in pairs]

        def check(rep, g=g, t=t, pairs=pairs):
            ref = oracle.brute_disjoint_paths(g, t, pairs, "vertex")
            return None if rep["answer"] == ref else f"answer {rep['answer']}, oracle {ref}"

        queries.append(_cli_query(f"cli-comvdp-n{g.n}", argv, check))

    for i in range(CLI_COUNTS["dsp"]):
        rows, cols, back = base.choice((4, 5)), base.choice((4, 5)), i % 2 == 1
        g, t, ends = _grid(base, rows, cols, back)
        num = Numbering(rng, g.n, g.m, directed=True)
        g = DiGraph(g.n, num.edges(g.arcs), num.per_edge(g.weights))
        t = TransitionSystem(num.pairs(t.pairs))
        s1, t1, s2, t2 = ends = tuple(num.vertex[v] for v in ends)
        path = instance_file(f"dsp{i}.json", g, t)
        for mode in ("edge", "vertex"):
            argv = ["dsp", "--instance", path, "--mode", mode, "--pairs", f"{s1},{t1},{s2},{t2}"]

            def check(rep, g=g, t=t, mode=mode, pairs=((s1, t1), (s2, t2))):
                ref = oracle.brute_2dspp(g, t, pairs, mode, size_guard=False)
                if rep["answer"] != ref:
                    return f"answer {rep['answer']}, oracle {ref}"
                if not ref:
                    return None
                return checks.disjoint_shortest_paths(
                    g.n, g.arcs, g.weights, checks.pair_set(t.pairs), pairs, rep["paths"], mode
                )

            kind = "back" if back else "dag"
            queries.append(_cli_query(f"cli-dsp-{mode}-{kind}-{rows}x{cols}", argv, check))

    gens = (
        ("random-ftg", ["--n", "40", "--p", "0.08", "--q", "0.7"], {}),
        ("random-colored", ["--n", "30", "--p", "0.1", "--colors", "4"], {"colors": 4}),
        ("psi-reduce", ["--mh", "3", "--n", "6", "--p", "0.5"], {"terminals": True}),
        ("psi-reduce-ham", ["--mh", "2", "--n", "6", "--p", "0.5"], {}),
    )
    for kind, flags, expect in gens:
        path = os.path.join(workdir, f"gen-{kind}.json")
        argv = ["gen", kind] + flags + ["--seed", str(rng.getrandbits(32))]
        queries.append(_gen_query(f"cli-gen-{kind}", argv, path, **expect))
    path = os.path.join(workdir, "gen-failing.json")
    queries.append(_gen_query("cli-gen-psi-reduce-mh16", FAILING_GEN, path, terminals=True))
    return queries
