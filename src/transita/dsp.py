"""Directed two disjoint shortest paths under transition restrictions.

Both variants reduce to path search in a product digraph over pairs of
shortest-path arcs: tight arcs toward each target are computed, arcs common
to both terminals' shortest-path sets are contracted, the second side is
reversed, and product arcs are pruned by compatibility tests inside the
contracted blobs.  Every positive answer is backed by two reconstructed,
independently re-validated witness paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Set

from .core import (
    DiGraph, InvariantError, TransitionSystem, Walk, INF, dijkstra, is_compatible_walk,
)


class PositivityError(ValueError):
    """The input contains a zero-length directed cycle."""


class AcyclicityError(ValueError):
    """A graph required to be acyclic has a directed cycle."""


def _kahn(succ: dict, error: str = "directed cycle present") -> list:
    """Topological order of the digraph given as node -> successor nodes
    (repeats allowed); raises AcyclicityError(error) on a directed cycle."""
    indeg = dict.fromkeys(succ, 0)
    for ws in succ.values():
        for w in ws:
            indeg[w] += 1
    stack = sorted((v for v in succ if indeg[v] == 0), key=repr)
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != len(succ):
        raise AcyclicityError(error)
    return order


def _level_search(start, goal, successors):
    """Level-order search in which each node keeps the parent that discovered
    it first; successors(node) yields (child, label) pairs.  Returns the
    labels along the path from start to goal, or None when goal is
    unreachable."""
    if start == goal:
        return []
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for child, label in successors(node):
                if child in parent:
                    continue
                parent[child] = (node, label)
                if child == goal:
                    labels = []
                    while parent[child] is not None:
                        child, label = parent[child]
                        labels.append(label)
                    return labels[::-1]
                nxt.append(child)
        frontier = nxt
    return None


class DArcGraph:
    """Directed multigraph with labeled vertices, explicit arc ids and
    an unordered permitted-transition set over arc ids."""

    __slots__ = ("vertices", "arcs", "out", "inc", "trans")

    def __init__(self):
        self.vertices: Set = set()
        self.arcs: Dict = {}  # aid -> (tail, head, weight)
        self.out: Dict = {}
        self.inc: Dict = {}
        self.trans: Set[frozenset] = set()

    @staticmethod
    def from_core(g: DiGraph, t: TransitionSystem) -> "DArcGraph":
        dg = DArcGraph()
        for v in range(g.n):
            dg.add_vertex(v)
        for a, (u, v) in enumerate(g.arcs):
            dg.add_arc(a, u, v, g.weight(a))
        dg.trans = set(frozenset(p) for p in t.pairs)
        return dg

    def add_vertex(self, v):
        if v not in self.vertices:
            self.vertices.add(v)
            self.out[v] = []
            self.inc[v] = []

    def add_arc(self, aid, u, v, w=0):
        if aid in self.arcs:
            raise ValueError(f"arc id {aid!r} exists")
        self.arcs[aid] = (u, v, w)
        self.out[u].append(aid)
        self.inc[v].append(aid)

    def tail(self, a):
        return self.arcs[a][0]

    def head(self, a):
        return self.arcs[a][1]

    def weight(self, a):
        return self.arcs[a][2]

    def permits(self, a, b) -> bool:
        return frozenset((a, b)) in self.trans

    def restriction(self, arc_ids) -> "DArcGraph":
        sub = DArcGraph()
        keep = set(arc_ids)
        for a in sorted(keep, key=repr):
            u, v, w = self.arcs[a]
            sub.add_vertex(u)
            sub.add_vertex(v)
            sub.add_arc(a, u, v, w)
        sub.trans = {p for p in self.trans if p <= keep}
        return sub

    def topo_order(self) -> list:
        return _kahn({v: [self.head(a) for a in self.out[v]] for v in self.vertices})


def _dijkstra_labels(dg: DArcGraph, s) -> dict:
    dist = {v: INF for v in dg.vertices}
    dist[s] = 0
    heap = [(0, repr(s), s)]
    done = set()
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for a in dg.out[v]:
            w = dg.head(a)
            nd = d + dg.weight(a)
            if w not in done and nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, repr(w), w))
    return dist


def check_positive_cycles(g: DiGraph) -> None:
    """Raise PositivityError when some directed cycle has zero total length."""
    succ = {v: [] for v in range(g.n)}
    for a, (u, v) in enumerate(g.arcs):
        if g.weight(a) == 0:
            succ[u].append(v)
    try:
        _kahn(succ)
    except AcyclicityError:
        raise PositivityError("zero-length directed cycle") from None


def shortest_edge_sets(g: DiGraph, s: int, t: int):
    """Arcs lying on some shortest s-t path: tight arcs from which t stays
    reachable inside the tight subgraph.  Returns (arc id list, dist map)."""
    dg = DArcGraph.from_core(g, TransitionSystem())
    arcs, dist = _tight_reaching(dg, s, t)
    return arcs, dist


def _tight_reaching(dg: DArcGraph, s, t):
    dist = _dijkstra_labels(dg, s)
    tight = [
        a
        for a, (u, v, w) in dg.arcs.items()
        if dist[u] != INF and dist[u] + w == dist[v]
    ]
    radj = {}
    for a in tight:
        radj.setdefault(dg.head(a), []).append(dg.tail(a))
    reach = {t}
    stack = [t]
    while stack:
        v = stack.pop()
        for u in radj.get(v, ()):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    return sorted((a for a in tight if dg.head(a) in reach), key=repr), dist


def _add_sentinels(dg: DArcGraph, s1, t1, s2, t2, tag) -> dict:
    """Zero-length sentinel arcs (tag, "A_i") into s_i and (tag, "B_i") out
    of t_i, each with a fresh outer end labelled like the arc itself.

    Every continuation out of s_i and into t_i is permitted; the update is a
    union, so transitions of other paths passing through a terminal survive.
    Returns the arc ids by name.
    """
    ids = {}
    for name, v in (("A1", s1), ("B1", t1), ("A2", s2), ("B2", t2)):
        aid = ids[name] = (tag, name)
        dg.add_vertex(aid)
        dg.add_vertex(v)
        if name[0] == "A":
            dg.add_arc(aid, aid, v, 0)
        else:
            dg.add_arc(aid, v, aid, 0)
    for name, v in (("A1", s1), ("A2", s2)):
        dg.trans.update(frozenset((ids[name], b)) for b in dg.out[v])
    for name, v in (("B1", t1), ("B2", t2)):
        dg.trans.update(frozenset((a, ids[name])) for a in dg.inc[v])
    return ids


# ---------------------------------------------------------------------------
# Compatible path problems on directed acyclic graphs.


def dag_compatible_path_raw(dg: DArcGraph, s, tgt, witness: bool = False):
    """Compatible s-tgt path in an acyclic digraph via its transition-filtered
    line digraph; any compatible walk found is automatically a path."""
    dg.topo_order()  # raises on cycles
    if s == tgt:
        return (True, ()) if witness else True
    # its own loop, not _level_search: it starts from several arcs and stops
    # at any arc into tgt, and written with callbacks for those, this
    # innermost search of vertex mode ran measurably slower
    parent = dict.fromkeys(sorted(dg.out.get(s, ()), key=repr))
    frontier = list(parent)
    while frontier:
        nxt = []
        for a in frontier:
            if dg.head(a) == tgt:
                if not witness:
                    return True
                seq = []
                while a is not None:
                    seq.append(a)
                    a = parent[a]
                return True, tuple(reversed(seq))
            for b in sorted(dg.out[dg.head(a)], key=repr):
                if b not in parent and dg.permits(a, b):
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    return (False, None) if witness else False


def dag_compatible_path(g: DiGraph, t: TransitionSystem, s: int, tgt: int, witness=False):
    """Public wrapper over core types; errors on cyclic input."""
    dg = DArcGraph.from_core(g, t)
    res = dag_compatible_path_raw(dg, s, tgt, witness=True)
    ok, seq = res
    if not witness:
        return ok
    if not ok:
        return False, None
    verts = [s] + [g.head(a) for a in seq]
    walk = Walk(tuple(verts), tuple(seq))
    if not (walk.is_path() and is_compatible_walk(g, t, walk)):
        raise InvariantError("DAG witness is not a compatible path")
    return True, walk


def _levels(dg: DArcGraph) -> dict:
    """Length of the longest directed path starting at each vertex."""
    order = dg.topo_order()
    lvl = {v: 0 for v in dg.vertices}
    for v in reversed(order):
        for a in dg.out[v]:
            lvl[v] = max(lvl[v], 1 + lvl[dg.head(a)])
    return lvl


def _dag_two_disjoint(dg0: DArcGraph, s1, t1, s2, t2, mode: str, witness: bool):
    """Perl-Shiloach style search over arc pairs ordered by longest-path levels.

    A product node (e1, e2) holds the last arcs of both partial paths; the
    side whose head can still reach furthest is extended first.  Once a path
    sits on its closing sentinel arc the other side extends freely, which is
    exactly the level comparison against a level-0 sentinel head.
    """
    vertex_mode = mode == "vertex"
    if vertex_mode and {s1, t1} & {s2, t2}:
        return (False, None) if witness else False
    dg = dg0.restriction(dg0.arcs)  # private copy
    sent_arc = _add_sentinels(dg, s1, t1, s2, t2, "darc")
    lvl = _levels(dg)

    def successors(node):
        e1, e2 = node
        h1, h2 = dg.head(e1), dg.head(e2)
        out = []
        if lvl[h2] >= lvl[h1] and e2 != sent_arc["B2"]:
            for e2n in dg.out[h2]:
                if e2n == e1 or not dg.permits(e2, e2n):
                    continue
                if vertex_mode and dg.head(e2n) in (dg.tail(e1), h1):
                    continue
                out.append(((e1, e2n), (2, e2n)))
        if lvl[h1] >= lvl[h2] and e1 != sent_arc["B1"]:
            for e1n in dg.out[h1]:
                if e1n == e2 or not dg.permits(e1, e1n):
                    continue
                if vertex_mode and dg.head(e1n) in (dg.tail(e2), h2):
                    continue
                out.append(((e1n, e2), (1, e1n)))
        return out

    steps = _level_search(
        (sent_arc["A1"], sent_arc["A2"]), (sent_arc["B1"], sent_arc["B2"]), successors
    )
    if steps is None:
        return (False, None) if witness else False
    if not witness:
        return True
    strip = set(sent_arc.values())
    return True, tuple(
        tuple(a for side, a in steps if side == i and a not in strip) for i in (1, 2)
    )


def dag_two_disjoint(g: DiGraph, t: TransitionSystem, s1, t1, s2, t2, mode, witness=False):
    """Two compatible s_i-t_i paths in an acyclic digraph, edge-disjoint or
    vertex-disjoint as mode ("edge" or "vertex") says; errors on cyclic input."""
    return _dag_two_disjoint(DArcGraph.from_core(g, t), s1, t1, s2, t2, mode, witness)


# ---------------------------------------------------------------------------
# Contracted shortest-path structure shared by both variants.


class ContractedStar:
    """The acyclic digraph on E1* u reversed(E2*) after contracting E0."""

    def __init__(self, dg: DArcGraph, e1, e2):
        self.dg = dg.restriction(set(e1) | set(e2))
        self.e0 = sorted(set(e1) & set(e2), key=repr)
        self.e1_star = sorted(set(e1) - set(e2), key=repr)
        self.e2_star = sorted(set(e2) - set(e1), key=repr)
        self.rev = set(self.e2_star)
        par = {}

        def find(x):
            root = x
            while par.get(root, root) != root:
                root = par[root]
            while par.get(x, x) != x:
                par[x], x = root, par[x]
            return root

        for a in self.e0:
            rx, ry = find(self.dg.tail(a)), find(self.dg.head(a))
            if rx != ry:
                if repr(rx) < repr(ry):
                    par[ry] = rx
                else:
                    par[rx] = ry
        self.cls = {v: find(v) for v in self.dg.vertices}
        self.members = {}
        for v, c in self.cls.items():
            self.members.setdefault(c, set()).add(v)
        self.v0 = {c for c, ms in self.members.items() if len(ms) > 1}
        # topological order and transitive closure of the star graph
        succ = {c: set() for c in self.members}
        for a in self.e1_star + self.e2_star:
            tl, hd = self.star_tail(a), self.star_head(a)
            if tl == hd:
                raise AcyclicityError("a non-contracted arc closed a loop")
            succ[tl].add(hd)
        topo = _kahn(succ, "contracted graph has a directed cycle")
        self.reach = {c: {c} for c in self.members}
        for c in reversed(topo):
            for d in succ[c]:
                self.reach[c] |= self.reach[d]

    def star_tail(self, a):
        u, v, _ = self.dg.arcs[a]
        return self.cls[v] if a in self.rev else self.cls[u]

    def star_head(self, a):
        u, v, _ = self.dg.arcs[a]
        return self.cls[u] if a in self.rev else self.cls[v]

    def blob_arcs(self, rep) -> list:
        ms = self.members[rep]
        return [
            a
            for a, (u, v, _) in sorted(self.dg.arcs.items(), key=lambda kv: repr(kv[0]))
            if u in ms and v in ms
        ]


def _product_path(star: ContractedStar, start, goal, arc_ok):
    """BFS over the pruned product; returns the step list or None."""
    out1, out2 = {}, {}
    for a in star.e1_star:
        out1.setdefault(star.star_tail(a), []).append(a)
    for a in star.e2_star:
        out2.setdefault(star.star_tail(a), []).append(a)

    def successors(node):
        e1, e2 = node
        res = []
        v2 = star.star_head(e2)
        v1 = star.star_head(e1)
        for e2n in out2.get(v2, ()):
            if arc_ok(("i", e1, e2, e2n)):
                res.append(((e1, e2n), ("i", e1, e2, e2n)))
        for e1n in out1.get(v1, ()):
            if arc_ok(("ii", e1, e1n, e2)):
                res.append(((e1n, e2), ("ii", e1, e1n, e2)))
        if v1 == v2:
            for e1n in out1.get(v1, ()):
                for e2n in out2.get(v2, ()):
                    if arc_ok(("iii", e1, e1n, e2, e2n)):
                        res.append(((e1n, e2n), ("iii", e1, e1n, e2, e2n)))
        return res

    return _level_search(start, goal, successors)


def _inner_graph(dg: DArcGraph, star, rep, routes):
    """Blob subgraph plus boundary arcs re-anchored on fresh outside copies.

    routes lists (entry arc, exit arc) pairs; returns the graph and the
    fresh (source, target) labels of each route, flattened.  Boundary arcs
    may share outside endpoints, which can close spurious cycles through
    the blob; fresh copies keep the graph acyclic without changing which
    boundary-to-boundary routings exist.  Transition checks are arc-id
    based and unaffected by the relabeling.
    """
    gs = DArcGraph()
    for a in star.blob_arcs(rep):
        u, v, w = dg.arcs[a]
        gs.add_vertex(u)
        gs.add_vertex(v)
        gs.add_arc(a, u, v, w)
    ends = []
    for a_in, a_out in routes:
        for a, entry in ((a_in, True), (a_out, False)):
            u, v, w = dg.arcs[a]
            lbl = ("bnd", len(ends))
            gs.add_vertex(lbl)
            if entry:
                gs.add_vertex(v)
                gs.add_arc(a, lbl, v, w)
            else:
                gs.add_vertex(u)
                gs.add_arc(a, u, lbl, w)
            ends.append(lbl)
    keep = set(gs.arcs)
    gs.trans = {p for p in dg.trans if p <= keep}
    return gs, ends


def _blob_routing(dg: DArcGraph, star, rep, routes, mode, witness=False):
    """Compatible routes through blob rep, one per (entry arc, exit arc) pair
    in routes, disjoint in the given mode when there are two.  Each witness
    route includes its entry and exit arcs."""
    gs, ends = _inner_graph(dg, star, rep, routes)
    if len(routes) == 1:
        return dag_compatible_path_raw(gs, *ends, witness=witness)
    return _dag_two_disjoint(gs, *ends, mode, witness)


# ---------------------------------------------------------------------------
# The driver shared by both variants.


@dataclass
class DspResult:
    yes: bool
    paths: Optional[tuple] = None  # pair of Walks in the input graph
    diagnostic: Optional[str] = None


def _validated_result(g, t, s_pairs, arcs1, arcs2, mode):
    walks = []
    for (s, tgt), arcs in zip(s_pairs, (arcs1, arcs2)):
        w = Walk((s,) + tuple(g.head(a) for a in arcs), tuple(arcs))
        if w.vertices[-1] != tgt:
            raise InvariantError("reconstructed witness misses its target")
        if not (w.is_path() and is_compatible_walk(g, t, w)):
            raise InvariantError("reconstructed witness is not a compatible path")
        if sum(g.weight(a) for a in arcs) != dijkstra(g, s)[tgt]:
            raise InvariantError("reconstructed witness is not a shortest path")
        walks.append(w)
    if mode == "edge":
        shared = set(arcs1) & set(arcs2)
    else:
        shared = set(walks[0].vertices) & set(walks[1].vertices)
    if shared:
        raise InvariantError(f"witnesses share {mode} items {sorted(shared)}")
    return DspResult(True, tuple(walks))


def edge_disjoint_2dspp(
    g: DiGraph, t: TransitionSystem, s1: int, t1: int, s2: int, t2: int, witness: bool = True
) -> DspResult:
    """Two edge-disjoint shortest compatible paths, in polynomial time.

    Requires every directed cycle to have positive length.  A yes answer
    carries two re-validated witness paths.
    """
    return _two_dspp(g, t, s1, t1, s2, t2, "edge", witness)


def vertex_disjoint_2dspp(
    g: DiGraph, t: TransitionSystem, s1: int, t1: int, s2: int, t2: int, witness: bool = True
) -> DspResult:
    """Two vertex-disjoint shortest compatible paths, in polynomial time."""
    return _two_dspp(g, t, s1, t1, s2, t2, "vertex", witness)


def _tight_pairs(dg: DArcGraph, ids) -> tuple:
    """E1 and E2: the arcs on shortest sentinel-to-sentinel paths per pair."""
    return tuple(_tight_reaching(dg, ids["A" + i], ids["B" + i])[0] for i in "12")


def _two_dspp(g, t, s1, t1, s2, t2, mode, witness):
    """The 2-DSPP pipeline; vertex mode runs it on the split graph."""
    if s1 == t1 or s2 == t2:
        raise ValueError("terminal pairs must have distinct endpoints")
    check_positive_cycles(g)
    if mode == "vertex" and {s1, t1} & {s2, t2}:
        return DspResult(False, diagnostic="terminal pairs share a vertex")
    dg = DArcGraph.from_core(g, t)
    a_ids = _add_sentinels(dg, s1, t1, s2, t2, "sa")
    e1, e2 = _tight_pairs(dg, a_ids)
    if a_ids["A1"] not in e1 or a_ids["A2"] not in e2:
        return DspResult(False, diagnostic="a target is unreachable")
    if mode == "vertex":
        dg = build_split_graph(dg.restriction(set(e1) | set(e2)))
        e1, e2 = _tight_pairs(dg, a_ids)
        if a_ids["A1"] not in e1 or a_ids["A2"] not in e2:
            return DspResult(False, diagnostic="a target is unreachable after splitting")
        # parallel-arc property: with one incoming arc of v- in Ei', all the
        # parallel arcs at v are
        par = [a for a in dg.arcs if not isinstance(a, int) and a[0] == "par"]
        for ei in (set(e1), set(e2)):
            split = {p[1] for p in par if p in ei} & {p[1] for p in par if p not in ei}
            if split:
                v = min(split, key=repr)
                raise InvariantError(f"parallel arcs at {v!r} split across E_i'")
    star = ContractedStar(dg, e1, e2)

    @lru_cache(maxsize=None)
    def permits_double(a_in, rep, a_out):
        """T_{G''} membership: entry arc, blob, exit arc (original orientations)."""
        if rep not in star.v0:
            return dg.permits(a_in, a_out)
        return _blob_routing(dg, star, rep, [(a_in, a_out)], mode)

    def arc_ok(step):
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            v = star.star_head(e2a)
            return v not in star.reach[star.star_head(e1a)] and permits_double(e2n, v, e2a)
        if kind == "ii":
            _, e1a, e1n, e2a = step
            v = star.star_head(e1a)
            return v not in star.reach[star.star_head(e2a)] and permits_double(e1a, v, e1n)
        _, e1a, e1n, e2a, e2n = step
        v = star.star_head(e1a)
        if mode == "vertex" and v not in star.v0:
            raise InvariantError("type-(iii) product arc at a non-contracted vertex")
        # a disjoint routing through the blob implies both single routes
        if not (permits_double(e1a, v, e1n) and permits_double(e2n, v, e2a)):
            return False
        return v not in star.v0 or _blob_routing(dg, star, v, [(e1a, e1n), (e2n, e2a)], mode)

    start = (a_ids["A1"], a_ids["B2"])
    steps = _product_path(star, start, (a_ids["B1"], a_ids["A2"]), arc_ok)
    if steps is None:
        return DspResult(False)
    if not witness:
        return DspResult(True)
    # working arcs of the input keep their int ids; sentinel and parallel
    # arcs have tuple ids
    arcs1, arcs2 = (
        [a for a in p if isinstance(a, int)] for p in _reconstruct(dg, star, steps, start, mode)
    )
    return _validated_result(g, t, ((s1, t1), (s2, t2)), arcs1, arcs2, mode)


def _reconstruct(dg, star, steps, start, mode):
    """Splice product steps into two original-orientation arc sequences."""

    def interiors(v, routes):
        """The arcs strictly inside blob v of each rebuilt route."""
        if v not in star.v0:
            return [[] for _ in routes]
        ok, found = _blob_routing(dg, star, v, routes, mode, witness=True)
        if not ok:
            what = "compatible path" if len(routes) == 1 else "disjoint routing"
            raise InvariantError(f"no {what} through blob {v!r} on rebuild")
        return [list(q[1:-1]) for q in ([found] if len(routes) == 1 else found)]

    p1 = [start[0]]
    p2_chunks = [[start[1]]]
    for step in steps:
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            (q2,) = interiors(star.star_head(e2a), [(e2n, e2a)])
            p2_chunks.append([e2n] + q2)
        elif kind == "ii":
            _, e1a, e1n, e2a = step
            (q1,) = interiors(star.star_head(e1a), [(e1a, e1n)])
            p1 += q1 + [e1n]
        else:
            _, e1a, e1n, e2a, e2n = step
            q1, q2 = interiors(star.star_head(e1a), [(e1a, e1n), (e2n, e2a)])
            p1 += q1 + [e1n]
            p2_chunks.append([e2n] + q2)
    return p1, [a for chunk in reversed(p2_chunks) for a in chunk]


# ---------------------------------------------------------------------------
# Vertex-disjoint variant via vertex splitting.


# the outer ends of the working graph's sentinel arcs, which _two_dspp tags "sa"
SENT_LABELS = {("sa", name) for name in ("A1", "B1", "A2", "B2")}


def build_split_graph(dg: DArcGraph) -> DArcGraph:
    """The split graph G': v- / v+ per vertex, one zero-length parallel arc
    per incoming arc, and transitions that remember the entry arc.

    Original arcs keep their ids as u+ -> v- arcs; the parallel arc paired
    with incoming arc a at v has id ("par", v, a).  Sentinel vertices are
    not split.
    """
    gp = DArcGraph()

    def minus(v):
        return v if v in SENT_LABELS else ("m", v)

    def plus(v):
        return v if v in SENT_LABELS else ("p", v)

    for v in sorted(dg.vertices, key=repr):
        if v in SENT_LABELS:
            gp.add_vertex(v)
        else:
            gp.add_vertex(("m", v))
            gp.add_vertex(("p", v))
    for a, (u, v, w) in sorted(dg.arcs.items(), key=lambda kv: repr(kv[0])):
        gp.add_arc(a, plus(u), minus(v), w)
    for v in sorted(dg.vertices, key=repr):
        if v in SENT_LABELS:
            continue
        for a_in in sorted(dg.inc[v], key=repr):
            pid = ("par", v, a_in)
            gp.add_arc(pid, ("m", v), ("p", v), 0)
            gp.trans.add(frozenset((a_in, pid)))
    for pair in dg.trans:
        a, b = tuple(pair)
        for x, y in ((a, b), (b, a)):
            if dg.head(x) == dg.tail(y):
                v = dg.head(x)
                if v in SENT_LABELS:
                    continue
                gp.trans.add(frozenset((("par", v, x), y)))
    return gp
