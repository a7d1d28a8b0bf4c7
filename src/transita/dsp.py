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
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    DiGraph, InvariantError, TransitionSystem, Walk, INF, dijkstra, is_compatible_walk,
)


class PositivityError(ValueError):
    """The input contains a zero-length directed cycle."""


class AcyclicityError(ValueError):
    """A graph required to be acyclic has a directed cycle."""


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
        indeg = {v: 0 for v in self.vertices}
        for a, (u, v, _) in self.arcs.items():
            indeg[v] += 1
        queue = sorted([v for v in self.vertices if indeg[v] == 0], key=repr)
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for a in self.out[v]:
                w = self.head(a)
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(self.vertices):
            raise AcyclicityError("directed cycle present")
        return order


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
    zero = [a for a in range(g.m) if g.weight(a) == 0]
    out = {}
    for a in zero:
        out.setdefault(g.tail(a), []).append(g.head(a))
    color = {}

    def dfs(v):
        color[v] = 1
        for w in out.get(v, ()):
            if color.get(w) == 1:
                raise PositivityError("zero-length directed cycle")
            if color.get(w) is None:
                dfs(w)
        color[v] = 2

    for v in sorted(out):
        if color.get(v) is None:
            dfs(v)


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


# ---------------------------------------------------------------------------
# Compatible path problems on directed acyclic graphs.


def dag_compatible_path_raw(dg: DArcGraph, s, tgt, witness: bool = False):
    """Compatible s-tgt path in an acyclic digraph via its transition-filtered
    line digraph; any compatible walk found is automatically a path."""
    dg.topo_order()  # raises on cycles
    if s == tgt:
        return (True, ()) if witness else True
    parent = {}
    frontier = []
    for a in sorted(dg.out.get(s, ()), key=repr):
        parent[a] = None
        frontier.append(a)
    seen = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            if dg.head(a) == tgt:
                if not witness:
                    return True
                seq = []
                cur = a
                while cur is not None:
                    seq.append(cur)
                    cur = parent[cur]
                return True, tuple(reversed(seq))
            for b in sorted(dg.out[dg.head(a)], key=repr):
                if b not in seen and dg.permits(a, b):
                    seen.add(b)
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


def _dag_two_disjoint(dg0: DArcGraph, s1, t1, s2, t2, vertex_mode: bool, witness: bool):
    """Perl-Shiloach style search over arc pairs ordered by longest-path levels.

    A product node (e1, e2) holds the last arcs of both partial paths; the
    side whose head can still reach furthest is extended first.  Once a path
    sits on its closing sentinel arc the other side extends freely, which is
    exactly the level comparison against a level-0 sentinel head.
    """
    dg = dg0.restriction(dg0.arcs)  # private copy
    for v in (s1, t1, s2, t2):
        dg.add_vertex(v)  # terminals may be isolated
    sent_arc = {}
    for name in ("A1", "B1", "A2", "B2"):
        dg.add_vertex(("dsent", name))
        sent_arc[name] = ("darc", name)
    dg.add_arc(sent_arc["A1"], ("dsent", "A1"), s1, 0)
    dg.add_arc(sent_arc["B1"], t1, ("dsent", "B1"), 0)
    dg.add_arc(sent_arc["A2"], ("dsent", "A2"), s2, 0)
    dg.add_arc(sent_arc["B2"], t2, ("dsent", "B2"), 0)
    for name, v in (("A1", s1), ("A2", s2)):
        for b in dg.out[v]:
            if b != sent_arc[name]:
                dg.trans.add(frozenset((sent_arc[name], b)))
    for name, v in (("B1", t1), ("B2", t2)):
        for a in dg.inc[v]:
            if a != sent_arc[name]:
                dg.trans.add(frozenset((a, sent_arc[name])))
    lvl = _levels(dg)

    start = (sent_arc["A1"], sent_arc["A2"])
    goal = (sent_arc["B1"], sent_arc["B2"])

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
                out.append(((e1, e2n), 1))
        if lvl[h1] >= lvl[h2] and e1 != sent_arc["B1"]:
            for e1n in dg.out[h1]:
                if e1n == e2 or not dg.permits(e1, e1n):
                    continue
                if vertex_mode and dg.head(e1n) in (dg.tail(e2), h2):
                    continue
                out.append(((e1n, e2), 2))
        return out

    parent = {start: None}
    frontier = [start]
    found = start == goal
    while frontier and not found:
        nxt = []
        for node in frontier:
            for child, typ in successors(node):
                if child not in parent:
                    parent[child] = (node, typ)
                    if child == goal:
                        found = True
                    nxt.append(child)
        frontier = nxt
    if not found:
        return (False, None) if witness else False
    if not witness:
        return True
    p1, p2 = [sent_arc["A1"]], [sent_arc["A2"]]
    steps = []
    cur = goal
    while parent[cur] is not None:
        prev, typ = parent[cur]
        steps.append((cur, typ))
        cur = prev
    steps.reverse()
    for (f1, f2), typ in steps:
        if typ == 1:
            p2.append(f2)
        else:
            p1.append(f1)
    strip = set(sent_arc.values())
    w1 = tuple(a for a in p1 if a not in strip)
    w2 = tuple(a for a in p2 if a not in strip)
    return True, (w1, w2)


def dag_two_edge_disjoint(g: DiGraph, t: TransitionSystem, s1, t1, s2, t2, witness=False):
    """Two compatible edge-disjoint s_i-t_i paths in an acyclic digraph."""
    dg = DArcGraph.from_core(g, t)
    dg.topo_order()
    return _dag_two_disjoint(dg, s1, t1, s2, t2, vertex_mode=False, witness=witness)


def dag_two_vertex_disjoint(g: DiGraph, t: TransitionSystem, s1, t1, s2, t2, witness=False):
    """Two compatible vertex-disjoint s_i-t_i paths in an acyclic digraph."""
    if {s1, t1} & {s2, t2}:
        return (False, None) if witness else False
    dg = DArcGraph.from_core(g, t)
    dg.topo_order()
    return _dag_two_disjoint(dg, s1, t1, s2, t2, vertex_mode=True, witness=witness)


def _dag_two_disjoint_raw(dg: DArcGraph, s1, t1, s2, t2, vertex_mode, witness=False):
    if vertex_mode and {s1, t1} & {s2, t2}:
        return (False, None) if witness else False
    return _dag_two_disjoint(dg, s1, t1, s2, t2, vertex_mode, witness)


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
        indeg = {c: 0 for c in self.members}
        for c, ss in succ.items():
            for d in ss:
                indeg[d] += 1
        queue = sorted((c for c in self.members if indeg[c] == 0), key=repr)
        topo = []
        while queue:
            c = queue.pop()
            topo.append(c)
            for d in succ[c]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    queue.append(d)
        if len(topo) != len(self.members):
            raise AcyclicityError("contracted graph has a directed cycle")
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

    def inner_graph(self, rep, extra_arcs, source_dg: DArcGraph) -> DArcGraph:
        ids = set(self.blob_arcs(rep)) | set(extra_arcs)
        return source_dg.restriction(ids)


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

    parent = {start: None}
    frontier = [start]
    while frontier and goal not in parent:
        nxt = []
        for node in frontier:
            for child, step in successors(node):
                if child not in parent:
                    parent[child] = (node, step)
                    nxt.append(child)
        frontier = nxt
    if goal not in parent:
        return None
    steps = []
    cur = goal
    while parent[cur] is not None:
        prev, step = parent[cur]
        steps.append(step)
        cur = prev
    steps.reverse()
    return steps

# ---------------------------------------------------------------------------
# Edge-disjoint variant.


@dataclass
class DspResult:
    yes: bool
    paths: Optional[tuple] = None  # pair of Walks in the input graph
    diagnostic: Optional[str] = None


def _interior(seq: Sequence) -> list:
    return list(seq[1:-1])


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
    if s1 == t1 or s2 == t2:
        raise ValueError("terminal pairs must have distinct endpoints")
    dg, a_ids = _build_working(g, t, s1, t1, s2, t2)
    e1, _ = _tight_reaching(dg, ("sent", "s1p"), ("sent", "t1p"))
    e2, _ = _tight_reaching(dg, ("sent", "s2p"), ("sent", "t2p"))
    if a_ids["A1"] not in e1 or a_ids["A2"] not in e2:
        return DspResult(False, diagnostic="a target is unreachable")
    star = ContractedStar(dg, e1, e2)

    def inner(rep, a_in, a_out, want_witness=False):
        gs, src, tgt = _inner_graph(dg, star, rep, [(a_in, "in"), (a_out, "out")])
        return dag_compatible_path_raw(gs, src[a_in], tgt[a_out], witness=want_witness)

    def arc_ok(step):
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            v = star.star_head(e2a)
            if v in star.reach[star.star_head(e1a)]:
                return False
            if v in star.v0:
                return inner(v, e2n, e2a)
            return dg.permits(e2n, e2a)
        if kind == "ii":
            _, e1a, e1n, e2a = step
            v = star.star_head(e1a)
            if v in star.reach[star.star_head(e2a)]:
                return False
            if v in star.v0:
                return inner(v, e1a, e1n)
            return dg.permits(e1a, e1n)
        _, e1a, e1n, e2a, e2n = step
        v = star.star_head(e1a)
        if v in star.v0:
            gs, src, tgt = _inner_graph(
                dg, star, v,
                [(e1a, "in"), (e1n, "out"), (e2n, "in"), (e2a, "out")],
            )
            return _dag_two_disjoint_raw(
                gs, src[e1a], tgt[e1n], src[e2n], tgt[e2a], vertex_mode=False
            )
        return dg.permits(e1a, e1n) and dg.permits(e2n, e2a)

    start = (a_ids["A1"], a_ids["B2"])
    goal = (a_ids["B1"], a_ids["A2"])
    steps = _product_path(star, start, goal, arc_ok)
    if steps is None:
        return DspResult(False)
    if not witness:
        return DspResult(True)
    arcs1, arcs2 = _reconstruct(star, dg, steps, start, inner, mode="edge")
    sent = set(a_ids.values())
    arcs1 = [a for a in arcs1 if a not in sent]
    arcs2 = [a for a in arcs2 if a not in sent]
    return _validated_result(g, t, ((s1, t1), (s2, t2)), arcs1, arcs2, "edge")


def _reconstruct(star, dg, steps, start, inner, mode):
    """Splice product steps into two original-orientation arc sequences."""
    p1 = [start[0]]
    p2_chunks = [[start[1]]]
    for step in steps:
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            v = star.star_head(e2a)
            chunk = [e2n]
            if v in star.v0:
                chunk += _interior(_inner_one(inner, v, e2n, e2a))
            p2_chunks.append(chunk)
        elif kind == "ii":
            _, e1a, e1n, e2a = step
            v = star.star_head(e1a)
            if v in star.v0:
                p1 += _interior(_inner_one(inner, v, e1a, e1n))
            p1.append(e1n)
        else:
            _, e1a, e1n, e2a, e2n = step
            v = star.star_head(e1a)
            chunk = [e2n]
            if v in star.v0:
                q1, q2 = _inner_two(star, dg, v, e1a, e1n, e2a, e2n, mode)
                p1 += _interior(q1)
                chunk += _interior(q2)
            p1.append(e1n)
            p2_chunks.append(chunk)
    p2 = []
    for chunk in reversed(p2_chunks):
        p2 += chunk
    return p1, p2


def _inner_one(inner, rep, a_in, a_out):
    ok, q = inner(rep, a_in, a_out, True)
    if not ok:
        raise InvariantError(f"no compatible path through blob {rep!r} on rebuild")
    return q


def _inner_two(star, dg, rep, e1a, e1n, e2a, e2n, mode):
    gs, src, tgt = _inner_graph(
        dg, star, rep, [(e1a, "in"), (e1n, "out"), (e2n, "in"), (e2a, "out")]
    )
    ok, qs = _dag_two_disjoint_raw(
        gs, src[e1a], tgt[e1n], src[e2n], tgt[e2a],
        vertex_mode=(mode == "vertex"), witness=True,
    )
    if not ok:
        raise InvariantError(f"no disjoint routing through blob {rep!r} on rebuild")
    # both paths include the boundary arcs as first/last elements
    return qs


def _inner_graph(dg: DArcGraph, star, rep, boundary):
    """Blob subgraph plus boundary arcs re-anchored on fresh outside copies.

    Boundary arcs may share outside endpoints, which can close spurious
    cycles through the blob; fresh copies keep the graph acyclic without
    changing which boundary-to-boundary routings exist.  Transition checks
    are arc-id based and unaffected by the relabeling.
    """
    gs = DArcGraph()
    members = star.members[rep]
    for a in star.blob_arcs(rep):
        u, v, w = dg.arcs[a]
        gs.add_vertex(u)
        gs.add_vertex(v)
        gs.add_arc(a, u, v, w)
    src, tgt = {}, {}
    for i, (a, role) in enumerate(boundary):
        u, v, w = dg.arcs[a]
        if role == "in":
            lbl = ("bnd", i)
            gs.add_vertex(lbl)
            gs.add_vertex(v)
            gs.add_arc(a, lbl, v, w)
            src[a] = lbl
        else:
            lbl = ("bnd", i)
            gs.add_vertex(lbl)
            gs.add_vertex(u)
            gs.add_arc(a, u, lbl, w)
            tgt[a] = lbl
    keep = set(gs.arcs)
    gs.trans = {p for p in dg.trans if p <= keep}
    return gs, src, tgt

def _build_working(g: DiGraph, t: TransitionSystem, s1, t1, s2, t2):
    """Sentinel-extended working copy with permissive terminal transitions.

    Adds s_i', t_i' with zero-length arcs and permits every continuation out
    of s_i and into t_i; the t_i update is a union, so transitions of other
    paths passing through a terminal survive.
    """
    check_positive_cycles(g)
    dg = DArcGraph.from_core(g, t)
    for name in ("s1p", "t1p", "s2p", "t2p"):
        dg.add_vertex(("sent", name))
    a_ids = {}
    for name, (tailv, headv) in (
        ("A1", (("sent", "s1p"), s1)),
        ("B1", (t1, ("sent", "t1p"))),
        ("A2", (("sent", "s2p"), s2)),
        ("B2", (t2, ("sent", "t2p"))),
    ):
        aid = ("sa", name)
        dg.add_arc(aid, tailv, headv, 0)
        a_ids[name] = aid
    for name, v in (("A1", s1), ("A2", s2)):
        for b in list(dg.out[v]):
            if b != a_ids[name]:
                dg.trans.add(frozenset((a_ids[name], b)))
    for name, v in (("B1", t1), ("B2", t2)):
        for a in list(dg.inc[v]):
            if a != a_ids[name]:
                dg.trans.add(frozenset((a, a_ids[name])))
    return dg, a_ids

# ---------------------------------------------------------------------------
# Vertex-disjoint variant via vertex splitting.


SENT_LABELS = {("sent", "s1p"), ("sent", "t1p"), ("sent", "s2p"), ("sent", "t2p")}


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


def vertex_disjoint_2dspp(
    g: DiGraph, t: TransitionSystem, s1: int, t1: int, s2: int, t2: int, witness: bool = True
) -> DspResult:
    """Two vertex-disjoint shortest compatible paths, in polynomial time."""
    if s1 == t1 or s2 == t2:
        raise ValueError("terminal pairs must have distinct endpoints")
    if {s1, t1} & {s2, t2}:
        return DspResult(False, diagnostic="terminal pairs share a vertex")
    dg, a_ids = _build_working(g, t, s1, t1, s2, t2)
    e1, _ = _tight_reaching(dg, ("sent", "s1p"), ("sent", "t1p"))
    e2, _ = _tight_reaching(dg, ("sent", "s2p"), ("sent", "t2p"))
    if a_ids["A1"] not in e1 or a_ids["A2"] not in e2:
        return DspResult(False, diagnostic="a target is unreachable")
    pruned = dg.restriction(set(e1) | set(e2))
    gp = build_split_graph(pruned)
    e1p, _ = _tight_reaching(gp, ("sent", "s1p"), ("sent", "t1p"))
    e2p, _ = _tight_reaching(gp, ("sent", "s2p"), ("sent", "t2p"))
    if a_ids["A1"] not in e1p or a_ids["A2"] not in e2p:
        return DspResult(False, diagnostic="a target is unreachable after splitting")
    # parallel-arc property: with one incoming arc of v- in Ei', all the
    # parallel arcs at v are
    for eip in (e1p, e2p):
        eset = set(eip)
        by_vertex = {}
        for a in eip:
            if isinstance(a, tuple) and a and a[0] == "par":
                by_vertex.setdefault(a[1], set()).add(a)
        for v, some in by_vertex.items():
            allp = {a for a in gp.arcs if isinstance(a, tuple) and a[:2] == ("par", v)}
            if not allp <= eset:
                raise InvariantError(f"parallel arcs at {v!r} split across E_i'")
    star = ContractedStar(gp, e1p, e2p)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def permits_double(a_in, rep, a_out):
        """T_{G''} membership: entry arc, blob, exit arc (original orientations)."""
        if rep not in star.v0:
            return gp.permits(a_in, a_out)
        gs, src, tgt = _inner_graph(gp, star, rep, [(a_in, "in"), (a_out, "out")])
        return dag_compatible_path_raw(gs, src[a_in], tgt[a_out])

    def inner(rep, a_in, a_out, want_witness=False):
        gs, src, tgt = _inner_graph(gp, star, rep, [(a_in, "in"), (a_out, "out")])
        return dag_compatible_path_raw(gs, src[a_in], tgt[a_out], witness=want_witness)

    def arc_ok(step):
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            v = star.star_head(e2a)
            if v in star.reach[star.star_head(e1a)]:
                return False
            return permits_double(e2n, v, e2a)
        if kind == "ii":
            _, e1a, e1n, e2a = step
            v = star.star_head(e1a)
            if v in star.reach[star.star_head(e2a)]:
                return False
            return permits_double(e1a, v, e1n)
        _, e1a, e1n, e2a, e2n = step
        v = star.star_head(e1a)
        if v not in star.v0:
            raise InvariantError("type-(iii) product arc at a non-contracted vertex")
        if not (permits_double(e1a, v, e1n) and permits_double(e2n, v, e2a)):
            return False
        gs, src, tgt = _inner_graph(
            gp, star, v, [(e1a, "in"), (e1n, "out"), (e2n, "in"), (e2a, "out")]
        )
        return _dag_two_disjoint_raw(
            gs, src[e1a], tgt[e1n], src[e2n], tgt[e2a], vertex_mode=True
        )

    start = (a_ids["A1"], a_ids["B2"])
    goal = (a_ids["B1"], a_ids["A2"])
    steps = _product_path(star, start, goal, arc_ok)
    if steps is None:
        return DspResult(False)
    if not witness:
        return DspResult(True)
    arcs1p, arcs2p = _reconstruct(star, gp, steps, start, inner, mode="vertex")
    arcs1 = [a for a in arcs1p if isinstance(a, int)]
    arcs2 = [a for a in arcs2p if isinstance(a, int)]
    return _validated_result(g, t, ((s1, t1), (s2, t2)), arcs1, arcs2, "vertex")
