"""Directed two disjoint shortest paths under transition restrictions.

Both variants reduce to path search in a product digraph over pairs of
shortest-path arcs.  E1 and E2, the arcs on shortest s_i-t_i paths, are
computed once on the input, and the one working graph is built from just
their arcs and four sentinel arcs, so no later pass reads another arc.
Vertex mode splits that graph and derives E1' and E2' from E1 and E2:
splitting keeps every distance on them and adds only zero-length arcs.
Arcs common to both sets are contracted, the second side is reversed, and
product arcs are pruned by compatibility tests inside the contracted blobs.
Every positive answer is backed by two reconstructed, independently
re-validated witness paths.

_BlobRouter is the one compatible-route search on acyclic graphs: a line
sweep (dag_compatible_path_raw) for one route through a blob and a
Perl-Shiloach product sweep (_dag_two_disjoint) for two disjoint routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    DiGraph, Endpoint, InvariantError, TransitionSystem, Walk, INF, dijkstra,
    is_compatible_walk,
)


class PositivityError(ValueError):
    """The input contains a zero-length directed cycle."""


def _kahn(succ: dict) -> list:
    """Topological order of the digraph given as node -> successor nodes
    (repeats allowed); shorter than succ when there is a directed cycle."""
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
    return order


def _level_sweep(starts, successors, goal=None) -> dict:
    """Level-order search in which each node keeps the parent that discovered
    it first; successors(node) yields (child, label) pairs.

    Returns the parent map in discovery order: node -> (parent, label), or
    None for a start node.  The search stops as soon as goal (never a start
    node) is discovered, and otherwise sweeps everything reachable.
    """
    parent = dict.fromkeys(starts)
    frontier = list(parent)
    while frontier:
        nxt = []
        for node in frontier:
            for child, label in successors(node):
                if child in parent:
                    continue
                parent[child] = (node, label)
                if child == goal:
                    return parent
                nxt.append(child)
        frontier = nxt
    return parent


def _chain(parent, node) -> list:
    """The nodes on the parent chain from a start node to node."""
    nodes = [node]
    while parent[node] is not None:
        node = parent[node][0]
        nodes.append(node)
    return nodes[::-1]


def _labels(parent, node) -> list:
    """The labels along the parent chain from a start node to node."""
    return [parent[n][1] for n in _chain(parent, node)[1:]]


class DArcGraph:
    """Directed multigraph with labeled vertices, explicit arc ids and
    an unordered permitted-transition set over arc ids.

    arcs maps each arc id to (tail, head, weight).  The arcs are added in
    repr order of their ids, which fixes the order of every out- and
    in-list, and so of every sweep, the witnesses and the counters.  The
    vertices, the keys of out and inc, are the arcs' ends.  Of trans, pairs
    of arc ids, only those of two kept arcs are stored.
    """

    __slots__ = ("arcs", "out", "inc", "trans")

    def __init__(self, arcs: dict, trans):
        self.arcs = {}  # aid -> (tail, head, weight)
        self.out = {}
        self.inc = {}
        for a in sorted(arcs, key=repr):
            u, v, _ = self.arcs[a] = arcs[a]
            for x in (u, v):
                if x not in self.out:
                    self.out[x] = []
                    self.inc[x] = []
            self.out[u].append(a)
            self.inc[v].append(a)
        keep = set(self.arcs)
        self.trans = {frozenset(p) for p in trans if keep.issuperset(p)}

    def tail(self, a):
        return self.arcs[a][0]

    def head(self, a):
        return self.arcs[a][1]

    def permits(self, a, b) -> bool:
        return frozenset((a, b)) in self.trans


def check_positive_cycles(g: DiGraph) -> None:
    """Raise PositivityError when some directed cycle has zero total length."""
    succ = {v: [] for v in range(g.n)}
    for a, (u, v) in enumerate(g.arcs):
        if g.weight(a) == 0:
            succ[u].append(v)
    if len(_kahn(succ)) != g.n:
        raise PositivityError("zero-length directed cycle")


def _shortest_arcs(g: DiGraph, s: int, t: int) -> list:
    """The arcs on some shortest s-t path of g: the tight arcs whose head
    reaches t over tight arcs.  Empty when t is unreachable from s."""
    dist = dijkstra(g, s)
    tight, radj = [], {}
    for a, (u, v) in enumerate(g.arcs):
        if dist[u] != INF and dist[u] + g.weight(a) == dist[v]:
            tight.append(a)
            radj.setdefault(v, []).append(u)
    reach = {t}
    stack = [t]
    while stack:
        v = stack.pop()
        for u in radj.get(v, ()):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    return [a for a in tight if g.head(a) in reach]


def _working_graph(g: DiGraph, t: TransitionSystem, arc_ids, ends) -> DArcGraph:
    """The arcs arc_ids of g plus zero-length sentinel arcs ("sa", "A_i")
    into s_i and ("sa", "B_i") out of t_i, each with a fresh outer end
    labelled like the arc itself (see SENT_LABELS); ends is (s1, t1, s2, t2).

    Every continuation out of s_i and into t_i is permitted, beside the
    input's own transitions, so transitions of other paths passing through
    a terminal survive.  A self-pair (e, e) names no transition and is
    dropped, as compath.SlotGraph drops it.
    """
    s1, t1, s2, t2 = ends
    into = {("sa", "A1"): s1, ("sa", "A2"): s2}
    out_of = {("sa", "B1"): t1, ("sa", "B2"): t2}
    arcs = {a: (*g.arcs[a], g.weight(a)) for a in arc_ids}
    arcs.update({aid: (aid, v, 0) for aid, v in into.items()})
    arcs.update({aid: (v, aid, 0) for aid, v in out_of.items()})
    dg = DArcGraph(arcs, (p for p in t.pairs if p[0] != p[1]))
    for aid, v in into.items():
        dg.trans.update(frozenset((aid, b)) for b in dg.out[v])
    for aid, v in out_of.items():
        dg.trans.update(frozenset((a, aid)) for a in dg.inc[v])
    return dg


# ---------------------------------------------------------------------------
# Compatible path problems on directed acyclic graphs.


def _line_digraph(dg: DArcGraph) -> dict:
    """The transition-filtered line digraph: each arc mapped to the arcs it
    may continue on, in out-list order."""
    return {a: [b for b in dg.out[dg.head(a)] if dg.permits(a, b)] for a in dg.arcs}


def dag_compatible_path_raw(line: dict, starts) -> dict:
    """Level-order sweep of a line digraph (see _line_digraph) from the arcs
    starts; returns the _level_sweep parent map over arcs.

    In an acyclic digraph the parent chain of every arc reached is a
    compatible path, as no walk there repeats a vertex.
    """
    return _level_sweep(starts, lambda a: zip(line[a], line[a]))


def _levels(dg: DArcGraph) -> dict:
    """Length of the longest directed path starting at each vertex."""
    order = _kahn({v: [dg.head(a) for a in outs] for v, outs in dg.out.items()})
    if len(order) != len(dg.out):
        raise InvariantError("a blob graph has a directed cycle")
    lvl = dict.fromkeys(dg.out, 0)
    for v in reversed(order):
        for a in dg.out[v]:
            lvl[v] = max(lvl[v], 1 + lvl[dg.head(a)])
    return lvl


def _dag_two_disjoint(dg: DArcGraph, line, lvl, start, vertex_mode) -> dict:
    """Perl-Shiloach style sweep over arc pairs of an acyclic digraph.

    A product node (e1, e2) holds the last arcs of both partial paths; the
    side whose head can still reach furthest by lvl (any labelling that
    falls strictly along every arc, such as _levels) is extended first.  A
    side whose head is a sink has level 0, so the other side then extends
    freely.  line is the digraph's _line_digraph.  Returns the _level_sweep
    parent map from start, with labels (side, appended arc); a start pair
    that already shares an arc, or a head in vertex mode, reaches nothing.
    """
    head = dg.head
    e1, e2 = start
    if e1 == e2 or (vertex_mode and head(e1) == head(e2)):
        return {}

    # In vertex mode a new head need only differ from the other side's head:
    # a side extends only while its head is at least as high as the other's,
    # so every vertex behind the other side's last arc lies strictly above
    # all it can reach, and a _BlobRouter's start arcs leave fresh sources.
    def successors(node):
        e1, e2 = node
        h1, h2 = head(e1), head(e2)
        out = []
        if lvl[h2] >= lvl[h1]:
            for e2n in line[e2]:
                if e2n != e1 and not (vertex_mode and head(e2n) == h1):
                    out.append(((e1, e2n), (2, e2n)))
        if lvl[h1] >= lvl[h2]:
            for e1n in line[e1]:
                if e1n != e2 and not (vertex_mode and head(e1n) == h2):
                    out.append(((e1n, e2), (1, e1n)))
        return out

    return _level_sweep([start], successors)


# ---------------------------------------------------------------------------
# Contracted shortest-path structure shared by both variants.


class ContractedStar:
    """The acyclic digraph on E1* u reversed(E2*) after contracting E0.

    dg is the working graph, or its split graph in vertex mode; its arcs
    are exactly E1 u E2.
    """

    def __init__(self, dg: DArcGraph, e1, e2):
        if dg.arcs.keys() != set(e1) | set(e2):
            raise InvariantError("the working graph's arcs are not E1 u E2")
        self.dg = dg
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
        self.cls = {v: find(v) for v in dg.out}
        self.members = {}
        for v, c in self.cls.items():
            self.members.setdefault(c, set()).add(v)
        self.v0 = {c for c, ms in self.members.items() if len(ms) > 1}
        # topological order and transitive closure of the star graph
        succ = {c: set() for c in self.members}
        for a in self.e1_star + self.e2_star:
            tl, hd = self.star_tail(a), self.star_head(a)
            if tl == hd:
                raise InvariantError("a non-contracted arc closed a loop")
            succ[tl].add(hd)
        topo = _kahn(succ)
        if len(topo) != len(succ):
            raise InvariantError("contracted graph has a directed cycle")
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


def _product_path(star: ContractedStar, start, goal, arc_ok) -> dict:
    """Level-order search over the pruned product; returns its parent map."""
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

    return _level_sweep([start], successors, goal)


class _BlobRouter:
    """Compatible routes through one contracted blob, in original orientation.

    The blob's arcs and its boundary arcs form one graph, built once.  Each
    boundary arc sits on its own fresh outside end: boundary arcs may share
    outside endpoints, which could close spurious cycles through the blob,
    and with fresh ends every entry arc starts at a source and every exit
    arc ends in a sink, so a route can neither leave and re-enter nor pass
    through another route's ends.  Transition checks are arc-id based and
    unaffected by the relabeling.  The routes from one entry arc, and the
    disjoint route pairs from one entry pair, come from one sweep each,
    made on first use and kept with their parents for witnesses.
    """

    def __init__(self, sdg: DArcGraph, members, vertex_mode: bool, stats: dict):
        arcs = {
            a: (u if u in members else ("bnd", a), v if v in members else ("bnd", a), w)
            for a, (u, v, w) in sdg.arcs.items()
            if u in members or v in members
        }
        self.dg = DArcGraph(arcs, sdg.trans)
        self.line = _line_digraph(self.dg)
        self.lvl = _levels(self.dg)
        self.vertex_mode = vertex_mode
        self.stats = stats
        self.singles = {}  # entry arc -> parent map of its line sweep
        self.pairs = {}  # entry pair -> parent map of its product sweep
        stats["blobs"] += 1

    def single(self, a_in) -> dict:
        """The arcs reachable from entry arc a_in, each with its parent."""
        if a_in not in self.singles:
            self.stats["entry_sweeps"] += 1
            self.singles[a_in] = dag_compatible_path_raw(self.line, [a_in])
        return self.singles[a_in]

    def pair(self, e1, e2) -> dict:
        """The product nodes reachable from entry pair (e1, e2), each with its
        parent; exit pair (x1, x2) is among them when disjoint compatible
        routes e1 to x1 and e2 to x2 exist."""
        if (e1, e2) not in self.pairs:
            self.stats["pair_sweeps"] += 1
            self.pairs[e1, e2] = _dag_two_disjoint(
                self.dg, self.line, self.lvl, (e1, e2), self.vertex_mode
            )
        return self.pairs[e1, e2]

    def interior(self, a_in, a_out) -> list:
        """The arcs strictly inside the blob on the found route."""
        return _chain(self.single(a_in), a_out)[1:-1]

    def interiors(self, e1a, e1n, e2n, e2a) -> tuple:
        """The arcs strictly inside the blob on each of the found two routes."""
        steps = _labels(self.pair(e1a, e2n), (e1n, e2a))
        return tuple([a for side, a in steps if side == i][:-1] for i in (1, 2))


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
        try:
            ok = w.is_path() and is_compatible_walk(g, t, w)
        except ValueError as exc:  # an arc does not follow the one before
            raise InvariantError(f"reconstructed witness is not a walk: {exc}") from exc
        if not ok:
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


# counters that edge_disjoint_2dspp and vertex_disjoint_2dspp add to stats
STAT_KEYS = ("blobs", "entry_sweeps", "pair_sweeps", "product_nodes")


def edge_disjoint_2dspp(
    g: DiGraph, t: TransitionSystem, s1: int, t1: int, s2: int, t2: int, stats: dict = None,
) -> DspResult:
    """Two edge-disjoint shortest compatible paths, in polynomial time.

    Requires every directed cycle to have positive length.  Every yes
    answer carries its two witness paths, always reconstructed and
    re-validated.  When given, stats gains the STAT_KEYS counts: blobs
    routed through, line sweeps from entry arcs, product sweeps from entry
    pairs, and nodes discovered by the product search over the contracted
    star.
    """
    return _two_dspp(g, t, s1, t1, s2, t2, "edge", stats)


def vertex_disjoint_2dspp(
    g: DiGraph, t: TransitionSystem, s1: int, t1: int, s2: int, t2: int, stats: dict = None,
) -> DspResult:
    """Two vertex-disjoint shortest compatible paths, in polynomial time;
    stats as for edge_disjoint_2dspp."""
    return _two_dspp(g, t, s1, t1, s2, t2, "vertex", stats)


def _two_dspp(g, t, s1, t1, s2, t2, mode, stats):
    """The 2-DSPP pipeline; vertex mode runs it on the split graph."""
    for v in (s1, t1, s2, t2):
        Endpoint.vertex(v).validate(g)
    if s1 == t1 or s2 == t2:
        raise ValueError("terminal pairs must have distinct endpoints")
    stats = {} if stats is None else stats
    for key in STAT_KEYS:
        stats.setdefault(key, 0)
    check_positive_cycles(g)
    if mode == "vertex" and {s1, t1} & {s2, t2}:
        return DspResult(False, diagnostic="terminal pairs share a vertex")
    e1, e2 = _shortest_arcs(g, s1, t1), _shortest_arcs(g, s2, t2)
    if not (e1 and e2):
        return DspResult(False, diagnostic="a target is unreachable")
    dg = _working_graph(g, t, e1 + e2, (s1, t1, s2, t2))
    e1 += [("sa", "A1"), ("sa", "B1")]
    e2 += [("sa", "A2"), ("sa", "B2")]
    if mode == "vertex":
        e1, e2 = _split_arcs(dg, e1), _split_arcs(dg, e2)
        dg = build_split_graph(dg)
    star = ContractedStar(dg, e1, e2)
    routers = {}

    def router(v) -> _BlobRouter:
        if v not in routers:
            routers[v] = _BlobRouter(star.dg, star.members[v], mode == "vertex", stats)
        return routers[v]

    def permits_double(a_in, v, a_out):
        """T_{G''} membership: entry arc, blob, exit arc (original orientations)."""
        if v not in star.v0:
            return dg.permits(a_in, a_out)
        return a_out in router(v).single(a_in)

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
        return v not in star.v0 or (e1n, e2a) in router(v).pair(e1a, e2n)

    start, goal = (("sa", "A1"), ("sa", "B2")), (("sa", "B1"), ("sa", "A2"))
    parent = _product_path(star, start, goal, arc_ok)
    stats["product_nodes"] += len(parent)
    if goal not in parent:
        return DspResult(False)
    # working arcs of the input keep their int ids; sentinel and parallel
    # arcs have tuple ids
    arcs1, arcs2 = (
        [a for a in p if isinstance(a, int)]
        for p in _reconstruct(star, routers, _labels(parent, goal), start)
    )
    return _validated_result(g, t, ((s1, t1), (s2, t2)), arcs1, arcs2, mode)


def _reconstruct(star, routers, steps, start):
    """Splice product steps into two original-orientation arc sequences,
    reading blob interiors from the routers the search used."""
    p1 = [start[0]]
    p2_chunks = [[start[1]]]
    for step in steps:
        kind = step[0]
        if kind == "i":
            _, e1a, e2a, e2n = step
            v = star.star_head(e2a)
            q2 = routers[v].interior(e2n, e2a) if v in star.v0 else []
            p2_chunks.append([e2n] + q2)
        elif kind == "ii":
            _, e1a, e1n, e2a = step
            v = star.star_head(e1a)
            q1 = routers[v].interior(e1a, e1n) if v in star.v0 else []
            p1 += q1 + [e1n]
        else:
            _, e1a, e1n, e2a, e2n = step
            v = star.star_head(e1a)
            q1, q2 = routers[v].interiors(e1a, e1n, e2n, e2a) if v in star.v0 else ([], [])
            p1 += q1 + [e1n]
            p2_chunks.append([e2n] + q2)
    return p1, [a for chunk in reversed(p2_chunks) for a in chunk]


# ---------------------------------------------------------------------------
# Vertex-disjoint variant via vertex splitting.


# the outer ends of the working graph's sentinel arcs (see _working_graph)
SENT_LABELS = {("sa", name) for name in ("A1", "B1", "A2", "B2")}


def build_split_graph(dg: DArcGraph) -> DArcGraph:
    """The split graph G': v- / v+ per vertex, one zero-length parallel arc
    per incoming arc, and transitions that remember the entry arc.

    Original arcs keep their ids as u+ -> v- arcs; the parallel arc paired
    with incoming arc a at v has id ("par", v, a).  Sentinel vertices are
    not split.
    """

    def end(v, side):
        return v if v in SENT_LABELS else (side, v)

    arcs = {a: (end(u, "p"), end(v, "m"), w) for a, (u, v, w) in dg.arcs.items()}
    trans = []
    for v, inc in dg.inc.items():
        if v in SENT_LABELS:
            continue
        for a_in in inc:
            pid = ("par", v, a_in)
            arcs[pid] = (("m", v), ("p", v), 0)
            trans.append((a_in, pid))
    for pair in dg.trans:
        a, b = tuple(pair)
        for x, y in ((a, b), (b, a)):
            v = dg.head(x)
            if v == dg.tail(y) and v not in SENT_LABELS:
                trans.append((("par", v, x), y))
    return DArcGraph(arcs, trans)


def _split_arcs(dg: DArcGraph, ei) -> list:
    """E_i' on the split graph of dg: E_i and every parallel arc at the
    head of an E_i arc.

    On E1 u E2 the split graph keeps G's distances and its parallel arcs
    have length 0, so they are all tight there, and an arc tight in the
    split graph that reaches B_i lies on a shortest s_i-t_i path of G,
    which puts it in E_i already.
    """
    heads = {dg.head(a) for a in ei} - SENT_LABELS
    return ei + [("par", v, a) for v in heads for a in dg.inc[v]]
