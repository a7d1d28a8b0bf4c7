"""Compatible vertex-disjoint paths parameterized by treecut-width.

The solver runs leaf-to-root over a nice treecut decomposition.  At each
node it enumerates records (how solution paths may cross the node's cut)
and decides each one on a bounded-size instance.  One routine,
_apply_record, applies a record to either side of a cut, terminating
cut-edge groups into low-degree gateway vertices: dropping Z_t gives the
corresponding instance of a record at t, and dropping Y_s (with internal and
foreign edges swapped) simplifies a child s by one of its own valid records.
Thin children are simplified by the first candidate record that is valid,
with two gadgets for a choice of exits; bold children try every
combination of their valid records.  The residual instance is decided
exhaustively.

Every record at t starts from t's frame: the bag, the ends of the cut edges
of t and of each child, and the edges among them.  Any other vertex is deep:
it lies in Z_t or in a child's Y_s with all its neighbours on that side,
which t's record or the child's simplification drops before the instance is
decided.  Until then it only appears in transitions at vertices dropped with
it, so leaving it out changes nothing, and the work per record is bounded by
the width, not by n.

Y_t and Z_t are never built whole: each node takes the sides it drops once,
over its frame and the terminals, by the postorder interval test of
TreecutDecomposition.y_part.  Gateways are made later, so they lie on neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import Endpoint, Graph, InvariantError, TransitionSystem
from .io import DecompositionFile, postorder


# ---------------------------------------------------------------------------
# Labeled forbidden-transition graphs.
#
# Vertices are arbitrary hashable labels; graphs are simple; the transition
# set at v is stored as unordered neighbor pairs {u, w} meaning {uv, vw} is
# permitted.  This makes suppression and termination pure local rewrites.


class LGraph:
    """Mutable simple graph with per-vertex neighbor-pair transitions."""

    __slots__ = ("adj", "trans")

    def __init__(self):
        self.adj: Dict = {}
        self.trans: Dict = {}

    @staticmethod
    def from_core(g: Graph, t: TransitionSystem) -> "LGraph":
        lg = LGraph()
        for v in range(g.n):
            lg.add_vertex(v)
        for u, v in g.edges:
            lg.add_edge(u, v)
        for e, f in t.pairs:
            shared = set(g.endpoints(e)) & set(g.endpoints(f))
            if len(shared) != 1:
                raise ValueError(f"transition {(e, f)} does not share one vertex")
            (v,) = shared
            lg.trans[v].add(frozenset((g.other_end(e, v), g.other_end(f, v))))
        return lg

    def copy(self) -> "LGraph":
        lg = LGraph()
        lg.adj = {v: set(nb) for v, nb in self.adj.items()}
        lg.trans = {v: set(ps) for v, ps in self.trans.items()}
        return lg

    def add_vertex(self, v):
        if v in self.adj:
            raise ValueError(f"vertex {v!r} exists")
        self.adj[v] = set()
        self.trans[v] = set()

    def add_edge(self, u, v):
        if u == v or v in self.adj[u]:
            raise ValueError(f"edge {u!r}-{v!r} invalid or duplicate")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_vertex(self, v):
        for w in list(self.adj[v]):
            self.remove_edge(v, w)
        del self.adj[v]
        del self.trans[v]

    def remove_edge(self, u, v):
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.trans[u] = {p for p in self.trans[u] if v not in p}
        self.trans[v] = {p for p in self.trans[v] if u not in p}

    def permits(self, u, v, w) -> bool:
        """May a walk enter v from u and leave towards w?"""
        return frozenset((u, w)) in self.trans[v]

    def allow_all(self, v):
        self.trans[v] = {
            frozenset((a, b)) for a, b in itertools.combinations(self.adj[v], 2)
        }

    def num_vertices(self) -> int:
        return len(self.adj)

    def degree(self, v) -> int:
        return len(self.adj[v])


def suppress_vertex(lg: LGraph, v) -> bool:
    """Suppress a vertex of degree at most two, preserving compatible paths.

    With no usable transition the vertex is simply deleted; otherwise its
    unique through-transition is rewired onto the bypass edge.  When the
    bypass edge already exists the vertex is kept and False is returned:
    merging the routed transitions into the existing edge would let a walk
    combine one endpoint's direct permission with the other endpoint's
    routed permission, creating connectivity the original graph lacks.
    """
    deg = lg.degree(v)
    if deg > 2:
        raise ValueError(f"cannot suppress {v!r} of degree {deg}")
    usable = {p for p in lg.trans[v] if p <= lg.adj[v]}
    if deg < 2 or not usable:
        lg.remove_vertex(v)
        return True
    (pair,) = usable  # degree 2 leaves at most one possible pair
    u, w = tuple(pair)
    if w in lg.adj[u]:
        return False
    lg.add_edge(u, w)
    for end, far in ((u, w), (w, u)):
        new = set()
        for p in lg.trans[end]:
            if v in p:
                (x,) = p - {v}
                new.add(frozenset((x, far)))
            else:
                new.add(p)
        lg.trans[end] = new
    lg.remove_vertex(v)
    return True


class TerminationError(ValueError):
    """The given edge family is not terminable with respect to the subgraph."""


def terminate(lg: LGraph, inside: Set, groups: Sequence[Sequence[Tuple]], labels=None):
    """Terminate cut-edge groups into fresh gateway vertices.

    inside is the kept vertex set; each group lists one or two cut edges as
    (inside_endpoint, outside_endpoint) pairs, a pair group requiring two
    distinct inside endpoints.  Returns (new graph, gateway labels).  The
    result is simple and gateway vertices have degree at most two with all
    transitions permitted.
    """
    for gi, grp in enumerate(groups):
        if len(grp) not in (1, 2):
            raise TerminationError(f"group {gi}: size must be 1 or 2")
        for u, o in grp:
            if u not in inside or o in inside:
                raise TerminationError(f"group {gi}: edge ({u!r},{o!r}) does not cross")
            if o not in lg.adj.get(u, ()):
                raise TerminationError(f"group {gi}: edge ({u!r},{o!r}) not present")
        if len(grp) == 2 and grp[0][0] == grp[1][0]:
            raise TerminationError(f"group {gi}: pair endpoints inside must differ")
    seen = set()
    for grp in groups:
        for edge in grp:
            key = frozenset(edge)
            if key in seen:
                raise TerminationError("groups are not disjoint")
            seen.add(key)

    out = LGraph()
    for v in inside:
        out.adj[v] = lg.adj[v] & inside
        out.trans[v] = {p for p in lg.trans[v] if p <= inside}
    if labels is None:
        labels = [("c", i) for i in range(len(groups))]
    # outside counterpart of each group edge at its inside endpoint
    gateway_at = {}
    for gi, grp in enumerate(groups):
        c = labels[gi]
        out.add_vertex(c)
        for u, o in grp:
            out.add_edge(u, c)
            gateway_at[(u, c)] = o
    for gi, grp in enumerate(groups):
        c = labels[gi]
        for u, o in grp:
            for w in list(lg.adj[u]):
                if w in inside and lg.permits(w, u, o):
                    out.trans[u].add(frozenset((w, c)))
            for (u2, c2), o2 in gateway_at.items():
                if u2 == u and c2 != c and lg.permits(o, u, o2):
                    out.trans[u].add(frozenset((c, c2)))
        out.allow_all(c)
    return out, list(labels)


# ---------------------------------------------------------------------------
# Treecut decompositions: derived sets, width, niceness.


def _suppress_shrunk(adj) -> int:
    """How many shrunk vertices of a torso survive suppression.

    adj maps each shrunk vertex (a negative label) to its neighbours (shrunk,
    or bag vertices >= 0) with edge multiplicities, and is consumed.  Shrunk
    vertices of degree at most two are suppressed until none is left: a
    degree-2 vertex's two ends are joined, which keeps their degrees (two
    parallel edges become a loop, counting 2), and a degree-1 vertex lowers
    its neighbour's degree.  Degrees never rise, so the worklist order does
    not change the result.
    """
    deg = {x: sum(nb.values()) for x, nb in adj.items()}
    work = [x for x in adj if deg[x] <= 2]
    while work:
        x = work.pop()
        nb = adj.pop(x, None)
        if nb is None:
            continue
        for y in nb:
            if y < 0:
                del adj[y][x]
        ends = [y for y, k in nb.items() for _ in range(k)]
        if len(ends) == 2 and ends[0] != ends[1]:
            # a loop is left out: it is never the end of a later drop
            a, b = ends
            for p, q in ((a, b), (b, a)):
                if p < 0:
                    adj[p][q] = adj[p].get(q, 0) + 1
        elif len(ends) == 1 and ends[0] < 0:
            deg[ends[0]] -= 1
            if deg[ends[0]] <= 2:
                work.append(ends[0])
    return len(adj)


class TreecutDecomposition:
    """A rooted tree with a (possibly empty-bag) partition of the vertices.

    Postorder makes each subtree an interval: v lies in Y_t iff
    _first[t] <= _pos[v's node] <= _pos[t] (y_part), and a gateway, not a
    vertex of g, lies on neither side.
    Cuts are built leaf to root: cut(t) is the symmetric difference of the
    edges at t's bag vertices and the cuts of t's children.  An edge with an
    end in a part that the torso at t shrinks lies in the cut of t or of a
    child, so torsos and niceness read only those cuts, never the graph.
    """

    def __init__(self, g: Graph, dec: DecompositionFile):
        self.g = g
        self.root = dec.root
        self.children = {k: sorted(v) for k, v in dec.children_map().items()}
        self.bags = {i: frozenset(b) for i, b in enumerate(dec.bags)}
        self._node_of = [None] * g.n
        for t, b in self.bags.items():
            for v in b:
                if not (0 <= v < g.n):
                    raise ValueError(f"bag vertex {v} out of range")
                self._node_of[v] = t
        if None in self._node_of or sum(map(len, self.bags.values())) != g.n:
            raise ValueError("bags must partition the vertex set")
        self.parent = {c: t for t, cs in self.children.items() for c in cs}
        self._number()
        self._cut = {}
        for tnode in self.postorder:
            cut = set()
            for c in self.children[tnode]:
                cut.symmetric_difference_update(self._cut[c])
            for v in self.bags[tnode]:
                cut ^= {e for _, e in g.adj(v)}
            self._cut[tnode] = tuple(sorted(cut))

    def nodes(self):
        return self.postorder

    def _number(self):
        """Number the nodes in postorder; t's subtree spans _first[t].._pos[t]."""
        self.postorder = postorder(self.children, self.root)
        self._pos, self._first = [0] * len(self.bags), [0] * len(self.bags)
        for i, t in enumerate(self.postorder):
            self._pos[t] = i
            self._first[t] = self._first[self.children[t][0]] if self.children[t] else i

    def y_part(self, t, vertices) -> set:
        """Those of vertices that lie in Y_t."""
        lo, hi, pos, node_of = self._first[t], self._pos[t], self._pos, self._node_of
        return {v for v in vertices if lo <= pos[node_of[v]] <= hi}

    def cut_edges(self, t) -> tuple:
        return self._cut[t]

    def is_thin(self, t) -> bool:
        return t != self.root and len(self.cut_edges(t)) <= 2

    def thin_children(self, t):
        return [c for c in self.children[t] if self.is_thin(c)]

    def bold_children(self, t):
        return [c for c in self.children[t] if not self.is_thin(c)]

    def torso_size(self, t) -> int:
        """|V(3-center)| of the torso at t.

        Each child subtree, and the rest of the graph above t, shrinks to one
        vertex; edges inside a shrunk vertex vanish.  The bag and the shrunk
        vertices that survive _suppress_shrunk make up the 3-center.
        """
        bag = self.bags[t]
        # shrunk vertices: -1 above t, -2, -3, ... the child subtrees
        shrunk = {}
        edges = set(self._cut[t])
        for i, c in enumerate(self.children[t]):
            edges.update(self._cut[c])
            for v in self.y_part(c, [v for e in self._cut[c] for v in self.g.edges[e]]):
                shrunk[v] = -2 - i
        adj = {x: {} for x in range(-1 - len(self.children[t]), 0)}
        for e in sorted(edges):
            u, v = self.g.edges[e]
            a = u if u in bag else shrunk.get(u, -1)
            b = v if v in bag else shrunk.get(v, -1)
            if a != b:
                for x, y in ((a, b), (b, a)):
                    if x < 0:
                        adj[x][y] = adj[x].get(y, 0) + 1
        return len(bag) + _suppress_shrunk(adj)

    def width(self) -> int:
        w = 0
        for t in self.postorder:
            w = max(w, len(self.cut_edges(t)), self.torso_size(t))
        return w

    def _violation(self):
        """The first thin node, in postorder, with a neighbour in a sibling's
        subtree, paired with the first such sibling; None when nice."""
        for t in self.postorder:
            if not self.is_thin(t):
                continue
            ends = {w for e in self._cut[t] for w in self.g.edges[e]}  # Y_b misses Y_t
            for b in self.children[self.parent[t]]:
                if b != t and self.y_part(b, ends):
                    return t, b
        return None

    def is_nice(self) -> bool:
        return self._violation() is None


def evaluate_width(g: Graph, dec: DecompositionFile):
    """Width of a treecut decomposition plus its niceness flag."""
    tc = TreecutDecomposition(g, dec)
    return tc.width(), tc.is_nice()


class NicenessError(InvariantError):
    """make_nice produced a decomposition that breaks its guarantees."""


def make_nice(g: Graph, dec: DecompositionFile) -> Tuple[TreecutDecomposition, int]:
    """Reattach violating thin nodes below the sibling subtree they touch.

    Returns the nice decomposition and its width.  Its width and node count
    do not exceed the input's; both facts are checked, raising NicenessError,
    rather than assumed.
    """
    cur = TreecutDecomposition(g, dec)
    width_before = cur.width()
    for _ in range((len(cur.bags) + 1) ** 3):
        move = cur._violation()
        if move is None:
            break
        t, b = move  # in place: Y_t, Y_b are disjoint, so only cut(b) changes
        cur.children[cur.parent[t]].remove(t)
        cur.children[b] = sorted([*cur.children[b], t])
        cur.parent[t] = b
        cur._cut[b] = tuple(sorted(set(cur._cut[b]).symmetric_difference(cur._cut[t])))
        cur._number()
    else:  # pragma: no cover
        raise NicenessError("make_nice did not converge")
    if not cur.is_nice():
        raise NicenessError("niceness transformation left a violating thin node")
    width = cur.width()
    if width > width_before:
        raise NicenessError("niceness transformation raised the width")
    return cur, width


EXHAUSTIVE_MAX_N = 10


def _bits(mask):
    """The vertices of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _two_level_width(nbr, s: int, leaves) -> int:
    """Width of the decomposition with root bag s and one leaf per entry of
    leaves, all vertex bitmasks, for the graph with neighbour bitmasks nbr.

    A leaf's torso is the leaf plus the rest of the graph shrunk to one
    vertex of degree cut, which suppression keeps only when cut > 2.  The
    root's cut is empty, and its torso is s plus one shrunk vertex per leaf.
    """
    owner = {v: ~i for i, leaf in enumerate(leaves) for v in _bits(leaf)}
    width = 0
    adj = {}
    for i, leaf in enumerate(leaves):
        ends = {}
        for v in _bits(leaf):
            for w in _bits(nbr[v] & ~leaf):
                x = owner.get(w, w)
                ends[x] = ends.get(x, 0) + 1
        cut = sum(ends.values())
        width = max(width, cut, leaf.bit_count() + (cut > 2))
        adj[~i] = ends
    return max(width, s.bit_count() + _suppress_shrunk(adj))


def exhaustive_treecut_decomposition(
    g: Graph, k_max: int
) -> Optional[DecompositionFile]:
    """Minimum-width decomposition over a canonical two-level search space.

    Candidates, in order: the single root bag, then for every subset S of
    vertices (by bitmask) a root bag S with one leaf per remaining vertex,
    and one leaf per component of G-S when that differs.  Returns the first
    candidate of minimum width if that width is at most k_max, else None;
    guarded to n <= EXHAUSTIVE_MAX_N.

    Vertex sets are bitmasks, and each candidate is scored directly by
    _two_level_width, which agrees with evaluate_width on two-level trees;
    only the winner becomes a DecompositionFile.  Branch and bound: a
    candidate's width is at least |S| (the root torso holds the bag) and
    each leaf's size and cut size, and it is scored only when that bound is
    at most k_max and below the best width found so far.  A mask whose |S|
    alone fails the test is skipped before G-S is split.  A skipped
    candidate is wider than k_max or no narrower than an earlier one, so the
    result is the one that scoring every candidate gives.
    """
    if g.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive search is guarded to n <= {EXHAUSTIVE_MAX_N}")
    if g.n == 0:
        return DecompositionFile(0, (), ((),))
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    full = (1 << g.n) - 1
    best = None
    best_width = k_max + 1  # only a candidate narrower than this counts

    def consider(s, leaves):
        nonlocal best, best_width
        w = _two_level_width(nbr, s, leaves)
        if w < best_width:
            best, best_width = (s, leaves), w

    if g.n < best_width:
        consider(full, [])
    for s in range(full):  # s = full leaves no rest
        size = s.bit_count()
        if size >= best_width:
            continue
        # one flood over G-S gives its components, in order of their lowest
        # vertex, each one's size and cut (all of whose edges end in S), and
        # the largest degree in G-S, which is the largest singleton cut
        comps, left, top_single, top_comp = [], full ^ s, 0, 0
        while left:
            comp = frontier = left & -left
            cut = 0
            while frontier:
                low = frontier & -frontier
                nb = nbr[low.bit_length() - 1]
                top_single = max(top_single, nb.bit_count())
                cut += (nb & s).bit_count()
                new = nb & left & ~comp
                comp |= new
                frontier = frontier ^ low | new
            comps.append(comp)
            top_comp = max(top_comp, cut, comp.bit_count())
            left ^= comp
        if top_single < best_width:
            consider(s, [1 << v for v in _bits(full ^ s)])
        if len(comps) != g.n - size and top_comp < best_width:
            consider(s, comps)
    if best is None:
        return None
    bags = [tuple(_bits(m)) for m in [best[0], *best[1]]]
    return DecompositionFile(0, tuple((0, i) for i in range(1, len(bags))), tuple(bags))


def single_bag_treecut(g: Graph) -> DecompositionFile:
    return DecompositionFile(0, (), (tuple(range(g.n)),))


# ---------------------------------------------------------------------------
# Records: how solution paths may cross the cut of a node.

I, F, L, U = "I", "F", "L", "U"


@dataclass(frozen=True)
class Record:
    """Cut summary (sigma, I-matching, F-matching, lambda) for one node."""

    sigma: tuple  # sorted tuple of (edge id, label in {I,F,L,U})
    ipairs: frozenset  # frozenset of frozenset({e, f})
    fpairs: frozenset
    lam: tuple  # sorted tuple of (terminal vertex, edge id)

    def label(self, e: int) -> str:
        return dict(self.sigma)[e]


EMPTY_RECORD = Record((), frozenset(), frozenset(), ())


def _matchings(edges: Sequence[int], side_of, distinct_required: bool):
    """All perfect matchings of edges; pair sides must differ when required."""
    edges = list(edges)
    if not edges:
        yield frozenset()
        return
    if len(edges) % 2:
        return
    first = edges[0]
    for i in range(1, len(edges)):
        other = edges[i]
        if distinct_required and side_of(first) == side_of(other):
            continue
        rest = edges[1:i] + edges[i + 1 :]
        for m in _matchings(rest, side_of, distinct_required):
            yield m | {frozenset((first, other))}


def unmatched_terminals(dec: TreecutDecomposition, t, pairs) -> list:
    y = dec.y_part(t, [v for p in pairs for v in p])
    out = []
    for a, b in pairs:
        if a in y and b not in y:
            out.append(a)
        if b in y and a not in y:
            out.append(b)
    return sorted(out)


def enumerate_records(
    g: Graph, dec: TreecutDecomposition, t, pairs, width: Optional[int] = None
) -> list:
    """All records for node t, each satisfying the degree and matching rules."""
    cut = dec.cut_edges(t)
    y = dec.y_part(t, [v for e in cut for v in g.edges[e]])
    uts = unmatched_terminals(dec, t, pairs)
    y_side = {e: (g.edges[e][0] if g.edges[e][0] in y else g.edges[e][1]) for e in cut}
    z_side = {e: (g.edges[e][1] if g.edges[e][0] in y else g.edges[e][0]) for e in cut}
    out = []
    for labels in itertools.product((I, F, L, U), repeat=len(cut)):
        sigma = tuple(zip(cut, labels))
        by = {I: [], F: [], L: [], U: []}
        for e, l in sigma:
            by[l].append(e)
        if len(by[L]) != len(uts):
            continue
        if len(by[I]) % 2 or len(by[F]) % 2:
            continue
        # per-vertex degree conditions over I+F+L
        used = {}
        ok = True
        for e, l in sigma:
            if l == U:
                continue
            for v in g.edges[e]:
                used.setdefault(v, []).append(l)
        for v, ls in used.items():
            if len(ls) > 2:
                ok = False
                break
            if len(ls) == 2:
                a, b = sorted(ls)
                if (a, b) in ((I, I), (F, F)):
                    continue
                if (a, b) == (F, L) and v not in y:
                    continue
                ok = False
                break
        if not ok:
            continue
        for im in _matchings(by[I], lambda e: y_side[e], True):
            for fm in _matchings(by[F], lambda e: z_side[e], True):
                for perm in itertools.permutations(by[L]):
                    lam = tuple(sorted(zip(uts, perm)))
                    out.append(Record(sigma, frozenset(im), frozenset(fm), lam))
    if width is not None:
        bound = 4**width * math.factorial(width) ** 3
        if len(out) > bound:
            raise InvariantError(f"{len(out)} records exceed the bound {bound}")
    return out


# ---------------------------------------------------------------------------
# Working state: the current graph with realized cut edges and terminals.


@dataclass
class WorkState:
    """Current instance while processing one record at one node."""

    lg: LGraph
    pairs: Set[frozenset]  # terminal pairs, as 2-element frozensets
    # original edge -> current edge, or None once deleted; only the frame's
    # edges, which hold every cut edge of the node and of its children
    realized: Dict[int, Optional[tuple]]
    fresh: itertools.count

    def new_label(self, tag):
        return ("c", tag, next(self.fresh))


def _lookup_partner(pairs, a):
    for p in pairs:
        if a in p:
            (b,) = p - {a}
            return b
    return None


def _terminate_state(ws: WorkState, drop_set: Set, groups_edges: List[List[int]], tag):
    """Terminate groups (given as original edge ids) w.r.t. everything
    outside drop_set.  The graph, realized edges and pairs are replaced, not
    changed in place, so a frame that ws started from stays as it was."""
    inside = set(ws.lg.adj) - drop_set
    groups = []
    labels = []
    for grp in groups_edges:
        cur = []
        for e in grp:
            iu, ov = ws.realized[e]
            # realized edges store (kept endpoint, dropped endpoint) relative
            # to the current termination: orient now
            if iu in drop_set:
                iu, ov = ov, iu
            cur.append((iu, ov))
        groups.append(cur)
        labels.append(ws.new_label(tag))
    ws.lg, labels = terminate(ws.lg, inside, groups, labels)
    # terminated edges point at their gateway; any other edge losing an
    # endpoint is gone
    terminated = {e: labels[gi] for gi, grp in enumerate(groups_edges) for e in grp}
    realized = {}
    for e, cur in ws.realized.items():
        if cur is not None:
            u, v = cur
            if e in terminated:
                cur = (u if u in inside else v, terminated[e])
            elif u in drop_set or v in drop_set:
                cur = None
        realized[e] = cur
    ws.realized = realized
    ws.pairs = {p for p in ws.pairs if not p & drop_set}
    return labels


def _kept_end(ws: WorkState, e: int, dropped):
    """The current end of edge e that is not in dropped."""
    u, v = ws.realized[e]
    return v if u in dropped else u


def _apply_record(ws: WorkState, drop: Set, rec: Record, keep_y: bool, tag) -> bool:
    """Replace drop, the labels ws holds on one side of node t's cut, by
    gateways, as rec says.

    With keep_y, Z_t is dropped (the corresponding instance): each I-pair
    becomes one pair gateway, each F and L edge a single gateway, each
    F-pair a terminal pair of gateways, and each unmatched terminal a is
    paired with the gateway of its lambda edge.  Otherwise Y_t is dropped
    (simplifying a child) with I and F swapped, and a's partner outside Y_t
    takes the place of a.  U edges cross the cut, so the termination drops
    them.  Returns False, before any change, when rec uses a deleted edge, a
    pair group's two kept-side ends coincide, or a terminal's partner is
    gone.  ws gets a new graph, so the one it had is never changed.
    """
    if keep_y:
        gated, paired, single = rec.ipairs, rec.fpairs, F
    else:
        gated, paired, single = rec.fpairs, rec.ipairs, I
    if any(ws.realized[e] is None for e, lbl in rec.sigma if lbl != U):
        return False
    groups = [sorted(pg) for pg in sorted(gated, key=sorted)]
    if any(_kept_end(ws, e1, drop) == _kept_end(ws, e2, drop) for e1, e2 in groups):
        return False  # a path would have to visit that vertex twice
    ends = {a: a if keep_y else _lookup_partner(ws.pairs, a) for a, _ in rec.lam}
    if None in ends.values():
        return False
    groups += [[e] for e, lbl in rec.sigma if lbl in (single, L)]
    labels = _terminate_state(ws, drop, groups, tag)
    label_of = {e: lbl for grp, lbl in zip(groups, labels) for e in grp}
    for pg in paired:
        ws.pairs.add(frozenset(label_of[e] for e in pg))
    for a, e in rec.lam:
        ws.pairs.add(frozenset((ends[a], label_of[e])))
    return True


def node_frame(whole: LGraph, g: Graph, dec: TreecutDecomposition, t) -> WorkState:
    """The frame of node t (see the module docstring), as a WorkState with
    no pairs: the subgraph of whole, the input as an LGraph, induced by the
    bag and the ends of the cut edges of t and of each child, with realized
    entries for its edges only."""
    keep = set(dec.bags[t])
    for s in [t] + dec.children[t]:
        for e in dec.cut_edges(s):
            keep.update(g.edges[e])
    lg, _ = terminate(whole, keep, [])
    realized = {e: tuple(g.edges[e]) for v in keep for w, e in g.adj(v) if w in keep}
    return WorkState(lg, set(), realized, itertools.count())


def build_corresponding_state(frame: WorkState, pairs, z_t: Set, rec: Record) -> WorkState:
    """The corresponding instance of record rec at node t, as a WorkState;
    z_t covers the labels of Z_t in the frame and the pairs.

    It shares t's frame without a copy: every later step replaces the graph,
    the realized map and the pairs instead of changing them, so the frame
    is only read.  Deep vertices are not in it and are never needed.
    """
    ws = replace(frame, pairs={frozenset(p) for p in pairs}, fresh=itertools.count())
    _apply_record(ws, z_t, rec, True, "R")
    return ws


# ---------------------------------------------------------------------------
# SComVDP: vertex-disjoint compatible paths when all but a small core has
# degree at most two.


def _disjoint_paths_search(lg: LGraph, pairs: List[frozenset]) -> bool:
    """Exhaustive vertex-disjoint compatible path packing on a tiny graph."""

    def extend(idx, used):
        if idx == len(pairs):
            return True
        a, b = sorted(pairs[idx], key=repr)
        if a not in lg.adj or b not in lg.adj:
            return False

        def dfs(v, prev, local):
            if v == b:
                return extend(idx + 1, used | local)
            for w in sorted(lg.adj[v], key=repr):
                if w in local or w in used:
                    continue
                if prev is not None and not lg.permits(prev, v, w):
                    continue
                if dfs(w, v, local | {w}):
                    return True
            return False

        if a in used or b in used:
            return False
        return dfs(a, None, {a})

    return extend(0, set())


def scomvdp_state(lg: LGraph, pairs: Set[frozenset], core: Set) -> bool:
    """Decide SComVDP on a working state; core plays the role of the set A."""
    lg = lg.copy()
    pairs = set(pairs)
    if len(pairs) > lg.num_vertices():
        return False
    flat = [v for p in pairs for v in p]
    if len(flat) != len(set(flat)):
        return False
    terminals = set(flat)
    b_side = [v for v in lg.adj if v not in core]
    for v in sorted(b_side, key=repr):
        if v in terminals:
            continue
        if lg.degree(v) > 2:
            raise ValueError(f"degree-{lg.degree(v)} vertex {v!r} outside the core")
        suppress_vertex(lg, v)  # may decline when its bypass edge exists
    for p in sorted(pairs, key=lambda q: sorted(map(repr, q))):
        v, w = tuple(p)
        if v in core or w in core or v not in lg.adj or w not in lg.adj:
            continue
        if w in lg.adj[v]:
            # the single-edge path uses the fewest vertices, so taking it
            # never hurts another pair
            pairs.discard(p)
            terminals.discard(v)
            terminals.discard(w)
            lg.remove_vertex(v)
            lg.remove_vertex(w)
    for v in sorted(list(lg.adj), key=repr):
        if v in core or v not in lg.adj or v not in terminals:
            continue
        if all(w not in core and w in terminals for w in lg.adj[v]):
            # every neighbor is somebody else's terminal, so v cannot leave
            return False
    b_rest = [v for v in lg.adj if v not in core]
    if all(v in terminals for v in b_rest) and len(b_rest) > 2 * len(core):
        # with only terminals outside the core, every path through them must
        # visit a core vertex, so two outside terminals consume one of |A|
        return False
    for p in pairs:
        if any(v not in lg.adj for v in p):
            return False
    return _disjoint_paths_search(lg, sorted(pairs, key=lambda p: sorted(map(repr, p))))


# ---------------------------------------------------------------------------
# The reduction rule for thin children.


def _records_effective(ws: WorkState, cut: Sequence[int], d_records) -> list:
    """Child records consistent with the current realization of its cut."""
    deleted = {e for e in cut if ws.realized[e] is None}
    out = []
    for r in d_records:
        if all(r.label(e) == U for e in deleted):
            out.append(r)
    return out


def reduce_thin_child(ws: WorkState, dec: TreecutDecomposition, s, drop, d_records, pairs) -> bool:
    """Apply the thin-child reduction for child s, whose side is drop, in place.

    The candidate records label deleted cut edges U.  With no unmatched
    terminal they are all-F, all-U and all-I on the present edges; otherwise
    each assignment of the terminals to present edges, the rest U.  The
    first candidate in D(s) that _apply_record can realize simplifies s.
    Two gadgets stand in when two edges are present and every assignment is
    in D(s): one terminal may leave by either exit, and two terminals may
    swap exits (a twin gateway).  Returns False when no candidate applies;
    the caller then discards the current record.
    """
    cut = dec.cut_edges(s)
    present = [e for e in cut if ws.realized[e] is not None]
    uts = unmatched_terminals(dec, s, pairs)

    def sigma(lbl, edges):
        return tuple((e, lbl if e in edges else U) for e in cut)

    none = frozenset()
    if uts:
        cands = [
            Record(sigma(L, perm), none, none, tuple(sorted(zip(uts, perm))))
            for perm in itertools.permutations(present, len(uts))
        ]
    else:
        pair = frozenset([frozenset(present)]) if len(present) == 2 else none
        cands = [
            Record(sigma(F, present), none, pair, ()),
            Record(sigma(U, ()), none, none, ()),
            Record(sigma(I, present), pair, none, ()),
        ]
    valid = [r for r in cands if r in d_records]
    if len(present) == 2 and uts and len(valid) == len(cands):
        # every assignment is valid: keep the choice of exit open
        partners = [_lookup_partner(ws.pairs, a) for a in uts]
        if None in partners:
            return False
        ei, ej = present
        zi, zj = (_kept_end(ws, e, drop) for e in present)
        if zi != zj:
            (lbl,) = _terminate_state(ws, drop, [[ei, ej]], f"s{s}")
            ws.pairs.add(frozenset((lbl, partners[0])))
            if len(uts) == 2:
                # the twin copies lbl, so the terminals may swap exits
                twin = ws.new_label(f"s{s}t")
                ws.lg.add_vertex(twin)
                for w in sorted(ws.lg.adj[lbl], key=repr):
                    ws.lg.add_edge(twin, w)
                    for p in list(ws.lg.trans[w]):
                        if lbl in p:
                            (x,) = p - {lbl}
                            if x != twin:
                                ws.lg.trans[w].add(frozenset((x, twin)))
                ws.lg.allow_all(twin)
                ws.pairs.add(frozenset((twin, partners[1])))
            return True
        if len(uts) == 1:
            # both exits land on one outside vertex; a single-edge gateway
            # with the union of the two transition contexts is equivalent to
            # the pair gateway
            u_j = next(v for v in ws.realized[ej] if v != zj)
            extra = {p - {u_j} for p in ws.lg.trans[zj] if u_j in p}
            (lbl,) = _terminate_state(ws, drop, [[ei]], f"s{s}")
            for (w,) in extra:
                if w in ws.lg.adj[zj]:
                    ws.lg.trans[zj].add(frozenset((w, lbl)))
            ws.pairs.add(frozenset((lbl, partners[0])))
            return True
    return any(_apply_record(ws, drop, r, False, f"s{s}") for r in valid)


# ---------------------------------------------------------------------------
# The leaf-to-root dynamic program.


def solve_node(whole: LGraph, pairs, dec: TreecutDecomposition, t, d, width) -> list:
    """Valid records of node t, given the valid records d of its children.

    Each record's corresponding instance, built from t's frame, has its thin
    children simplified in place; then every combination of the bold
    children's records is tried.  A leaf has neither kind of child, so its
    one (empty) combination decides the corresponding instance itself.
    """
    thin = dec.thin_children(t)
    bold = dec.bold_children(t)
    if len(bold) > 2 * width + 1:
        raise InvariantError("a nice decomposition has at most 2w+1 bold children")
    frame = node_frame(whole, dec.g, dec, t)
    held = [*frame.lg.adj, *(v for p in pairs for v in p)]
    y = {s: dec.y_part(s, held) for s in dec.children[t]}
    z_t = set(held) - dec.y_part(t, held)
    core = set(dec.bags[t])
    out = []
    for rec in enumerate_records(dec.g, dec, t, pairs, width):
        base = build_corresponding_state(frame, pairs, z_t, rec)
        if not all(reduce_thin_child(base, dec, s, y[s], d[s], pairs) for s in thin):
            continue
        eff = [_records_effective(base, dec.cut_edges(s), d[s]) for s in bold]
        for combo in itertools.product(*eff):
            ws = replace(base)  # _apply_record leaves base as it was
            if not all(
                _apply_record(ws, y[s], rec_s, False, f"Q{s}")
                for s, rec_s in zip(bold, combo)
            ):
                continue
            if any(
                v not in core and ws.lg.degree(v) > 2 for v in ws.lg.adj
            ):  # pragma: no cover - structural guarantee of the construction
                raise InvariantError("non-core vertex of degree above two")
            if scomvdp_state(ws.lg, ws.pairs, core):
                out.append(rec)
                break
    return out


def comvdp(g: Graph, tsys: TransitionSystem, pairs, dec: DecompositionFile):
    """Compatible vertex-disjoint paths, leaf-to-root over a treecut dec.

    Returns (answer, info); info carries the width and niceness used, the
    nice decomposition, and the valid records of each node solved so far.
    """
    pairs = [tuple(p) for p in pairs]
    flat = [v for p in pairs for v in p]
    for v in flat:
        Endpoint.vertex(v).validate(g)
    if len(flat) != len(set(flat)):
        return False, {"reason": "overlapping terminal pairs"}
    tc, width = make_nice(g, dec)
    d = {}
    info = {"width": width, "nice": True, "decomposition": tc, "tables": d}
    for t in tc.nodes():
        if len(unmatched_terminals(tc, t, pairs)) > len(tc.cut_edges(t)):
            return False, info  # cut too small for the crossing terminals
    whole = LGraph.from_core(g, tsys)
    for t in tc.nodes():
        d[t] = solve_node(whole, pairs, tc, t, d, width)
        if not d[t]:
            return False, info
    return d[tc.root] == [EMPTY_RECORD], info


def correspondence_record(
    g: Graph, dec: TreecutDecomposition, t, pairs, walks
) -> Record:
    """The unique record a given solution corresponds to at node t.

    walks must be vertex-disjoint compatible paths realizing pairs, in the
    same order.  Follows the crossing-order classification of solution
    paths into internal, foreign and leaving edges.
    """
    cut = set(dec.cut_edges(t))
    y = dec.y_part(t, [v for w in walks for v in (w.vertices[0], w.vertices[-1])])
    labels = {}
    ipairs = set()
    fpairs = set()
    lam = {}
    for (a, b), walk in zip(pairs, walks):
        crossing = [e for e in walk.edge_ids if e in cut]
        if not crossing:
            continue
        start, end = walk.vertices[0], walk.vertices[-1]
        if start in y and end in y:
            for j in range(0, len(crossing), 2):
                ipairs.add(frozenset((crossing[j], crossing[j + 1])))
                labels[crossing[j]] = labels[crossing[j + 1]] = I
        elif start not in y and end not in y:
            for j in range(0, len(crossing), 2):
                fpairs.add(frozenset((crossing[j], crossing[j + 1])))
                labels[crossing[j]] = labels[crossing[j + 1]] = F
        else:
            if end in y:
                crossing.reverse()
                start = end
            lam[start] = crossing[0]
            labels[crossing[0]] = L
            for j in range(1, len(crossing), 2):
                fpairs.add(frozenset((crossing[j], crossing[j + 1])))
                labels[crossing[j]] = labels[crossing[j + 1]] = F
    sigma = tuple(sorted((e, labels.get(e, U)) for e in cut))
    return Record(sigma, frozenset(ipairs), frozenset(fpairs), tuple(sorted(lam.items())))
