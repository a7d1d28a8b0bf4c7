"""Core data structures: graphs, transition systems, colorings and walks.

A transition is an unordered pair of distinct edges sharing exactly one
vertex.  A walk is compatible with a transition system if every pair of
consecutive edges on it is a permitted transition.  All structures here are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

INF = math.inf


class InvariantError(RuntimeError):
    """A solver's own check failed: a bug in the solver, not bad input.

    Solvers raise it instead of using assert, so the checks also run under
    python -O.
    """


class Graph:
    """Undirected simple graph on vertices 0..n-1 with dense edge ids.

    Edge ids are positions in the ``edges`` sequence.  Self-loops and
    parallel edges are rejected.
    """

    __slots__ = ("n", "edges", "m", "_adj", "_eid")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        es = []
        eid = {}
        adj = [[] for _ in range(n)]
        for i, e in enumerate(edges):
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {i}: self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in eid:
                raise ValueError(f"edge {i}: parallel to edge {eid[key]}")
            eid[key] = i
            es.append((u, v))
            adj[u].append((v, i))
            adj[v].append((u, i))
        self.edges = tuple(es)
        self.m = len(es)
        self._adj = tuple(tuple(a) for a in adj)
        self._eid = eid

    def adj(self, v: int):
        """Pairs (neighbor, edge id) incident to v."""
        return self._adj[v]

    def endpoints(self, e: int):
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {e}")

    def edge_id(self, u: int, v: int) -> Optional[int]:
        return self._eid.get((u, v) if u < v else (v, u))

    def incident(self, v: int):
        """Edge ids incident to v."""
        return tuple(e for _, e in self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DiGraph:
    """Directed graph on vertices 0..n-1; parallel arcs are permitted.

    ``weights``, when present, are nonnegative ints, floats or Fractions,
    one per arc.  Lengths are exact: a float means its exact binary value
    and is stored as that Fraction, so sums and the tight-arc test
    dist(u) + w == dist(v) never round.  NaN and infinite lengths are
    rejected.
    """

    __slots__ = ("n", "arcs", "m", "weights", "_out", "_in")

    def __init__(self, n, arcs, weights=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        ar = []
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for i, a in enumerate(arcs):
            u, v = a
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {i}: endpoint out of range")
            if u == v:
                raise ValueError(f"arc {i}: self-loop at {u}")
            ar.append((u, v))
            out[u].append((v, i))
            inc[v].append((u, i))
        self.arcs = tuple(ar)
        self.m = len(ar)
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != self.m:
                raise ValueError("one weight per arc required")
            for i, w in enumerate(weights):
                if isinstance(w, float) and not math.isfinite(w):
                    raise ValueError(f"arc {i}: weight must be finite")
                if w < 0:
                    raise ValueError(f"arc {i}: negative weight")
            weights = tuple(Fraction(w) if isinstance(w, float) else w for w in weights)
        self.weights = weights
        self._out = tuple(tuple(a) for a in out)
        self._in = tuple(tuple(a) for a in inc)

    def out(self, v: int):
        """Pairs (head, arc id) leaving v."""
        return self._out[v]

    def into(self, v: int):
        """Pairs (tail, arc id) entering v."""
        return self._in[v]

    def tail(self, a: int) -> int:
        return self.arcs[a][0]

    def head(self, a: int) -> int:
        return self.arcs[a][1]

    def endpoints(self, a: int):
        return self.arcs[a]

    def weight(self, a: int):
        return 1 if self.weights is None else self.weights[a]

    def __eq__(self, other):
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.arcs == other.arcs
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.n, self.arcs, self.weights))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m})"


def _pair(e: int, f: int):
    return (e, f) if e < f else (f, e)


class TransitionSystem:
    """Set of permitted transitions, keyed by edge ids.

    Pairs are stored unordered.  In digraphs a pair {e, f} is usable at v
    only in an orientation with head(e) = v = tail(f).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Sequence[int]] = ()):
        self.pairs = frozenset(_pair(e, f) for e, f in pairs)

    def __contains__(self, pair) -> bool:
        e, f = pair
        return _pair(e, f) in self.pairs

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, TransitionSystem) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def permits(self, e: int, f: int) -> bool:
        return _pair(e, f) in self.pairs

    def __repr__(self):
        return f"TransitionSystem({sorted(self.pairs)!r})"


def all_transitions(g) -> TransitionSystem:
    """The full transition system: every adjacent pair of distinct edges."""
    pairs = set()
    if isinstance(g, Graph):
        for v in range(g.n):
            inc = g.incident(v)
            for i in range(len(inc)):
                for j in range(i + 1, len(inc)):
                    pairs.add(_pair(inc[i], inc[j]))
    else:
        for v in range(g.n):
            for _, e in g.into(v):
                for _, f in g.out(v):
                    if e != f:
                        pairs.add(_pair(e, f))
    return TransitionSystem(pairs)


@dataclass(frozen=True)
class EdgeColoring:
    """Total coloring of edge ids with colors in [num_colors]."""

    colors: tuple
    num_colors: int

    def __post_init__(self):
        for i, c in enumerate(self.colors):
            if not (1 <= c <= self.num_colors):
                raise ValueError(f"edge {i}: color {c} outside [1, {self.num_colors}]")

    def of(self, e: int) -> int:
        return self.colors[e]


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence v1, e1, v2, ..., e_l, v_{l+1}."""

    vertices: tuple
    edge_ids: tuple

    def __post_init__(self):
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise ValueError("walk needs exactly one more vertex than edges")
        if not self.vertices:
            raise ValueError("walk needs at least one vertex")

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def is_path(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def is_cycle(self) -> bool:
        if self.length < 3 or not self.is_closed():
            return False
        return len(set(self.vertices[:-1])) == len(self.vertices) - 1


def validate_walk(g, w: Walk) -> None:
    """Raise ValueError unless w is a structurally valid walk in g."""
    if isinstance(g, Graph):
        for i, e in enumerate(w.edge_ids):
            a, b = g.endpoints(e)
            if {a, b} != {w.vertices[i], w.vertices[i + 1]}:
                raise ValueError(f"edge {e} does not join step {i} of the walk")
    else:
        for i, e in enumerate(w.edge_ids):
            if g.tail(e) != w.vertices[i] or g.head(e) != w.vertices[i + 1]:
                raise ValueError(f"arc {e} does not follow step {i} of the walk")
    for v in w.vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")


@dataclass(frozen=True)
class Endpoint:
    """A path endpoint: either a vertex id or an edge id."""

    kind: str  # "vertex" or "edge"
    ident: int

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise ValueError(f"unknown endpoint kind {self.kind!r}")

    @staticmethod
    def vertex(v: int) -> "Endpoint":
        return Endpoint("vertex", v)

    @staticmethod
    def edge(e: int) -> "Endpoint":
        return Endpoint("edge", e)

    def validate(self, g) -> None:
        if self.kind == "vertex":
            if not (0 <= self.ident < g.n):
                raise ValueError(f"vertex endpoint {self.ident} out of range")
        else:
            if not (0 <= self.ident < g.m):
                raise ValueError(f"edge endpoint {self.ident} out of range")


@dataclass(frozen=True)
class Violation:
    """One defect found while validating a transition system."""

    pair: tuple
    reason: str


def validate_transition_system(g, t: TransitionSystem) -> list:
    """Return all violations; empty list iff every pair is a transition.

    A valid pair consists of two distinct existing edges sharing exactly one
    vertex (for digraphs: usable in at least one orientation).
    """
    m = g.m
    out = []
    for e, f in sorted(t.pairs):
        if e == f:
            out.append(Violation((e, f), "edges not distinct"))
            continue
        if not (0 <= e < m and 0 <= f < m):
            out.append(Violation((e, f), "unknown edge id"))
            continue
        if isinstance(g, Graph):
            shared = set(g.endpoints(e)) & set(g.endpoints(f))
            if len(shared) != 1:
                out.append(Violation((e, f), "edges do not share exactly one vertex"))
        else:
            if g.head(e) != g.tail(f) and g.head(f) != g.tail(e):
                out.append(Violation((e, f), "arcs cannot be traversed consecutively"))
    return out


def is_compatible_walk(g, t: TransitionSystem, w: Walk) -> bool:
    """True iff every consecutive edge pair of w is permitted by t.

    Walks with at most one edge are always compatible.  Invalid walks raise.
    """
    validate_walk(g, w)
    for e, f in zip(w.edge_ids, w.edge_ids[1:]):
        if not t.permits(e, f):
            return False
    return True


def proper_coloring_transitions(g: Graph, c: EdgeColoring) -> TransitionSystem:
    """Transitions induced by an edge coloring: adjacent edges of distinct colors.

    A walk is properly colored iff it is compatible with the result.
    """
    if len(c.colors) != g.m:
        raise ValueError("coloring must be total")
    pairs = []
    for v in range(g.n):
        inc = g.incident(v)
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if c.of(inc[i]) != c.of(inc[j]):
                    pairs.append((inc[i], inc[j]))
    return TransitionSystem(pairs)


def bfs_dist(g, s: int) -> list:
    """Unweighted shortest distances from s; unreachable vertices get inf."""
    dist = [INF] * g.n
    dist[s] = 0
    queue = [s]
    while queue:
        nxt = []
        for v in queue:
            steps = g.adj(v) if isinstance(g, Graph) else g.out(v)
            for w, _ in steps:
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def components(g: Graph, within) -> list:
    """Vertex sets of the components of the subgraph induced by within, in
    order of their smallest vertex."""
    seen = set()
    comps = []
    for v in sorted(within):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for w, _ in g.adj(x):
                if w in within and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def dijkstra(g: DiGraph, s: int) -> list:
    """Weighted shortest distances from s (weights >= 0); exact on Fractions."""
    dist = [INF] * g.n
    dist[s] = 0
    heap = [(0, s)]
    done = [False] * g.n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w, a in g.out(v):
            nd = d + g.weight(a)
            if not done[w] and nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist
