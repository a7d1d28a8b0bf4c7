"""Answer checkers that share no code with the solvers.

Each checker works on plain data the benchmark generated itself (vertex
count, edge or arc list, permitted transition pairs, colors) and returns
None when an answer is right or a one-line reason when it is wrong.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

INF = float("inf")


def pair_set(pairs) -> set:
    """Permitted transitions as a set of unordered edge-id pairs."""
    return {frozenset(p) for p in pairs}


def walk_distances(n, edges, permitted, source) -> list:
    """Fewest edges of a compatible walk from `source` to each vertex.

    Breadth-first search over (edge, head) states: a walk may repeat
    vertices and edges, but each step must be a permitted transition.
    """
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    best = [INF] * n
    best[source] = 0
    seen = set()
    queue = deque()
    for w, e in adj[source]:
        seen.add((e, w))
        queue.append((e, w, 1))
    while queue:
        e, v, d = queue.popleft()
        best[v] = min(best[v], d)
        for w, f in adj[v]:
            if f != e and frozenset((e, f)) in permitted and (f, w) not in seen:
                seen.add((f, w))
                queue.append((f, w, d + 1))
    return best


def undirected_path(n, edges, permitted, vertices, source, target, length):
    """Check a witness given by its vertex sequence in a simple graph."""
    if not vertices or vertices[0] != source or vertices[-1] != target:
        return f"witness {vertices} does not run from {source} to {target}"
    if len(set(vertices)) != len(vertices):
        return f"witness {vertices} repeats a vertex"
    if len(vertices) - 1 != length:
        return f"witness has {len(vertices) - 1} edges, reported length {length}"
    eid = {frozenset(e): i for i, e in enumerate(edges)}
    ids = []
    for u, v in zip(vertices, vertices[1:]):
        e = eid.get(frozenset((u, v)))
        if e is None:
            return f"witness steps over the non-edge {u}-{v}"
        ids.append(e)
    for e, f in zip(ids, ids[1:]):
        if frozenset((e, f)) not in permitted:
            return f"witness takes the forbidden transition {e},{f}"
    return None


def dijkstra(n, arcs, weights, source) -> list:
    """Shortest arc-weighted distances from `source` in a digraph."""
    out = [[] for _ in range(n)]
    for (u, v), w in zip(arcs, weights):
        out[u].append((v, w))
    dist = [INF] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, c in out[v]:
            if d + c < dist[w]:
                dist[w] = d + c
                heapq.heappush(heap, (d + c, w))
    return dist


def disjoint_shortest_paths(n, arcs, weights, permitted, pairs, paths, mode):
    """Check a 2-DSPP witness: two compatible shortest paths, disjoint.

    `paths` are vertex sequences; the digraph has no parallel arcs.
    """
    aid = {tuple(a): i for i, a in enumerate(arcs)}
    used = []
    for (s, t), verts in zip(pairs, paths):
        if not verts or verts[0] != s or verts[-1] != t:
            return f"path {verts} does not run from {s} to {t}"
        if len(set(verts)) != len(verts):
            return f"path {verts} repeats a vertex"
        ids = []
        for u, v in zip(verts, verts[1:]):
            if (u, v) not in aid:
                return f"path {verts} uses the missing arc {u}->{v}"
            ids.append(aid[(u, v)])
        for a, b in zip(ids, ids[1:]):
            if frozenset((a, b)) not in permitted:
                return f"path {verts} takes the forbidden transition {a},{b}"
        length = sum(weights[a] for a in ids)
        best = dijkstra(n, arcs, weights, s)[t]
        if length != best:
            return f"path {verts} has length {length}, shortest is {best}"
        used.append((set(verts), set(ids)))
    (v1, a1), (v2, a2) = used
    if mode == "vertex" and v1 & v2:
        return f"paths share the vertices {sorted(v1 & v2)}"
    if mode == "edge" and a1 & a2:
        return f"paths share the arcs {sorted(a1 & a2)}"
    return None


def wheel_has_pchc(rim, hubs, color) -> bool:
    """Properly colored Hamiltonian cycle in a triple wheel.

    The hubs are pairwise non-adjacent and the rim is a path, so removing
    the hubs from a Hamiltonian cycle leaves three nonempty consecutive rim
    intervals.  The cycle is those intervals joined end to end by the three
    hubs: try every split, every way of pairing interval ends across
    intervals, and every hub for each pairing, and check that the two edges
    at every vertex differ in color.  `color(u, v)` gives the color of an
    edge in either orientation.
    """
    r = len(rim)
    if len(hubs) != 3 or r < 3:
        return False
    for i, j in itertools.combinations(range(1, r), 2):
        segments = (rim[:i], rim[i:j], rim[j:])
        if not all(_segment_proper(s, color) for s in segments):
            continue
        ends = [(k, side) for k in range(3) for side in (0, 1)]
        for pairing in _cross_pairings(ends):
            for order in itertools.permutations(hubs):
                if _junctions_proper(segments, pairing, order, color):
                    return True
    return False


def _segment_proper(seg, color) -> bool:
    return all(
        color(seg[q - 1], seg[q]) != color(seg[q], seg[q + 1]) for q in range(1, len(seg) - 1)
    )


def _cross_pairings(ends):
    """Perfect matchings of the six interval ends, no pair within an interval."""
    if not ends:
        yield []
        return
    first, rest = ends[0], ends[1:]
    for idx, other in enumerate(rest):
        if other[0] != first[0]:
            for tail in _cross_pairings(rest[:idx] + rest[idx + 1:]):
                yield [(first, other)] + tail


def _end(seg, side):
    """Vertex at one end of an interval and its rim edge there, if any."""
    if side == 0:
        return seg[0], (seg[0], seg[1]) if len(seg) > 1 else None
    return seg[-1], (seg[-1], seg[-2]) if len(seg) > 1 else None


def _junctions_proper(segments, pairing, hubs, color) -> bool:
    spoke_at = {}  # interval end -> color of the spoke leaving it
    for ((k1, s1), (k2, s2)), h in zip(pairing, hubs):
        v1, _ = _end(segments[k1], s1)
        v2, _ = _end(segments[k2], s2)
        c1, c2 = color(h, v1), color(h, v2)
        if c1 is None or c2 is None or c1 == c2:
            return False
        spoke_at[(k1, s1)] = c1
        spoke_at[(k2, s2)] = c2
    for k, seg in enumerate(segments):
        if len(seg) == 1:
            if spoke_at[(k, 0)] == spoke_at[(k, 1)]:
                return False
            continue
        for side in (0, 1):
            v, rim_edge = _end(seg, side)
            if color(*rim_edge) == spoke_at[(k, side)]:
                return False
    return True
