"""Brute-force reference implementations.

These exist to be obviously correct: plain exhaustive search with at most an
admissible distance bound for pruning.  They share only the core data types
with the solver modules and are used to derive and cross-check expected
values in the test suite.  Hard size guards prevent accidental exponential
runs; callers that know their instance is benign may pass size_guard=False.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    DiGraph,
    EdgeColoring,
    Endpoint,
    Graph,
    TransitionSystem,
    Walk,
    dijkstra,
    INF,
)


class OracleSizeError(ValueError):
    """Instance exceeds the oracle's hard size guard."""


def _as_endpoint(x) -> Endpoint:
    return x if isinstance(x, Endpoint) else Endpoint.vertex(x)


def brute_compatible_path(
    g: Graph,
    t: TransitionSystem,
    x,
    y,
    max_len: Optional[int] = None,
    size_guard: bool = True,
    return_witness: bool = False,
):
    """Exact minimum length of a compatible x-y path of length <= max_len.

    Endpoints may be vertices or edges (an edge endpoint means the path
    starts/ends with that edge, in either orientation).  Returns None when
    no such path exists.  DFS over simple paths, pruned by the transition
    system and by the transition-free BFS distance to the target.
    """
    x = _as_endpoint(x)
    y = _as_endpoint(y)
    x.validate(g)
    y.validate(g)
    if size_guard and max_len is None and g.n > 12:
        raise OracleSizeError("unbounded search needs n <= 12")
    if size_guard and max_len is not None and max_len > 16 and g.n > 12:
        raise OracleSizeError("bounded search needs max_len <= 16 or n <= 12")
    cap = (g.n - 1) if max_len is None else min(max_len, g.n - 1)

    # Lower bounds on remaining length: BFS distance to y's vertex targets.
    if y.kind == "vertex":
        targets = {y.ident: 0}
        dist_goal = bfs_dist_to_set(g, [y.ident])
    else:
        a, b = g.endpoints(y.ident)
        targets = None  # detected by final edge below
        dist_goal = bfs_dist_to_set(g, [a, b])

    best = [None]

    def arrived(vseq, eseq):
        if y.kind == "vertex":
            return vseq[-1] == y.ident
        return len(eseq) >= 1 and eseq[-1] == y.ident

    def dfs(vseq, eseq, used):
        ln = len(eseq)
        if best[0] is not None and ln >= best[0]:
            return
        if ln > cap:  # an edge start is one edge long before any check
            return
        if arrived(vseq, eseq):
            if best[0] is None or ln < best[0]:
                best[0] = ln
                witness[0] = (tuple(vseq), tuple(eseq))
            return
        if ln >= cap:
            return
        v = vseq[-1]
        # Admissible bound: reach a target vertex, plus the final edge itself
        # when the goal is an edge endpoint.
        need = dist_goal[v] + (1 if y.kind == "edge" else 0)
        if ln + need > cap:
            return
        for w, e in g.adj(v):
            if w in used:
                continue
            if eseq and not t.permits(eseq[-1], e):
                continue
            used.add(w)
            vseq.append(w)
            eseq.append(e)
            dfs(vseq, eseq, used)
            eseq.pop()
            vseq.pop()
            used.discard(w)

    witness = [None]
    if x.kind == "vertex":
        if dist_goal[x.ident] != INF:
            dfs([x.ident], [], {x.ident})
    else:
        a, b = g.endpoints(x.ident)
        for u, v in ((a, b), (b, a)):
            if dist_goal[u] == INF:
                continue
            dfs([u, v], [x.ident], {u, v})
    if return_witness:
        if best[0] is None:
            return None, None
        return best[0], Walk(*witness[0])
    return best[0]


def bfs_dist_to_set(g: Graph, sources: Sequence[int]) -> list:
    """Unweighted distance from each vertex to the nearest source."""
    dist = [INF] * g.n
    queue = []
    for s in sources:
        if dist[s] == INF:
            dist[s] = 0
            queue.append(s)
    while queue:
        nxt = []
        for v in queue:
            for w, _ in g.adj(v):
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def brute_disjoint_paths(
    g: Graph,
    t: TransitionSystem,
    pairs: Sequence[Sequence[int]],
    mode: str = "vertex",
    size_guard: bool = True,
    return_witness: bool = False,
):
    """Backtracking search for pairwise disjoint compatible paths.

    mode is "vertex" or "edge".  Returns bool, or (bool, paths) with
    return_witness where paths is a tuple of Walks, one per pair.
    """
    if mode not in ("vertex", "edge"):
        raise ValueError(f"unknown mode {mode!r}")
    if size_guard and g.n > 12:
        raise OracleSizeError("brute_disjoint_paths needs n <= 12")
    pairs = [tuple(p) for p in pairs]
    seen = set()
    for a, b in pairs:
        if a == b or a in seen or b in seen:
            return (False, None) if return_witness else False
        seen.update((a, b))

    chosen = []

    def extend(idx, used_v, used_e):
        if idx == len(pairs):
            return True
        a, b = pairs[idx]
        if mode == "vertex" and (a in used_v or b in used_v):
            return False

        def dfs(v, vseq, eseq, local_v):
            if v == b:
                chosen.append(Walk(tuple(vseq), tuple(eseq)))
                nv = used_v | local_v if mode == "vertex" else used_v
                ne = used_e | set(eseq)
                if extend(idx + 1, nv, ne):
                    return True
                chosen.pop()
                return False
            for w, e in g.adj(v):
                if w in local_v or e in used_e:
                    continue
                if mode == "vertex" and w in used_v:
                    continue
                if eseq and not t.permits(eseq[-1], e):
                    continue
                local_v.add(w)
                vseq.append(w)
                eseq.append(e)
                if dfs(w, vseq, eseq, local_v):
                    return True
                eseq.pop()
                vseq.pop()
                local_v.discard(w)
            return False

        return dfs(a, [a], [], {a})

    ok = extend(0, set(), set())
    if return_witness:
        return (ok, tuple(chosen) if ok else None)
    return ok


def brute_pchc(g: Graph, coloring: EdgeColoring, size_guard: bool = True) -> bool:
    """Enumerate Hamiltonian cycles and filter for proper edge coloring."""
    if size_guard and g.n > 10:
        raise OracleSizeError("brute_pchc needs n <= 10")
    n = g.n
    if n < 3:
        return False

    def dfs(v, first_edge, prev_edge, visited, count):
        if count == n:
            e = g.edge_id(v, 0)
            if e is None:
                return False
            return coloring.of(prev_edge) != coloring.of(e) and coloring.of(e) != coloring.of(first_edge)
        for w, e in g.adj(v):
            if w == 0 or w in visited:
                continue
            if prev_edge is not None and coloring.of(prev_edge) == coloring.of(e):
                continue
            visited.add(w)
            if dfs(w, first_edge if first_edge is not None else e, e, visited, count + 1):
                return True
            visited.discard(w)
        return False

    return dfs(0, None, None, {0}, 1)


def brute_compatible_hamiltonian_cycle(
    g: Graph, t: TransitionSystem, size_guard: bool = True
) -> bool:
    """Compatible Hamiltonian cycle by transition-pruned backtracking.

    The guard is looser than for brute_pchc because transition systems in
    the intended instances prune the search heavily.
    """
    if size_guard and g.n > 40:
        raise OracleSizeError("brute_compatible_hamiltonian_cycle needs n <= 40")
    n = g.n
    if n < 3:
        return False

    def dfs(v, first_edge, prev_edge, visited, count):
        if count == n:
            e = g.edge_id(v, 0)
            if e is None:
                return False
            return t.permits(prev_edge, e) and t.permits(e, first_edge)
        for w, e in g.adj(v):
            if w == 0 or w in visited:
                continue
            if prev_edge is not None and not t.permits(prev_edge, e):
                continue
            visited.add(w)
            if dfs(w, first_edge if first_edge is not None else e, e, visited, count + 1):
                return True
            visited.discard(w)
        return False

    return dfs(0, None, None, {0}, 1)


def brute_compatible_cycle(
    g: Graph, t: TransitionSystem, size_guard: bool = True, return_witness: bool = False
):
    """Any compatible (simple) cycle of length >= 3, by rooted backtracking."""
    if size_guard and g.n > 40:
        raise OracleSizeError("brute_compatible_cycle needs n <= 40")

    found = [None]

    def dfs(root, v, first_edge, prev_edge, vseq, eseq, visited):
        for w, e in g.adj(v):
            if prev_edge is not None and not t.permits(prev_edge, e):
                continue
            if w == root and len(eseq) >= 2:
                if t.permits(e, first_edge):
                    found[0] = Walk(tuple(vseq) + (root,), tuple(eseq) + (e,))
                    return True
                continue
            if w in visited or w < root:
                continue
            visited.add(w)
            vseq.append(w)
            eseq.append(e)
            if dfs(root, w, first_edge if first_edge is not None else e, e, vseq, eseq, visited):
                return True
            eseq.pop()
            vseq.pop()
            visited.discard(w)
        return False

    for root in range(g.n):
        if dfs(root, root, None, None, [root], [], {root}):
            break
    if return_witness:
        return (found[0] is not None), found[0]
    return found[0] is not None


def _tight_arc_dag(g: DiGraph, s: int, tgt: int):
    """Arcs on some shortest s-tgt path: tight arcs from which tgt is reachable."""
    d = dijkstra(g, s)
    tight = [
        a
        for a in range(g.m)
        if d[g.tail(a)] != INF and d[g.tail(a)] + g.weight(a) == d[g.head(a)]
    ]
    radj = {}
    for a in tight:
        radj.setdefault(g.head(a), []).append(g.tail(a))
    reach = {tgt}
    stack = [tgt]
    while stack:
        v = stack.pop()
        for u in radj.get(v, ()):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    return [a for a in tight if g.head(a) in reach], d


def enumerate_shortest_compatible_paths(
    g: DiGraph, t: TransitionSystem, s: int, tgt: int, size_guard: bool = True
) -> list:
    """All compatible s-tgt paths that are shortest in the unrestricted graph."""
    if size_guard and g.n > 12:
        raise OracleSizeError("enumeration needs n <= 12")
    if s == tgt:
        return [Walk((s,), ())]
    arcs, _ = _tight_arc_dag(g, s, tgt)
    out = {}
    for a in arcs:
        out.setdefault(g.tail(a), []).append(a)
    paths = []

    def dfs(v, vseq, eseq):
        if v == tgt:
            paths.append(Walk(tuple(vseq), tuple(eseq)))
            return
        for a in out.get(v, ()):
            if eseq and not t.permits(eseq[-1], a):
                continue
            vseq.append(g.head(a))
            eseq.append(a)
            dfs(g.head(a), vseq, eseq)
            eseq.pop()
            vseq.pop()

    dfs(s, [s], [])
    return paths


def brute_2dspp(
    g: DiGraph,
    t: TransitionSystem,
    pairs: Sequence[Sequence[int]],
    mode: str = "vertex",
    size_guard: bool = True,
) -> bool:
    """Two disjoint shortest compatible paths by full enumeration of both sides."""
    if mode not in ("vertex", "edge"):
        raise ValueError(f"unknown mode {mode!r}")
    (s1, t1), (s2, t2) = pairs
    p1s = enumerate_shortest_compatible_paths(g, t, s1, t1, size_guard)
    p2s = enumerate_shortest_compatible_paths(g, t, s2, t2, size_guard)
    for p in p1s:
        pv, pe = set(p.vertices), set(p.edge_ids)
        for q in p2s:
            if mode == "vertex":
                if not (pv & set(q.vertices)):
                    return True
            else:
                if not (pe & set(q.edge_ids)):
                    return True
    return False


def brute_psi(g: Graph, h: Graph, col: Sequence[int], order: Optional[Sequence[int]] = None) -> bool:
    """Color-respecting subgraph embedding of h into g by exhaustive search.

    col maps each g-vertex to an h-vertex (0-based).  order optionally fixes
    the h-vertex assignment order, for cross-checking enumeration paths.
    """
    classes = {u: [] for u in range(h.n)}
    for v in range(g.n):
        if not (0 <= col[v] < h.n):
            raise ValueError(f"color {col[v]} of vertex {v} out of range")
        classes[col[v]].append(v)
    hs = list(order) if order is not None else list(range(h.n))
    if sorted(hs) != list(range(h.n)):
        raise ValueError("order must be a permutation of the h-vertices")

    phi = {}

    def assign(i):
        if i == h.n:
            return True
        u = hs[i]
        for cand in classes[u]:
            ok = True
            for w in phi:
                if h.edge_id(u, w) is not None and g.edge_id(cand, phi[w]) is None:
                    ok = False
                    break
            if ok:
                phi[u] = cand
                if assign(i + 1):
                    return True
                del phi[u]
        return False

    return assign(0)
