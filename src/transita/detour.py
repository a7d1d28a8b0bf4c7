"""ComDetour: compatible s-t paths of length at most dist(s,t) + k.

The solver classifies vertices into BFS layers, seeds a table over
inter-layer edges near the target with direct ComPath calls, and fills
earlier layers by joining short ComPath segments with already-computed
entries across permitted transitions.  The join runs one multi-goal ComPath
sweep per (x, layer du, start edge): its goals are the edges into every
vertex u at layer du, so one sweep serves every u of the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Graph, InvariantError, TransitionSystem, Walk, bfs_dist, is_compatible_walk, INF,
)
from .compath import SlotGraph, family_for_bound, oriented_compath


@dataclass(frozen=True)
class LayerStructure:
    """BFS layers from s and the inter/within-layer edge classification."""

    dist: tuple
    layers: tuple  # layers[i] = tuple of vertices at distance i

    @staticmethod
    def build(g: Graph, s: int) -> "LayerStructure":
        dist = bfs_dist(g, s)
        finite = [int(d) for d in dist if d != INF]
        top = max(finite) if finite else 0
        layers = [[] for _ in range(top + 1)]
        for v in range(g.n):
            if dist[v] != INF:
                layers[int(dist[v])].append(v)
        return LayerStructure(tuple(dist), tuple(tuple(l) for l in layers))

    def is_inter_layer(self, g: Graph, e: int) -> bool:
        u, v = g.endpoints(e)
        return self.dist[u] != self.dist[v]

    def low(self, g: Graph, e: int) -> int:
        u, v = g.endpoints(e)
        return u if self.dist[u] < self.dist[v] else v

    def region(self, x: int, hi: int) -> set:
        """Vertex set of the induced subgraph G_(x, hi]."""
        return {x}.union(*self.layers[int(self.dist[x]) + 1:hi + 1])


@dataclass(frozen=True)
class DetourResult:
    yes: bool
    nu: Optional[int]
    dist: Optional[int]
    witness: Optional[Walk] = None
    diagnostic: Optional[str] = None
    # False when the hash family swept was uncertified, so a "no" is only
    # probable (see compath.family_for_bound)
    certified: bool = True


def comdetour(
    g: Graph,
    t: TransitionSystem,
    s: int,
    tgt: int,
    k: int,
    seed: int = 0,
    witness: bool = False,
) -> DetourResult:
    """Decide whether a compatible s-tgt path of length <= dist(s,tgt)+k exists.

    Returns the achieved shortest such length nu when one exists, and a
    reconstructed witness path on request.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s == tgt:
        return DetourResult(True, 0, 0, Walk((s,), ()) if witness else None)
    ls = LayerStructure.build(g, s)
    if ls.dist[tgt] == INF:
        return DetourResult(False, None, None, diagnostic="target unreachable from source")
    d = int(ls.dist[tgt])

    if d <= k:
        from .compath import compath  # delegation per the small-distance case

        fam = family_for_bound(g.n, d + k, seed)
        res = compath(g, t, s, tgt, d + k, witness=witness, family=fam)
        ln, w = res if witness else (res, None)
        if ln is None:
            return DetourResult(False, None, d, certified=fam.certified)
        return DetourResult(True, ln, d, w, certified=fam.certified)

    hi = d + k
    sg = SlotGraph(g, t)
    # Both the seeding calls and the join segments need length bound 2k+1:
    # an x..u prefix spans up to k+1 layers plus k slack, and a join with a
    # bound of 2k would already fail to find the single-edge prefix at k=0.
    fam = family_for_bound(g.n, 2 * k + 1, seed)

    table = {}  # inter-layer edge id -> best known length of an e..tgt path
    pieces = {}  # edge id -> witness walk (seed) or (prefix walk, next edge)

    inter = [
        e
        for e in range(g.m)
        if ls.is_inter_layer(g, e)
        and all(ls.dist[v] <= hi for v in g.endpoints(e))
    ]
    # Seed the last layers with direct ComPath calls.
    for e in inter:
        x = ls.low(g, e)
        if ls.dist[x] < d - k - 1:
            continue
        region = ls.region(x, hi)
        res = oriented_compath(
            g, t, ("e", e, x), [("v", tgt)], 2 * k + 1, fam,
            allowed_vertices=region, slot_graph=sg, witness=witness,
        )
        res, ws = res if witness else (res, [None])
        ln = res[0]
        if ln is not None and ls.dist[x] + ln <= hi:
            table[e] = ln
            if witness:
                pieces[e] = ("seed", ws[0])

    incident_inter = {}
    for e in inter:
        for v in g.endpoints(e):
            incident_inter.setdefault(v, []).append(e)

    # Fill earlier layers.  One sweep per (x, du, start edge) reaches the
    # edges into every u at layer du inside G_(x, du]; goals carry their
    # (f, u), and a hit joins across a permitted transition at u onto a
    # higher inter-layer edge g2 already in the table.  An entry written at
    # layer m is read only by joins from lower layers.
    for m in range(d - k - 1, -1, -1):
        for x in ls.layers[m]:
            for du in range(m + 1, m + k + 2):
                region = ls.region(x, du)
                goals = [
                    ("e", f, u) for u in ls.layers[du] for w, f in g.adj(u) if w in region
                ]
                if not goals:
                    continue
                for e in [e for w, e in g.adj(x) if w in region]:
                    res = oriented_compath(
                        g, t, ("e", e, x), goals, 2 * k + 1, fam,
                        allowed_vertices=region, slot_graph=sg, witness=witness,
                    )
                    res, ws = res if witness else (res, [None] * len(goals))
                    for (_, f, u), r, w in zip(goals, res, ws):
                        if r is None:
                            continue
                        for g2 in incident_inter.get(u, ()):
                            if ls.low(g, g2) != u or g2 not in table:
                                continue
                            if not t.permits(f, g2):
                                continue
                            p = table[g2]
                            if m + r + p <= hi and table.get(e, INF) > r + p:
                                table[e] = r + p
                                if witness:
                                    pieces[e] = ("join", w, g2)

    nu = INF
    nu_edge = None
    for w, e in g.adj(s):
        if table.get(e, INF) < nu:
            nu = table[e]
            nu_edge = e
    if nu > hi:
        return DetourResult(False, None, d, certified=fam.certified)
    wit = None
    if witness:
        wit = _assemble(pieces, nu_edge)
        if wit.vertices[0] != s or wit.vertices[-1] != tgt or wit.length != nu:
            raise InvariantError("assembled detour has the wrong ends or length")
        if not (wit.is_path() and is_compatible_walk(g, t, wit)):
            raise InvariantError("assembled detour is not a compatible path")
    return DetourResult(True, int(nu), d, wit, certified=fam.certified)


def _assemble(pieces, e: int) -> Walk:
    """The join prefixes along the chain from e, then the seed walk it ends in."""
    vertices, edge_ids = [pieces[e][1].vertices[0]], []
    while True:
        piece = pieces[e]
        walk = piece[1]
        if walk.vertices[0] != vertices[-1]:
            raise InvariantError("detour pieces do not meet")
        vertices += walk.vertices[1:]
        edge_ids += walk.edge_ids
        if piece[0] == "seed":
            return Walk(tuple(vertices), tuple(edge_ids))
        e = piece[2]
