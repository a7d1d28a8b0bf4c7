"""ComDetour: compatible s-t paths of length at most dist(s,t) + k.

The walk step that `compath.compath` takes between two vertices answers
first (`compath._shortest_walk`, see the compath module): one BFS over the
edge slots, stopped at depth d + k with d = dist(s, t).  When no compatible
walk has length <= d + k, no path has either, an exact "no"; when the
shortest walk found is a path, it is the answer and its witness.  No hash
family is swept, so both answers are certified.  Within slack 2 of d one
of the two always holds.  Across BFS layers a walk of length d + j has
(flat steps) + 2 (down steps) = j, while a repeated vertex needs a closed
sub-walk of at least three edges, as a U-turn on one edge is never a
permitted transition, and that sub-walk alone costs at least 3.

Only when the shortest walk repeats a vertex, so k >= 3, does colour
coding run: one ComPath call within d + k when d <= k, else the layered
search (`_layered`).  The layered search classifies vertices into BFS
layers, seeds a table over inter-layer edges near the target with direct
ComPath calls, and fills earlier layers by joining short ComPath segments
with already-computed entries across permitted transitions.  The join runs
one multi-goal ComPath sweep per (x, layer du, start edge), so one sweep
serves every vertex u of the layer.  Its goals are only the edges (f, u)
into layer du that can join: some inter-layer edge g2 leaves u upward, is
already in the table, and t.permits(f, g2).  Each layer's list of such
goals is built once, the first time a join needs it.  The filter is exact:
table entries whose lower end lies at layer du are written only by the
seeding or by the join at m = du, and the join visits m in descending
order, so they are final before any m < du reads them.

Every "yes" carries its path, assembled by the layered search from the
sweeps' walks, and comdetour checks it as compath checks its own.

Calls that provably find nothing are not made.  A path inside G_(x, hi]
visits x only as its first vertex, so after its first edge it is a
compatible walk inside the layers dist(x)+1..hi.  One backward walk search
over those layers, from the goal slots with both ends in them, bounds that
walk's length from below for every start vertex x of the layer at once
(one search per seeding layer, and one per (m, du) for the join).  It runs
forward over reversed slots (`compath.SlotGraph`), from the reversed goal
slots, so its distance for slot s is read at s ^ 1.  A start
edge whose slot is not itself a goal and has no successor within the
remaining bound is skipped (`_may_reach`).  The colorful DP finds only
paths, so a skipped call would have returned no length for any goal, and
the calls that are made keep their goal lists: every result, witness
included, is the one the unfiltered loop gives, for uncertified families
too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .core import Endpoint, Graph, InvariantError, TransitionSystem, Walk, bfs_dist, INF
from .compath import (
    SlotGraph, _check_witness, _shortest_walk, _slot_walk_dists, family_for_bound,
    oriented_compath,
)


# counters that comdetour adds to stats
STAT_KEYS = ("oriented_calls", "goals")


@dataclass(frozen=True)
class DetourResult:
    yes: bool
    nu: Optional[int]
    dist: Optional[int]
    witness: Optional[Walk] = None
    diagnostic: Optional[str] = None
    # False only when the layered search swept an uncertified hash family,
    # so that a "no" is only probable (see compath.family_for_bound); the
    # walk step's answers sweep none and are exact
    certified: bool = True


def comdetour(
    g: Graph,
    t: TransitionSystem,
    s: int,
    tgt: int,
    k: int,
    seed: int = 0,
    witness: bool = False,
    stats: Optional[dict] = None,
) -> DetourResult:
    """Decide whether a compatible s-tgt path of length <= dist(s,tgt)+k exists.

    Returns the achieved shortest such length nu when one exists.  The walk
    step answers first (module docstring): no compatible walk of length
    <= d + k is an exact "no", and a shortest walk that is a path is the
    answer and its witness.  Only otherwise, never at k <= 2, does the
    layered search run.  Every "yes" is built with its path, which is
    checked to be a compatible s-tgt path of length nu (compath's check);
    witness only selects whether the result carries it.  When given,
    stats gains STAT_KEYS: the oriented ComPath calls made and the total
    length of the goal lists passed to them, both 0 when the walk answers.
    """
    x, y = Endpoint.vertex(s), Endpoint.vertex(tgt)
    x.validate(g)
    y.validate(g)
    if k < 0:
        raise ValueError("k must be nonnegative")
    stats = {} if stats is None else stats
    for key in STAT_KEYS:
        stats.setdefault(key, 0)
    res = _decide(g, t, s, tgt, k, seed, stats)
    if res.yes:
        _check_witness(g, t, x, y, res.nu, res.witness)
    return res if witness else replace(res, witness=None)


def _decide(g, t, s, tgt, k, seed, stats) -> DetourResult:
    """comdetour's answer, with its witness on a "yes", before the check."""
    if s == tgt:
        return DetourResult(True, 0, 0, Walk((s,), ()))
    dist = bfs_dist(g, s)
    if dist[tgt] == INF:
        return DetourResult(False, None, None, diagnostic="target unreachable from source")
    d = int(dist[tgt])
    sg = SlotGraph(g, t)
    walk, _ = _shortest_walk(sg, s, tgt, d + k)
    if walk is None:
        return DetourResult(False, None, d)
    if walk.is_path():
        return DetourResult(True, walk.length, d, walk)
    return _layered(g, t, s, tgt, k, dist, sg, seed, stats)


def _layered(g, t, s, tgt, k, dist, sg, seed, stats) -> DetourResult:
    """The layered colour-coding search, for d = dist[tgt] > 0 finite and
    sg = SlotGraph(g, t); adds its calls and goals to stats' STAT_KEYS."""
    d = int(dist[tgt])

    def sweep(start, goals, bound, region):
        stats["oriented_calls"] += 1
        stats["goals"] += len(goals)
        return oriented_compath(sg, start, goals, bound, fam, allowed_vertices=region)

    if d <= k:
        # small distance: one plain ComPath call within the bound d + k
        fam = family_for_bound(g.n, d + k, seed)
        (ln,), (w,) = sweep(("v", s), [("v", tgt)], d + k, None)
        return DetourResult(ln is not None, ln, d, w, certified=fam.certified)

    layers = {}  # distance from s -> the vertices at that distance
    for v, dv in enumerate(dist):
        layers.setdefault(dv, []).append(v)

    def band_of(lo, hi):
        """Vertex set of the layers lo..hi; G_(x, hi] is {x} | band_of(dist(x)+1, hi)."""
        return set().union(*(layers.get(i, ()) for i in range(lo, hi + 1)))

    hi = d + k
    # Both the seeding calls and the join segments need length bound 2k+1:
    # an x..u prefix spans up to k+1 layers plus k slack, and a join with a
    # bound of 2k would already fail to find the single-edge prefix at k=0.
    bound = 2 * k + 1
    fam = family_for_bound(g.n, bound, seed)

    table = {}  # inter-layer edge id -> best known length of an e..tgt path
    pieces = {}  # edge id -> witness walk (seed) or (prefix walk, next edge)

    inter = {}  # inter-layer edge id inside layers 0..hi -> its lower end
    for e, (u, v) in enumerate(g.edges):
        if dist[u] != dist[v] and dist[u] <= hi and dist[v] <= hi:
            inter[e] = u if dist[u] < dist[v] else v
    # Seed the last layers with direct ComPath calls.  seeded[lx] holds the
    # layers above lx and the backward walk distances to tgt inside them.
    into_tgt = {sg.slot(e, tgt) for _, e in g.adj(tgt)}
    seeded = {}
    for e, x in inter.items():
        lx = int(dist[x])
        if lx < d - k - 1:
            continue
        if lx not in seeded:
            band = band_of(lx + 1, hi)
            seeded[lx] = (band, _walks_back(sg, into_tgt, band))
        band, back = seeded[lx]
        if not _may_reach(sg, sg.slot(e, g.other_end(e, x)), into_tgt, back, bound):
            continue
        (ln,), (w,) = sweep(("e", e, x), [("v", tgt)], bound, band | {x})
        if ln is not None and lx + ln <= hi:
            table[e] = ln
            pieces[e] = ("seed", w)

    up = {}  # u -> the inter-layer edges whose lower end is u
    for e, x in inter.items():
        up.setdefault(x, []).append(e)

    # Fill earlier layers.  One sweep per (x, du, start edge) reaches the
    # joinable edges into layer du inside G_(x, du].  joins[du] lists each
    # edge (f, u) into layer du, its far end w, and the entries g2 in
    # up[u] that are already in the table and that f may turn onto; edges
    # with no such g2 cannot join and are never asked for.  The list is
    # built once, when layer du is first needed: by then no later join
    # writes an entry whose lower end is at layer du (module docstring).
    # join_slots[du] holds the slots of those edges entering u.
    joins = {}
    join_slots = {}
    for m in range(d - k - 1, -1, -1):
        reach = []  # (du, layers m+1..du, backward walk distances)
        for du in range(m + 1, m + k + 2):
            if du not in joins:
                joins[du] = []
                for u in layers[du]:
                    for w, f in g.adj(u):
                        g2s = [g2 for g2 in up.get(u, ()) if g2 in table and t.permits(f, g2)]
                        if g2s:
                            joins[du].append((f, u, w, g2s))
                join_slots[du] = {sg.slot(f, u) for f, u, _, _ in joins[du]}
            if joins[du]:
                band = band_of(m + 1, du)
                reach.append((du, band, _walks_back(sg, join_slots[du], band)))
        for x in layers[m]:
            for du, band, back in reach:
                starts = [
                    e
                    for w, e in g.adj(x)
                    if w in band and _may_reach(sg, sg.slot(e, w), join_slots[du], back, bound)
                ]
                if not starts:
                    continue
                region = band | {x}
                entries = [j for j in joins[du] if j[2] in region]
                if not entries:
                    continue
                goals = [("e", f, u) for f, u, _, _ in entries]
                for e in starts:
                    res, ws = sweep(("e", e, x), goals, bound, region)
                    for (_, _, _, g2s), r, w in zip(entries, res, ws):
                        if r is None:
                            continue
                        for g2 in g2s:
                            p = table[g2]
                            if m + r + p <= hi and table.get(e, INF) > r + p:
                                table[e] = r + p
                                pieces[e] = ("join", w, g2)

    nu_edge = min((e for _, e in g.adj(s)), key=lambda e: table.get(e, INF))
    nu = table.get(nu_edge, INF)
    if nu > hi:
        return DetourResult(False, None, d, certified=fam.certified)
    return DetourResult(True, int(nu), d, _assemble(pieces, nu_edge), certified=fam.certified)


def _walks_back(sg: SlotGraph, goal_slots, band: set) -> list:
    """Fewest edges of a compatible walk inside band from each slot to a goal
    slot, counting both (compath._slot_walk_dists); INF where none exists.

    The search runs forward over reversed slots from the reversed goal
    slots, so slot s's count is at index s ^ 1.
    """
    heads, tails = sg.heads, sg.tails
    seeds = [s ^ 1 for s in goal_slots if heads[s] in band and tails[s] in band]
    return _slot_walk_dists(sg, seeds, band)


def _may_reach(sg: SlotGraph, sid: int, goal_slots, back: list, bound: int) -> bool:
    """Whether a call from start slot sid can reach a goal slot within bound.

    back comes from `_walks_back` over the layers above the start vertex x.
    A path that the call finds is sid alone, when sid is a goal slot, or
    sid followed by a walk from a successor s2 inside those layers, of at
    least back[s2 ^ 1] edges.
    """
    return sid in goal_slots or any(back[s2 ^ 1] < bound for s2 in sg.succ[sid])


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
