"""Fixed-parameter shortest compatible path: a walk step, a search and a
colour-coding sweep.

Endpoints may be vertices or edges (the path then starts/ends with that
edge), and three steps answer in turn.  Every answer's path is checked.

1. The walk step.  Compatible walks, unlike compatible paths, are found by
   one BFS over the edge slots (`SlotGraph`), from the slots a path from x
   starts on to those a path to y ends on, stopped at depth k
   (`_shortest_walk`): when no compatible walk has length <= k, no path
   has either, an exact "no"; when the shortest walk found is a path, it
   is the answer and its witness.
2. The search step, when the shortest walk repeats a vertex
   (`_path_search`): a depth-first branch and bound over the simple
   compatible slot paths from x's start slots, pruned by the sweep's own
   walk lower bound to the goal slots.  It has a budget of 2m expansions
   per member of the family the sweep would use, roughly the slot visits
   of one sweep, and when it completes within it its answer is exact at
   any n.
3. The sweep, when the search runs out of budget (`oriented_compath`):
   colour coding (Alon, Yuster and Zwick) colors vertices with the
   members of a perfect hash family and runs a dynamic program over
   (color set, last slot) states; a path is found iff some member colors
   its vertices injectively, and read off the states' back-pointers.  It
   runs from all of x's start slots at once and reuses the walk step's
   search as its lower bound.  A query that reaches it has spent at most
   about one sweep on the search, so it costs at most about twice the
   sweep alone, and the algorithm keeps its fixed-parameter bound.

The one family construction, `family_for_bound`, is certified perfect for
n <= 32: it walks the C(n, j-2) prefixes of the j-subsets, j = bound - 1,
and tests each prefix's C(n, 2) completions at once, as an AND of n*n-bit
pair masks over the members injective on the prefix.  Above n = 32 the
family is seeded random, and a "no" from a sweep is only probable; the
walk step's and the search's answers are exact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (
    Endpoint, Graph, InvariantError, TransitionSystem, Walk, INF, is_compatible_walk,
)


@dataclass(frozen=True)
class HashFamily:
    """Family of functions [0..n-1] -> [k] that splits perfect_for-sets.

    Splitting means that for every vertex set S with |S| <= perfect_for some
    member is injective on S.  certified says whether that was checked while
    building the family; an uncertified family is seeded random and splits
    each set only with high probability, so a "no" found with it may be
    wrong.
    """

    n: int
    k: int
    functions: tuple  # tuple of length-n tuples with values in 0..k-1
    perfect_for: int
    certified: bool

    def __len__(self):
        return len(self.functions)


def verify_k_perfect(fam: HashFamily, subset_size: Optional[int] = None) -> bool:
    """Exhaustively test perfectness (use only for small n and subset size)."""
    n = fam.n
    j = fam.perfect_for if subset_size is None else subset_size
    if j <= 1 or n <= j:
        return len(fam.functions) > 0
    for sub in itertools.combinations(range(n), j):
        if not any(len({f[v] for v in sub}) == j for f in fam.functions):
            return False
    return True


@lru_cache(maxsize=512)
def family_for_bound(n: int, bound: int, seed: int = 0) -> HashFamily:
    """The hash family ComPath sweeps for length bound `bound` on n vertices.

    The dynamic program needs injectivity only on the path's non-endpoint
    vertices, so the family splits j-sets, j = max(bound - 1, 1).  For
    n <= 32 it is certified by construction: the j-subsets are walked in
    lexicographic order, and each subset that no kept member colors
    injectively gets one seeded random function over 2j colors, repaired
    to be injective on it.  Doubling the range makes a random member split
    a fixed j-set with constant probability, so few repairs are needed.
    The walk costs C(n, j-2) prefixes, each an AND of n*n-bit pair masks
    over the kept members injective on the prefix that usually reaches 0
    after a few of them.  Above n = 32 there is no walk: the family is
    ceil(e^j * j * ln n) + 8 seeded random functions over j colors,
    uncertified.
    """
    j = max(bound - 1, 1)
    if j == 1:
        return HashFamily(n, 1, ((0,) * n,), 1, True)
    if n <= j:
        return HashFamily(n, j, (tuple(range(n)),), j, True)
    rng = random.Random(f"{seed}/splitter/{n}/{j}")
    if n > 32:
        trials = math.ceil(math.e**j * j * math.log(n)) + 8
        fns = tuple(tuple(rng.randrange(j) for _ in range(n)) for _ in range(trials))
        return HashFamily(n, j, fns, j, False)
    # The walk visits the (j-2)-prefixes in lexicographic order and tests
    # all of a prefix's completions (a, b), sub[-1] < a < b, at once as bits
    # a*n + b of n*n-bit pair masks; the lowest set bit is the
    # lexicographically first pair.  level[i] holds (used, fail, cv, rc) for
    # each kept member injective on sub[:i]: used marks the vertices whose
    # color sub[:i] uses, fail the pairs the member does not split together
    # with sub[:i].  cv[v] marks the vertices colored like v and rc[v] the
    # pairs that touch one, so a prefix vertex grows both masks by one OR.
    # Each prefix ANDs its members' fail masks and usually stops at 0; every
    # bit left is an unsplit j-subset, repaired in order.
    m = j - 2
    full = (1 << n) - 1
    col = sum(1 << (a * n) for a in range(n))
    lines = [full << (w * n) | col << w for w in range(n)]  # pairs holding w
    above = [0] * (n + 1)  # above[s]: the pairs (a, b) with s <= a < b
    for a in reversed(range(n)):
        above[a] = above[a + 1] | full >> (a + 1) << (a + 1 + a * n)
    fns = []
    level = [[] for _ in range(m)]
    sub = list(range(m))
    d = 0
    while True:
        for i in range(d, m - 1):
            v = sub[i]
            level[i + 1] = [(u | cv[v], fl | rc[v], cv, rc)
                            for u, fl, cv, rc in level[i] if not u >> v & 1]
        if m:
            v = sub[-1]
            acc = above[v + 1]
            for u, fl, cv, rc in level[m - 1]:
                if not u >> v & 1:
                    acc &= fl | rc[v]
                    if not acc:
                        break
        else:  # j = 2: the one prefix is empty and comes before any member
            acc = above[0]
        while acc:
            a, b = divmod((acc & -acc).bit_length() - 1, n)
            f = [rng.randrange(2 * j) for _ in range(n)]
            for i, v in enumerate(sub + [a, b]):
                f[v] = i
            fns.append(tuple(f))
            cls = [0] * (2 * j)
            touch = [0] * (2 * j)
            for v, c in enumerate(f):
                cls[c] |= 1 << v
                touch[c] |= lines[v]
            cv = [cls[c] for c in f]
            rc = [touch[c] for c in f]
            u, fl = 0, sum(cv[v] << (v * n) for v in range(n))
            for i, v in enumerate(sub):
                level[i].append((u, fl, cv, rc))
                u, fl = u | cv[v], fl | rc[v]
            acc &= fl
        d = m - 1
        while d >= 0 and sub[d] == d + n - j:
            d -= 1
        if d < 0:
            return HashFamily(n, 2 * j, tuple(fns), j, True)
        sub[d:] = range(sub[d] + 1, sub[d] + 1 + m - d)


class SlotGraph:
    """Directed edge slots of a forbidden-transition graph.

    Slot 2e+d is edge e traversed so that its head is endpoints(e)[1-d].
    Successors follow permitted transitions at the head.  Compatible walks
    are exactly the walks of this digraph, which makes it the shared
    substrate for walk prefilters, the path search and the colorful DP.
    heads[sid] and tails[sid] are the slot's head and tail vertices.
    Transitions are unordered, so slot s ^ 1 is s reversed and s -> s2
    exactly when s2 ^ 1 -> s ^ 1: a backward search is a forward one over
    reversed slots, and only successors are stored, in the order of
    t.pairs: no answer depends on their order, only which of several
    shortest paths a sweep returns.
    """

    __slots__ = ("g", "succ", "heads", "tails")

    def __init__(self, g: Graph, t: TransitionSystem):
        self.g = g
        edges, m = g.edges, g.m
        succ = [[] for _ in range(2 * m)]
        # A permitted pair (e, f) meeting at w links in(e, w) -> out(f, w)
        # and in(f, w) -> out(e, w), where in(e, w) is the slot of e with
        # head w and out(e, w) = in(e, w) ^ 1: slot 2e has head edges[e][1]
        # and slot 2e + 1 head edges[e][0].  t stores each pair as (e, f)
        # with e < f; pairs that are no transition of g (ids out of range,
        # no shared vertex) add nothing.
        for e, f in t.pairs:
            if not 0 <= e < f < m:
                continue
            a, b = edges[e]
            c, d = edges[f]
            e2, f2 = 2 * e, 2 * f
            if a == c:
                succ[e2 + 1].append(f2)
                succ[f2 + 1].append(e2)
            elif a == d:
                succ[e2 + 1].append(f2 + 1)
                succ[f2].append(e2)
            elif b == c:
                succ[e2].append(f2)
                succ[f2 + 1].append(e2 + 1)
            elif b == d:
                succ[e2].append(f2 + 1)
                succ[f2].append(e2 + 1)
        self.succ = succ
        tails = tuple(itertools.chain.from_iterable(edges))
        heads = list(tails)
        heads[::2] = tails[1::2]
        heads[1::2] = tails[::2]
        self.heads = tuple(heads)
        self.tails = tails

    def slot(self, e: int, head: int) -> int:
        u, v = self.g.edges[e]
        if head == v:
            return 2 * e
        if head == u:
            return 2 * e + 1
        raise ValueError(f"vertex {head} not an endpoint of edge {e}")


def _endpoint_slots(sg: SlotGraph, ep: Endpoint) -> list:
    """The slots a path from ep starts on: the slots out of a vertex, or an
    edge in both directions.  Reversed, they are the slots a path to ep
    ends on."""
    if ep.kind == "vertex":
        return [sg.slot(e, w) for w, e in sg.g.adj(ep.ident)]
    return [2 * ep.ident, 2 * ep.ident + 1]


def _slot_walk_dists(sg: SlotGraph, seeds: Iterable[int], allowed, limit=INF) -> list:
    """Minimal compatible-walk edge counts per slot (1 at the seed slots);
    INF where no walk of at most limit >= 1 edges reaches the slot."""
    dist = [INF] * (2 * sg.g.m)
    queue = []
    for s in seeds:
        if dist[s] == INF:
            dist[s] = 1
            queue.append(s)
    succ, heads, tails = sg.succ, sg.heads, sg.tails
    depth = 1
    while queue and depth < limit:
        depth += 1
        nxt = []
        for s in queue:
            for u in succ[s]:
                if dist[u] == INF:
                    if allowed is not None and (
                        heads[u] not in allowed or tails[u] not in allowed
                    ):
                        continue
                    dist[u] = depth
                    nxt.append(u)
        queue = nxt
    return dist


def _shortest_walk(sg: SlotGraph, starts: list, goals: list, limit) -> tuple:
    """The walk step: one shortest compatible walk of at most limit edges
    from a start slot to a goal slot, or None when none exists; and the
    forward search it came from, `_slot_walk_dists` from starts, stopped at
    limit.

    The walk ends in the lowest-numbered nearest goal slot, then walks
    back, each time to the lowest-numbered slot one edge nearer a start:
    the predecessors of slot p are the reversed successors of p ^ 1.
    """
    dist = _slot_walk_dists(sg, starts, None, limit)
    sid = min(goals, key=lambda x: (dist[x], x), default=None)
    if sid is None or dist[sid] == INF:
        return None, dist
    slots = [sid]
    for d in range(dist[sid] - 1, 0, -1):
        slots.append(min(p ^ 1 for p in sg.succ[slots[-1] ^ 1] if dist[p ^ 1] == d))
    slots.reverse()
    return _walk_of(sg, slots), dist


def _walk_of(sg: SlotGraph, slots) -> Walk:
    """The walk that traverses the slots in order."""
    return Walk((sg.tails[slots[0]],) + tuple(sg.heads[sid] for sid in slots),
                tuple(sid // 2 for sid in slots))


def _colorful_run(sg, col, starts, pending, bound, results, wits, slot_goal,
                  allowed, back) -> int:
    """One DP sweep under a fixed coloring from the start slots starts;
    updates results/wits in place and returns the number of states created.

    States are (colorset mask, slot); the frontier at round L holds all
    states whose walk is a colorful compatible path of length L, and
    parents maps each state created to the one it was reached from (None
    at a start), so a goal's witness is read off it.  back[s ^ 1]
    is a lower bound on the slots of a walk from slot s to a goal slot,
    counting both, used as an admissible prune.  A goal's result only
    falls, so after each round's goal check cap is the longest walk that can
    still improve a goal of pending: bound while one is open, else one less
    than the largest result.  The sweep stops once the next round would pass
    cap, and prunes every successor that reaches a goal slot only beyond it.
    """
    heads, tails, succ = sg.heads, sg.tails, sg.succ
    parents = {}
    frontier = {}
    # special colours are distinct and below base, and a slot's head is never
    # its tail, so a start slot's two colours always differ
    for sid in starts:
        mask = (1 << col[tails[sid]]) | (1 << col[heads[sid]])
        frontier.setdefault(mask, set()).add(sid)
        parents[(mask, sid)] = None
    length = 1
    cap = max(bound if results[i] is None else results[i] - 1 for i in pending)
    while frontier:
        found = False
        for mask, ss in frontier.items():
            for sid in ss:
                for i in slot_goal.get(sid, ()):
                    if results[i] is None or length < results[i]:
                        results[i] = length
                        found = True
                        wits[i] = _rebuild(sg, parents, (mask, sid))
        if found:
            cap = max(bound if results[i] is None else results[i] - 1 for i in pending)
        if length >= cap:
            break
        nxt = {}
        for mask, ss in frontier.items():
            for sid in ss:
                for s2 in succ[sid]:
                    h = heads[s2]
                    if allowed is not None and h not in allowed:
                        continue
                    if length + back[s2 ^ 1] > cap:
                        continue
                    b = 1 << col[h]
                    if mask & b:
                        continue
                    key = (mask | b, s2)
                    if key in parents:
                        continue
                    parents[key] = (mask, sid)
                    nxt.setdefault(mask | b, set()).add(s2)
        frontier = nxt
        length += 1
    return len(parents)


def _rebuild(sg: SlotGraph, parents, state) -> Walk:
    slots = []
    while state is not None:
        slots.append(state[1])
        state = parents[state]
    return _walk_of(sg, slots[::-1])


def oriented_compath(
    sg: SlotGraph,
    starts: Sequence[int],
    goals: Sequence[Sequence[int]],
    bound: int,
    family: HashFamily,
    allowed_vertices: Optional[set] = None,
    walk_dists: Optional[list] = None,
):
    """Shortest compatible paths from the start slots starts to several
    goals, over the slot graph sg of the instance.

    A path begins with one of starts and, to reach goal i, ends with one
    of goals[i]; every other slot of it keeps both ends in
    allowed_vertices, when given, and the caller picks starts and goal
    slots inside that region.  Returns optional lengths (<= bound) per
    goal and, in parallel, the walk that gave each length, read off the
    sweep's back-pointers.  The path's first and last vertices, the tails
    of starts and the heads of the open goals' slots, take special colours
    of their own, so a member need only colour the inner vertices
    injectively.  Family members are swept with early exit once every
    reachable goal matches its compatible-walk lower bound, read from a
    forward walk search from starts stopped at bound.  walk_dists is that
    search when the caller has already run it.
    """
    allowed = allowed_vertices
    results = [None] * len(goals)
    wits = [None] * len(goals)
    fwd = walk_dists if walk_dists is not None else _slot_walk_dists(sg, starts, allowed, bound)

    slot_goal = {}
    lower = {}
    for i, gs in enumerate(goals):
        walk_best = min((fwd[s] for s in gs), default=INF)
        if walk_best > bound:
            continue  # not even a compatible walk fits the bound
        lower[i] = walk_best
        for s in gs:
            slot_goal.setdefault(s, []).append(i)
    pending = list(lower)
    if not pending:
        return results, wits

    # back[s ^ 1]: fewest slots of a walk from s to a goal slot, counting both
    back = _slot_walk_dists(sg, [s ^ 1 for s in slot_goal], allowed)

    special = {}
    ends = [sg.tails[s] for s in starts] + [sg.heads[s] for i in pending for s in goals[i]]
    for v in ends:
        special.setdefault(v, len(special))
    base = len(special)

    for fn in family.functions:
        col = [base + c for c in fn]
        for v, c in special.items():
            col[v] = c
        _colorful_run(sg, col, starts, pending, bound, results, wits, slot_goal,
                      allowed, back)
        if all(results[i] is not None and results[i] <= lower[i] for i in pending):
            break
    return results, wits


def compath(
    g: Graph,
    t: TransitionSystem,
    x,
    y,
    k: int,
    seed: int = 0,
    witness: bool = False,
    stats: Optional[dict] = None,
):
    """Length of a shortest compatible x-y path of length <= k, or None.

    Three steps answer in turn (module docstring), for vertex and edge
    endpoints alike.  The walk step's search stopped at depth k finds no
    walk, an exact "no", or a shortest walk that is a path, the answer.
    Otherwise the search step looks for a shortest path within its budget
    and, when it completes, answers exactly.  Only when it runs out does
    the colorful dynamic program sweep the members of the hash family
    `family_for_bound(g.n, k, seed)`, from every start slot of x at once,
    reusing the walk search.  Every answer comes with the walk it was read
    from, and that walk is checked to be a compatible x-y path of that
    length whatever witness says; witness=True only returns (length, Walk)
    instead of the length.  When given, stats gains "step", the step that
    answered ("walk", "search" or "sweep"), "expansions", the search's
    expansions (0 when the walk step answered), "family_size", the size of
    the family swept (0 when none was), and "certified", False only when
    that family is uncertified, so that a "no" is only probable.
    """
    stats = {} if stats is None else stats
    stats.update(step="walk", expansions=0, family_size=0, certified=True)
    x = x if isinstance(x, Endpoint) else Endpoint.vertex(x)
    y = y if isinstance(y, Endpoint) else Endpoint.vertex(y)
    x.validate(g)
    y.validate(g)
    best, best_w = _answer(g, t, x, y, k, seed, stats)
    if best_w is not None:
        _check_witness(g, t, x, y, best, best_w)
    return (best, best_w) if witness else best


def _answer(g, t, x: Endpoint, y: Endpoint, k: int, seed: int, stats: dict) -> tuple:
    """compath's (length, Walk) answer, or (None, None), before the check."""
    if k < 0:
        return None, None
    if x.kind == "vertex" and y.kind == "vertex" and x.ident == y.ident:
        return 0, Walk((x.ident,), ())
    if k < 1:
        return None, None
    sg = SlotGraph(g, t)
    starts = _endpoint_slots(sg, x)
    goals = [s ^ 1 for s in _endpoint_slots(sg, y)]
    walk, fwd = _shortest_walk(sg, starts, goals, k)
    if walk is None:
        return None, None
    if walk.is_path():
        return walk.length, walk
    return _search_then_sweep(sg, starts, goals, k, seed, fwd, stats, oriented_compath)


def _search_then_sweep(sg, starts, goals, bound, seed, fwd, stats, sweep) -> tuple:
    """The search step, then the sweep step when the search runs out of
    budget: a shortest compatible path of at most bound edges from a start
    slot to a goal slot, as (length, Walk), or (None, None).

    fwd is the walk step's forward search, which the sweep reuses, and
    sweep is oriented_compath or a wrapper with its signature.  stats gets
    the step that answered, the search's expansions and, after a sweep,
    the family's size and whether it is certified.
    """
    g = sg.g
    back = _slot_walk_dists(sg, [s ^ 1 for s in goals], None, bound)
    found, stats["expansions"] = _path_search(
        sg, starts, goals, bound, back,
        lambda: 2 * g.m * len(family_for_bound(g.n, bound, seed)),
    )
    if found is not None:
        stats["step"] = "search"
        return found
    family = family_for_bound(g.n, bound, seed)
    stats.update(step="sweep", family_size=len(family), certified=family.certified)
    (best,), (best_w,) = sweep(sg, starts, [goals], bound, family, None, fwd)
    return best, best_w


def _path_search(sg, starts, goals, bound, back, budget) -> tuple:
    """The search step: a depth-first branch and bound over the simple
    compatible slot paths from the start slots.

    It keeps the shortest path to a goal slot found so far, at first none
    within bound, and skips a successor s2 whose head is on the path or
    with length + back[s2 ^ 1] >= best: back[s2 ^ 1] is the fewest slots of
    a walk from s2 to a goal slot, counting both, so no path through s2
    beats best.  Successors are tried in ascending back order, so the
    first path found is short and the bounds soon cut the rest; once
    one fails the bound, so do the siblings after it.  Returns
    ((length, Walk) or (None, None), expansions), or (None, expansions)
    when it would need more than budget() expansions, the slot visits of
    one sweep per family member.  Until it has made 2m expansions, one
    member's share, it does not call budget, which may build the family.
    """
    succ, heads, tails = sg.succ, sg.heads, sg.tails
    goal = set(goals)

    def order(slots):
        return sorted(slots, key=lambda s: (back[s ^ 1], s))

    best, found = bound + 1, None
    spent, limit = 0, len(succ)
    path, on = [], set()
    stack = [iter(order(starts))]
    while stack:
        s = next(stack[-1], None)
        if s is None or len(path) + back[s ^ 1] >= best:
            stack.pop()
            if path:
                on.discard(heads[path.pop()])
            continue
        if path and heads[s] in on:
            continue
        if spent >= limit:
            limit = budget()
            if spent >= limit:
                return None, spent
        spent += 1
        if s in goal:
            best, found = len(path) + 1, path + [s]
            continue
        if not path:
            on = {tails[s]}
        path.append(s)
        on.add(heads[s])
        stack.append(iter(order(succ[s])))
    return ((best, _walk_of(sg, found)) if found else (None, None)), spent


def _check_witness(g, t, x: Endpoint, y: Endpoint, length: int, w: Walk) -> None:
    """Raise InvariantError unless w is a compatible x-y path of the given
    length; an edge endpoint must be the walk's first or last edge."""

    def ends_at(ep, i):
        items = w.vertices if ep.kind == "vertex" else w.edge_ids
        return bool(items) and items[i] == ep.ident

    if not (ends_at(x, 0) and ends_at(y, -1) and w.length == length):
        raise InvariantError("compath witness has the wrong ends or length")
    try:
        ok = w.is_path() and is_compatible_walk(g, t, w)
    except ValueError as exc:  # the edge ids do not join the vertices
        raise InvariantError(f"compath witness is not a walk: {exc}") from exc
    if not ok:
        raise InvariantError("compath witness is not a compatible path")
