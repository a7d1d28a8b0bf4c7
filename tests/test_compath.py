import hashlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import transita.compath
from transita.compath import (
    SlotGraph, compath, family_for_bound, oriented_compath, verify_k_perfect,
)
from transita.core import (
    Endpoint, Graph, InvariantError, TransitionSystem, Walk, all_transitions, bfs_dist,
    is_compatible_walk,
)
from transita.detour import _walks_back
from transita.genred import gen_random_ftg
from transita.oracle import brute_compatible_path


def test_family_trivial_cases():
    # bound <= 2 leaves at most one inner vertex: one constant function
    fam = family_for_bound(5, 2)
    assert len(fam) == 1 and fam.certified and verify_k_perfect(fam)
    # n <= bound - 1: one injection suffices
    fam = family_for_bound(3, 4)
    assert len(fam) == 1 and fam.certified and verify_k_perfect(fam)


def test_family_certified_small():
    fam = family_for_bound(6, 4)
    assert fam.perfect_for == 3 and verify_k_perfect(fam)
    # derived check: some member is injective on each of the C(6,3)=20 subsets
    subsets = list(itertools.combinations(range(6), 3))
    assert len(subsets) == 20
    for s in subsets:
        assert any(len({f[v] for v in s}) == 3 for f in fam.functions)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n_bound=st.integers(0, 6).flatmap(
        lambda bound: st.tuples(st.integers(1, 20 if bound <= 5 else 12), st.just(bound))
    ),
    seed=st.integers(0, 50),
)
def test_family_for_bound_is_certified_perfect(n_bound, seed):
    n, bound = n_bound
    fam = family_for_bound(n, bound, seed)
    assert fam.certified and fam.n == n
    assert fam.perfect_for == max(bound - 1, 1)
    assert all(len(f) == n and all(0 <= c < fam.k for c in f) for f in fam.functions)
    assert verify_k_perfect(fam)


def _subset_walk_family(n, bound, seed):
    """The certifying walk as first written: one color set per (subset, member)."""
    j = max(bound - 1, 1)
    rng = random.Random(f"{seed}/splitter/{n}/{j}")
    fns = []
    for sub in itertools.combinations(range(n), j):
        if any(len({f[v] for v in sub}) == j for f in fns):
            continue
        f = [rng.randrange(2 * j) for _ in range(n)]
        for i, v in enumerate(sub):
            f[v] = i
        fns.append(tuple(f))
    return tuple(fns)


def test_prefix_walk_keeps_the_subset_walk_family():
    # the prefix-mask walk must keep the members the plain subset walk keeps,
    # drawn from the same rng calls, so the families are identical
    for seed in (0, 1, 7):
        for n in range(4, 15):
            for bound in range(3, 7):
                if n <= bound - 1:
                    continue
                fam = family_for_bound(n, bound, seed)
                assert fam.functions == _subset_walk_family(n, bound, seed), (n, bound, seed)
                assert fam.certified


def _prefix_walk_family(n, bound, seed):
    """The certifying walk over (j-1)-prefixes, one member bitmask test per subset."""
    j = max(bound - 1, 1)
    rng = random.Random(f"{seed}/splitter/{n}/{j}")
    # alive[i] is the bitmask of kept members injective on sub[:i];
    # clash[i][v] marks the kept members that give v the color of some
    # vertex of sub[:i], built from eq[w], whose entry v marks the members
    # with f[w] == f[v].  Each prefix recomputes both from its first changed
    # position d on.
    p = j - 1
    fns = []
    eq = [[0] * n for _ in range(n)]
    alive = [0] * j
    clash = [[0] * n for _ in range(j)]
    sub = list(range(p))
    d = 0
    while True:
        for i in range(d, p):
            alive[i + 1] = alive[i] & ~clash[i][sub[i]]
            clash[i + 1] = list(map(operator.or_, clash[i], eq[sub[i]]))
        last = sub[-1]
        while True:
            live, row = alive[p], clash[p]
            last = next((v for v in range(last + 1, n) if not live & ~row[v]), n)
            if last == n:
                break
            f = [rng.randrange(2 * j) for _ in range(n)]
            for i, v in enumerate(sub + [last]):
                f[v] = i
            bit = 1 << len(fns)
            fns.append(tuple(f))
            for i in range(j):
                alive[i] |= bit
            for v in range(n):
                for w in range(n):
                    if f[w] == f[v]:
                        eq[v][w] |= bit
                for i in range(f[v] + 1, j):  # sub[:i] has the colors 0..i-1
                    clash[i][v] |= bit
        d = p - 1
        while d >= 0 and sub[d] == d + n - j:
            d -= 1
        if d < 0:
            return tuple(fns)
        sub[d:] = range(sub[d] + 1, sub[d] + 1 + p - d)


def test_pair_mask_walk_keeps_the_prefix_walk_family():
    # the pair-mask walk must keep the members the prefix walk keeps, drawn
    # from the same rng calls, so the families are identical
    for seed in (0, 1, 7):
        for n in range(4, 25):
            for bound in range(3, 8):
                if n <= bound - 1:
                    continue
                fam = family_for_bound(n, bound, seed)
                assert fam.functions == _prefix_walk_family(n, bound, seed), (n, bound, seed)
                assert fam.certified


@pytest.mark.parametrize("n, bound, members, digest", [
    (24, 7, 35, "59ce9f74af8fdfdad9a6b3fc893a33a3feddb0ce43395d08c203281137424e8b"),
    (28, 6, 29, "50b6b0d871d42e98fc63c6408f5da36437d9884583dc05888056f87dc8153297"),
    (28, 8, 59, "478d6b376960d165bc15f6e00aa41661498d779b5bd590fff7ccbf2a846d2027"),
    (32, 7, 50, "9e4a2e266934129032fe05fb0ff13bac7d50e6a814780189628b4a25bac72430"),
])
def test_large_families_are_pinned(n, bound, members, digest):
    # families too slow for a reference walk, pinned by the sha256 of the
    # members the prefix walk kept
    fam = family_for_bound(n, bound, 0)
    assert fam.certified and len(fam) == members
    assert hashlib.sha256(repr(fam.functions).encode()).hexdigest() == digest


def test_slot_graph_heads_and_tails():
    g, t = gen_random_ftg(12, 0.35, 0.7, 5)
    sg = SlotGraph(g, t)
    assert len(sg.heads) == len(sg.tails) == 2 * g.m
    for e, (u, v) in enumerate(g.edges):
        for head, tail in ((v, u), (u, v)):
            sid = sg.slot(e, head)
            assert sid // 2 == e
            assert (sg.heads[sid], sg.tails[sid]) == (head, tail)


def _reference_slot_graph(g, t):
    # slot 2e+d has head edges[e][1-d]; successors in adjacency order at the
    # head, predecessors in increasing slot id
    slots = range(2 * g.m)
    heads = tuple(g.edges[sid // 2][1 - sid % 2] for sid in slots)
    tails = tuple(g.edges[sid // 2][sid % 2] for sid in slots)
    succ = tuple(
        tuple(
            2 * f + (0 if g.edges[f][1] == w else 1)
            for w, f in g.adj(heads[sid])
            if f != sid // 2 and t.permits(sid // 2, f)
        )
        for sid in slots
    )
    pred = tuple(tuple(sid for sid in slots if nxt in succ[sid]) for nxt in slots)
    return succ, pred, heads, tails


def _slot_graph_cases(rng):
    """200 random graphs, then one graph with all, no and junk transitions."""
    cases = []
    for _ in range(200):
        n = rng.randint(2, 14)
        cases.append(gen_random_ftg(n, rng.uniform(0.1, 0.6), rng.uniform(0.2, 1.0),
                                    rng.randrange(10**6)))
    g, _ = gen_random_ftg(12, 0.4, 0.5, 17)
    cases += [(g, all_transitions(g)), (g, TransitionSystem())]
    # pairs that are no transition of g: disjoint edges, an edge paired
    # with itself, and ids out of range
    disjoint = [
        (e, f) for e in range(g.m) for f in range(e + 1, g.m)
        if not set(g.endpoints(e)) & set(g.endpoints(f))
    ]
    assert disjoint
    junk = disjoint + [(0, 0), (3, 3), (-1, 0), (0, g.m), (g.m, g.m + 1), (-2, -1)]
    cases += [(g, TransitionSystem(junk)),
              (g, TransitionSystem(list(all_transitions(g).pairs) + junk))]
    return cases


def test_slot_graph_matches_a_reference_built_with_permits():
    cases = _slot_graph_cases(random.Random(2009))
    for g, t in cases:
        sg = SlotGraph(g, t)
        succ, pred, heads, tails = _reference_slot_graph(g, t)
        # successor lists keep the order of t.pairs, so compare them sorted
        assert tuple(tuple(sorted(links)) for links in sg.succ) == succ
        assert (sg.heads, sg.tails) == (heads, tails)
        # slot s ^ 1 is s reversed, so reversed successors are predecessors
        assert tuple(tuple(sorted(p ^ 1 for p in sg.succ[s ^ 1]))
                     for s in range(2 * g.m)) == pred
    g, _ = cases[-1]
    assert any(SlotGraph(g, all_transitions(g)).succ)
    assert not any(SlotGraph(g, TransitionSystem()).succ)


def _reference_walks_back(pred, heads, tails, seeds, allowed):
    # fewest slots of a walk from each slot to a seed slot, counting both,
    # by a BFS over predecessor lists
    dist = [math.inf] * len(pred)
    queue = list(dict.fromkeys(seeds))
    for s in queue:
        dist[s] = 1
    for s in queue:
        for p in pred[s]:
            if dist[p] == math.inf and (
                allowed is None or (heads[p] in allowed and tails[p] in allowed)
            ):
                dist[p] = dist[s] + 1
                queue.append(p)
    return dist


def _reference_goal_slots(g, goal, allowed):
    # the slots entering the goal's named vertex from an allowed vertex
    def ok(v):
        return allowed is None or v in allowed

    if goal[0] == "v":
        y = goal[1]
        return [2 * e + (g.edges[e][1] != y) for _, e in g.adj(y)
                if ok(y) and ok(g.other_end(e, y))]
    _, e, last = goal
    return [2 * e + (g.edges[e][1] != last)] if ok(last) and ok(g.other_end(e, last)) else []


def test_backward_searches_match_a_bfs_over_reference_predecessors(monkeypatch):
    # goal slots, _walks_back and the backward bound of oriented_compath run
    # over reversed slots; on the random and junk-pair graphs, unrestricted
    # and inside a band of BFS layers, they agree with the reference built
    # from predecessor lists
    rng = random.Random(1226)
    bounds = []
    real = transita.compath._colorful_run

    def recorded(sg, col, starts, pending, bound, results, wits, slot_goal, allowed, back):
        bounds.append((list(slot_goal), allowed, back))
        return real(sg, col, starts, pending, bound, results, wits, slot_goal, allowed, back)

    monkeypatch.setattr(transita.compath, "_colorful_run", recorded)
    checked = 0
    for g, t in _slot_graph_cases(rng):
        if not g.m:
            continue
        sg = SlotGraph(g, t)
        _, pred, heads, tails = _reference_slot_graph(g, t)
        dist = bfs_dist(g, rng.randrange(g.n))
        top = max(d for d in dist if d != math.inf)
        lo = rng.randint(0, top)
        band = {v for v in range(g.n) if lo <= dist[v] <= rng.randint(lo, top)}
        for allowed in (None, band):
            goals = [("v", rng.randrange(g.n)) for _ in range(2)]
            for e in rng.sample(range(g.m), min(2, g.m)):
                goals.append(("e", e, g.edges[e][rng.randrange(2)]))
            slots = set()
            for goal in goals:
                gs = transita.compath._goal_slots(sg, goal, allowed)
                assert gs == _reference_goal_slots(g, goal, allowed)
                slots.update(gs)
            region = set(range(g.n)) if allowed is None else allowed
            back = _walks_back(sg, slots, region)
            seeds = [s for s in slots if heads[s] in region and tails[s] in region]
            ref = _reference_walks_back(pred, heads, tails, seeds, region)
            assert [back[s ^ 1] for s in range(2 * g.m)] == ref
            bounds.clear()
            oriented_compath(sg, ("v", rng.randrange(g.n)), goals, 4,
                             family_for_bound(g.n, 4), allowed_vertices=allowed)
            for slot_goal, allowed_, back in bounds[:1]:
                ref = _reference_walks_back(pred, heads, tails, slot_goal, allowed_)
                assert [back[s ^ 1] for s in range(2 * g.m)] == ref
                checked += allowed_ is not None and any(d != math.inf for d in ref)
    assert checked >= 20


def test_family_random_mode_size():
    # above n = 32 the family is seeded random and says so
    fam = family_for_bound(40, 3, seed=1)
    assert fam.certified is False and fam.perfect_for == fam.k == 2
    assert len(fam) == math.ceil(math.e**2 * 2 * math.log(40)) + 8


def test_splitter_family_certified():
    fam = family_for_bound(12, 5, seed=0)
    assert fam.perfect_for == 4 and fam.k == 8 and fam.certified
    assert verify_k_perfect(fam, subset_size=4)


def test_colorful_c5_with_removed_transition():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pairs = set(all_transitions(g).pairs)
    pairs.discard((0, 1))  # forbid going straight through vertex 1
    t = TransitionSystem(pairs)
    # the long way round is the only compatible route
    assert compath(g, t, 0, 2, 4) == 3
    assert compath(g, t, 0, 2, 2) is None


def test_compath_trivial_cases():
    g = Graph(2, [(0, 1)])
    assert compath(g, TransitionSystem(), 0, 1, 1) == 1
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert compath(p3, TransitionSystem(), 0, 2, 10) is None
    assert compath(p3, TransitionSystem(), 0, 0, 0) == 0
    # edge endpoints need length at least one
    assert compath(g, TransitionSystem(), Endpoint.edge(0), 1, 0) is None


def test_compath_matches_oracle_on_random_instances():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 7)
        g, t = gen_random_ftg(n, 0.5, 0.6, rng.randrange(10**6))
        x, y = rng.randrange(n), rng.randrange(n)
        for k in range(0, 7):
            assert compath(g, t, x, y, k, seed=5) == brute_compatible_path(
                g, t, x, y, k
            )


def test_compath_edge_endpoints_match_oracle():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randint(3, 7)
        g, t = gen_random_ftg(n, 0.5, 0.6, rng.randrange(10**6))
        if g.m == 0:
            continue
        x = Endpoint.edge(rng.randrange(g.m))
        y = (
            Endpoint.edge(rng.randrange(g.m))
            if rng.random() < 0.5
            else Endpoint.vertex(rng.randrange(n))
        )
        for k in (1, 3, 5):
            assert compath(g, t, x, y, k, seed=5) == brute_compatible_path(g, t, x, y, k)


def test_compath_monotone_in_k():
    rng = random.Random(3)
    for _ in range(40):
        g, t = gen_random_ftg(rng.randint(3, 7), 0.5, 0.7, rng.randrange(10**6))
        x, y = rng.randrange(g.n), rng.randrange(g.n)
        best = compath(g, t, x, y, 6, seed=1)
        if best is None:
            continue
        for k in range(best, 7):
            assert compath(g, t, x, y, k, seed=1) == best


def test_compath_witness_is_a_compatible_simple_path():
    rng = random.Random(8)
    for _ in range(60):
        g, t = gen_random_ftg(rng.randint(3, 7), 0.6, 0.7, rng.randrange(10**6))
        x, y = rng.randrange(g.n), rng.randrange(g.n)
        ln, w = compath(g, t, x, y, 6, seed=2, witness=True)
        if ln is None:
            continue
        assert w.length == ln and w.is_path()
        assert is_compatible_walk(g, t, w)
        assert w.vertices[0] == x and w.vertices[-1] == y


def test_invalid_endpoint_raises():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        compath(g, TransitionSystem(), 5, 0, 2)
    with pytest.raises(ValueError):
        compath(g, TransitionSystem(), Endpoint.edge(3), 0, 2)


def test_family_for_bound_reuses_cache():
    a = family_for_bound(10, 4, seed=0)
    b = family_for_bound(10, 4, seed=0)
    assert a is b


def test_oriented_compath_answers_a_goal_equal_to_the_start(monkeypatch):
    g = Graph(3, [(0, 1), (1, 2)])
    t = all_transitions(g)
    sg = SlotGraph(g, t)
    fam = family_for_bound(g.n, 3)
    res, wits = oriented_compath(sg, ("v", 0), [("v", 0), ("v", 2)], 3, fam)
    assert res == [0, 2]
    assert wits[0] == Walk((0,), ()) and wits[1].vertices == (0, 1, 2)
    # with the start as the only goal, no member is swept
    runs = [0]
    real = transita.compath._colorful_run

    def counted(*args):
        runs[0] += 1
        return real(*args)

    monkeypatch.setattr(transita.compath, "_colorful_run", counted)
    assert oriented_compath(sg, ("v", 1), [("v", 1)], 3, fam) == ([0], [Walk((1,), ())])
    assert runs[0] == 0
    # a start outside the allowed vertices is no path, not even to itself
    assert oriented_compath(sg, ("v", 0), [("v", 0)], 3, fam, allowed_vertices={1, 2}) == (
        [None], [None])


def _turned_graph(rnd):
    # the path 0-1-2 with its straight turn at 1 forbidden, the triangle
    # 1-3-4 at 1, a bypass of 4 or 6 edges from 0 to 2 and a few random
    # edges, whose turns are kept with probability 0.7, renumbered; the
    # compatible 0-2 walk 0-1-3-4-1-2 repeats vertex 1 and is often the
    # shortest.  Returns g, t and vertices 0 and 2
    by = rnd.choice([4, 6, 6])
    n = 4 + by
    edges = {(0, 1), (1, 2), (1, 3), (3, 4), (1, 4)}
    bypass = [0] + list(range(5, 4 + by)) + [2]
    edges |= {tuple(sorted(p)) for p in zip(bypass, bypass[1:])}
    extra = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.02} - edges
    num = rnd.sample(range(n), n)
    g = Graph(n, sorted(tuple(sorted((num[u], num[v]))) for u, v in edges | extra))
    straight = tuple(sorted((g.edge_id(num[0], num[1]), g.edge_id(num[1], num[2]))))
    added = {g.edge_id(num[u], num[v]) for u, v in extra}
    t = TransitionSystem(p for p in sorted(all_transitions(g).pairs) if p != straight
                         and (not added & set(p) or rnd.random() < 0.7))
    return g, t, num[0], num[2]


@st.composite
def compath_queries(draw):
    # half of the graphs have n <= 10 vertices, a drawn edge density and a
    # drawn share of kept turns, and each end is a vertex or an edge; the
    # other half are turned graphs, queried between the ends of the path
    # that the forbidden turn blocks
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g, t, x, y = _turned_graph(rnd)
        return g, t, Endpoint.vertex(x), Endpoint.vertex(y), draw(st.integers(4, 6))
    n = rnd.randint(2, 10)
    g, t = gen_random_ftg(n, rnd.choice([0.2, 0.35, 0.6]), rnd.choice([0.5, 0.7, 0.9]),
                          rnd.randrange(10**6))
    kinds = ["vertex"] + (["edge"] if g.m else [])
    ends = []
    for _ in range(2):
        kind = draw(st.sampled_from(kinds))
        ends.append(Endpoint(kind, draw(st.integers(0, (n if kind == "vertex" else g.m) - 1))))
    return g, t, ends[0], ends[1], draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compath_queries())
def test_compath_agrees_with_the_oracle_on_drawn_graphs(query):
    g, t, x, y, k = query
    ref = brute_compatible_path(g, t, x, y, k)
    stats = {}
    ln, w = compath(g, t, x, y, k, seed=3, witness=True, stats=stats)
    assert ln == ref and stats["certified"]
    if ln is not None:
        ends = [w.vertices[0] if x.kind == "vertex" else w.edge_ids[0],
                w.vertices[-1] if y.kind == "vertex" else w.edge_ids[-1]]
        assert ends == [x.ident, y.ident] and w.length == ln
        assert w.is_path() and is_compatible_walk(g, t, w)
    assert compath(g, t, x, y, k, seed=3) == ref


def _counting(monkeypatch, name, calls):
    real = getattr(transita.compath, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(transita.compath, name, counted)


def _uturn_graph():
    # the path 0-1-2 with its straight turn at 1 forbidden, the triangle
    # 1-3-4 at 1 and the bypass 0-5-6-7-8-9-2: the shortest compatible 0-2
    # walk 0-1-3-4-1-2 repeats vertex 1, and the shortest path is the bypass
    g = Graph(10, [(0, 1), (1, 2), (1, 3), (3, 4), (1, 4)] + [(v, v + 1) for v in range(5, 9)]
              + [(0, 5), (2, 9)])
    straight = tuple(sorted((g.edge_id(0, 1), g.edge_id(1, 2))))
    return g, TransitionSystem(p for p in all_transitions(g).pairs if p != straight)


def test_walk_step_answers_sweep_no_family(monkeypatch):
    calls = {}
    for name in ("family_for_bound", "oriented_compath", "_slot_walk_dists"):
        _counting(monkeypatch, name, calls)
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # the shortest compatible walk is a path, and within k = 2 there is none
    for k, want in ((4, 3), (2, None)):
        stats = {}
        assert compath(g, all_transitions(g), 0, 3, k, witness=True, stats=stats)[0] == want
        assert stats == {"family_size": 0, "certified": True}
    assert calls == {"_slot_walk_dists": 2}


def test_a_corrupt_sweep_walk_raises_without_a_witness(monkeypatch):
    # the sweep's walk is checked whether or not the caller asks for it
    g, t = _uturn_graph()
    solve = transita.compath.oriented_compath

    def short_witness(*args, **kwargs):
        res, ws = solve(*args, **kwargs)
        return res, [w and Walk(w.vertices[:-1], w.edge_ids[:-1]) for w in ws]

    assert compath(g, t, 0, 2, 6) == 6
    monkeypatch.setattr(transita.compath, "oriented_compath", short_witness)
    for witness in (False, True):
        with pytest.raises(InvariantError, match="compath witness has the wrong ends"):
            compath(g, t, 0, 2, 6, witness=witness)


def test_a_walk_that_repeats_a_vertex_still_sweeps(monkeypatch):
    g, t = _uturn_graph()
    calls = {}
    for name in ("oriented_compath", "_slot_walk_dists"):
        _counting(monkeypatch, name, calls)
    for k, want in ((5, None), (6, 6)):
        calls.clear()
        stats = {}
        assert compath(g, t, 0, 2, k, stats=stats) == want
        assert stats == {"family_size": len(family_for_bound(g.n, k)), "certified": True}
        # one sweep, which reuses the walk step's forward search: the only
        # other search is the sweep's backward bound
        assert calls == {"oriented_compath": 1, "_slot_walk_dists": 2}


def test_a_sweep_stops_once_no_goal_can_improve(monkeypatch):
    # on K12 with every turn kept the goal is one edge away; the first sweep
    # finds it in round 1, and with nothing left to improve it stops there,
    # after its 11 start states.  Run to the bound of 8 it created 6,387
    states = []
    real = transita.compath._colorful_run

    def counted(*args):
        states.append(real(*args))
        return states[-1]

    monkeypatch.setattr(transita.compath, "_colorful_run", counted)
    n = 12
    g = Graph(n, list(itertools.combinations(range(n), 2)))
    res, wits = oriented_compath(SlotGraph(g, all_transitions(g)), ("v", 0), [("v", 1)], 8,
                                 family_for_bound(n, 8))
    assert res == [1] and wits[0].vertices == (0, 1)
    assert states == [n - 1]
