import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import transita.detour

from transita.core import (
    Graph, InvariantError, TransitionSystem, Walk, all_transitions, bfs_dist, is_compatible_walk,
    validate_walk, INF,
)
from transita.detour import STAT_KEYS, SlotGraph, comdetour
from transita.genred import gen_random_ftg
from transita.oracle import brute_compatible_path


def layered(g, t, s, tgt, k, seed=0, witness=False, stats=None):
    """comdetour without its walk step: the layered search answers every
    query with s != tgt and tgt reachable, whatever the slack.  It always
    builds its witness, which is dropped unless witness is set."""
    stats = {} if stats is None else stats
    for key in STAT_KEYS:
        stats.setdefault(key, 0)
    dist = bfs_dist(g, s)
    if s == tgt or dist[tgt] == INF:
        return comdetour(g, t, s, tgt, k, seed, witness, stats)
    res = transita.detour._layered(g, t, s, tgt, k, dist, SlotGraph(g, t), seed, stats)
    return res if witness else replace(res, witness=None)


def grid3():
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return Graph(9, edges)


def test_zero_detour_single_edge():
    g = Graph(2, [(0, 1)])
    assert comdetour(g, TransitionSystem(), 0, 1, 0).nu == 1


def test_zero_detour_all_transitions_is_bfs():
    g = grid3()
    assert comdetour(g, all_transitions(g), 0, 8, 0).nu == 4
    assert comdetour(g, all_transitions(g), 0, 2, 0).nu == 2


def test_zero_detour_blocked_monotone_route():
    # forbidding the single straight transition at the middle vertex blocks
    # the unique monotone route from one corner to the next
    g = grid3()
    pairs = set(all_transitions(g).pairs)
    block = tuple(sorted((g.edge_id(0, 1), g.edge_id(1, 2))))
    pairs.discard(block)
    t = TransitionSystem(pairs)
    assert not comdetour(g, t, 0, 2, 0).yes
    assert brute_compatible_path(g, t, 0, 2, 2) is None  # derived confirmation


def test_comdetour_all_transitions_k0():
    g = grid3()
    res = comdetour(g, all_transitions(g), 0, 8, 0)
    assert res.yes and res.nu == 4


def test_comdetour_empty_transitions():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for k in range(4):
        assert not comdetour(g, TransitionSystem(), 0, 3, k).yes


def test_comdetour_unreachable_target():
    g = Graph(3, [(0, 1)])
    res = comdetour(g, TransitionSystem(), 0, 2, 1)
    assert not res.yes and res.diagnostic is not None


def test_comdetour_rejects_terminals_out_of_range():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t = all_transitions(g)
    for s, tgt in ((-1, 0), (0, 7), (4, 0)):
        for witness in (False, True):
            with pytest.raises(ValueError, match="out of range"):
                comdetour(g, t, s, tgt, 1, witness=witness)


def test_comdetour_forced_two_edge_bypass():
    # forbidden straight turn with a two-edge bypass: exactly detour 2
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 2)])
    e = g.edge_id
    t = TransitionSystem(
        [(e(0, 1), e(1, 3)), (e(1, 3), e(3, 4)), (e(3, 4), e(4, 2))]
    )
    assert not comdetour(g, t, 0, 2, 1).yes
    res = comdetour(g, t, 0, 2, 2, witness=True)
    assert res.yes and res.nu == 4
    assert res.witness.length == 4


def test_comdetour_matches_oracle():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(5, 14)
        g, t = gen_random_ftg(n, 0.3, 0.7, rng.randrange(10**6))
        s, tgt = rng.randrange(n), rng.randrange(n)
        if s == tgt:
            continue
        dist = bfs_dist(g, s)
        for k in range(0, 4):
            res = comdetour(g, t, s, tgt, k, seed=9)
            if dist[tgt] == INF:
                assert not res.yes
                continue
            ref = brute_compatible_path(g, t, s, tgt, int(dist[tgt]) + k, size_guard=False)
            assert res.yes == (ref is not None)
            if res.yes:
                assert res.nu == ref


def test_comdetour_consistency_in_k():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(5, 12)
        g, t = gen_random_ftg(n, 0.3, 0.6, rng.randrange(10**6))
        s, tgt = rng.randrange(n), rng.randrange(n)
        if s == tgt:
            continue
        answers = [comdetour(g, t, s, tgt, k, seed=1).yes for k in range(4)]
        for a, b in zip(answers, answers[1:]):
            assert (not a) or b  # yes at k implies yes at k+1


def test_witness_layer_identity():
    # length of the witness equals d + a + 2b with a+b <= k
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(5, 14)
        g, t = gen_random_ftg(n, 0.35, 0.75, rng.randrange(10**6))
        s, tgt = rng.randrange(n), rng.randrange(n)
        if s == tgt:
            continue
        dist = bfs_dist(g, s)
        if dist[tgt] == INF:
            continue
        k = rng.randint(0, 3)
        res = comdetour(g, t, s, tgt, k, seed=4, witness=True)
        if not res.yes:
            continue
        w = res.witness
        assert is_compatible_walk(g, t, w) and w.is_path()
        a_cnt = sum(
            1
            for e in w.edge_ids
            if dist[g.endpoints(e)[0]] == dist[g.endpoints(e)[1]]
        )
        b_cnt = sum(
            1 for u, v in zip(w.vertices, w.vertices[1:]) if dist[v] < dist[u]
        )
        assert res.nu == int(dist[tgt]) + a_cnt + 2 * b_cnt
        assert a_cnt + b_cnt <= k


def test_comdetour_says_whether_its_family_is_certified():
    # a path 0-1-...-(n-1): the layered branch (dist > k) and the delegated
    # branch (dist <= k) both report the family they swept; comdetour
    # answers both from its walk step, which sweeps no family
    for n, certified in ((20, True), (40, False)):
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        t = all_transitions(g)
        far = layered(g, t, 0, n - 1, 2)
        near = layered(g, t, 0, 2, 2)
        assert far.yes and far.nu == n - 1 and far.certified is certified
        assert near.yes and near.nu == 2 and near.certified is certified
        assert comdetour(g, t, 0, n - 1, 2) == replace(far, certified=True)
        assert comdetour(g, t, 0, 2, 2) == replace(near, certified=True)
    assert comdetour(Graph(40, []), TransitionSystem(), 0, 3, 1).certified


def test_walk_step_answers_every_query_within_slack_two():
    # across BFS layers a walk of length d + j has (flat steps) + 2 (down
    # steps) = j, and a repeated vertex needs a closed sub-walk of at least
    # three edges (a U-turn on one edge is never a transition), which costs
    # at least 3: within slack 2 the shortest compatible walk is a path
    rng = random.Random(2512)
    detours = answered = 0
    for i in range(160):
        n = rng.randint(6, 14) if i % 8 else rng.randint(36, 40)
        g, t = gen_random_ftg(n, 3 / (n - 1), rng.choice([0.4, 0.6, 0.8]), rng.randrange(10**6))
        s, tgt = rng.sample(range(n), 2)
        dist = bfs_dist(g, s)
        if dist[tgt] == INF:
            continue
        for k in range(3):
            ref = brute_compatible_path(g, t, s, tgt, int(dist[tgt]) + k, size_guard=False)
            for witness in (False, True):
                stats = {}
                res = comdetour(g, t, s, tgt, k, witness=witness, stats=stats)
                assert stats == {"oriented_calls": 0, "goals": 0}
                assert res.certified and (res.yes, res.nu) == (ref is not None, ref)
                if witness and res.yes:
                    w = res.witness
                    assert w.is_path() and is_compatible_walk(g, t, w)
                    assert (w.vertices[0], w.vertices[-1], w.length) == (s, tgt, ref)
            answered += ref is not None
            detours += ref is not None and ref > dist[tgt]
    assert answered > 300 and detours > 40


def uturn_graph():
    # the path 0-1-...-6 with its straight turn at 3 forbidden, the triangle
    # 3-7-8 at 3 and the bypass 2-9-10-11-12-13-4, four edges longer than
    # the path's 2-3-4
    edges = [(v, v + 1) for v in range(6)] + [(3, 7), (7, 8), (3, 8)]
    edges += [(2, 9), (9, 10), (10, 11), (11, 12), (12, 13), (4, 13)]
    g = Graph(14, edges)
    straight = tuple(sorted((g.edge_id(2, 3), g.edge_id(3, 4))))
    return g, TransitionSystem(p for p in all_transitions(g).pairs if p != straight)


def triangle_turn_graph():
    # the path 0-1-2 with its straight turn at 1 forbidden, the triangle
    # 1-3-4 at 1 and the bypass 0-5-6-7-8-9-2: the shortest compatible 0-2
    # walk 0-1-3-4-1-2 repeats vertex 1, and the shortest path is the bypass
    g = Graph(10, [(0, 1), (1, 2), (1, 3), (3, 4), (1, 4)] + [(v, v + 1) for v in range(5, 9)]
              + [(0, 5), (2, 9)])
    straight = tuple(sorted((g.edge_id(0, 1), g.edge_id(1, 2))))
    return g, TransitionSystem(p for p in all_transitions(g).pairs if p != straight)


def test_layered_search_runs_when_the_shortest_walk_turns_round_a_triangle():
    g, t = uturn_graph()
    walk, _ = transita.detour._shortest_walk(SlotGraph(g, t), 0, 6, INF)
    assert walk.length == 9 and not walk.is_path()
    assert walk.vertices[3:6] in ((3, 7, 8), (3, 8, 7)) and walk.vertices[6] == 3
    for k, nu in ((2, None), (3, None), (4, 10)):
        assert brute_compatible_path(g, t, 0, 6, 6 + k) == nu
        for witness in (False, True):
            stats = {}
            res = comdetour(g, t, 0, 6, k, witness=witness, stats=stats)
            assert (res.yes, res.nu, res.dist, res.certified) == (nu is not None, nu, 6, True)
            # slack 2 rules the walk out; from slack 3 the layered search runs
            assert (stats["oriented_calls"] > 0) == (k >= 3)
            if witness and res.yes:
                assert res.witness.vertices == (0, 1, 2, 9, 10, 11, 12, 13, 4, 5, 6)
                assert is_compatible_walk(g, t, res.witness)


@pytest.mark.parametrize("graph, tgt", [(triangle_turn_graph, 2), (uturn_graph, 6)])
def test_a_corrupt_sweep_walk_raises_without_a_witness(monkeypatch, graph, tgt):
    # sweep walks to the target, shortened by one edge: at slack 4 on the
    # triangle turn (d = 2 <= k) the one ComPath call's walk is the answer;
    # on uturn_graph (d = 6 > k) the seeding calls' walks end the assembled
    # path.  Either way comdetour's check fails, with or without a witness
    g, t = graph()
    k = 4
    assert comdetour(g, t, 0, tgt, k).yes
    solve = transita.detour.oriented_compath

    def short_witness(sg, start, goals, *args, **kwargs):
        res, ws = solve(sg, start, goals, *args, **kwargs)
        return res, [w and Walk(w.vertices[:-1], w.edge_ids[:-1]) if goal == ("v", tgt) else w
                     for w, goal in zip(ws, goals)]

    monkeypatch.setattr(transita.detour, "oriented_compath", short_witness)
    for witness in (False, True):
        stats = {}
        with pytest.raises(InvariantError, match="compath witness has the wrong ends"):
            comdetour(g, t, 0, tgt, k, witness=witness, stats=stats)
        assert stats["oriented_calls"] > 0


def test_comdetour_witness_on_a_long_path():
    # the layered witness is assembled along a join chain of 1,199 pieces
    # in a loop; comdetour's walk step gives the same one
    n = 1200
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    t = TransitionSystem([(e, e + 1) for e in range(n - 2)])
    res = layered(g, t, 0, n - 1, 0, witness=True)
    assert comdetour(g, t, 0, n - 1, 0, witness=True) == res
    assert res.yes and res.nu == n - 1
    assert res.witness.vertices == tuple(range(n))
    assert is_compatible_walk(g, t, res.witness)


def test_join_makes_one_sweep_per_start_edge_and_layer(monkeypatch):
    # every join call starts at an edge out of x and aims at the edges into
    # all vertices of one layer du; no (x, du, start edge) is swept twice
    g, t = gen_random_ftg(18, 0.25, 0.75, 31)
    dist = bfs_dist(g, 0)
    tgt = max(range(g.n), key=lambda v: (dist[v] != INF, dist[v]))
    calls = []
    real = transita.detour.oriented_compath

    def counted(sg, start, goals, *args, **kwargs):
        calls.append((start, tuple(goals)))
        return real(sg, start, goals, *args, **kwargs)

    monkeypatch.setattr(transita.detour, "oriented_compath", counted)
    for k in range(3):
        calls.clear()
        res = layered(g, t, 0, tgt, k, seed=2)
        ref = brute_compatible_path(g, t, 0, tgt, int(dist[tgt]) + k, size_guard=False)
        assert res.nu == ref
        joins = [(start, goals) for start, goals in calls if goals[0][0] == "e"]
        assert joins, "the instance must reach the join"
        keys = []
        for (_, e, x), goals in joins:
            layers = {int(dist[u]) for _, _, u in goals}
            assert len(layers) == 1
            keys.append((x, layers.pop(), e))
        assert len(keys) == len(set(keys))


def test_comdetour_witness_and_plain_runs_agree_with_the_oracle():
    rng = random.Random(808)
    checked = 0
    for _ in range(40):
        n = rng.randint(6, 14)
        g, t = gen_random_ftg(n, 0.3, 0.75, rng.randrange(10**6))
        s, tgt = rng.randrange(n), rng.randrange(n)
        dist = bfs_dist(g, s)
        if s == tgt or dist[tgt] == INF:
            continue
        for k in range(4):
            plain = comdetour(g, t, s, tgt, k, seed=5)
            wit = comdetour(g, t, s, tgt, k, seed=5, witness=True)
            ref = brute_compatible_path(g, t, s, tgt, int(dist[tgt]) + k, size_guard=False)
            assert plain.nu == wit.nu == ref
            assert plain.yes == wit.yes == (ref is not None)
            if wit.yes:
                w = wit.witness
                assert w.length == ref and w.is_path() and is_compatible_walk(g, t, w)
                assert (w.vertices[0], w.vertices[-1]) == (s, tgt)
                checked += 1
    assert checked > 20


def test_join_asks_only_for_goals_that_can_join(monkeypatch):
    # every join goal ("e", f, u) must be able to continue: some inter-layer
    # edge g2 leaves u upward and f may turn onto it; answers stay exact
    calls = []
    real = transita.detour.oriented_compath

    def recorded(sg, start, goals, *args, **kwargs):
        calls.append(tuple(goals))
        return real(sg, start, goals, *args, **kwargs)

    monkeypatch.setattr(transita.detour, "oriented_compath", recorded)
    rng = random.Random(1105)
    joined = 0
    for _ in range(25):
        n = rng.randint(8, 16)
        g, t = gen_random_ftg(n, 0.3, 0.7, rng.randrange(10**6))
        dist = bfs_dist(g, 0)
        tgt = max(range(n), key=lambda v: (dist[v] != INF, dist[v]))
        for k in range(4):
            calls.clear()
            res = layered(g, t, 0, tgt, k, seed=6)
            ref = brute_compatible_path(g, t, 0, tgt, int(dist[tgt]) + k, size_guard=False)
            assert res.yes == (ref is not None) and res.nu == ref
            for goals in calls:
                for _, f, u in (goal for goal in goals if goal[0] == "e"):
                    assert any(
                        dist[w] == dist[u] + 1 and t.permits(f, g2) for w, g2 in g.adj(u)
                    ), (f, u)
                    joined += 1
    assert joined > 100


def test_comdetour_counts_its_calls_and_goals(monkeypatch):
    g, t = gen_random_ftg(18, 0.25, 0.75, 31)
    dist = bfs_dist(g, 0)
    tgt = max(range(g.n), key=lambda v: (dist[v] != INF, dist[v]))
    seen = [0, 0]
    real = transita.detour.oriented_compath

    def counted(sg, start, goals, *args, **kwargs):
        seen[0] += 1
        seen[1] += len(goals)
        return real(sg, start, goals, *args, **kwargs)

    monkeypatch.setattr(transita.detour, "oriented_compath", counted)
    for witness in (False, True):
        seen[:] = [0, 0]
        stats = {}
        assert layered(g, t, 0, tgt, 2, seed=2, witness=witness, stats=stats).yes
        assert stats == {"oriented_calls": seen[0], "goals": seen[1]}
        # asking for every edge into each layer made 52 calls with 356 goals;
        # asking only for joinable edges, but from every start edge, made 44
        # calls with 66 goals
        assert stats == {"oriented_calls": 28, "goals": 45}
        # at slack 2 the walk step answers with no call at all
        seen[:] = [0, 0]
        stats = {}
        assert comdetour(g, t, 0, tgt, 2, seed=2, witness=witness, stats=stats).yes
        assert stats == {"oriented_calls": 0, "goals": 0} and seen == [0, 0]


def test_start_filter_changes_no_result(monkeypatch):
    # admitting every start edge makes the unfiltered set of calls; the
    # filter may only drop calls that find nothing, so every result, witness
    # included, stays the same, for the uncertified families above n = 32 too
    rng = random.Random(1412)
    cases = []
    for _ in range(40):
        n = rng.randint(6, 16)
        g, t = gen_random_ftg(n, 0.3, 0.75, rng.randrange(10**6))
        cases += [(g, t, rng.randrange(n), rng.randrange(n), k) for k in range(4)]
    for _ in range(4):
        n = rng.randint(36, 40)
        g, t = gen_random_ftg(n, 3 / (n - 1), 0.8, rng.randrange(10**6))
        dist = bfs_dist(g, 0)
        tgt = max(range(n), key=lambda v: (dist[v] != INF, dist[v]))
        cases += [(g, t, 0, tgt, k) for k in range(2)]
    filtered = transita.detour._may_reach
    calls = [0, 0]
    uncertified_yes = 0
    for g, t, s, tgt, k in cases:
        for witness in (False, True):
            runs = []
            for i, admit in enumerate((filtered, lambda *args: True)):
                monkeypatch.setattr(transita.detour, "_may_reach", admit)
                stats = {}
                runs.append(layered(g, t, s, tgt, k, seed=3, witness=witness, stats=stats))
                calls[i] += stats["oriented_calls"]
                runs.append(stats["oriented_calls"])
            res, made, ref, unfiltered = runs
            assert res == ref
            assert made <= unfiltered
            uncertified_yes += res.yes and not res.certified and res.dist > k
    assert uncertified_yes > 0
    assert calls[0] < calls[1]


def test_may_reach_admits_a_start_slot_exactly_within_the_bound():
    # on the path 0-1-2-3-4 the call from edge (0, 1) to vertex 3 needs
    # exactly three edges, all inside the layers 1..3 above vertex 0
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sg = transita.detour.SlotGraph(g, all_transitions(g))
    goals = {sg.slot(2, 3), sg.slot(3, 3)}
    start = sg.slot(0, 1)
    may_reach = transita.detour._may_reach
    back = transita.detour._walks_back(sg, goals, {1, 2, 3})
    assert may_reach(sg, start, goals, back, 3)
    assert not may_reach(sg, start, goals, back, 2)
    # vertex 2 outside the layers: no walk is left, only a start goal slot
    back = transita.detour._walks_back(sg, goals, {1, 3})
    assert not may_reach(sg, start, goals, back, 5)
    assert may_reach(sg, sg.slot(2, 3), goals, back, 1)


@st.composite
def detour_queries(draw):
    # n <= 9 with slack 0-3.  The graph and its turns come from a drawn
    # seed: plain draws put most of the weight on tiny, dense graphs with
    # every turn kept, where no route needs a detour.  Most graphs get a
    # spanning path, so that the target is mostly reachable and far enough
    # for the layered search, and each turn is kept with a drawn
    # probability, so that some shortest routes are blocked
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rnd.randint(3, 9)
    density = rnd.choice([0.1, 0.2, 0.35])
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density}
    if rnd.random() < 0.9:
        order = rnd.sample(range(n), n)
        edges |= {tuple(sorted(p)) for p in zip(order, order[1:])}
    g = Graph(n, sorted(edges))
    keep = rnd.choice([0.5, 0.7, 0.85])
    t = TransitionSystem(p for p in sorted(all_transitions(g).pairs) if rnd.random() < keep)
    s = draw(st.integers(0, n - 1))
    tgt = draw(st.sampled_from([v for v in range(n) if v != s]))
    return g, t, s, tgt, draw(st.integers(0, 3))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(detour_queries())
def test_comdetour_agrees_with_the_oracle_on_drawn_graphs(query):
    g, t, s, tgt, k = query
    dist = bfs_dist(g, s)
    ref = None if dist[tgt] == INF else brute_compatible_path(g, t, s, tgt, int(dist[tgt]) + k)
    for witness in (False, True):
        stats = {}
        res = comdetour(g, t, s, tgt, k, witness=witness, stats=stats)
        assert res.certified
        if k <= 2:
            assert stats["oriented_calls"] == 0
        assert (res.yes, res.nu) == (ref is not None, ref)
        if witness and res.yes:
            w = res.witness
            validate_walk(g, w)
            if not (w.is_path() and is_compatible_walk(g, t, w)):
                raise AssertionError(f"witness {w} is not a compatible path")
            assert (w.vertices[0], w.vertices[-1], w.length) == (s, tgt, ref)
