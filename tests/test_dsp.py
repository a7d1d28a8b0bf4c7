import heapq
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transita.core import (
    DiGraph, TransitionSystem, Walk, all_transitions, dijkstra, is_compatible_walk,
)
from transita.dsp import (
    STAT_KEYS,
    DArcGraph,
    PositivityError,
    _BlobRouter,
    _shortest_arcs,
    check_positive_cycles,
    edge_disjoint_2dspp,
    vertex_disjoint_2dspp,
)
from transita.oracle import brute_2dspp, enumerate_shortest_compatible_paths


def random_digraph(rng, n, p=0.3, parallel=0.05, wmax=3):
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                arcs.append((u, v))
                if rng.random() < parallel:
                    arcs.append((u, v))
    w = tuple(rng.randint(1, wmax) for _ in arcs)
    return DiGraph(n, arcs, w)


def random_transitions(rng, g, keep=0.7):
    return TransitionSystem(
        [p for p in sorted(all_transitions(g).pairs) if rng.random() < keep]
    )


def test_shortest_edge_sets_examples():
    # the arcs on some shortest path, as _shortest_arcs computes E1 and E2
    def shortest_edge_set(g, s, t):
        return sorted(_shortest_arcs(g, s, t))

    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)], (1, 1, 1))
    assert shortest_edge_set(g, 0, 3) == [0, 1, 2]
    # diamond with two equal routes keeps both
    d = DiGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], (1, 1, 1, 1))
    assert shortest_edge_set(d, 0, 3) == [0, 1, 2, 3]
    # an arc on a strictly longer route is excluded
    d2 = DiGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], (1, 1, 2, 2))
    assert shortest_edge_set(d2, 0, 3) == [0, 1]


def test_positive_cycle_check():
    g = DiGraph(2, [(0, 1), (1, 0)], (0, 0))
    with pytest.raises(PositivityError):
        check_positive_cycles(g)
    ok = DiGraph(2, [(0, 1), (1, 0)], (0, 1))
    check_positive_cycles(ok)


def test_2dspp_parallel_corridors():
    g = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)], (1, 1, 1, 1))
    t = all_transitions(g)
    res = edge_disjoint_2dspp(g, t, 0, 2, 3, 5)
    assert res.yes and len(res.paths) == 2
    for w in res.paths:
        assert w.length == 2
    res = vertex_disjoint_2dspp(g, t, 0, 2, 3, 5)
    assert res.yes


def test_2dspp_shared_arc_is_infeasible():
    g = DiGraph(4, [(0, 2), (1, 2), (2, 3)], (1, 1, 1))
    t = all_transitions(g)
    assert not edge_disjoint_2dspp(g, t, 0, 3, 1, 3).yes


def test_2dspp_transitions_flip_answer():
    # feasible without transition restrictions, infeasible with them
    g = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)], (1, 1, 1, 1))
    empty = TransitionSystem()
    assert not edge_disjoint_2dspp(g, empty, 0, 2, 3, 5).yes
    assert edge_disjoint_2dspp(g, all_transitions(g), 0, 2, 3, 5).yes


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_2dspp_ignores_a_self_pair(mode):
    # the pair (1, 1) names no transition; it once crashed the split graph
    g = DiGraph(5, [(0, 1), (1, 2), (3, 4)])
    for t in (TransitionSystem([(0, 1), (1, 1)]), TransitionSystem([(1, 1)])):
        solve = edge_disjoint_2dspp if mode == "edge" else vertex_disjoint_2dspp
        res = solve(g, t, 0, 2, 3, 4)
        assert res.yes == brute_2dspp(g, t, [(0, 2), (3, 4)], mode) == (len(t.pairs) == 2)
        if res.yes:
            assert [w.vertices for w in res.paths] == [(0, 1, 2), (3, 4)]


def test_2dspp_shared_midpoint_vertex():
    g = DiGraph(5, [(0, 2), (2, 3), (1, 2), (2, 4)], (1, 1, 1, 1))
    t = all_transitions(g)
    assert not vertex_disjoint_2dspp(g, t, 0, 3, 1, 4).yes
    assert edge_disjoint_2dspp(g, t, 0, 3, 1, 4).yes


def test_2dspp_zero_cycle_rejected():
    g = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 3)], (0, 0, 1, 1))
    with pytest.raises(PositivityError):
        edge_disjoint_2dspp(g, all_transitions(g), 0, 2, 1, 3)


def test_zero_cycle_is_rejected_before_the_shared_terminal_answer():
    # vertex mode with terminal pairs sharing a vertex still checks the
    # input first, so a zero-length cycle is an error, not a "no"
    g = DiGraph(2, [(0, 1), (1, 0)], (0, 0))
    with pytest.raises(PositivityError):
        vertex_disjoint_2dspp(g, TransitionSystem(), 0, 1, 1, 0)
    h = DiGraph(2, [(0, 1), (1, 0)], (1, 1))
    res = vertex_disjoint_2dspp(h, TransitionSystem(), 0, 1, 1, 0)
    assert not res.yes and res.diagnostic == "terminal pairs share a vertex"


def test_2dspp_on_a_long_zero_weight_chain():
    # 3,000 vertices joined by zero-length arcs: the zero-cycle check is a
    # topological sort, not a recursive search, so the length is no limit
    n = 3000
    g = DiGraph(n, [(i, i + 1) for i in range(n - 1)], [0] * (n - 1))
    check_positive_cycles(g)
    res = edge_disjoint_2dspp(g, TransitionSystem([(i, i + 1) for i in range(n - 2)]), 0, 5, 6, 9)
    assert res.yes
    assert [w.vertices for w in res.paths] == [(0, 1, 2, 3, 4, 5), (6, 7, 8, 9)]


def test_2dspp_matches_oracle_both_modes():
    rng = random.Random(99)
    cnt = 0
    while cnt < 150:
        n = rng.randint(4, 8)
        g = random_digraph(rng, n)
        if g.m == 0:
            continue
        t = random_transitions(rng, g)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        e = edge_disjoint_2dspp(g, t, s1, t1, s2, t2)
        v = vertex_disjoint_2dspp(g, t, s1, t1, s2, t2)
        assert e.yes == brute_2dspp(g, t, [(s1, t1), (s2, t2)], "edge")
        assert v.yes == brute_2dspp(g, t, [(s1, t1), (s2, t2)], "vertex")
        cnt += 1


def test_2dspp_witnesses_are_validated_shortest_paths():
    rng = random.Random(101)
    found = 0
    while found < 40:
        n = rng.randint(4, 8)
        g = random_digraph(rng, n)
        if g.m == 0:
            continue
        t = random_transitions(rng, g, keep=0.85)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
            res = fn(g, t, s1, t1, s2, t2)
            if not res.yes:
                continue
            w1, w2 = res.paths
            assert w1.is_path() and w2.is_path()
            assert is_compatible_walk(g, t, w1) and is_compatible_walk(g, t, w2)
            if mode == "edge":
                assert not set(w1.edge_ids) & set(w2.edge_ids)
            else:
                assert not set(w1.vertices) & set(w2.vertices)
            assert sum(g.weight(a) for a in w1.edge_ids) == dijkstra(g, s1)[t1]
            assert sum(g.weight(a) for a in w2.edge_ids) == dijkstra(g, s2)[t2]
            found += 1


def test_oracle_shortest_path_enumeration_respects_compatibility():
    g = DiGraph(3, [(0, 1), (1, 2)], (1, 1))
    assert enumerate_shortest_compatible_paths(g, TransitionSystem(), 0, 2) == []
    paths = enumerate_shortest_compatible_paths(g, TransitionSystem([(0, 1)]), 0, 2)
    assert len(paths) == 1 and paths[0].vertices == (0, 1, 2)


def test_vertex_witness_through_a_contracted_blob():
    # a 2x3 grid digraph; the product path takes a type-(iii) step inside a
    # contracted blob, whose two inner paths must be rebuilt
    g = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    t = all_transitions(g)
    res = vertex_disjoint_2dspp(g, t, 1, 5, 0, 4)
    assert res.yes
    assert [list(w.vertices) for w in res.paths] == [[1, 2, 5], [0, 3, 4]]
    assert brute_2dspp(g, t, [(1, 5), (0, 4)], "vertex")


def test_vertex_witnesses_on_random_grid_digraphs():
    # mostly-rightward/downward grids with every transition permitted often
    # route both paths through one contracted blob; both modes run on each
    rng = random.Random(2)
    for _ in range(2000):
        rows, cols = rng.randint(2, 3), rng.randint(2, 4)
        arcs = []
        for v in range(rows * cols):
            for w in (v + 1 if (v + 1) % cols else None, v + cols):
                if w is not None and w < rows * cols:
                    arcs.append((v, w) if rng.random() < 0.8 else (w, v))
        g = DiGraph(rows * cols, arcs)
        t = all_transitions(g)
        s1, t1, s2, t2 = rng.sample(range(g.n), 4)
        for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
            res = fn(g, t, s1, t1, s2, t2)
            assert res.yes == brute_2dspp(g, t, [(s1, t1), (s2, t2)], mode)
            if res.yes:
                w1, w2 = res.paths
                assert (w1.vertices[0], w1.vertices[-1]) == (s1, t1)
                assert (w2.vertices[0], w2.vertices[-1]) == (s2, t2)


def grid_digraph(rng, rows, cols, back_arcs, keep=0.85):
    """Unit-weight grid digraph with arcs right and down, some reversed arcs
    when back_arcs, and each non-U-turn transition kept with probability
    keep."""
    vid = lambda r, c: r * cols + c
    arcs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                arcs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                arcs.append((vid(r, c), vid(r + 1, c)))
    if back_arcs:
        arcs += [(v, u) for u, v in arcs if rng.random() < 0.3]
    g = DiGraph(rows * cols, arcs, (1,) * len(arcs))
    pairs = [
        (a, b)
        for a, (u, v) in enumerate(arcs)
        for b, (x, y) in enumerate(arcs)
        if v == x and y != u and rng.random() < keep
    ]
    return g, TransitionSystem(pairs)


def check_witnesses(g, t, pairs, paths, mode):
    """Each witness is a compatible shortest path between its terminals, and
    the two are disjoint in the mode; checked without the solver's code."""
    for (s, tgt), w in zip(pairs, paths):
        assert (w.vertices[0], w.vertices[-1]) == (s, tgt)
        assert w.is_path() and is_compatible_walk(g, t, w)
        assert sum(g.weight(a) for a in w.edge_ids) == dijkstra(g, s)[tgt]
    w1, w2 = paths
    if mode == "edge":
        assert not set(w1.edge_ids) & set(w2.edge_ids)
    else:
        assert not set(w1.vertices) & set(w2.vertices)


LENGTHS = (0, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), 0.1, 0.2, 0.3, 0.7)


@st.composite
def dspp_instances(draw):
    """A digraph on 4-7 vertices with zero, fractional and decimal float
    lengths (exact values of the floats, see DiGraph), drawn
    turns and two terminal pairs, which share a vertex in some draws.  The
    digraph comes from a drawn seed: plain draws were mostly digraphs in
    which some target is unreachable."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 7))
    p = draw(st.sampled_from((0.3, 0.45, 0.6)))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    g = DiGraph(n, arcs, [rng.choice(LENGTHS) for _ in arcs])
    t = random_transitions(rng, g, keep=draw(st.sampled_from((0.5, 0.8, 1.0))))
    if draw(st.booleans()):
        ends = rng.sample(range(n), 4)
    else:
        ends = rng.sample(range(n), 2) + rng.sample(range(n), 2)
    return g, t, tuple(ends)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=dspp_instances())
def test_2dspp_agrees_with_the_oracle_on_drawn_digraphs(case):
    g, t, ends = case
    pairs = [ends[:2], ends[2:]]
    try:
        check_positive_cycles(g)
    except PositivityError:
        for fn in (edge_disjoint_2dspp, vertex_disjoint_2dspp):
            with pytest.raises(PositivityError):
                fn(g, t, *ends)
        return
    for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
        res = fn(g, t, *ends)
        assert res.yes == brute_2dspp(g, t, pairs, mode)
        if res.yes:
            check_witnesses(g, t, pairs, res.paths, mode)
        # the arcs on shortest paths keep a shortest path of each pair, and
        # splitting the vertices keeps its length, so the only diagnostics
        # are those given before any graph is built
        assert res.diagnostic in (None, "terminal pairs share a vertex", "a target is unreachable")


def split_graph_reference(sdg, a, b) -> set:
    """The arcs of the DArcGraph sdg on some shortest a-b path, found by a
    label Dijkstra from a and a backward reach from b over tight arcs,
    independently of the solver's own derivation."""
    dist = {a: 0}
    heap = [(0, repr(a), a)]
    done = set()
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for x in sdg.out[v]:
            w = sdg.head(x)
            nd = d + sdg.arcs[x][2]
            if w not in done and nd < dist.get(w, nd + 1):
                dist[w] = nd
                heapq.heappush(heap, (nd, repr(w), w))
    tight = [x for x, (u, v, w) in sdg.arcs.items() if u in dist and dist[u] + w == dist.get(v)]
    reach, stack = {b}, [b]
    while stack:
        v = stack.pop()
        for x in tight:
            if sdg.head(x) == v and sdg.tail(x) not in reach:
                reach.add(sdg.tail(x))
                stack.append(sdg.tail(x))
    return {x for x in tight if sdg.head(x) in reach}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=dspp_instances())
def test_split_edge_sets_match_a_search_on_the_split_graph(case):
    # E1' and E2' are derived from E1 and E2, not searched for again; they
    # must equal a fresh shortest-path search on the split graph, and in
    # both modes the graph handed to ContractedStar has exactly E1 u E2
    from transita import dsp

    g, t, ends = case
    try:
        check_positive_cycles(g)
    except PositivityError:
        return
    seen = []

    class Spy(dsp.ContractedStar):
        def __init__(self, dg, e1, e2):
            seen.append((dg, set(e1), set(e2)))
            super().__init__(dg, e1, e2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "ContractedStar", Spy)
        for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
            seen.clear()
            fn(g, t, *ends)
            for dg, e1, e2 in seen:
                assert set(dg.arcs) == e1 | e2
                if mode == "vertex":
                    assert e1 == split_graph_reference(dg, ("sa", "A1"), ("sa", "B1"))
                    assert e2 == split_graph_reference(dg, ("sa", "A2"), ("sa", "B2"))


def test_float_lengths_are_exact():
    # with float arithmetic the tight-arc test rounded and vertex mode
    # raised InvariantError here; with the floats' exact values it answers
    # as the oracle does
    g = DiGraph(
        7,
        [(0, 3), (1, 0), (1, 5), (1, 6), (2, 0), (2, 5), (3, 0), (3, 1), (3, 5), (4, 0), (4, 1),
         (5, 1), (5, 6), (6, 0), (6, 2), (6, 4)],
        [0.7, 0.2, 0.0, 0.0, 1.0, 0.1, 0.2, 0.3, 0.1, 1.0, 1.0, 0.2, 0.2, 0.7, 0.2, 0.1],
    )
    t = TransitionSystem(
        [(3, 7), (12, 13), (3, 13), (8, 12), (2, 11), (10, 15), (3, 15), (5, 12), (0, 1), (1, 11),
         (12, 14), (3, 11), (3, 14), (5, 11), (5, 14), (0, 6), (9, 15), (1, 7), (2, 12)]
    )
    assert g.weights[5] == Fraction(0.1) and isinstance(g.weights[0], Fraction)
    for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
        assert fn(g, t, 3, 4, 0, 1).yes == brute_2dspp(g, t, [(3, 4), (0, 1)], mode)
    assert not vertex_disjoint_2dspp(g, t, 3, 4, 0, 1).yes


def test_2dspp_rejects_terminals_out_of_range():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    t = all_transitions(g)
    for fn in (edge_disjoint_2dspp, vertex_disjoint_2dspp):
        for ends in ((0, 3, 1, 9), (-1, 3, 1, 2), (0, 4, 1, 2)):
            with pytest.raises(ValueError, match="out of range"):
                fn(g, t, *ends)


def test_2dspp_matches_oracle_on_grids_of_benchmark_size():
    # the grid sizes and transition density of the benchmark's CLI queries,
    # with its two terminal layouts (the pairs must cross, so vertex mode
    # says no), a layout with the pairs side by side, and random terminals
    rng = random.Random(5)
    yes = 0
    for i in range(150):
        rows, cols = rng.randint(3, 5), rng.randint(3, 5)
        g, t = grid_digraph(rng, rows, cols, back_arcs=i % 2 == 1)
        vid = lambda r, c: r * cols + c
        layouts = (
            (vid(0, 0), vid(rows - 1, cols - 2), vid(1, 0), vid(rows - 1, cols - 1)),
            (vid(0, 1), vid(rows - 1, cols - 2), vid(1, 0), vid(rows - 2, cols - 1)),
            (vid(0, 1), vid(rows - 2, cols - 1), vid(1, 0), vid(rows - 1, cols - 2)),
        )
        ends = layouts[i % 4] if i % 4 < 3 else tuple(rng.sample(range(g.n), 4))
        pairs = [ends[:2], ends[2:]]
        for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
            res = fn(g, t, *ends)
            assert res.yes == brute_2dspp(g, t, pairs, mode, size_guard=False)
            if res.yes:
                check_witnesses(g, t, pairs, res.paths, mode)
                yes += 1
    assert yes >= 60


def test_2dspp_counters_on_a_12_by_12_grid(monkeypatch):
    # every transition permitted; pair 1 runs from (0,1) to row 11, pair 2
    # from (1,0) to column 11, and their shortest paths overlap in one blob.
    # Ending at (11,10) and (10,11) the pairs must cross: at a vertex
    # without a shared arc (edge mode yes), never vertex-disjointly.
    # Ending at (10,11) and (11,10) they run side by side.
    from transita import dsp

    seen = []

    class Spy(dsp._BlobRouter):
        def __init__(self, sdg, members, vertex_mode, stats):
            super().__init__(sdg, members, vertex_mode, stats)
            self.entries, self.entry_pairs, self.asked = set(), set(), 0
            seen.append((frozenset(members), self))

        def single(self, a_in):
            self.entries.add(a_in)
            self.asked += 1
            return super().single(a_in)

        def pair(self, e1, e2):
            self.entry_pairs.add((e1, e2))
            self.asked += 1
            return super().pair(e1, e2)

    monkeypatch.setattr(dsp, "_BlobRouter", Spy)
    g, t = grid_digraph(random.Random(0), 12, 12, back_arcs=False, keep=1.0)
    vid = lambda r, c: 12 * r + c
    cases = (
        ((vid(0, 1), vid(11, 10), vid(1, 0), vid(10, 11)), {"edge": True, "vertex": False}),
        ((vid(0, 1), vid(10, 11), vid(1, 0), vid(11, 10)), {"edge": True, "vertex": True}),
    )
    for ends, expect in cases:
        for fn, mode in ((edge_disjoint_2dspp, "edge"), (vertex_disjoint_2dspp, "vertex")):
            seen.clear()
            stats = {}
            res = fn(g, t, *ends, stats=stats)
            assert res.yes == expect[mode]
            if res.yes:
                check_witnesses(g, t, [ends[:2], ends[2:]], res.paths, mode)
            assert stats["blobs"] == len({members for members, _ in seen}) == 1
            assert stats["entry_sweeps"] <= sum(len(r.entries) for _, r in seen)
            assert stats["pair_sweeps"] <= sum(len(r.entry_pairs) for _, r in seen)
            assert 0 < stats["entry_sweeps"] + stats["pair_sweeps"] < sum(r.asked for _, r in seen)
            assert stats["product_nodes"] > 0


def test_router_matches_per_route_search_on_the_reanchored_subgraph():
    # the router answers every route of a blob from one graph that carries
    # all boundary arcs; each answer must equal the oracle's on the blob with
    # only that route's boundary arcs, each on a fresh outside end.  The
    # copy has zero weights, so in it every route is a shortest one.
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        n = rng.randint(5, 9)
        arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = DiGraph(n, arcs)
        t = random_transitions(rng, g, 0.75)
        members = set(rng.sample(range(n), rng.randint(2, n - 2)))
        inner = [a for a, (u, v) in enumerate(arcs) if u in members and v in members]
        entries = [a for a, (u, v) in enumerate(arcs) if u not in members and v in members]
        exits = [a for a, (u, v) in enumerate(arcs) if u in members and v not in members]

        def reanchored(routes):
            """The blob plus each route's entry and exit arc on fresh ends,
            all of weight 0; returns the graph, its transitions and the
            route ends."""
            ids = {v: i for i, v in enumerate(sorted(members))}
            sub, ends = [], []
            for a in inner:
                sub.append((a, (ids[arcs[a][0]], ids[arcs[a][1]])))
            for a_in, a_out in routes:
                s, tgt = len(ids) + len(ends), len(ids) + len(ends) + 1
                sub.append((a_in, (s, ids[arcs[a_in][1]])))
                sub.append((a_out, (ids[arcs[a_out][0]], tgt)))
                ends += [s, tgt]
            pos = {a: i for i, (a, _) in enumerate(sub)}
            h = DiGraph(len(ids) + len(ends), [e for _, e in sub], (0,) * len(sub))
            th = TransitionSystem(
                [(pos[a], pos[b]) for a, b in t.pairs if a in pos and b in pos]
            )
            return h, th, ends

        for mode in ("edge", "vertex"):
            stats = dict.fromkeys(STAT_KEYS, 0)
            dg = DArcGraph({a: (u, v, g.weight(a)) for a, (u, v) in enumerate(arcs)}, t.pairs)
            router = _BlobRouter(dg, members, mode == "vertex", stats)
            for a_in in entries:
                for a_out in exits:
                    h, th, ends = reanchored([(a_in, a_out)])
                    ok = a_out in router.single(a_in)
                    assert ok == bool(enumerate_shortest_compatible_paths(h, th, *ends))
                    if ok:
                        route = [a_in] + router.interior(a_in, a_out) + [a_out]
                        w = Walk((arcs[a_in][0],) + tuple(arcs[a][1] for a in route), tuple(route))
                        assert w.is_path() and is_compatible_walk(g, t, w)
                        checked += 1
            for e1a in entries:
                for e2n in entries:
                    for e1n in exits:
                        for e2a in exits:
                            if e1a == e2n or e1n == e2a:
                                continue
                            h, th, ends = reanchored([(e1a, e1n), (e2n, e2a)])
                            ok = (e1n, e2a) in router.pair(e1a, e2n)
                            assert ok == brute_2dspp(h, th, [ends[:2], ends[2:]], mode)
                            checked += ok
    assert checked > 100
