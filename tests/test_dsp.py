import random

import pytest

from transita.core import DiGraph, TransitionSystem, Walk, all_transitions, is_compatible_walk
from transita.dsp import (
    AcyclicityError,
    PositivityError,
    check_positive_cycles,
    dag_compatible_path,
    dag_two_disjoint,
    edge_disjoint_2dspp,
    shortest_edge_sets,
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
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)], (1, 1, 1))
    arcs, _ = shortest_edge_sets(g, 0, 3)
    assert sorted(arcs) == [0, 1, 2]
    # diamond with two equal routes keeps both
    d = DiGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], (1, 1, 1, 1))
    arcs, _ = shortest_edge_sets(d, 0, 3)
    assert sorted(arcs) == [0, 1, 2, 3]
    # an arc on a strictly longer route is excluded
    d2 = DiGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], (1, 1, 2, 2))
    arcs, _ = shortest_edge_sets(d2, 0, 3)
    assert sorted(arcs) == [0, 1]


def test_positive_cycle_check():
    g = DiGraph(2, [(0, 1), (1, 0)], (0, 0))
    with pytest.raises(PositivityError):
        check_positive_cycles(g)
    ok = DiGraph(2, [(0, 1), (1, 0)], (0, 1))
    check_positive_cycles(ok)


def test_dag_compatible_path_examples():
    g = DiGraph(2, [(0, 1)])
    assert dag_compatible_path(g, TransitionSystem(), 0, 1)
    g2 = DiGraph(3, [(0, 1), (1, 2)])
    assert not dag_compatible_path(g2, TransitionSystem(), 0, 2)
    assert dag_compatible_path(g2, TransitionSystem([(0, 1)]), 0, 2)
    cyc = DiGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(AcyclicityError):
        dag_compatible_path(cyc, TransitionSystem(), 0, 1)


def test_dag_compatible_path_matches_enumeration():
    rng = random.Random(40)
    for _ in range(150):
        n = rng.randint(3, 9)
        arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = DiGraph(n, arcs)
        t = random_transitions(rng, g, 0.6)
        s, tgt = rng.randrange(n), rng.randrange(n)
        ok, wit = dag_compatible_path(g, t, s, tgt, witness=True)
        # reference: DFS over all compatible arc walks
        def dfs(v, last):
            if v == tgt:
                return True
            return any(
                dfs(g.head(a), a)
                for hv, a in g.out(v)
                if last is None or t.permits(last, a)
            )
        assert ok == dfs(s, None)
        if ok and s != tgt:
            assert wit.is_path() and is_compatible_walk(g, t, wit)


def test_dag_two_disjoint_examples():
    # two arc-disjoint parallel tracks
    g = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    t = all_transitions(g)
    assert dag_two_disjoint(g, t, 0, 2, 3, 5, "edge")
    assert dag_two_disjoint(g, t, 0, 2, 3, 5, "vertex")
    # one mandatory shared bridge arc
    bridge = DiGraph(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    tb = all_transitions(bridge)
    assert not dag_two_disjoint(bridge, tb, 0, 4, 1, 5, "edge")
    # transition-blocked variant of a feasible instance
    g2 = DiGraph(4, [(0, 1), (1, 2), (1, 3)])
    t_ok = TransitionSystem([(0, 1), (0, 2)])
    assert dag_compatible_path(g2, t_ok, 0, 2)
    assert not dag_compatible_path(g2, TransitionSystem([(0, 2)]), 0, 2)


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
            from transita.core import dijkstra

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
    assert vertex_disjoint_2dspp(g, t, 1, 5, 0, 4, witness=False).yes
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
