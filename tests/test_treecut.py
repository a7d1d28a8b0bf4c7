import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from transita.core import Graph, TransitionSystem, Walk, all_transitions
from transita.genred import gen_random_ftg
from transita.io import DecompositionFile
from transita import treecut
from transita.oracle import brute_compatible_path, brute_disjoint_paths
from transita.treecut import (
    LGraph,
    TreecutDecomposition,
    WorkState,
    _apply_record,
    build_corresponding_state,
    comvdp,
    correspondence_record,
    enumerate_records,
    evaluate_width,
    exhaustive_treecut_decomposition,
    NicenessError,
    make_nice,
    node_frame,
    reduce_thin_child,
    scomvdp_state,
    single_bag_treecut,
    suppress_vertex,
    terminate,
    unmatched_terminals,
)


def _subtree_vertices(tc, t):
    """Y_t by its definition: the vertices in the bags of t's subtree."""
    out, stack = set(), [t]
    while stack:
        s = stack.pop()
        out |= tc.bags[s]
        stack.extend(tc.children[s])
    return out


def _as_file(tc):
    """The tree and bags of tc as a DecompositionFile, nodes in id order."""
    ids = sorted(tc.bags)
    return DecompositionFile(
        tc.root,
        tuple((tc.parent[t], t) for t in ids if t != tc.root),
        tuple(tuple(sorted(tc.bags[t])) for t in ids),
    )


def _to_core(lg):
    """lg relabeled to a core Graph; returns (graph, transitions, labels)."""
    labels = sorted(lg.adj, key=repr)
    index = {lbl: i for i, lbl in enumerate(labels)}
    edges = sorted(
        tuple(sorted((index[u], index[v])))
        for u in lg.adj
        for v in lg.adj[u]
        if index[u] < index[v]
    )
    g = Graph(len(labels), edges)
    pairs = []
    for v, ps in lg.trans.items():
        for p in ps:
            u, w = tuple(p)
            e = g.edge_id(index[u], index[v])
            f = g.edge_id(index[w], index[v])
            pairs.append((e, f))
    return g, TransitionSystem(pairs), labels


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_width_k4_single_bag():
    w, nice = evaluate_width(k4(), single_bag_treecut(k4()))
    assert w == 4 and nice


def test_width_scomvdp_star_is_core_size():
    # K4 core in the root bag, each degree<=2 extra vertex its own leaf
    g = Graph(
        6,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (5, 2)],
    )
    dec = DecompositionFile(
        0, ((0, 1), (0, 2)), ((0, 1, 2, 3), (4,), (5,))
    )
    w, _ = evaluate_width(g, dec)
    assert w == 4  # the width of the star decomposition is the core size


def test_width_p4_star_and_search():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dec = DecompositionFile(
        0, ((0, 1), (0, 2), (0, 3), (0, 4)), ((), (0,), (1,), (2,), (3,))
    )
    assert evaluate_width(p4, dec)[0] == 2
    best = exhaustive_treecut_decomposition(p4, 5)
    assert evaluate_width(p4, best)[0] <= 2


def test_width_cross_checked_by_enumeration_on_small_graphs():
    # independent check of the width evaluator on a tiny search space
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        best = exhaustive_treecut_decomposition(g, 10)
        w_menu, _ = evaluate_width(g, best)
        # the single-bag value upper-bounds the menu optimum
        w_single, _ = evaluate_width(g, single_bag_treecut(g))
        assert w_menu <= w_single


def test_exhaustive_decomposition_examples():
    assert exhaustive_treecut_decomposition(Graph(3, []), 1) is not None
    d = exhaustive_treecut_decomposition(Graph(3, []), 5)
    assert evaluate_width(Graph(3, []), d)[0] == 1
    d = exhaustive_treecut_decomposition(k4(), 5)
    assert evaluate_width(k4(), d)[0] == 4
    assert exhaustive_treecut_decomposition(k4(), 3) is None
    with pytest.raises(ValueError):
        exhaustive_treecut_decomposition(Graph(11, []), 2)


def test_make_nice_properties():
    rng = random.Random(6)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        n_nodes = rng.randint(1, n)
        parents = [None] + [rng.randrange(i) for i in range(1, n_nodes)]
        bags = [[] for _ in range(n_nodes)]
        for v in range(g.n):
            bags[rng.randrange(n_nodes)].append(v)
        dec = DecompositionFile(
            0,
            tuple((parents[i], i) for i in range(1, n_nodes)),
            tuple(tuple(b) for b in bags),
        )
        before, was_nice = evaluate_width(g, dec)
        nice = _as_file(make_nice(g, dec)[0])
        after, is_nice = evaluate_width(g, nice)
        assert is_nice and after <= before
        assert nice.num_nodes == dec.num_nodes
        if not was_nice:
            checked += 1
    assert checked > 0  # the corpus exercised actual reattachments


def test_niceness_errors_are_invariant_errors():
    from transita.core import InvariantError

    assert issubclass(NicenessError, InvariantError)
    assert issubclass(InvariantError, RuntimeError)


def test_make_nice_checks_survive_optimized_mode(monkeypatch):
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dec = DecompositionFile(0, ((0, 1), (0, 2)), ((1, 2), (0,), (3,)))
    monkeypatch.setattr(TreecutDecomposition, "is_nice", lambda self: False)
    with pytest.raises(NicenessError, match="violating thin node"):
        make_nice(g, dec)
    monkeypatch.undo()
    widths = iter([0, 1])  # the input reads narrower than the output
    monkeypatch.setattr(TreecutDecomposition, "width", lambda self: next(widths))
    with pytest.raises(NicenessError, match="raised the width"):
        make_nice(g, dec)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


def _two_level_candidates(g):
    """The search space, in the search's order, as DecompositionFiles."""
    yield DecompositionFile(0, (), (tuple(range(g.n)),))
    for mask in range(1 << g.n):
        s = tuple(v for v in range(g.n) if mask >> v & 1)
        rest = [v for v in range(g.n) if not mask >> v & 1]
        if not rest:
            continue
        comps = []
        for v in rest:
            if any(v in c for c in comps):
                continue
            comp, stack = {v}, [v]
            while stack:
                for w, _ in g.adj(stack.pop()):
                    if w in rest and w not in comp:
                        comp.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        leaf_sets = [[(v,) for v in rest]]
        if len(comps) != len(rest):
            leaf_sets.append(comps)
        for leaves in leaf_sets:
            edges = tuple((0, i + 1) for i in range(len(leaves)))
            yield DecompositionFile(0, edges, (s, *leaves))


def _unpruned_best(g):
    """First minimum-width candidate of the search space, every one
    evaluated, and its width."""
    best, best_width = None, None
    for dec in _two_level_candidates(g):
        w, _ = evaluate_width(g, dec)
        if best_width is None or w < best_width:
            best, best_width = dec, w
    return best, best_width


def _unpruned_search(g, k_max):
    best, best_width = _unpruned_best(g)
    return best if best_width <= k_max else None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=small_graphs(max_n=9), k_max=st.integers(0, 6))
def test_pruned_search_returns_the_unpruned_result(g, k_max):
    assert exhaustive_treecut_decomposition(g, k_max) == _unpruned_search(g, k_max)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=small_graphs(max_n=7))
def test_two_level_width_matches_evaluate_width(g):
    # the search scores candidates on bitmasks; every candidate of the
    # search space must score what the general evaluator gives
    nbr = [sum(1 << w for w, _ in g.adj(v)) for v in range(g.n)]
    for dec in _two_level_candidates(g):
        s, *leaves = (sum(1 << v for v in bag) for bag in dec.bags)
        assert treecut._two_level_width(nbr, s, leaves) == evaluate_width(g, dec)[0]


def test_search_returns_the_unpruned_result_on_sparse_graphs():
    # graphs shaped like the vdp-search benchmark's: n = 6-10 and at most
    # four vertices of degree three or more
    rng = random.Random(40)
    widths = set()
    for n in range(6, 11):
        found = 0
        while found < 2:
            g, _ = gen_random_ftg(n, 2.6 / (n - 1), 0.75, rng.getrandbits(32))
            if sum(g.degree(v) >= 3 for v in range(n)) > 4:
                continue
            found += 1
            best, width = _unpruned_best(g)
            widths.add(width)
            for k_max in range(2, 6):
                expected = best if width <= k_max else None
                assert exhaustive_treecut_decomposition(g, k_max) == expected
    assert len(widths) >= 2


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def _wheel(rim):
    return Graph(rim + 1, [(0, i) for i in range(1, rim + 1)]
                 + [(i, i % rim + 1) for i in range(1, rim + 1)])


def test_search_scores_a_pinned_number_of_candidates(monkeypatch):
    # a load-free witness of the search's work: the candidates it scores,
    # counted around _two_level_width, equal over two runs
    calls = [0]
    real = treecut._two_level_width

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(treecut, "_two_level_width", counted)
    cases = [(_petersen(), 8), (_wheel(7), 5), (_triangle_chain(3)[0], 4)]

    def scored():
        out = []
        for g, k_max in cases:
            calls[0] = 0
            assert exhaustive_treecut_decomposition(g, k_max) is not None
            out.append(calls[0])
        return out

    first = scored()
    assert first == [727, 80, 32]
    assert scored() == first


def _torso_by_definition(g, tc, t):
    """|V(3-center)| of the torso at t, suppressing one vertex at a time."""
    parts = [_subtree_vertices(tc, c) for c in tc.children[t]]
    if t != tc.root:
        parts.append(set(range(g.n)) - _subtree_vertices(tc, t))
    cls = {v: v for v in tc.bags[t]}
    for i, part in enumerate(parts):
        cls.update((v, ("part", i)) for v in part)
    edges = [(cls[u], cls[v]) for u, v in g.edges if cls[u] != cls[v]]
    outside = sorted({x for e in edges for x in e} - set(tc.bags[t]), key=repr)
    while True:
        low = [x for x in outside if sum((a == x) + (b == x) for a, b in edges) <= 2]
        if not low:
            return len(tc.bags[t]) + len(outside)
        x = low[0]
        ends = [b if a == x else a for a, b in edges if (a == x) != (b == x)]
        edges = [e for e in edges if x not in e]
        if len(ends) == 2:
            edges.append(tuple(ends))
        outside.remove(x)


@st.composite
def decompositions(draw):
    g = draw(small_graphs())
    nodes = draw(st.integers(1, g.n + 2))
    tree = tuple((draw(st.integers(0, i - 1)), i) for i in range(1, nodes))
    bags = [[] for _ in range(nodes)]
    for v in range(g.n):
        bags[draw(st.integers(0, nodes - 1))].append(v)
    return g, DecompositionFile(0, tree, tuple(map(tuple, bags)))


def _violation_by_definition(g, tc):
    """The first thin node with a neighbour of Y_t in a sibling's subtree."""
    for t in tc.nodes():
        if not tc.is_thin(t):
            continue
        y = _subtree_vertices(tc, t)
        nbrs = {w for v in y for w, _ in g.adj(v)} - y
        for b in tc.children[tc.parent[t]]:
            if b != t and nbrs & _subtree_vertices(tc, b):
                return t, b
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=decompositions())
def test_torso_size_matches_the_definition(case):
    # sides, cuts, torsos and violations are derived from postorder
    # intervals and the children's cut edges; each must equal the
    # whole-graph scan that defines it
    g, dec = case
    tc = TreecutDecomposition(g, dec)
    for t in tc.nodes():
        y = _subtree_vertices(tc, t)
        assert tc.y_part(t, range(g.n)) == y
        cut = tuple(e for e, (u, v) in enumerate(g.edges) if (u in y) != (v in y))
        assert tc.cut_edges(t) == cut
        assert tc.torso_size(t) == _torso_by_definition(g, tc, t)
    assert tc._violation() == _violation_by_definition(g, tc)
    # make_nice moves nodes in place; the same tree built from scratch is
    # the reference for the cuts and numbering it updates
    nice, _ = make_nice(g, dec)
    fresh = TreecutDecomposition(g, _as_file(nice))
    assert nice.children == fresh.children and nice.postorder == fresh.postorder
    for t in fresh.nodes():
        assert nice.cut_edges(t) == fresh.cut_edges(t)
        assert nice.torso_size(t) == fresh.torso_size(t)
        assert nice.y_part(t, range(g.n)) == _subtree_vertices(fresh, t)


def test_suppress_vertex_cases():
    # degree-1 vertex is deleted
    g = Graph(3, [(0, 1), (1, 2)])
    lg = LGraph.from_core(g, TransitionSystem())
    assert suppress_vertex(lg, 2)
    assert 2 not in lg.adj
    # through-transition is rewired onto the bypass edge
    lg = LGraph.from_core(g, TransitionSystem([(0, 1)]))
    assert suppress_vertex(lg, 1)
    assert 2 in lg.adj[0]
    # existing bypass edge blocks the rewrite
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    lg = LGraph.from_core(tri, all_transitions(tri))
    assert not suppress_vertex(lg, 1)
    assert 1 in lg.adj


def test_suppression_preserves_path_existence():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(4, 7)
        g, t = gen_random_ftg(n, 0.5, 0.6, rng.randrange(10**6))
        cands = [v for v in range(n) if g.degree(v) <= 2]
        if not cands:
            continue
        v = rng.choice(cands)
        lg = LGraph.from_core(g, t)
        if not suppress_vertex(lg, v):
            continue
        g2, t2, labels = _to_core(lg)
        idx = {lbl: i for i, lbl in enumerate(labels)}
        for a in range(n):
            for b in range(a + 1, n):
                if v in (a, b):
                    continue
                before = brute_compatible_path(g, t, a, b, n)
                after = brute_compatible_path(g2, t2, idx[a], idx[b], n)
                assert (before is None) == (after is None)


def _terminate_edges(g, t, inner, groups):
    """terminate over edge ids, each cut edge given as (inside, outside)."""
    ends = [[g.edges[e] if g.edges[e][0] in inner else g.edges[e][::-1] for e in grp]
            for grp in groups]
    return terminate(LGraph.from_core(g, t), set(inner), ends)


def test_terminate_examples():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    t = all_transitions(g)
    lg, labels = _terminate_edges(g, t, [0, 1, 2], [[3]])
    assert lg.degree(labels[0]) == 1
    # pair group: a degree-2 gateway with both transitions permitted
    g5 = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 4)])
    lg, labels = _terminate_edges(g5, all_transitions(g5), [0, 1, 2], [[2, 3]])
    c = labels[0]
    assert set(lg.adj[c]) == {0, 2} and lg.permits(0, c, 2)
    # result is simple, gateways have degree <= 2
    assert all(lg.degree(l) <= 2 for l in labels)


def test_terminate_rejects_bad_families():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    t = all_transitions(g)
    from transita.treecut import TerminationError

    with pytest.raises(TerminationError):
        _terminate_edges(g, t, [0], [[0, 1]])  # same inside endpoint twice
    with pytest.raises(TerminationError):
        _terminate_edges(g, t, [0, 1], [[0]])  # edge does not cross
    # every check, by its message; a rejected family leaves the input as it was
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (2, 3), (3, 4)])
    lg = LGraph.from_core(g, all_transitions(g))
    before = _lgraph_contents(lg)
    cases = [
        ([[]], "size must be 1 or 2"),
        ([[(0, 3), (0, 4), (2, 3)]], "size must be 1 or 2"),
        ([[(3, 0)]], "does not cross"),  # the first end is outside
        ([[(0, 1)]], "does not cross"),  # the second end is inside
        ([[(1, 3)]], "not present"),
        ([[(0, 3), (0, 4)]], "pair endpoints inside must differ"),
        ([[(0, 3)], [(2, 3), (0, 3)]], "groups are not disjoint"),
    ]
    for groups, message in cases:
        with pytest.raises(TerminationError, match=message):
            terminate(lg, {0, 1, 2}, groups)
    assert _lgraph_contents(lg) == before


@st.composite
def kept_subgraphs(draw):
    g = draw(small_graphs())
    turns = sorted(all_transitions(g).pairs)
    pairs = draw(st.lists(st.sampled_from(turns), unique=True)) if turns else []
    inside = draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    return LGraph.from_core(g, TransitionSystem(pairs)), inside


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=kept_subgraphs())
def test_terminate_without_groups_keeps_the_induced_subgraph(case):
    lg, inside = case
    before = _lgraph_contents(lg)
    out, labels = terminate(lg, inside, [])
    assert labels == [] and set(out.adj) == set(out.trans) == inside
    for v in inside:
        assert out.adj[v] == {w for w in lg.adj[v] if w in inside}
        assert out.adj[v] is not lg.adj[v]
        assert all(v in out.adj[w] for w in out.adj[v])  # symmetric
        assert out.trans[v] == {p for p in lg.trans[v] if p <= inside}
    assert _lgraph_contents(lg) == before


def test_terminate_path_crossing_observation():
    # a compatible path whose crossing pairs form the terminated groups
    # survives into the terminated graph (cases 1 and 3 of the observation)
    rng = random.Random(20)
    checked = 0
    for _ in range(200):
        n = rng.randint(5, 7)
        g, t = gen_random_ftg(n, 0.5, 0.8, rng.randrange(10**6))
        inner = set(rng.sample(range(n), rng.randint(2, n - 2)))
        ln, walk = brute_compatible_path(
            g, t, min(inner), max(inner), n, return_witness=True
        )
        if walk is None or walk.vertices[-1] not in inner:
            continue
        crossing = [
            e for e in walk.edge_ids
            if (g.edges[e][0] in inner) != (g.edges[e][1] in inner)
        ]
        if len(crossing) % 2 or not crossing:
            continue
        groups = [[crossing[i], crossing[i + 1]] for i in range(0, len(crossing), 2)]
        for grp in groups:
            ins = [v for e in grp for v in g.edges[e] if v in inner]
            if grp[0] == grp[1] or len(set(ins)) != 2:
                groups = None
                break
        if groups is None:
            continue
        try:
            lg, labels = _terminate_edges(g, t, inner, groups)
        except Exception:
            continue
        g2, t2, lab = _to_core(lg)
        idx = {l: i for i, l in enumerate(lab)}
        res = brute_compatible_path(
            g2, t2, idx[walk.vertices[0]], idx[walk.vertices[-1]], n + len(groups)
        )
        assert res is not None  # case 1 of the observation
        checked += 1
    assert checked >= 3


def test_enumerate_records_examples():
    # one cut edge, no unmatched terminals: only the unused labeling
    g = Graph(2, [(0, 1)])
    dec = TreecutDecomposition(g, DecompositionFile(0, ((0, 1),), ((1,), (0,))))
    recs = enumerate_records(g, dec, 1, [], width=4)
    assert len(recs) == 1 and recs[0].label(0) == "U"
    # two vertex-disjoint cut edges: II, FF, UU
    g2 = Graph(4, [(0, 1), (2, 3)])
    dec2 = TreecutDecomposition(g2, DecompositionFile(0, ((0, 1),), ((1, 3), (0, 2))))
    recs2 = enumerate_records(g2, dec2, 1, [], width=4)
    assert sorted(tuple(l for _, l in r.sigma) for r in recs2) == [
        ("F", "F"),
        ("I", "I"),
        ("U", "U"),
    ]


def test_record_count_bound():
    import math

    rng = random.Random(30)
    for _ in range(40):
        n = rng.randint(4, 8)
        g, t = gen_random_ftg(n, 0.4, 0.7, rng.randrange(10**6))
        dec_file = exhaustive_treecut_decomposition(g, 4)
        if dec_file is None:
            continue
        dec = TreecutDecomposition(g, dec_file)
        k = dec.width()
        pairs = []
        for tn in dec.nodes():
            recs = enumerate_records(g, dec, tn, pairs, width=k)
            assert len(recs) <= 4**k * math.factorial(k) ** 3


def test_corresponding_instance_shapes():
    g = Graph(4, [(0, 1), (2, 3)])
    dec = TreecutDecomposition(g, DecompositionFile(0, ((0, 1),), ((1, 3), (0, 2))))
    recs = enumerate_records(g, dec, 1, [], width=4)
    by = {tuple(l for _, l in r.sigma): r for r in recs}
    frame = node_frame(LGraph.from_core(g, TransitionSystem()), g, dec, 1)
    # all-unused: no gateway vertices are added
    z_1 = set(range(g.n)) - dec.y_part(1, range(g.n))
    ws = build_corresponding_state(frame, [], z_1, by[("U", "U")])
    assert set(ws.lg.adj) == {0, 2}
    # the pair of foreign edges adds a terminal pair of gateways
    ws = build_corresponding_state(frame, [], z_1, by[("F", "F")])
    gateways = [v for v in ws.lg.adj if v not in (0, 2)]
    assert len(gateways) == 2
    assert len(ws.pairs) == 1
    flat = [v for p in ws.pairs for v in p]
    assert len(flat) == len(set(flat))  # added pairs are disjoint


def _lgraph_contents(lg):
    return {v: set(nb) for v, nb in lg.adj.items()}, {v: set(ps) for v, ps in lg.trans.items()}


def _frame_contents(frame):
    return (*_lgraph_contents(frame.lg), dict(frame.realized))


@pytest.mark.parametrize("pairs", [[], [(3, 7)], [(3, 8), (6, 9)]])
def test_node_frames_are_read_only(monkeypatch, pairs):
    # every record of a node starts from the node's one frame, so solving
    # them must leave it as it was; node 1 has a bold child 2 and a thin
    # child 3, and its cut of two edges gives it U records
    g = Graph(10, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5),
                   (2, 6), (6, 7), (0, 7), (0, 8), (1, 9), (8, 9)])
    dec = DecompositionFile(
        0, ((0, 1), (1, 2), (1, 3)), ((8, 9), (0, 1, 2), (3, 4, 5), (6, 7))
    )
    frames = []

    def recording_frame(*args):
        frame = node_frame(*args)
        frames.append((frame, _frame_contents(frame)))
        return frame

    monkeypatch.setattr(treecut, "node_frame", recording_frame)
    t = all_transitions(g)
    yes, info = comvdp(g, t, pairs, dec)
    assert yes == brute_disjoint_paths(g, t, pairs, "vertex")
    tc = info["decomposition"]
    assert tc.thin_children(1) == [3] and tc.bold_children(1) == [2]
    assert len(info["tables"][1]) >= 2 and len(frames) == 4
    for frame, before in frames:
        assert _frame_contents(frame) == before


def test_scomvdp_examples_and_equivalence():
    g = Graph(3, [(0, 1)])
    t = all_transitions(g)
    assert scomvdp_state(LGraph.from_core(g, t), set(), {0})
    assert not scomvdp_state(LGraph.from_core(g, t), {frozenset((0, 2))}, {0})
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(3, 8)
        g, t = gen_random_ftg(n, 0.45, 0.7, rng.randrange(10**6))
        perm = list(range(n))
        rng.shuffle(perm)
        a_side, b_side = set(), set()
        for v in perm:
            if g.degree(v) > 2 or (len(b_side) > 4 and rng.random() < 0.5):
                a_side.add(v)
            else:
                b_side.add(v)
        avail = list(range(n))
        rng.shuffle(avail)
        pairs = []
        while len(avail) >= 2 and len(pairs) < 3 and rng.random() < 0.8:
            pairs.append((avail.pop(), avail.pop()))
        got = scomvdp_state(LGraph.from_core(g, t), set(map(frozenset, pairs)), a_side)
        assert got == brute_disjoint_paths(g, t, pairs, "vertex")


def test_scomvdp_precondition():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    with pytest.raises(ValueError):
        # degree-3 vertex 0 outside the core
        scomvdp_state(LGraph.from_core(g, all_transitions(g)), set(), {1})


def _solvable_instance(rng):
    while True:
        n = rng.randint(4, 9)
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
        )
        dec = exhaustive_treecut_decomposition(g, 3)
        if dec is None:
            continue
        t = TransitionSystem(
            [q for q in sorted(all_transitions(g).pairs) if rng.random() < 0.75]
        )
        avail = list(range(n))
        rng.shuffle(avail)
        pairs = []
        while len(avail) >= 2 and len(pairs) < 2 and rng.random() < 0.9:
            pairs.append((avail.pop(), avail.pop()))
        return g, t, pairs, dec


def test_comvdp_trivial_cases():
    g = Graph(2, [(0, 1)])
    dec = single_bag_treecut(g)
    assert comvdp(g, TransitionSystem(), [(0, 1)], dec)[0]
    assert comvdp(g, TransitionSystem(), [], dec)[0]


def test_comvdp_rejects_terminals_out_of_range():
    g = Graph(3, [(0, 1), (1, 2)])
    dec = single_bag_treecut(g)
    for pairs in ([(0, 99)], [(-1, 0)], [(0, 1), (2, 3)]):
        with pytest.raises(ValueError, match="out of range"):
            comvdp(g, TransitionSystem(), pairs, dec)


def test_comvdp_root_only_equals_scomvdp_semantics():
    rng = random.Random(17)
    for _ in range(40):
        g, t = gen_random_ftg(rng.randint(3, 7), 0.4, 0.7, rng.randrange(10**6))
        pairs = []
        avail = list(range(g.n))
        rng.shuffle(avail)
        if len(avail) >= 2:
            pairs.append((avail.pop(), avail.pop()))
        got = comvdp(g, t, pairs, single_bag_treecut(g))[0]
        assert got == brute_disjoint_paths(g, t, pairs, "vertex")


def test_comvdp_matches_oracle():
    rng = random.Random(90)
    for _ in range(60):
        g, t, pairs, dec = _solvable_instance(rng)
        mine, info = comvdp(g, t, pairs, dec)
        assert mine == brute_disjoint_paths(g, t, pairs, "vertex")


def test_records_duality_and_simplification_safety():
    # every solution corresponds to exactly one record per node; that record
    # is valid, and simplifying by it leaves a yes-instance
    rng = random.Random(1234)
    exercised = 0
    guard = 0
    while exercised < 25 and guard < 400:
        guard += 1
        g, t, pairs, dec_file = _solvable_instance(rng)
        ok, walks = brute_disjoint_paths(g, t, pairs, "vertex", return_witness=True)
        if not ok or not pairs:
            continue
        yes, info = comvdp(g, t, pairs, dec_file)
        assert yes
        tc = info["decomposition"]
        tables = info["tables"]
        for tn in tc.nodes():
            rec = correspondence_record(g, tc, tn, pairs, walks)
            all_recs = enumerate_records(g, tc, tn, pairs)
            assert rec in all_recs
            assert rec in tables[tn]  # the solution's record is valid
            # simplification safety, second statement: the simplified
            # instance stays solvable when the record matches a solution
            ws = WorkState(
                LGraph.from_core(g, t),
                {frozenset(p) for p in pairs},
                {e: tuple(g.edges[e]) for e in range(g.m)},
                itertools.count(),
            )
            y = tc.y_part(tn, range(g.n))
            if tn != tc.root and _apply_record(ws, y, rec, False, f"Q{tn}"):
                g2, t2, labels = _to_core(ws.lg)
                idx = {l: i for i, l in enumerate(labels)}
                new_pairs = [tuple(idx[v] for v in p) for p in ws.pairs]
                assert brute_disjoint_paths(g2, t2, new_pairs, "vertex", size_guard=False)
        exercised += 1
    assert exercised >= 10


def test_unmatched_terminal_counts():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dec = TreecutDecomposition(
        g, DecompositionFile(0, ((0, 1),), ((2, 3), (0, 1)))
    )
    assert unmatched_terminals(dec, 1, [(0, 3)]) == [0]
    assert unmatched_terminals(dec, 1, [(0, 1)]) == []


def test_apply_record_refuses_a_terminal_whose_partner_is_gone():
    # terminal vertex 1 is leaf node 1's bag, with one cut edge; dropping
    # Y_1 hands the gateway to its partner, so with the pair gone the
    # record is refused before any change
    g = Graph(2, [(0, 1)])
    dec = TreecutDecomposition(g, DecompositionFile(0, ((0, 1),), ((0,), (1,))))
    (rec,) = enumerate_records(g, dec, 1, [(1, 0)])
    ws = WorkState(LGraph.from_core(g, TransitionSystem()), set(), {0: (0, 1)}, itertools.count())
    before = _frame_contents(ws)
    assert not _apply_record(ws, {1}, rec, False, "Q1")
    assert _frame_contents(ws) == before and ws.pairs == set()
    ws.pairs = {frozenset((1, 0))}
    assert _apply_record(ws, {1}, rec, False, "Q1")
    assert set(ws.lg.adj) == {0, ("c", "Q1", 0)}
    assert ws.pairs == {frozenset((0, ("c", "Q1", 0)))}


def test_thin_child_with_two_exits_refuses_a_terminal_whose_partner_is_gone():
    # terminal vertex 2 may leave leaf node 1 by either cut edge, so the
    # exit stays open in one pair gateway for its partner; with the pair
    # gone the reduction fails before any change
    g = Graph(3, [(0, 2), (1, 2)])
    dec = TreecutDecomposition(g, DecompositionFile(0, ((0, 1),), ((0, 1), (2,))))
    pairs = [(2, 0)]
    d = enumerate_records(g, dec, 1, pairs)
    lg = LGraph.from_core(g, TransitionSystem())
    ws = WorkState(lg, set(), {0: (0, 2), 1: (1, 2)}, itertools.count())
    before = _frame_contents(ws)
    assert not reduce_thin_child(ws, dec, 1, {2}, d, pairs)
    assert _frame_contents(ws) == before and ws.pairs == set()
    ws.pairs = {frozenset(pairs[0])}
    assert reduce_thin_child(ws, dec, 1, {2}, d, pairs)
    gate = ("c", "s1", 0)
    assert ws.lg.adj[gate] == {0, 1} and ws.pairs == {frozenset((gate, 0))}


@pytest.mark.parametrize(
    "leaf, sigma, ipairs, fpairs, lam",
    [
        ((0, 2), "LFF", (), ((1, 2),), ((0, 0),)),  # Y to Z, three crossings
        ((0, 2, 4), "IIII", ((0, 1), (2, 3)), (), ()),  # Y to Y, four crossings
    ],
)
def test_correspondence_record_of_a_path_crossing_one_cut_repeatedly(
    leaf, sigma, ipairs, fpairs, lam
):
    # the path 0-1-2-3-4 alternates between leaf 1 and the root bag
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    rest = tuple(v for v in range(5) if v not in leaf)
    dec = TreecutDecomposition(g, DecompositionFile(0, ((0, 1),), (rest, leaf)))
    rec = correspondence_record(g, dec, 1, [(0, 4)], [Walk((0, 1, 2, 3, 4), (0, 1, 2, 3))])
    assert rec == treecut.Record(
        tuple(enumerate(sigma)), frozenset(map(frozenset, ipairs)),
        frozenset(map(frozenset, fpairs)), lam,
    )
    assert rec in enumerate_records(g, dec, 1, [(0, 4)])


def _twin_instance(rng):
    """A thin child holding both terminals of two pairs, with two exits.

    The child bag {0,1,2,3} is the 4-cycle 0-2-1-3 with exits 2-4 and 3-5;
    the pairs cross from 0 and 1 into the root bag {4,5,6,7}.
    """
    edges = [(0, 2), (1, 2), (1, 3), (0, 3), (2, 4), (3, 5)]
    edges += [e for e in ((0, 1), (2, 3)) if rng.random() < 0.3]
    edges += [e for e in ((4, 6), (4, 7), (5, 6), (5, 7), (6, 7), (4, 5)) if rng.random() < 0.5]
    g = Graph(8, sorted(edges))
    keep = rng.uniform(0.7, 1.0)
    t = TransitionSystem([q for q in sorted(all_transitions(g).pairs) if rng.random() < keep])
    pairs = rng.choice(([(0, 6), (1, 7)], [(0, 7), (1, 6)]))
    return g, t, pairs, DecompositionFile(0, ((0, 1),), ((4, 5, 6, 7), (0, 1, 2, 3)))


def _rooted_instance(rng):
    """A random rooted decomposition of width at most three, any depth."""
    while True:
        n = rng.randint(4, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35])
        nodes = rng.randint(2, n)
        bags = [[] for _ in range(nodes)]
        for v in range(n):
            bags[rng.randrange(nodes)].append(v)
        dec = DecompositionFile(
            0, tuple((rng.randrange(i), i) for i in range(1, nodes)), tuple(map(tuple, bags))
        )
        if evaluate_width(g, dec)[0] <= 3:
            break
    t = TransitionSystem([q for q in sorted(all_transitions(g).pairs) if rng.random() < 0.75])
    ends = rng.sample(range(n), n)
    k = rng.randint(1, min(2, n // 2))
    return g, t, [(ends[2 * i], ends[2 * i + 1]) for i in range(k)], dec


# Summed valid-record counts per instance, in draw order.
TWIN_RECORDS = [
    3, 1, 3, 2, 2, 2, 2, 1, 3, 3, 2, 2, 3, 1, 1, 2, 1, 2, 0, 1, 2, 2, 1, 2, 1, 2, 2,
    3, 2, 3, 2, 1, 2, 2, 2, 2, 2, 1, 2, 1, 2, 2, 0, 2, 2, 2, 3, 2, 2, 3, 3, 1, 3, 1,
    2, 3, 2, 2, 2, 3,
]
ROOTED_RECORDS = [
    0, 3, 7, 3, 0, 0, 10, 1, 0, 0, 0, 3, 2, 2, 1, 0, 3, 0, 4, 1, 5, 1, 2, 0, 1, 3,
    4, 4, 0, 8, 3, 6, 6, 1, 1, 2, 2, 0, 3, 3, 2, 2, 0, 2, 2, 0, 4, 3, 0, 0, 0, 2, 0,
    0, 3, 6, 0, 3, 0, 0, 0, 8, 6, 0, 3, 0, 2, 5, 0, 8, 5, 0, 4, 4, 1, 0, 0, 0, 4, 3,
    4, 3, 0, 3, 2, 2, 0, 0, 6, 2, 0, 6, 0, 5, 4, 2, 0, 3, 1, 0, 1, 2, 9, 0, 5, 0, 0,
    0, 3, 6, 1, 3, 0, 1, 2, 1, 0, 1, 0, 0, 10, 0, 4, 0, 0, 0, 5, 2, 1, 0, 0, 7, 2,
    0, 4, 0, 0, 0, 0, 3, 0, 0, 4, 6, 0, 0, 3, 2, 5, 0, 0, 8, 6, 0, 0, 0, 2, 0, 5, 8,
    10, 5, 0, 1, 0, 2, 1, 2, 0, 3, 0, 3, 0, 0, 0, 2, 2, 3, 0, 0, 2, 0, 3, 0, 1, 0,
    3, 0, 0, 0, 6, 1, 1, 3, 6, 1, 2, 2, 3, 0, 0, 0, 3, 5, 0, 1, 6, 0, 9, 4, 0, 3, 6,
    0, 3, 0, 2, 4, 1, 0, 5, 1, 0, 0, 0, 0, 4, 0, 3, 2, 0, 0, 5, 0, 0, 4, 1, 0, 3, 2,
    0, 2, 0, 1, 0, 2, 4, 5, 0, 4, 0, 0, 0, 0, 4, 3, 0, 0, 0, 4, 7, 0, 0, 3, 2, 2, 2,
    0, 1, 0, 0, 0, 1, 0, 0, 2, 2, 0, 5, 5, 0, 4, 5, 0, 0, 2, 2, 2, 0, 0, 0, 2, 6, 1,
    0, 5, 0, 1, 6, 3,
]


@pytest.mark.parametrize(
    "make, seed, pinned",
    [(_twin_instance, 12, TWIN_RECORDS), (_rooted_instance, 7, ROOTED_RECORDS)],
    ids=["twin", "rooted"],
)
def test_thin_child_reductions_match_oracle(make, seed, pinned):
    # the twin family reaches the two-terminal twin gadget, the rooted one
    # (trees deeper than the two levels of the search) the II reduction
    rng = random.Random(seed)
    counts = []
    for _ in pinned:
        g, t, pairs, dec = make(rng)
        yes, info = comvdp(g, t, pairs, dec)
        assert yes == brute_disjoint_paths(g, t, pairs, "vertex")
        counts.append(sum(map(len, info["tables"].values())))
    assert counts == pinned


def _triangle_chain(k):
    """k triangles joined in a row by single edges, one bag each, with all
    transitions and one pair from end to end; width 3."""
    edges = []
    for i in range(0, 3 * k, 3):
        edges += [(i, i + 1), (i, i + 2), (i + 1, i + 2)] + ([(i - 1, i)] if i else [])
    g = Graph(3 * k, edges)
    dec = DecompositionFile(
        0,
        tuple((i - 1, i) for i in range(1, k)),
        tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)),
    )
    return g, all_transitions(g), [(0, 3 * k - 1)], dec


def test_comvdp_graph_work_grows_linearly_on_a_chain(monkeypatch):
    # vertices and edges added to LGraphs plus vertices copied, over one
    # comvdp run: each record's instance is built from its node's frame, so
    # the work per node is bounded by the width and the total is linear in n.
    # terminate copies the kept vertices and the edges among them by set
    # intersection, not through add_vertex and add_edge; they count the same
    count = [0]

    def counted(method, cost):
        def wrapper(self, *args):
            count[0] += cost(self, *args)
            return method(self, *args)

        return wrapper

    def kept(lg, inside, *rest):
        return len(inside) + sum(len(lg.adj[v] & inside) for v in inside) // 2

    monkeypatch.setattr(LGraph, "add_vertex", counted(LGraph.add_vertex, lambda lg, v: 1))
    monkeypatch.setattr(LGraph, "add_edge", counted(LGraph.add_edge, lambda lg, u, v: 1))
    monkeypatch.setattr(LGraph, "copy", counted(LGraph.copy, lambda lg: len(lg.adj)))
    monkeypatch.setattr(treecut, "terminate", counted(terminate, kept))
    counts = []
    for n in (96, 192, 384, 768):
        count[0] = 0
        yes, info = comvdp(*_triangle_chain(n // 3))
        assert yes and info["width"] == 3
        counts.append(count[0])
    assert counts == [1321, 2665, 5353, 10729]
    assert all(b <= 2.1 * a for a, b in zip(counts, counts[1:]))


def test_make_nice_graph_reads_grow_linearly_on_a_chain(monkeypatch):
    # Graph.adj calls plus edge items read by one make_nice run: cuts,
    # torsos and violations come from the cut edges, and the one tree is
    # built once, so the reads are linear in n
    count = [0]

    class CountedEdges(tuple):
        def __getitem__(self, i):
            count[0] += 1
            return super().__getitem__(i)

        def __iter__(self):
            for e in super().__iter__():
                count[0] += 1
                yield e

    def counted_adj(self, v):
        count[0] += 1
        return self._adj[v]

    monkeypatch.setattr(Graph, "adj", counted_adj)
    counts = []
    for n in (96, 192, 384, 768):
        g, _, _, dec = _triangle_chain(n // 3)
        g.edges = CountedEdges(g.edges)
        count[0] = 0
        nice, width = make_nice(g, dec)
        assert width == 3 and _as_file(nice) == dec
        counts.append(count[0])
    assert counts == [344, 696, 1400, 2808]
    assert all(b <= 2.1 * a for a, b in zip(counts, counts[1:]))


def test_make_nice_reads_the_graph_once_on_a_path_with_leaves(monkeypatch):
    # the path 0-1-...-(n-1) with one leaf per vertex under an empty root
    # needs n - 1 moves into a chain; each changes the one tree in place,
    # so the only Graph.adj calls are the build's, one per vertex
    count = [0]

    def counted_adj(self, v):
        count[0] += 1
        return self._adj[v]

    monkeypatch.setattr(Graph, "adj", counted_adj)
    counts = []
    for n in (50, 100, 200):
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        dec = DecompositionFile(
            0, tuple((0, v + 1) for v in range(n)), ((),) + tuple((v,) for v in range(n))
        )
        count[0] = 0
        nice, width = make_nice(g, dec)
        counts.append(count[0])
        assert width == 1 and nice.parent == {**{v: v + 1 for v in range(1, n)}, n: 0}
    assert counts == [50, 100, 200]


@st.composite
def rooted_instances(draw):
    """A rooted decomposition of width at most three with up to two pairs.

    Half the draws are random.  The rest plant one of two shapes that random
    draws seldom give, each reaching one rejection of _apply_record:
    - a chain whose leaf {3, 4} has two cut edges into the root bag, so an
      I-pair of node 1 ends both at one gateway and the leaf's F-pair record
      on them is refused;
    - two bold leaves joined by an edge, so once the first leaf's record
      marks it U, a record of the second that uses it is refused.
    """
    shape = draw(st.sampled_from(["random", "random", "chain", "siblings"]))
    if shape == "chain":
        more = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (0, 4), (1, 3)]
        more = draw(st.sets(st.sampled_from(more), max_size=3))
        g = Graph(5, sorted({(0, 3), (1, 4), (3, 4)} | more))
        dec = DecompositionFile(0, ((0, 1), (1, 2)), ((0, 1), (2,), (3, 4)))
    elif shape == "siblings":
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4)])
        dec = DecompositionFile(0, ((0, 1), (0, 2)), ((0,), (1, 2), (3, 4)))
    else:
        n = draw(st.integers(3, 8))
        nodes = draw(st.integers(2, min(n, 5)))
        tree = tuple((draw(st.integers(0, i - 1)), i) for i in range(1, nodes))
        bags = [[] for _ in range(nodes)]
        for v in range(n):
            bags[draw(st.integers(0, nodes - 1))].append(v)
        everything = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, sorted(draw(st.sets(st.sampled_from(everything), max_size=n + 2))))
        dec = DecompositionFile(0, tree, tuple(map(tuple, bags)))
    assume(evaluate_width(g, dec)[0] <= 3)
    allowed = sorted(all_transitions(g).pairs)
    dropped = set()
    if allowed:
        dropped = draw(st.sets(st.sampled_from(allowed), max_size=len(allowed) // 3))
    t = TransitionSystem([q for q in allowed if q not in dropped])
    ends = draw(st.permutations(range(g.n)))
    k = draw(st.integers(0, min(2, g.n // 2)))
    return g, t, [(ends[2 * i], ends[2 * i + 1]) for i in range(k)], dec


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=rooted_instances())
def test_comvdp_matches_the_oracle_on_drawn_decompositions(case):
    g, t, pairs, dec = case
    assert comvdp(g, t, pairs, dec)[0] == brute_disjoint_paths(g, t, pairs, "vertex")
