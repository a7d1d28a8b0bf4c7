import ast
import math
import pathlib
import random

import pytest

from transita.core import (
    DiGraph,
    EdgeColoring,
    Graph,
    TransitionSystem,
    Walk,
    all_transitions,
    bfs_dist,
    dijkstra,
    is_compatible_walk,
    proper_coloring_transitions,
    validate_transition_system,
    INF,
)
from transita.genred import gen_random_ftg
from transita.io import (
    Instance,
    InstanceFormatError,
    parse_instance,
    serialize_instance,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_graph_rejects_loops_and_parallels():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])


def test_validate_transition_system_examples():
    g = triangle()
    # adjacent pair at vertex 1
    assert validate_transition_system(g, TransitionSystem([(0, 1)])) == []
    # non-distinct edges
    bad = validate_transition_system(g, TransitionSystem([(0, 0)]))
    assert len(bad) == 1 and "distinct" in bad[0].reason
    # two disjoint edges paired
    g2 = Graph(4, [(0, 1), (2, 3)])
    bad = validate_transition_system(g2, TransitionSystem([(0, 1)]))
    assert len(bad) == 1 and "share" in bad[0].reason


def test_compatible_walk_examples():
    g = Graph(3, [(0, 1), (1, 2)])
    single = Walk((0, 1), (0,))
    assert is_compatible_walk(g, TransitionSystem(), single)
    w = Walk((0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2)))
    assert not is_compatible_walk(g, TransitionSystem(), w)
    assert is_compatible_walk(g, TransitionSystem([(0, 1)]), w)
    with pytest.raises(ValueError):
        is_compatible_walk(g, TransitionSystem(), Walk((0, 2), (0,)))


def test_proper_coloring_transitions_examples():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert proper_coloring_transitions(p3, EdgeColoring((1, 1), 1)).pairs == frozenset()
    assert proper_coloring_transitions(p3, EdgeColoring((1, 2), 2)).pairs == {(0, 1)}
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    t = proper_coloring_transitions(star, EdgeColoring((1, 2, 2), 2))
    assert t.pairs == {(0, 1), (0, 2)}


def test_proper_coloring_matches_direct_color_check():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(3, 7)
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5],
        )
        if g.m == 0:
            continue
        colors = EdgeColoring(tuple(rng.randint(1, 3) for _ in range(g.m)), 3)
        t = proper_coloring_transitions(g, colors)
        # random walks: compatibility iff no two consecutive colors equal
        for _ in range(20):
            v = rng.randrange(n)
            verts, eids = [v], []
            for _ in range(rng.randint(1, 5)):
                nbrs = g.adj(verts[-1])
                if not nbrs:
                    break
                w, e = nbrs[rng.randrange(len(nbrs))]
                verts.append(w)
                eids.append(e)
            if len(verts) < 2:
                continue
            walk = Walk(tuple(verts), tuple(eids))
            direct = all(
                colors.of(a) != colors.of(b) for a, b in zip(eids, eids[1:])
            )
            assert is_compatible_walk(g, t, walk) == direct


def test_bfs_and_dijkstra_examples():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_dist(p4, 0) == [0, 1, 2, 3]
    g = Graph(3, [(0, 1)])
    assert bfs_dist(g, 0)[2] == INF
    # weighted diamond: two unit edges versus one weight-3 arc
    d = DiGraph(3, [(0, 1), (1, 2), (0, 2)], (1, 1, 3))
    assert dijkstra(d, 0) == [0, 1, 2]


def test_parse_serialize_round_trip_triangle():
    inst = Instance(triangle(), TransitionSystem([(0, 1)]))
    again = parse_instance(serialize_instance(inst))
    assert again.graph == inst.graph
    assert again.transitions == inst.transitions


def test_parse_errors_are_diagnosed():
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance(b'{"n": 3}')
    assert "edges" in str(ei.value)
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance(b'{"n": 2, "edges": [[0,1]], "transitions": [[0, 4]]}')
    assert "transitions[0]" in str(ei.value)


def test_rational_weights_round_trip():
    blob = (
        b'{"directed": true, "n": 2, "edges": [[0,1]],'
        b' "weights": [["1","3"]], "transitions": []}'
    )
    inst = parse_instance(blob)
    from fractions import Fraction

    assert inst.graph.weights == (Fraction(1, 3),)
    assert parse_instance(serialize_instance(inst)).graph == inst.graph


def test_round_trip_seeded_corpus():
    # parse(serialize(x)) is the identity across a generated corpus
    for seed in range(1000):
        g, t = gen_random_ftg(3 + seed % 8, 0.4, 0.7, seed)
        inst = Instance(g, t)
        again = parse_instance(serialize_instance(inst))
        assert again.graph == g and again.transitions == t


def test_walk_predicates():
    g = triangle()
    w = Walk((0, 1, 2, 0), (g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(2, 0)))
    assert w.is_closed() and w.is_cycle() and not w.is_path()
    assert Walk((0, 1), (g.edge_id(0, 1),)).is_path()


def test_no_assert_statements_in_the_package():
    # python -O strips assert; runtime checks raise core.InvariantError instead
    import transita

    found = []
    for path in sorted(pathlib.Path(transita.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_the_package():
    # no linter is installed, so this is the unused-import check; a name
    # counts as used when it appears anywhere in the module
    import transita

    found = []
    for path in sorted(pathlib.Path(transita.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(transita.__all__)
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


# public definitions that nothing in the package or the benchmark uses, kept
# for the tests, each for the reason beside it
REFERENCES = (
    "verify_k_perfect",  # brute-force check that a hash family is k-perfect
    "fit_colored",  # the paper's fit relation on colored traces, spelled out
    "pi_row",  # the paper's Pi-vector of one colored trace, for the rank lemma
    "correspondence_record",  # the record a known solution induces at a node
    "psi_reduction_cycle",  # the paper's compatible-cycle hardness reduction
    "is_linear_forest",  # checks the linear-forest modulator of a reduction
    "validate_ham_bags",  # checks the path decomposition of a reduction
    "single_bag_treecut",  # the trivial decomposition, a baseline for tests
    "Walk.is_cycle",  # the cycle predicate beside is_path, for the walk tests
    "ReductionOutput.modulator",  # the modulator the reduction promises
    "HamiltonianReductionOutput.modulator",  # the same, for the cycle output
    "FieldGF2a.inv",  # field inverse, for the field axioms and rank checks
)


def test_every_public_definition_is_used_or_a_reference():
    # a use is an attribute or a string (so __all__ and the benchmark's
    # wrapped names count) anywhere in the package or bench/*.py; a bare
    # name is a use of a top-level definition only, since a local variable
    # may share a method's name
    import transita

    pkg = pathlib.Path(transita.__file__).parent
    attrs, names = set(), set()
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    for path in sorted(pkg.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    # public top-level definitions, and the public methods of public classes
    # as Class.method
    public = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((node.name, node.name in attrs | names))
                if isinstance(node, ast.ClassDef):
                    public += [
                        (f"{node.name}.{m.name}", m.name in attrs)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    ]
    unused = [qual for qual, used in public if not used]
    assert sorted(unused) == sorted(REFERENCES)
