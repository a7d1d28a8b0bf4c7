"""Fast tests of the benchmark's own checkers, corpora and tracing.

Run with `python -m pytest bench`.
"""

import importlib
import random

import pytest

from transita import oracle, treecut
from transita.core import EdgeColoring

import checks
import corpus
import tracing


@pytest.mark.parametrize("rim_len", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("no_wheel", [False, True])
def test_wheel_checker_agrees_with_oracle(rim_len, no_wheel):
    rng = random.Random(f"wheel/{rim_len}/{no_wheel}")
    for colors in (2, 3, 5):
        for _ in range(6):
            g, cols, _, rim = corpus.triple_wheel(rim_len, colors, rng, no_wheel)
            cmap = {frozenset(e): c for e, c in zip(g.edges, cols)}
            mine = checks.wheel_has_pchc(rim, (0, 1, 2), lambda u, v: cmap.get(frozenset((u, v))))
            assert mine == oracle.brute_pchc(g, EdgeColoring(tuple(cols), colors))
            if no_wheel:
                assert not mine


@pytest.mark.parametrize("n,bound", corpus.COMPATH_CELLS)
def test_planted_no_instances_have_a_walk_and_no_path(n, bound):
    rng = random.Random(f"planted/{n}/{bound}")
    for _ in range(3):
        g, t, x, y = corpus.planted_no_instance(n, rng)
        assert g.n == n
        walk = checks.walk_distances(g.n, g.edges, checks.pair_set(t.pairs), x)[y]
        assert walk <= bound
        assert oracle.brute_compatible_path(g, t, x, y, bound) is None


def test_searchable_graphs_have_a_decomposition():
    rng = random.Random("searchable")
    for n in (6, 7, 8):
        g, _ = corpus.searchable_graph(n, rng)
        assert treecut.exhaustive_treecut_decomposition(g, corpus.VDP_MAX_WIDTH) is not None


def test_every_wrapped_name_exists():
    for module, attr, _, _ in tracing.WRAPS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_tracer_refuses_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", (("transita.compath", "no_such_name", "x", None),))
    with pytest.raises(tracing.MissingName):
        tracing.Tracer().install()


def test_undirected_path_checker_rejects_bad_witnesses():
    edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
    permitted = checks.pair_set([(0, 1), (1, 2)])
    assert checks.undirected_path(4, edges, permitted, [0, 1, 2, 3], 0, 3, 3) is None
    assert checks.undirected_path(4, edges, permitted, [0, 1, 3], 0, 3, 2)  # forbidden turn
    assert checks.undirected_path(4, edges, permitted, [0, 1, 2, 3], 0, 3, 2)  # wrong length
    assert checks.undirected_path(4, edges, permitted, [0, 2, 3], 0, 3, 2)  # non-edge
