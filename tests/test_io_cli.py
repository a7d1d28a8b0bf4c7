import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from transita.cli import main
from transita.compath import family_for_bound
from transita.genred import gen_random_ftg
from transita.io import (
    DecompositionFile,
    Instance,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
    serialize_instance,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def instance_file(tmp_path):
    g, t = gen_random_ftg(8, 0.4, 0.8, 3)
    path = tmp_path / "inst.json"
    path.write_bytes(serialize_instance(Instance(g, t)))
    return str(path)


def test_validate_reports_empty_violations(instance_file):
    code, out = run_cli(["validate", "--instance", instance_file])
    report = json.loads(out)
    assert code == 0 and report["violations"] == []
    assert report["schema"] == "transita-report/1"


def test_compath_single_edge(tmp_path):
    from transita.core import Graph, TransitionSystem

    path = tmp_path / "st.json"
    path.write_bytes(serialize_instance(Instance(Graph(2, [(0, 1)]), TransitionSystem())))
    code, out = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "1", "--max-len", "1"]
    )
    report = json.loads(out)
    # the shortest compatible walk is a path, so no family is swept
    assert report["length"] == 1 and report["family_size"] == 0
    assert report["certified"] is True


def test_strict_exit_codes(tmp_path):
    from transita.core import Graph, TransitionSystem

    path = tmp_path / "p3.json"
    path.write_bytes(
        serialize_instance(Instance(Graph(3, [(0, 1), (1, 2)]), TransitionSystem()))
    )
    code, _ = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "2",
         "--max-len", "5", "--strict-exit"]
    )
    assert code == 1
    code, _ = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "2", "--max-len", "5"]
    )
    assert code == 0
    code, out = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "9",
         "--max-len", "5", "--strict-exit"]
    )
    assert code == 2 and "error" in json.loads(out)


def test_usage_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(["validate", "--instance", str(bad)])
    assert code == 2
    report = json.loads(out)
    assert report["answer"] is None and report["error"]["kind"] == "input-format"
    assert "input_digest" in report
    code, out = run_cli(["validate", "--instance", str(tmp_path / "missing.json")])
    assert code == 2
    report = json.loads(out)
    assert report["answer"] is None and report["error"]["kind"] == "file"
    assert "input_digest" not in report


def test_reports_are_deterministic_modulo_timing(instance_file):
    argv = ["detour", "--instance", instance_file, "--from", "0", "--to", "5",
            "--slack", "2", "--seed", "9"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1["stats"].pop("elapsed_ms")
    r2["stats"].pop("elapsed_ms")
    assert r1 == r2
    assert r1["seed"] == 9


def _uturn_instance(tmp_path, n):
    # n >= 10 vertices, those above 9 isolated: the path 0-1-2 with its
    # straight turn at 1 forbidden, the triangle 1-3-4 at 1 and the bypass
    # 0-5-6-7-8-9-2.  The shortest compatible 0-2 walk 0-1-3-4-1-2 repeats
    # vertex 1, so ComPath and ComDetour run colour coding; the shortest
    # compatible path is the bypass, length 6 and slack 4
    from transita.core import Graph, TransitionSystem, all_transitions

    g = Graph(n, [(0, 1), (1, 2), (1, 3), (3, 4), (1, 4)] + [(v, v + 1) for v in range(5, 9)]
              + [(0, 5), (2, 9)])
    straight = tuple(sorted((g.edge_id(0, 1), g.edge_id(1, 2))))
    path = tmp_path / f"uturn{n}.json"
    t = TransitionSystem(p for p in all_transitions(g).pairs if p != straight)
    path.write_bytes(serialize_instance(Instance(g, t)))
    return str(path)


@pytest.fixture()
def uturn_file(tmp_path):
    # 40 vertices, so the family swept is random (n > 32)
    return _uturn_instance(tmp_path, 40)


def test_detour_report_carries_solver_counters(uturn_file):
    # two runs print the same bytes once the elapsed time is blanked
    argv = ["detour", "--instance", uturn_file, "--from", "0", "--to", "2",
            "--slack", "3", "--seed", "4"]
    outs = [re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', run_cli(argv)[1])
            for _ in range(2)]
    assert outs[0] == outs[1]
    stats = json.loads(outs[0])["stats"]
    assert set(stats) == {"elapsed_ms", "oriented_calls", "goals"}
    assert stats["oriented_calls"] > 0 and stats["goals"] >= stats["oriented_calls"]


def test_gen_roundtrip_through_cli(tmp_path):
    out_path = tmp_path / "gen.json"
    code, _ = run_cli(
        ["gen", "random-ftg", "--n", "7", "--p", "0.4", "--q", "0.9",
         "--seed", "11", "--out", str(out_path)]
    )
    assert code == 0
    code, out = run_cli(["validate", "--instance", str(out_path)])
    assert json.loads(out)["answer"] is True


@pytest.mark.parametrize("kind", ["psi-reduce", "psi-reduce-ham"])
def test_gen_psi_beyond_fifteen_pattern_edges(tmp_path, kind):
    out_path = tmp_path / "psi.json"
    code, out = run_cli(["gen", kind, "--mh", "16", "--n", "6", "--out", str(out_path)])
    assert code == 0 and out == ""
    inst = parse_instance(out_path.read_bytes())
    assert (inst.terminals is not None) == (kind == "psi-reduce")


def test_threads_flag_is_gone(instance_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", "--instance", instance_file, "--threads", "2"])
    assert exc.value.code == 2
    _, out = run_cli(["validate", "--instance", instance_file])
    assert "threads" not in json.loads(out)


def test_cli_subprocess_entry_point(instance_file):
    proc = subprocess.run(
        [sys.executable, "-m", "transita", "validate", "--instance", instance_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["answer"] is True


def test_decomposition_round_trip():
    dec = DecompositionFile(0, ((0, 1),), ((0, 1), (2,)))
    again = parse_decomposition(serialize_decomposition(dec))
    assert again == dec


def test_oracle_cli_matches_solver(tmp_path):
    from transita.core import Graph, TransitionSystem, all_transitions

    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    path = tmp_path / "c5.json"
    path.write_bytes(serialize_instance(Instance(g, all_transitions(g))))
    _, solver_out = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "2", "--max-len", "4"]
    )
    _, oracle_out = run_cli(
        ["oracle", "compath", "--instance", str(path), "--from", "0", "--to", "2",
         "--max-len", "4"]
    )
    assert json.loads(solver_out)["length"] == json.loads(oracle_out)["length"] == 2


def test_unreachable_targets_are_diagnosed(tmp_path):
    # detour and dsp answer no, and say why, when a target cannot be reached
    from transita.core import DiGraph, Graph, all_transitions

    g = Graph(4, [(0, 1), (2, 3)])
    path = tmp_path / "two.json"
    path.write_bytes(serialize_instance(Instance(g, all_transitions(g))))
    code, out = run_cli(
        ["detour", "--instance", str(path), "--from", "0", "--to", "3", "--slack", "1"]
    )
    report = json.loads(out)
    assert code == 0 and report["answer"] is False and report["nu"] is None
    assert report["diagnostic"] == "target unreachable from source"
    dg = DiGraph(4, [(0, 1), (2, 3)])
    path = tmp_path / "arcs.json"
    path.write_bytes(serialize_instance(Instance(dg, all_transitions(dg))))
    for mode in ("edge", "vertex"):
        code, out = run_cli(["dsp", "--instance", str(path), "--mode", mode, "--pairs", "1,0,2,3"])
        report = json.loads(out)
        assert code == 0 and report["answer"] is False and "paths" not in report
        assert report["diagnostic"] == "a target is unreachable"


def test_oracle_pchc_answers_on_small_coloured_cycles(tmp_path):
    # the 4-cycle has a properly coloured Hamiltonian cycle exactly when its
    # colours alternate
    from transita.core import EdgeColoring, Graph, TransitionSystem

    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for colors, yes in (((1, 2, 1, 2), True), ((1, 1, 2, 2), False)):
        path = tmp_path / "c4.json"
        inst = Instance(g, TransitionSystem(), EdgeColoring(colors, 2))
        path.write_bytes(serialize_instance(inst))
        code, out = run_cli(["oracle", "pchc", "--instance", str(path)])
        report = json.loads(out)
        assert code == 0 and "error" not in report
        assert report["answer"] is report["yes"] is yes


def _assert_error_report(code, out, kind):
    assert code == 2
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["schema"] == "transita-report/1"
    assert report["answer"] is None
    assert report["error"]["kind"] == kind and report["error"]["message"]
    return report


def test_comvdp_width_bound_writes_error_report(tmp_path):
    g, t = gen_random_ftg(9, 0.4, 0.75, 5)
    path = tmp_path / "a.json"
    path.write_bytes(serialize_instance(Instance(g, t)))
    code, out = run_cli(["comvdp", "--instance", str(path), "--pairs", "0,6", "--seed", "3"])
    report = _assert_error_report(code, out, "width-bound")
    assert report["solver"] == "comvdp" and report["seed"] == 3
    assert "input_digest" in report


@pytest.fixture()
def cli_inputs(tmp_path):
    from transita.core import DiGraph, TransitionSystem, all_transitions
    from transita.genred import gen_random_edge_colored

    g, t = gen_random_ftg(8, 0.4, 0.8, 3)
    und = tmp_path / "und.json"
    und.write_bytes(serialize_instance(Instance(g, t)))
    arcs = [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (1, 4)]
    dg = DiGraph(5, arcs, (1,) * len(arcs))
    dirf = tmp_path / "dir.json"
    dirf.write_bytes(serialize_instance(Instance(dg, all_transitions(dg))))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    dec = tmp_path / "dec.json"
    dec.write_bytes(serialize_decomposition(DecompositionFile(0, (), (tuple(range(8)),))))
    partial = tmp_path / "partial.json"
    partial.write_bytes(serialize_decomposition(DecompositionFile(0, (), ((0, 1),))))
    gc, cc = gen_random_edge_colored(6, 0.6, 3, 5)
    col = tmp_path / "col.json"
    col.write_bytes(serialize_instance(Instance(gc, TransitionSystem(), coloring=cc)))
    gb, tb = gen_random_ftg(13, 0.3, 0.8, 1)
    big = tmp_path / "big.json"
    big.write_bytes(serialize_instance(Instance(gb, tb)))
    zero = tmp_path / "zero.json"
    zero.write_bytes(
        serialize_instance(Instance(DiGraph(2, [(0, 1), (1, 0)], (0, 0)), TransitionSystem()))
    )
    return {
        "und": str(und), "dir": str(dirf), "bad": str(bad), "dec": str(dec),
        "missing": str(tmp_path / "missing.json"), "partial": str(partial),
        "col": str(col), "big": str(big), "zero": str(zero),
    }


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["compath", "--instance", "{bad}", "--from", "0", "--to", "1", "--max-len", "2"],
         "input-format"),
        (["detour", "--instance", "{missing}", "--from", "0", "--to", "1", "--slack", "0"],
         "file"),
        (["pchc", "--instance", "{und}", "--decomposition", "{dec}"], "unsupported-instance"),
        (["oracle", "pchc", "--instance", "{und}"], "unsupported-instance"),
        (["dsp", "--instance", "{und}", "--mode", "edge", "--pairs", "0,2,3,4"],
         "unsupported-instance"),
        (["compath", "--instance", "{dir}", "--from", "0", "--to", "2", "--max-len", "3"],
         "unsupported-instance"),
        (["detour", "--instance", "{dir}", "--from", "0", "--to", "2", "--slack", "1"],
         "unsupported-instance"),
        (["compath", "--instance", "{und}", "--from", "0", "--to", "99", "--max-len", "3"],
         "argument"),
        (["detour", "--instance", "{und}", "--from", "0", "--to", "5", "--slack", "-1"],
         "argument"),
        (["dsp", "--instance", "{dir}", "--mode", "edge", "--pairs", "0,2,3"], "argument"),
        (["comvdp", "--instance", "{und}", "--pairs", "0-6"], "argument"),
        (["oracle", "compath", "--instance", "{und}", "--to", "6", "--max-len", "3"],
         "argument"),
        (["gen", "random-ftg", "--n", "-1"], "argument"),
        (["dsp", "--instance", "{zero}", "--mode", "vertex", "--pairs", "0,1,1,0"],
         "unsupported-instance"),
        (["pchc", "--instance", "{col}", "--decomposition", "{partial}"], "input-format"),
        (["comvdp", "--instance", "{und}", "--decomposition", "{partial}"], "input-format"),
        (["comvdp", "--instance", "{big}", "--pairs", "0,1"], "size-limit"),
        (["oracle", "disjoint", "--instance", "{big}", "--pairs", "0,1"], "size-limit"),
        (["gen", "psi-reduce", "--mh", "100000"], "argument"),
    ],
)
def test_failures_write_one_error_report(cli_inputs, argv, kind):
    argv = [a.format(**cli_inputs) for a in argv]
    code, out = run_cli(argv)
    report = _assert_error_report(code, out, kind)
    assert report["solver"].startswith(argv[0])


def test_reports_say_when_the_family_is_uncertified(tmp_path, uturn_file):
    from transita.core import Graph, all_transitions

    code, out = run_cli(
        ["compath", "--instance", uturn_file, "--from", "0", "--to", "2", "--max-len", "6"]
    )
    report = json.loads(out)
    assert code == 0 and report["length"] == 6 and report["certified"] is False
    assert report["family_size"] == len(family_for_bound(40, 6))
    g = Graph(40, [(v, v + 1) for v in range(39)])
    path = tmp_path / "p40.json"
    path.write_bytes(serialize_instance(Instance(g, all_transitions(g))))
    code, out = run_cli(
        ["compath", "--instance", str(path), "--from", "0", "--to", "3", "--max-len", "4"]
    )
    report = json.loads(out)
    # answered by the shortest compatible walk, a path: no family is swept
    assert code == 0 and report["length"] == 3 and report["certified"] is True
    assert report["family_size"] == 0
    code, out = run_cli(
        ["detour", "--instance", str(path), "--from", "0", "--to", "39", "--slack", "1"]
    )
    report = json.loads(out)
    # answered by the shortest compatible walk, a path: no family is swept
    assert code == 0 and report["nu"] == 39 and report["certified"] is True
    code, out = run_cli(
        ["detour", "--instance", uturn_file, "--from", "0", "--to", "2", "--slack", "4"]
    )
    report = json.loads(out)
    assert code == 0 and report["nu"] == 6 and report["certified"] is False


def test_dsp_vertex_witness_through_a_contracted_blob(tmp_path):
    from transita.core import DiGraph, all_transitions

    g = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    path = tmp_path / "grid.json"
    path.write_bytes(serialize_instance(Instance(g, all_transitions(g))))
    code, out = run_cli(["dsp", "--instance", str(path), "--mode", "vertex", "--pairs", "1,5,0,4"])
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out)
    assert report["answer"] is True and "error" not in report
    assert report["paths"] == [[1, 2, 5], [0, 3, 4]]


def test_failed_solver_check_writes_an_internal_error_report(tmp_path, monkeypatch):
    from transita import cli
    from transita.core import DiGraph, InvariantError, TransitionSystem

    def broken(*args, **kwargs):
        raise InvariantError("reconstructed witness misses its target")

    monkeypatch.setattr(cli, "vertex_disjoint_2dspp", broken)
    path = tmp_path / "p.json"
    path.write_bytes(serialize_instance(Instance(DiGraph(4, [(0, 1), (2, 3)]), TransitionSystem())))
    code, out = run_cli(["dsp", "--instance", str(path), "--mode", "vertex", "--pairs", "0,1,2,3"])
    report = _assert_error_report(code, out, "internal")
    assert "misses its target" in report["error"]["message"]


def test_corrupt_compath_witness_writes_an_internal_error_report(tmp_path, monkeypatch):
    # a witness one edge short of its goal fails compath's own check
    import transita.compath
    from transita.core import Walk

    solve = transita.compath.oriented_compath

    def short_witness(*args, **kwargs):
        res, ws = solve(*args, **kwargs)
        return res, [w and Walk(w.vertices[:-1], w.edge_ids[:-1]) for w in ws]

    monkeypatch.setattr(transita.compath, "oriented_compath", short_witness)
    # the walk there repeats a vertex, so the witness comes from the sweep
    code, out = run_cli(
        ["compath", "--instance", _uturn_instance(tmp_path, 10), "--from", "0", "--to", "2",
         "--max-len", "6", "--witness"]
    )
    report = _assert_error_report(code, out, "internal")
    assert "compath witness" in report["error"]["message"]


@pytest.mark.parametrize("field, text", [
    ("n", '{"n": true, "edges": []}'),
    ("edges[0]", '{"n": 3, "edges": [[false, 1]]}'),
    ("colors[0]", '{"n": 2, "edges": [[0, 1]], "colors": [true]}'),
    ("transitions[0]", '{"n": 3, "edges": [[0, 1], [1, 2]], "transitions": [[0, true]]}'),
    ("terminals[0]", '{"n": 3, "edges": [[0, 1]], "terminals": [[true, 2]]}'),
])
def test_a_boolean_is_no_integer_in_an_instance(field, text):
    # JSON true and false are Python bools, which isinstance(x, int) accepts
    from transita.io import InstanceFormatError

    with pytest.raises(InstanceFormatError) as ei:
        parse_instance(text)
    assert ei.value.field == field


@pytest.mark.parametrize("field, text", [
    ("root", '{"root": false, "tree_edges": [], "bags": [[0]]}'),
    ("bags[0]", '{"root": 0, "tree_edges": [], "bags": [[true]]}'),
    ("tree_edges[0]", '{"root": 0, "tree_edges": [[0, true]], "bags": [[0], [1]]}'),
])
def test_a_boolean_is_no_integer_in_a_decomposition(field, text):
    from transita.io import InstanceFormatError

    with pytest.raises(InstanceFormatError) as ei:
        parse_decomposition(text)
    assert ei.value.field == field


def test_boolean_vertex_ids_write_an_input_format_report(tmp_path):
    # once read as vertices 0 and 1, and reported back in the witness
    path = tmp_path / "bool.json"
    path.write_text('{"n": 3, "edges": [[false, true], [true, 2]], "transitions": [[0, true]]}')
    code, out = run_cli(["compath", "--instance", str(path), "--from", "0", "--to", "2",
                         "--max-len", "3", "--witness"])
    report = _assert_error_report(code, out, "input-format")
    assert "edges[0]" in report["error"]["message"]


def test_infinite_weight_is_an_input_format_error(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"directed": true, "n": 3, "edges": [[0, 1], [1, 2]], "weights": [Infinity, 1],'
        ' "transitions": [[0, 1]]}'
    )
    code, out = run_cli(["dsp", "--instance", str(path), "--mode", "edge", "--pairs", "0,2,1,2"])
    report = _assert_error_report(code, out, "input-format")
    assert "must be finite" in report["error"]["message"]


def test_float_weights_round_trip_as_exact_values():
    from fractions import Fraction

    from transita.core import DiGraph, TransitionSystem

    g = DiGraph(3, [(0, 1), (1, 2), (0, 2)], [0.1, 0.2, 0.3])
    inst = Instance(g, TransitionSystem([(0, 1)]))
    assert all(isinstance(w, Fraction) for w in inst.graph.weights)
    assert inst.graph.weights == tuple(map(Fraction, (0.1, 0.2, 0.3)))
    assert parse_instance(serialize_instance(inst)) == inst
    assert parse_instance(b'{"directed": true, "n": 2, "edges": [[0, 1]], "weights": [0.1]}'
                          ).graph.weights == (Fraction(0.1),)


def test_pchc_report_carries_the_rank_counters(tmp_path):
    # the rank engine's counters, equal to its stats; null for the naive
    # engine, which reduces and drops nothing
    from transita.core import EdgeColoring, Graph, TransitionSystem
    from transita.pchc import min_degree_decomposition, rank_based_pchc

    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
    col = EdgeColoring(tuple(1 + i % 2 for i in range(g.m)), 2)
    dec = min_degree_decomposition(g)
    (tmp_path / "inst.json").write_bytes(serialize_instance(Instance(g, TransitionSystem(), col)))
    (tmp_path / "dec.json").write_bytes(serialize_decomposition(dec))
    stats = {}
    assert rank_based_pchc(g, col, dec, stats=stats) and stats["dead_groups"] > 0
    for engine, expected in (("rank", stats), ("naive", {})):
        code, out = run_cli(
            ["pchc", "--instance", str(tmp_path / "inst.json"),
             "--decomposition", str(tmp_path / "dec.json"), "--engine", engine]
        )
        report = json.loads(out)
        assert code == 0 and report["answer"] is True
        for key in ("max_family_before_prune", "dead_groups", "field_a"):
            assert report[key] == expected.get(key)


def test_deep_inputs_write_one_report(tmp_path):
    # each of these three inputs once ended in a RecursionError traceback
    from transita.core import DiGraph, EdgeColoring, Graph, TransitionSystem

    n = 1100
    cycle = Instance(
        Graph(n, [(i, (i + 1) % n) for i in range(n)]),
        TransitionSystem(),
        EdgeColoring(tuple(1 + i % 2 for i in range(n)), 2),
    )
    bags = tuple((0, i, i + 1) for i in range(1, n - 1))
    path_dec = DecompositionFile(0, tuple((i, i + 1) for i in range(len(bags) - 1)), bags)
    chain = Instance(
        DiGraph(3000, [(i, i + 1) for i in range(2999)], [0] * 2999),
        TransitionSystem([(i, i + 1) for i in range(2998)]),
    )
    path = Instance(
        Graph(1200, [(v, v + 1) for v in range(1199)]),
        TransitionSystem([(e, e + 1) for e in range(1198)]),
    )
    files = {
        "cycle": serialize_instance(cycle),
        "dec": serialize_decomposition(path_dec),
        "chain": serialize_instance(chain),
        "path": serialize_instance(path),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        files[name] = str(tmp_path / name)

    code, out = run_cli(["pchc", "--instance", files["cycle"], "--decomposition", files["dec"]])
    assert code == 0 and out.count("\n") == 1
    assert json.loads(out)["answer"] is True

    code, out = run_cli(["dsp", "--instance", files["chain"], "--mode", "edge", "--pairs", "0,5,6,9"])
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out)
    assert report["answer"] is True
    assert report["paths"] == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9]]

    code, out = run_cli(
        ["detour", "--instance", files["path"], "--from", "0", "--to", "1199",
         "--slack", "0", "--witness"]
    )
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out)
    assert report["answer"] is True and report["nu"] == 1199
    assert report["witness"] == list(range(1200))


@pytest.mark.parametrize("pairs", [["0,8", "4,11"], ["2,8", "5,11"]], ids=["yes", "no"])
def test_comvdp_runs_the_dp_on_a_given_decomposition(tmp_path, pairs):
    # four triangles in a tree of links, one bag each: width 3, four nodes
    from transita.core import Graph, TransitionSystem, all_transitions

    tri = [(3 * i + a, 3 * i + b) for i in range(4) for a, b in ((0, 1), (1, 2), (0, 2))]
    g = Graph(12, sorted(tri + [(2, 3), (1, 4), (5, 6), (4, 9)]))
    t = TransitionSystem([q for i, q in enumerate(sorted(all_transitions(g).pairs)) if i % 5])
    inst, decp = tmp_path / "tri.json", tmp_path / "tri.dec.json"
    inst.write_bytes(serialize_instance(Instance(g, t)))
    bags = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(4))
    decp.write_bytes(serialize_decomposition(DecompositionFile(0, ((0, 1), (1, 2), (1, 3)), bags)))
    argv = ["comvdp", "--instance", str(inst), "--decomposition", str(decp), "--pairs", *pairs]
    outs = [re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', run_cli(argv)[1])
            for _ in range(2)]
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    _, oracle_out = run_cli(["oracle", "disjoint", "--instance", str(inst), "--pairs", *pairs])
    assert report["answer"] == json.loads(oracle_out)["answer"] == (pairs[0] == "0,8")
    assert report["width"] == 3 and report["nice"] is True
