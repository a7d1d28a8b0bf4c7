"""Property test of the CLI contract: one parseable report per run.

Instances of both directedness, with and without colors and weights, are
fed to every command, sometimes corrupted, together with flag values that
may be malformed or out of range; ``gen`` of every kind is run with small
and out-of-range sizes.  Each run must write exactly one line and exit with
0, 1 or 2: a ``transita-report/1`` report, where 2 marks exactly the
reports that carry an error, or the instance that a successful ``gen``
wrote.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import pytest

from transita.cli import main
from transita.core import DiGraph, EdgeColoring, Graph, TransitionSystem, all_transitions
from transita.io import Instance, parse_instance, serialize_decomposition, serialize_instance
from transita.treecut import single_bag_treecut

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ENDPOINTS = st.sampled_from(["0", "1", "3", "5", "-1", "9", "e0", "e2", "e99", "x"])
VERTICES = st.sampled_from(["0", "1", "3", "5", "-1", "9"])
SMALL = st.sampled_from(["-1", "0", "1", "2", "4"])
PAIRS = st.sampled_from(["0,1", "2,3", "1,4", "0,0", "0-1", "9,1", "0,1,2"])
QUADS = st.sampled_from(["0,1,2,3", "1,0,3,2", "0,2,3,4", "0,0,1,2", "0,9,1,2", "0,1,2"])
CORRUPTIONS = st.sampled_from(["", "}", "-1", "99", '"x"', "[]", "null"])
GEN_KINDS = st.sampled_from(["random-ftg", "random-colored", "psi-reduce", "psi-reduce-ham"])
GEN_SIZES = st.sampled_from(["-1", "0", "1", "3", "6"])
GEN_PROBS = st.sampled_from(["-0.5", "0", "0.5", "1", "2"])
GEN_MH = st.sampled_from(["-1", "0", "1", "3", "16", "30", "100000"])


@st.composite
def instance_text(draw):
    """A small serialized instance, with a slice replaced one time in four."""
    n = draw(st.integers(0, 6))
    directed = draw(st.booleans())
    cand = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(cand), unique=True, max_size=10)) if cand else []
    if directed:
        g = DiGraph(n, edges, [draw(st.integers(0, 2)) for _ in edges])
    else:
        g = Graph(n, edges)
    ts = TransitionSystem([p for p in sorted(all_transitions(g).pairs) if draw(st.booleans())])
    coloring = None
    if edges and draw(st.booleans()):
        coloring = EdgeColoring(tuple(draw(st.integers(1, 3)) for _ in edges), 3)
    text = serialize_instance(Instance(g, ts, coloring=coloring)).decode()
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(CORRUPTIONS) + text[j:]
    return g, text


@st.composite
def cli_argv(draw, inst, dec):
    cmd = draw(st.sampled_from(
        ["compath", "detour", "comvdp", "pchc", "dsp", "validate", "oracle"]
    ))
    argv = [cmd]
    if cmd == "oracle":
        problem = draw(st.sampled_from(["compath", "disjoint", "pchc", "2dspp"]))
        argv += [problem, "--instance", inst]
        if problem == "compath":
            argv += draw(st.sampled_from([[], ["--from", draw(ENDPOINTS)]]))
            argv += ["--to", draw(ENDPOINTS), "--max-len", draw(SMALL)]
        elif problem == "disjoint":
            argv += ["--pairs", draw(PAIRS)]
        elif problem == "2dspp":
            argv += ["--pairs", draw(QUADS)]
    else:
        argv += ["--instance", inst]
    if cmd == "compath":
        argv += ["--from", draw(ENDPOINTS), "--to", draw(ENDPOINTS), "--max-len", draw(SMALL)]
    elif cmd == "detour":
        argv += ["--from", draw(VERTICES), "--to", draw(VERTICES), "--slack", draw(SMALL)]
    elif cmd == "comvdp":
        argv += ["--pairs", draw(PAIRS)]
        argv += draw(st.sampled_from([[], ["--decomposition", dec]]))
    elif cmd == "pchc":
        argv += ["--decomposition", dec, "--engine", draw(st.sampled_from(["naive", "rank"]))]
    elif cmd == "dsp":
        argv += ["--mode", draw(st.sampled_from(["edge", "vertex"])), "--pairs", draw(QUADS)]
    return argv + draw(st.sampled_from([[], ["--strict-exit"]]))


def _check_one_run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    assert out.count("\n") == 1
    if argv[0] == "gen" and code == 0:
        parse_instance(out.encode())
        return
    report = json.loads(out)
    assert report["schema"] == "transita-report/1"
    assert code in (0, 1, 2)
    assert (code == 2) == ("error" in report) == (report["answer"] is None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_run_writes_one_report(data):
    g, text = data.draw(instance_text())
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "inst.json")
        with open(inst, "w") as fh:
            fh.write(text)
        dec = os.path.join(tmp, "dec.json")
        with open(dec, "wb") as fh:
            fh.write(serialize_decomposition(single_bag_treecut(g)))
        _check_one_run(data.draw(cli_argv(inst, dec)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=GEN_KINDS, n=GEN_SIZES, p=GEN_PROBS, q=GEN_PROBS, colors=GEN_SIZES,
       mh=GEN_MH, seed=st.sampled_from(["0", "1", "7"]), strict=st.booleans())
def test_every_gen_run_writes_one_report_or_instance(kind, n, p, q, colors, mh, seed, strict):
    argv = ["gen", kind, "--n", n, "--p", p, "--q", q, "--colors", colors, "--mh", mh,
            "--seed", seed]
    _check_one_run(argv + ["--strict-exit"] * strict)
