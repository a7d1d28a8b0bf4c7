"""Unified command-line frontend.

Decision output is a single JSON report on stdout; diagnostics go to
stderr.  All randomized behavior is seed-controlled and reports embed the
seed, so identical invocations are byte-identical apart from the elapsed
time field.

Every report carries "schema" (``transita-report/1``), "solver", "seed",
"answer" and "stats", plus "input_digest" (SHA-256 of the instance file)
once the instance has been read.  A run that cannot answer still writes
exactly one report, with ``"answer": null`` and
``"error": {"kind": ..., "message": ...}``.  The kinds are:

- ``file``: a file cannot be read or written;
- ``input-format``: a malformed instance or decomposition file, or a
  decomposition that does not fit the instance;
- ``unsupported-instance``: the command cannot take this kind of instance
  (wrong directedness, no edge colors, a zero-length directed cycle);
- ``argument``: a flag value that is malformed or out of range;
- ``width-bound``: no decomposition within ``--max-width``;
- ``size-limit``: the instance exceeds a documented size guard;
- ``internal``: a solver's own result check failed, which is a bug in the
  solver, not in the input.

``compath``, ``detour`` and ``dsp`` build the path behind every "yes" and
check it before they report; ``--witness`` only adds it to the report, as
"witness" (``dsp`` always reports its two "paths").  ``compath`` and
``detour`` reports carry "certified": false when the hash family swept was
seeded random rather than certified perfect (n > 32), so that a "no" is
only probable.  Neither is uncertified unless colour coding swept such a
family: an answer from the shortest compatible walk sweeps none (see
``compath`` and ``detour``).  A ``compath`` report's "family_size" is the
size of the family swept, 0 when none was.  A ``detour`` report's "stats"
also holds the solver's counters ``oriented_calls`` and ``goals`` (see
``detour.comdetour``).  A ``pchc`` report carries ``max_family`` and, from
the rank engine (null for ``--engine naive``), ``max_family_before_prune``
and ``dead_groups`` (see ``pchc.rank_based_pchc``).

Exit codes: 0 when the run answers; 1 when it answers "no" under
``--strict-exit``; 2 for an error report.  Usage errors found by argparse
(a missing required flag, a non-integer where one is expected) print the
usage to stderr and also exit with 2, without a report.  ``gen`` writes an
instance instead of a report unless it fails.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager

from . import io as tio
from . import compath as _compath
from .compath import compath
from .core import Endpoint, InvariantError, TransitionSystem, validate_transition_system
from .detour import comdetour
from .dsp import (
    PositivityError,
    check_positive_cycles,
    edge_disjoint_2dspp,
    vertex_disjoint_2dspp,
)
from .genred import (
    gen_random_edge_colored,
    gen_random_ftg,
    gen_random_psi,
    hamiltonian_reduction,
    psi_reduction,
)
from .oracle import (
    OracleSizeError,
    brute_2dspp,
    brute_compatible_path,
    brute_disjoint_paths,
    brute_pchc,
)
from .pchc import naive_pchc, rank_based_pchc, validate_tree_decomposition
from .treecut import EXHAUSTIVE_MAX_N, comvdp, exhaustive_treecut_decomposition

SCHEMA = "transita-report/1"

# compath() builds the family it sweeps, and reports it through its stats;
# the name stays here because the benchmark's tracer wraps
# transita.cli.family_for_bound (bench/tracing.py)
family_for_bound = _compath.family_for_bound


class CliError(Exception):
    """A run that cannot answer; main() turns it into an error report."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


@contextmanager
def _reported_as(kind: str, *errors):
    """Re-raise the listed library errors as a CliError of the given kind."""
    try:
        yield
    except errors as exc:
        raise CliError(kind, str(exc)) from exc


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with _reported_as("file", OSError), open(path, "rb") as fh:
        return fh.read()


def _load_instance(args, report, directed=False, colored=False) -> tio.Instance:
    """Parse --instance, record its digest, and check the instance kind.

    directed=None accepts both kinds of graph.
    """
    raw = _read(args.instance)
    report["input_digest"] = _digest(raw)
    with _reported_as("input-format", tio.InstanceFormatError):
        inst = tio.parse_instance(raw)
    if directed is not None and inst.directed != directed:
        want = "a directed" if directed else "an undirected"
        raise CliError("unsupported-instance", f"{report['solver']} needs {want} instance")
    if colored and inst.coloring is None:
        raise CliError(
            "unsupported-instance", f"{report['solver']} needs an edge-colored instance"
        )
    return inst


def _load_decomposition(path):
    raw = _read(path)
    with _reported_as("input-format", tio.InstanceFormatError):
        return tio.parse_decomposition(raw)


def _check_id(ident: int, bound: int, kind: str, flag: str) -> None:
    if not 0 <= ident < bound:
        raise CliError("argument", f"{flag}: {kind} {ident} out of range [0, {bound})")


def _endpoint(text, g, flag: str) -> Endpoint:
    """A vertex id, or eK for edge K, of g."""
    if text is None:
        raise CliError("argument", f"{flag} is required")
    kind, body, bound = ("edge", text[1:], g.m) if text.startswith("e") else ("vertex", text, g.n)
    try:
        ident = int(body)
    except ValueError:
        raise CliError("argument", f"{flag}: expected a vertex id or eK, got {text!r}") from None
    _check_id(ident, bound, kind, flag)
    return Endpoint(kind, ident)


def _vertices(text: str, g, count: int) -> list:
    """Exactly `count` comma-separated vertex ids of g, from --pairs."""
    try:
        vs = [int(x) for x in text.split(",")]
    except ValueError:
        vs = []
    if len(vs) != count:
        raise CliError(
            "argument", f"--pairs: expected {count} comma-separated vertex ids, got {text!r}"
        )
    for v in vs:
        _check_id(v, g.n, "vertex", "--pairs")
    return vs


def _two_pairs(text: str, g) -> tuple:
    s1, t1, s2, t2 = _vertices(text, g, 4)
    if s1 == t1 or s2 == t2:
        raise CliError("argument", "--pairs: each pair needs two distinct vertices")
    return s1, t1, s2, t2


def _emit(report: dict, started: float, args) -> int:
    report["schema"] = SCHEMA
    report["stats"] = dict(report.get("stats", {}))
    report["stats"]["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 3)
    json.dump(report, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    if "error" in report:
        return 2
    if args.strict_exit and report["answer"] is not True:
        return 1
    return 0


def _pairs_from(args, inst) -> list:
    if args.pairs:
        return [tuple(_vertices(item, inst.graph, 2)) for item in args.pairs]
    return list(inst.terminals or ())


def cmd_compath(args, report) -> None:
    inst = _load_instance(args, report)
    g = inst.graph
    x = _endpoint(getattr(args, "from"), g, "--from")
    y = _endpoint(args.to, g, "--to")
    stats = {}
    length, wit = compath(
        g, inst.transitions, x, y, args.max_len, seed=args.seed, witness=True, stats=stats,
    )
    report.update(
        answer=length is not None, length=length,
        family_size=stats["family_size"], certified=stats["certified"],
    )
    if args.witness and wit is not None:
        report["witness"] = list(wit.vertices)


def cmd_detour(args, report) -> None:
    inst = _load_instance(args, report)
    s, tgt = getattr(args, "from"), args.to
    _check_id(s, inst.graph.n, "vertex", "--from")
    _check_id(tgt, inst.graph.n, "vertex", "--to")
    if args.slack < 0:
        raise CliError("argument", "--slack must be nonnegative")
    stats = {}
    res = comdetour(
        inst.graph, inst.transitions, s, tgt, args.slack,
        seed=args.seed, witness=args.witness, stats=stats,
    )
    report.update(
        answer=res.yes, yes=res.yes, nu=res.nu, dist=res.dist, certified=res.certified,
        stats=stats,
    )
    if res.diagnostic:
        report["diagnostic"] = res.diagnostic
    if args.witness and res.witness is not None:
        report["witness"] = list(res.witness.vertices)


def cmd_comvdp(args, report) -> None:
    inst = _load_instance(args, report)
    g = inst.graph
    pairs = _pairs_from(args, inst)
    if args.decomposition:
        dec = _load_decomposition(args.decomposition)
        if sorted(v for bag in dec.bags for v in bag) != list(range(g.n)):
            raise CliError("input-format", "decomposition bags must partition the vertex set")
    elif g.n > EXHAUSTIVE_MAX_N:
        raise CliError(
            "size-limit",
            f"decomposition search needs n <= {EXHAUSTIVE_MAX_N}; pass --decomposition",
        )
    else:
        dec = exhaustive_treecut_decomposition(g, args.max_width)
        if dec is None:
            raise CliError(
                "width-bound", f"no tree-cut decomposition of width <= {args.max_width} found"
            )
    yes, info = comvdp(g, inst.transitions, pairs, dec)
    report.update(answer=yes, yes=yes, width=info.get("width"), nice=info.get("nice"))


def cmd_pchc(args, report) -> None:
    inst = _load_instance(args, report, colored=True)
    dec = _load_decomposition(args.decomposition)
    bad = validate_tree_decomposition(inst.graph, dec)
    if bad:
        raise CliError("input-format", "invalid tree decomposition: " + "; ".join(bad))
    stats = {}
    if args.engine == "naive":
        yes = naive_pchc(inst.graph, inst.coloring, dec, stats=stats)
    else:
        yes = rank_based_pchc(inst.graph, inst.coloring, dec, stats=stats)
    report.update(
        answer=yes, yes=yes,
        max_family=stats.get("max_family", 0),
        max_family_before_prune=stats.get("max_family_before_prune"),
        dead_groups=stats.get("dead_groups"),
        field_a=stats.get("field_a"),
    )


def cmd_dsp(args, report) -> None:
    inst = _load_instance(args, report, directed=True)
    s1, t1, s2, t2 = _two_pairs(args.pairs, inst.graph)
    with _reported_as("unsupported-instance", PositivityError):
        check_positive_cycles(inst.graph)
    fn = edge_disjoint_2dspp if args.mode == "edge" else vertex_disjoint_2dspp
    res = fn(inst.graph, inst.transitions, s1, t1, s2, t2)
    report.update(answer=res.yes, yes=res.yes)
    if res.paths is not None:
        report["paths"] = [list(w.vertices) for w in res.paths]
    if res.diagnostic:
        report["diagnostic"] = res.diagnostic


def cmd_validate(args, report) -> None:
    inst = _load_instance(args, report, directed=None)
    violations = validate_transition_system(inst.graph, inst.transitions)
    report.update(
        answer=not violations,
        violations=[{"pair": list(v.pair), "reason": v.reason} for v in violations],
    )


def _write_instance(inst, args) -> None:
    data = tio.serialize_instance(inst)
    if args.out:
        with _reported_as("file", OSError), open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def cmd_gen(args, report) -> None:
    if args.n < 0:
        raise CliError("argument", "--n must be nonnegative")
    # the generators reject parameters they cannot realize with ValueError
    with _reported_as("argument", ValueError):
        if args.kind == "random-ftg":
            g, t = gen_random_ftg(args.n, args.p, args.q, args.seed)
            inst = tio.Instance(g, t)
        elif args.kind == "random-colored":
            if args.colors < 1:
                raise CliError("argument", "--colors must be at least 1")
            g, c = gen_random_edge_colored(args.n, args.p, args.colors, args.seed)
            inst = tio.Instance(g, TransitionSystem(), coloring=c)
        else:
            if args.mh < 1:
                raise CliError("argument", "--mh must be at least 1")
            psi = gen_random_psi(args.mh, args.n, args.p, args.seed)
            if args.kind == "psi-reduce":
                out = psi_reduction(psi)
                inst = tio.Instance(
                    out.graph, out.transition_system(), terminals=((out.s, out.t),)
                )
            else:  # psi-reduce-ham
                out = hamiltonian_reduction(psi)
                inst = tio.Instance(out.graph, out.transition_system())
    _write_instance(inst, args)


def cmd_oracle(args, report) -> None:
    inst = _load_instance(
        args, report, directed=args.problem == "2dspp", colored=args.problem == "pchc"
    )
    g, t = inst.graph, inst.transitions
    with _reported_as("size-limit", OracleSizeError):
        if args.problem == "compath":
            x = _endpoint(getattr(args, "from"), g, "--from")
            y = _endpoint(args.to, g, "--to")
            length = brute_compatible_path(g, t, x, y, args.max_len)
            report.update(answer=length is not None, length=length)
            return
        if args.problem == "disjoint":
            yes = brute_disjoint_paths(g, t, _pairs_from(args, inst), args.mode)
        elif args.problem == "pchc":
            yes = brute_pchc(g, inst.coloring)
        else:  # 2dspp
            s1, t1, s2, t2 = _two_pairs(",".join(args.pairs or ()), g)
            yes = brute_2dspp(g, t, [(s1, t1), (s2, t2)], args.mode)
    report.update(answer=yes, yes=yes)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once, as it depends on nothing at run time."""
    ap = argparse.ArgumentParser(
        prog="transita",
        description="Solvers, oracles and generators for forbidden-transition graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict-exit", action="store_true")

    p = sub.add_parser("compath", help="shortest compatible path of bounded length")
    p.add_argument("--instance", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compath, solver="compath")

    p = sub.add_parser("detour", help="compatible path within dist+slack")
    p.add_argument("--instance", required=True)
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--slack", type=int, required=True)
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(func=cmd_detour, solver="detour")

    p = sub.add_parser("comvdp", help="compatible vertex-disjoint paths")
    p.add_argument("--instance", required=True)
    p.add_argument("--decomposition")
    p.add_argument("--pairs", nargs="*")
    p.add_argument("--max-width", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_comvdp, solver="comvdp")

    p = sub.add_parser("pchc", help="properly colored Hamiltonian cycle")
    p.add_argument("--instance", required=True)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--engine", choices=("naive", "rank"), default="rank")
    common(p)
    p.set_defaults(func=cmd_pchc, solver="pchc-{engine}")

    p = sub.add_parser("dsp", help="two disjoint shortest compatible paths")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("edge", "vertex"), required=True)
    p.add_argument("--pairs", required=True, help="s1,t1,s2,t2")
    common(p)
    p.set_defaults(func=cmd_dsp, solver="dsp-{mode}")

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--instance", required=True)
    common(p)
    p.set_defaults(func=cmd_validate, solver="validate")

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument(
        "kind",
        choices=("random-ftg", "random-colored", "psi-reduce", "psi-reduce-ham"),
    )
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--q", type=float, default=0.7)
    p.add_argument("--colors", type=int, default=3)
    p.add_argument("--mh", type=int, default=2)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_gen, solver="gen-{kind}")

    p = sub.add_parser("oracle", help="brute-force reference solvers")
    p.add_argument("problem", choices=("compath", "disjoint", "pchc", "2dspp"))
    p.add_argument("--instance", required=True)
    p.add_argument("--from", dest="from")
    p.add_argument("--to")
    p.add_argument("--max-len", type=int)
    p.add_argument("--mode", choices=("edge", "vertex"), default="vertex")
    p.add_argument("--pairs", nargs="*")
    common(p)
    p.set_defaults(func=cmd_oracle, solver="oracle-{problem}")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    # Solver names are templates over the flags, e.g. "dsp-{mode}".
    report = {"solver": args.solver.format_map(vars(args)), "seed": args.seed}
    try:
        args.func(args, report)
    except CliError as exc:
        report.update(answer=None, error={"kind": exc.kind, "message": str(exc)})
    except InvariantError as exc:
        report.update(answer=None, error={"kind": "internal", "message": str(exc)})
    if "answer" not in report:  # gen wrote an instance, not a report
        return 0
    return _emit(report, started, args)


if __name__ == "__main__":
    raise SystemExit(main())
