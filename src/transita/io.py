"""Instance and decomposition file formats (UTF-8 JSON).

Instance::

    {"directed": bool, "n": int, "edges": [[u, v], ...],
     "weights": [num | ["p", "q"], ...]?,      # rationals as string pairs
     "colors": [int, ...]?,
     "transitions": [[e, f], ...],
     "terminals": [[a, b], ...]?}

Edge index = position in "edges".  Weights are exact lengths (see
core.DiGraph): a float such as 0.1 means its exact binary value, which the
graph keeps as a Fraction, and serialize_instance writes that value, like
every Fraction, as ["p", "q"], so parse(serialize(x)) == x.  NaN and
infinite weights are rejected.  Decomposition::

    {"root": int, "tree_edges": [[t, t'], ...], "bags": [[v, ...], ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import DiGraph, EdgeColoring, Graph, TransitionSystem, validate_transition_system


class InstanceFormatError(ValueError):
    """Malformed instance or decomposition input; carries a field diagnostic."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Instance:
    """A forbidden-transition graph with optional colors, weights, terminals."""

    graph: Union[Graph, DiGraph]
    transitions: TransitionSystem
    coloring: Optional[EdgeColoring] = None
    terminals: Optional[tuple] = None

    @property
    def directed(self) -> bool:
        return isinstance(self.graph, DiGraph)


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise InstanceFormatError(field, message)


def _parse_weight(w, field: str):
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        return w
    if isinstance(w, list) and len(w) == 2 and all(isinstance(x, str) for x in w):
        try:
            return Fraction(int(w[0]), int(w[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(field, f"bad rational {w!r}: {exc}") from exc
    raise InstanceFormatError(field, f"weight must be a number or [\"p\",\"q\"], got {w!r}")


def parse_instance(data: Union[bytes, str]) -> Instance:
    """Parse an instance file; malformed input raises InstanceFormatError."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}", exc.msg) from exc
    _expect(isinstance(obj, dict), "$", "instance must be a JSON object")
    _expect("n" in obj, "n", "missing field")
    _expect("edges" in obj, "edges", "missing field")
    n = obj["n"]
    _expect(isinstance(n, int) and n >= 0, "n", "must be a nonnegative integer")
    directed = obj.get("directed", False)
    _expect(isinstance(directed, bool), "directed", "must be a boolean")
    edges = obj["edges"]
    _expect(isinstance(edges, list), "edges", "must be a list")
    for i, e in enumerate(edges):
        _expect(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, int) for x in e),
            f"edges[{i}]",
            "must be a pair of vertex ids",
        )
    weights = None
    if obj.get("weights") is not None:
        raw = obj["weights"]
        _expect(isinstance(raw, list), "weights", "must be a list")
        _expect(len(raw) == len(edges), "weights", "one weight per edge required")
        weights = [_parse_weight(w, f"weights[{i}]") for i, w in enumerate(raw)]
        for i, w in enumerate(weights):
            finite = not isinstance(w, float) or math.isfinite(w)
            _expect(finite, f"weights[{i}]", "must be finite")
            _expect(w >= 0, f"weights[{i}]", "must be nonnegative")
    try:
        if directed:
            graph = DiGraph(n, edges, weights)
        else:
            _expect(weights is None, "weights", "weights require a directed instance")
            graph = Graph(n, edges)
    except ValueError as exc:
        raise InstanceFormatError("edges", str(exc)) from exc

    coloring = None
    if obj.get("colors") is not None:
        raw = obj["colors"]
        _expect(isinstance(raw, list), "colors", "must be a list")
        _expect(len(raw) == len(edges), "colors", "one color per edge required")
        for i, c in enumerate(raw):
            _expect(isinstance(c, int) and c >= 1, f"colors[{i}]", "colors are integers >= 1")
        coloring = EdgeColoring(tuple(raw), max(raw) if raw else 1)

    trans = obj.get("transitions", [])
    _expect(isinstance(trans, list), "transitions", "must be a list")
    pairs = []
    for i, p in enumerate(trans):
        _expect(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) for x in p),
            f"transitions[{i}]",
            "must be a pair of edge ids",
        )
        e, f = p
        _expect(
            0 <= e < len(edges) and 0 <= f < len(edges),
            f"transitions[{i}]",
            "edge id out of range",
        )
        pairs.append((e, f))
    ts = TransitionSystem(pairs)
    bad = validate_transition_system(graph, ts)
    _expect(not bad, "transitions", "; ".join(f"{v.pair}: {v.reason}" for v in bad))

    terminals = None
    if obj.get("terminals") is not None:
        raw = obj["terminals"]
        _expect(isinstance(raw, list), "terminals", "must be a list")
        seen = set()
        pairs_t = []
        for i, p in enumerate(raw):
            _expect(
                isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) for x in p),
                f"terminals[{i}]",
                "must be a pair of vertex ids",
            )
            a, b = p
            _expect(0 <= a < n and 0 <= b < n, f"terminals[{i}]", "vertex id out of range")
            _expect(a != b, f"terminals[{i}]", "terminals must be distinct")
            _expect(a not in seen and b not in seen, f"terminals[{i}]", "terminal reused")
            seen.update((a, b))
            pairs_t.append((a, b))
        terminals = tuple(pairs_t)

    return Instance(graph, ts, coloring, terminals)


def _serialize_weight(w):
    if isinstance(w, Fraction):
        return [str(w.numerator), str(w.denominator)]
    return w


def serialize_instance(inst: Instance) -> bytes:
    """Serialize an instance; parse(serialize(x)) is structurally x."""
    g = inst.graph
    obj = {
        "directed": inst.directed,
        "n": g.n,
        "edges": [list(e) for e in (g.arcs if inst.directed else g.edges)],
    }
    if inst.directed and g.weights is not None:
        obj["weights"] = [_serialize_weight(w) for w in g.weights]
    if inst.coloring is not None:
        obj["colors"] = list(inst.coloring.colors)
    obj["transitions"] = [list(p) for p in sorted(inst.transitions.pairs)]
    if inst.terminals is not None:
        obj["terminals"] = [list(p) for p in inst.terminals]
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


@dataclass(frozen=True)
class DecompositionFile:
    """A rooted tree with one bag per node, shared by tree and treecut formats."""

    root: int
    tree_edges: tuple
    bags: tuple

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    def children_map(self) -> dict:
        """Rooted child lists; raises if tree_edges do not form a tree."""
        nodes = self.num_nodes
        adj = {i: [] for i in range(nodes)}
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        children = {i: [] for i in range(nodes)}
        seen = {self.root}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    children[v].append(w)
                    stack.append(w)
        if len(seen) != nodes or len(self.tree_edges) != nodes - 1:
            raise InstanceFormatError("tree_edges", "edges do not form a tree on all nodes")
        return children


def postorder(children, root) -> list:
    """Nodes of a rooted tree, each after its children; children[t] lists
    t's children in the order they are visited."""
    order = []
    stack = [root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(children[t])
    order.reverse()
    return order


def parse_decomposition(data: Union[bytes, str]) -> DecompositionFile:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}", exc.msg) from exc
    _expect(isinstance(obj, dict), "$", "decomposition must be a JSON object")
    for field in ("root", "tree_edges", "bags"):
        _expect(field in obj, field, "missing field")
    bags = obj["bags"]
    _expect(isinstance(bags, list) and bags, "bags", "must be a nonempty list")
    for i, bag in enumerate(bags):
        _expect(
            isinstance(bag, list) and all(isinstance(v, int) for v in bag),
            f"bags[{i}]",
            "must be a list of vertex ids",
        )
    root = obj["root"]
    _expect(isinstance(root, int) and 0 <= root < len(bags), "root", "node id out of range")
    te = obj["tree_edges"]
    _expect(isinstance(te, list), "tree_edges", "must be a list")
    for i, e in enumerate(te):
        _expect(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, int) for x in e),
            f"tree_edges[{i}]",
            "must be a pair of node ids",
        )
        _expect(
            all(0 <= x < len(bags) for x in e),
            f"tree_edges[{i}]",
            "node id out of range",
        )
    dec = DecompositionFile(root, tuple(tuple(e) for e in te), tuple(tuple(b) for b in bags))
    dec.children_map()
    return dec


def serialize_decomposition(dec: DecompositionFile) -> bytes:
    obj = {
        "root": dec.root,
        "tree_edges": [list(e) for e in dec.tree_edges],
        "bags": [list(b) for b in dec.bags],
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
