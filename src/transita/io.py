"""Instance and decomposition file formats (UTF-8 JSON).

Instance::

    {"directed": bool, "n": int, "edges": [[u, v], ...],
     "weights": [num | ["p", "q"], ...]?,      # rationals as string pairs
     "colors": [int, ...]?,
     "transitions": [[e, f], ...],
     "terminals": [[a, b], ...]?}

Edge index = position in "edges".  Counts, ids and colors are JSON
integers; true and false are not.  Weights are exact lengths (see
core.DiGraph): a float such as 0.1 means its exact binary value, which the
graph keeps as a Fraction, and serialize_instance writes that value, like
every Fraction, as ["p", "q"], so parse(serialize(x)) == x.  NaN and
infinite weights are rejected.  Decomposition::

    {"root": int, "tree_edges": [[t, t'], ...], "bags": [[v, ...], ...]}

Each rule is checked once: here the shapes and types of every field and
every id range but the edge endpoints', one loop per list; in core the
graph rules (the Graph and DiGraph constructors) and the transition rules
(validate_transition_system).
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


def _id_pair(p, field: str, i: int, noun: str, bound: Optional[int] = None) -> tuple:
    """Item i of list field as a pair of integer ids, each below bound if
    given; the field name is formatted only when the item fails."""
    if type(p) is list and len(p) == 2:
        a, b = p
        if type(a) is int and type(b) is int:
            if bound is None or (0 <= a < bound and 0 <= b < bound):
                return a, b
            raise InstanceFormatError(f"{field}[{i}]", f"{noun} id out of range")
    raise InstanceFormatError(f"{field}[{i}]", f"must be a pair of {noun} ids")


def _load(data: Union[bytes, str], what: str) -> dict:
    """The JSON object in UTF-8 data; what names the file kind in errors."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise InstanceFormatError(f"line {line}", f"not UTF-8: {exc.reason}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}", exc.msg) from exc
    _expect(isinstance(obj, dict), "$", f"{what} must be a JSON object")
    return obj


def _parse_weight(w, i: int):
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        return w
    if isinstance(w, list) and len(w) == 2 and all(isinstance(x, str) for x in w):
        try:
            return Fraction(int(w[0]), int(w[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"weights[{i}]", f"bad rational {w!r}: {exc}") from exc
    message = f"weight must be a number or [\"p\",\"q\"], got {w!r}"
    raise InstanceFormatError(f"weights[{i}]", message)


def parse_instance(data: Union[bytes, str]) -> Instance:
    """Parse an instance file; malformed input raises InstanceFormatError."""
    obj = _load(data, "instance")
    _expect("n" in obj, "n", "missing field")
    _expect("edges" in obj, "edges", "missing field")
    n = obj["n"]
    _expect(type(n) is int and n >= 0, "n", "must be a nonnegative integer")
    directed = obj.get("directed", False)
    _expect(isinstance(directed, bool), "directed", "must be a boolean")
    raw = obj["edges"]
    _expect(isinstance(raw, list), "edges", "must be a list")
    edges = [_id_pair(e, "edges", i, "vertex") for i, e in enumerate(raw)]
    m = len(edges)
    weights = None
    if obj.get("weights") is not None:
        raw = obj["weights"]
        _expect(isinstance(raw, list), "weights", "must be a list")
        _expect(len(raw) == m, "weights", "one weight per edge required")
        weights = [_parse_weight(w, i) for i, w in enumerate(raw)]
        for i, w in enumerate(weights):
            if isinstance(w, float) and not math.isfinite(w):
                raise InstanceFormatError(f"weights[{i}]", "must be finite")
            if w < 0:
                raise InstanceFormatError(f"weights[{i}]", "must be nonnegative")
    _expect(directed or weights is None, "weights", "weights require a directed instance")
    try:
        graph = DiGraph(n, edges, weights) if directed else Graph(n, edges)
    except ValueError as exc:
        raise InstanceFormatError("edges", str(exc)) from exc

    coloring = None
    if obj.get("colors") is not None:
        raw = obj["colors"]
        _expect(isinstance(raw, list), "colors", "must be a list")
        _expect(len(raw) == m, "colors", "one color per edge required")
        for i, c in enumerate(raw):
            if type(c) is not int or c < 1:
                raise InstanceFormatError(f"colors[{i}]", "colors are integers >= 1")
        coloring = EdgeColoring(tuple(raw), max(raw) if raw else 1)

    raw = obj.get("transitions", [])
    _expect(isinstance(raw, list), "transitions", "must be a list")
    ts = TransitionSystem([_id_pair(p, "transitions", i, "edge", m) for i, p in enumerate(raw)])
    bad = validate_transition_system(graph, ts)
    _expect(not bad, "transitions", "; ".join(f"{v.pair}: {v.reason}" for v in bad))

    terminals = None
    if obj.get("terminals") is not None:
        raw = obj["terminals"]
        _expect(isinstance(raw, list), "terminals", "must be a list")
        seen = set()
        for i, p in enumerate(raw):
            a, b = _id_pair(p, "terminals", i, "vertex", n)
            if a == b:
                raise InstanceFormatError(f"terminals[{i}]", "terminals must be distinct")
            if a in seen or b in seen:
                raise InstanceFormatError(f"terminals[{i}]", "terminal reused")
            seen.update((a, b))
        terminals = tuple(tuple(p) for p in raw)

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
    obj = _load(data, "decomposition")
    for field in ("root", "tree_edges", "bags"):
        _expect(field in obj, field, "missing field")
    bags = obj["bags"]
    _expect(isinstance(bags, list) and bags, "bags", "must be a nonempty list")
    for i, bag in enumerate(bags):
        if type(bag) is not list or any(type(v) is not int for v in bag):
            raise InstanceFormatError(f"bags[{i}]", "must be a list of vertex ids")
    root = obj["root"]
    _expect(type(root) is int and 0 <= root < len(bags), "root", "node id out of range")
    te = obj["tree_edges"]
    _expect(isinstance(te, list), "tree_edges", "must be a list")
    tree_edges = tuple(_id_pair(e, "tree_edges", i, "node", len(bags)) for i, e in enumerate(te))
    dec = DecompositionFile(root, tree_edges, tuple(tuple(b) for b in bags))
    dec.children_map()
    return dec


def serialize_decomposition(dec: DecompositionFile) -> bytes:
    obj = {
        "root": dec.root,
        "tree_edges": [list(e) for e in dec.tree_edges],
        "bags": [list(b) for b in dec.bags],
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
