"""Instance generators and hardness-reduction constructions.

The reductions turn a partitioned subgraph isomorphism instance into a
forbidden-transition graph whose compatible s-t path (or compatible
Hamiltonian cycle) existence matches the original answer.  Outputs carry
their named gadget structure so the structural guarantees (modulator to a
linear forest, width-2 path decomposition of the remainder) can be checked
directly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .core import EdgeColoring, Graph, TransitionSystem, all_transitions, components


def gen_random_ftg(n: int, p_edge: float, q_transition: float, seed: int):
    """Seeded G(n, p) graph with each potential transition kept with
    probability q; deterministic per seed."""
    rng = random.Random(f"ftg/{seed}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge
    ]
    g = Graph(n, edges)
    pairs = [p for p in sorted(all_transitions(g).pairs) if rng.random() < q_transition]
    return g, TransitionSystem(pairs)


def gen_random_edge_colored(n: int, p_edge: float, num_colors: int, seed: int):
    """Seeded G(n, p) graph with uniform edge colors in [num_colors]."""
    rng = random.Random(f"colored/{seed}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge
    ]
    g = Graph(n, edges)
    colors = tuple(rng.randint(1, num_colors) for _ in range(g.m))
    return g, EdgeColoring(colors, num_colors)


@dataclass(frozen=True)
class PSIInstance:
    """Partitioned subgraph isomorphism: find H in G respecting col."""

    g: Graph
    h: Graph
    col: tuple  # col[v] is the h-vertex (0-based) that g-vertex v maps to

    def validate(self) -> None:
        if len(self.col) != self.g.n:
            raise ValueError("col must be total on V(G)")
        for v, c in enumerate(self.col):
            if not (0 <= c < self.h.n):
                raise ValueError(f"col[{v}]={c} out of range")
        for u in range(self.h.n):
            if self.h.degree(u) == 0:
                raise ValueError(f"h-vertex {u} is isolated")
        for e, (u, v) in enumerate(self.g.edges):
            if self.col[u] == self.col[v]:
                raise ValueError(f"g-edge {e} joins two vertices of color {self.col[u]}")


def gen_random_psi(m_h: int, n_g: int, p_edge: float, seed: int) -> PSIInstance:
    """Seeded PSI instance with m_h pattern edges and at most n_g host vertices."""
    rng = random.Random(f"psi/{seed}")
    h_edges = set()
    guard = 0
    # at most 6 pattern vertices, or as few as can hold m_h edges
    cap = max(2, min(2 * m_h, 6))
    while cap * (cap - 1) // 2 < m_h:
        cap += 1
    while len(h_edges) < m_h:
        guard += 1
        if guard > 1000:
            raise ValueError(f"cannot realize {m_h} pattern edges in 1000 draws")
        u, v = rng.sample(range(cap), 2)
        h_edges.add((min(u, v), max(u, v)))
    used = sorted({v for e in h_edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    h = Graph(len(used), sorted((remap[u], remap[v]) for u, v in h_edges))
    n = max(h.n, n_g)
    col = tuple(rng.randrange(h.n) for _ in range(n))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if col[u] != col[v] and rng.random() < p_edge
    ]
    psi = PSIInstance(Graph(n, edges), h, col)
    psi.validate()
    return psi


def _transition_system(g: Graph, specified: Dict[int, Set[frozenset]]) -> TransitionSystem:
    """Every pair of edges at a vertex not in specified, and at a vertex in
    it the pairs whose other ends form one of its permitted neighbor pairs."""
    pairs = []
    for v in range(g.n):
        allowed = specified.get(v)
        for e, f in itertools.combinations(g.incident(v), 2):
            if allowed is None or frozenset((g.other_end(e, v), g.other_end(f, v))) in allowed:
                pairs.append((e, f))
    return TransitionSystem(pairs)


@dataclass
class ReductionOutput:
    """A forbidden-transition instance built from a PSI instance.

    Transitions of unnamed vertices default to all permitted pairs and are
    materialized only on demand, keeping the stored output small.
    """

    graph: Graph
    s: int
    t: int
    specified: Dict[int, Set[frozenset]]  # vertex -> permitted neighbor pairs
    y_vertices: tuple
    z_vertices: tuple
    path_vertices: tuple  # the selection path P from s to t_1, in order
    t1: int
    cycle_edge: Optional[int] = None

    def transition_system(self) -> TransitionSystem:
        return _transition_system(self.graph, self.specified)

    @property
    def modulator(self) -> tuple:
        return tuple(sorted(set(self.y_vertices) | set(self.z_vertices)))


def _ordered_color_edges(psi: PSIInstance, i: int) -> list:
    """Edges incident to color class i, grouped so each vertex's edges form
    a segment; vertices ascending, edges ascending within a segment."""
    out = []
    for v in range(psi.g.n):
        if psi.col[v] == i:
            out.extend(sorted(psi.g.incident(v)))
    return out


def psi_reduction(psi: PSIInstance) -> ReductionOutput:
    """The compatible s-t path construction for a PSI instance.

    Vertex-selection gadgets let the path skip exactly the row of one host
    vertex per color; edge-verification gadgets then force each pattern
    edge to be realized by a skipped (hence selected) host edge.
    """
    psi.validate()
    gH, gG = psi.h, psi.g
    n_h = gH.n

    vertices: List[str] = []

    def new_vertex(tag):
        vertices.append(tag)
        return len(vertices) - 1

    edges: Set[tuple] = set()

    def add_edge(u, v):
        edges.add((u, v) if u < v else (v, u))

    specified: Dict[int, Set[frozenset]] = {}

    def permit(v, a, b):
        specified.setdefault(v, set()).add(frozenset((a, b)))

    seg_edges = {i: _ordered_color_edges(psi, i) for i in range(n_h)}
    p_segments = {}
    for i in range(n_h):
        p_segments[i] = [new_vertex(f"P{i}.{j}") for j in range(len(seg_edges[i]) + 4)]
    path = [v for i in range(n_h) for v in p_segments[i]]
    s = path[0]
    t1 = path[-1]
    for u, v in zip(path, path[1:]):
        add_edge(u, v)
    for idx in range(1, len(path) - 1):
        permit(path[idx], path[idx - 1], path[idx + 1])

    def x_vertex(i, a):
        """The vertex of P^i corresponding to the a-th (1-based) edge of E_i."""
        return p_segments[i][a + 1]

    y_vertices = []
    pos_in_path = {v: k for k, v in enumerate(path)}
    for i in range(n_h):
        y = new_vertex(f"y{i}")
        y_vertices.append(y)
        for v in range(gG.n):
            if psi.col[v] != i or gG.degree(v) == 0:
                continue
            idxs = [a + 1 for a, e in enumerate(seg_edges[i], start=0) if e in set(gG.incident(v))]
            first, last = min(idxs), max(idxs)
            pre = p_segments[i][first]  # directly precedes x_first = segment[first+1]
            post = p_segments[i][last + 2]
            add_edge(pre, y)
            add_edge(y, post)
            permit(y, pre, post)
            # the two leading buffer vertices keep pre off the start of P^i,
            # so its predecessor always exists and lies on the same segment
            k = pos_in_path[pre]
            permit(pre, path[k - 1], y)
            k = pos_in_path[post]
            permit(post, y, path[k + 1])

    z_vertices = []
    h_edges = list(gH.edges)
    prev_z3 = None
    t = None
    z_first = None
    for p_idx, (hu, hv) in enumerate(h_edges):
        i, j = max(hu, hv), min(hu, hv)
        z1 = new_vertex(f"z{p_idx}.1")
        z2 = new_vertex(f"z{p_idx}.2")
        z3 = new_vertex(f"z{p_idx}.3")
        z_vertices.extend((z1, z2, z3))
        shared = [e for e in seg_edges[i] if e in set(seg_edges[j])]
        for e in shared:
            xa = x_vertex(i, seg_edges[i].index(e) + 1)
            xb = x_vertex(j, seg_edges[j].index(e) + 1)
            add_edge(z1, xa)
            add_edge(xa, z2)
            add_edge(z2, xb)
            add_edge(xb, z3)
            permit(xa, z1, z2)
            permit(xb, z2, z3)
            permit(z2, xa, xb)
        if p_idx == 0:
            add_edge(t1, z1)
            z_first = z1
        else:
            add_edge(prev_z3, z1)
        prev_z3 = z3
    t = new_vertex("t")
    add_edge(prev_z3, t)

    graph = Graph(len(vertices), sorted(edges))
    # z2 vertices with no permitted pair must still be specified (empty set)
    for p_idx in range(len(h_edges)):
        z2 = z_vertices[3 * p_idx + 1]
        specified.setdefault(z2, set())
    return ReductionOutput(
        graph=graph,
        s=s,
        t=t,
        specified=specified,
        y_vertices=tuple(y_vertices),
        z_vertices=tuple(z_vertices),
        path_vertices=tuple(path),
        t1=t1,
    )


def psi_reduction_cycle(psi: PSIInstance) -> ReductionOutput:
    """The compatible-cycle variant: the path construction plus edge {s, t}."""
    out = psi_reduction(psi)
    edges = list(out.graph.edges)
    cycle_edge = len(edges)
    edges.append((min(out.s, out.t), max(out.s, out.t)))
    return ReductionOutput(
        graph=Graph(out.graph.n, edges),
        s=out.s,
        t=out.t,
        specified=out.specified,  # s and t stay defaulted, permitting the new edge
        y_vertices=out.y_vertices,
        z_vertices=out.z_vertices,
        path_vertices=out.path_vertices,
        t1=out.t1,
        cycle_edge=cycle_edge,
    )


@dataclass
class HamiltonianReductionOutput:
    graph: Graph
    specified: Dict[int, Set[frozenset]]
    s: int
    t: int
    y_vertices: tuple
    z_vertices: tuple
    ladder_vertices: tuple  # u_1 .. u_{n+1} with u_1 = t, u_{n+1} = s
    rail_vertices: tuple  # v_1 .. v_n, the internal vertices of P
    bags: tuple  # width-2 path decomposition of the remainder

    def transition_system(self) -> TransitionSystem:
        return _transition_system(self.graph, self.specified)

    @property
    def modulator(self) -> tuple:
        return tuple(sorted(set(self.y_vertices) | set(self.z_vertices) | {self.s, self.t}))


def hamiltonian_reduction(psi: PSIInstance) -> HamiltonianReductionOutput:
    """The compatible Hamiltonian cycle construction.

    A ladder path parallel to the selection path lets the cycle sweep up
    every vertex skipped on the way from s to t; removing the modulator
    leaves a skewed ladder with an explicit width-2 path decomposition.
    """
    base = psi_reduction(psi)
    rails = base.path_vertices[1:-1]  # internal vertices of P
    n = len(rails)
    vertices = base.graph.n
    edges = list(base.graph.edges)
    specified = {v: set(ps) for v, ps in base.specified.items()}

    def permit(v, a, b):
        specified.setdefault(v, set()).add(frozenset((a, b)))

    ladder = [base.t]
    for k in range(1, n):
        ladder.append(vertices)
        vertices += 1
    ladder.append(base.s)

    def add_edge(u, v):
        edges.append((u, v) if u < v else (v, u))

    for k in range(len(ladder) - 1):
        add_edge(ladder[k], ladder[k + 1])
    for k in range(n):
        u_cur, u_nxt, v_cur = ladder[k], ladder[k + 1], rails[k]
        add_edge(u_cur, v_cur)
        add_edge(v_cur, u_nxt)
        permit(v_cur, u_cur, u_nxt)

    bags = []
    for k in range(1, n):
        bags.append((ladder[k - 1], ladder[k], rails[k - 1]))
        bags.append((ladder[k], rails[k - 1], rails[k]))
    # the selection path's inner endpoint keeps one remainder edge to the
    # last rail vertex; one extra bag covers it
    bags.append((rails[-1], base.t1))
    return HamiltonianReductionOutput(
        graph=Graph(vertices, sorted(set(edges))),
        specified=specified,
        s=base.s,
        t=base.t,
        y_vertices=base.y_vertices,
        z_vertices=base.z_vertices,
        ladder_vertices=tuple(ladder),
        rail_vertices=tuple(rails),
        bags=tuple(bags),
    )


# ---------------------------------------------------------------------------
# Structural validators used by tests and the acceptance suite.


def is_linear_forest(g: Graph, removed: Sequence[int]) -> bool:
    """Does deleting `removed` leave a disjoint union of paths?

    It does iff no remaining vertex has degree above 2 and the remaining
    graph is a forest: its edges number its vertices minus its components.
    """
    left = set(range(g.n)) - set(removed)
    deg = {v: sum(w in left for w, _ in g.adj(v)) for v in left}
    if any(d > 2 for d in deg.values()):
        return False
    return sum(deg.values()) // 2 == len(left) - len(components(g, left))


def validate_ham_bags(out: HamiltonianReductionOutput) -> list:
    """Check the listed bags form a width-2 path decomposition covering the
    graph minus modulator-and-endpoints; returns violations."""
    g = out.graph
    removed = set(out.y_vertices) | set(out.z_vertices) | {out.s, out.t}
    issues = []
    for i, bag in enumerate(out.bags):
        if len(set(bag)) > 3:
            issues.append(f"bag {i} wider than 2")
    remaining_edges = [
        (u, v) for u, v in g.edges if u not in removed and v not in removed
    ]
    for u, v in remaining_edges:
        if not any(u in bag and v in bag for bag in out.bags):
            issues.append(f"edge ({u},{v}) uncovered")
    occ = {}
    for i, bag in enumerate(out.bags):
        for v in bag:
            occ.setdefault(v, []).append(i)
    for v, idxs in occ.items():
        if idxs != list(range(idxs[0], idxs[-1] + 1)):
            issues.append(f"vertex {v} occurs non-contiguously")
    return issues
