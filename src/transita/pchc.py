"""Properly colored Hamiltonian cycle on tree decompositions.

Two engines share one dynamic program over boundary traces (degree map,
endpoint matching, endpoint edge colors).  The naive engine keeps every
trace; the rank-based engine prunes each family to a representative subset
by Gaussian elimination over GF(2^a) on a cuts-times-monomials matrix, so
the family size never depends on the number of colors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import EdgeColoring, Graph, InvariantError
from .io import DecompositionFile, postorder

# Lexicographically smallest irreducible polynomial of each degree over
# GF(2), bitmask encoding with the leading term included.
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}


class FieldGF2a:
    """Arithmetic in GF(2^a) via log/antilog tables (a <= 16)."""

    def __init__(self, a: int, irreducible: Optional[int] = None):
        if a not in IRREDUCIBLE:
            raise ValueError(f"unsupported field exponent {a}")
        self.a = a
        self.size = 1 << a
        self.poly = IRREDUCIBLE[a] if irreducible is None else irreducible
        self._exp = [0] * (2 * self.size)
        self._log = [0] * self.size
        x = 1
        hit = set()
        for i in range(self.size - 1):
            self._exp[i] = x
            self._log[x] = i
            hit.add(x)
            x <<= 1
            if x & self.size:
                x ^= self.poly
        if len(hit) != self.size - 1:
            # x is irreducible-root but not primitive; rebuild the tables
            # from a multiplicative generator found by search.
            self._build_tables_generic()
        for i in range(self.size - 1, 2 * self.size):
            self._exp[i] = self._exp[i - (self.size - 1)]

    def _clmul(self, x: int, y: int) -> int:
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & self.size:
                x ^= self.poly
        return r

    def _build_tables_generic(self):
        for g in range(2, self.size):
            seen = set()
            x = 1
            for i in range(self.size - 1):
                self._exp[i] = x
                self._log[x] = i
                seen.add(x)
                x = self._clmul(x, g)
            if len(seen) == self.size - 1:
                return
        raise InvariantError("no multiplicative generator found")

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(self.size - 1) - self._log[x]]

    def pow(self, x: int, e: int) -> int:
        if e == 0:
            return 1
        if x == 0:
            return 0
        return self._exp[(self._log[x] * e) % (self.size - 1)]


def field_for_colors(num_colors: int) -> FieldGF2a:
    """Smallest GF(2^a) whose nonzero elements can host all colors."""
    a = 1
    while (1 << a) <= num_colors:
        a += 1
    return FieldGF2a(a)


# ---------------------------------------------------------------------------
# Traces and the algebra of fits.


@dataclass(frozen=True)
class Trace:
    """Boundary summary of a partial solution: degrees and endpoint matching."""

    f: tuple  # sorted tuple of (vertex, degree in {0,1,2})
    matching: tuple  # sorted tuple of sorted endpoint pairs


@dataclass(frozen=True)
class ColoredTrace:
    f: tuple
    matching: tuple
    zeta: tuple  # sorted tuple of (vertex, color) for degree-1 vertices


def _single_cycle(m1, m2, z) -> bool:
    """True iff the multigraph union of the two matchings is one cycle on z."""
    if not z:
        return False
    nxt1 = {}
    for a, b in m1:
        nxt1[a] = b
        nxt1[b] = a
    nxt2 = {}
    for a, b in m2:
        nxt2[a] = b
        nxt2[b] = a
    if set(nxt1) != set(z) or set(nxt2) != set(z):
        return False
    start = min(z)
    seen = 0
    v, use1 = start, True
    while True:
        v = nxt1[v] if use1 else nxt2[v]
        use1 = not use1
        seen += 1
        if v == start and use1:
            break
    return seen == len(z)


def fit_traces(t1: Trace, t2: Trace) -> bool:
    """Do two traces over the same boundary combine into a Hamiltonian cycle?"""
    f1, f2 = dict(t1.f), dict(t2.f)
    if set(f1) != set(f2):
        raise ValueError("traces must share a boundary")
    if any(f1[v] + f2[v] != 2 for v in f1):
        return False
    z = [v for v in f1 if f1[v] == 1]
    return _single_cycle(t1.matching, t2.matching, z)


def fit_colored(t1: ColoredTrace, t2: ColoredTrace) -> bool:
    if not fit_traces(Trace(t1.f, t1.matching), Trace(t2.f, t2.matching)):
        return False
    z1, z2 = dict(t1.zeta), dict(t2.zeta)
    return all(z1[v] != z2[v] for v in z1)


def pi_row(zeta: dict, z_order: Sequence, field: FieldGF2a) -> list:
    """Coefficient vector of prod_v (zeta(v) + x_v) over multilinear monomials.

    Entry for monomial prod_{v in I} x_v (I encoded as a bitmask over
    z_order) is prod_{v not in I} zeta(v).
    """
    row = [1]
    for v in z_order:
        c = zeta[v]
        row = [field.mul(c, r) for r in row] + row
    return row


def cut_row(matching, z_order: Sequence) -> list:
    """0/1 vector over the 2^(|Z|-1) cuts; 1 iff no matching edge crosses.

    Cuts are canonicalized by the side containing z_order[0]; for an empty
    boundary the single entry is 1.
    """
    z = list(z_order)
    if not z:
        return [1]
    pos = {v: i for i, v in enumerate(z)}
    width = 1 << (len(z) - 1)
    row = [1] * width
    for c in range(width):
        side = {z[0]}
        for i, v in enumerate(z[1:]):
            if c >> i & 1:
                side.add(v)
        for a, b in matching:
            if (a in side) != (b in side):
                row[c] = 0
                break
    return row


def e_row(trace: ColoredTrace, z_order: Sequence, field: FieldGF2a) -> list:
    """Tensor of the cut row and the pi row, width 2^(2|Z|-1)."""
    cr = cut_row(trace.matching, z_order)
    pr = pi_row(dict(trace.zeta), z_order, field)
    return [field.mul(c, p) if c else 0 for c in cr for p in pr]


def reduce_representatives(traces: Sequence[ColoredTrace], field: FieldGF2a) -> list:
    """Representative subset spanning the same row space of the E matrix.

    Input traces must share the degree map f.  Keeps original rows only
    (earliest-first pivoting), so the result is a subset of the input of
    size at most 2^(2|Z|-1).
    """
    if not traces:
        return []
    f0 = traces[0].f
    if any(tr.f != f0 for tr in traces):
        raise ValueError("traces must share the same degree map")
    z_order = sorted(v for v, d in f0 if d == 1)
    basis = []  # rows in echelon form: (pivot index, normalized row)
    kept = []
    for tr in traces:
        row = e_row(tr, z_order, field)
        for pivot, brow in basis:
            c = row[pivot]
            if c:
                row = [x ^ field.mul(c, y) for x, y in zip(row, brow)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        inv = field.inv(row[pivot])
        basis.append((pivot, [field.mul(inv, x) for x in row]))
        kept.append(tr)
    return kept


# ---------------------------------------------------------------------------
# Tree decompositions and their nice form.


def validate_tree_decomposition(g: Graph, dec: DecompositionFile) -> list:
    """Violations of the tree-decomposition axioms (empty list iff valid).

    A vertex's bags are connected in the tree iff exactly one of them is the
    root or has a parent bag without that vertex.
    """
    out = []
    parent = {c: t for t, cs in dec.children_map().items() for c in cs}
    bags = [set(bag) for bag in dec.bags]
    occurrences = {v: set() for v in range(g.n)}
    for i, bag in enumerate(dec.bags):
        for v in bag:
            if not (0 <= v < g.n):
                out.append(f"bags[{i}]: vertex {v} out of range")
            else:
                occurrences[v].add(i)
    for v, occ in occurrences.items():
        if not occ:
            out.append(f"vertex {v} in no bag")
        elif sum(i == dec.root or v not in bags[parent[i]] for i in occ) != 1:
            out.append(f"vertex {v}: bags not connected in the tree")
    for e, (u, v) in enumerate(g.edges):
        if not occurrences[u] & occurrences[v]:
            out.append(f"edge {e}=({u},{v}) not covered by a bag")
    return out


def min_degree_decomposition(g: Graph) -> DecompositionFile:
    """Standard min-degree elimination heuristic; always valid, not optimal."""
    if g.n == 0:
        return DecompositionFile(0, (), ((),))
    nbrs = {v: {w for w, _ in g.adj(v)} for v in range(g.n)}
    order = []
    cliques = []
    alive = set(range(g.n))
    while alive:
        v = min(alive, key=lambda u: (len(nbrs[u] & alive), u))
        live = nbrs[v] & alive
        order.append(v)
        cliques.append({v} | live)
        for a in live:
            nbrs[a] |= live - {a}
        alive.discard(v)
    bags = [tuple(sorted(c)) for c in cliques]
    # connect bag i to the first later bag containing clique minus v
    edges = []
    for i, v in enumerate(order):
        rest = cliques[i] - {v}
        if not rest:
            if i + 1 < len(order):
                edges.append((i, i + 1))
            continue
        for j in range(i + 1, len(order)):
            if rest <= cliques[j] or order[j] in rest:
                if rest <= cliques[j]:
                    edges.append((i, j))
                    break
        else:
            edges.append((i, len(order) - 1))
    return DecompositionFile(len(bags) - 1, tuple(edges), tuple(bags))


@dataclass
class _NiceNode:
    kind: str  # leaf | intro | forget | edge | join
    data: tuple
    bag: tuple
    children: tuple


def build_nice_tree(g: Graph, dec: DecompositionFile) -> list:
    """Postorder list of nice nodes with introduce-edge nodes.

    Every vertex is introduced/forgotten along the tree and every edge is
    introduced exactly once at a node whose bag contains both endpoints.
    The last list entry is the root and has an empty bag.
    """
    bad = validate_tree_decomposition(g, dec)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    children = dec.children_map()
    parent = {c: t for t, cs in children.items() for c in cs}
    order = postorder(children, dec.root)
    rank = {t: i for i, t in enumerate(order)}
    occ = [set() for _ in range(g.n)]
    for i, bag in enumerate(dec.bags):
        for v in bag:
            occ[v].add(i)
    edge_at = {}
    for e, (u, v) in enumerate(g.edges):
        t = min(occ[u] & occ[v], key=rank.__getitem__)
        edge_at.setdefault(t, []).append(e)

    nodes = []

    def emit(kind, data, bag, kids):
        nodes.append(_NiceNode(kind, data, tuple(bag), tuple(kids)))
        return len(nodes) - 1

    def carry(idx, bag, target):
        """Forget, then introduce, one vertex at a time from bag to target."""
        cur, target = set(bag), set(target)
        for v in sorted(cur - target):
            cur.remove(v)
            idx = emit("forget", (v,), sorted(cur), (idx,))
        for v in sorted(target - cur):
            cur.add(v)
            idx = emit("intro", (v,), sorted(cur), (idx,))
        return idx

    # stream[c]: the last node of child c, carried to its parent's bag as
    # soon as c is finished, before c's next sibling is built
    stream = {}
    for t in order:
        bag_t = tuple(sorted(set(dec.bags[t])))
        if children[t]:
            idx = stream.pop(children[t][0])
            for c in children[t][1:]:
                idx = emit("join", (), bag_t, (idx, stream.pop(c)))
        else:
            idx = carry(emit("leaf", (), (), ()), (), bag_t)
        for e in sorted(edge_at.get(t, ())):
            u, v = g.edges[e]
            idx = emit("edge", (u, v, e), bag_t, (idx,))
        if t != dec.root:
            stream[t] = carry(idx, bag_t, dec.bags[parent[t]])

    for v in sorted(set(dec.bags[dec.root]), reverse=True):
        bag = tuple(w for w in nodes[idx].bag if w != v)
        idx = emit("forget", (v,), bag, (idx,))
    return nodes


# ---------------------------------------------------------------------------
# The shared dynamic program.
#
# A state is (f, M, zeta, closed) where f maps the bag to degrees, M is the
# canonical matching tuple on the degree-1 vertices, zeta assigns each of
# them the color of its single incident solution edge, and closed marks that
# the single Hamiltonian cycle has been completed.


class PchcTimeout(Exception):
    """Raised by the naive engine when its time budget is exhausted."""


def _state_intro(state, v):
    f, m, z, closed = state
    return (tuple(sorted(f + ((v, 0),))), m, z, closed)


def _state_forget(state, v):
    f, m, z, closed = state
    fd = dict(f)
    if fd.get(v) != 2:
        return None
    del fd[v]
    return (tuple(sorted(fd.items())), m, z, closed)


def _canon(fd, md, zd, closed):
    return (
        tuple(sorted(fd.items())),
        tuple(sorted(tuple(sorted(p)) for p in md)),
        tuple(sorted(zd.items())),
        closed,
    )


def _state_edge(state, u, v, color):
    """States obtainable by using edge uv (the skip option is not included)."""
    f, m, z, closed = state
    if closed:
        return []
    fd = dict(f)
    du, dv = fd[u], fd[v]
    if du == 2 or dv == 2:
        return []
    md = {frozenset(p) for p in m}
    zd = dict(z)
    partner = {}
    for p in md:
        a, b = tuple(p)
        partner[a] = b
        partner[b] = a
    if du == 0 and dv == 0:
        fd[u] = fd[v] = 1
        md.add(frozenset((u, v)))
        zd[u] = zd[v] = color
        return [_canon(fd, md, zd, False)]
    if du == 1 and dv == 0:
        if zd[u] == color:
            return []
        p = partner[u]
        md.discard(frozenset((u, p)))
        md.add(frozenset((p, v)))
        fd[u], fd[v] = 2, 1
        del zd[u]
        zd[v] = color
        return [_canon(fd, md, zd, False)]
    if du == 0 and dv == 1:
        if zd[v] == color:
            return []
        p = partner[v]
        md.discard(frozenset((v, p)))
        md.add(frozenset((p, u)))
        fd[u], fd[v] = 1, 2
        del zd[v]
        zd[u] = color
        return [_canon(fd, md, zd, False)]
    # both endpoints have degree 1
    if zd[u] == color or zd[v] == color:
        return []
    pu, pv = partner[u], partner[v]
    fd[u] = fd[v] = 2
    if pu == v:
        # closing a fragment into the Hamiltonian cycle; any further
        # fragment could never merge with it, so close only when alone
        if len(md) == 1:
            return [_canon(fd, set(), {}, True)]
        return []
    md.discard(frozenset((u, pu)))
    md.discard(frozenset((v, pv)))
    md.add(frozenset((pu, pv)))
    del zd[u]
    del zd[v]
    return [_canon(fd, md, zd, False)]


def _walk_path(adj, start):
    """Follow a path component of the matching union from one of its ends."""
    cur = start
    arrive = None
    seen = [start]
    while True:
        step = None
        for w, side in adj[cur]:
            if side != arrive:
                step = (w, side)
                break
        if step is None:
            return cur, seen
        cur, arrive = step
        seen.append(cur)


def _state_join(s1, s2):
    """Combine two child states over the same bag; None when incompatible."""
    f1, m1, z1, c1 = s1
    f2, m2, z2, c2 = s2
    if c1 and c2:
        return None
    if c1 or c2:
        closed_state, open_state = (s1, s2) if c1 else (s2, s1)
        fo, mo, _, _ = open_state
        if mo or any(d != 0 for _, d in fo):
            return None
        return (closed_state[0], (), (), True)
    f2d = dict(f2)
    fd = {}
    for vtx, d in f1:
        s = d + f2d[vtx]
        if s > 2:
            return None
        fd[vtx] = s
    z1d, z2d = dict(z1), dict(z2)
    for vtx in z1d:
        if vtx in z2d and z1d[vtx] == z2d[vtx]:
            return None  # same-colored fragment ends meeting at vtx
    adj = {}
    for a, b in m1:
        adj.setdefault(a, []).append((b, 1))
        adj.setdefault(b, []).append((a, 1))
    for a, b in m2:
        adj.setdefault(a, []).append((b, 2))
        adj.setdefault(b, []).append((a, 2))
    seen = set()
    md = set()
    zd = {}
    for v0 in sorted(adj):
        if v0 in seen or len(adj[v0]) != 1:
            continue
        other, comp = _walk_path(adj, v0)
        seen.update(comp)
        md.add(frozenset((v0, other)))
        for end in (v0, other):
            zd[end] = z1d[end] if end in z1d and end not in z2d else z2d[end]
    leftovers = [v for v in adj if v not in seen]
    if leftovers:
        # cycle components: fatal unless they form the Hamiltonian cycle
        if md:
            return None
        comp = set()
        stack = [leftovers[0]]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(w for w, _ in adj[x])
        if comp != set(leftovers):
            return None  # two or more disjoint cycles
        return (tuple(sorted(fd.items())), (), (), True)
    return _canon(fd, md, zd, False)


def _prune_rank(states, field, stats):
    """Per-(f, closed) representative reduction; checks the size bound."""
    buckets = {}
    for st in states:
        buckets.setdefault((st[0], st[3]), []).append(st)
    out = set()
    for (fkey, closed), bucket in buckets.items():
        z = [vtx for vtx, d in fkey if d == 1]
        cap = max(1, 1 << max(2 * len(z) - 1, 0))
        if closed or len(z) == 0:
            # matching and colors are empty here, so the bucket deduplicates
            # to a single state
            if len(bucket) != 1:
                raise InvariantError("a closed or empty-Z bucket holds several states")
            out.update(bucket)
            continue
        if len(bucket) <= cap:
            out.update(bucket)
            continue
        traces = [ColoredTrace(st[0], st[1], st[2]) for st in sorted(bucket)]
        kept = reduce_representatives(traces, field)
        if len(kept) > cap:
            raise InvariantError(f"{len(kept)} representatives exceed the cap {cap}")
        out.update((tr.f, tr.matching, tr.zeta, closed) for tr in kept)
    if stats is not None:
        stats["max_family"] = max(stats.get("max_family", 0), len(out))
    return out


def _run_dp(g, edge_color, nice, prune, deadline, stats):
    """Bottom-up trace DP over a nice tree; True iff a closed state survives."""
    start_time = time.monotonic()
    memo = {}
    uses = [0] * len(nice)
    for node in nice:
        for c in node.children:
            uses[c] += 1
    for idx, node in enumerate(nice):
        if deadline is not None and time.monotonic() - start_time > deadline:
            raise PchcTimeout(f"exceeded {deadline}s at node {idx}")
        if node.kind == "leaf":
            states = {((), (), (), False)}
        elif node.kind == "intro":
            (v,) = node.data
            states = {_state_intro(st, v) for st in memo[node.children[0]]}
        elif node.kind == "forget":
            (v,) = node.data
            states = set()
            for st in memo[node.children[0]]:
                ns = _state_forget(st, v)
                if ns is not None:
                    states.add(ns)
        elif node.kind == "edge":
            u, v, e = node.data
            states = set(memo[node.children[0]])
            for st in memo[node.children[0]]:
                states.update(_state_edge(st, u, v, edge_color[e]))
        elif node.kind == "join":
            left = memo[node.children[0]]
            right = memo[node.children[1]]
            states = set()
            for s1 in left:
                for s2 in right:
                    ns = _state_join(s1, s2)
                    if ns is not None:
                        states.add(ns)
        else:  # pragma: no cover
            raise InvariantError(f"unknown nice-tree node kind {node.kind!r}")
        if prune is not None:
            states = prune(states)
        elif stats is not None:
            stats["max_family"] = max(stats.get("max_family", 0), len(states))
        memo[idx] = states
        for c in node.children:
            uses[c] -= 1
            if uses[c] == 0:
                del memo[c]
    final = memo[len(nice) - 1]
    return ((), (), (), True) in final


def _check_inputs(g: Graph, coloring: EdgeColoring, dec: DecompositionFile):
    if len(coloring.colors) != g.m:
        raise ValueError("edge coloring must be total")


def naive_pchc(
    g: Graph,
    coloring: EdgeColoring,
    dec: DecompositionFile,
    deadline: float = None,
    stats: dict = None,
) -> bool:
    """Properly colored Hamiltonian cycle via the full colored-trace DP.

    Exponential in both the width and (through the zeta range) the number
    of colors; serves as the medium-scale oracle for the rank-based engine.
    """
    _check_inputs(g, coloring, dec)
    if g.n < 3:
        return False
    nice = build_nice_tree(g, dec)
    return _run_dp(g, coloring.colors, nice, None, deadline, stats)


def rank_based_pchc(
    g: Graph,
    coloring: EdgeColoring,
    dec: DecompositionFile,
    stats: dict = None,
) -> bool:
    """Properly colored Hamiltonian cycle with representative-set pruning.

    Colors are embedded into nonzero elements of GF(2^a) with 2^a greater
    than the number of colors; after every node each family sharing a
    degree map is reduced to at most 2^(2|Z|-1) traces.
    """
    _check_inputs(g, coloring, dec)
    if g.n < 3:
        return False
    field = field_for_colors(coloring.num_colors)
    if stats is not None:
        stats["field_a"] = field.a
    nice = build_nice_tree(g, dec)
    prune = lambda states: _prune_rank(states, field, stats)
    return _run_dp(g, coloring.colors, nice, prune, None, stats)
