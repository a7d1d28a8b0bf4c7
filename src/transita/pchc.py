"""Properly colored Hamiltonian cycle on tree decompositions.

Two engines share one dynamic program over a nice tree decomposition.  Its
states are positional: tuples aligned with the node's sorted bag giving each
bag vertex's degree, the other end of its path fragment and the color of
that fragment's end edge.  The naive engine keeps every state and is the
reference the rank-based engine is checked against.  The rank-based engine
deletes the degree groups that can no longer close and prunes each family
sharing a degree tuple to a representative subset by Gaussian elimination
over GF(2^a) on a cuts-times-monomials matrix, restricted to a column basis
of the cut matrix, so the family size never depends on the number of
colors.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import EdgeColoring, Graph, InvariantError
from .io import DecompositionFile, postorder

# Lexicographically smallest primitive polynomial of each degree over GF(2),
# bitmask encoding with the leading term included: x generates the field's
# multiplicative group.
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10000000000101101,
}


class FieldGF2a:
    """Arithmetic in GF(2^a) via log/antilog tables (a <= 16)."""

    def __init__(self, a: int):
        if a not in IRREDUCIBLE:
            raise ValueError(f"unsupported field exponent {a}")
        self.a = a
        self.size = 1 << a
        self.poly = IRREDUCIBLE[a]
        self._exp = [0] * (2 * self.size)
        self._log = [0] * self.size
        x = 1
        for i in range(self.size - 1):
            if i and x == 1:
                raise InvariantError(f"x does not generate GF(2^{a})")
            self._exp[i] = x
            self._log[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.poly
        for i in range(self.size - 1, 2 * self.size):
            self._exp[i] = self._exp[i - (self.size - 1)]

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


def field_for_colors(num_colors: int) -> FieldGF2a:
    """Smallest GF(2^a) whose nonzero elements can host all colors."""
    a = 1
    while (1 << a) <= num_colors:
        a += 1
    return _field(a)


@lru_cache(maxsize=None)
def _field(a: int) -> FieldGF2a:
    # One shared instance per exponent, whose tables are never written after
    # construction: building them walks all 2^a - 1 powers of x.
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
    pairs = [(pos[a], pos[b]) for a, b in matching]
    row = []
    for c in range(1 << (len(z) - 1)):
        side = c << 1 | 1  # bit i: z[i] is on z[0]'s side
        row.append(int(all(side >> i & 1 == side >> j & 1 for i, j in pairs)))
    return row


def _perfect_matchings(points: tuple) -> list:
    if not points:
        return [()]
    a, rest = points[0], points[1:]
    return [
        ((a, b),) + m
        for i, b in enumerate(rest)
        for m in _perfect_matchings(rest[:i] + rest[i + 1 :])
    ]


@lru_cache(maxsize=None)
def cut_basis(t: int) -> tuple:
    """Lexicographically first column basis of the cut matrix on t points.

    The cut matrix has one row cut_row(M, range(t)) per perfect matching M
    of range(t) and 2^(t-1) columns; over GF(2) its rank is C(t-1, t/2).
    Columns are taken in increasing order and kept when independent of the
    columns kept before them.
    """
    rows = [cut_row(m, range(t)) for m in _perfect_matchings(tuple(range(t)))]
    lead = {}  # leading bit -> column, as a bitmask over the rows
    basis = []
    for c in range(1 << (t - 1) if t else 1):
        col = sum(row[c] << i for i, row in enumerate(rows))
        while col:
            h = col.bit_length() - 1
            if h not in lead:
                lead[h] = col
                basis.append(c)
                break
            col ^= lead[h]
    return tuple(basis)


@lru_cache(maxsize=4096)
def _basis_cuts(matching: tuple) -> tuple:
    """Indices into cut_basis(t) of the cuts that no edge of a perfect
    matching on range(t) crosses: the support of its projected cut row."""
    t = 2 * len(matching)
    row = cut_row(matching, range(t))
    return tuple(j for j, c in enumerate(cut_basis(t)) if row[c])


def reduce_representatives(states: Sequence, bag: Sequence, deg: Sequence, field: FieldGF2a) -> list:
    """Representative states spanning the row space of the group's E matrix.

    states are the (mate, zeta) pairs of one group of the dynamic program,
    tuples aligned with the sorted bag whose degree tuple is deg (see the
    comment that opens the shared dynamic program).  The fragment ends Z
    are the bag vertices of degree 1; each end's mate must be another end
    and its zeta a color, and a row read that breaks this raises
    ValueError.  A state's E row is the tensor of the cut row of its
    matching on Z and its pi row, of width 2^(2|Z|-1).  Every cut row lies
    in the row space of the cut matrix, whose rank is C(|Z|-1, |Z|/2), and
    projecting onto a column basis of that matrix (`cut_basis`) is
    injective on that space, hence on its tensor with the monomials.  Rows
    are therefore eliminated on the basis cuts only, where an E row is
    nonzero just on the cuts its matching is consistent with, and
    earliest-first pivoting keeps exactly the states it keeps on the full
    rows.  A row is built only when the elimination reaches it, and no
    state after the one that completes the basis is read.  The result is a
    subsequence of states of length at most C(|Z|-1, |Z|/2) * 2^|Z|.
    """
    ends = [i for i, d in enumerate(deg) if d == 1]
    at = {bag[i]: j for j, i in enumerate(ends)}  # end vertex -> its index in Z
    span = 1 << len(ends)
    width = len(cut_basis(len(ends))) * span
    exp, log, order = field._exp, field._log, field.size - 1
    cuts = {}  # mate -> the basis cuts of its matching on Z
    basis = []  # (pivot, [(column, log of the entry)]) with entry 1 at pivot
    kept = []
    for state in states:
        mate, zeta = state
        if mate not in cuts:
            cuts[mate] = _basis_cuts(_end_matching(mate, bag, ends, at))
        # logs of the pi row: the entry of monomial I is prod_{v not in I} zeta(v)
        logs = [0]
        for i in ends:
            c = zeta[i]
            if not c:
                raise ValueError(f"fragment end {bag[i]} has no color")
            lc = log[c]
            logs = [x + lc for x in logs] + logs
        block = [exp[x % order] for x in logs]
        row = [0] * width
        for j in cuts[mate]:
            row[j * span : (j + 1) * span] = block
        for pivot, brow in basis:
            c = row[pivot]
            if c:
                lc = log[c]
                for k, lb in brow:
                    row[k] ^= exp[lc + lb]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        lp = order - log[row[pivot]]
        basis.append((pivot, [(k, (log[x] + lp) % order) for k, x in enumerate(row) if x]))
        kept.append(state)
        if len(basis) == width:
            break  # the basis spans every row
    return kept


def _end_matching(mate, bag, ends, at) -> tuple:
    """The perfect matching that mate puts on the ends, as index pairs (j, k)
    into ends with j < k, ordered by j."""
    pairs = []
    for j, i in enumerate(ends):
        k = at.get(mate[i])
        if k is None or k == j or mate[ends[k]] != bag[i]:
            raise ValueError(f"fragment end {bag[i]} is not matched to another end")
        if j < k:
            pairs.append((j, k))
    return tuple(pairs)


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
    left: tuple  # per bag vertex, how many of its edges this subtree has not introduced


def build_nice_tree(g: Graph, dec: DecompositionFile) -> list:
    """Postorder list of nice nodes with introduce-edge nodes.

    Every vertex is introduced/forgotten along the tree and every edge is
    introduced exactly once, at the first bag in postorder that holds both
    ends.  The edges placed at one bag are introduced tightest first: in
    ascending order of (the fewer edges left at either end once the bag's
    edges are in, edge id), so the edges of a vertex that has none left
    after the bag come before the others.  Each node's `left` counts,
    per bag vertex, its edges not introduced in the node's subtree: deg_G(w)
    when w is introduced, one less at both ends of an edge node, and
    a + b - deg_G(w) at a join of children with counts a and b.  The last
    list entry is the root and has an empty bag.
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

    def emit(kind, data, bag, kids, left):
        nodes.append(_NiceNode(kind, data, bag, kids, left))
        return len(nodes) - 1

    def carry(idx, target):
        """Forget, then introduce, one vertex at a time from idx's bag to target."""
        bag, left = nodes[idx].bag, nodes[idx].left
        for v in sorted(set(bag) - set(target)):
            i = bag.index(v)
            bag, left = bag[:i] + bag[i + 1 :], left[:i] + left[i + 1 :]
            idx = emit("forget", (v,), bag, (idx,), left)
        for v in sorted(set(target) - set(bag)):
            i = bisect_left(bag, v)
            bag, left = bag[:i] + (v,) + bag[i:], left[:i] + (g.degree(v),) + left[i:]
            idx = emit("intro", (v,), bag, (idx,), left)
        return idx

    # stream[c]: the last node of child c, carried to its parent's bag as
    # soon as c is finished, before c's next sibling is built
    stream = {}
    for t in order:
        bag = tuple(sorted(set(dec.bags[t])))
        if children[t]:
            idx = stream.pop(children[t][0])
            for c in children[t][1:]:
                other = stream.pop(c)
                left = tuple(
                    a + b - g.degree(w) for w, a, b in zip(bag, nodes[idx].left, nodes[other].left)
                )
                idx = emit("join", (), bag, (idx, other), left)
        else:
            idx = carry(emit("leaf", (), (), (), ()), bag)
        at = {w: i for i, w in enumerate(bag)}
        placed = edge_at.get(t, ())
        after = list(nodes[idx].left)  # what is left once the bag's edges are in
        for e in placed:
            for w in g.edges[e]:
                after[at[w]] -= 1
        left = list(nodes[idx].left)
        for e in sorted(placed, key=lambda e: (min(after[at[w]] for w in g.edges[e]), e)):
            u, v = g.edges[e]
            left[at[u]] -= 1
            left[at[v]] -= 1
            idx = emit("edge", (u, v, e), bag, (idx,), tuple(left))
        if t != dec.root:
            stream[t] = carry(idx, dec.bags[parent[t]])
    carry(idx, ())
    return nodes


# ---------------------------------------------------------------------------
# The shared dynamic program.
#
# A state is (deg, mate, zeta, closed).  The first three are tuples aligned
# with the node's sorted bag: deg[i] is the degree of bag[i] in the partial
# solution, mate[i] the vertex at the other end of its path fragment when
# deg[i] == 1 and -1 otherwise, and zeta[i] the color of its one solution
# edge when deg[i] == 1 and 0 otherwise (colors are 1..l).  closed marks
# that the single Hamiltonian cycle has been completed.  Equal partial
# solutions are equal tuples, so no state needs a canonical form: intro and
# forget slice at the vertex's bag position, and an edge edits two or three
# slots.  mate holds vertices, not positions, so slicing leaves it valid.
#
# A node's family maps each (deg, closed) to the set of (mate, zeta) of its
# states.  Which step applies to a state depends on deg alone, so edge and
# join nodes decide it once per group, and the groups are the buckets that
# the rank engine reduces.  Every nice node has exactly one parent, so an
# edge node adds its states to its child's family in place; the rank engine
# then reduces only the groups that grew there, since intro and forget keep
# every other group within its cap, and every group after a join.
#
# An open group is dead when some bag vertex w has deg[w] + left[w] < 2,
# left being the node's count of w's edges not yet introduced (see
# `build_nice_tree`): w can never reach degree 2, so no state of the group
# completes a Hamiltonian cycle.  The test reads deg alone, so whole groups
# go at once.  After an edge node uv only u and v can have turned dead, and
# the rank engine deletes those groups there and checks every position after
# a join, before it reduces; each group is reduced on its own, so the groups
# that survive keep the same representatives.  Tightest-first edge order
# makes a group die at the first edge node of its bag that can tell.  The
# naive engine drops nothing: it is the unpruned reference the rank engine
# is checked against, and its families show the full growth with the
# number of colors.


class PchcTimeout(Exception):
    """Raised by the naive engine when its time budget is exhausted."""


def _intro_family(family, i) -> dict:
    return {
        (deg[:i] + (0,) + deg[i:], closed): {
            (m[:i] + (-1,) + m[i:], z[:i] + (0,) + z[i:]) for m, z in group
        }
        for (deg, closed), group in family.items()
    }


def _forget_family(family, i) -> dict:
    """Keep the states in which the forgotten vertex has degree 2."""
    return {
        (deg[:i] + deg[i + 1 :], closed): {(m[:i] + m[i + 1 :], z[:i] + z[i + 1 :]) for m, z in group}
        for (deg, closed), group in family.items()
        if deg[i] == 2
    }


def _edge_family(family, bag, u, v, color) -> list:
    """Add every state with edge uv to the family, in place; return the keys
    of the groups that grew."""
    pos = {w: i for i, w in enumerate(bag)}
    k = len(bag)
    at_u, at_v = pos[u], pos[v]
    # merged after the loop, so that it sees only the child's states and
    # no state added here gets edge uv a second time
    added = {}
    for (deg, closed), group in family.items():
        if closed or deg[at_u] == 2 or deg[at_v] == 2:
            continue
        # iu, iv: the positions of u and v, the lower degree first
        iu, iv = (at_u, at_v) if deg[at_u] <= deg[at_v] else (at_v, at_u)
        d = list(deg)
        d[iu] += 1
        d[iv] += 1
        d = tuple(d)
        new = set()
        if deg[iv] == 0:  # a new fragment bag[iu]-bag[iv]
            for mate, zeta in group:
                m, z = list(mate), list(zeta)
                m[iu], m[iv] = bag[iv], bag[iu]
                z[iu] = z[iv] = color
                new.add((tuple(m), tuple(z)))
        elif deg[iu] == 0:  # the fragment ending at bag[iv] now ends at bag[iu]
            for mate, zeta in group:
                if zeta[iv] == color:
                    continue
                m, z = list(mate), list(zeta)
                m[iu], m[iv], m[pos[mate[iv]]] = mate[iv], -1, bag[iu]
                z[iu], z[iv] = color, 0
                new.add((tuple(m), tuple(z)))
        else:
            for mate, zeta in group:
                if zeta[iu] == color or zeta[iv] == color:
                    continue
                pu, pv = mate[iu], mate[iv]
                if pu == bag[iv]:
                    # closing a fragment into the Hamiltonian cycle; any
                    # further fragment could never merge with it, so close
                    # only when alone
                    if deg.count(1) == 2:
                        added[d, True] = {((-1,) * k, (0,) * k)}
                    continue
                m, z = list(mate), list(zeta)
                m[iu] = m[iv] = -1
                m[pos[pu]], m[pos[pv]] = pv, pu
                z[iu] = z[iv] = 0
                new.add((tuple(m), tuple(z)))
        if new:
            added[d, False] = new  # d determines deg, so no other group adds here
    grown = []
    for key, new in added.items():
        group = family.setdefault(key, set())
        size = len(group)
        group |= new
        if len(group) > size:
            grown.append(key)
    return grown


def _join_family(left, right, bag) -> dict:
    """Combine every pair of child states over the same bag."""
    pos = {w: i for i, w in enumerate(bag)}
    k = len(bag)
    out = {}
    for (d1, c1), g1 in left.items():
        for (d2, c2), g2 in right.items():
            if c1 or c2:
                # a closed side combines only with the empty partial solution
                if not (c1 and c2) and not any(d2 if c1 else d1):
                    key, group = ((d1, c1), g1) if c1 else ((d2, c2), g2)
                    out.setdefault(key, set()).update(group)
                continue
            deg = tuple(a + b for a, b in zip(d1, d2))
            if max(deg, default=0) > 2:
                continue
            joints = [i for i in range(k) if d1[i] == d2[i] == 1]
            ends = [i for i in range(k) if deg[i] == 1]
            new = set()
            for m1, z1 in g1:
                for m2, z2 in g2:
                    # fragment ends meeting at a vertex must differ in color
                    if any(z1[i] == z2[i] for i in joints):
                        continue
                    mate, zeta = [-1] * k, [0] * k
                    inner = 0  # joints passed while walking the paths
                    for i in ends:
                        if mate[i] != -1:
                            continue
                        mates = (m1, m2) if d1[i] == 1 else (m2, m1)
                        j = pos[mates[0][i]]
                        while deg[j] == 2:  # a joint: go on along the other side
                            inner += 1
                            mates = mates[::-1]
                            j = pos[mates[0][j]]
                        mate[i], mate[j] = bag[j], bag[i]
                        zeta[i], zeta[j] = z1[i] or z2[i], z1[j] or z2[j]
                    if inner == len(joints):
                        new.add((tuple(mate), tuple(zeta)))
                    elif not ends:
                        # the joints lie on cycles: the Hamiltonian cycle
                        # when they form one
                        i, length = joints[0], 0
                        while True:
                            i = pos[m2[pos[m1[i]]]]
                            length += 2
                            if i == joints[0]:
                                break
                        if length == len(joints):
                            out[deg, True] = {((-1,) * k, (0,) * k)}
            if new:
                out.setdefault((deg, False), set()).update(new)
    return out


def _prune_rank(family, bag, keys, field) -> None:
    """Reduce each group of keys over its cap, in place; checks the size bound."""
    for deg, closed in keys:
        group = family[deg, closed]
        t = deg.count(1)
        if closed or not t:
            # mate and zeta are empty here, so the group holds one state
            if len(group) != 1:
                raise InvariantError("a closed or empty-Z group holds several states")
            continue
        cap = 1 << (2 * t - 1)
        if len(group) <= cap:
            continue
        kept = reduce_representatives(sorted(group), bag, deg, field)
        if len(kept) > cap:
            raise InvariantError(f"{len(kept)} representatives exceed the cap {cap}")
        family[deg, closed] = set(kept)


def _drop_dead(family, left, positions) -> int:
    """Delete the open groups in which a bag vertex at one of positions can
    no longer reach degree 2; return how many were deleted."""
    need = [(i, 2 - left[i]) for i in positions if left[i] < 2]
    if not need:
        return 0
    dead = [
        (deg, closed)
        for deg, closed in family
        if not closed and any(deg[i] < n for i, n in need)
    ]
    for key in dead:
        del family[key]
    return len(dead)


def _run_dp(g, edge_color, nice, field, deadline, stats):
    """Bottom-up trace DP over a nice tree; True iff a closed state survives.

    With a field, the rank engine first deletes the dead groups (see the
    comment that opens the dynamic program) after edge and join nodes, then
    reduces there, the only nodes whose groups can outgrow their cap: intro
    is injective on states and forget is injective on the states it keeps.
    stats, when given, gets the largest family after any node and, with a
    field, the largest an edge or join node made before the deletion and
    the reduction, and the number of dead groups deleted over all nodes.
    """
    start_time = time.monotonic()
    memo = {}
    uses = [0] * len(nice)
    for node in nice:
        for c in node.children:
            uses[c] += 1
    for idx, node in enumerate(nice):
        if deadline is not None and time.monotonic() - start_time > deadline:
            raise PchcTimeout(f"exceeded {deadline}s at node {idx}")
        kind = node.kind
        grown = None  # keys of the groups an edge or join node may have put over their cap
        if kind == "leaf":
            family = {((), False): {((), ())}}
        elif kind == "intro":
            family = _intro_family(memo[node.children[0]], node.bag.index(node.data[0]))
        elif kind == "forget":
            child = node.children[0]
            family = _forget_family(memo[child], nice[child].bag.index(node.data[0]))
        elif kind == "edge":
            u, v, e = node.data
            family = memo[node.children[0]]
            grown = _edge_family(family, node.bag, u, v, edge_color[e])
            tight = (node.bag.index(u), node.bag.index(v))  # only u and v lost an edge left
        elif kind == "join":
            family = _join_family(memo[node.children[0]], memo[node.children[1]], node.bag)
            grown = list(family)
            tight = range(len(node.bag))
        else:  # pragma: no cover
            raise InvariantError(f"unknown nice-tree node kind {kind!r}")
        if field is not None and grown is not None:
            if stats is not None:
                size = sum(map(len, family.values()))
                stats["max_family_before_prune"] = max(stats.get("max_family_before_prune", 0), size)
            dead = _drop_dead(family, node.left, tight)
            if dead:
                grown = [key for key in grown if key in family]
            if stats is not None:
                stats["dead_groups"] = stats.get("dead_groups", 0) + dead
            _prune_rank(family, node.bag, grown, field)
        if stats is not None:
            size = sum(map(len, family.values()))
            stats["max_family"] = max(stats.get("max_family", 0), size)
        memo[idx] = family
        for c in node.children:
            uses[c] -= 1
            if uses[c] == 0:
                del memo[c]
    return ((), True) in memo[len(nice) - 1]


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
    of colors; serves as the medium-scale oracle for the rank-based engine,
    so it keeps every state, dead groups included.
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
    than the number of colors; after every edge and join node each family
    sharing a degree tuple is reduced to at most C(|Z|-1, |Z|/2) * 2^|Z|
    states (see `reduce_representatives`), after the groups that can no
    longer close are deleted (see the comment that opens the dynamic
    program).  stats, when given, gets `field_a`, `max_family`,
    `max_family_before_prune` and `dead_groups`.
    """
    _check_inputs(g, coloring, dec)
    if g.n < 3:
        return False
    field = field_for_colors(coloring.num_colors)
    if stats is not None:
        stats["field_a"] = field.a
    nice = build_nice_tree(g, dec)
    return _run_dp(g, coloring.colors, nice, field, None, stats)
