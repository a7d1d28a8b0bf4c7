import itertools
import math
import random

import pytest

from transita import pchc
from transita.core import EdgeColoring, Graph
from transita.io import DecompositionFile, postorder
from transita.oracle import brute_pchc
from transita.pchc import (
    ColoredTrace,
    FieldGF2a,
    IRREDUCIBLE,
    Trace,
    build_nice_tree,
    cut_basis,
    cut_row,
    field_for_colors,
    fit_colored,
    fit_traces,
    min_degree_decomposition,
    naive_pchc,
    pi_row,
    rank_based_pchc,
    reduce_representatives,
    validate_tree_decomposition,
    _edge_family,
    _single_cycle,
)
from transita.treecut import single_bag_treecut
from test_acceptance import _triple_wheel
from hypothesis import given, settings, strategies as st


def perfect_matchings(z):
    z = list(z)
    if not z:
        yield ()
        return
    a = z[0]
    for i in range(1, len(z)):
        rest = z[1:i] + z[i + 1 :]
        for m in perfect_matchings(rest):
            yield ((a, z[i]),) + m


def e_row(trace: ColoredTrace, z_order, field) -> list:
    """Tensor of the cut row and the pi row, width 2^(2|Z|-1)."""
    cr = cut_row(trace.matching, z_order)
    pr = pi_row(dict(trace.zeta), z_order, field)
    return [field.mul(c, p) if c else 0 for c in cr for p in pr]


def full_width_reduce(traces, field) -> list:
    """Earliest-first elimination on the full E rows: the reference for
    reduce_representatives, which eliminates on the cut-basis columns."""
    if not traces:
        return []
    z_order = sorted(v for v, d in traces[0].f if d == 1)
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


def as_state(trace: ColoredTrace, bag) -> tuple:
    """The dynamic program's (mate, zeta) of a colored trace, aligned with
    bag; bag vertices outside the trace's ends get mate -1 and zeta 0."""
    mate = {v: -1 for v in bag}
    for a, b in trace.matching:
        mate[a], mate[b] = b, a
    zeta = dict.fromkeys(bag, 0)
    zeta.update(trace.zeta)
    return tuple(mate[v] for v in bag), tuple(zeta[v] for v in bag)


def gf2_rank(rows) -> int:
    lead = {}
    for row in rows:
        x = sum(bit << i for i, bit in enumerate(row))
        while x:
            h = x.bit_length() - 1
            if h not in lead:
                lead[h] = x
                break
            x ^= lead[h]
    return len(lead)


def test_irreducible_polynomials_are_irreducible():
    def divides(q, p):
        dq = q.bit_length() - 1
        u = p
        while u and u.bit_length() - 1 >= dq:
            u ^= q << (u.bit_length() - 1 - dq)
        return u == 0

    def order_of_x(p, a):
        x, i = 1, 0
        while x != 1 or i == 0:
            x <<= 1
            if x >> a:
                x ^= p
            i += 1
        return i

    for a, p in IRREDUCIBLE.items():
        assert p.bit_length() - 1 == a
        if a <= 12:
            for d in range(1, a):
                for q in range(1 << d, 1 << (d + 1)):
                    assert not divides(q, p), (a, q)
        # primitive: x generates the multiplicative group
        assert order_of_x(p, a) == (1 << a) - 1, a


def test_field_axioms_exhaustive_small():
    for a in (1, 2, 3, 4):
        F = FieldGF2a(a)
        n = F.size
        for x in range(n):
            assert F.add(x, x) == 0  # characteristic 2
            for y in range(n):
                assert F.mul(x, y) == F.mul(y, x)
                if y:
                    assert F.mul(F.mul(x, y), F.inv(y)) == x
                for z in range(n):
                    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))


def test_gf4_multiplication_value():
    assert FieldGF2a(2).mul(2, 2) == 3
    assert FieldGF2a(4).mul(1, 7) == 7


def test_field_for_colors_sizes():
    assert field_for_colors(1).a == 1
    assert field_for_colors(3).a == 2
    assert field_for_colors(4).a == 3
    assert field_for_colors(500).a == 9


def test_field_for_colors_builds_each_exponent_once():
    # 300 and 500 colors share GF(2^9); the shared field keeps the tables of
    # a fresh one
    field = field_for_colors(500)
    assert field_for_colors(300) is field
    fresh = FieldGF2a(9)
    assert (field._exp, field._log) == (fresh._exp, fresh._log)


def test_fit_examples():
    f2 = ((0, 1), (1, 1))
    t1 = Trace(f2, ((0, 1),))
    assert fit_traces(t1, t1)  # two parallel fragments close a 2-cycle
    f4 = tuple((v, 1) for v in range(4))
    a = Trace(f4, ((0, 1), (2, 3)))
    assert not fit_traces(a, a)  # two separate 2-cycles
    b = Trace(f4, ((1, 2), (0, 3)))
    assert fit_traces(a, b)  # a single 4-cycle


def test_fit_colored_requires_disagreement():
    f2 = ((0, 1), (1, 1))
    m = ((0, 1),)
    assert not fit_colored(
        ColoredTrace(f2, m, ((0, 1), (1, 2))), ColoredTrace(f2, m, ((0, 1), (1, 3)))
    )
    assert fit_colored(
        ColoredTrace(f2, m, ((0, 1), (1, 2))), ColoredTrace(f2, m, ((0, 2), (1, 3)))
    )


def test_pi_row_expansions():
    F = FieldGF2a(3)
    alpha, beta = 3, 5
    assert pi_row({0: alpha}, [0], F) == [alpha, 1]
    assert pi_row({0: alpha, 1: beta}, [0, 1], F) == [
        F.mul(alpha, beta),
        beta,
        alpha,
        1,
    ]


def test_pi_evaluation_identity_random():
    rng = random.Random(4)
    F = FieldGF2a(8)
    for _ in range(1000):
        sz = rng.choice([1, 2, 3])
        z = list(range(sz))
        zp = {v: rng.randint(1, F.size - 1) for v in z}
        zq = {v: rng.randint(1, F.size - 1) for v in z}
        row = pi_row(zp, z, F)
        val = 0
        for mask in range(1 << sz):
            mono = 1
            for i in range(sz):
                if mask >> i & 1:
                    mono = F.mul(mono, zq[z[i]])
            val ^= F.mul(row[mask], mono)
        expected = 1
        for v in z:
            expected = F.mul(expected, zp[v] ^ zq[v])
        assert val == expected


def test_pi_zero_characterization_exhaustive():
    for a in (1, 2, 3):
        F = FieldGF2a(a)
        nz = range(1, F.size)
        for sz in (1, 2):
            z = list(range(sz))
            for zp in itertools.product(nz, repeat=sz):
                row = pi_row(dict(zip(z, zp)), z, F)
                for zq in itertools.product(nz, repeat=sz):
                    val = 0
                    for mask in range(1 << sz):
                        mono = 1
                        for i in range(sz):
                            if mask >> i & 1:
                                mono = F.mul(mono, zq[i])
                        val ^= F.mul(row[mask], mono)
                    assert (val == 0) == any(p == q for p, q in zip(zp, zq))


def test_cut_row_examples_and_factorization():
    # two cuts of {a, b}: the split cut severs the matched pair, the
    # trivial cut agrees with it
    assert cut_row(((0, 1),), [0, 1]) == [0, 1]
    # M = C . C^T over GF(2) for |Z| <= 6
    for sz in (2, 4, 6):
        z = list(range(sz))
        ms = list(perfect_matchings(z))
        for m1 in ms:
            r1 = cut_row(m1, z)
            assert len(r1) == 1 << (sz - 1)
            for m2 in ms:
                r2 = cut_row(m2, z)
                dot = 0
                for x, y in zip(r1, r2):
                    dot ^= x & y
                assert dot == (1 if _single_cycle(m1, m2, z) else 0)


def test_e_row_widths_and_fit_dot_product():
    F = FieldGF2a(3)
    empty = ColoredTrace((), (), ())
    assert e_row(empty, [], F) == [1]
    f2 = ((0, 1), (1, 1))
    tr = ColoredTrace(f2, ((0, 1),), ((0, 1), (1, 2)))
    assert len(e_row(tr, [0, 1], F)) == 8  # 2^(2|Z|-1)
    rng = random.Random(6)
    for _ in range(300):
        sz = rng.choice([2, 4])
        z = list(range(sz))
        ms = list(perfect_matchings(z))
        f = tuple((v, 1) for v in z)
        def rand_trace():
            m = tuple(tuple(sorted(p)) for p in rng.choice(ms))
            zeta = tuple((v, rng.randint(1, 7)) for v in z)
            return ColoredTrace(f, m, zeta)
        t1, t2 = rand_trace(), rand_trace()
        r1 = e_row(t1, z, F)
        v1 = cut_row(t2.matching, z)
        zq = dict(t2.zeta)
        v2 = []
        for mask in range(1 << sz):
            mono = 1
            for i in range(sz):
                if mask >> i & 1:
                    mono = F.mul(mono, zq[z[i]])
            v2.append(mono)
        tensor = [F.mul(a, b) if a else 0 for a in v1 for b in v2]
        dot = 0
        for x, y in zip(r1, tensor):
            dot ^= F.mul(x, y)
        assert (dot != 0) == fit_colored(t1, t2)


def test_reduce_representatives_properties():
    F = FieldGF2a(3)
    st = ((1, 0), (1, 2))
    assert reduce_representatives([st, st], (0, 1), (1, 1), F) == [st]  # duplicates dropped
    rng = random.Random(11)
    for _ in range(120):
        sz = rng.choice([2, 4])
        z = list(range(sz))
        ms = list(perfect_matchings(z))
        f = tuple((v, 1) for v in z)
        fam = []
        for _ in range(rng.randint(1, 25)):
            m = tuple(tuple(sorted(p)) for p in rng.choice(ms))
            zeta = tuple((v, rng.randint(1, 7)) for v in z)
            fam.append(ColoredTrace(f, m, zeta))
        fam = sorted(set(fam), key=lambda t: (t.matching, t.zeta))
        back = {as_state(tr, z): tr for tr in fam}
        kept = [back[s] for s in reduce_representatives(list(back), z, (1,) * sz, F)]
        assert len(kept) <= 1 << (2 * sz - 1)
        assert set(kept) <= set(fam)
        # representation: whatever fits the family fits the kept subset
        for m in ms:
            for _ in range(4):
                tau = ColoredTrace(
                    f,
                    tuple(tuple(sorted(p)) for p in m),
                    tuple((v, rng.randint(1, 7)) for v in z),
                )
                if any(fit_colored(t, tau) for t in fam):
                    assert any(fit_colored(t, tau) for t in kept)


def test_reduce_representatives_rejects_states_that_do_not_fit_deg():
    # every row read is checked; an uncolored end would otherwise read as
    # color 1 through log[0] = 0
    F = FieldGF2a(2)
    bag, deg = (0, 1, 2), (1, 1, 0)
    good = ((1, 0, -1), (1, 2, 0))
    for bad in (
        ((2, 0, -1), (1, 2, 0)),  # end 0's mate is no end
        ((0, 0, -1), (1, 2, 0)),  # end 0 is its own mate
        ((1, 1, -1), (1, 2, 0)),  # end 1 is its own mate, so 0's mate is not 1's
        ((1, 0, -1), (1, 0, 0)),  # end 1 has no color
    ):
        for states in ([bad], [good, bad]):
            with pytest.raises(ValueError):
                reduce_representatives(states, bag, deg, F)


def test_reduce_representatives_stops_at_full_rank():
    # two ends over GF(4): a state's row is (ab, b, a, 1) for end colors
    # (a, b), and the four pairs over {1, 2} are independent, so they fill
    # the width C(1, 1) * 2^2 = 4 and nothing after them is read
    F = FieldGF2a(2)
    full = [((1, 0), (a, b)) for a in (1, 2) for b in (1, 2)]
    states = full[:1] + full[:1] + full[1:] + [None, None]
    assert reduce_representatives(states, (0, 1), (1, 1), F) == full


def test_edge_family_extends_in_place_and_returns_the_grown_groups():
    # a new fragment uv is not extended by uv again, so no group gets
    # degree 2 at both ends
    family = {((0, 0), False): {((-1, -1), (0, 0))}}
    assert _edge_family(family, (0, 1), 0, 1, 1) == [((1, 1), False)]
    assert family == {
        ((0, 0), False): {((-1, -1), (0, 0))},
        ((1, 1), False): {((1, 0), (1, 1))},
    }
    # a group that only gets states it holds has not grown
    fragment = ((1, 0, -1), (3, 3, 0))
    family = {
        ((0, 0, 0), False): {((-1, -1, -1), (0, 0, 0))},
        ((1, 1, 0), False): {fragment},
        ((0, 1, 1), False): {((-1, 2, 1), (0, 4, 4))},
    }
    assert _edge_family(family, (0, 1, 2), 0, 1, 3) == [((1, 2, 1), False)]
    assert family == {
        ((0, 0, 0), False): {((-1, -1, -1), (0, 0, 0))},
        ((1, 1, 0), False): {fragment},
        ((0, 1, 1), False): {((-1, 2, 1), (0, 4, 4))},
        ((1, 2, 1), False): {((2, -1, 0), (3, 0, 4))},
    }


def test_pchc_trivial_instances():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    dec = single_bag_treecut(tri)
    col = EdgeColoring((1, 2, 3), 3)
    assert naive_pchc(tri, col, dec) and rank_based_pchc(tri, col, dec)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    mono = EdgeColoring((1, 1, 1, 1), 1)
    dec4 = single_bag_treecut(c4)
    assert not naive_pchc(c4, mono, dec4)
    assert not rank_based_pchc(c4, mono, dec4)


def test_triple_equivalence_small_corpus():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(3, 8)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.4, 0.6, 0.8])
            ],
        )
        l = rng.randint(2, 5)
        col = EdgeColoring(tuple(rng.randint(1, l) for _ in range(g.m)), l)
        dec = min_degree_decomposition(g)
        assert validate_tree_decomposition(g, dec) == []
        expected = brute_pchc(g, col)
        assert naive_pchc(g, col, dec) == expected
        assert rank_based_pchc(g, col, dec) == expected


def test_k4_seeded_colorings_match():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rng = random.Random(15)
    dec = min_degree_decomposition(g)
    for _ in range(100):
        l = rng.randint(1, 4)
        col = EdgeColoring(tuple(rng.randint(1, l) for _ in range(g.m)), l)
        assert naive_pchc(g, col, dec) == brute_pchc(g, col)


def test_color_renaming_invariance():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(4, 7)
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6],
        )
        l = rng.randint(2, 5)
        colors = [rng.randint(1, l) for _ in range(g.m)]
        dec = min_degree_decomposition(g)
        perm = list(range(1, l + 1))
        rng.shuffle(perm)
        renamed = [perm[c - 1] for c in colors]
        a = rank_based_pchc(g, EdgeColoring(tuple(colors), l), dec)
        b = rank_based_pchc(g, EdgeColoring(tuple(renamed), l), dec)
        assert a == b


def test_validate_tree_decomposition_catches_defects():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = DecompositionFile(0, ((0, 1),), ((0, 1), (2,)))  # edge (1,2) uncovered
    assert any("not covered" in v for v in validate_tree_decomposition(g, bad))
    # every kind of violation at once, in the order they are reported: bag
    # entries out of range, then vertices in no bag or in bags that are not
    # connected in the tree (vertex 0 sits at both ends of the path 0-1-2),
    # then uncovered edges
    g5 = Graph(5, [(0, 1), (1, 2), (2, 3)])
    dec = DecompositionFile(0, ((0, 1), (1, 2)), ((0, 1), (2, 5), (0, 3, -1)))
    assert validate_tree_decomposition(g5, dec) == [
        "bags[1]: vertex 5 out of range",
        "bags[2]: vertex -1 out of range",
        "vertex 0: bags not connected in the tree",
        "vertex 4 in no bag",
        "edge 1=(1,2) not covered by a bag",
        "edge 2=(2,3) not covered by a bag",
    ]
    # a vertex's bags may meet at the root or below it, and a bag may list
    # the vertex twice
    star = DecompositionFile(1, ((1, 0), (1, 2)), ((0, 1), (1, 1, 2), (2, 3, 4)))
    assert validate_tree_decomposition(g5, star) == []
    split = DecompositionFile(1, ((1, 0), (1, 2)), ((0, 1), (2,), (1, 2, 3, 4)))
    assert validate_tree_decomposition(g5, split) == [
        "vertex 1: bags not connected in the tree"
    ]


def test_rank_pchc_on_a_deep_path_decomposition():
    # an alternately 2-colored 1,100-cycle with 1,098 bags in one path: the
    # nice tree is built without recursion, so its depth is no limit
    n = 1100
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    col = EdgeColoring(tuple(1 + i % 2 for i in range(n)), 2)
    bags = tuple((0, i, i + 1) for i in range(1, n - 1))
    dec = DecompositionFile(0, tuple((i, i + 1) for i in range(len(bags) - 1)), bags)
    assert validate_tree_decomposition(g, dec) == []
    assert rank_based_pchc(g, col, dec)


def test_nice_tree_places_each_edge_at_its_first_covering_bag():
    # brute placement: scan every bag for both ends of each edge and take the
    # first in postorder; the nice tree's edge nodes must follow it, and
    # within a bag come tightest first, by (the fewer edges left at either
    # end once every edge placed in the bag's subtree is in, edge id), the
    # edges left counted by walking up the decomposition from each edge's
    # bag.  History: before the edges of a bag were ordered, they came by id
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(3, 9)
        p = rng.choice([0.4, 0.6, 0.8])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        cases.append((g, min_degree_decomposition(g)))
    n = 40
    cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    bags = tuple((0, i, i + 1) for i in range(1, n - 1))
    cases.append((cycle, DecompositionFile(0, tuple((i, i + 1) for i in range(len(bags) - 1)), bags)))
    reordered = 0
    for g, dec in cases:
        children = dec.children_map()
        parent = {c: t for t, cs in children.items() for c in cs}
        rank = {t: i for i, t in enumerate(postorder(children, dec.root))}
        at, placed = {}, {}
        for e, (u, v) in enumerate(g.edges):
            t = min((i for i, bag in enumerate(dec.bags) if u in bag and v in bag), key=rank.get)
            at.setdefault(t, []).append(e)
            placed[e] = t

        def below(s, t):
            while s != t and s in parent:
                s = parent[s]
            return s == t

        def left_after(w, t):
            return g.degree(w) - sum(w in g.edges[e] and below(s, t) for e, s in placed.items())

        expected = [
            (e, tuple(sorted(set(dec.bags[t]))))
            for t in sorted(at, key=rank.get)
            for e in sorted(at[t], key=lambda e: (min(left_after(w, t) for w in g.edges[e]), e))
        ]
        reordered += [e for e, _ in expected] != sorted(placed, key=lambda e: (rank[placed[e]], e))
        nodes = build_nice_tree(g, dec)
        assert [(nd.data[2], nd.bag) for nd in nodes if nd.kind == "edge"] == expected
    assert reordered >= 10


def test_nice_tree_counts_the_edges_left_at_each_bag_vertex():
    # left[i] is deg_G(bag[i]) less the edges at it introduced in the node's
    # subtree, counted here by walking the subtree
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(4, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        order = list(range(n))
        rng.shuffle(order)
        nodes = build_nice_tree(g, elimination_decomposition(g, order, rng.randrange(n)))
        for node in nodes:
            stack, below = [node], []
            while stack:
                nd = stack.pop()
                below += [nd.data[2]] if nd.kind == "edge" else []
                stack += [nodes[c] for c in nd.children]
            assert node.left == tuple(
                g.degree(w) - sum(w in g.edges[e] for e in below) for w in node.bag
            )
        assert nodes[-1].left == ()


def test_dead_group_boundaries_keep_the_cycle():
    # alternately colored 6-cycles whose vertices keep degree 2 only when
    # the edges left are counted right; both engines must say yes
    cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    col = EdgeColoring(tuple(1 + i % 2 for i in range(6)), 2)
    # vertex 1's two edges lie in the two branches below the root's join:
    # (0, 1) in bag 1 and (1, 2) in bag 2, so each branch leaves it one edge
    # and the join none, at degree 2
    split = DecompositionFile(0, ((0, 1), (0, 2)), ((0, 1, 3), (0, 1, 3, 4, 5), (1, 2, 3)))
    nodes = build_nice_tree(cycle, split)
    (join,) = [nd for nd in nodes if nd.kind == "join"]
    assert [nodes[c].left[join.bag.index(1)] for c in join.children] == [1, 1]
    assert join.left[join.bag.index(1)] == 0
    # vertex 0's edges lie at the two ends of a path decomposition: (0, 5)
    # at the leaf bag and its last edge (0, 1) at the root bag, so on the
    # way up it has degree 1 and one edge left
    bags = tuple((0, i, i + 1) for i in range(1, 5))
    path = DecompositionFile(0, tuple((i, i + 1) for i in range(3)), bags)
    for dec in (split, path):
        assert validate_tree_decomposition(cycle, dec) == []
        stats = {}
        assert rank_based_pchc(cycle, col, dec, stats=stats)
        assert naive_pchc(cycle, col, dec) and brute_pchc(cycle, col)
        assert stats["dead_groups"] > 0


def test_cut_rows_have_rank_c_t_minus_1_choose_half():
    # the cut rows of all perfect matchings on t points span a space of
    # dimension C(t-1, t/2), well below the 2^(t-1) columns and above the
    # rank 2^(t/2-1) of the fit matrix they factor; cut_basis picks that
    # many columns, the first ones that are independent
    for t, rank in ((2, 1), (4, 3), (6, 10), (8, 35)):
        assert math.comb(t - 1, t // 2) == rank
        rows = [cut_row(m, range(t)) for m in perfect_matchings(range(t))]
        assert gf2_rank(rows) == rank
        basis = cut_basis(t)
        assert len(basis) == rank
        assert list(basis) == sorted(basis)
        assert gf2_rank([[row[c] for c in basis] for row in rows]) == rank
        for c in range(1 << (t - 1)):
            prefix = [c2 for c2 in basis if c2 < c]
            if c not in basis:  # a skipped column depends on earlier picks
                sub = [[row[x] for x in prefix + [c]] for row in rows]
                assert gf2_rank(sub) == len(prefix)


def random_family(rng, z, size, colors):
    ms = list(perfect_matchings(z))
    f = tuple((v, 1) for v in z)
    fam = {
        ColoredTrace(
            f,
            tuple(tuple(sorted(p)) for p in rng.choice(ms)),
            tuple((v, rng.randint(1, colors)) for v in z),
        )
        for _ in range(size)
    }
    return sorted(fam, key=lambda t: (t.matching, t.zeta))


def test_reduce_representatives_matches_the_full_width_elimination():
    rng = random.Random(9)
    cases = []
    for a in (2, 3, 9):
        F = FieldGF2a(a)
        colors = F.size - 1
        # |Z| = 2 (cap 8) and 4 (cap 128) with families over the cap
        cases += [(F, 2, rng.randint(1, 40), colors) for _ in range(30)]
        cases += [(F, 4, rng.choice([20, 90, 200, 300]), colors) for _ in range(6)]
        cases += [(F, 6, rng.randint(5, 25), colors) for _ in range(2)]
        # few colors: many dependent rows
        cases += [(F, 4, 200, min(colors, 2))]
    over_cap = 0
    for F, sz, size, colors in cases:
        z = list(range(0, 2 * sz, 2))
        fam = random_family(rng, z, size, colors)
        over_cap += len(fam) > 1 << (2 * sz - 1)
        # the ends sit between a degree-2 vertex 1 and a degree-0 vertex 3
        bag = sorted(z + [1, 3])
        deg = tuple(1 if v in z else 2 if v == 1 else 0 for v in bag)
        back = {as_state(tr, bag): tr for tr in fam}  # in fam's order
        kept = reduce_representatives(list(back), bag, deg, F)
        assert [back[st] for st in kept] == full_width_reduce(fam, F)
    assert over_cap >= 10


def test_triple_wheel_families_are_pinned():
    # the largest family after any node of the rank engine on criterion 5's
    # width-4 wheels, and the largest an edge or join node made before it
    # dropped the dead groups and reduced.  History: before the dead groups
    # were dropped and a bag's edges ordered tightest first, these were
    # 614/910/896 and 679/1203/1217, as the dict-state DP with full-width
    # elimination also kept them
    for l, family, before in ((5, 190, 282), (50, 238, 381), (500, 236, 390)):
        g, col, dec = _triple_wheel(40, l, 1)
        stats = {}
        assert rank_based_pchc(g, col, dec, stats=stats)
        assert (stats["max_family"], stats["max_family_before_prune"]) == (family, before)


def test_wheel_rooted_at_its_middle_is_reduced_at_the_join(monkeypatch):
    # rooted at its middle bag, the wheel's path decomposition has one join,
    # where both halves meet with full families; at l = 50 and 500 the join
    # leaves one group over its cap once the dead groups are gone, and only
    # the reduction after the join brings it back under.  History: before
    # the dead groups were dropped, the join also set max_family (488/808/863,
    # before the reduction 543/1060/1250), so the pins alone showed that the
    # reduction ran; now later edge nodes set it, so the over-cap groups the
    # reduction after the join receives are counted directly
    over_cap = []
    joined = []
    join_family, prune_rank = pchc._join_family, pchc._prune_rank

    def join(*args):
        joined.append(True)
        return join_family(*args)

    def prune(family, bag, keys, field):
        if joined:
            joined.clear()
            over_cap[-1] += sum(
                len(family[deg, closed]) > 1 << (2 * deg.count(1) - 1)
                for deg, closed in keys
                if not closed and deg.count(1)
            )
        return prune_rank(family, bag, keys, field)

    monkeypatch.setattr(pchc, "_join_family", join)
    monkeypatch.setattr(pchc, "_prune_rank", prune)
    for l, family, before, over in ((5, 154, 241, 0), (50, 214, 823, 1), (500, 213, 956, 1)):
        g, col, dec = _triple_wheel(40, l, 1)
        dec = DecompositionFile(len(dec.bags) // 2, dec.tree_edges, dec.bags)
        assert sum(nd.kind == "join" for nd in build_nice_tree(g, dec)) == 1
        stats = {}
        over_cap.append(0)
        assert rank_based_pchc(g, col, dec, stats=stats)
        assert (stats["max_family"], stats["max_family_before_prune"]) == (family, before)
        assert over_cap[-1] == over


def test_dead_group_counts_are_pinned():
    # deterministic counts beside criterion 5's timings on its 200-vertex
    # wheels: the largest family an edge or join node built and the dead
    # groups dropped barely move from 5 to 500 colors, and equal runs give
    # equal counts
    for l, before, dead in ((5, 394, 3691), (50, 396, 3713), (500, 408, 3713)):
        g, col, dec = _triple_wheel(200, l, 1)
        for _ in range(2):
            stats = {}
            assert rank_based_pchc(g, col, dec, stats=stats)
            assert (stats["max_family_before_prune"], stats["dead_groups"]) == (before, dead)


def elimination_decomposition(g, order, root):
    """Tree decomposition from an elimination order: vertex order[i]'s bag
    is it and its later neighbours in the filled graph, hung below the bag
    of the first of those eliminated.  Any order is valid, and a bag with
    several children gives the nice tree join nodes."""
    at = {v: i for i, v in enumerate(order)}
    nbrs = {v: {w for w, _ in g.adj(v)} for v in range(g.n)}
    bags, edges = [], []
    for i, v in enumerate(order):
        later = {w for w in nbrs[v] if at[w] > i}
        for w in later:
            nbrs[w] |= later - {w}
        bags.append(tuple(sorted({v} | later)))
        if later:
            edges.append((i, min(at[w] for w in later)))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return DecompositionFile(root, tuple(edges), tuple(bags))


def test_families_at_join_nodes_are_pinned():
    # summed largest families of both engines on 40 seeded graphs whose
    # decompositions have 53 join nodes between them; a join that loses
    # states can still answer right, so the answers alone would not show it.
    # History: the rank total was 25566, as the dict-state DP with
    # full-width elimination kept it, until the rank engine dropped dead
    # groups; the naive engine drops none, so its total stays
    rng = random.Random(12)
    naive_total = rank_total = yes = joins = 0
    for _ in range(40):
        n = rng.randint(6, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        l = rng.randint(2, 6)
        col = EdgeColoring(tuple(rng.randint(1, l) for _ in range(g.m)), l)
        order = list(range(n))
        rng.shuffle(order)
        dec = elimination_decomposition(g, order, rng.randrange(n))
        joins += sum(nd.kind == "join" for nd in build_nice_tree(g, dec))
        naive_stats, rank_stats = {}, {}
        answer = naive_pchc(g, col, dec, stats=naive_stats)
        assert rank_based_pchc(g, col, dec, stats=rank_stats) == answer
        yes += answer
        naive_total += naive_stats["max_family"]
        rank_total += rank_stats["max_family"]
    assert (joins, yes, naive_total, rank_total) == (53, 17, 25641, 1165)


@st.composite
def colored_graph_and_decomposition(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = Graph(n, edges)
    l = draw(st.integers(1, 4))
    col = EdgeColoring(tuple(draw(st.integers(1, l)) for _ in edges), l)
    if draw(st.booleans()):
        dec = min_degree_decomposition(g)
    else:
        order = draw(st.permutations(range(n)))
        dec = elimination_decomposition(g, order, draw(st.integers(0, n - 1)))
    return g, col, dec


@settings(max_examples=600, deadline=None, derandomize=True)
@given(colored_graph_and_decomposition())
def test_rank_and_naive_engines_agree_with_brute_force(case):
    g, col, dec = case
    assert validate_tree_decomposition(g, dec) == []
    expected = brute_pchc(g, col)
    assert naive_pchc(g, col, dec) == expected
    assert rank_based_pchc(g, col, dec) == expected
