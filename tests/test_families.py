import itertools
import random

import pytest

from conftest import complete_graph, path_graph

from zcoloring import (
    Coloring,
    Graph,
    a_sequence,
    attach_leaves,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    exact_b,
    exact_z,
    gen_Ft,
    gen_Gt,
    gen_Ht,
    gen_Ktt_minus_matching,
    gen_Rk,
    gen_Tk,
    greedy_coloring,
    is_colored_isomorphic,
)
from zcoloring.canon import canonical_certificate
from zcoloring.families import ft_layout, gt_layout
from zcoloring.oracle import _search
from zcoloring.randgraphs import random_tree


def test_ht_structure():
    h3 = gen_Ht(3)
    assert (h3.n, h3.m) == (6, 7)
    for t in range(2, 7):
        ht = gen_Ht(t)
        assert ht.n == 2 * t and ht.m == t * t - t + 1
    # t=2 is the path on four vertices
    h2 = gen_Ht(2)
    assert sorted(h2.degree(v) for v in range(4)) == [1, 1, 2, 2] and h2.is_connected()
    with pytest.raises(ValueError):
        gen_Ht(1)


def test_ft_structure():
    f4 = gen_Ft(4)
    assert f4.n == 10 and f4.max_degree() == 3
    for t in range(3, 9):
        ft = gen_Ft(t)
        assert ft.max_degree() == t - 1
        assert ft.n == t + 2 * (t - 2) + (t - 2) * (t - 3)
    f3 = gen_Ft(3)
    assert sorted(f3.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]  # P_5
    assert exact_b(f3).value == 3
    with pytest.raises(ValueError):
        gen_Ft(2)


def test_gt_structure():
    g4 = gen_Gt(4)
    assert g4.n == 19
    assert g4.is_connected()
    assert not g4.has_triangle()
    for t in range(3, 9):
        gt = gen_Gt(t)
        lay = gt_layout(t)
        assert gt.degree(lay["w"]) == 2
        assert set(gt.adj[lay["w"]]) == {t - 1, lay["ft_path"][0]}


@pytest.mark.parametrize("t, most, parent_nodes", [
    (5, 1_000, 61_247),
    (6, 2_000, 3_248_076),
    (7, 5_000, 44_600_000),
    (8, 10_000, None),
])
def test_gt_z_number_is_three(t, most, parent_nodes):
    # the upper end of the separation example: z(G_t) = 3 while Gamma and b
    # grow with t, decided exactly by refuting every target 4..t.
    # `parent_nodes` is the count before the z search cut on the colours a
    # neighbour can still take and on distinct star leaves; at t = 7 that
    # search was stopped after 44.6 M nodes, and t = 8 was not run
    g = gen_Gt(t)
    res = exact_z(g, limit_n=g.n)
    assert res.value == 3 and check_z(g, res.witness).passed
    assert res.explored < most
    assert parent_nodes is None or most < parent_nodes


@pytest.mark.parametrize("t", range(3, 11))
def test_gt_grundy_number_is_at_least_t_plus_one(t):
    # the lower end for Gamma in closed form: first-fit along a_1, b_1, ...,
    # a_t, b_t gives a_i and b_i color i for i < t (a_i b_i is a removed
    # matching edge), then a_t color t and b_t color t+1; the rest of G_t
    # follows in index order and stays below t+1
    g = gen_Gt(t)
    order = [v for i in range(t) for v in (i, t + i)] + list(range(2 * t, g.n))
    c = greedy_coloring(g, order)
    assert c.k == t + 1 and check_grundy(g, c).passed


@pytest.mark.parametrize("t", range(3, 9))
def test_gt_b_number_is_at_least_t(t):
    # the lower end for b, by search: b is not monotone under induced
    # subgraphs, so the b-coloring must cover all of G_t (1 342 nodes at t = 8)
    g = gen_Gt(t)
    colors, nodes = _search(g, t, False)
    c = Coloring(tuple(colors))
    assert c.k == t and c.is_normalized()
    assert check_proper(g, c).passed and check_cd(g, c).passed
    assert nodes <= 2_000


def test_rk_small_cases():
    r1, r2 = gen_Rk(1), gen_Rk(2)
    assert r1.graph.n == 1 and r2.graph.n == 2
    r3 = gen_Rk(3)
    assert sorted(r3.graph.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]  # P_5
    assert r3.graph.is_connected()
    assert gen_Rk(4).graph.n == 14


def test_rk_orders_match_a_sequence():
    seq = a_sequence(8)
    for k in range(1, 9):
        rk = gen_Rk(k)
        assert rk.graph.n == seq[k - 1]
        assert rk.graph.m == rk.graph.n - 1 and rk.graph.is_connected()  # tree


def test_rk_canonic_coloring_is_z():
    for k in range(1, 7):
        rk = gen_Rk(k)
        verdict = check_z(rk.graph, rk.coloring)
        assert verdict.passed and rk.coloring.k == k
        if k >= 2:
            assert rk.graph.max_degree() == k - 1


def test_rk_star_is_valid():
    from zcoloring.verify import verify_star

    for k in range(1, 7):
        rk = gen_Rk(k)
        assert verify_star(rk.graph, rk.coloring, rk.dominating_star)


def test_tk_structure():
    assert gen_Tk(2).graph.n == 2
    assert gen_Tk(4).graph.n == 8
    for k in range(1, 7):
        tk = gen_Tk(k)
        assert tk.graph.n == 2 ** (k - 1)
        assert tk.graph.m == tk.graph.n - 1 and tk.graph.is_connected()
        assert tk.coloring.k == k
    from zcoloring import check_grundy, exact_gamma

    for k in range(1, 5):
        tk = gen_Tk(k)
        assert check_grundy(tk.graph, tk.coloring).passed
        assert exact_gamma(tk.graph).value == k


def test_attach_leaves():
    assert attach_leaves(Graph.from_edges(1, [])).m == 1  # K_2
    p4 = attach_leaves(complete_graph(2))
    assert sorted(p4.degree(v) for v in range(4)) == [1, 1, 2, 2]
    rng = random.Random(50)
    for _ in range(20):
        from zcoloring.randgraphs import gnp

        g = gnp(rng.randint(1, 10), 0.4, rng)
        gg = attach_leaves(g)
        assert gg.n == 2 * g.n
        assert all(gg.degree(g.n + v) == 1 for v in range(g.n))


def test_a_sequence_values():
    assert a_sequence(5) == [1, 2, 5, 14, 39]
    # closed form and recurrence re-derived independently up to k = 30
    seq = a_sequence(30)
    val = 1
    for k in range(2, 31):
        val = 2 * val + 2 ** (k - 1) - k
        assert seq[k - 1] == val == (k - 3) * 2 ** (k - 1) + k + 2


def test_ktt_minus_matching():
    g = gen_Ktt_minus_matching(4)
    assert g.n == 8 and g.m == 16 - 4
    assert all(g.degree(v) == 3 for v in range(8))
    g2 = gen_Ktt_minus_matching(5, 4)
    assert g2.m == 25 - 4
    with pytest.raises(ValueError):
        gen_Ktt_minus_matching(3, 5)


def test_r3_unique_five_vertex_tree_with_z3():
    # every labeled tree on 5 vertices: z = 3 exactly for paths
    from zcoloring.randgraphs import random_tree as _rt  # noqa: F401

    def trees_on(n):
        if n == 1:
            yield Graph.from_edges(1, [])
            return
        if n == 2:
            yield Graph.from_edges(2, [(0, 1)])
            return
        for code in itertools.product(range(n), repeat=n - 2):
            degree = [1] * n
            for v in code:
                degree[v] += 1
            edges = []
            deg = degree[:]
            for v in code:
                leaf = next(u for u in range(n) if deg[u] == 1)
                edges.append((leaf, v))
                deg[leaf] -= 1
                deg[v] -= 1
            last = [u for u in range(n) if deg[u] == 1]
            edges.append((last[0], last[1]))
            yield Graph.from_edges(n, edges)

    path_cert = canonical_certificate(path_graph(5), Coloring((1,) * 5))
    for t in trees_on(5):
        is_path = canonical_certificate(t, Coloring((1,) * 5)) == path_cert
        assert (exact_z(t).value == 3) == is_path


def test_sampled_trees_up_to_13_never_reach_z4():
    rng = random.Random(51)
    for _ in range(10000):
        t = random_tree(rng.randint(2, 13), rng)
        assert exact_z(t).value <= 3


def test_r4_is_colored_isomorphic_to_itself_relabeled():
    r4 = gen_Rk(4)
    assert is_colored_isomorphic(r4, r4)


def test_family_spec_dispatch():
    from zcoloring import FamilySpec

    assert FamilySpec("Ht", 3).build() == gen_Ht(3)
    assert FamilySpec("Rk", 3).build() == gen_Rk(3)
    assert FamilySpec("KttMinusMatching", 4).build() == gen_Ktt_minus_matching(4)
    with pytest.raises(ValueError):
        FamilySpec("Qx", 3).build()
    with pytest.raises(ValueError):
        FamilySpec("Ft", 1).build()
