import itertools
import random

import pytest

from conftest import complete_graph, cycle_graph, path_graph

from zcoloring import (
    Coloring,
    Graph,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    dominating_vertices,
    gen_Ht,
    greedy_coloring,
    grundy_reduce,
    is_nice_vertex,
    verify_star,
)
from zcoloring.randgraphs import gnp
from zcoloring.verify import check_level, find_dominating_star


C6 = cycle_graph(6)
C6_COLORING = Coloring((3, 2, 1, 3, 2, 1))


def test_proper_pass_and_fail():
    k2 = complete_graph(2)
    assert check_proper(k2, Coloring((1, 2))).passed
    bad = check_proper(k2, Coloring((1, 1)))
    assert not bad.passed
    v = bad.violations[0]
    assert (v.vertex, v.other) == (0, 1)


def test_proper_c6_pattern():
    assert check_proper(C6, C6_COLORING).passed


def test_proper_requires_total():
    with pytest.raises(ValueError):
        check_proper(complete_graph(2), Coloring((1,)))


def test_grundy_p4_examples():
    p4 = path_graph(4)
    assert check_grundy(p4, Coloring((1, 2, 3, 1))).passed
    bad = check_grundy(p4, Coloring((1, 2, 1, 3)))
    assert not bad.passed
    assert any(v.vertex == 3 and v.color == 2 for v in bad.violations)


def test_grundy_edgeless_one_coloring():
    g = Graph.from_edges(4, [])
    assert check_grundy(g, Coloring((1, 1, 1, 1))).passed


def test_grundy_rejects_improper_input():
    with pytest.raises(ValueError):
        check_grundy(complete_graph(2), Coloring((1, 1)))


def test_dominating_vertices_c6_all():
    for j in (1, 2, 3):
        expected = [v for v in range(6) if C6_COLORING.colors[v] == j]
        assert dominating_vertices(C6, C6_COLORING, j) == expected


def test_dominating_vertices_kn_singletons():
    g = complete_graph(4)
    c = Coloring((1, 2, 3, 4))
    for j in range(1, 5):
        assert dominating_vertices(g, c, j) == [j - 1]


def test_dominating_vertices_p5_class3():
    assert dominating_vertices(path_graph(5), Coloring((1, 2, 3, 1, 2)), 3) == [2]


def test_dominating_vertices_range_check():
    with pytest.raises(ValueError):
        dominating_vertices(path_graph(3), Coloring((1, 2, 1)), 3)


def test_dominating_vertices_membership_property():
    rng = random.Random(5)
    for _ in range(40):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        c = greedy_coloring(g)
        k = c.k
        for j in range(1, k + 1):
            for v in dominating_vertices(g, c, j):
                assert c.colors[v] == j
                nbr_colors = {c.colors[w] for w in g.adj[v]}
                assert nbr_colors >= set(range(1, k + 1)) - {j}


def test_cd_c6_passes():
    verdict = check_cd(C6, C6_COLORING)
    assert verdict.passed
    assert set(verdict.witness["cd_vertices"]) == {1, 2, 3}


def test_cd_h3_fails_for_every_proper_3_coloring():
    h3 = gen_Ht(3)
    seen = 0
    for assign in itertools.product((1, 2, 3), repeat=6):
        c = Coloring(assign)
        if c.k != 3 or not check_proper(h3, c).passed:
            continue
        seen += 1
        assert not check_cd(h3, c).passed
    assert seen > 0


def test_cd_k1():
    assert check_cd(Graph.from_edges(1, []), Coloring((1,))).passed


def test_nice_vertex_k3():
    assert is_nice_vertex(complete_graph(3), Coloring((1, 2, 3)), 2)


def test_nice_vertex_p5_center():
    p5 = path_graph(5)
    c = Coloring((1, 2, 3, 1, 2))
    assert is_nice_vertex(p5, c, 2)
    assert not is_nice_vertex(p5, c, 0)  # color 1 != top color


def test_nice_vertex_requires_top_color():
    for v in range(6):
        if C6_COLORING.colors[v] == 1:
            assert not is_nice_vertex(C6, C6_COLORING, v)


def test_nice_vertex_range_check():
    # on P_3 colored (2, 1, 2), vertex 2 is nice; -1 must not answer for it,
    # and 3 must not reach past the color list
    p3, c = path_graph(3), Coloring((2, 1, 2))
    assert is_nice_vertex(p3, c, 2)
    with pytest.raises(ValueError, match=r"vertex -1 out of range 0\.\.2"):
        is_nice_vertex(p3, c, -1)
    with pytest.raises(ValueError, match=r"vertex 3 out of range 0\.\.2"):
        is_nice_vertex(p3, c, 3)


def test_z_p5_passes_with_star():
    p5 = path_graph(5)
    verdict = check_z(p5, Coloring((1, 2, 3, 1, 2)))
    assert verdict.passed
    star = verdict.witness["star"]
    assert verify_star(p5, Coloring((1, 2, 3, 1, 2)), star)
    assert star[-1] == 2  # the center has the top color


def test_z_c6_passes():
    assert check_z(C6, C6_COLORING).passed


def test_z_p4_fails():
    verdict = check_z(path_graph(4), Coloring((1, 2, 3, 1)))
    assert not verdict.passed


def test_z_improper_is_verdict_not_error():
    verdict = check_z(complete_graph(2), Coloring((1, 1)))
    assert not verdict.passed
    assert verdict.violations[0].kind == "monochromatic-edge"


def test_z_kn_all_distinct():
    for n in range(1, 6):
        g = complete_graph(n)
        c = Coloring(tuple(range(1, n + 1)))
        verdict = check_z(g, c)
        assert verdict.passed and c.k == n


def test_z_implies_grundy_and_cd():
    rng = random.Random(6)
    hits = 0
    for _ in range(120):
        g = gnp(rng.randint(1, 9), rng.choice([0.3, 0.6]), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        c = greedy_coloring(g, order)
        if check_z(g, c).passed:
            hits += 1
            assert check_grundy(g, c).passed
            assert check_cd(g, c).passed
    assert hits > 0


def test_grundy_top_class_is_all_cd():
    rng = random.Random(7)
    for _ in range(60):
        g = gnp(rng.randint(1, 10), 0.5, rng)
        c, _ = grundy_reduce(g, greedy_coloring(g))
        k = c.k
        if k == 0:
            continue
        top_cd = dominating_vertices(g, c, k)
        assert top_cd == [v for v in range(g.n) if c.colors[v] == k]


def test_verify_star_rejects_out_of_range_index():
    assert not verify_star(path_graph(5), Coloring((1, 2, 3, 1, 2)), (3, 1, 99))


def test_find_dominating_star_agrees_with_check():
    rng = random.Random(8)
    for _ in range(80):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        c = greedy_coloring(g)
        star = find_dominating_star(g, c)
        if star is not None and c.k:
            assert verify_star(g, c, star)


def test_verdict_consistency_enforced():
    from zcoloring import Verdict, Violation

    with pytest.raises(ValueError):
        Verdict(True, [Violation("x")])
    with pytest.raises(ValueError):
        Verdict(False, [])


def test_check_level_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown level 'b'"):
        check_level(path_graph(3), Coloring((1, 2, 1)), "b")
