import hashlib
import pathlib
import random

import pytest

from conftest import complete_graph, cycle_graph, path_graph

from zcoloring import (
    Coloring,
    Graph,
    cd_gcd_transform,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    complementary,
    exact_chi,
    find_dominating_star,
    gen_Gt,
    gen_Ht,
    gen_Rk,
    gen_Tk,
    greedy_coloring,
    grundy_reduce,
    iterated_z,
    serialize_coloring,
    z_heuristic,
    z_transform,
)
from zcoloring.randgraphs import gnp, random_tree

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_greedy_identity_order_is_grundy():
    rng = random.Random(30)
    for _ in range(60):
        g = gnp(rng.randint(1, 20), rng.choice([0.2, 0.5, 0.8]), rng)
        c = greedy_coloring(g)
        assert check_grundy(g, c).passed
        assert c.k <= g.max_degree() + 1


def test_greedy_rejects_non_permutation():
    with pytest.raises(ValueError):
        greedy_coloring(path_graph(3), [0, 1])
    with pytest.raises(ValueError):
        greedy_coloring(path_graph(3), [0, 1, 1])


def test_grundy_reduce_fixed_point():
    p4 = path_graph(4)
    c, trace = grundy_reduce(p4, Coloring((1, 2, 3, 1)))
    assert c.colors == (1, 2, 3, 1)
    assert trace.moves == []


def test_grundy_reduce_k2_renames():
    c, _ = grundy_reduce(complete_graph(2), Coloring((1, 3)))
    assert c.colors == (1, 2)


def test_grundy_reduce_c4_hand_trace():
    # scan i=3: vertex 2 lacks color 1 -> class 1, class 3 empties and the old
    # class 4 is renamed down; rescanning i=3 moves vertex 3 to class 2
    c, trace = grundy_reduce(cycle_graph(4), Coloring((1, 2, 3, 4)))
    assert c.colors == (1, 2, 1, 2)
    assert trace.moves == [(2, 3, 1), (3, 3, 2)]


def test_grundy_reduce_rejects_improper():
    with pytest.raises(ValueError):
        grundy_reduce(complete_graph(2), Coloring((1, 1)))


def test_grundy_reduce_properties():
    rng = random.Random(31)
    for _ in range(80):
        g = gnp(rng.randint(1, 15), rng.choice([0.3, 0.6]), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        base = greedy_coloring(g, order)
        # stretch colors apart to get a proper but non-Grundy, non-normalized input
        colors = [2 * c - rng.choice([0, 1]) for c in base.colors]
        start = Coloring(tuple(colors))
        assert check_proper(g, start).passed
        out, trace = grundy_reduce(g, start)
        assert check_grundy(g, out).passed
        assert out.is_normalized()
        assert out.k <= start.k
        assert len(trace.moves) <= g.n
        moved = [v for v, _f, _t in trace.moves]
        assert len(moved) == len(set(moved))  # each vertex moves at most once


def test_cd_gcd_c6_unchanged():
    c6 = cycle_graph(6)
    c, trace = cd_gcd_transform(c6, Coloring((3, 2, 1, 3, 2, 1)))
    assert c.colors == (3, 2, 1, 3, 2, 1)
    assert trace.moves == []


def test_cd_gcd_p5_with_apex_drops_to_two_colors():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (5, 2), (5, 4)])
    c, _ = cd_gcd_transform(g, Coloring((1, 2, 3, 1, 2, 4)))
    assert c.k == 2
    assert check_proper(g, c).passed and check_cd(g, c).passed


def test_cd_gcd_kn_unchanged():
    for n in (2, 4, 6):
        g = complete_graph(n)
        c, trace = cd_gcd_transform(g, Coloring(tuple(range(1, n + 1))))
        assert c.k == n and trace.moves == []


def test_cd_gcd_resolves_class_one():
    # Grundy coloring of P4 where class 1 has no dominating vertex
    p4 = path_graph(4)
    start = Coloring((1, 3, 2, 1))
    assert check_grundy(p4, start).passed
    assert not check_cd(p4, start).passed
    out, _ = cd_gcd_transform(p4, start)
    assert check_cd(p4, out).passed and check_grundy(p4, out).passed
    assert out.k == 2


def test_cd_gcd_rejects_non_grundy():
    with pytest.raises(ValueError):
        cd_gcd_transform(complete_graph(2), Coloring((1, 3)))


def test_cd_gcd_properties():
    rng = random.Random(32)
    for _ in range(80):
        g = gnp(rng.randint(1, 15), rng.choice([0.3, 0.6]), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        start = greedy_coloring(g, order)
        out, trace = cd_gcd_transform(g, start)
        assert check_grundy(g, out).passed
        assert check_cd(g, out).passed
        assert out.is_normalized()
        assert out.k <= start.k
        assert len(trace.moves) <= g.n
        for _v, frm, to in trace.moves:
            assert to > frm  # moves go strictly upward before renaming


def test_z_transform_p5_nice_vertex_fixed_point():
    p5 = path_graph(5)
    c, trace = z_transform(p5, Coloring((1, 2, 3, 1, 2)))
    assert c.colors == (1, 2, 3, 1, 2)
    assert trace.iterations == 0


def test_z_transform_kn_fixed_point():
    for n in (1, 3, 5):
        g = complete_graph(n)
        c, trace = z_transform(g, Coloring(tuple(range(1, n + 1))))
        assert c.k == n and trace.iterations == 0


def test_z_transform_rejects_wrong_input():
    with pytest.raises(ValueError):
        z_transform(path_graph(4), Coloring((1, 3, 2, 1)))  # Grundy but not CD


def test_z_transform_properties_random():
    rng = random.Random(33)
    for _ in range(40):
        g = gnp(12, 0.4, rng)
        order = list(range(12))
        rng.shuffle(order)
        c = greedy_coloring(g, order)
        c, _ = grundy_reduce(g, c)
        c, _ = cd_gcd_transform(g, c)
        out, trace = z_transform(g, c)
        assert check_z(g, out).passed
        assert out.is_normalized()
        assert out.k <= c.k
        assert trace.iterations <= g.n
        again, trace2 = z_transform(g, out)
        assert again == out and trace2.iterations == 0  # idempotent


def test_z_heuristic_k1():
    c, _ = z_heuristic(Graph.from_edges(1, []))
    assert c.colors == (1,)


def test_z_heuristic_trees_bounded_by_degree():
    rng = random.Random(34)
    for _ in range(200):
        t = random_tree(rng.randint(1, 30), rng)
        c, _ = z_heuristic(t)
        assert check_z(t, c).passed
        assert c.k <= t.max_degree() + 1


def test_z_heuristic_r4_canonic_order_reaches_four():
    r4 = gen_Rk(4)
    order = sorted(range(r4.graph.n), key=lambda v: (r4.coloring.colors[v], v))
    c, _ = z_heuristic(r4.graph, order)
    assert c.k == 4
    assert check_z(r4.graph, c).passed


def test_z_heuristic_chi_lower_bound():
    rng = random.Random(35)
    for _ in range(30):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        c, _ = z_heuristic(g)
        assert exact_chi(g).value <= c.k <= g.max_degree() + 1


def test_complementary_p5_reaches_two():
    p5 = path_graph(5)
    out = complementary(p5, Coloring((1, 2, 3, 1, 2)), budget=1000, rng_seed=0)
    assert out.k == 2
    assert check_proper(p5, out).passed
    assert out.is_normalized()


def test_complementary_kn_stays_n():
    g = complete_graph(4)
    out = complementary(g, Coloring((1, 2, 3, 4)), budget=50, rng_seed=0)
    assert out.k == 4


def test_complementary_c6_golden():
    c6 = cycle_graph(6)
    out = complementary(c6, Coloring((3, 2, 1, 3, 2, 1)), budget=1000, rng_seed=0)
    assert out.k <= 3
    golden = (GOLDEN / "c6_complementary.rec").read_text()
    assert serialize_coloring(c6, out) == golden


def test_complementary_validates_input():
    with pytest.raises(ValueError):
        complementary(path_graph(5), Coloring((1, 2, 3, 1, 2)), budget=0)
    with pytest.raises(ValueError):
        complementary(path_graph(4), Coloring((1, 2, 3, 1)), budget=10)  # not a z-coloring


def test_complementary_sampling_path_is_deterministic():
    rng = random.Random(36)
    g = gnp(14, 0.5, rng)
    c, _ = z_heuristic(g)
    a = complementary(g, c, budget=5, rng_seed=3)
    b = complementary(g, c, budget=5, rng_seed=3)
    assert a == b
    assert a.k <= c.k


def test_iterated_z_kn_constant():
    g = complete_graph(5)
    best, counts = iterated_z(g, rounds=4, rng_seed=0)
    assert best.k == 5 and counts == [5, 5, 5, 5]


def test_iterated_z_running_best_monotone():
    rng = random.Random(37)
    g = gnp(40, 0.5, rng)
    best, counts = iterated_z(g, rounds=20, rng_seed=1)
    assert len(counts) == 20
    assert all(counts[i + 1] <= counts[i] for i in range(19))
    assert best.k == min(counts)
    assert check_z(g, best).passed


def test_iterated_z_every_round_output_is_z():
    # counts are non-increasing, so the best of a prefix is that round's output
    rng = random.Random(38)
    g = gnp(18, 0.45, rng)
    for rounds in range(1, 6):
        best, counts = iterated_z(g, rounds=rounds, rng_seed=2)
        assert check_z(g, best).passed
        assert best.k == counts[-1] == min(counts)


def test_iterated_z_validates_rounds():
    with pytest.raises(ValueError):
        iterated_z(path_graph(3), rounds=0)


def test_heuristic_outputs_golden():
    # pins the records of all five heuristics and z_heuristic's move list
    # byte for byte; the digest was taken before the neighbour-colour masks
    # replaced the per-class predicate scans in reduce and verify
    rng = random.Random(2011)
    hosts = [gnp(n, p, rng) for n, p in ((30, 0.5), (60, 0.5), (200, 0.3), (1000, 0.03))]
    hosts += [gen_Gt(5), gen_Rk(5).graph, gen_Tk(6).graph, gen_Ht(5)]
    digest = hashlib.sha256()
    for g in hosts:
        greedy = greedy_coloring(g)
        grundy, _ = grundy_reduce(g, greedy)
        gcd, _ = cd_gcd_transform(g, grundy)
        z, trace = z_heuristic(g)
        iz, _ = iterated_z(g, rounds=4, rng_seed=1)
        for c in (greedy, grundy, gcd):
            digest.update(serialize_coloring(g, c).encode())
        for c in (z, iz):
            digest.update(serialize_coloring(g, c, find_dominating_star(g, c)).encode())
        digest.update(repr((trace.moves, trace.iterations)).encode())
    assert digest.hexdigest() == "e4a2f3009a6b258a7d7c8ac35ae834f1e1c1ec7aeb9ddbd7da45c8a878588c72"
