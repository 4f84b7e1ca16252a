import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from conftest import complete_graph, cycle_graph, path_graph, small_graphs

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
from zcoloring.reduce import _ColorCounts, _cd, _grundy
from zcoloring.verify import neighbor_colors

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
        assert out.normalize() == out
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
        assert out.normalize() == out
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
        assert out.normalize() == out
        assert out.k <= c.k
        assert trace.iterations <= g.n
        again, trace2 = z_transform(g, out)
        assert again == out and trace2.iterations == 0  # idempotent


def test_public_stages_reject_bad_input_with_value_error():
    p4 = path_graph(4)
    wrong_length = [Coloring((1, 2, 1)), Coloring((1, 2, 1, 2, 1))]
    improper = Coloring((1, 1, 2, 1))
    not_grundy = Coloring((1, 3, 1, 2))  # proper, vertex 1 misses color 2
    for stage in (grundy_reduce, cd_gcd_transform, z_transform):
        for c in [*wrong_length, improper]:
            with pytest.raises(ValueError):
                stage(p4, c)
    for stage in (cd_gcd_transform, z_transform):
        with pytest.raises(ValueError, match="Grundy"):
            stage(p4, not_grundy)


def test_stage_bodies_reject_bad_input_inside_z_heuristic(monkeypatch):
    # z_heuristic enters _cd and _z without the public stages; each body
    # still refuses an input its stage would refuse, with that stage's error
    from zcoloring import reduce

    p4 = path_graph(4)
    for colors, message in (([1, 1, 2, 1], "cd_gcd_transform requires a proper coloring"),
                            ([1, 3, 1, 2], "cd_gcd_transform requires a Grundy coloring")):
        monkeypatch.setattr(reduce, "_first_fit", lambda g, order, colors=colors: (colors, neighbor_colors(g, colors)))
        with pytest.raises(ValueError, match=message):
            z_heuristic(p4)
    monkeypatch.undo()
    # first-fit along 0, 3, 2, 1 colors the 4-path 1, 3, 2, 1: Grundy, and
    # class 1 has no CD vertex
    order = [0, 3, 2, 1]
    assert not check_cd(p4, greedy_coloring(p4, order)).passed
    monkeypatch.setattr(reduce, "_cd", lambda table, moves: 0)
    with pytest.raises(ValueError, match="z_transform requires a color-dominating coloring"):
        z_heuristic(p4, order)


def test_z_round_rejects_a_non_grundy_scan_result(monkeypatch):
    # on this host a z round's recoloring leaves a proper coloring that is
    # not Grundy; without the round's Grundy scan, its CD stage refuses it
    from zcoloring import reduce

    g = Graph.from_edges(10, [(0, 3), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (1, 7), (2, 7),
                              (3, 4), (3, 5), (3, 9), (4, 5), (4, 7), (4, 8), (4, 9), (5, 8), (7, 9)])
    c, trace = z_heuristic(g)
    assert trace.iterations > 0 and check_z(g, c).passed
    monkeypatch.setattr(reduce, "_grundy", lambda table, moves: None)
    with pytest.raises(ValueError, match="cd_gcd_transform requires a Grundy coloring"):
        z_heuristic(g)


def test_grundy_reduce_huge_color_values():
    # empty classes between used colors cost one iteration each and nothing
    # else; none of them may be materialized.  The call runs in a child
    # process capped at 1 GiB of address space, so a regression fails with
    # MemoryError instead of exhausting the machine's memory.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from zcoloring import Coloring, Graph, grundy_reduce\n"
        "c, trace = grundy_reduce(Graph.from_edges(3, [(0, 1), (1, 2)]), Coloring((10**12, 1, 10**15)))\n"
        "print(c.colors, trace.moves, trace.iterations)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"(2, 1, 2) [(2, 3, 2)] {10**15 - 1}\n"


def test_grundy_reduce_memory_is_linear_in_n():
    # the identity coloring of a long path has n colors; nothing may be sized
    # by n * k
    g = path_graph(2000)
    c = Coloring(tuple(range(1, 2001)))
    tracemalloc.start()
    try:
        out, trace = grundy_reduce(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.k == 2 and len(trace.moves) == 1998
    assert peak < 2 << 20


def test_table_stages_refuse_too_many_colors_before_building():
    # a Grundy coloring has k <= max_degree+1, so a larger k is refused with
    # the Grundy (or, if improper, the properness) error before the n(k+1)
    # count table is built
    k2 = complete_graph(2)
    for stage in (cd_gcd_transform, z_transform):
        for colors, message in (((1, 10**10), "Grundy"), ((10**10, 10**10), "proper")):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"{stage.__name__} requires a {message} coloring"):
                    stage(k2, Coloring(colors))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


def test_color_counts_track_moves_and_deletions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 9))
        order = draw(st.permutations(range(g.n)))
        # a proper coloring with gaps, so that empty classes exist
        colors = [2 * col - draw(st.integers(0, 1)) for col in greedy_coloring(g, order).colors]
        steps = draw(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)), max_size=25))
        return g, colors, steps

    def recount(g, colors, k):
        return [[sum(colors[w] == col for w in g.adj[v]) for col in range(k + 1)] for v in range(g.n)]

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, colors, steps = case
        table = _ColorCounts(g, colors)
        for a, b in steps:
            empty = [j for j in range(1, table.k + 1) if j not in table.colors]
            if empty and a % 3 == 0:
                table.delete(empty[b % len(empty)])
            elif g.n:
                # a legal move: v takes a color 1..k absent from its neighbors
                v = a % g.n
                free = [col for col in range(1, table.k + 1)
                        if col != table.colors[v] and not table.nbc[v] >> col & 1]
                if free:
                    table.move(v, free[b % len(free)])
            assert table.nbc == neighbor_colors(g, table.colors)
            assert table.cnt == recount(g, table.colors, table.k)
            table.require_proper("test")

    check()


def test_z_round_grundy_scan_is_grundy_reduce():
    # the z rounds' scan deletes each class it empties through the table, as
    # it goes; its result and moves are grundy_reduce's first-fit, and the
    # table it leaves is the one built from scratch for its colors
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 9))
        order = draw(st.permutations(range(g.n)))
        # a proper coloring with gaps, class 1 sometimes empty
        shift = draw(st.integers(0, 1))
        colors = [2 * col - draw(st.integers(0, 1)) + shift for col in greedy_coloring(g, order).colors]
        return g, colors, draw(st.booleans())

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, colors, empty_top = case
        table = _ColorCounts(g, colors)
        top = [v for v, col in enumerate(colors) if col == table.k]
        if empty_top and len(top) == 1:
            # as in a z round: the top class's only vertex moves down, and
            # the top class stays in the table, empty
            free = [col for col in range(1, table.k) if not table.nbc[top[0]] >> col & 1]
            if free:
                table.move(top[0], free[-1])
        expected, trace = grundy_reduce(g, Coloring(tuple(table.colors)))
        moves = []
        _grundy(table, moves)
        assert table.colors == list(expected.colors)
        assert moves == trace.moves
        assert table.k == expected.k
        assert table.nbc == neighbor_colors(g, table.colors)
        assert table.cnt == [[sum(table.colors[w] == col for w in g.adj[v]) for col in range(table.k + 1)]
                             for v in range(g.n)]

    check()


def test_only_single_vertex_moves_build_counts(monkeypatch):
    # the CD stage dissolves whole classes on the masks alone; a z round's
    # recoloring and Grundy scan move single vertices and need the counts,
    # so z_transform builds them once, at its first round, or never
    tables = []
    init = _ColorCounts.__init__

    def spy(table, g, colors):
        init(table, g, colors)
        tables.append(table)

    monkeypatch.setattr(_ColorCounts, "__init__", spy)

    def counts_built():
        return sum("cnt" in vars(table) for table in tables)

    rng = random.Random(20)
    rounds = dissolves = 0
    for _ in range(80):
        g = gnp(rng.randint(1, 60), rng.choice([0.1, 0.3, 0.6]), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        c, trace = cd_gcd_transform(g, greedy_coloring(g, order))
        assert counts_built() == 0
        dissolves += bool(trace.moves)
        _, trace = z_transform(g, c)
        assert counts_built() == min(trace.iterations, 1)
        rounds += trace.iterations
        tables.clear()
    assert dissolves and rounds


def test_dissolve_keeps_masks_and_counts_built_or_not():
    # _cd on a table whose counts were never read, and on one whose counts
    # were read first, gives the same colors, masks, moves and class checks;
    # the masks left are those built from scratch, and so are the counts
    # kept up to date from the start (without them, counts read afterwards
    # are built from the result, so only the masks and the comparison with
    # the counted run check the count-free path)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 10))
        return g, greedy_coloring(g, draw(st.permutations(range(g.n)))).colors

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, colors = case
        runs = []
        for read_first in (False, True):
            table = _ColorCounts(g, colors)
            if read_first:
                assert len(table.cnt) == g.n
            moves = []
            iterations = _cd(table, moves)
            runs.append((table.colors, table.nbc, moves, iterations))
            assert table.nbc == neighbor_colors(g, table.colors)
            if read_first:
                assert table.cnt == [[sum(table.colors[w] == col for w in g.adj[v]) for col in range(table.k + 1)]
                                     for v in range(g.n)]
        assert runs[0] == runs[1]

    check()


def test_z_heuristic_is_the_composed_stages():
    rng = random.Random(39)
    for _ in range(60):
        g = gnp(rng.randint(1, 40), rng.choice([0.1, 0.3, 0.6]), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        c1, tr1 = grundy_reduce(g, greedy_coloring(g, order))
        # first-fit output is Grundy already, so z_heuristic skips this stage
        assert c1 == greedy_coloring(g, order) and tr1.moves == []
        c2, tr2 = cd_gcd_transform(g, c1)
        c3, tr3 = z_transform(g, c2)
        c, trace = z_heuristic(g, order)
        assert c == c3
        assert trace.moves == tr1.moves + tr2.moves + tr3.moves
        assert trace.iterations == tr3.iterations


def test_first_fit_builds_the_masks_and_z_heuristic_one_table(monkeypatch):
    # first-fit ORs each vertex's new color into its neighbours' masks: its
    # colors are those of a pull-style first-fit, its masks those built from
    # scratch, and z_heuristic runs both stages on that one table without
    # building masks of its own
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from zcoloring import reduce, verify

    mask_builds, tables = [], []

    def count_masks(g, colors):
        mask_builds.append(g)
        return neighbor_colors(g, colors)

    init = _ColorCounts.__init__

    def spy(table, *args):
        init(table, *args)
        tables.append(table)

    for module in (verify, reduce):
        monkeypatch.setattr(module, "neighbor_colors", count_masks)
    monkeypatch.setattr(_ColorCounts, "__init__", spy)

    def pull_first_fit(g, order):
        colors = [0] * g.n
        for v in order:
            seen = {colors[w] for w in g.adj[v]}
            colors[v] = next(col for col in itertools.count(1) if col not in seen)
        return colors

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 10))
        return g, draw(st.permutations(range(g.n)))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, order = case
        colors, nbc = reduce._first_fit(g, order)
        assert colors == pull_first_fit(g, order)
        assert greedy_coloring(g, order).colors == tuple(colors)
        assert nbc == neighbor_colors(g, colors)
        mask_builds.clear()
        tables.clear()
        z_heuristic(g, order)
        assert mask_builds == [] and len(tables) == 1

    check()


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
    assert out.normalize() == out


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


# Set-based reference copies of grundy_reduce and cd_gcd_transform as they
# were before the reduce stages moved to neighbour-colour masks.


def _ref_classes_of(c):
    out = [set() for _ in range(c.k)]
    for v, col in enumerate(c.colors):
        out[col - 1].add(v)
    return out


def ref_grundy_reduce(g, c):
    if not check_proper(g, c):
        raise ValueError("grundy_reduce requires a proper coloring")
    color_of = list(c.colors)
    classes = _ref_classes_of(c)
    moves, iterations = [], 0
    i = 2
    while i <= len(classes):
        iterations += 1
        for v in sorted(classes[i - 1]):
            nbr_colors = {color_of[w] for w in g.adj[v]}
            j = next((j for j in range(1, i) if j not in nbr_colors), None)
            if j is not None:
                classes[i - 1].discard(v)
                classes[j - 1].add(v)
                color_of[v] = j
                moves.append((v, i, j))
        if not classes[i - 1]:
            del classes[i - 1]
            for idx in range(i - 1, len(classes)):
                for v in classes[idx]:
                    color_of[v] = idx + 1
        else:
            i += 1
    return Coloring(tuple(color_of)), moves, iterations


def _ref_cd_vertex(g, color_of, cls, j, k):
    needed = set(range(1, k + 1)) - {j}
    for v in sorted(cls):
        if needed <= {color_of[w] for w in g.adj[v]}:
            return v
    return None


def ref_cd_gcd_transform(g, c):
    if not check_grundy(g, c):
        raise ValueError("cd_gcd_transform requires a Grundy coloring")
    color_of = list(c.colors)
    classes = _ref_classes_of(c)
    moves, iterations = [], 0
    j = len(classes) - 2
    while j >= 1:
        iterations += 1
        k = len(classes)
        if _ref_cd_vertex(g, color_of, classes[j - 1], j, k) is not None:
            j -= 1
            continue
        for v in sorted(classes[j - 1]):
            nbr_colors = {color_of[w] for w in g.adj[v]}
            p = next(p for p in range(j + 1, k + 1) if p not in nbr_colors)
            classes[p - 1].add(v)
            color_of[v] = p
            moves.append((v, j, p))
        del classes[j - 1]
        for idx in range(j - 1, len(classes)):
            for v in classes[idx]:
                color_of[v] = idx + 1
        j = len(classes) - 2
    return Coloring(tuple(color_of)), moves, iterations


def _same_as_reference(stage, reference, g, c):
    try:
        expected = reference(g, c)
    except ValueError:
        with pytest.raises(ValueError):
            stage(g, c)
        return False
    out, trace = stage(g, c)
    assert (out, trace.moves, trace.iterations) == expected
    return True


def test_reduce_stages_match_set_based_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def colored_graphs(draw):
        # any coloring with colors 1..n+2: proper or not, normalized or not
        n = draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
        colors = draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n))
        if draw(st.booleans()):
            # bump colors upward until proper
            for v in range(n):
                while any(colors[w] == colors[v] for w in g.adj[v] if w < v):
                    colors[v] += 1
        return g, Coloring(tuple(colors)), draw(st.permutations(range(n)))

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(colored_graphs())
    def check(case):
        g, c, order = case
        if _same_as_reference(grundy_reduce, ref_grundy_reduce, g, c):
            reduced, _ = grundy_reduce(g, c)
            assert _same_as_reference(cd_gcd_transform, ref_cd_gcd_transform, g, reduced)
        # a proper coloring may or may not be Grundy; both sides must agree
        _same_as_reference(cd_gcd_transform, ref_cd_gcd_transform, g, c)
        assert _same_as_reference(cd_gcd_transform, ref_cd_gcd_transform, g, greedy_coloring(g, order))

    check()


def test_grundy_reduce_is_first_fit_along_the_input_classes():
    # a vertex of input class s moves to the least color its neighbours in
    # the (already reduced) lower classes miss: first-fit in (color, vertex)
    # order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 9))
        # a proper coloring with colors in 1..n, usually with gaps
        colors = draw(st.lists(st.integers(1, max(g.n, 1)), min_size=g.n, max_size=g.n))
        for v in range(g.n):
            taken = {colors[w] for w in g.adj[v] if w < v}
            if colors[v] in taken:
                colors[v] = draw(st.sampled_from([c for c in range(1, g.n + 1) if c not in taken]))
        return g, Coloring(tuple(colors))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, c = case
        reduced, _ = grundy_reduce(g, c)
        assert reduced == greedy_coloring(g, sorted(range(g.n), key=lambda v: (c.colors[v], v)))

    check()
