"""Oracle checks.  The reference route is a naive enumeration of all
colorings with the verify-module predicates; the oracles must agree with it
on every small graph."""

import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import complete_graph, cycle_graph, path_graph, small_graphs

from zcoloring import (
    Coloring,
    Graph,
    SizeLimitError,
    catalog_from_text,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    exact_b,
    exact_chi,
    exact_gamma,
    exact_z,
    find_z_coloring,
    gen_Ft,
    gen_Gt,
    gen_Ht,
    gen_Ktt_minus_matching,
    gen_Tk,
    m_degree_bound,
    star_degree_bound,
    z_reaches,
)
from zcoloring.randgraphs import gnp

CATALOGS = Path(__file__).resolve().parent.parent / "catalogs"


def naive_params(g):
    """chi, gamma, b, z by enumerating every coloring with at most
    max_degree+1 colors (n+1 similarly bounds chi)."""
    n = g.n
    if n == 0:
        return 0, 0, 0, 0
    top = g.max_degree() + 1
    chi = n
    gamma = b = zmax = 0
    for assign in itertools.product(range(1, top + 1), repeat=n):
        c = Coloring(assign)
        if not check_proper(g, c).passed:
            continue
        if not c.is_normalized():
            continue
        k = c.k
        chi = min(chi, k)
        if k > gamma and check_grundy(g, c).passed:
            gamma = k
        if k > b and check_cd(g, c).passed:
            b = k
        if k > zmax and check_z(g, c).passed:
            zmax = k
    return chi, gamma, b, zmax


def test_chi_small_examples():
    assert exact_chi(complete_graph(4)).value == 4
    assert exact_chi(cycle_graph(5)).value == 3
    assert exact_chi(path_graph(5)).value == 2


def test_gamma_examples():
    assert exact_gamma(gen_Ht(3)).value == 4
    assert exact_gamma(complete_graph(5)).value == 5
    assert exact_gamma(gen_Tk(4).graph).value == 4
    assert exact_gamma(gen_Tk(3).graph).value == 3


def test_b_examples():
    assert exact_b(gen_Ft(4)).value == 4
    assert exact_b(gen_Ht(3)).value == 2
    assert exact_b(complete_graph(4)).value == 4


def test_z_examples():
    assert exact_z(path_graph(5)).value == 3
    assert exact_z(cycle_graph(5)).value == 3  # brute force over C_5 colorings
    assert exact_z(cycle_graph(6)).value == 3


def test_z_non_monotone_pair():
    inner = gen_Ktt_minus_matching(4)
    outer = gen_Ktt_minus_matching(5, 4)
    assert exact_z(inner).value == 4
    assert exact_z(outer).value == 2
    # inner really is an induced subgraph of outer (drop one vertex per side)
    induced = outer.induced([v for v in range(10) if v not in (4, 9)])
    from zcoloring.canon import canonical_certificate
    assert canonical_certificate(induced, Coloring((1,) * 8)) == canonical_certificate(
        inner, Coloring((1,) * 8)
    )


def test_all_params_equal_n_on_kn():
    for n in range(1, 6):
        g = complete_graph(n)
        assert exact_chi(g).value == n
        assert exact_gamma(g).value == n
        assert exact_b(g).value == n
        assert exact_z(g).value == n


def test_edgeless_graphs_all_one():
    g = Graph.from_edges(5, [])
    for oracle in (exact_chi, exact_gamma, exact_b, exact_z):
        res = oracle(g)
        assert res.value == 1
        assert res.witness.colors == (1,) * 5


def test_against_naive_enumeration():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = gnp(n, rng.choice([0.25, 0.5, 0.75]), rng)
        chi, gamma, b, zmax = naive_params(g)
        assert exact_chi(g).value == chi
        assert exact_gamma(g).value == gamma
        assert exact_b(g).value == b
        assert exact_z(g).value == zmax


def test_witnesses_pass_their_predicates():
    rng = random.Random(41)
    for _ in range(40):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        chi = exact_chi(g)
        assert check_proper(g, chi.witness).passed and chi.witness.k == chi.value
        assert check_cd(g, chi.witness).passed
        gamma = exact_gamma(g)
        assert check_grundy(g, gamma.witness).passed and gamma.witness.k == gamma.value
        b = exact_b(g)
        assert check_cd(g, b.witness).passed and b.witness.k == b.value
        zz = exact_z(g)
        assert check_z(g, zz.witness).passed and zz.witness.k == zz.value
        for res in (chi, gamma, b, zz):
            assert res.witness.is_normalized()


def test_chi_matches_fewest_independent_blocks():
    # chi is the fewest blocks of a partition into independent sets; the
    # witness, found by the b search, is a b-coloring as well
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 8))
    def check(g):
        res = exact_chi(g)
        assert res.value == min(len(blocks) for blocks in _independent_partitions(g)), g.edges()
        assert res.witness.k == res.value and check_proper(g, res.witness).passed
        assert check_cd(g, res.witness).passed

    check()


def test_exact_chi_runs_no_heuristic(monkeypatch):
    # chi comes from the b search alone, not from a greedy incumbent
    from zcoloring import oracle, reduce

    def refuse(*args, **kwargs):
        raise AssertionError("exact_chi called greedy_coloring")

    for module in (reduce, oracle):
        monkeypatch.setattr(module, "greedy_coloring", refuse, raising=False)
    rng = random.Random(44)
    hosts = [gnp(rng.randint(1, 9), rng.choice([0.3, 0.6]), rng) for _ in range(20)]
    for g in hosts + [gen_Ht(3), complete_graph(5), cycle_graph(5), Graph.from_edges(0, [])]:
        res = exact_chi(g)
        assert res.witness.k == res.value and check_proper(g, res.witness).passed


def test_exact_oracles_do_not_recurse():
    # chi and gamma on K_300 need 300 colours; neither keeps a Python frame
    # per colour or per vertex, so a recursion limit just above the current
    # depth is enough
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        g = complete_graph(300)
        for oracle in (exact_chi, exact_gamma):
            res = oracle(g, limit_n=300)
            assert res.value == 300 and res.witness.colors == tuple(range(1, 301))
    finally:
        sys.setrecursionlimit(limit)


def test_ordering_chain():
    rng = random.Random(42)
    for _ in range(50):
        g = gnp(rng.randint(1, 8), rng.choice([0.3, 0.6]), rng)
        chi = exact_chi(g).value
        gamma = exact_gamma(g).value
        b = exact_b(g).value
        zz = exact_z(g).value
        assert chi <= zz <= min(gamma, b)


def test_size_limits():
    big = Graph.from_edges(13, [])
    with pytest.raises(SizeLimitError):
        exact_chi(big)
    assert exact_chi(big, limit_n=13).value == 1
    with pytest.raises(SizeLimitError):
        exact_z(Graph.from_edges(15, []))


def test_explored_counts_accumulate():
    res = exact_z(path_graph(5))
    assert res.explored > 0


def test_find_z_coloring_bounds_allocation_by_the_star_degree():
    # a k above star_degree_bound is refuted before any table is sized by k
    tracemalloc.start()
    try:
        assert find_z_coloring(path_graph(5), 10**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_find_z_coloring_exact_decision():
    p5 = path_graph(5)
    assert find_z_coloring(p5, 3) is not None
    assert find_z_coloring(p5, 4) is None
    assert find_z_coloring(Graph.from_edges(3, []), 1) is not None
    assert find_z_coloring(complete_graph(3), 1) is None


def test_z_reaches_handles_spectrum_gaps():
    # K_4 admits only the 4-coloring, so z >= 3 must look above 3
    k4 = complete_graph(4)
    assert find_z_coloring(k4, 3) is None
    assert z_reaches(k4, 3)
    assert z_reaches(k4, 4)
    assert not z_reaches(path_graph(5), 4)


def test_m_degree_bound():
    assert m_degree_bound(complete_graph(4)) == 4
    assert m_degree_bound(Graph.from_edges(5, [(0, i) for i in range(1, 5)])) == 2
    assert m_degree_bound(Graph.from_edges(3, [])) == 1


def test_star_degree_bound():
    assert star_degree_bound(complete_graph(4)) == 4
    # a star K_{1,4}: the centre's neighbours are leaves, so no 3-vertex star
    assert star_degree_bound(Graph.from_edges(5, [(0, i) for i in range(1, 5)])) == 2
    assert star_degree_bound(Graph.from_edges(3, [])) == 1
    assert star_degree_bound(Graph.from_edges(0, [])) == 0
    # three disjoint P_3: three vertices of degree 2, but none has a
    # neighbour of degree 2
    three_paths = Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
    assert m_degree_bound(three_paths) == 3 and star_degree_bound(three_paths) == 2
    assert star_degree_bound(path_graph(5)) == 3


def test_star_degree_bound_caps_z():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check_one(g):
        bound = star_degree_bound(g)
        # k vertices of degree >= k-1 force a vertex of degree >= k-1
        assert m_degree_bound(g) <= g.max_degree() + 1, g.edges()
        assert exact_z(g).value <= bound <= min(m_degree_bound(g), g.max_degree() + 1), g.edges()

    for g in (path_graph(5), cycle_graph(6), gen_Ktt_minus_matching(4), gen_Ktt_minus_matching(5, 4),
              gen_Ht(3), gen_Ft(4)):
        check_one(g)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 8))
    def check(g):
        check_one(g)

    check()


def test_oracle_outputs_golden():
    # `digest` pins the gamma values, value and witness of the b and z
    # oracles, z_reaches and find_z_coloring, as the searches found them
    # before they learned to cut branches where a class can no longer get a
    # color-dominating vertex.  `peeled` pins the gamma witnesses, which the
    # maximal-independent-set recursion peels since it replaced the witness
    # search
    rng = random.Random(2026)
    hosts = [gnp(rng.randint(1, 9), rng.choice([0.25, 0.4, 0.6, 0.8]), rng) for _ in range(60)]
    hosts += [path_graph(5), cycle_graph(6), gen_Ktt_minus_matching(4), gen_Ktt_minus_matching(5, 4),
              gen_Ht(3), gen_Ft(4)]
    digest = hashlib.sha256()
    peeled = hashlib.sha256()
    for g in hosts:
        gamma = exact_gamma(g)
        assert gamma.witness.k == gamma.value and check_grundy(g, gamma.witness).passed
        digest.update(repr(gamma.value).encode())
        peeled.update(repr(gamma.witness.colors).encode())
        for oracle in (exact_b, exact_z):
            res = oracle(g)
            digest.update(repr((res.value, res.witness.colors)).encode())
        digest.update(repr([z_reaches(g, t) for t in range(2, 6)]).encode())
        for k in range(1, 6):
            found = find_z_coloring(g, k)
            digest.update(repr(None if found is None else found.colors).encode())
    assert digest.hexdigest() == "d91e86099e8cfcf4dc2d36bb53ee6afa956534c9569e5c34f22dfc73272f6100"
    assert peeled.hexdigest() == "3c0f734d7d0ff392451a4a8ced50af35b1a1cb7b47f68492731bc9403d0cff0c"


def test_oracle_search_tree_pinned():
    # total work of each oracle over the hosts of test_oracle_outputs_golden
    # (subsets solved for gamma, search nodes for b and z): a change that
    # keeps the node order keeps these sums.  z read 2178 before the z search
    # narrowed each hold to the colours its vertex can still dominate in and
    # asked for k-1 distinct star leaves
    rng = random.Random(2026)
    hosts = [gnp(rng.randint(1, 9), rng.choice([0.25, 0.4, 0.6, 0.8]), rng) for _ in range(60)]
    hosts += [path_graph(5), cycle_graph(6), gen_Ktt_minus_matching(4), gen_Ktt_minus_matching(5, 4),
              gen_Ht(3), gen_Ft(4)]
    totals = tuple(sum(oracle(g).explored for g in hosts) for oracle in (exact_gamma, exact_b, exact_z))
    assert totals == (808, 980, 1867)


def test_oracle_search_tree_pinned_at_atom_scale():
    # the golden hosts have at most 9 vertices; the atoms of the checked-in
    # t=4 catalogs have up to 14, the trees `atoms gen` searches.  The z sums
    # read 1645 and 3033 before the reachable-colour and distinct-leaf cuts
    totals = []
    for name in ("d4_trianglefree", "d4_full"):
        catalog = catalog_from_text((CATALOGS / f"{name}.catalog").read_text(encoding="ascii"))
        hosts = [a.cg.graph for a in catalog.atoms]
        totals.append(tuple(sum(oracle(g, limit_n=20).explored for g in hosts)
                            for oracle in (exact_b, exact_z)))
    assert totals == [(689, 1121), (1313, 2174)]


def _independent_partitions(g):
    """Every partition of the vertices into independent sets, as block lists."""
    blocks = []

    def place(v):
        if v == g.n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            if not any(g.has_edge(v, u) for u in b):
                b.append(v)
                yield from place(v + 1)
                b.pop()
        blocks.append([v])
        yield from place(v + 1)
        blocks.pop()

    yield from place(0)


def _naive_counts(g):
    """The sets of k for which g has a Grundy coloring, a b-coloring and a
    z-coloring with exactly k colors: each labelling of each partition into
    independent sets, checked against the definitions (Grundy: every vertex
    sees all lower colors; b: every class holds a color-dominating vertex; z:
    Grundy, and a color-k vertex seeing color-dominating neighbours of every
    other color while being one itself)."""
    grundy, b, z = set(), set(), set()
    for blocks in _independent_partitions(g):
        k = len(blocks)
        if k in z:
            continue
        for labels in itertools.permutations(range(1, k + 1)):
            color = [0] * g.n
            for label, block in zip(labels, blocks):
                for v in block:
                    color[v] = label
            seen = [{color[w] for w in g.adj[v]} for v in range(g.n)]
            dom = [seen[v] | {color[v]} == set(range(1, k + 1)) for v in range(g.n)]
            if {color[v] for v in range(g.n) if dom[v]} == set(range(1, k + 1)):
                b.add(k)
            if any(not set(range(1, color[v])) <= seen[v] for v in range(g.n)):
                continue
            grundy.add(k)
            if any(color[u] == k and dom[u]
                   and {color[w] for w in g.adj[u] if dom[w]} == set(range(1, k))
                   for u in range(g.n)):
                z.add(k)
                break
    return grundy, b, z


def _naive_z_counts(g):
    """Every k for which g has a z-coloring with exactly k colors."""
    return _naive_counts(g)[2]


def test_find_z_coloring_matches_naive_enumeration():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 7))
    def check(g):
        counts = _naive_z_counts(g)
        for k in range(1, g.n + 2):
            found = find_z_coloring(g, k)
            assert (found is not None) == (k in counts), (g.edges(), k)
            if found is not None:
                assert found.k == k and check_z(g, found).passed

    check()


def test_finders_match_naive_enumeration_per_k():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from zcoloring import oracle

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 7))
    def check(g):
        _, b, _ = _naive_counts(g)
        for k in range(2, g.n + 2):
            found = oracle._search(g, k, False)[0]
            assert (found is not None) == (k in b), (g.edges(), k)
            if found is not None:
                c = Coloring(tuple(found))
                assert c.k == k and check_cd(g, c).passed, (g.edges(), k)

    check()


def _first_fit_max(g):
    """Largest color count of first-fit over every vertex order, stopping
    early at max_degree+1, which no first-fit coloring exceeds."""
    top = max((len(a) for a in g.adj), default=-1) + 1
    best = 0
    for order in itertools.permutations(range(g.n)):
        color = [0] * g.n
        for v in order:
            seen = {color[w] for w in g.adj[v]}
            c = 1
            while c in seen:
                c += 1
            color[v] = c
        best = max(best, max(color, default=0))
        if best == top:
            break
    return best


def test_gamma_matches_first_fit_over_all_orders():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 7))
    def check(g):
        res = exact_gamma(g)
        assert res.value == _first_fit_max(g), g.edges()
        assert res.witness.k == res.value and check_grundy(g, res.witness).passed

    check()


def test_gamma_pinned_on_dense_14_vertex_graph():
    # the value as the downward probes found it (290 890 nodes) before it
    # came from the maximal-independent-set recursion, and the witness that
    # recursion peels; a witness search at that value took 61 578 nodes
    g = gnp(14, 0.45, random.Random(1))
    res = exact_gamma(g, limit_n=14)
    assert res.value == 7
    assert res.witness.k == 7 and check_grundy(g, res.witness).passed
    digest = hashlib.sha256(repr(res.witness.colors).encode()).hexdigest()
    assert digest == "633b40345ae2f40c7b5b2279b6f0374bdbd55ca726409559ead9a49ec1ecc708"
    assert res.explored < 1_000


def test_exact_gamma_runs_no_search(monkeypatch):
    # the witness is peeled from the recursion that gives the value
    from zcoloring import oracle

    def spy(*args):
        raise AssertionError("exact_gamma called _search")

    monkeypatch.setattr(oracle, "_search", spy)
    rng = random.Random(43)
    hosts = [gnp(rng.randint(2, 9), rng.choice([0.3, 0.6]), rng) for _ in range(30)]
    for g in hosts + [gen_Ht(3), complete_graph(5), path_graph(5), Graph.from_edges(0, [])]:
        res = exact_gamma(g)
        assert res.witness.k == res.value and check_grundy(g, res.witness).passed


@pytest.mark.parametrize("n, p, digest, parent_nodes, most", [
    (10, 0.8, "2159da883a28555da4690e13d8977e935f0fb9b58cd3291e423ba6807207ec6e", 229_992, 1_000),
    (12, 0.7, "b8438a82dc47d360e3195e9b666d44cedc690d390c691e0b50e1b45f26a4b29c", 1_246_315, 5_000),
], ids=["gnp10_0.8", "gnp12_0.7"])
def test_z_pinned_on_dense_hosts(n, p, digest, parent_nodes, most):
    # value and witness as the ordered z search alone found them
    # (`parent_nodes` nodes) before targets were refuted through the b search
    res = exact_z(gnp(n, p, random.Random(1)))
    assert res.value == 6
    assert hashlib.sha256(repr(res.witness.colors).encode()).hexdigest() == digest
    assert res.explored < most < parent_nodes


@pytest.mark.parametrize("n, p, seed, digest, parent_nodes, most", [
    (11, 0.4, 1, "e75a0b409fbe5e2ffc519d3c16047b29b56fb7c422a4cf89016bba9ef6417e0f", 2_743, 1_000),
    (10, 0.5, 2, "636da1326b5d995860d81f0d8fc12088c350baf7ff7f47787c2167ead8f515fb", 1_304, 500),
], ids=["gnp11_0.4", "gnp10_0.5"])
def test_z_pinned_where_star_cut_fires(n, p, seed, digest, parent_nodes, most):
    # value and witness as found (`parent_nodes` nodes) before the z search
    # cut branches where no dominating star can form any more; the degree
    # bounds agree on 5 here, so only the dynamic cut lowers the count
    g = gnp(n, p, random.Random(seed))
    assert star_degree_bound(g) == m_degree_bound(g) == 5
    res = exact_z(g)
    assert res.value == 5
    assert hashlib.sha256(repr(res.witness.colors).encode()).hexdigest() == digest
    assert res.explored < most < parent_nodes


def test_z_search_cuts_on_reachable_colours_and_distinct_leaves():
    from zcoloring import oracle

    # a b-colouring with 4 colours exists but no z-colouring.  The z search
    # refuted it in 261 nodes before it narrowed each hold to the colours in
    # which its vertex can still dominate, given the colours its neighbours
    # can still take; that narrowing alone takes 113 nodes, the
    # distinct-leaf star test alone 142
    g = Graph.from_edges(11, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 6), (1, 8), (2, 3), (2, 7), (2, 9),
                              (6, 8), (7, 9), (7, 10)])
    assert oracle._search(g, 4, False)[0] is not None
    assert oracle._search(g, 4, True) == (None, 14)
    # on G_5 the b search finds 5 and 4 colours and the z search refutes
    # both; it took 50 691 and 10 387 nodes with neither cut, 26 107 and
    # 6 310 with the narrowed holds alone, and 634 and 481 with the
    # distinct-leaf test alone
    g5 = gen_Gt(5)
    assert [oracle._search(g5, k, True) for k in (5, 4)] == [(None, 10), (None, 8)]


def _near_trees(st, max_n):
    """Hypothesis strategy (`st` is hypothesis.strategies): a tree on
    2..max_n vertices, each vertex joined to an earlier one, plus up to two
    more edges.  These are the sparse hosts, like an atom less one edge,
    where few vertices can still take a colour and the z search narrows
    holds most; `small_graphs` rarely draws them."""

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, max_n))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        if spare:
            edges.update(draw(st.lists(st.sampled_from(spare), max_size=2)))
        return Graph.from_edges(n, sorted(edges))

    return graphs()


def test_z_decisions_match_naive_enumeration_on_near_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_near_trees(st, 7))
    def check(g):
        counts = _naive_z_counts(g)
        for k in range(1, g.n + 2):
            found = find_z_coloring(g, k)
            assert (found is not None) == (k in counts), (g.edges(), k)
            if found is not None:
                assert found.k == k and check_z(g, found).passed
        for t in range(2, 6):
            assert z_reaches(g, t) == any(k >= t for k in counts), (g.edges(), t)

    check()


def test_b_and_z_searches_read_no_adjacency_masks(monkeypatch):
    # properness comes from the neighbour-colour masks the search keeps
    def refuse(self):
        raise AssertionError("the b/z search built adjacency masks")

    monkeypatch.setattr(Graph, "adjacency_masks", refuse)
    rng = random.Random(47)
    for g in [gnp(rng.randint(1, 9), rng.choice([0.3, 0.6]), rng) for _ in range(20)] + [
            path_graph(5), complete_graph(4), Graph.from_edges(3, []), Graph.from_edges(0, [])]:
        b, z = exact_b(g), exact_z(g)
        assert check_cd(g, b.witness).passed and check_z(g, z.witness).passed
        assert z_reaches(g, z.value) and not z_reaches(g, z.value + 1)
        assert find_z_coloring(g, z.value + 1) is None
        if g.n:
            assert find_z_coloring(g, z.value) == z.witness


def test_z_decisions_run_the_z_search_alone(monkeypatch):
    # find_z_coloring and z_reaches run no b probe; exact_z still does, and
    # the answers and witnesses are those of the b-then-z probe
    from zcoloring import oracle

    searches = []
    search = oracle._search

    def spy(g, k, star):
        searches.append(star)
        return search(g, k, star)

    rng = random.Random(48)
    hosts = [gnp(rng.randint(2, 9), rng.choice([0.2, 0.4, 0.7]), rng) for _ in range(25)]
    hosts += [gen_Gt(4), path_graph(6), complete_graph(4)]
    for g in hosts:
        with monkeypatch.context() as m:
            m.setattr(oracle, "_search", spy)
            found = [find_z_coloring(g, k) for k in range(1, g.n + 1)]
            reaches = [z_reaches(g, t) for t in range(2, 6)]
        assert all(searches), g.edges()
        searches.clear()
        for k, witness in enumerate(found, start=1):
            b_first = oracle._probe(g, (k,), oracle._B_THEN_Z) if k <= star_degree_bound(g) else None
            assert witness == (b_first.witness if b_first else None)
        for t, reached in zip(range(2, 6), reaches):
            assert reached == (oracle._probe(g, range(t, star_degree_bound(g) + 1), oracle._B_THEN_Z) is not None)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_search", spy)
        exact_z(gen_Gt(4), limit_n=19)
    assert searches[0] is False
