import hashlib
import random

import pytest

from conftest import complete_graph, cycle_graph, path_graph

from zcoloring import (
    ColoredGraph,
    Coloring,
    Graph,
    catalog_from_text,
    catalog_to_text,
    check_z,
    embed,
    exact_z,
    gen_Gt,
    gen_Rk,
    gen_Tk,
    generate_atoms,
    grundify,
    is_colored_isomorphic,
    phase1_generate,
    prove_upper_bound,
    z_reaches,
)
from zcoloring.atoms import embedding_valid
from zcoloring.graphs import serialize_colored_graph
from zcoloring.randgraphs import gnp, random_connected_gnp


def test_phase1_t0_single_vertex():
    out = phase1_generate(0)
    assert len(out) == 1
    assert out[0].graph.n == 1 and out[0].coloring.colors == (1,)


def test_phase1_t1_single_edge():
    out = phase1_generate(1)
    assert len(out) == 1
    assert out[0].graph.n == 2 and sorted(out[0].coloring.colors) == [1, 2]


def test_phase1_t2_triangle_and_path():
    out = phase1_generate(2)
    assert len(out) == 2
    triangle = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    four_path = ColoredGraph(
        Graph.from_edges(4, [(0, 2), (1, 2), (0, 3)]), Coloring((1, 2, 3, 2))
    )
    assert any(is_colored_isomorphic(cg, triangle) for cg in out)
    assert any(is_colored_isomorphic(cg, four_path) for cg in out)


def _leaf_requirements_hold(g, colors, t):
    # each star leaf u_p (vertex p-1, p <= t-1) sees every color p+1..t
    return all({colors[w] for w in g.adj[p - 1]} >= set(range(p + 1, t + 1)) for p in range(1, t))


def test_phase1_outputs_satisfy_leaf_requirements():
    for t in (2, 3, 4):
        for cg in phase1_generate(t):
            assert _leaf_requirements_hold(cg.graph, cg.coloring.colors, t)
            star_edges = {(min(i, t), max(i, t)) for i in range(t)}
            for u, v in cg.graph.edges():
                if (u, v) in star_edges:
                    continue
                assert not _leaf_requirements_hold(cg.graph.drop_edge(u, v), cg.coloring.colors, t)


def test_phase1_size_guard():
    with pytest.raises(ValueError):
        phase1_generate(5)


def test_grundify_identity_when_class_is_grundy():
    cg = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    assert grundify(cg, 2) == [cg]


def test_grundify_four_path_yields_p5_branch():
    # star leaf colors (1,2), center 3, extra color-2 vertex hanging off u_1
    cg = ColoredGraph(Graph.from_edges(4, [(0, 2), (1, 2), (0, 3)]), Coloring((1, 2, 3, 2)))
    out = grundify(cg, 2)
    assert len(out) == 2
    p5 = ColoredGraph(path_graph(5), Coloring((2, 1, 3, 2, 1)))
    assert any(is_colored_isomorphic(x, p5) for x in out)
    # the other branch wires u_2 to u_1: a triangle with a pendant vertex
    assert any(x.graph.has_triangle() for x in out)


def test_grundify_makes_class_k_grundy():
    for base in phase1_generate(3):
        for k in (3, 2):
            for out in grundify(base, k):
                colors = out.coloring.colors
                for v in range(out.graph.n):
                    if colors[v] != k:
                        continue
                    nbr_colors = {colors[w] for w in out.graph.adj[v]}
                    assert nbr_colors >= set(range(1, k))


def test_raw_candidates_golden():
    # pins every raw candidate (record and provenance) in enumeration order,
    # before dedup: Phase I for t = 0..4 and each grundify stage of t = 3,
    # triangle-free t = 4 and unfiltered t = 4; the digest was taken while
    # Phase I and grundify still built their option lists separately
    from zcoloring.atoms import _dedup, _grundify_with_prov, _phase1_with_prov

    digest = hashlib.sha256()

    def feed(pairs):
        for cg, prov in pairs:
            digest.update((serialize_colored_graph(cg) + f"provenance {prov}\n").encode())

    for t in range(5):
        feed(_phase1_with_prov(t))
    for t, triangle_free in ((3, False), (4, True), (4, False)):
        family = _dedup(_phase1_with_prov(t - 1))
        for k in range(t - 1, 1, -1):
            if triangle_free:
                family = [(cg, p) for cg, p in family if not cg.graph.has_triangle()]
            grown = [
                (out, f"{prov} | G{k} {extra}" if extra else prov)
                for cg, prov in family
                for out, extra in _grundify_with_prov(cg, k)
            ]
            feed(grown)
            family = _dedup(grown)
    assert digest.hexdigest() == "fbd74bc8152e974d3619cabdd61a146ef94c93fe40a5175fbefc7d7e7e830d93"


def test_grundify_enumerates_lazily():
    # class 2 has 12 vertices missing color 1 and there are 5 color-1
    # targets: about 1.76e10 options, so the first candidate must come
    # without materializing them
    import time
    import tracemalloc

    from zcoloring.atoms import _grundify_with_prov

    colors = (1,) * 5 + (2,) * 12 + (3,)
    g = Graph.from_edges(len(colors), [(v, 17) for v in range(17)])
    cg = ColoredGraph(g, Coloring(colors))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        out, prov = next(_grundify_with_prov(cg, 2))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert out.graph.n == 19 and out.coloring.colors[18] == 1
    assert prov == f"i1:S[] w<-{[list(range(5, 17))]}"


def test_grundify_range_check():
    cg = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    with pytest.raises(ValueError):
        grundify(cg, 3)
    with pytest.raises(ValueError):
        grundify(cg, 1)


def test_d1_and_d2():
    assert [a.cg.graph.n for a in generate_atoms(1).atoms] == [1]
    d2 = generate_atoms(2)
    assert len(d2.atoms) == 1 and d2.atoms[0].cg.graph.m == 1


def test_d3_is_k3_and_p5(d3_catalog):
    atoms = d3_catalog.atoms
    assert len(atoms) == 2
    k3 = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    r3 = gen_Rk(3)
    assert any(is_colored_isomorphic(a.cg, k3) for a in atoms)
    assert any(is_colored_isomorphic(a.cg, r3) for a in atoms)
    for a in atoms:
        assert check_z(a.cg.graph, a.cg.coloring).passed
        assert a.cg.coloring.k == 3


def test_unfiltered_t4_is_gated():
    with pytest.raises(ValueError):
        generate_atoms(4)


def test_embed_p4_not_into_c4():
    atom = ColoredGraph(path_graph(4), Coloring((1, 2, 3, 1)))
    assert embed(atom, cycle_graph(4)) is None


def test_embed_k3_into_triangle_graph():
    atom = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    emb = embed(atom, g)
    assert emb is not None
    assert embedding_valid(atom, g, emb.mapping)


def test_embed_p5_atom_into_c6():
    atom = ColoredGraph(path_graph(5), Coloring((1, 2, 3, 1, 2)))
    emb = embed(atom, cycle_graph(6))
    assert emb is not None
    assert embedding_valid(atom, cycle_graph(6), emb.mapping)


def test_embed_respects_equal_color_non_adjacency():
    # two color-1 vertices may not land on adjacent targets
    atom = ColoredGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), Coloring((1, 2, 1)))
    target = complete_graph(3)
    assert embed(atom, target) is None


def test_embed_random_relabeling():
    rng = random.Random(60)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = gnp(n, 0.5, rng)
        from zcoloring import greedy_coloring

        cg = ColoredGraph(g, greedy_coloring(g))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        emb = embed(cg, h)
        assert emb is not None and embedding_valid(cg, h, emb.mapping)


def _cubic_tree(n, rng):
    # random tree whose internal vertices all have degree 3 (n even, >= 4)
    edges = [(0, 1), (0, 2), (0, 3)]
    leaves = [1, 2, 3]
    for nxt in range(4, n, 2):
        leaf = leaves.pop(rng.randrange(len(leaves)))
        edges += [(leaf, nxt), (leaf, nxt + 1)]
        leaves += [nxt, nxt + 1]
    return Graph.from_edges(n, edges)


def _gnm(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def test_embed_outputs_golden(d3_catalog, d4_triangle_free_catalog):
    # pins the first embedding found (or None) for every atom of D_3 and
    # triangle-free D_4 on each host; the digest was taken while embed still
    # scanned every host vertex as a candidate at every search level
    rng = random.Random(4)
    hosts = [_cubic_tree(n, rng) for n in (10, 16, 24, 30)]
    hosts += [_gnm(n, m, rng) for n, m in ((8, 10), (10, 14), (12, 18), (12, 24))]
    hosts += [gen_Tk(6).graph, gen_Gt(4)]
    digest = hashlib.sha256()
    for g in hosts:
        for a in d3_catalog.atoms + d4_triangle_free_catalog.atoms:
            emb = embed(a.cg, g)
            digest.update(repr(None if emb is None else emb.mapping).encode())
    assert digest.hexdigest() == "13bda5b2022a003f3fc170f798f042b702dfe8bd5d5d1949cd8ea4fe584faa13"


def test_embed_leaves_no_reference_cycles(d4_triangle_free_catalog):
    import gc

    host = gen_Tk(6).graph
    gc.collect()
    gc.disable()
    try:
        found = [embed(a.cg, host) for a in d4_triangle_free_catalog.atoms]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(emb is None for emb in found) and any(emb is not None for emb in found)


def test_atom_generation_leaves_no_reference_cycles(d4_triangle_free_catalog):
    # atom generation (heuristics, canonical certificates, the z oracle under
    # z_reaches) and the exact z oracle free everything by reference counting
    import gc

    hosts = [a.cg.graph for a in d4_triangle_free_catalog.atoms[:6]]
    gc.collect()
    gc.disable()
    try:
        generate_atoms(3)
        for g in hosts:
            assert z_reaches(g, 4)
            assert exact_z(g, limit_n=20).value >= 4
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_prove_upper_bound_star_graph(d3_catalog):
    k15 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    verdict = prove_upper_bound(k15, 3, d3_catalog)
    assert verdict.passed
    assert verdict.witness["bound"] == 2
    assert exact_z(k15).value <= 2


def test_prove_upper_bound_inconclusive_on_k3(d3_catalog):
    verdict = prove_upper_bound(complete_graph(3), 3, d3_catalog)
    assert not verdict.passed
    assert verdict.witness["inconclusive"]
    assert exact_z(complete_graph(3)).value == 3


def test_prove_upper_bound_validations(d3_catalog, d4_triangle_free_catalog):
    with pytest.raises(ValueError):
        prove_upper_bound(complete_graph(3), 4, d3_catalog)
    with pytest.raises(ValueError):
        prove_upper_bound(complete_graph(3), 4, d4_triangle_free_catalog)


def test_prove_upper_bound_calls_embed_once_per_atom_tried(monkeypatch, d3_catalog, d4_triangle_free_catalog):
    # the prover searches through the public embed, passing the host masks it
    # computed once; each call finds what embed finds on fresh masks, and the
    # atoms it passes over on the host's cycle rank and bipartiteness are
    # exactly the ones refuted_by_cycles names, none of which embeds
    from zcoloring import atoms

    calls = []
    search = atoms.embed

    def spy(atom, target, *masks):
        calls.append(atom)
        found = search(atom, target, *masks)
        assert len(masks) == 2 and found == search(atom, target)
        return found

    monkeypatch.setattr(atoms, "embed", spy)
    hosts = [(Graph.from_edges(6, [(0, i) for i in range(1, 6)]), d3_catalog),
             (complete_graph(3), d3_catalog), (cycle_graph(6), d3_catalog),
             (cycle_graph(8), d4_triangle_free_catalog), (path_graph(7), d4_triangle_free_catalog),
             (cycle_graph(7), d4_triangle_free_catalog), (gen_Tk(6).graph, d4_triangle_free_catalog)]
    skipped_somewhere = False
    for g, catalog in hosts:
        calls.clear()
        verdict = prove_upper_bound(g, catalog.t, catalog)
        tried = len(catalog.atoms) if verdict.passed else verdict.witness["atom_index"] + 1
        facts = atoms.cycle_rank_and_bipartite(g)
        kept = [a.cg for a in catalog.atoms[:tried] if not atoms.refuted_by_cycles(a.cg.graph, facts)]
        skipped = [a.cg for a in catalog.atoms[:tried] if atoms.refuted_by_cycles(a.cg.graph, facts)]
        assert calls == kept
        assert all(search(cg, g) is None for cg in skipped)
        skipped_somewhere |= bool(skipped)
    assert skipped_somewhere


def test_cycle_rank_and_bipartite_small_graphs():
    from zcoloring.atoms import cycle_rank_and_bipartite

    assert cycle_rank_and_bipartite(Graph.from_edges(0, [])) == (0, True)
    assert cycle_rank_and_bipartite(path_graph(5)) == (0, True)
    assert cycle_rank_and_bipartite(cycle_graph(6)) == (1, True)
    assert cycle_rank_and_bipartite(cycle_graph(5)) == (1, False)
    assert cycle_rank_and_bipartite(complete_graph(4)) == (3, False)
    # K4 next to C6: the largest rank is K4's, and the odd cycles sit in K4
    two = Graph.from_edges(10, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                           + [(4 + i, 4 + (i + 1) % 6) for i in range(6)])
    assert cycle_rank_and_bipartite(two) == (3, False)
    # two disjoint even cycles: the rank is per component, not summed
    assert cycle_rank_and_bipartite(Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                                                     + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])) == (1, True)


def test_catalog_round_trip(d3_catalog):
    text = catalog_to_text(d3_catalog)
    back = catalog_from_text(text)
    assert back.t == 3 and back.triangle_free is False
    assert len(back.atoms) == 2
    for a, b in zip(d3_catalog.atoms, back.atoms):
        assert a.cg == b.cg and a.provenance == b.provenance
    assert catalog_to_text(back) == text


@pytest.mark.parametrize("text, message", [
    ("", "empty catalog"),
    ("\n\n  \n", "empty catalog"),
    ("zatoms t 3 triangle_free 0\n", "malformed catalog header"),
    ("zatoms t 3 tri 0 count 0\n", "malformed catalog header"),
    ("zatoms t x triangle_free 0 count 0\n", "t must be an integer"),
    ("zatoms t 3 triangle_free no count 0\n", "triangle_free must be an integer"),
    ("zatoms t 3 triangle_free 2 count 0\n", "triangle_free must be 0 or 1"),
    ("zatoms t 3 triangle_free 0 count many\n", "count must be an integer"),
    ("zatoms t 3 triangle_free 0 count 1\n\nt x\nn 1\nk 1\ncolors 1\n", "atom t must be an integer"),
])
def test_catalog_from_text_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        catalog_from_text(text)


def test_atoms_have_valid_stars_and_minimal_edges(d3_catalog, d4_triangle_free_catalog):
    from zcoloring.verify import verify_star

    for catalog in (d3_catalog, d4_triangle_free_catalog):
        for a in catalog.atoms:
            g, c = a.cg.graph, a.cg.coloring
            assert c.k == catalog.t
            assert check_z(g, c).passed
            assert verify_star(g, c, a.cg.dominating_star)
            assert a.cg.dominating_star == tuple(range(catalog.t))


def test_minimality_filter_is_load_bearing(d4_triangle_free_catalog):
    # the raw grundify closure is much bigger than the catalog; the exact
    # edge-minimality filter is what cuts it down
    from zcoloring.atoms import _dedup, _grundify_with_prov, _phase1_with_prov

    family = [(cg, p) for cg, p in _phase1_with_prov(3) if not cg.graph.has_triangle()]
    for k in (3, 2):
        grown = []
        for cg, _prov in family:
            grown.extend(_grundify_with_prov(cg, k))
        family = _dedup([(cg, p) for cg, p in grown if not cg.graph.has_triangle()])
    assert len(family) == 104
    assert len(d4_triangle_free_catalog.atoms) == 25


def test_checked_in_catalogs_regenerate_byte_identically(d3_catalog, d4_triangle_free_catalog):
    import pathlib

    root = pathlib.Path(__file__).parent.parent / "catalogs"
    assert catalog_to_text(d3_catalog) == (root / "d3.catalog").read_text()
    assert catalog_to_text(d4_triangle_free_catalog) == (root / "d4_trianglefree.catalog").read_text()
    full = generate_atoms(4, allow_large=True)
    assert catalog_to_text(full) == (root / "d4_full.catalog").read_text()


def test_checked_in_full_t4_catalog_parses():
    import pathlib

    root = pathlib.Path(__file__).parent.parent / "catalogs"
    cat = catalog_from_text((root / "d4_full.catalog").read_text())
    assert cat.t == 4 and not cat.triangle_free
    assert len(cat.atoms) == 58


def test_soundness_small_sweep(d3_catalog):
    rng = random.Random(61)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        g = random_connected_gnp(n, rng.choice([0.4, 0.6]), rng)
        if exact_z(g).value >= 3:
            checked += 1
            assert any(embed(a.cg, g) is not None for a in d3_catalog.atoms)
    assert checked > 50
