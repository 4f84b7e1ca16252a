"""Differential tests: `zcoloring.embed` against a brute-force matcher kept
here, which tries every injective map of the atom into the host, on random
hosts of at most 8 vertices; and `prove_upper_bound` against a loop that runs
`embed` on every catalog atom in order, on hosts of at most 16 vertices."""

import itertools
import pathlib
import random

import pytest

from zcoloring import Graph, catalog_from_text, embed, prove_upper_bound
from zcoloring.atoms import cycle_rank_and_bipartite, embedding_valid, refuted_by_cycles
from zcoloring.randgraphs import gnp, random_tree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOGS = pathlib.Path(__file__).parent.parent / "catalogs"


def _atoms():
    d3 = catalog_from_text((CATALOGS / "d3.catalog").read_text()).atoms
    d4 = catalog_from_text((CATALOGS / "d4_trianglefree.catalog").read_text()).atoms
    return [a.cg for a in d3] + [min((a.cg for a in d4), key=lambda cg: (cg.graph.n, cg.graph.m))]


ATOMS = _atoms()


@st.composite
def hosts(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


def brute_force_embeds(atom, host) -> bool:
    h, colors = atom.graph, atom.coloring.colors
    edges = h.edges()
    same = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if colors[u] == colors[v]]
    return any(
        all(host.has_edge(f[u], f[v]) for u, v in edges)
        and not any(host.has_edge(f[u], f[v]) for u, v in same)
        for f in itertools.permutations(range(host.n), h.n)
    )


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(hosts())
def test_embed_matches_brute_force(host):
    for atom in ATOMS:
        emb = embed(atom, host)
        assert (emb is not None) == brute_force_embeds(atom, host)
        if emb is not None:
            assert embedding_valid(atom, host, emb.mapping)


CATALOG_SETS = [catalog_from_text((CATALOGS / f"{name}.catalog").read_text())
                for name in ("d3", "d4_trianglefree", "d4_full")]


@st.composite
def bound_hosts(draw):
    # G(n, p), uniform random trees and subdivided G(k, p), all on at most
    # 16 vertices: the trees and subdivisions are bipartite hosts where the
    # cycle invariants refute most atoms, G(n, p) mostly is not
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gnp", "tree", "subdivided")))
    if kind == "gnp":
        return gnp(draw(st.integers(0, 16)), draw(st.floats(0.0, 1.0)), rng)
    if kind == "tree":
        return random_tree(draw(st.integers(1, 16)), rng)
    k = draw(st.integers(0, 8))
    base = gnp(k, draw(st.floats(0.0, 1.0)), rng).edges()[: 16 - k]
    # edge i of the base graph becomes the path u, k + i, v
    halves = [e for i, (u, v) in enumerate(base) for e in ((u, k + i), (k + i, v))]
    return Graph.from_edges(k + len(base), halves)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(bound_hosts())
def test_prove_upper_bound_matches_embedding_every_atom(host):
    facts = cycle_rank_and_bipartite(host)
    for catalog in CATALOG_SETS:
        for atom in catalog.atoms:
            if refuted_by_cycles(atom.cg.graph, facts):
                assert embed(atom.cg, host) is None
        if catalog.triangle_free and host.has_triangle():
            with pytest.raises(ValueError, match="triangle-filtered"):
                prove_upper_bound(host, catalog.t, catalog)
            continue
        first = None
        for idx, atom in enumerate(catalog.atoms):
            emb = embed(atom.cg, host)
            if emb is not None:
                first = (idx, emb.mapping)
                break
        verdict = prove_upper_bound(host, catalog.t, catalog)
        if first is None:
            assert verdict.passed and verdict.witness == {"bound": catalog.t - 1}
        else:
            assert not verdict.passed
            assert (verdict.witness["atom_index"], verdict.witness["embedding"]) == first
