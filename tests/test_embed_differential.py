"""Differential test: `zcoloring.embed` against a brute-force matcher kept
here, which tries every injective map of the atom into the host, on random
hosts of at most 8 vertices."""

import itertools
import pathlib

import pytest

from zcoloring import Graph, catalog_from_text, embed
from zcoloring.atoms import embedding_valid

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
