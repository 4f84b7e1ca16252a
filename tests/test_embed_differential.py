"""Differential tests: `zcoloring.embed` against a brute-force matcher kept
here, which tries every injective map of the atom into the host, on random
hosts of at most 8 vertices, and its search on adjacency lists and its search
on bitmasks against `reference_embed`, a frozen copy of the bitmask search
from before the list search was added, on the prover's hosts and on dense
G(n, p);
and `prove_upper_bound` against a loop that runs `embed` on every catalog
atom in order, on hosts of at most 16 vertices."""

import itertools
import pathlib
import random

import pytest

from zcoloring import Graph, catalog_from_text, embed, prove_upper_bound
from zcoloring import atoms
from zcoloring.atoms import Embedding, cycle_rank_and_bipartite, embedding_valid, refuted_by_cycles
from zcoloring.oracle import star_degree_bound
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


def _degree_masks(g, top):
    """deg_ok[d] is the bitmask of the vertices of g with degree >= d, for
    d = 0..top."""
    deg_ok = [0] * (top + 1)
    for u, nbrs in enumerate(g.adj):
        deg_ok[min(len(nbrs), top)] |= 1 << u
    for d in range(top - 1, -1, -1):
        deg_ok[d] |= deg_ok[d + 1]
    return deg_ok


def reference_embed(atom, target, adj=None, deg_ok=None):
    """`atoms.embed` as it was when each level's candidates were one bitmask
    over the host's adjacency masks; the body is unchanged."""
    h, c = atom.graph, atom.coloring
    nh, nt = h.n, target.n
    if nh > nt:
        return None
    if nh == 0:
        return Embedding(())
    if adj is None:
        adj = target.adjacency_masks()
    if deg_ok is None:
        deg_ok = _degree_masks(target, h.max_degree())

    # each next vertex is the first unplaced one by (-degree, index) that
    # has a placed neighbor, or the first unplaced one when none has
    rest = sorted(range(nh), key=lambda x: (-len(h.adj[x]), x))
    near = [False] * nh
    order: list[int] = []
    while rest:
        v = next((x for x in rest if near[x]), rest[0])
        rest.remove(v)
        order.append(v)
        for w in h.adj[v]:
            near[w] = True

    pos = {v: i for i, v in enumerate(order)}
    levels = [
        (
            v,
            deg_ok[h.degree(v)],
            [w for w in h.adj[v] if pos[w] < pos[v]],
            [w for w in range(nh) if w != v and c.colors[w] == c.colors[v] and pos[w] < pos[v]],
        )
        for v in order
    ]
    mapping = [-1] * nh
    untried = [0] * nh
    free = (1 << nt) - 1
    i = 0
    while True:
        v, pool, nbrs, same = levels[i]
        pool &= free
        for w in nbrs:
            pool &= adj[mapping[w]]
        for w in same:
            pool &= ~adj[mapping[w]]
        while not pool:  # backtrack to the deepest level with a candidate left
            i -= 1
            if i < 0:
                return None
            v = levels[i][0]
            free |= 1 << mapping[v]
            pool = untried[i]
        low = pool & -pool
        untried[i] = pool ^ low
        mapping[v] = low.bit_length() - 1
        if i + 1 == nh:
            break
        free ^= low
        i += 1
    if not embedding_valid(atom, target, mapping):
        raise AssertionError("embedding search returned an invalid map")
    return Embedding(tuple(mapping))


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
        assert _first_maps(atom, host)[0] == (None if emb is None else emb.mapping)
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


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(bound_hosts())
def test_prove_upper_bound_matches_embedding_every_atom(host):
    facts, star = cycle_rank_and_bipartite(host), star_degree_bound(host)
    for catalog in CATALOG_SETS:
        for atom in catalog.atoms:
            if refuted_by_cycles(atom.cg.graph, facts) or star_degree_bound(atom.cg.graph) > star:
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


def _first_maps(atom, host):
    """The first map, or None, that the list search, the mask search and the
    reference find; each of the first two on any host, whatever search
    embed would choose for it."""
    reference = reference_embed(atom, host)
    if atom.graph.n > host.n or atom.graph.n == 0:
        return [None if reference is None else reference.mapping] * 3
    levels = atoms._levels(atom)
    lists = atoms._search_lists(levels, host)
    masks = atoms._search_masks(levels, host.n, host.adjacency_masks(), _degree_masks(host, host.max_degree() + 1))
    for mapping in (lists, masks):
        assert mapping is None or embedding_valid(atom, host, mapping)
    return [None if m is None else tuple(m) for m in (lists, masks)] + [None if reference is None else reference.mapping]


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(bound_hosts())
def test_embed_matches_bitmask_reference_on_bound_hosts(host):
    # each catalog's atoms up to the first that embeds: the searches a
    # prover without refutations runs.  Hosts with more than half of their
    # vertex pairs joined are left to the fixed hosts below: where an atom
    # does not embed in one, the list search takes about 6x the bitmask
    # search's time, up to seconds
    hypothesis.assume(4 * host.m <= host.n * (host.n - 1))
    for catalog in CATALOG_SETS:
        for atom in catalog.atoms:
            lists, masks, reference = _first_maps(atom.cg, host)
            assert lists == masks == reference
            if lists is not None:
                break


def _subdivided(k, p, seed):
    base = gnp(k, p, random.Random(seed)).edges()
    return Graph.from_edges(k + len(base), [e for i, (u, v) in enumerate(base) for e in ((u, k + i), (k + i, v))])


# dense hosts on which no search takes long on any atom (where an atom with
# a large color class does not embed in a dense host, the searches backtrack
# through exponentially many partial maps), and sparse hosts: a tree, a
# subdivided G(k, p) and a G(n, p) with odd cycles
@pytest.mark.parametrize("host", [gnp(12, 0.5, random.Random(1)), gnp(20, 0.3, random.Random(2)),
                                  gnp(30, 0.5, random.Random(3)), gnp(50, 0.4, random.Random(9)),
                                  gnp(60, 0.5, random.Random(5)), random_tree(300, random.Random(6)),
                                  _subdivided(40, 0.1, 7), gnp(200, 0.02, random.Random(8))],
                         ids=["gnp12", "gnp20", "gnp30", "gnp50", "gnp60", "tree300", "subdivided40", "gnp200"])
def test_embed_matches_bitmask_reference_on_fixed_hosts(host):
    found = 0
    for catalog in CATALOG_SETS:
        for atom in catalog.atoms:
            lists, masks, reference = _first_maps(atom.cg, host)
            assert lists == masks == reference
            found += lists is not None
    assert found > 0
