"""Differential tests: `canon._refine` against `reference_refine`, a frozen
copy kept here from before refinement counted neighbours per cell through
each vertex's cell index.  On random colored graphs of at most 12 vertices,
and on symmetric ones where refinement stalls and the certificate branches
(cycles, K_{t,t} minus a perfect matching), both give the same partitions
and the same certificate bytes.  `canon.canonical_certificate`, which
branches on one vertex per twin class, is also checked against
`reference_certificate_unpruned`, a frozen copy from before it did, on
graphs made of twin classes."""

import random
from unittest import mock

import pytest

from zcoloring import Coloring, Graph, canon, gen_Ktt_minus_matching
from zcoloring.randgraphs import gnp

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_refine(adj: list[int], cells: list[list[int]]) -> list[list[int]]:
    """`canon._refine` as it was when it ANDed each vertex's adjacency mask
    with every cell mask; the body is unchanged."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def reference_certificate(g, c):
    masks = g.adjacency_masks()
    with mock.patch.object(canon, "_refine", lambda _nbrs, cells: reference_refine(masks, cells)):
        return canon.canonical_certificate(g, c)


def reference_certificate_unpruned(g, c):
    """`canon.canonical_certificate` as it was when it branched on every
    vertex of the first non-singleton cell; the body is unchanged but for
    the frozen refinement and the module prefixes."""
    n = g.n
    if n == 0:
        return b"0||0"
    if c.n != n:
        raise ValueError("coloring size does not match graph")
    adj = g.adjacency_masks()
    colors = c.colors
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    initial = [by_color[col] for col in sorted(by_color)]

    # depth-first over the branching on an explicit stack; the certificate
    # is the least over the leaves, so the visiting order does not matter
    best: bytes | None = None
    stack = [initial]
    while stack:
        cells = reference_refine(adj, stack.pop())
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            cert = canon._encode(n, colors, [v for cell in cells for v in cell], adj)
            if best is None or cert < best:
                best = cert
            continue
        cell = cells[target]
        for v in cell:
            rest = [u for u in cell if u != v]
            stack.append(cells[:target] + [[v], rest] + cells[target + 1:])
    assert best is not None
    return best


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def colored_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gnp", "cycle", "ktt")))
    if kind == "gnp":
        # the branching prunes twins only, so a G(n, p) with large classes
        # could take up to the product of the classes' factorials in
        # leaves: classes of at most 3 vertices bound that
        g = gnp(draw(st.integers(0, 12)), draw(st.floats(0.0, 1.0)), rng)
        slots = [c for c in range(1, g.n + 1) for _ in range(3)]
        rng.shuffle(slots)
        return g, Coloring(tuple(slots[:g.n]))
    if kind == "cycle":
        g = _cycle(draw(st.integers(3, 12)))
    else:
        g = gen_Ktt_minus_matching(draw(st.integers(2, 6)))
    # few colors keep these symmetric, so refinement stalls and branches
    colors = draw(st.integers(1, g.n))
    return g, Coloring(tuple(rng.randint(1, colors) for _ in range(g.n)))


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(colored_graphs(), st.integers(0, 2**32 - 1))
def test_refine_and_certificate_match_reference(gc, seed):
    g, c = gc
    assert canon.canonical_certificate(g, c) == reference_certificate(g, c)
    # refine an arbitrary ordered partition as well
    order = list(range(g.n))
    rng = random.Random(seed)
    rng.shuffle(order)
    cells, at = [], 0
    while at < g.n:
        size = rng.randint(1, g.n - at)
        cells.append(order[at:at + size])
        at += size
    assert canon._refine(g.adj, cells) == reference_refine(g.adjacency_masks(), cells)


@pytest.mark.parametrize("g", [_cycle(12), gen_Ktt_minus_matching(6)], ids=["C12", "K66-M"])
def test_certificate_matches_reference_on_uniform_symmetric_graphs(g):
    for colors in ((1,) * g.n, tuple(1 + v % 2 for v in range(g.n)), tuple(1 + v % 3 for v in range(g.n))):
        assert canon.canonical_certificate(g, Coloring(colors)) == reference_certificate(g, Coloring(colors))


@st.composite
def twin_graphs(draw):
    # a random base graph on at most 4 vertices whose vertices are blown up
    # into independent sets (open twins) or cliques (closed twins), at most
    # 7 vertices in all so the unpruned reference stays small, with few
    # colors so that twins share a cell
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = gnp(draw(st.integers(1, 4)), draw(st.floats(0.0, 1.0)), rng)
    blocks, at = [], 0
    for _ in range(base.n):
        size = min(draw(st.integers(1, 3)), 7 - at - (base.n - len(blocks) - 1))
        blocks.append(list(range(at, at + size)))
        at += size
    edges = [(u, v) for a, b in base.edges() for u in blocks[a] for v in blocks[b]]
    for block in blocks:
        if draw(st.booleans()):
            edges += [(u, v) for u in block for v in block if u < v]
    g = Graph.from_edges(at, edges)
    colors = draw(st.integers(1, 2))
    return g, Coloring(tuple(rng.randint(1, colors) for _ in range(g.n)))


def _relabeled(g, c, perm):
    colors = [0] * g.n
    for v, col in enumerate(c.colors):
        colors[perm[v]] = col
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), Coloring(tuple(colors))


# 3-regular on 12 vertices with no automorphism but the identity: refinement
# stalls on one cell of 12 vertices no two of which are twins, so a pruning
# that skipped any of them would make the certificate depend on the labels
_FRUCHT = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)]
                           + [(i, (i + s) % 12) for i, s in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])])


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(st.one_of(twin_graphs(), colored_graphs()), st.randoms(use_true_random=False))
def test_twin_pruned_certificate_matches_unpruned_reference(gc, rng):
    # the pruned certificate of a relabeled copy is the unpruned one
    g, c = gc
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canon.canonical_certificate(*_relabeled(g, c, perm)) == reference_certificate_unpruned(g, c)


@pytest.mark.parametrize("g", [_cycle(6), gen_Ktt_minus_matching(3), Graph.from_edges(7, []),
                               Graph.from_edges(7, [(0, i) for i in range(1, 7)]),
                               Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]), _FRUCHT],
                         ids=["C6", "K33-M", "empty7", "star7", "K33", "Frucht"])
def test_twin_pruned_certificate_matches_unpruned_reference_on_symmetric_graphs(g):
    rng = random.Random(g.n)
    for colors in ((1,) * g.n, tuple(1 + v % 2 for v in range(g.n))):
        want = reference_certificate_unpruned(g, Coloring(colors))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canon.canonical_certificate(*_relabeled(g, Coloring(colors), perm)) == want
