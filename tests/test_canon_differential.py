"""Differential tests: `canon._refine` against `reference_refine`, a frozen
copy kept here from before refinement counted neighbours per cell through
each vertex's cell index.  On random colored graphs of at most 12 vertices,
and on symmetric ones where refinement stalls and the certificate branches
(cycles, K_{t,t} minus a perfect matching), both give the same partitions
and the same certificate bytes."""

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


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def colored_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gnp", "cycle", "ktt")))
    if kind == "gnp":
        # the branching has no automorphism pruning, so an empty or complete
        # G(n, p) with large classes would take the product of the classes'
        # factorials in leaves: classes of at most 3 vertices bound that
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
