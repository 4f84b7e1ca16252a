"""Canonical form checks, cross-validated against a brute-force
color-respecting isomorphism search."""

import itertools
import random

from conftest import complete_graph, path_graph

from zcoloring import (
    ColoredGraph,
    Coloring,
    Graph,
    colored_canonical_form,
    greedy_coloring,
    is_colored_isomorphic,
)
from zcoloring.randgraphs import gnp


def brute_force_colored_isomorphic(a: ColoredGraph, b: ColoredGraph) -> bool:
    """Try all color-class-respecting bijections; reference implementation."""
    if a.graph.n != b.graph.n or sorted(a.coloring.colors) != sorted(b.coloring.colors):
        return False
    n = a.graph.n
    by_color_a = {}
    by_color_b = {}
    for v in range(n):
        by_color_a.setdefault(a.coloring.colors[v], []).append(v)
        by_color_b.setdefault(b.coloring.colors[v], []).append(v)
    colors = sorted(by_color_a)
    def assemble(perms):
        mapping = {}
        for color, perm in zip(colors, perms):
            for u, v in zip(by_color_a[color], perm):
                mapping[u] = v
        return mapping
    for perms in itertools.product(*(itertools.permutations(by_color_b[c]) for c in colors)):
        mapping = assemble(perms)
        if all(a.graph.has_edge(u, v) == b.graph.has_edge(mapping[u], mapping[v])
               for u in range(n) for v in range(u + 1, n)):
            return True
    return False


def relabel(cg: ColoredGraph, perm) -> ColoredGraph:
    g = Graph.from_edges(cg.graph.n, [(perm[u], perm[v]) for u, v in cg.graph.edges()])
    colors = [0] * cg.graph.n
    for v in range(cg.graph.n):
        colors[perm[v]] = cg.coloring.colors[v]
    return ColoredGraph(g, Coloring(tuple(colors)))


def test_p5_reversal_has_equal_certificate():
    a = ColoredGraph(path_graph(5), Coloring((1, 2, 3, 1, 2)))
    b = relabel(a, [4, 3, 2, 1, 0])
    assert colored_canonical_form(a) == colored_canonical_form(b)
    assert is_colored_isomorphic(a, b)


def test_k3_vs_p3_differ():
    a = ColoredGraph(complete_graph(3), Coloring((1, 2, 3)))
    b = ColoredGraph(path_graph(3), Coloring((1, 2, 3)))
    assert colored_canonical_form(a) != colored_canonical_form(b)


def test_color_labels_are_fixed():
    k1a = ColoredGraph(Graph.from_edges(1, []), Coloring((1,)))
    k1b = ColoredGraph(Graph.from_edges(1, []), Coloring((2,)))
    assert is_colored_isomorphic(k1a, k1a)
    assert not is_colored_isomorphic(k1a, k1b)


def test_relabeling_invariance_1000_permutations():
    rng = random.Random(20)
    base = []
    for n, p in ((6, 0.5), (8, 0.4), (10, 0.3)):
        g = gnp(n, p, rng)
        base.append(ColoredGraph(g, greedy_coloring(g)))
    for cg in base:
        cert = colored_canonical_form(cg)
        n = cg.graph.n
        for _ in range(334):
            perm = list(range(n))
            rng.shuffle(perm)
            assert colored_canonical_form(relabel(cg, perm)) == cert


def test_random_relabeling_is_isomorphic():
    rng = random.Random(21)
    g = gnp(8, 0.5, rng)
    cg = ColoredGraph(g, greedy_coloring(g))
    perm = list(range(8))
    rng.shuffle(perm)
    assert is_colored_isomorphic(cg, relabel(cg, perm))


def test_against_brute_force_small_graphs():
    import math

    rng = random.Random(22)
    done = 0
    while done < 150:
        n = rng.randint(1, 10)
        g1 = gnp(n, rng.choice([0.3, 0.5, 0.7]), rng)
        c1 = greedy_coloring(g1)
        a = ColoredGraph(g1, c1)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = relabel(a, perm)
        else:
            g2 = gnp(n, rng.choice([0.3, 0.5, 0.7]), rng)
            b = ColoredGraph(g2, greedy_coloring(g2))
        sizes = {}
        for col in b.coloring.colors:
            sizes[col] = sizes.get(col, 0) + 1
        if math.prod(math.factorial(s) for s in sizes.values()) > 50000:
            continue  # keep the reference search affordable
        done += 1
        assert is_colored_isomorphic(a, b) == brute_force_colored_isomorphic(a, b)


def test_discriminates_degree_by_color_histograms():
    # same degree sequence, different (color, degree) pairing
    g = path_graph(3)
    a = ColoredGraph(g, Coloring((1, 2, 1)))
    b = ColoredGraph(g, Coloring((2, 1, 2)))
    assert colored_canonical_form(a) != colored_canonical_form(b)


def test_twin_classes_branch_once_per_level():
    # every vertex of an edgeless graph is an open twin of every other, and
    # of a complete graph a closed twin, so the branching takes one vertex
    # per level: 12 refinements, where branching on every vertex of the
    # stalled cell would visit 12! leaves
    import time
    from unittest import mock

    from zcoloring import canon

    for g in (Graph.from_edges(12, []), complete_graph(12)):
        refine = canon._refine
        with mock.patch.object(canon, "_refine", side_effect=refine) as spy:
            start = time.perf_counter()
            cert = canon.canonical_certificate(g, Coloring((1,) * 12))
            assert time.perf_counter() - start < 1.0
        assert spy.call_count == 12
        relabeled = Graph.from_edges(12, [(11 - u, 11 - v) for u, v in g.edges()])
        assert canon.canonical_certificate(relabeled, Coloring((1,) * 12)) == cert
