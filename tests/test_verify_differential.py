"""Differential test: the mask-based predicates in `zcoloring.verify` against
a naive set-based reference kept here, on random small graphs with random
proper colorings (normalized or not, Grundy or not)."""

import itertools

import pytest

from zcoloring import (
    Coloring,
    Graph,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    dominating_vertices,
    find_dominating_star,
    greedy_coloring,
    is_nice_vertex,
)
from zcoloring.verify import LEVELS, check_all

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def graphs_with_proper_colorings(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
    if draw(st.booleans()):
        # first-fit along a random order: Grundy, so CD vertices and stars occur
        return g, greedy_coloring(g, draw(st.permutations(range(n))))
    colors = []
    for v in range(n):
        col = draw(st.integers(1, n + 2))
        while any(colors[w] == col for w in g.adj[v] if w < v):
            col += 1
        colors.append(col)
    return g, Coloring(tuple(colors))


def seen(g, c, v):
    return {c.colors[w] for w in g.adj[v]}


def naive_missing(g, c):
    return [(v, i) for v in range(g.n) for i in range(1, c.colors[v]) if i not in seen(g, c, v)]


def naive_dominating(g, c, j):
    others = set(range(1, c.k + 1)) - {j}
    return [v for v in range(g.n) if c.colors[v] == j and others <= seen(g, c, v)]


def naive_nice(g, c, v):
    return c.colors[v] == c.k and all(
        set(naive_dominating(g, c, j)) & set(g.adj[v]) for j in range(1, c.k)
    )


def naive_star(g, c):
    # lexicographically first (center, u_1, ..., u_{k-1}) over all CD tuples
    cd = [naive_dominating(g, c, j) for j in range(1, c.k + 1)]
    for center in cd[-1]:
        for leaves in itertools.product(*cd[:-1]):
            if all(g.has_edge(center, u) for u in leaves):
                return leaves + (center,)
    return None


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(graphs_with_proper_colorings())
def test_predicates_match_naive_reference(case):
    g, c = case
    verdict = check_grundy(g, c)
    assert [(x.vertex, x.color) for x in verdict.violations] == naive_missing(g, c)
    assert verdict.passed == (not naive_missing(g, c))
    for j in range(1, c.k + 1):
        assert dominating_vertices(g, c, j) == naive_dominating(g, c, j)
    for v in range(g.n):
        assert is_nice_vertex(g, c, v) == naive_nice(g, c, v)
    assert find_dominating_star(g, c) == naive_star(g, c)


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(graphs_with_proper_colorings(), st.booleans())
def test_one_pass_matches_separate_predicates(case, clash):
    g, c = case
    if clash and g.m:
        u, v = g.edges()[0]
        colors = list(c.colors)
        colors[v] = colors[u]
        c = Coloring(tuple(colors))
    verdicts = check_all(g, c)
    assert tuple(verdicts) == LEVELS
    proper, grundy, cd, z = verdicts.values()
    assert z == check_z(g, c)
    if not check_proper(g, c):
        assert all(v == check_proper(g, c) for v in verdicts.values())
        return
    assert proper.passed
    assert grundy == check_grundy(g, c) and cd == check_cd(g, c)
    assert grundy.passed == (not naive_missing(g, c))
    assert cd.passed == all(naive_dominating(g, c, j) for j in range(1, c.k + 1))
    star = naive_star(g, c) if grundy and cd else None
    first_failure = next((v for v in (grundy, cd) if not v), None)
    if first_failure is not None:
        assert z == first_failure
    elif star is None:
        assert [str(x) for x in z.violations] == [f"no-dominating-star class={c.k}"]
    else:
        assert z.passed and z.witness == {"star": star, **cd.witness}
