"""Differential tests: `oracle._search` against `reference_search`, a frozen
copy of the search kept here from before the z search walked only the colors
it can keep and the node tests looped over the vertices of degree >= k-1
alone.  Both must return the same coloring and the same node count, in both
modes and at every k from 1 to star_degree_bound + 1, on G(n, p) hosts of at
most 10 vertices, random trees, and the atom graphs of `d4_full` with and
without each edge (the hosts `z_reaches` searches in atom generation)."""

import pathlib
import random

import pytest

from zcoloring import catalog_from_text, oracle, star_degree_bound
from zcoloring.randgraphs import gnp, random_tree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOGS = pathlib.Path(__file__).parent.parent / "catalogs"


def reference_search(g, k, star):
    """`oracle._search` as it was before the z search walked only the colors
    it can keep; the body is unchanged."""
    n = g.n
    n2 = n * n
    nbrs = g.adj
    required = (1 << (k + 1)) - 2
    kbit = 1 << k
    below = kbit - 2
    color = [0] * n
    cnt = [[0] * (k + 1) for _ in range(n)]
    nbc = [0] * n
    un = [len(a) for a in nbrs]
    slack = [d - (k - 1) for d in un]
    hold = [required if s >= 0 else 0 for s in slack]
    base = [d * n + n - 1 - u for u, d in enumerate(un)]
    key = base[:]
    take = [required & ((1 << (d + 2)) - 2) for d in un]
    explored = 0
    stack = []
    max_used = 0
    while True:
        # a new node: the current partial coloring
        explored += 1
        cover = 0
        for h in hold:
            cover |= h
        open_ = cover == required
        if open_ and star:
            # narrow each hold to what u can still dominate in: it can only
            # come to see nbc[u] and its uncolored neighbours' take
            held = [0] * n
            cover = 0
            for u, h in enumerate(hold):
                if h:
                    got = nbc[u]
                    for w in nbrs[u]:
                        got |= take[w]
                    lack = required & ~got
                    if lack:
                        h = 0 if lack & (lack - 1) else h & lack
                    held[u] = h
                    cover |= h
            open_ = False
            if cover == required:
                # a star center: k-1 distinct leaves that cover 1..k-1
                for u in range(n):
                    if held[u] & kbit:
                        reach = 0
                        leaves = 0
                        for w in nbrs[u]:
                            h = held[w] & below
                            if h:
                                reach |= h
                                leaves += 1
                        if reach == below and leaves >= k - 1:
                            open_ = True
                            break
        if open_:
            if len(stack) == n:
                return color, explored
            v = key.index(max(key))
            stack.append([v, 0, k if star else min(k, max_used + 1), max_used, take[v]])
        # advance the deepest frame to its next color, popping exhausted ones
        while stack:
            frame = stack[-1]
            v, c, top, max_used, v_take = frame
            if c:
                # unassign v
                cbit = 1 << c
                for w in nbrs[v]:
                    row = cnt[w]
                    row[c] -= 1
                    un[w] += 1
                    if row[c] == 0:
                        nbc[w] &= ~cbit
                        if not color[w]:
                            key[w] -= n2
                            if slack[w] >= 0:
                                hold[w] |= cbit
                    else:
                        slack[w] += 1
                        if slack[w] == 0:
                            hold[w] = 1 << color[w] if color[w] else required & ~nbc[w]
                    if star and not color[w]:
                        rest = required & ~nbc[w] & ~take[w]
                        take[w] |= rest & -rest
                color[v] = 0
                take[v] = v_take
                key[v] = nbc[v].bit_count() * n2 + base[v]
                if slack[v] >= 0:
                    hold[v] = required & ~nbc[v]
            seen = nbc[v]
            c += 1
            while c <= top and seen >> c & 1:
                c += 1
            if c > top:
                stack.pop()
                continue
            # assign v color c
            frame[1] = c
            cbit = 1 << c
            color[v] = c
            key[v] = -1
            take[v] = 0
            if slack[v] >= 0:
                hold[v] = cbit
            ok = not star or ((cbit - 2) & ~nbc[v]).bit_count() <= un[v]
            for w in nbrs[v]:
                row = cnt[w]
                row[c] += 1
                un[w] -= 1
                if row[c] == 1:
                    nbc[w] |= cbit
                    if not color[w]:
                        key[w] += n2
                        hold[w] &= ~cbit
                else:
                    slack[w] -= 1
                    if slack[w] < 0:
                        hold[w] = 0
                if star:
                    if color[w]:
                        missing = ((1 << color[w]) - 2) & ~nbc[w]
                        if missing.bit_count() > un[w]:
                            ok = False
                    else:
                        kept = take[w] & ~cbit
                        if kept.bit_count() > un[w] + 1:
                            kept ^= 1 << (kept.bit_length() - 1)
                        take[w] = kept
            if ok:
                if c > max_used:
                    max_used = c
                break
        else:
            return None, explored


def _same_searches(g):
    for star in (False, True):
        for k in range(1, star_degree_bound(g) + 2):
            assert oracle._search(g, k, star) == reference_search(g, k, star), (g.edges(), k, star)


@st.composite
def hosts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return gnp(draw(st.integers(0, 10)), draw(st.floats(0.0, 1.0)), rng)
    return random_tree(draw(st.integers(1, 12)), rng)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(hosts())
def test_search_matches_reference(g):
    _same_searches(g)


D4_FULL = [a.cg.graph for a in catalog_from_text((CATALOGS / "d4_full.catalog").read_text()).atoms]


@pytest.mark.parametrize("index", range(len(D4_FULL)))
def test_search_matches_reference_on_atoms(index):
    g = D4_FULL[index]
    _same_searches(g)
    # every G - e is refuted at t = 4 by the z search, most of them at
    # some k <= star_degree_bound
    for u, v in g.edges():
        h = g.drop_edge(u, v)
        for k in range(4, star_degree_bound(h) + 2):
            assert oracle._search(h, k, True) == reference_search(h, k, True), ((u, v), k)
