"""Exact brute-force oracles for the four chromatic parameters at desk scale:
chi (minimum proper), gamma (maximum Grundy), b (maximum color-dominating)
and z (maximum z-coloring).  Ground truth for the property and acceptance
tests; inputs are size-limited so typical calls stay well under a second
(dense balanced-bipartite hosts near the limit are the slow extreme, since
refuting high targets there defeats the local pruning).

The b and z oracles probe target counts downward and stop at the first
target that admits a coloring.  The b oracle starts at the m-degree bound
(`m_degree_bound`), which never exceeds max_degree+1; the z oracle starts at
the star degree bound (`star_degree_bound`), which never exceeds either,
since the dominating star u_1..u_k of a z-coloring is a vertex of degree
>= k-1 with k-1 neighbours of degree >= k-1.  Every z-coloring is a
b-coloring (the star vertex of each class sees all the others), so a z probe
runs the b search first and returns None when it fails; the b search, whose
colors are interchangeable, refutes a target far faster than the ordered z
search.  Only when a b-coloring with k colors exists does the z search run,
so values and witnesses are those of the z search alone, and z's `explored`
includes the nodes of the b probes.  The backtracking engine (`_search`) is
one loop over an explicit stack of frames, so its depth is bounded by memory
rather than the recursion limit.  It assigns vertices most-saturated-first
with properness pruning, and the z search additionally prunes any vertex
whose missing lower colors exceed its unassigned neighbors.  Per vertex it
keeps the neighbour color counts, a slack (how far the vertex is from no
longer being able to become color-dominating), the colors it may still hold
as a dominating vertex, and its selection key, all updated in O(deg v) when
v is assigned or unassigned, so a node's cuts and pick read those arrays
instead of recomputing them from the neighbourhoods.
The gamma oracle runs no search: a memoized recursion over maximal
independent sets (`_grundy_coloring`) yields the value and, by peeling the
recorded best set of each subset, a witness with that many classes.

Class-witness pruning: a b- or z-coloring with k colors has a
color-dominating vertex (one that sees the k-1 other colors) in every class.
The engine cuts a branch as soon as some class can no longer get one: no
vertex of that color, and no uncolored vertex that may still take it, sees
enough colors plus uncolored neighbors to reach k-1.  The z search also cuts
a branch once its dominating star can no longer form: no vertex that may
still become color-dominating and take color k has such neighbours that may
still take, between them, every color of 1..k-1.  The cut subtrees hold no
solution, so values and witnesses are those of the unpruned search; only
`OracleResult.explored` (the count `zcolor exact --format table` prints)
reads lower.  One acceptance rule: the same tests accept a complete
assignment, so the oracles share no code with `verify`, whose checks stay an
independent test of their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph
from .reduce import greedy_coloring


class SizeLimitError(ValueError):
    """Input larger than the oracle's configured limit."""


@dataclass
class OracleResult:
    """An oracle's value, a witness coloring with exactly `value` colors, and
    `explored`, a count of the oracle's work: branch-and-bound nodes for chi,
    subsets solved by the recursion for gamma, search nodes for b, and the
    b-probe nodes plus the z-search nodes for z."""

    value: int
    witness: Coloring
    explored: int


def m_degree_bound(g: Graph) -> int:
    """Largest k such that at least k vertices have degree >= k-1; an upper
    bound for the b-chromatic number and hence for the z-number."""
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    best = 0
    for k in range(1, g.n + 1):
        if degs[k - 1] >= k - 1:
            best = k
    return best


def check_limit(n: int, limit_n: int, what: str) -> None:
    """Raise SizeLimitError when an n-vertex graph exceeds the oracle's limit."""
    if n > limit_n:
        raise SizeLimitError(f"{what}: graph has {n} vertices, limit is {limit_n}")


def star_degree_bound(g: Graph) -> int:
    """Largest k such that some vertex of degree >= k-1 has k-1 neighbours of
    degree >= k-1; an upper bound for the z-number, since the star u_1..u_k of
    a z-coloring with k colors is such a vertex u_k with its neighbours.  It
    never exceeds m_degree_bound (the star is k vertices of degree >= k-1)
    nor max_degree + 1."""
    deg = [len(nbrs) for nbrs in g.adj]
    best = 1 if g.n else 0
    for v, nbrs in enumerate(g.adj):
        if deg[v] < best:
            continue  # v's star has at most deg[v] + 1 vertices
        degs = sorted([deg[w] for w in nbrs], reverse=True)
        j = 0
        while j < len(degs) and degs[j] > j:
            j += 1
        best = max(best, j + 1)
    return best


def _search(g: Graph, k: int, star: bool, explored_box):
    """Find a proper coloring with colors in 1..k that passes the cuts below
    at its complete assignment, or None: a b-coloring, or with `star` a
    z-coloring.

    One loop over an explicit stack of frames [v, color tried, top,
    max_used], one per vertex on the current branch, so the depth is bounded
    by memory, not by the recursion limit.  Per vertex u the engine keeps,
    updated in O(deg v) when v is assigned or unassigned:
      `cnt[u][c]`  neighbours of u with color c, and `nbc[u]` the mask of
                   colors present among them (bit c = color c);
      `un[u]`      uncolored neighbours;
      `slack[u]`   colors seen + uncolored neighbours - (k-1): u may still
                   become color-dominating while it is >= 0, and it drops
                   only when a neighbour takes a color u already sees;
      `hold[u]`    the colors u may still hold while it may dominate: its
                   own color bit once colored, otherwise the colors of 1..k
                   none of its neighbours has; 0 once slack[u] < 0;
      `key[u]`     seen*n^2 + deg*n + (n-1-u) while uncolored, -1 once
                   colored: the largest is the most saturated vertex, with
                   degree then lower index as deterministic tie-breaks.

    Without `star` the colors are interchangeable, so a vertex takes at most
    one color not used yet.  With `star` (z mode) the colors are ordered:
    a colored vertex is cut once its missing lower colors exceed its
    uncolored neighbors.  A color is also cut once the classes still empty
    outnumber the uncolored vertices.

    Every class must contain a color-dominating vertex, so a node is cut
    unless the OR of `hold` covers 1..k: every `hold` only shrinks deeper in
    the branch.  With `star` the node is also cut unless a dominating star
    can still form: some vertex that may still hold color k has
    neighbours that may still hold, between them, every color of 1..k-1.

    The same cuts decide a complete assignment.  There no vertex has an
    uncolored neighbour and none sees its own color, so "sees k-1 colors"
    means color-dominating: the cover test asks for a color-dominating vertex
    in every class, and the star test for the dominating star.  With `star`
    every vertex is also saturated, so the coloring is Grundy.
    """
    n = g.n
    n2 = n * n
    adjm = g.adjacency_masks()
    nbrs = [list(a) for a in g.adj]
    required = (1 << (k + 1)) - 2
    kbit = 1 << k
    below = kbit - 2
    color = [0] * n
    class_mask = [0] * (k + 1)
    cnt = [[0] * (k + 1) for _ in range(n)]
    nbc = [0] * n
    un = [len(a) for a in nbrs]
    slack = [d - (k - 1) for d in un]
    hold = [required if s >= 0 else 0 for s in slack]
    base = [d * n + n - 1 - u for u, d in enumerate(un)]
    key = base[:]
    used = 0
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
            open_ = False
            for u in range(n):
                if hold[u] & kbit:
                    reach = 0
                    for w in nbrs[u]:
                        reach |= hold[w]
                    if reach & below == below:
                        open_ = True
                        break
        if open_:
            if len(stack) == n:
                explored_box[0] += explored
                return color
            v = key.index(max(key))
            stack.append([v, 0, k if star else min(k, max_used + 1), max_used])
        # advance the deepest frame to its next color, popping exhausted ones
        while stack:
            frame = stack[-1]
            v, c, top, max_used = frame
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
                class_mask[c] &= ~(1 << v)
                if not class_mask[c]:
                    used -= 1
                color[v] = 0
                key[v] = nbc[v].bit_count() * n2 + base[v]
                if slack[v] >= 0:
                    hold[v] = required & ~nbc[v]
            av = adjm[v]
            c += 1
            while c <= top and av & class_mask[c]:
                c += 1
            if c > top:
                stack.pop()
                continue
            # assign v color c
            frame[1] = c
            cbit = 1 << c
            color[v] = c
            key[v] = -1
            if not class_mask[c]:
                used += 1
            class_mask[c] |= 1 << v
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
                if star and color[w]:
                    missing = ((1 << color[w]) - 2) & ~nbc[w]
                    if missing.bit_count() > un[w]:
                        ok = False
            if ok and k - used <= n - len(stack):
                if c > max_used:
                    max_used = c
                break
        else:
            explored_box[0] += explored
            return None


def _find_b(g: Graph, k: int, explored_box):
    return _search(g, k, False, explored_box)


def _find_z(g: Graph, k: int, explored_box):
    # every z-coloring is a b-coloring, and the b search refutes k far faster
    if _find_b(g, k, explored_box) is None:
        return None
    return _search(g, k, True, explored_box)


def _maximal_independent_sets(closed: list[int], s: int):
    """Yield every maximal independent set of G[s] as a vertex mask.

    `closed[v]` is v's closed neighbourhood mask.  Bron-Kerbosch on the
    complement with the Tomita pivot, on an explicit stack: R is the set so
    far, P the vertices that may still join it and X those already tried.
    """
    stack = [(0, s, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        # pivot: the vertex of P | X whose closed neighbourhood leaves the
        # fewest branches in P
        branch = p
        fewest = p.bit_count()
        scan = p | x
        while scan:
            low = scan & -scan
            scan ^= low
            cand = p & closed[low.bit_length() - 1]
            count = cand.bit_count()
            if count < fewest:
                branch, fewest = cand, count
                if count <= 1:
                    break
        children = []
        while branch:
            low = branch & -branch
            branch ^= low
            keep = ~closed[low.bit_length() - 1]
            children.append((r | low, p & keep, x & keep))
            p ^= low
            x |= low
        stack.extend(reversed(children))


def _grundy_coloring(g: Graph, explored_box) -> list[int]:
    """A Grundy coloring of g with Gamma(g) colors, by a subset recursion over
    maximal independent sets.

    Class 1 of a Grundy coloring is a maximal independent set I and the
    other classes, shifted down by one, form a Grundy coloring of G - I;
    conversely any such pair is one.  So Gamma(G[S]) = 1 + max over maximal
    independent sets I of G[S] of Gamma(G[S - I]), with Gamma(empty) = 0.
    Values are memoized by vertex mask; recursion depth stays <= Gamma.
    Gamma(H) <= Delta(H) + 1 cuts twice: a subset stops once its best reaches
    that bound, and a child whose bound cannot beat the best is skipped.
    Each solved subset records the set I that gave its best value, and the
    coloring is peeled from the full vertex set: class j is the set recorded
    for what classes 1..j-1 left.  It has Gamma classes and is Grundy, since
    each class is maximal independent in what remains.  `explored_box`
    counts the subsets solved.
    """
    adjm = g.adjacency_masks()
    closed = [a | (1 << v) for v, a in enumerate(adjm)]
    memo = {0: 0}
    pick = {}

    def bound(s: int) -> int:
        top = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            d = (adjm[low.bit_length() - 1] & s).bit_count()
            if d > top:
                top = d
        return top + 1

    def solve(s: int, top: int) -> int:
        explored_box[0] += 1
        best = 0
        for mis in _maximal_independent_sets(closed, s):
            rest = s & ~mis
            val = memo.get(rest)
            if val is None:
                rest_top = bound(rest)
                if rest_top < best:
                    continue
                val = solve(rest, rest_top)
            if val + 1 > best:
                best = val + 1
                pick[s] = mis
                if best >= top:
                    break
        memo[s] = best
        return best

    s = (1 << g.n) - 1
    if s:
        solve(s, bound(s))
    color = [0] * g.n
    j = 0
    while s:
        j += 1
        mis = pick[s]
        s &= ~mis
        while mis:
            low = mis & -mis
            mis ^= low
            color[low.bit_length() - 1] = j
    return color


def _maximize(g: Graph, start_k: int, finder) -> OracleResult:
    explored = [0]
    for k in range(start_k, 1, -1):
        found = finder(g, k, explored)
        if found is not None:
            return OracleResult(k, Coloring(tuple(found)), explored[0])
    # any graph with an edge admits a 2-color b- and z-coloring, so falling
    # through means the graph is edgeless
    assert g.m == 0
    return OracleResult(1 if g.n else 0, Coloring((1,) * g.n), explored[0])


def exact_chi(g: Graph, limit_n: int = 12) -> OracleResult:
    """Minimum colors of any proper coloring, by branch and bound with the
    first vertex pinned to color 1 and colors introduced in order."""
    check_limit(g.n, limit_n, "exact_chi")
    n = g.n
    if n == 0:
        return OracleResult(0, Coloring(()), 0)
    adjm = g.adjacency_masks()
    order = sorted(range(n), key=lambda v: (-len(g.adj[v]), v))
    greedy = greedy_coloring(g, order)
    best = [greedy.k, list(greedy.colors)]
    color = [0] * n
    class_mask = [0] * (n + 2)
    explored = [0]

    def dfs(idx: int, used: int) -> None:
        explored[0] += 1
        if used >= best[0]:
            return
        if idx == n:
            best[0] = used
            best[1] = color[:]
            return
        v = order[idx]
        av = adjm[v]
        vbit = 1 << v
        for c in range(1, min(used + 1, best[0] - 1) + 1):
            if av & class_mask[c]:
                continue
            color[v] = c
            class_mask[c] |= vbit
            dfs(idx + 1, max(used, c))
            class_mask[c] &= ~vbit
            color[v] = 0

    dfs(0, 0)
    return OracleResult(best[0], Coloring(tuple(best[1])), explored[0])


def exact_gamma(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any Grundy (first-fit) coloring, with the coloring
    `_grundy_coloring` peels as witness."""
    check_limit(g.n, limit_n, "exact_gamma")
    explored = [0]
    witness = Coloring(tuple(_grundy_coloring(g, explored)))
    return OracleResult(witness.k, witness, explored[0])


def exact_b(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any color-dominating (b-) coloring."""
    check_limit(g.n, limit_n, "exact_b")
    return _maximize(g, m_degree_bound(g), _find_b)


def exact_z(g: Graph, limit_n: int = 14) -> OracleResult:
    """Maximum colors of any z-coloring; 1 for edgeless graphs.  Targets are
    probed downward from `star_degree_bound(g)`."""
    check_limit(g.n, limit_n, "exact_z")
    return _maximize(g, star_degree_bound(g), _find_z)


def find_z_coloring(g: Graph, k: int) -> Coloring | None:
    """Exact decision: some z-coloring with exactly k colors, or None.

    A k with no b-coloring is refuted by the b search alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Coloring((1,) * g.n) if g.m == 0 and g.n else None
    explored = [0]
    found = _find_z(g, k, explored)
    return Coloring(tuple(found)) if found is not None else None


def z_reaches(g: Graph, t: int) -> bool:
    """Exact decision whether z(g) >= t.

    Every target count from t up to `star_degree_bound(g)` is searched,
    since z-colorings do not interpolate (K_n admits only the n-coloring).
    Each target is first probed by the b search, and one with no b-coloring
    is refuted there; the z search then cuts every branch where the
    dominating star can no longer form.
    """
    if t <= 1:
        return g.n >= t
    if g.n == 0:
        return False
    top = star_degree_bound(g)
    explored = [0]
    for k in range(t, top + 1):
        if _find_z(g, k, explored) is not None:
            return True
    return False
