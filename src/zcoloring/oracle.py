"""Exact brute-force oracles for the four chromatic parameters at desk scale:
chi (minimum proper), gamma (maximum Grundy), b (maximum color-dominating)
and z (maximum z-coloring).  Ground truth for the property and acceptance
tests; inputs are size-limited so typical calls stay well under a second
(dense balanced-bipartite hosts near the limit are the slow extreme, since
refuting high targets there defeats the local pruning).

The b and z oracles probe target counts downward and stop at the first
target that admits a coloring.  The b oracle starts at max_degree+1 capped by
the m-degree bound; the z oracle starts at the star degree bound
(`star_degree_bound`), which never exceeds either, since the dominating star
u_1..u_k of a z-coloring is a vertex of degree >= k-1 with k-1 neighbours of
degree >= k-1.  Every z-coloring is a b-coloring (the star vertex of each
class sees all the others), so a z probe runs the b search first and returns
None when it fails; the b search, whose colors are interchangeable, refutes a
target far faster than the ordered z search.  Only when a b-coloring with k
colors exists does the z search run, so values and witnesses are those of the
z search alone, and z's `explored` includes the nodes of the b probes.
The gamma oracle takes its value from a memoized recursion over maximal
independent sets (`_grundy_number`) and makes one probe, at that value, for
the witness; its `explored` counts the subsets the recursion solved plus the
nodes of that probe.  The backtracking engine assigns vertices in descending
degree order with properness pruning; Grundy-style targets additionally prune
any vertex whose missing lower colors exceed its unassigned neighbors.

Class-witness pruning: a b- or z-coloring with k colors has a
color-dominating vertex (one that sees the k-1 other colors) in every class,
and a Grundy k-coloring has one in class k.  The engine cuts a branch as soon
as some such class can no longer get one: no vertex of that color, and no
uncolored vertex that may still take it, sees enough colors plus uncolored
neighbors to reach k-1.  The z search also cuts a branch once its dominating
star can no longer form: no vertex that may still become color-dominating and
take color k has such neighbours that may still take, between them, every
color of 1..k-1.  The cut subtrees hold no solution, so values and witnesses
are those of the unpruned search; only `OracleResult.explored` (the node
count `zcolor exact --format table` prints) reads lower.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph
from .reduce import greedy_coloring
from .verify import cd_flags, cd_witnesses, star_from


class SizeLimitError(ValueError):
    """Input larger than the oracle's configured limit."""


@dataclass
class OracleResult:
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


def _star_open(k: int, color, nbc, un, nbrs) -> bool:
    """The star test of `_search` in z mode, on its partial coloring: True
    while a dominating star may still form."""
    kbit = 1 << k
    below = kbit - 2
    # hold[u]: the colors u may still hold if it may still become
    # color-dominating, else 0 (bits above k never matter below)
    hold = [(1 << c if c else ~seen) if seen.bit_count() + free >= k - 1 else 0
            for c, seen, free in zip(color, nbc, un)]
    for u, h in enumerate(hold):
        if h & kbit:
            reach = 0
            for w in nbrs[u]:
                reach |= hold[w]
            if reach & below == below:
                return True
    return False


def _search(g: Graph, k: int, grundy_prune: bool, symmetric_colors: bool, required: int, leaf,
            explored_box, star: bool = False):
    """Find a proper coloring with colors in 1..k accepted by `leaf`, or None.

    `leaf(color, class_mask, nbc)` sees the complete assignment; `nbc[v]` is
    the bitmask of colors present in v's neighborhood (bit c = color c).
    Vertices are picked most-saturated-first (DSATUR style, degree then index
    as deterministic tie-breaks) so contradictions surface early.

    `required` is the bitmask of the colors whose class must contain a
    color-dominating vertex for `leaf` to accept.  A vertex can still become
    one only if the colors it sees plus its uncolored neighbors reach k-1;
    such a vertex covers its own color, or if uncolored every color it does
    not see.  A node where some required color is left uncovered is cut: that
    sum never grows deeper in the branch, so no leaf below it is accepted.

    With `star` (z mode) the node is also cut unless a dominating star can
    still form: some such vertex that may still hold color k has such
    neighbours that may still hold, between them, every color of 1..k-1.  A
    vertex may hold its own color if colored, otherwise every color none of
    its neighbours has; those sets, like the vertices themselves, only shrink
    deeper in the branch.
    """
    n = g.n
    if n == 0:
        return leaf([], [0] * (k + 1), [])
    adjm = g.adjacency_masks()
    nbrs = [list(a) for a in g.adj]
    deg = [len(g.adj[v]) for v in range(n)]
    color = [0] * n
    class_mask = [0] * (k + 1)
    cnt = [[0] * (k + 1) for _ in range(n)]
    nbc = [0] * n
    un = deg[:]
    used = [0]

    def feasible(v: int) -> bool:
        missing = ((1 << color[v]) - 2) & ~nbc[v]
        return missing == 0 or missing.bit_count() <= un[v]

    def dfs(idx: int, max_used: int):
        explored_box[0] += 1
        if idx == n:
            return leaf(color, class_mask, nbc)
        v = -1
        best_key = (-1, -1, 1)
        cover = 0
        for u in range(n):
            seen = nbc[u].bit_count()
            if color[u]:
                if seen + un[u] >= k - 1:
                    cover |= 1 << color[u]
                continue
            if seen + un[u] >= k - 1:
                cover |= ~nbc[u]
            key = (seen, deg[u], -u)
            if key > best_key:
                best_key = key
                v = u
        if required & ~cover or star and not _star_open(k, color, nbc, un, nbrs):
            return None
        av = adjm[v]
        vbit = 1 << v
        top = min(k, max_used + 1) if symmetric_colors else k
        for c in range(1, top + 1):
            if av & class_mask[c]:
                continue
            color[v] = c
            class_mask[c] |= vbit
            cbit = 1 << c
            if class_mask[c] == vbit:
                used[0] += 1
            for w in nbrs[v]:
                row = cnt[w]
                row[c] += 1
                if row[c] == 1:
                    nbc[w] |= cbit
                un[w] -= 1
            ok = True
            if grundy_prune:
                if not feasible(v):
                    ok = False
                else:
                    for w in nbrs[v]:
                        if color[w] and not feasible(w):
                            ok = False
                            break
            if ok and k - used[0] <= n - idx - 1:
                res = dfs(idx + 1, max_used if c <= max_used else c)
                if res is not None:
                    return res
            for w in nbrs[v]:
                row = cnt[w]
                row[c] -= 1
                if row[c] == 0:
                    nbc[w] &= ~cbit
                un[w] += 1
            class_mask[c] &= ~vbit
            if class_mask[c] == 0:
                used[0] -= 1
            color[v] = 0
        return None

    return dfs(0, 0)


def _find_grundy(g: Graph, k: int, explored_box):
    def leaf(color, class_mask, nbc):
        # feasibility pruning leaves every vertex saturated, so the assignment
        # is Grundy by construction; only the top color needs checking
        return color[:] if class_mask[k] else None

    # a vertex of color k sees all of 1..k-1, so it is color-dominating
    return _search(g, k, grundy_prune=True, symmetric_colors=False, required=1 << k,
                   leaf=leaf, explored_box=explored_box)


def _find_b(g: Graph, k: int, explored_box):
    def leaf(color, class_mask, nbc):
        cd = cd_flags(color, nbc, k)
        return color[:] if len(cd_witnesses(color, cd)) == k else None

    return _search(g, k, grundy_prune=False, symmetric_colors=True, required=(1 << (k + 1)) - 2,
                   leaf=leaf, explored_box=explored_box)


def _find_z(g: Graph, k: int, explored_box):
    # every z-coloring is a b-coloring, and the b search refutes k far faster
    if _find_b(g, k, explored_box) is None:
        return None

    def leaf(color, class_mask, nbc):
        cd = cd_flags(color, nbc, k)
        return color[:] if star_from(g.adj, color, cd, k) is not None else None

    # the star u_1..u_k holds a color-dominating vertex of every class
    return _search(g, k, grundy_prune=True, symmetric_colors=False, required=(1 << (k + 1)) - 2,
                   leaf=leaf, explored_box=explored_box, star=True)


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


def _grundy_number(g: Graph, explored_box) -> int:
    """Grundy number of g by a subset recursion over maximal independent sets.

    Class 1 of a Grundy coloring is a maximal independent set I and the
    other classes, shifted down by one, form a Grundy coloring of G - I;
    conversely any such pair is one.  So Gamma(G[S]) = 1 + max over maximal
    independent sets I of G[S] of Gamma(G[S - I]), with Gamma(empty) = 0.
    Values are memoized by vertex mask; recursion depth stays <= Gamma.
    Gamma(H) <= Delta(H) + 1 cuts twice: a subset stops once its best reaches
    that bound, and a child whose bound cannot beat the best is skipped.
    `explored_box` counts the subsets solved.
    """
    if g.n == 0:
        return 0
    adjm = g.adjacency_masks()
    closed = [a | (1 << v) for v, a in enumerate(adjm)]
    memo = {0: 0}

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
                if best >= top:
                    break
        memo[s] = best
        return best

    full = (1 << g.n) - 1
    return solve(full, bound(full))


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
    """Maximum colors of any Grundy (first-fit) coloring.  The value comes
    from `_grundy_number`; the witness is the first one the search finds with
    exactly that many colors."""
    check_limit(g.n, limit_n, "exact_gamma")
    explored = [0]
    k = _grundy_number(g, explored)
    if k <= 1:
        # edgeless: every vertex takes color 1
        return OracleResult(k, Coloring((1,) * g.n), explored[0])
    found = _find_grundy(g, k, explored)
    return OracleResult(k, Coloring(tuple(found)), explored[0])


def exact_b(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any color-dominating (b-) coloring."""
    check_limit(g.n, limit_n, "exact_b")
    return _maximize(g, min(g.max_degree() + 1, m_degree_bound(g)), _find_b)


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
