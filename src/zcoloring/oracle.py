"""Exact brute-force oracles for the four chromatic parameters at desk scale:
chi (minimum proper), gamma (maximum Grundy), b (maximum color-dominating)
and z (maximum z-coloring).  Ground truth for the property and acceptance
tests; inputs are size-limited so typical calls stay well under a second
(dense balanced-bipartite hosts near the limit are the slow extreme, since
refuting high targets there defeats the local pruning).

The maximization oracles probe target counts downward from max_degree+1
(capped by the degree bound for b and z) and stop at the first target that
admits a coloring.  The backtracking engine assigns vertices in descending
degree order with properness pruning; Grundy-style targets additionally prune
any vertex whose missing lower colors exceed its unassigned neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph
from .reduce import greedy_coloring, z_heuristic
from .verify import cd_flags, star_from


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


def _check_limit(g: Graph, limit_n: int, what: str) -> None:
    if g.n > limit_n:
        raise SizeLimitError(f"{what}: graph has {g.n} vertices, limit is {limit_n}")


def _search(g: Graph, k: int, grundy_prune: bool, symmetric_colors: bool, leaf, explored_box):
    """Find a proper coloring with colors in 1..k accepted by `leaf`, or None.

    `leaf(color, class_mask, nbc)` sees the complete assignment; `nbc[v]` is
    the bitmask of colors present in v's neighborhood (bit c = color c).
    Vertices are picked most-saturated-first (DSATUR style, degree then index
    as deterministic tie-breaks) so contradictions surface early.
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
        return missing == 0 or bin(missing).count("1") <= un[v]

    def dfs(idx: int, max_used: int):
        explored_box[0] += 1
        if idx == n:
            return leaf(color, class_mask, nbc)
        v = -1
        best_key = (-1, -1, 1)
        for u in range(n):
            if color[u]:
                continue
            key = (bin(nbc[u]).count("1"), deg[u], -u)
            if key > best_key:
                best_key = key
                v = u
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

    return _search(g, k, grundy_prune=True, symmetric_colors=False, leaf=leaf, explored_box=explored_box)


def _find_b(g: Graph, k: int, explored_box):
    def leaf(color, class_mask, nbc):
        cd = cd_flags(color, nbc, k)
        return color[:] if len({c for c, f in zip(color, cd) if f}) == k else None

    return _search(g, k, grundy_prune=False, symmetric_colors=True, leaf=leaf, explored_box=explored_box)


def _find_z(g: Graph, k: int, explored_box):
    def leaf(color, class_mask, nbc):
        cd = cd_flags(color, nbc, k)
        return color[:] if star_from(g.adj, color, cd, k) is not None else None

    return _search(g, k, grundy_prune=True, symmetric_colors=False, leaf=leaf, explored_box=explored_box)


def _maximize(g: Graph, start_k: int, finder) -> OracleResult:
    explored = [0]
    for k in range(start_k, 1, -1):
        found = finder(g, k, explored)
        if found is not None:
            return OracleResult(k, Coloring(tuple(found)), explored[0])
    # any graph with an edge admits a 2-color witness for all three
    # maximization targets, so falling through means the graph is edgeless
    assert g.m == 0
    return OracleResult(1 if g.n else 0, Coloring((1,) * g.n), explored[0])


def exact_chi(g: Graph, limit_n: int = 12) -> OracleResult:
    """Minimum colors of any proper coloring, by branch and bound with the
    first vertex pinned to color 1 and colors introduced in order."""
    _check_limit(g, limit_n, "exact_chi")
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
    """Maximum colors of any Grundy (first-fit) coloring."""
    _check_limit(g, limit_n, "exact_gamma")
    if g.n == 0:
        return OracleResult(0, Coloring(()), 0)
    return _maximize(g, g.max_degree() + 1, _find_grundy)


def exact_b(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any color-dominating (b-) coloring."""
    _check_limit(g, limit_n, "exact_b")
    if g.n == 0:
        return OracleResult(0, Coloring(()), 0)
    return _maximize(g, min(g.max_degree() + 1, m_degree_bound(g)), _find_b)


def exact_z(g: Graph, limit_n: int = 14) -> OracleResult:
    """Maximum colors of any z-coloring; 1 for edgeless graphs."""
    _check_limit(g, limit_n, "exact_z")
    if g.n == 0:
        return OracleResult(0, Coloring(()), 0)
    return _maximize(g, min(g.max_degree() + 1, m_degree_bound(g)), _find_z)


def find_z_coloring(g: Graph, k: int) -> Coloring | None:
    """Exact decision: some z-coloring with exactly k colors, or None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Coloring((1,) * g.n) if g.m == 0 and g.n else None
    explored = [0]
    found = _find_z(g, k, explored)
    return Coloring(tuple(found)) if found is not None else None


def z_reaches(g: Graph, t: int) -> bool:
    """Exact decision whether z(g) >= t.

    The z heuristic is tried first as a cheap certificate; otherwise every
    target count from t up to the degree bounds is searched, since z-colorings
    do not interpolate (K_n admits only the n-coloring).
    """
    if t <= 1:
        return g.n >= t
    if g.n == 0:
        return False
    coloring, _ = z_heuristic(g)
    if coloring.k >= t:
        return True
    top = min(g.max_degree() + 1, m_degree_bound(g))
    explored = [0]
    for k in range(t, top + 1):
        if _find_z(g, k, explored) is not None:
            return True
    return False
