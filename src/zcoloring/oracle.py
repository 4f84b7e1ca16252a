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
b-coloring (the star vertex of each class sees all the others), so `exact_z`
runs the b search first at each target and fails when it fails; the b
search, whose colors are interchangeable, refutes a target with no
b-coloring faster than the ordered z search.  Only when a b-coloring with k
colors exists does the z search run, so values and witnesses are those of
the z search alone, and z's `explored` includes the nodes of the b probes.
The decisions `find_z_coloring` and `z_reaches` run the z search alone: on
the sparse hosts of atom generation most targets admit a b-coloring, so the
b probe costs more than it saves there, and they report no node count.
Every oracle that probes targets does so through `_probe`, which runs the
searches it is given at each target in order and sums the node count.  The
backtracking engine (`_search`) is one loop over an explicit stack of
frames, so its depth is bounded by memory rather than the recursion limit.  It assigns vertices most-saturated-first
with properness pruning, and the z search writes only the colors that leave
no colored vertex missing more lower colors than it has unassigned
neighbours.  Per vertex it
keeps the neighbour color counts and their mask (which decides properness),
a slack (how far the vertex is from no longer being able to become
color-dominating), the colors it may still hold as a dominating vertex,
its selection key and, for the z search, the colors it can still take,
all updated in O(deg v) when v is assigned or unassigned, so a node's cuts
and pick read those arrays instead of recomputing them from the
neighbourhoods' colors.
The chi oracle probes target counts upward with the b search, from the size
of a greedily grown clique, and stops at the first that admits a coloring:
every coloring with chi colors is a b-coloring, so that target is chi.
The gamma oracle runs no search: a memoized recursion over maximal
independent sets (`_grundy_coloring`), kept on an explicit stack, yields the
value and, by peeling the recorded best set of each subset, a witness with
that many classes.  No oracle recurses, so none is bounded by the recursion
limit.

Class-witness pruning: a b- or z-coloring with k colors has a
color-dominating vertex (one that sees the k-1 other colors) in every class.
The engine cuts a branch as soon as some class can no longer get one: no
vertex of that color, and no uncolored vertex that may still take it, sees
enough colors plus uncolored neighbors to reach k-1.  The z search also cuts
a branch once its dominating star can no longer form: no vertex that may
still become color-dominating and take color k has k-1 distinct such
neighbours that may still take, between them, every color of 1..k-1.  In
the z search both tests read which colors each vertex may still dominate
in, narrowed by the colors its neighbours can still take: an uncolored
vertex of a Grundy coloring needs every lower color, so with j uncolored
neighbours it can end with one of the first j+1 colors it does not see
yet.  A vertex with two colors of 1..k that it neither sees nor can get
from a neighbour never dominates, and one with a single such color
dominates only in that color.  What a neighbour can still take only shrinks down a branch, so
every narrowed set does too, and a complete assignment passes the narrowed
tests exactly when it passes the plain ones.  The cut subtrees hold no
solution, so values and witnesses are those of the unpruned search; only
`OracleResult.explored` (the count `zcolor exact --format table` prints)
reads lower.  One acceptance rule: the same tests accept a complete
assignment, so the oracles share no code with `verify`, whose checks stay an
independent test of their witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Coloring, Graph


class SizeLimitError(ValueError):
    """Input larger than the oracle's configured limit."""


@dataclass
class OracleResult:
    """An oracle's value, a witness coloring with exactly `value` colors, and
    `explored`, a count of the oracle's work: b-search nodes over the probes
    for chi, subsets solved by the recursion for gamma, search nodes for b,
    and the b-probe nodes plus the z-search nodes for z, since exact_z runs
    the b search before the z search at each target.  `_probe` sums the
    nodes of every search it runs."""

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


def _search(g: Graph, k: int, star: bool):
    """(colors, nodes): a proper coloring with colors in 1..k that passes
    the cuts below at its complete assignment, or None, and the number of
    search nodes explored.  It is a b-coloring, or with `star` a z-coloring.

    One loop over an explicit stack of frames [v, its color, the mask of
    colors it has left to try, max_used, take[v] before v was colored], one
    per vertex on the current branch, so the depth is bounded by memory, not
    by the recursion limit.  A frame takes the lowest color of its mask at
    each advance, and only a color it can keep is ever written.
    Per vertex u the engine keeps, updated in O(deg v) when v is assigned or
    unassigned:
      `cnt[u][c]`  neighbours of u with color c, and `nbc[u]` the mask of
                   colors present among them (bit c = color c), so an
                   uncolored u may take c exactly when bit c is clear;
      `un[u]`      uncolored neighbours;
      `slack[u]`   colors seen + uncolored neighbours - (k-1): u may still
                   become color-dominating while it is >= 0, and it drops
                   only when a neighbour takes a color u already sees;
      `hold[u]`    the colors u may still hold while it may dominate: its
                   own color bit once colored, otherwise the colors of 1..k
                   none of its neighbours has; 0 once slack[u] < 0;
      `key[u]`     seen*n^2 + deg*n + (n-1-u) while uncolored, -1 once
                   colored: the largest is the most saturated vertex, with
                   degree then lower index as deterministic tie-breaks;
      `take[u]`    the colors an uncolored u can still end with in a Grundy
                   coloring, 0 once colored: u needs every lower color, and
                   at most un[u] missing ones can still come from its
                   uncolored neighbours, so these are the first un[u]+1
                   colors of 1..k none of its neighbours has.  A neighbour
                   taking c drops c, or else the highest color once more
                   than un[u]+1 remain; a neighbour uncolored again adds
                   the lowest color u may take that take[u] lacks.  Only
                   the z search reads it.

    Without `star` the colors are interchangeable, so a vertex v tries the
    colors of 1..max_used+1 (at most k) that nbc[v] lacks: at most one color
    not used yet.  With `star` (z mode) the colors are ordered, and no
    colored vertex may miss more lower colors than it has uncolored
    neighbours.  So v tries only the colors of take[v]: exactly the colors c
    that nbc[v] lacks with at most un[v] colors below c missing.  When its
    frame is pushed, a read-only pass over v's colored neighbours drops
    every color whose write would break the rule at a neighbour w: w misses
    the lower colors `missing`, at most un[w] of them, and v's write lowers
    un[w] by one, so when w misses exactly un[w] colors v must take one of
    them.  The neighbours' state is the same at every color the frame
    tries, since the frames above it restore what they change, so the mask
    holds for all of them, and no write is undone for breaking the rule.

    Every class must contain a color-dominating vertex, so a node is cut
    unless the OR of `hold` covers 1..k: every `hold` only shrinks deeper in
    the branch.  A vertex of degree below k-1 always has slack < 0 and hold
    0, so the node tests loop over the other vertices alone, the hubs.  With
    `star` each hold is narrowed first, and only the narrowed cover test
    runs: a narrowed hold is a subset of the hold, so the narrowed cover
    fails wherever the plain one does.  A vertex u can only come to see the
    colors in nbc[u] or in the `take` of its uncolored neighbours; if two
    colors of 1..k lie outside that set, u can never dominate and its
    narrowed hold is 0, and if one does, u can
    dominate only while holding it.  The cover test runs on the narrowed
    holds, and the star test asks for some vertex whose narrowed
    hold has color k and whose neighbours' narrowed holds cover 1..k-1 with
    at least k-1 distinct neighbours holding some color of 1..k-1, since the
    star's other vertices are k-1 different neighbours.  Deeper in the
    branch a neighbour's `take` only shrinks, and a color leaves it only to
    enter nbc[u] when that neighbour is colored, so what u can come to see
    only shrinks, and so does every narrowed hold: a cut node has no
    accepted assignment below it.
    A node that passes the cover test has at least as many uncolored
    vertices as empty classes, and when the two are equal each empty color is
    held by an uncolored vertex that sees every used color, so the most
    saturated pick sees them all too and can only open a class: no
    assignment leaves more empty classes than uncolored vertices, and the
    engine keeps no class sizes.

    The same cuts decide a complete assignment.  There no vertex has an
    uncolored neighbour and none sees its own color, so "sees k-1 colors"
    means color-dominating: the cover test asks for a color-dominating vertex
    in every class, and the star test for the dominating star.  Every `take`
    is 0 there, so narrowing leaves a dominating vertex its own color and
    the star's leaves are k-1 distinct neighbours: the narrowed tests accept
    exactly the complete assignments the plain ones do, and the first one
    found, the witness, is unchanged.  With `star` every vertex is also
    saturated, so the coloring is Grundy.
    """
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
    # only a vertex of degree >= k-1 can have slack >= 0, so only these hubs
    # ever hold a color; each with its hub neighbours, the possible leaves
    hubs = [(u, [w for w in nbrs[u] if slack[w] >= 0]) for u, s in enumerate(slack) if s >= 0]
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
        if star:
            # narrow each hold to what u can still dominate in: it can only
            # come to see nbc[u] and its uncolored neighbours' take
            held = [0] * n
            for u, _ in hubs:
                h = hold[u]
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
                for u, leaves_of in hubs:
                    if held[u] & kbit:
                        reach = 0
                        leaves = 0
                        for w in leaves_of:
                            h = held[w] & below
                            if h:
                                reach |= h
                                leaves += 1
                        if reach == below and leaves >= k - 1:
                            open_ = True
                            break
        else:
            for u, _ in hubs:
                cover |= hold[u]
            open_ = cover == required
        if open_:
            if len(stack) == n:
                return color, explored
            v = key.index(max(key))
            if star:
                # the colors v can keep: its take, less any color whose write
                # would leave a colored neighbour w missing more lower colors
                # than its uncolored neighbours could still supply
                free = take[v]
                for w in nbrs[v]:
                    if color[w]:
                        missing = ((1 << color[w]) - 2) & ~nbc[w]
                        if missing.bit_count() >= un[w]:
                            free &= missing
            else:
                free = ((2 << min(k, max_used + 1)) - 2) & ~nbc[v]
            stack.append([v, 0, free, max_used, take[v]])
        # advance the deepest frame to its next color, popping exhausted ones
        while stack:
            frame = stack[-1]
            v, c, free, max_used, v_take = frame
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
            if not free:
                stack.pop()
                continue
            # assign v its lowest color left
            cbit = free & -free
            c = cbit.bit_length() - 1
            frame[1] = c
            frame[2] = free ^ cbit
            color[v] = c
            key[v] = -1
            take[v] = 0
            if slack[v] >= 0:
                hold[v] = cbit
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
                if star and not color[w]:
                    kept = take[w] & ~cbit
                    if kept.bit_count() > un[w] + 1:
                        kept ^= 1 << (kept.bit_length() - 1)
                    take[w] = kept
            if c > max_used:
                max_used = c
            break
        else:
            return None, explored


# the searches a probe runs at each target, as `_search`'s `star` flags
_B, _Z, _B_THEN_Z = (False,), (True,), (False, True)


def _probe(g: Graph, targets, searches) -> OracleResult | None:
    """The first k of `targets` at which every search of `searches` finds a
    coloring, with the last search's witness and the nodes of every search
    so far as `explored`; None if no target passes.  At each target the
    searches run in order, each only where the one before it succeeds.
    Every z-coloring is a b-coloring, so `_B_THEN_Z` answers as `_Z` does;
    it only changes which search refutes a target, and so `explored`."""
    explored = 0
    for k in targets:
        for star in searches:
            found, nodes = _search(g, k, star)
            explored += nodes
            if found is None:
                break
        else:
            return OracleResult(k, Coloring(tuple(found)), explored)
    return None


def _edgeless(g: Graph) -> OracleResult:
    """The b and z answer where `_probe` finds no target: any graph with an
    edge has chi >= 2, and both downward bounds are at least chi, so a probe
    succeeds; an edgeless graph has both bounds at most 1 and probes none."""
    assert g.m == 0
    return OracleResult(1 if g.n else 0, Coloring((1,) * g.n), 0)


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


def _grundy_coloring(g: Graph) -> tuple[list[int], int]:
    """A Grundy coloring of g with Gamma(g) colors, by a subset recursion over
    maximal independent sets, and the number of subsets solved.

    Class 1 of a Grundy coloring is a maximal independent set I and the
    other classes, shifted down by one, form a Grundy coloring of G - I;
    conversely any such pair is one.  So Gamma(G[S]) = 1 + max over maximal
    independent sets I of G[S] of Gamma(G[S - I]), with Gamma(empty) = 0.
    Values are memoized by vertex mask, and the subsets being solved at once
    form a chain at most Gamma long, kept on an explicit stack.
    Gamma(H) <= Delta(H) + 1 cuts twice: a subset stops once its best reaches
    that bound, and a child whose bound cannot beat the best is skipped.
    Each solved subset records the set I that gave its best value, and the
    coloring is peeled from the full vertex set: class j is the set recorded
    for what classes 1..j-1 left.  It has Gamma classes and is Grundy, since
    each class is maximal independent in what remains.
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

    # solve(s) on an explicit stack of frames [s, top, best, the maximal
    # independent sets of G[s] still to try, the set whose remainder is being
    # solved]: a frame whose remainder is unsolved pushes it and resumes once
    # it is memoized, so the order of solved subsets is that of the recursion
    s = (1 << g.n) - 1
    stack = []
    solved = 0
    if s:
        solved += 1
        stack.append([s, bound(s), 0, _maximal_independent_sets(closed, s), 0])
    while stack:
        frame = stack[-1]
        sub, top, best, sets, mis = frame
        if mis:
            val = memo[sub & ~mis]
            if val >= best:
                best = val + 1
                pick[sub] = mis
        if best < top:
            for mis in sets:
                rest = sub & ~mis
                val = memo.get(rest)
                if val is None:
                    rest_top = bound(rest)
                    if rest_top < best:
                        continue
                    frame[2], frame[4] = best, mis
                    solved += 1
                    stack.append([rest, rest_top, 0, _maximal_independent_sets(closed, rest), 0])
                    break
                if val >= best:
                    best = val + 1
                    pick[sub] = mis
                    if best >= top:
                        break
        if stack[-1] is frame:
            memo[sub] = best
            stack.pop()

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
    return color, solved


def _greedy_clique(g: Graph) -> int:
    """Size of the largest clique grown from some vertex by repeatedly taking
    the lowest neighbour common to the clique so far; a lower bound on chi,
    and 0 for the empty graph."""
    adjm = g.adjacency_masks()
    best = 0
    for cand in adjm:
        size = 1
        while cand:
            cand &= adjm[(cand & -cand).bit_length() - 1]
            size += 1
        best = max(best, size)
    return best


def exact_chi(g: Graph, limit_n: int = 12) -> OracleResult:
    """Minimum colors of any proper coloring: the least k that admits a
    b-coloring, probed upward by the b search from the greedy clique size.

    A coloring with chi colors is a b-coloring: were some class without a
    color-dominating vertex, each of its vertices would miss some other color,
    and as the class is independent all of them could move there at once,
    saving a color (Irving and Manlove 1999).  Below chi no proper coloring
    exists at all, so the first k the b search answers is chi, and its
    coloring, a b-coloring, is the witness."""
    check_limit(g.n, limit_n, "exact_chi")
    return _probe(g, itertools.count(_greedy_clique(g)), _B)


def exact_gamma(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any Grundy (first-fit) coloring, with the coloring
    `_grundy_coloring` peels as witness."""
    check_limit(g.n, limit_n, "exact_gamma")
    colors, solved = _grundy_coloring(g)
    witness = Coloring(tuple(colors))
    return OracleResult(witness.k, witness, solved)


def exact_b(g: Graph, limit_n: int = 12) -> OracleResult:
    """Maximum colors of any color-dominating (b-) coloring."""
    check_limit(g.n, limit_n, "exact_b")
    return _probe(g, range(m_degree_bound(g), 1, -1), _B) or _edgeless(g)


def exact_z(g: Graph, limit_n: int = 14) -> OracleResult:
    """Maximum colors of any z-coloring; 1 for edgeless graphs.  Targets are
    probed downward from `star_degree_bound(g)`, each by the b search first:
    on the dense hosts it is run on, most targets above z have no
    b-coloring, and the b search refutes those faster than the z search."""
    check_limit(g.n, limit_n, "exact_z")
    return _probe(g, range(star_degree_bound(g), 1, -1), _B_THEN_Z) or _edgeless(g)


def find_z_coloring(g: Graph, k: int) -> Coloring | None:
    """Exact decision: some z-coloring with exactly k colors, or None.

    A k above `star_degree_bound(g)` is refuted before the search sizes its
    tables by k; any other k is decided by the z search alone.  At k = 1
    the search finds the all-ones coloring exactly when g is edgeless and
    nonempty."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > star_degree_bound(g):
        return None
    result = _probe(g, (k,), _Z)
    return result.witness if result is not None else None


def z_reaches(g: Graph, t: int) -> bool:
    """Exact decision whether z(g) >= t.

    Every target count from t up to `star_degree_bound(g)` is searched,
    since z-colorings do not interpolate (K_n admits only the n-coloring).
    Each target is decided by the z search alone, which cuts every branch
    where the dominating star can no longer form.  On the sparse hosts of
    atom generation most targets do admit a b-coloring, so a b probe first
    would cost more nodes than it saves.
    """
    if t <= 1:
        return g.n >= t
    return _probe(g, range(t, star_degree_bound(g) + 1), _Z) is not None
