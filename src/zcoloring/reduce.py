"""Color-reduction heuristics.

The pipeline refines an arbitrary proper coloring in stages:

  greedy -> grundy_reduce -> cd_gcd_transform -> z_transform

ending in a coloring that is simultaneously Grundy and color-dominating and
carries a dominating star of CD vertices (a z-coloring).  Two further drivers
build on the pipeline: `complementary` re-colors through single-vertex
augmentations, and `iterated_z` re-runs the pipeline over permuted class
orders keeping the best result.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .graphs import Coloring, Graph
from .verify import cd_flags, check_cd, check_grundy, check_proper, check_z, neighbor_colors, star_from


@dataclass
class ReductionTrace:
    """Bookkeeping for the move bounds: (vertex, from_color, to_color) moves
    and the scan/outer-iteration count."""

    moves: list[tuple[int, int, int]] = field(default_factory=list)
    iterations: int = 0


def greedy_coloring(g: Graph, order=None) -> Coloring:
    """First-fit coloring along `order` (default 0..n-1): each vertex takes the
    smallest color absent from its already-colored neighbors.  The result
    always has the Grundy property and uses at most max_degree+1 colors."""
    if order is None:
        order = range(g.n)
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    colors = [0] * g.n
    for v in order:
        taken = {colors[w] for w in g.adj[v] if colors[w]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors))


def _classes_of(c: Coloring) -> list[set[int]]:
    out = [set() for _ in range(c.k)]
    for v, col in enumerate(c.colors):
        out[col - 1].add(v)
    return out


def grundy_reduce(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Enforce the Grundy property without adding colors.

    Scans classes bottom-up; a vertex missing some lower color moves to the
    smallest such class, emptied classes are deleted and higher classes
    renamed down.  Each vertex moves at most once.
    """
    if not check_proper(g, c):
        raise ValueError("grundy_reduce requires a proper coloring")
    color_of = list(c.colors)
    classes = _classes_of(c)
    trace = ReductionTrace()
    i = 2
    while i <= len(classes):
        trace.iterations += 1
        for v in sorted(classes[i - 1]):
            nbr_colors = {color_of[w] for w in g.adj[v]}
            j = next((j for j in range(1, i) if j not in nbr_colors), None)
            if j is not None:
                classes[i - 1].discard(v)
                classes[j - 1].add(v)
                color_of[v] = j
                trace.moves.append((v, i, j))
        if not classes[i - 1]:
            del classes[i - 1]
            for idx in range(i - 1, len(classes)):
                for v in classes[idx]:
                    color_of[v] = idx + 1
        else:
            i += 1
    return Coloring(tuple(color_of)), trace


def _cd_vertex(g: Graph, color_of: list[int], cls: set[int], j: int, k: int) -> int | None:
    needed = set(range(1, k + 1)) - {j}
    for v in sorted(cls):
        if needed <= {color_of[w] for w in g.adj[v]}:
            return v
    return None


def cd_gcd_transform(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Turn a Grundy coloring into one that is Grundy and color-dominating.

    Scans classes top-down (the top two always dominate in a Grundy coloring).
    A class with no CD vertex is dissolved: each of its vertices moves to the
    smallest higher class where it has no neighbor, the class is deleted, and
    scanning restarts on the renamed classes.  Classes verified earlier keep
    their CD vertices, so every vertex moves at most once overall.

    The scan goes all the way down to class 1: stopping at class 2 can leave
    class 1 without a CD vertex (e.g. the 4-path colored 1,3,2,1).
    """
    if not check_grundy(g, c):
        raise ValueError("cd_gcd_transform requires a Grundy coloring")
    color_of = list(c.colors)
    classes = _classes_of(c)
    trace = ReductionTrace()
    j = len(classes) - 2
    while j >= 1:
        trace.iterations += 1
        k = len(classes)
        if _cd_vertex(g, color_of, classes[j - 1], j, k) is not None:
            j -= 1
            continue
        for v in sorted(classes[j - 1]):
            nbr_colors = {color_of[w] for w in g.adj[v]}
            # exists: v is not CD and the Grundy property covers all lower classes
            p = next(p for p in range(j + 1, k + 1) if p not in nbr_colors)
            classes[p - 1].add(v)
            color_of[v] = p
            trace.moves.append((v, j, p))
        del classes[j - 1]
        for idx in range(j - 1, len(classes)):
            for v in classes[idx]:
                color_of[v] = idx + 1
        j = len(classes) - 2
    return Coloring(tuple(color_of)), trace


def z_transform(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Refine a Grundy + color-dominating coloring until it has a nice vertex,
    i.e. until it is a z-coloring.

    Each round: if no top-color vertex is nice, pick the smallest-index one,
    recolor it to the least color i whose CD vertices all avoid it, push each
    of its color-i neighbors w to the least color absent around w, then re-run
    both reductions on the refined classes.  Either the class count or the top
    class shrinks every round, so rounds are bounded by n.
    """
    if not check_grundy(g, c):
        raise ValueError("z_transform requires a Grundy coloring")
    if not check_cd(g, c):
        raise ValueError("z_transform requires a color-dominating coloring")
    color_of = list(c.colors)
    trace = ReductionTrace()
    while True:
        t = max(color_of, default=0)
        if t <= 1:
            break
        nbc = neighbor_colors(g, color_of)
        cd = cd_flags(color_of, nbc, t)
        # every top vertex of a Grundy coloring is CD, so a nice vertex is
        # exactly the center of a dominating star
        if star_from(g.adj, color_of, cd, t) is not None:
            break
        u = color_of.index(t)
        u_sees = {color_of[w] for w in g.adj[u] if cd[w]}
        i_u = next(q for q in range(1, t) if q not in u_sees)
        recolored = [(u, t, i_u)]
        for w in g.adj[u]:
            if color_of[w] != i_u:
                continue
            j_w = next(q for q in range(1, t + 1) if q != i_u and not nbc[w] >> q & 1)
            assert i_u < j_w < t
            recolored.append((w, i_u, j_w))
        for v, _old, new in recolored:
            color_of[v] = new
        trace.moves.extend(recolored)
        refined = Coloring(tuple(color_of)).normalize()
        refined, tr1 = grundy_reduce(g, refined)
        refined, tr2 = cd_gcd_transform(g, refined)
        color_of = list(refined.colors)
        trace.moves.extend(tr1.moves)
        trace.moves.extend(tr2.moves)
        trace.iterations += 1
        if trace.iterations > 4 * g.n + 4:
            raise RuntimeError("z_transform failed to converge")
    return Coloring(tuple(color_of)), trace


def z_heuristic(g: Graph, seed_order=None) -> tuple[Coloring, ReductionTrace]:
    """Full pipeline from scratch: greedy over `seed_order`, then the Grundy,
    color-dominating and z refinements.  Output passes check_z and uses at
    most max_degree+1 colors."""
    c = greedy_coloring(g, seed_order)
    c, tr1 = grundy_reduce(g, c)
    c, tr2 = cd_gcd_transform(g, c)
    c, tr3 = z_transform(g, c)
    return c, ReductionTrace(tr1.moves + tr2.moves + tr3.moves, tr3.iterations)


def complementary(g: Graph, c: Coloring, budget: int = 1000, rng_seed: int = 0) -> Coloring:
    """Re-color through single-vertex augmentations of a z-coloring.

    For tuples (v_1..v_t), one per class, add a new vertex adjacent to every
    v_i, run the z pipeline on the augmented graph, and restrict the result to
    the original vertices.  The full class product is enumerated when it fits
    in `budget`, otherwise `budget` tuples are sampled uniformly with
    `rng_seed`.  The input coloring is the baseline, so the result never uses
    more colors than it; ties keep the first coloring found.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not check_z(g, c):
        raise ValueError("complementary requires a z-coloring")
    classes = [tuple(cls) for cls in c.classes()]
    best = c
    product_size = 1
    for cls in classes:
        product_size *= len(cls)
        if product_size > budget:
            break
    if product_size <= budget:
        tuples = itertools.product(*classes)
    else:
        rng = random.Random(rng_seed)
        tuples = (tuple(rng.choice(cls) for cls in classes) for _ in range(budget))
    for pick in tuples:
        augmented = g.with_vertex(pick)
        colored, _ = z_heuristic(augmented)
        restricted = Coloring(colored.colors[: g.n]).normalize()
        if restricted.k < best.k:
            best = restricted
    return best


def iterated_z(g: Graph, rounds: int, rng_seed: int = 0) -> tuple[Coloring, list[int]]:
    """Iterated z pipeline: later rounds greedy-color along the previous
    round's classes concatenated under a permutation (round 2 reverses the
    class order, further rounds draw uniform permutations from `rng_seed`),
    then reduce again.  Returns the best coloring seen and per-round counts.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = random.Random(rng_seed)
    current, _ = z_heuristic(g)
    best = current
    counts = [current.k]
    for r in range(2, rounds + 1):
        classes = current.classes()
        if r == 2:
            sigma = list(range(len(classes) - 1, -1, -1))
        else:
            sigma = list(range(len(classes)))
            rng.shuffle(sigma)
        c, _ = z_heuristic(g, [v for idx in sigma for v in classes[idx]])
        counts.append(c.k)
        if c.k < best.k:
            best = c
        current = c
    return best, counts
