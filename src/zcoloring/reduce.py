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
import math
import random
from dataclasses import dataclass, field

from .graphs import Coloring, Graph
from .verify import (cd_flags, cd_witnesses, check_proper, check_z, colors_seen, grundy_masks, least_absent,
                     neighbor_colors, star_from)


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
        colors[v] = least_absent(colors_seen(g.adj[v], colors))
    return Coloring(tuple(colors))


def grundy_reduce(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Enforce the Grundy property without adding colors.

    Scans classes bottom-up; a vertex missing some lower color moves to the
    smallest such class, emptied classes are deleted and higher classes
    renamed down.  Each vertex moves at most once.
    """
    if not check_proper(g, c):
        raise ValueError("grundy_reduce requires a proper coloring")
    color_of = list(c.colors)
    trace = ReductionTrace()
    # moves only go down into classes already scanned, so each input class
    # is scanned once, holding exactly its input vertices
    i = 2
    for members in c.classes()[1:]:
        trace.iterations += 1
        for v in members:
            j = least_absent(colors_seen(g.adj[v], color_of))
            if j < i:
                color_of[v] = j
                trace.moves.append((v, i, j))
        if all(color_of[v] != i for v in members):
            color_of = [col - (col > i) for col in color_of]
        else:
            i += 1
    return Coloring(tuple(color_of)), trace


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
    nbc = grundy_masks(g, c)
    if nbc is None:
        raise ValueError("cd_gcd_transform requires a Grundy coloring")
    color_of = list(c.colors)
    trace = ReductionTrace()
    k = c.k
    while k > 2:
        first = cd_witnesses(color_of, cd_flags(color_of, nbc, k))
        j = next((j for j in range(k - 2, 0, -1) if j not in first), None)
        if j is None:
            trace.iterations += k - 2
            break
        trace.iterations += k - 1 - j
        for v in [v for v, col in enumerate(color_of) if col == j]:
            # exists: v is not CD and the Grundy property covers all lower classes
            p = least_absent(colors_seen(g.adj[v], color_of) | ((2 << j) - 1))
            color_of[v] = p
            trace.moves.append((v, j, p))
        color_of = [col - (col > j) for col in color_of]
        k -= 1
        nbc = neighbor_colors(g, color_of)
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
    nbc = grundy_masks(g, c)
    if nbc is None:
        raise ValueError("z_transform requires a Grundy coloring")
    color_of = list(c.colors)
    t = c.k
    cd = cd_flags(color_of, nbc, t)
    if len(cd_witnesses(color_of, cd)) < t:
        raise ValueError("z_transform requires a color-dominating coloring")
    trace = ReductionTrace()
    # every top vertex of a Grundy coloring is CD, so a nice vertex is
    # exactly the center of a dominating star
    while t > 1 and star_from(g.adj, color_of, cd, t) is None:
        u = color_of.index(t)
        i_u = least_absent(colors_seen([w for w in g.adj[u] if cd[w]], color_of))
        recolored = [(u, t, i_u)]
        for w in g.adj[u]:
            if color_of[w] != i_u:
                continue
            j_w = least_absent(nbc[w] | 1 << i_u)
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
        t = refined.k
        nbc = neighbor_colors(g, color_of)
        cd = cd_flags(color_of, nbc, t)
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
    if math.prod(map(len, classes)) <= budget:
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
