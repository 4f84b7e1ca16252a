"""Color-reduction heuristics.

The pipeline refines an arbitrary proper coloring in stages:

  greedy -> grundy_reduce -> cd_gcd_transform -> z_transform

ending in a coloring that is simultaneously Grundy and color-dominating and
carries a dominating star of CD vertices (a z-coloring).  Two further drivers
build on the pipeline: `complementary` re-colors through single-vertex
augmentations, and `iterated_z` re-runs the pipeline over permuted class
orders keeping the best result.

`grundy_reduce` is first-fit along its input's classes, so it needs no
state of its own.  First-fit (`_first_fit`) builds "which colors does v
see" as it colors, in the same sweep of the adjacency.  The other stages,
and the Grundy scan inside each z round, read those masks off one table
(`_ColorCounts`), updated in O(deg v) per moved vertex.  The table holds
each vertex's neighbour-color mask from the start, and its per-color
neighbour counts only once a single-vertex move needs them: a z round's
recoloring and Grundy scan do, the CD stage does not, since it dissolves
whole independent classes, which only add bits to the masks.  So
`cd_gcd_transform` never builds the counts, and `z_transform` builds them
at its first round, if it has one.  Every class a stage empties is deleted
through the table (`_ColorCounts.delete`) as soon as the stage sees it
empty.  `z_heuristic` runs `_cd` then `_z` on one table, built from
first-fit's colors and masks, so it sweeps the adjacency once per call; it
skips `grundy_reduce`, which would move nothing, since first-fit gives every
vertex the least color its earlier neighbours miss.  The public stages and
`z_heuristic` each hand their table to `_run`, which runs the bodies on it
in order.  Where the checks run, one place each:

- `grundy_reduce` checks length and properness with `verify.check_proper`;
- `cd_gcd_transform` and `z_transform` refuse an input with more than
  max_degree+1 colors, which cannot be Grundy, before building anything;
- the table checks the length of the coloring it is built from;
- each body checks its own input at its top, on the table's masks in O(n),
  with its public stage's ValueError: `_grundy` properness, `_cd`
  properness and the Grundy property in one pass, `_z` those and
  color-domination.  So the checks run wherever a body is entered: from its
  public stage, from `z_heuristic` and from each z round;
- callers that publish a coloring (the CLI) verify it independently with
  `verify.check_all`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .graphs import Coloring, Graph
from .verify import cd_flags, cd_witnesses, check_proper, check_z, colors_seen, least_absent, neighbor_colors, star_from


@dataclass
class ReductionTrace:
    """Bookkeeping for the move bounds: (vertex, from_color, to_color) moves
    and the scan/outer-iteration count."""

    moves: list[tuple[int, int, int]] = field(default_factory=list)
    iterations: int = 0


def greedy_coloring(g: Graph, order=None) -> Coloring:
    """First-fit coloring along `order` (default 0..n-1): each vertex takes the
    smallest color absent from its already-colored neighbors.  The result
    always has the Grundy property and uses at most max_degree+1 colors.
    These are the colors of `_first_fit`, the one first-fit of the package,
    which z_heuristic runs for their masks as well."""
    return Coloring(tuple(_first_fit(g, order)[0]))


def _first_fit(g: Graph, order) -> tuple[list[int], list[int]]:
    """greedy_coloring's colors and their neighbour-color masks, in one sweep
    of the adjacency: a vertex that takes color c ORs bit c into each
    neighbour's mask, so when v's turn comes its mask holds exactly the
    colors of its colored neighbours, and at the end every mask is
    verify.neighbor_colors of the result."""
    if order is None:
        order = range(g.n)
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    adj = g.adj
    colors = [0] * g.n
    nbc = [0] * g.n
    for v in order:
        colors[v] = col = least_absent(nbc[v])
        bit = 1 << col
        for w in adj[v]:
            nbc[w] |= bit
    return colors, nbc


class _ColorCounts:
    """Which colors each vertex sees, for a coloring that changes only by
    `move`, `dissolve` and `delete`: nbc[v] is verify.neighbor_colors of the
    current coloring, built with the table unless the caller passes those
    masks (`nbc`, which the table then owns), and cnt[v][c] is the number of
    neighbors of v with color c (bit c of nbc[v] set iff cnt[v][c] > 0).
    The counts exist only once a single-vertex move needs them: `cnt` is
    built from the current coloring when first read, then kept up to date.
    Colors run 1..k; rows have k+1 entries, so the counts take n(k+1)
    entries: O(n + m) for a Grundy coloring, whose k is at most
    max_degree+1."""

    def __init__(self, g: Graph, colors, nbc=None):
        if len(colors) != g.n:
            raise ValueError(f"coloring covers {len(colors)} vertices, graph has {g.n}")
        self.adj = g.adj
        self.colors = colors = list(colors)
        self.k = max(colors, default=0)
        self.nbc = neighbor_colors(g, colors) if nbc is None else nbc

    @functools.cached_property
    def cnt(self) -> list[list[int]]:
        colors = self.colors
        cnt = [[0] * (self.k + 1) for _ in colors]
        for row, nbrs in zip(cnt, self.adj):
            for w in nbrs:
                row[colors[w]] += 1
        return cnt

    def move(self, v: int, new: int) -> None:
        """Recolor v to an existing color new in O(deg v)."""
        # the counts first: built after the write below, they would count v
        # at new already
        cnt, nbc = self.cnt, self.nbc
        old = self.colors[v]
        self.colors[v] = new
        keep, bit = ~(1 << old), 1 << new
        for w in self.adj[v]:
            row = cnt[w]
            row[old] -= 1
            if not row[old]:
                nbc[w] &= keep
            row[new] += 1
            nbc[w] |= bit

    def dissolve(self, j: int, moves: list) -> None:
        """Move every vertex of class j to the least color above j absent
        around it, in O(deg) each, then delete j; appends the moves.  Each
        vertex of class j must miss some color above j.  Class j is
        independent, so no vertex of it sees another's move, and bit j
        leaves every mask at the delete: without counts, a move only ORs
        its new bit into the masks; with them, it is a `move`."""
        adj, colors, nbc = self.adj, self.colors, self.nbc
        counted = "cnt" in vars(self)
        below = (2 << j) - 1
        for v in [v for v, col in enumerate(colors) if col == j]:
            new = least_absent(nbc[v] | below)
            if counted:
                self.move(v, new)
            else:
                colors[v] = new
                for w in adj[v]:
                    nbc[w] |= 1 << new
            moves.append((v, j, new))
        self.delete(j)

    def delete(self, j: int) -> None:
        """Delete the empty class j; the classes above it move down by one."""
        low = (1 << j) - 1
        self.colors[:] = [col - (col > j) for col in self.colors]
        if "cnt" in vars(self):
            for row in self.cnt:
                del row[j]
        self.nbc[:] = [mask & low | mask >> 1 & ~low for mask in self.nbc]
        self.k -= 1

    def require_proper(self, caller: str) -> None:
        if any(mask >> col & 1 for mask, col in zip(self.nbc, self.colors)):
            raise ValueError(f"{caller} requires a proper coloring")

    def require_grundy(self, caller: str) -> None:
        """Properness and the Grundy property in one pass over the masks: v
        sees every color below its own and not its own.  Only on failure is
        properness checked apart, so an improper input gets that error."""
        if any(mask & ((2 << col) - 2) != (1 << col) - 2 for mask, col in zip(self.nbc, self.colors)):
            self.require_proper(caller)
            raise ValueError(f"{caller} requires a Grundy coloring")


def _grundy_table(g: Graph, c: Coloring, caller: str) -> _ColorCounts:
    """The table of c for a stage that needs a Grundy input.  A Grundy
    coloring uses at most max_degree+1 colors, so a larger k is refused
    before the n(k+1) table is built; the stage body checks the rest."""
    if c.k > g.max_degree() + 1:
        raise ValueError(f"{caller} requires a {'Grundy' if check_proper(g, c) else 'proper'} coloring")
    return _ColorCounts(g, c.colors)


def _run(table: _ColorCounts, *bodies) -> tuple[Coloring, ReductionTrace]:
    """Run the stage bodies in order on one table; the trace holds all their
    moves and the last body's count."""
    moves = []
    for body in bodies:
        count = body(table, moves)
    return Coloring(tuple(table.colors)), ReductionTrace(moves, count)


def grundy_reduce(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Enforce the Grundy property without adding colors.

    Scans classes bottom-up; a vertex missing some lower color moves to the
    smallest such class, emptied classes are deleted and higher classes
    renamed down.  Each vertex moves at most once.  Moves only go down into
    classes already scanned, so the result is first-fit along the input's
    (color, vertex) order, and it is computed that way: in O(n + m) time and
    memory whatever the input's color values.
    """
    if not check_proper(g, c):
        raise ValueError("grundy_reduce requires a proper coloring")
    order = sorted(range(g.n), key=lambda v: (c.colors[v], v))
    out = greedy_coloring(g, order).colors
    trace = ReductionTrace(iterations=max(c.k - 1, 0))
    # the scan names each input class above class 1 one more than the top
    # color of the classes before it (at least 1: class 1 stays, even when
    # empty), and a vertex moved exactly when first-fit put it below that name
    name = last = top = 1
    for v in order:
        if c.colors[v] != last:
            last, name = c.colors[v], top + 1
        if out[v] < name:
            trace.moves.append((v, name, out[v]))
        top = max(top, out[v])
    return Coloring(out), trace


def _grundy(table: _ColorCounts, moves: list) -> None:
    """The Grundy scan of a z round, on the coloring in `table`, which it
    first checks is proper: classes bottom-up, each vertex missing a lower
    color moved to the least such one, emptied classes deleted; appends the
    moves."""
    table.require_proper("grundy_reduce")
    colors, nbc = table.colors, table.nbc
    classes = [[] for _ in range(table.k)]
    for v, col in enumerate(colors):
        classes[col - 1].append(v)
    # moves only go down into classes already scanned, so each input class
    # is scanned once, holding exactly its input vertices, and i is its
    # current color; a class that empties is deleted at once, and the next
    # class takes its color i
    i = 2
    for members in classes[1:]:
        for v in members:
            j = least_absent(nbc[v])
            if j < i:
                table.move(v, j)
                moves.append((v, i, j))
        if all(colors[v] != i for v in members):
            table.delete(i)
        else:
            i += 1


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
    return _run(_grundy_table(g, c, "cd_gcd_transform"), _cd)


def _cd(table: _ColorCounts, moves: list) -> int:
    """cd_gcd_transform's scan on the coloring in `table`, which it first
    checks is proper and Grundy; appends the moves and returns the number
    of class checks."""
    table.require_grundy("cd_gcd_transform")
    colors, nbc = table.colors, table.nbc
    iterations = 0
    while table.k > 2:
        k = table.k
        first = cd_witnesses(colors, cd_flags(colors, nbc, k))
        j = next((j for j in range(k - 2, 0, -1) if j not in first), None)
        if j is None:
            return iterations + k - 2
        iterations += k - 1 - j
        # every vertex of class j misses a color above j: it is not CD, and
        # the Grundy property covers all lower classes
        table.dissolve(j, moves)
    return iterations


def z_transform(g: Graph, c: Coloring) -> tuple[Coloring, ReductionTrace]:
    """Refine a Grundy + color-dominating coloring until it has a nice vertex,
    i.e. until it is a z-coloring.

    Each round: if no top-color vertex is nice, pick the smallest-index one,
    recolor it to the least color i whose CD vertices all avoid it, push each
    of its color-i neighbors w to the least color absent around w, then re-run
    both reductions on the refined classes.  Either the class count or the top
    class shrinks every round, so rounds are bounded by n.
    """
    return _run(_grundy_table(g, c, "z_transform"), _z)


def _z(table: _ColorCounts, moves: list) -> int:
    """z_transform's rounds on the coloring in `table`, which it first checks
    is proper, Grundy and CD; appends the moves and returns the number of
    rounds."""
    table.require_grundy("z_transform")
    adj, colors, nbc = table.adj, table.colors, table.nbc
    rounds = 0
    t = table.k
    cd = cd_flags(colors, nbc, t)
    if len(cd_witnesses(colors, cd)) < t:
        raise ValueError("z_transform requires a color-dominating coloring")
    # every top vertex of a Grundy coloring is CD, so a nice vertex is
    # exactly the center of a dominating star
    while t > 1 and star_from(adj, colors, cd, t) is None:
        u = colors.index(t)
        i_u = least_absent(colors_seen([w for w in adj[u] if cd[w]], colors))
        recolored = [(u, t, i_u)]
        for w in adj[u]:
            if colors[w] != i_u:
                continue
            j_w = least_absent(nbc[w] | 1 << i_u)
            assert i_u < j_w < t
            recolored.append((w, i_u, j_w))
        for v, _old, new in recolored:
            table.move(v, new)
        moves.extend(recolored)
        _grundy(table, moves)
        _cd(table, moves)
        rounds += 1
        if rounds > 4 * len(colors) + 4:
            raise RuntimeError("z_transform failed to converge")
        t = table.k
        cd = cd_flags(colors, nbc, t)
    return rounds


def z_heuristic(g: Graph, seed_order=None) -> tuple[Coloring, ReductionTrace]:
    """Full pipeline from scratch: greedy over `seed_order`, then the
    color-dominating and z refinements; the greedy coloring is Grundy, so
    the Grundy stage would move nothing.  Output passes check_z and uses at
    most max_degree+1 colors.

    The result and trace are those of cd_gcd_transform then z_transform on
    greedy_coloring(g, seed_order), computed on one table: first-fit builds
    the masks as it colors, and `_cd` then `_z` run on them, each checking
    its own input on those masks with its public stage's ValueError."""
    return _run(_ColorCounts(g, *_first_fit(g, seed_order)), _cd, _z)


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
