"""z-atom catalogs, colored-subgraph embedding, and the upper-bound prover.

An atom with z-number t is an edge-minimal colored graph whose embedding in a
host graph is necessary for the host to have z-number >= t.  Atoms are built
in two phases from a colored star on t vertices: Phase I gives each lower
star leaf its higher colors; Phase II "grundifies" each color class top-down,
supplying the missing lower colors.  Both phases branch through one lazy
enumerator: a vertex missing color i is wired to an existing color-i vertex
or shares a fresh color-i leaf with a block of such vertices.  Each stage's
candidates are filtered and deduplicated once, keeping the first
representative per color-preserving isomorphism class, and the catalog drops
members that are not edge-minimal with respect to z-number.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .canon import colored_canonical_form
from .graphs import (RECORD_PATTERN, ColoredGraph, Coloring, Graph, parse_matched_record, parse_record_lines,
                     serialize_colored_graph)
from .oracle import star_degree_bound, z_reaches
from .verify import Verdict, Violation, check_z, neighbor_colors, verify_star

# largest t that phase1_generate and generate_atoms accept; the triangle-free
# t=5 construction already faces ~1.4e9 raw grundify candidates at stage 3
MAX_T = 4


@dataclass(frozen=True)
class Atom:
    """A colored graph with its canonic z-coloring, dominating star, and the
    construction parameters that produced it."""

    cg: ColoredGraph
    provenance: str = ""


@dataclass
class AtomCatalog:
    t: int
    atoms: list[Atom] = field(default_factory=list)
    triangle_free: bool = False


@dataclass(frozen=True)
class Embedding:
    """Injective map, atom vertex i -> target vertex mapping[i], preserving
    edges and sending equal-colored atom vertices to non-adjacent targets."""

    mapping: tuple[int, ...]


def _set_partitions(items: list[int]):
    """All partitions of `items` into unordered non-empty blocks, emitted
    deterministically with blocks sorted by minimum element."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [sorted([first] + part[i])] + part[i + 1:]
        yield [[first]] + part


def _by_certificate(pairs) -> dict[bytes, tuple[ColoredGraph, str]]:
    """The first (colored graph, provenance) pair of each color-preserving
    isomorphism class, keyed by its canonical certificate, in input order."""
    seen = {}
    for cg, prov in pairs:
        cert = colored_canonical_form(cg)
        if cert not in seen:
            seen[cert] = (cg, prov)
    return seen


def _dedup(pairs) -> list[tuple[ColoredGraph, str]]:
    """The pairs `_by_certificate` keeps, in input order."""
    return list(_by_certificate(pairs).values())


# ---------------------------------------------------------------------------
# Supplying missing colors, shared by Phase I and grundify


def _supply(g: Graph, colors, needs):
    """Lazily yield (ColoredGraph, choice) for every way of supplying the
    missing colors of `needs`, a list of (color, needy vertices, existing
    targets).  For each color a subset of the needy vertices is wired to the
    targets (any target for each) and the rest is split into blocks that
    each share one fresh leaf of that color, numbered in choice order.  The
    choice lists (color, wired pairs, blocks) per need; the order is that of
    itertools.product over the needs, with subsets by size, then targets,
    then partitions.  With no needs the input comes back unchanged."""
    if not needs:
        yield ColoredGraph(g, Coloring(tuple(colors))), ()
        return
    (color, needy, targets), rest = needs[0], needs[1:]
    base, n = g.edges(), len(colors)
    for r in range(len(needy) + 1):
        for wired in itertools.combinations(needy, r):
            left = [v for v in needy if v not in wired]
            for ends in itertools.product(targets, repeat=r):
                pairs = list(zip(wired, ends))
                for blocks in _set_partitions(left):
                    leaves = [(v, n + b) for b, block in enumerate(blocks) for v in block]
                    grown = Graph.from_edges(n + len(blocks), base + pairs + leaves)
                    for cg, tail in _supply(grown, [*colors, *[color] * len(blocks)], rest):
                        yield cg, ((color, pairs, blocks),) + tail


# ---------------------------------------------------------------------------
# Phase I


def _phase1_with_prov(t: int):
    """Raw Phase I candidates with provenance, before dedup.  The star has
    leaf u_p = vertex p-1 of color p and center t of color t+1; each leaf
    u_p, p < j, gets its color-j neighbor from u_j or a fresh leaf."""
    star = Graph.from_edges(t + 1, [(i, t) for i in range(t)])
    needs = [(j, list(range(j - 1)), [j - 1]) for j in range(2, t + 1)]
    for cg, choice in _supply(star, range(1, t + 2), needs):
        yield cg, "; ".join(
            f"f{j}:u<-{[v + 1 for v, _ in wired]} w<-{[[v + 1 for v in b] for b in blocks]}"
            for j, wired, blocks in choice
        )


def phase1_generate(t: int) -> list[ColoredGraph]:
    """All edge-minimal colored graphs extending the star on colors 1..t+1 so
    that each leaf u_p has neighbors of every color above p (condition on
    which the atom construction rests), deduplicated up to color-preserving
    isomorphism.  Each leaf gets exactly one neighbor of each color above
    its own, so every candidate is edge-minimal for that condition."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > MAX_T:
        raise ValueError(f"t={t} exceeds the configured maximum {MAX_T}")
    return [cg for cg, _ in _dedup(_phase1_with_prov(t))]


# ---------------------------------------------------------------------------
# Phase II: the grundify operation


def _grundify_with_prov(cg: ColoredGraph, k: int):
    """Raw grundify candidates of class k with provenance, lazily and before
    dedup; the range check runs at the call."""
    g, c = cg.graph, cg.coloring
    if not 2 <= k < c.k:
        raise ValueError(f"grundify class {k} out of range 2..{c.k - 1}")
    classes = c.classes()
    nbc = neighbor_colors(g, c.colors)
    needs = []
    for i in range(1, k):
        needy = [v for v in classes[k - 1] if not nbc[v] >> i & 1]
        if needy:
            needs.append((i, needy, classes[i - 1]))
    return (
        (out, " ".join(f"i{i}:S{wired} w<-{blocks}" for i, wired, blocks in choice))
        for out, choice in _supply(g, c.colors, needs)
    )


def grundify(cg: ColoredGraph, k: int) -> list[ColoredGraph]:
    """All minimal supergraphs of cg (same colors on old vertices, fresh
    vertices only in classes below k) in which class k is a Grundy class.

    A vertex of class k missing color i either gets wired to an existing
    color-i vertex or to a fresh color-i leaf shared by a block of such
    vertices; every combination over the missing colors is emitted, one per
    color-preserving isomorphism class.  If class k is already Grundy the
    input comes back unchanged.
    """
    return [out for out, _ in _dedup(_grundify_with_prov(cg, k))]


# ---------------------------------------------------------------------------
# Catalog generation


def _edge_minimal_z(g: Graph, t: int, memo: dict) -> bool:
    """Whether no G - e reaches z-number t.  The edges are tried last built
    first: an edge the last grundify stage added is the likeliest to be
    redundant, so a candidate that is not minimal is usually rejected after
    fewer probes.  `memo` maps (adjacency of G - e, t) to the answer, so a
    labelled graph that an earlier candidate already produced is not
    decided again."""
    for u, v in reversed(g.edges()):
        dropped = g.drop_edge(u, v)
        key = (dropped.adj, t)
        reaches = memo.get(key)
        if reaches is None:
            reaches = memo[key] = z_reaches(dropped, t)
        if reaches:
            return False
    return True


def generate_atoms(
    t: int,
    triangle_free: bool = False,
    *,
    allow_large: bool = False,
) -> AtomCatalog:
    """Generate the atom catalog for z-number t.

    Pipeline: Phase I for t-1, then grundify classes t-1 down to 2 composing
    over families, then keep exactly the members whose canonic coloring is a
    z-coloring with t colors and that are edge-minimal with respect to
    z-number.  Each stage's raw candidates pass the triangle-free filter
    (sound per stage since later stages only add edges) and are deduplicated
    once.  The atoms are listed in the order of their canonical
    certificates, the ones the last stage's dedup computed.  The unfiltered
    t=4 catalog is large and gated behind allow_large.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > MAX_T:
        raise ValueError(f"t={t} exceeds the configured maximum {MAX_T}")
    if t >= 4 and not triangle_free and not allow_large:
        raise ValueError("unfiltered catalogs for t >= 4 are gated behind allow_large")

    def stage(pairs):
        return _by_certificate((cg, p) for cg, p in pairs if not (triangle_free and cg.graph.has_triangle()))

    family = stage(_phase1_with_prov(t - 1))
    for k in range(t - 1, 1, -1):
        family = stage(
            (out, f"{prov} | G{k} {extra}" if extra else prov)
            for cg, prov in family.values()
            for out, extra in _grundify_with_prov(cg, k)
        )

    star = tuple(range(t))
    kept, memo = [], {}
    for cert, (cg, prov) in family.items():
        candidate = ColoredGraph(cg.graph, cg.coloring, star)
        if cg.coloring.k != t or not check_z(cg.graph, cg.coloring).passed:
            raise AssertionError("constructed atom candidate is not a z-coloring")
        if not verify_star(cg.graph, cg.coloring, star):
            raise AssertionError("star vertices lost their dominating property")
        if not _edge_minimal_z(cg.graph, t, memo):
            continue
        kept.append((cert, Atom(candidate, prov)))
    kept.sort(key=lambda pair: pair[0])
    return AtomCatalog(t, [atom for _, atom in kept], triangle_free)


# ---------------------------------------------------------------------------
# Embedding and the bound prover


def embedding_valid(atom: ColoredGraph, target: Graph, mapping) -> bool:
    """Independent check of both embedding conditions for a claimed map."""
    h, c = atom.graph, atom.coloring
    if len(mapping) != h.n or len(set(mapping)) != h.n:
        return False
    for u, v in h.edges():
        if not target.has_edge(mapping[u], mapping[v]):
            return False
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if c.colors[u] == c.colors[v] and target.has_edge(mapping[u], mapping[v]):
                return False
    return True


# embed searches on bitmasks unless they would take more than this many
# bits (8 MiB, n of about 8 000).  Below it the bitmask search is the faster
# one: one AND filters a level's candidates, where the list search draws and
# tests each.  Over the atoms of d4_full on sparse G(n, c/n), the list
# search took 1-3.4x as long (median 2.2x) at n <= 4 000, as long at
# n = 8 000 and less above, as each AND grows with n (BENCH_29.json,
# "mask_crossover").
MASK_LIMIT_BITS = 1 << 26


def search_masks(g: Graph) -> tuple[list[int], list[int]] | None:
    """The bitmasks embed searches g on: each vertex's neighborhood, and
    deg_ok[d], the vertices of degree >= d, for d = 0..max degree + 1.  None
    when their n bits per vertex and per degree would exceed
    MASK_LIMIT_BITS; embed then searches g on its adjacency lists, in
    O(n + m) memory."""
    n, top = g.n, g.max_degree() + 1
    if n * (n + top + 1) > MASK_LIMIT_BITS:
        return None
    deg_ok = [0] * (top + 1)
    for u, nbrs in enumerate(g.adj):
        deg_ok[len(nbrs)] |= 1 << u
    for d in range(top - 1, -1, -1):
        deg_ok[d] |= deg_ok[d + 1]
    return g.adjacency_masks(), deg_ok


def embed(atom: ColoredGraph, target: Graph) -> Embedding | None:
    """Complete backtracking search for an embedding of the colored atom into
    the (uncolored) target; None when none exists.

    Atom vertices are placed in a fixed order, each next to an already placed
    neighbor, its anchor, where one exists.  A candidate for a level must be
    free, of degree at least the atom vertex's, adjacent to the images of
    the placed neighbors and non-adjacent to the images of the placed
    same-colored vertices.  On the masks of search_masks a level's
    candidates are one bitmask of those conditions.  On a target too large
    for them, a level with an anchor draws its candidates from the adjacency
    list of the anchor's image and a level without one (the first, and the
    first of each further atom component) from all target vertices, and
    each draw is tested; this reads only the target's adjacency lists, so
    the search needs O(n + m) memory.  Either way the candidates are tried
    in ascending order, so the first embedding found is the
    lexicographically first in that vertex order, and the two searches find
    the same one.

    The degree test cuts nothing that embeds: the map is injective and keeps
    edges, so each image has at least its atom vertex's degree.  By the same
    argument an atom vertex of degree >= k-1 with k-1 neighbors of degree
    >= k-1 maps onto such a target vertex, so an atom whose
    star_degree_bound exceeds the target's has no embedding.  The search
    keeps each entered level's untried candidates in a list instead of
    recursing, so a call leaves no reference cycle behind.
    """
    return _embed(atom, target, search_masks(target))


def _embed(atom: ColoredGraph, target: Graph, masks) -> Embedding | None:
    """embed on `masks`, what search_masks(target) returns, which the prover
    computes once for all the atoms it searches on one target."""
    nh = atom.graph.n
    if nh > target.n:
        return None
    if nh == 0:
        return Embedding(())
    levels = _levels(atom)
    if masks is None:
        mapping = _search_lists(levels, target)
    else:
        mapping = _search_masks(levels, target.n, *masks)
    if mapping is None:
        return None
    if not embedding_valid(atom, target, mapping):
        raise AssertionError("embedding search returned an invalid map")
    return Embedding(tuple(mapping))


def _levels(atom: ColoredGraph) -> list[tuple[int, int, list[int], list[int]]]:
    """embed's search levels, in placing order: each next vertex is the first
    unplaced one by (-degree, index) that has a placed neighbor, or the
    first unplaced one when none has; its level holds the vertex, its
    degree, its placed neighbors (the first is the anchor) and its placed
    same-colored vertices."""
    hadj, colors = atom.graph.adj, atom.coloring.colors
    nh = len(hadj)
    rest = sorted(range(nh), key=lambda x: -len(hadj[x]))
    near = [False] * nh
    placed = [False] * nh
    by_color: dict[int, list[int]] = {}
    levels = []
    while rest:
        for v in rest:
            if near[v]:
                break
        else:
            v = rest[0]
        rest.remove(v)
        nbrs = [w for w in hadj[v] if placed[w]]
        same = by_color.setdefault(colors[v], [])
        levels.append((v, len(hadj[v]), nbrs, same[:]))
        same.append(v)
        placed[v] = True
        for w in hadj[v]:
            near[w] = True
    return levels


def _search_masks(levels, nt: int, adj: list[int], deg_ok: list[int]) -> list[int] | None:
    """embed's search on bitmasks: each level's candidates are one mask, whose
    bits are tried in ascending order."""
    top = len(deg_ok) - 1
    levels = [(v, deg_ok[min(d, top)], nbrs, same) for v, d, nbrs, same in levels]
    mapping = [-1] * len(levels)
    untried = [0] * len(levels)
    free = (1 << nt) - 1
    i = 0
    while True:
        v, pool, nbrs, same = levels[i]
        pool &= free
        for w in nbrs:
            pool &= adj[mapping[w]]
        for w in same:
            pool &= ~adj[mapping[w]]
        while not pool:  # backtrack to the deepest level with a candidate left
            i -= 1
            if i < 0:
                return None
            v = levels[i][0]
            free |= 1 << mapping[v]
            pool = untried[i]
        low = pool & -pool
        untried[i] = pool ^ low
        mapping[v] = low.bit_length() - 1
        if i + 1 == len(levels):
            return mapping
        free ^= low
        i += 1


def _search_lists(levels, target: Graph) -> list[int] | None:
    """embed's search on adjacency lists: each level draws its candidates in
    ascending order from the anchor image's list, or from all target
    vertices, and tests each draw."""
    tadj = target.adj
    mapping = [-1] * len(levels)
    used: set[int] = set()
    untried: list = [None] * len(levels)  # per entered level, its candidate iterator
    avoid: list = [None] * len(levels)  # per entered level, the images its candidates must not touch
    i = 0
    while True:
        v, d, nbrs, same = levels[i]
        if untried[i] is None:  # entering level i: the placed images are fixed until it is left
            pool = tadj[mapping[nbrs[0]]] if nbrs else range(target.n)
            if len(nbrs) > 1:
                pool = sorted(set(pool).intersection(*[tadj[mapping[w]] for w in nbrs[1:]]))
            # used holds the placed images whenever this level draws a candidate
            untried[i] = itertools.filterfalse(used.__contains__, pool)
            avoid[i] = {mapping[w] for w in same} if same else None
        shun = avoid[i]
        for x in untried[i]:
            nx = tadj[x]
            if len(nx) >= d and (shun is None or shun.isdisjoint(nx)):
                break
        else:  # backtrack to the deepest level with a candidate left
            untried[i] = None
            i -= 1
            if i < 0:
                return None
            used.discard(mapping[levels[i][0]])
            continue
        mapping[v] = x
        if i + 1 == len(levels):
            return mapping
        used.add(x)
        i += 1


def cycle_rank_and_bipartite(g: Graph) -> tuple[int, bool]:
    """The largest cycle rank m_C - n_C + 1 over the components C of g (0 when
    g is a forest or empty) and whether g is bipartite, in one O(n + m)
    traversal that 2-colors each component from its smallest vertex."""
    side = [-1] * g.n
    rank, bipartite = 0, True
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        n_c = ends = 0
        while stack:
            u = stack.pop()
            s, nbrs = side[u], g.adj[u]
            n_c += 1
            ends += len(nbrs)
            for w in nbrs:
                if side[w] < 0:
                    side[w] = s ^ 1
                    stack.append(w)
                elif side[w] == s:
                    bipartite = False
        rank = max(rank, ends // 2 - n_c + 1)
    return rank, bipartite


def refuted_by_cycles(atom: Graph, host: tuple[int, bool]) -> bool:
    """Whether `host`, the cycle_rank_and_bipartite facts of a host graph,
    rules out every embedding of `atom`: the atom has a component of larger
    cycle rank than any host component, or an odd cycle in a bipartite host.

    Sound because an embedding is injective and keeps edges: it maps each
    atom component onto a subgraph of one host component, whose cycle space
    is a subspace of that component's, so its rank is no larger; and it
    maps an odd cycle onto an odd cycle.
    """
    rank, bipartite = cycle_rank_and_bipartite(atom)
    return rank > host[0] or (host[1] and not bipartite)


def prove_upper_bound(g: Graph, t: int, catalog: AtomCatalog) -> Verdict:
    """Try to certify z(g) <= t-1: if no catalog atom embeds in g the bound
    holds; if some atom embeds the result is inconclusive (embedding alone
    never certifies z(g) >= t), and the verdict carries the embedding.

    The atoms are tried in catalog order.  An atom is passed over without a
    search when g's star degree bound, cycle rank or bipartiteness, each
    computed once in O(n + m), rules it out: its star_degree_bound exceeds
    g's, or refuted_by_cycles names it.  The star test is sound because an
    embedding is injective and keeps edges, so degrees only grow: the
    atom's star, a vertex of degree >= k-1 with k-1 neighbors of degree
    >= k-1, maps onto such a star of g.  Every atom of a t-catalog has a
    star on t vertices, so a host whose bound is below t searches none; a
    tree host searches only forest atoms, a bipartite one only bipartite
    atoms.  Since a skipped atom cannot embed, the verdict, the atom index
    and the embedding are those of searching every atom.  The masks of
    search_masks are built once, for the first atom searched, and only up
    to MASK_LIMIT_BITS; a larger g is searched on its adjacency lists, so
    the prover's memory is O(n + m) beyond at most that many bits.
    """
    if catalog.t != t:
        raise ValueError(f"catalog is for t={catalog.t}, asked about t={t}")
    host = cycle_rank_and_bipartite(g)
    # a bipartite host has no odd cycle, so no triangle to look for
    if catalog.triangle_free and not host[1] and g.has_triangle():
        raise ValueError("triangle-filtered catalog cannot bound a graph with a triangle")
    star = star_degree_bound(g)
    masks, searched = None, False  # the masks are built for the first atom searched
    for idx, atom in enumerate(catalog.atoms):
        if star_degree_bound(atom.cg.graph) > star or refuted_by_cycles(atom.cg.graph, host):
            continue
        if not searched:
            masks, searched = search_masks(g), True
        emb = _embed(atom.cg, g, masks)
        if emb is not None:
            return Verdict(
                False,
                [Violation("atom-embeds", vertex=emb.mapping[0], class_index=idx)],
                witness={"atom_index": idx, "embedding": emb.mapping, "inconclusive": True},
            )
    return Verdict(True, witness={"bound": t - 1})


# ---------------------------------------------------------------------------
# Catalog files


def atom_record(atom: Atom, t: int) -> str:
    return f"t {t}\n" + serialize_colored_graph(atom.cg) + f"provenance {atom.provenance}\n"


def catalog_to_text(catalog: AtomCatalog) -> str:
    header = f"zatoms t {catalog.t} triangle_free {1 if catalog.triangle_free else 0} count {len(catalog.atoms)}\n"
    return header + "".join("\n" + atom_record(a, catalog.t) for a in catalog.atoms)


def _header_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"catalog: {key} must be an integer, got {value!r}") from None


# an atom as atom_record writes it, with a provenance of printable ASCII
_ATOM = re.compile(r"t ([0-9]+)\n(" + RECORD_PATTERN + r")provenance(?: ([ -~]*[!-~]))?\n?")


def catalog_from_text(text: str) -> AtomCatalog:
    """Parse the text written by catalog_to_text; malformed input raises
    ValueError (RecordError for a bad atom record) naming the problem.

    An atom that _ATOM matches goes to parse_matched_record as the slice of
    its record, so the pattern is matched once per atom; any other goes
    through the line loop below, which passes the record's lines to
    parse_record_lines as they are.  Both see the same record lines,
    numbered alike in error messages."""
    chunks = [c for c in text.split("\n\n") if c.strip()]
    if not chunks:
        raise ValueError("empty catalog: missing 'zatoms' header")
    head = chunks[0].strip().splitlines()[0].split()
    if head[0] != "zatoms":
        raise ValueError("not a z-atom catalog")
    if len(head) != 7 or head[1::2] != ["t", "triangle_free", "count"]:
        raise ValueError(f"malformed catalog header {' '.join(head)!r}, "
                         "expected 'zatoms t T triangle_free 0|1 count N'")
    t = _header_int("t", head[2])
    triangle_free = _header_int("triangle_free", head[4])
    if triangle_free not in (0, 1):
        raise ValueError(f"catalog: triangle_free must be 0 or 1, got {triangle_free}")
    count = _header_int("count", head[6])
    atoms = []
    body = chunks[1:]
    for chunk in body:
        m = _ATOM.fullmatch(chunk)
        if m and int(m[1]) == t:
            atoms.append(Atom(parse_matched_record(m[2]), m[3] or ""))
            continue
        lines = chunk.strip().splitlines()
        rec_lines = []
        prov = ""
        for line in lines:
            if line.startswith("t "):
                if _header_int("atom t", line[2:].strip()) != t:
                    raise ValueError("atom t differs from catalog t")
            elif line.startswith("provenance"):
                prov = line.partition(" ")[2]
            else:
                rec_lines.append(line)
        cg = parse_record_lines(rec_lines)
        atoms.append(Atom(cg, prov))
    if len(atoms) != count:
        raise ValueError(f"catalog declares {count} atoms, found {len(atoms)}")
    return AtomCatalog(t, atoms, bool(triangle_free))
