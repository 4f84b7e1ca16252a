"""Canonical certificates for vertex-colored graphs.

Colors are fixed labels, never permuted: two colored graphs get equal
certificates exactly when some graph isomorphism maps every vertex to a
vertex of the same color.  Used to deduplicate atom catalogs.

The certificate comes from iterative partition refinement seeded with the
color classes, in color order; degree enters at the first refinement round,
whose signatures count each vertex's neighbours per cell.  When refinement
stalls it branches on the first non-singleton cell, on one vertex of each
twin class there: vertices with equal open or equal closed neighbourhoods.
Swapping two such vertices is a colour-preserving automorphism that fixes
the partition, so their subtrees have the same leaf certificates, and an
edgeless or complete graph takes one branch per level.  Worst case
exponential, fine for atom-sized graphs.
"""

from __future__ import annotations

from .graphs import ColoredGraph, Coloring, Graph


def _refine(nbrs: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition; order of cells is preserved,
    sub-cells are inserted at their parent position sorted by signature.  A
    vertex's signature counts its neighbours in each cell, in cell order,
    read off its adjacency list through each vertex's cell index."""
    n = len(nbrs)
    while True:
        cell_of = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        width = len(cells)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * width
                for w in nbrs[v]:
                    counts[cell_of[w]] += 1
                groups.setdefault(tuple(counts), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _encode(n: int, colors, perm: list[int], adj: list[int]) -> bytes:
    bits = 0
    idx = 0
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            if ai >> perm[j] & 1:
                bits |= 1 << idx
            idx += 1
    color_part = ",".join(str(colors[v]) for v in perm)
    return f"{n}|{color_part}|{bits:x}".encode()


def canonical_certificate(g: Graph, c: Coloring) -> bytes:
    """Canonical byte certificate of (g, c) under color-preserving isomorphism."""
    n = g.n
    if n == 0:
        return b"0||0"
    if c.n != n:
        raise ValueError("coloring size does not match graph")
    adj = g.adjacency_masks()
    colors = c.colors
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    initial = [by_color[col] for col in sorted(by_color)]

    # depth-first over the branching on an explicit stack; the certificate
    # is the least over the leaves, so the visiting order does not matter
    best: bytes | None = None
    stack = [initial]
    while stack:
        cells = _refine(g.adj, stack.pop())
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            cert = _encode(n, colors, [v for cell in cells for v in cell], adj)
            if best is None or cert < best:
                best = cert
            continue
        cell = cells[target]
        twins = set()
        for v in cell:
            # open twins share adj[v], closed twins adj[v] | 1 << v; an open
            # mask never equals a closed one, which would need a self-loop
            if adj[v] in twins or adj[v] | 1 << v in twins:
                continue
            twins.update((adj[v], adj[v] | 1 << v))
            rest = [u for u in cell if u != v]
            stack.append(cells[:target] + [[v], rest] + cells[target + 1:])
    assert best is not None
    return best


def colored_canonical_form(cg: ColoredGraph) -> bytes:
    """Certificate of a colored graph; the dominating star does not participate."""
    return canonical_certificate(cg.graph, cg.coloring)


def is_colored_isomorphic(a: ColoredGraph, b: ColoredGraph) -> bool:
    """True iff a and b are isomorphic by a color-preserving vertex bijection."""
    if a.graph.n != b.graph.n or a.graph.m != b.graph.m:
        return False
    if sorted(a.coloring.colors) != sorted(b.coloring.colors):
        return False
    return colored_canonical_form(a) == colored_canonical_form(b)
