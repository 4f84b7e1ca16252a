"""Deterministic constructors for the named graph families used throughout:
the gap families H_t / F_t / G_t, the extremal z-trees R_k, the Grundy tree
atoms T_k, bipartite-minus-matching graphs, leaf attachment, and the order
sequence a_k of the extremal trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, Coloring, Graph


@dataclass(frozen=True)
class FamilySpec:
    """A family selector: constructor name plus its integer parameter.
    Validity ranges are enforced by the constructors themselves."""

    name: str
    parameter: int

    def build(self):
        constructors = {
            "Ht": gen_Ht,
            "Ft": gen_Ft,
            "Gt": gen_Gt,
            "Rk": gen_Rk,
            "Tk": gen_Tk,
            "KttMinusMatching": gen_Ktt_minus_matching,
        }
        if self.name not in constructors:
            raise ValueError(f"unknown family {self.name!r}")
        return constructors[self.name](self.parameter)


def gen_Ht(t: int) -> Graph:
    """K_{t,t} minus a (t-1)-matching.

    Sides are a_1..a_t = 0..t-1 and b_1..b_t = t..2t-1; the edges a_i b_i for
    i = 1..t-1 are removed, so a_t and b_t keep full degree t.  Grundy number
    t+1, b-chromatic number 2 (for t >= 3).
    """
    if t < 2:
        raise ValueError("gen_Ht requires t >= 2")
    return gen_Ktt_minus_matching(t, t - 1)


def ft_layout(t: int) -> dict:
    """Vertex index layout of gen_Ft: the path, then the leaf blocks."""
    if t < 3:
        raise ValueError("gen_Ft requires t >= 3")
    path = list(range(t))
    nxt = t
    leaves = {}
    leaves[0] = list(range(nxt, nxt + t - 2))
    nxt += t - 2
    leaves[t - 1] = list(range(nxt, nxt + t - 2))
    nxt += t - 2
    for i in range(1, t - 1):
        leaves[i] = list(range(nxt, nxt + t - 3))
        nxt += t - 3
    return {"path": path, "leaves": leaves, "n": nxt}


def gen_Ft(t: int) -> Graph:
    """Path v_1..v_t with t-2 extra leaves on each endpoint and t-3 on each
    internal vertex; all leaves distinct.  Max degree t-1 and b-number t."""
    lay = ft_layout(t)
    edges = [(i, i + 1) for i in range(t - 1)]
    for v, leafs in lay["leaves"].items():
        edges.extend((v, leaf) for leaf in leafs)
    return Graph.from_edges(lay["n"], edges)


def gt_layout(t: int) -> dict:
    """Vertex index layout of gen_Gt: H_t block, F_t block, then the bridge w."""
    if t < 3:
        raise ValueError("gen_Gt requires t >= 3")
    ft = ft_layout(t)
    offset = 2 * t
    return {
        "ht_a": list(range(t)),
        "ht_b": list(range(t, 2 * t)),
        "ft_offset": offset,
        "ft_path": [offset + v for v in ft["path"]],
        "ft_leaves": {offset + v: [offset + x for x in leafs] for v, leafs in ft["leaves"].items()},
        "w": offset + ft["n"],
        "n": offset + ft["n"] + 1,
    }


def gen_Gt(t: int) -> Graph:
    """Disjoint H_t and F_t joined by a degree-2 bridge vertex w adjacent to
    the full-degree vertex a_t of H_t and to the path end v_1 of F_t.  The
    result is connected and bipartite, hence triangle-free."""
    lay = gt_layout(t)
    ht = gen_Ht(t)
    ft = gen_Ft(t)
    offset = lay["ft_offset"]
    edges = ht.edges()
    edges.extend((offset + u, offset + v) for u, v in ft.edges())
    edges.append((t - 1, lay["w"]))
    edges.append((offset, lay["w"]))
    return Graph.from_edges(lay["n"], edges)


def gen_Rk(k: int) -> ColoredGraph:
    """The minimum-order tree with z-number k, with its canonic coloring.

    Root u_k (color k) has children u_1..u_{k-1} (u_j of color j); every u_j
    gets fresh children covering all colors in 1..k-1 other than j; below
    that, Grundy closure: a vertex of color c whose parent has color p gets
    fresh children of every color in 1..c-1 except p.  Children are created
    in ascending color order, so the labeling is canonical.  The order is
    a_k = (k-3)*2^(k-1) + k + 2 and the max degree is k-1.
    """
    if k < 1:
        raise ValueError("gen_Rk requires k >= 1")
    colors = [k]
    edges = []
    star = []

    def add_children(vertex: int, vertex_color: int, child_colors: list[int]) -> None:
        for cc in child_colors:
            child = len(colors)
            colors.append(cc)
            edges.append((vertex, child))
            add_children(child, cc, [c for c in range(1, cc) if c != vertex_color])

    for j in range(1, k):
        u_j = len(colors)
        colors.append(j)
        edges.append((0, u_j))
        star.append(u_j)
        add_children(u_j, j, [c for c in range(1, k) if c != j])
    g = Graph.from_edges(len(colors), edges)
    return ColoredGraph(g, Coloring(tuple(colors)), tuple(star) + (0,))


def gen_Tk(k: int) -> ColoredGraph:
    """The unique minimal tree with Grundy number k, order 2^(k-1).

    Built by doubling: two copies of the (k-1)-tree joined at the roots, with
    the first copy's root promoted to color k.  The attached coloring is
    Grundy with k colors; no dominating star is claimed.
    """
    if k < 1:
        raise ValueError("gen_Tk requires k >= 1")
    colors = [1]
    edges: list[tuple[int, int]] = []
    for level in range(2, k + 1):
        half = len(colors)
        edges = edges + [(u + half, v + half) for u, v in edges]
        colors = colors + colors[:]
        colors[0] = level
        edges.append((0, half))
    g = Graph.from_edges(len(colors), edges)
    return ColoredGraph(g, Coloring(tuple(colors)))


def gen_Ktt_minus_matching(t: int, removed: int | None = None) -> Graph:
    """K_{t,t} minus `removed` matching edges a_i b_i (default: all t, i.e.
    a perfect matching).  With removed = t this is the graph whose z-number
    equals t while one extra vertex pair drops it to 2."""
    if t < 1:
        raise ValueError("side size must be >= 1")
    if removed is None:
        removed = t
    if not 0 <= removed <= t:
        raise ValueError("removed matching size out of range")
    edges = [(i, t + j) for i in range(t) for j in range(t) if not (i == j and i < removed)]
    return Graph.from_edges(2 * t, edges)


def attach_leaves(g: Graph) -> Graph:
    """Attach one fresh leaf to every vertex; vertex v gets leaf n + v."""
    edges = g.edges() + [(v, g.n + v) for v in range(g.n)]
    return Graph.from_edges(2 * g.n, edges)


def a_sequence(k_max: int) -> list[int]:
    """Orders a_1..a_{k_max} of the extremal trees, by the closed form
    a_k = (k-3)*2^(k-1) + k + 2, checked against the recurrence
    a_k = 2*a_{k-1} + 2^(k-1) - k at every index."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    seq = [(k - 3) * 2 ** (k - 1) + k + 2 for k in range(1, k_max + 1)]
    recur = [1]
    for k in range(2, k_max + 1):
        recur.append(2 * recur[-1] + 2 ** (k - 1) - k)
    if seq != recur:
        raise AssertionError("closed form disagrees with the recurrence")
    return seq
