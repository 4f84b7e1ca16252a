"""Core data model: simple undirected graphs, colorings, and their file formats.

Vertices are dense integers 0..n-1; DIMACS 1-indexing is converted at the
parsing boundary.  Colors are 1-based everywhere, so a coloring with k colors
uses the classes 1..k.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimacsError(ValueError):
    """Malformed DIMACS input; the message names the offending line."""


class RecordError(ValueError):
    """Malformed coloring/atom record."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted, duplicate-free adjacency lists.

    Invariants: no self-loops, u in adj[v] iff v in adj[u], neighbor lists
    sorted ascending.  Build through ``from_edges`` to get them for free.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Duplicate edges (in either orientation) collapse; self-loops and
        out-of-range endpoints raise ValueError.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def adjacency_masks(self) -> list[int]:
        """Neighborhoods as bitmasks; handy for the exact searches."""
        return [sum(1 << w for w in nbrs) for nbrs in self.adj]

    def drop_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u},{v})")
        return Graph.from_edges(self.n, [e for e in self.edges() if e != (min(u, v), max(u, v))])

    def with_vertex(self, neighbors) -> "Graph":
        """Return the graph extended by one new vertex (index n) adjacent to `neighbors`."""
        extra = [(self.n, w) for w in neighbors]
        return Graph.from_edges(self.n + 1, self.edges() + extra)

    def induced(self, vertices) -> "Graph":
        keep = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(keep)}
        edges = [(pos[u], pos[v]) for u, v in self.edges() if u in pos and v in pos]
        return Graph.from_edges(len(keep), edges)

    def has_triangle(self) -> bool:
        masks = self.adjacency_masks()
        for u, v in self.edges():
            if masks[u] & masks[v]:
                return True
        return False

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class Coloring:
    """Total color assignment, vertex index -> color in 1..k.

    ``k`` is the maximum color in use.  A coloring is *normalized* when every
    color 1..k actually appears; the reduction algorithms renumber classes so
    their outputs are always normalized, but inputs need not be.
    """

    colors: tuple[int, ...]

    def __post_init__(self):
        if any((not isinstance(c, int)) or c < 1 for c in self.colors):
            raise ValueError("colors must be integers >= 1")

    @classmethod
    def from_iterable(cls, colors) -> "Coloring":
        return cls(tuple(colors))

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def k(self) -> int:
        return max(self.colors, default=0)

    def classes(self) -> list[list[int]]:
        """Class lists indexed 0..k-1 (class j at index j-1), vertices ascending."""
        out = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            out[c - 1].append(v)
        return out

    def is_normalized(self) -> bool:
        used = set(self.colors)
        return used == set(range(1, self.k + 1)) or not self.colors

    def normalize(self) -> "Coloring":
        """Compact unused colors away, shifting higher classes down."""
        used = sorted(set(self.colors))
        remap = {c: i + 1 for i, c in enumerate(used)}
        return Coloring(tuple(remap[c] for c in self.colors))


@dataclass(frozen=True)
class ColoredGraph:
    """A graph with an attached coloring and optional dominating star witness.

    The star is a tuple (u_1, ..., u_k): u_j has color j, each u_j is
    color-dominating, and u_k is adjacent to every other u_j.
    """

    graph: Graph
    coloring: Coloring
    dominating_star: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# DIMACS .col format


def parse_dimacs(text) -> Graph:
    """Parse DIMACS .col text ("c" comments, "p edge n m", "e u v" 1-indexed)."""
    return read_dimacs(text)[0]


def read_dimacs(text) -> tuple[Graph, list[str]]:
    """Like parse_dimacs but also returns the comment lines encountered."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    n = None
    edges = []
    comments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            comments.append(line[1:].strip())
        elif parts[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}") from None
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: vertex index out of range in {line!r}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop edge {line!r}")
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise DimacsError("missing problem line")
    return Graph.from_edges(n, edges), comments


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS; comments are dropped, edges sorted, 1-indexed."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Coloring record format (key-value lines, fixed field order, byte-stable)


def serialize_coloring(g: Graph, c: Coloring, star: tuple[int, ...] | None = None) -> str:
    """Deterministic textual record of a coloring over its graph.

    Field order is fixed: n, edges, k, colors, one "class j ..." line per
    color class in color order, then the dominating star when attached.
    Round-trips through parse_coloring_record.
    """
    if c.n != g.n:
        raise ValueError("coloring size does not match graph")
    lines = [f"n {g.n}"]
    lines.append(("edges " + " ".join(f"{u}-{v}" for u, v in g.edges())).rstrip())
    lines.append(f"k {c.k}")
    lines.append(("colors " + " ".join(str(x) for x in c.colors)).rstrip())
    for j, cls in enumerate(c.classes(), start=1):
        lines.append(f"class {j} " + " ".join(str(v) for v in cls))
    if star is not None:
        lines.append("star " + " ".join(str(v) for v in star))
    return "\n".join(lines) + "\n"


def serialize_colored_graph(cg: ColoredGraph) -> str:
    return serialize_coloring(cg.graph, cg.coloring, cg.dominating_star)


def parse_coloring_record(text: str) -> ColoredGraph:
    """Parse a record produced by serialize_coloring."""
    fields = {}
    classes = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "class":
            parts = rest.split()
            if not parts:
                raise RecordError(f"line {lineno}: malformed class line")
            classes[int(parts[0])] = [int(x) for x in parts[1:]]
        elif key in ("n", "edges", "k", "colors", "star"):
            if key in fields:
                raise RecordError(f"line {lineno}: duplicate field {key!r}")
            fields[key] = rest
            if key == "star":
                star_line = lineno
        else:
            raise RecordError(f"line {lineno}: unrecognized field {key!r}")
    for required in ("n", "k", "colors"):
        if required not in fields:
            raise RecordError(f"missing field {required!r}")
    n = int(fields["n"])
    edges = []
    for item in fields.get("edges", "").split():
        u, _, v = item.partition("-")
        edges.append((int(u), int(v)))
    g = Graph.from_edges(n, edges)
    colors = tuple(int(x) for x in fields["colors"].split())
    if len(colors) != n:
        raise RecordError("colors length does not match n")
    c = Coloring(colors)
    if c.k != int(fields["k"]):
        raise RecordError("k does not match colors")
    for j, cls in classes.items():
        if cls != [v for v in range(n) if colors[v] == j]:
            raise RecordError(f"class {j} inconsistent with colors")
    star = None
    if "star" in fields:
        star = tuple(int(x) for x in fields["star"].split())
        if any(not 0 <= u < n for u in star):
            raise RecordError(f"line {star_line}: star index out of range 0..{n - 1}")
    return ColoredGraph(g, c, star)
