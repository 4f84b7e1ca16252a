"""Core data model: simple undirected graphs, colorings, and their file formats.

Vertices are dense integers 0..n-1; DIMACS 1-indexing is converted at the
parsing boundary.  Colors are 1-based everywhere, so a coloring with k colors
uses the classes 1..k.

Both boundaries work in bulk passes.  A DIMACS body of plain "e u v" lines is
checked by one regular expression and split into tokens, and its endpoints go
through one index of the distinct vertex names, so each name is converted to
an integer once; any other body, and any body the graph would reject, goes
through a line-by-line reader, which is the error path and names the
offending line.  Adjacency is built in lists, and the coloring record is
joined from vertex names made once, one string per vertex for its edges.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass

MAX_ORDER = 1 << 20
"""Largest vertex count that a DIMACS problem line may state and the family
constructors will build (for K_{t,t} minus a matching, the edge count)."""


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
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n and u != v):
                if u == v and 0 <= u < n:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        for t in nbrs:
            t.sort()
        # sorted lists; a deduplicated tuple only where the set test finds a duplicate
        return cls(n, tuple(tuple(t) if len(set(t)) == len(t) else tuple(sorted(set(t))) for t in nbrs))

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
        """The graph without edge uv; only the two endpoints' lists change."""
        if not (0 <= u < self.n and self.has_edge(u, v)):
            raise ValueError(f"no edge ({u},{v})")
        adj = list(self.adj)
        adj[u] = tuple(w for w in adj[u] if w != v)
        adj[v] = tuple(w for w in adj[v] if w != u)
        return Graph(self.n, tuple(adj))

    def with_vertex(self, neighbors) -> "Graph":
        """Return the graph extended by one new vertex (index n) adjacent to
        `neighbors`.  Duplicates collapse; a neighbor outside 0..n-1 raises
        ValueError.  Only the neighbors' lists change, and appending n keeps
        them sorted."""
        new = sorted(set(neighbors))
        if new and not (0 <= new[0] and new[-1] < self.n):
            raise ValueError(f"neighbors must lie in 0..{self.n - 1}")
        adj = list(self.adj)
        for w in new:
            adj[w] += (self.n,)
        return Graph(self.n + 1, (*adj, tuple(new)))

    def induced(self, vertices) -> "Graph":
        keep = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(keep)}
        edges = [(pos[u], pos[v]) for u, v in self.edges() if u in pos and v in pos]
        return Graph.from_edges(len(keep), edges)

    def has_triangle(self, masks: list[int] | None = None) -> bool:
        """Whether some edge's endpoints share a neighbor; `masks` are this
        graph's adjacency_masks() when the caller has built them already."""
        if masks is None:
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


def parse_dimacs(text, check_n=None) -> Graph:
    """Parse DIMACS .col text ("c" comments, "p edge n m", "e u v" 1-indexed).

    `check_n`, if given, is called with the problem line's vertex count as
    soon as that line is read; it may raise to reject a graph too large for
    the caller before any per-vertex storage is allocated.  A count above
    MAX_ORDER is then rejected for every caller.
    """
    return read_dimacs(text, check_n)[0]


def read_dimacs(text, check_n=None) -> tuple[Graph, list[str]]:
    """Like parse_dimacs but also returns the comment lines encountered.

    The lines before the first line that starts "e " (the header: comments
    and the problem line) go through the line reader.  A body that is all
    "e u v" lines, one space apart and each but the last ending in a newline
    (trailing whitespace is ignored), is then checked by one pattern and
    converted in bulk.  Any other text, and a body whose indices are out
    of range or form a self-loop, goes through the line reader from line 1,
    which names the offending line.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    cut = text.find("\ne ") + 1  # just past a newline, so a line boundary
    n, comments, edges = _read_lines(text[:cut], check_n)
    if n is not None and not edges:
        try:
            return Graph.from_edges(n, itertools.chain.from_iterable(_edge_chunks(text, cut))), comments
        except ValueError:
            pass  # the line reader below names the line
    n, comments, edges = _read_lines(text, check_n)
    if n is None:
        raise DimacsError("missing problem line")
    return Graph.from_edges(n, edges), comments


# the last line may end at the end of the text, without a newline
_EDGE_LINES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*(?:e [0-9]+ [0-9]+)?")
_CHUNK = 1 << 13
_minus_one = (-1).__add__


def _edge_chunks(text, start):
    """The 0-indexed edges of the "e u v" lines from `start` on, up to the
    trailing whitespace: one iterator of pairs per run of lines about _CHUNK
    characters long, so the pattern's backtracking state and the tokens are
    held for one run at a time.  Raises ValueError at the first run that
    _EDGE_LINES rejects, or at a token `int` rejects.

    Endpoints go through one index of the distinct tokens seen so far, so
    `int` runs once per vertex name rather than once per endpoint.  The
    index holds only names that appear in the body; token "0" maps to -1,
    which Graph.from_edges rejects as out of range."""
    stop = len(text)
    while stop > start and text[stop - 1].isspace():
        stop -= 1
    index = {}
    while start < stop:
        end = text.find("\n", start + _CHUNK, stop) + 1 or stop
        if not _EDGE_LINES.fullmatch(text, start, end):
            raise ValueError("not a body of plain edge lines")
        tokens = text[start:end].split()
        heads, tails = tokens[1::3], tokens[2::3]
        new = set(heads).union(tails).difference(index)
        index.update(zip(new, map(_minus_one, map(int, new))))
        yield zip(map(index.__getitem__, heads), map(index.__getitem__, tails))
        del tokens, heads, tails
        start = end


def _read_lines(text, check_n):
    """The line reader: parse `text` line by line, numbered from 1, and
    return the vertex count (None without a problem line), the comment
    lines and the 0-indexed edges."""
    n = None
    comments, edges = [], []
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
            if check_n is not None:
                check_n(n)
            if n > MAX_ORDER:
                raise DimacsError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_ORDER}")
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
    return n, comments, edges


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
    names = list(map(str, range(g.n)))
    edges = ["edges"]
    for u, nbrs in enumerate(g.adj):
        # one string per vertex for the edges to its higher neighbours, so
        # each edge is named once, from its lower end: "u-v u-w ..."
        higher = nbrs[bisect_right(nbrs, u):]
        if higher:
            pre = names[u] + "-"
            edges.append(pre + (" " + pre).join(map(names.__getitem__, higher)))
    lines = [f"n {g.n}", " ".join(edges), f"k {c.k}", " ".join(["colors", *map(str, c.colors)])]
    for j, cls in enumerate(c.classes(), start=1):
        lines.append(f"class {j} " + " ".join(map(names.__getitem__, cls)))
    if star is not None:
        lines.append("star " + " ".join(map(str, star)))
    return "\n".join(lines) + "\n"


def serialize_colored_graph(cg: ColoredGraph) -> str:
    return serialize_coloring(cg.graph, cg.coloring, cg.dominating_star)


def _record_ints(items, key: str, lineno: int) -> list[int]:
    try:
        return [int(x) for x in items]
    except ValueError:
        raise RecordError(f"line {lineno}: non-integer in {key!r} field") from None


def parse_coloring_record(text: str) -> ColoredGraph:
    """Parse a record produced by serialize_coloring.  Malformed input raises
    RecordError naming the field and, where it has one, the line."""
    fields = {}  # key -> (line number, rest of the line)
    classes = {}  # color -> (line number, vertices)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "class":
            parts = _record_ints(rest.split(), "class", lineno)
            if not parts:
                raise RecordError(f"line {lineno}: malformed class line")
            if parts[0] in classes:
                raise RecordError(f"line {lineno}: duplicate class {parts[0]}")
            classes[parts[0]] = (lineno, parts[1:])
        elif key in ("n", "edges", "k", "colors", "star"):
            if key in fields:
                raise RecordError(f"line {lineno}: duplicate field {key!r}")
            fields[key] = (lineno, rest)
        else:
            raise RecordError(f"line {lineno}: unrecognized field {key!r}")
    for required in ("n", "k", "colors"):
        if required not in fields:
            raise RecordError(f"missing field {required!r}")

    def single(key: str) -> tuple[int, int]:
        lineno, rest = fields[key]
        values = _record_ints(rest.split(), key, lineno)
        if len(values) != 1:
            raise RecordError(f"line {lineno}: field {key!r} takes one integer")
        return lineno, values[0]

    n_line, n = single("n")
    if n < 0:
        raise RecordError(f"line {n_line}: negative vertex count")
    edges = []
    edges_line, edges_text = fields.get("edges", (0, ""))
    for item in edges_text.split():
        u, _, v = item.partition("-")
        edges.append(tuple(_record_ints((u, v), "edges", edges_line)))
    colors_line, colors_text = fields["colors"]
    colors = tuple(_record_ints(colors_text.split(), "colors", colors_line))
    # checked before the graph is built, so n is bounded by the text's size
    if len(colors) != n:
        raise RecordError(f"line {colors_line}: colors length does not match n")
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise RecordError(f"line {edges_line}: {exc}") from None
    try:
        c = Coloring(colors)
    except ValueError as exc:
        raise RecordError(f"line {colors_line}: {exc}") from None
    k_line, k = single("k")
    if c.k != k:
        raise RecordError(f"line {k_line}: k does not match colors")
    # grouped by one pass over colors; a dict, not Coloring.classes(), whose
    # list of k lists a huge color value would make unbounded
    members = {}
    for v, j in enumerate(colors):
        members.setdefault(j, []).append(v)
    for j, (lineno, cls) in classes.items():
        if not 1 <= j <= k:
            raise RecordError(f"line {lineno}: class {j} out of range 1..{k}")
        if cls != members.get(j, []):
            raise RecordError(f"line {lineno}: class {j} inconsistent with colors")
    star = None
    if "star" in fields:
        star_line, star_text = fields["star"]
        star = tuple(_record_ints(star_text.split(), "star", star_line))
        if any(not 0 <= u < n for u in star):
            raise RecordError(f"line {star_line}: star index out of range 0..{n - 1}")
    return ColoredGraph(g, c, star)
