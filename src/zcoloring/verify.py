"""Exact predicates for coloring properties: proper, Grundy, color-dominating,
nice vertices, and z-colorings.  Every check returns a Verdict carrying either
a witness or concrete counterexamples, so failures are actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Coloring, Graph


@dataclass(frozen=True)
class Violation:
    """One concrete reason a check failed."""

    kind: str
    vertex: int | None = None
    other: int | None = None
    color: int | None = None
    class_index: int | None = None

    def __str__(self) -> str:
        bits = [self.kind]
        if self.vertex is not None:
            bits.append(f"vertex={self.vertex}")
        if self.other is not None:
            bits.append(f"other={self.other}")
        if self.color is not None:
            bits.append(f"color={self.color}")
        if self.class_index is not None:
            bits.append(f"class={self.class_index}")
        return " ".join(bits)


@dataclass
class Verdict:
    passed: bool
    violations: list[Violation] = field(default_factory=list)
    witness: dict | None = None

    def __post_init__(self):
        if self.passed and self.violations:
            raise ValueError("a passing verdict cannot carry violations")
        if not self.passed and not self.violations:
            raise ValueError("a failing verdict needs at least one violation")

    def __bool__(self) -> bool:
        return self.passed


def _require_total(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")


def check_proper(g: Graph, c: Coloring) -> Verdict:
    """Pass iff no edge joins two vertices of the same color."""
    _require_total(g, c)
    colors = c.colors
    violations = [
        Violation("monochromatic-edge", vertex=u, other=v, color=cu)
        for u, (nbrs, cu) in enumerate(zip(g.adj, colors))
        for v in nbrs
        if colors[v] == cu and u < v
    ]
    return Verdict(not violations, violations)


def neighbor_colors(g: Graph, colors) -> list[int]:
    """Per-vertex bitmask of the colors around it: bit c of the result at v is
    set iff v has a neighbor of color c (the DSATUR saturation state)."""
    bits = [1 << col for col in colors]
    nbc = []
    for nbrs in g.adj:
        mask = 0
        for w in nbrs:
            mask |= bits[w]
        nbc.append(mask)
    return nbc


def colors_seen(nbrs, colors) -> int:
    """One vertex's entry of neighbor_colors, given its neighbors `nbrs`: for
    a coloring that changes between queries."""
    mask = 0
    for w in nbrs:
        mask |= 1 << colors[w]
    return mask


def least_absent(mask: int) -> int:
    """The smallest color c >= 1 whose bit is clear in mask."""
    mask |= 1
    return (~mask & (mask + 1)).bit_length() - 1


def cd_flags(colors, nbc, k: int) -> list[bool]:
    """Per-vertex flag: v sees every color of 1..k other than its own, i.e.
    v is color-dominating among k colors."""
    full = (1 << (k + 1)) - 2
    return [(mask | 1 << col) & full == full for col, mask in zip(colors, nbc)]


def cd_witnesses(colors, cd) -> dict[int, int]:
    """The smallest-index CD vertex of each class that has one."""
    return {colors[v]: v for v in range(len(colors) - 1, -1, -1) if cd[v]}


def star_from(adj, colors, cd, k: int) -> tuple[int, ...] | None:
    """The dominating star (u_1..u_k) with the smallest center, then the
    smallest u_j of each color, given the CD flags of a proper coloring whose
    top color is k; None if no CD vertex of color k has CD neighbors of every
    other color."""
    if k == 0:
        return ()
    for center, col in enumerate(colors):
        if col != k or not cd[center]:
            continue
        picks = {}
        for u in adj[center]:
            if cd[u]:
                picks.setdefault(colors[u], u)
        if len(picks) == k - 1:
            return tuple(picks[j] for j in range(1, k)) + (center,)
    return None


def _proper_masks(g: Graph, c: Coloring, caller: str) -> list[int]:
    if not check_proper(g, c):
        raise ValueError(f"{caller} requires a proper coloring")
    return neighbor_colors(g, c.colors)


def _grundy_verdict(colors, nbc) -> Verdict:
    violations = [
        Violation("missing-lower-color", vertex=v, color=i)
        for v, col in enumerate(colors)
        if ~nbc[v] & ((1 << col) - 2)
        for i in range(1, col)
        if not nbc[v] >> i & 1
    ]
    return Verdict(not violations, violations)


def _cd_verdict(colors, cd, k: int) -> Verdict:
    first = cd_witnesses(colors, cd)
    violations = [
        Violation("class-without-cd-vertex", class_index=j) for j in range(1, k + 1) if j not in first
    ]
    if violations:
        return Verdict(False, violations)
    return Verdict(True, witness={"cd_vertices": {j: first[j] for j in range(1, k + 1)}})


def check_grundy(g: Graph, c: Coloring) -> Verdict:
    """Pass iff every vertex of color j has, for each i < j, a neighbor of color i.

    Raises ValueError on an improper input coloring.
    """
    return _grundy_verdict(c.colors, _proper_masks(g, c, "check_grundy"))


def dominating_vertices(g: Graph, c: Coloring, class_index: int) -> list[int]:
    """Vertices of the given class adjacent to every other color in use.

    Classes are 1..k; an out-of-range index raises ValueError.
    """
    nbc = _proper_masks(g, c, "dominating_vertices")
    k = c.k
    if not 1 <= class_index <= k:
        raise ValueError(f"class index {class_index} out of range 1..{k}")
    cd = cd_flags(c.colors, nbc, k)
    return [v for v, col in enumerate(c.colors) if col == class_index and cd[v]]


def check_cd(g: Graph, c: Coloring) -> Verdict:
    """Pass iff every color class contains a color-dominating vertex (b-coloring).

    On pass the witness maps each class to one CD vertex.
    """
    return _cd_verdict(c.colors, cd_flags(c.colors, _proper_masks(g, c, "check_cd"), c.k), c.k)


def is_nice_vertex(g: Graph, c: Coloring, v: int) -> bool:
    """True iff v has the top color t and is adjacent to color-dominating
    vertices of all t-1 other colors."""
    _require_total(g, c)
    t = c.k
    if c.colors[v] != t:
        return False
    cd = cd_flags(c.colors, _proper_masks(g, c, "is_nice_vertex"), t)
    return colors_seen([w for w in g.adj[v] if cd[w]], c.colors) == (1 << t) - 2


def find_dominating_star(g: Graph, c: Coloring) -> tuple[int, ...] | None:
    """Search for a star (u_1..u_k) of CD vertices, u_j of color j, with u_k
    adjacent to every other u_j.  Exact: every CD vertex of color k is tried
    as the center; smallest-index choices make the result deterministic."""
    cd = cd_flags(c.colors, _proper_masks(g, c, "find_dominating_star"), c.k)
    return star_from(g.adj, c.colors, cd, c.k)


LEVELS = ("proper", "grundy", "cd", "z")


def check_all(g: Graph, c: Coloring) -> dict[str, Verdict]:
    """One Verdict per level of LEVELS, in that order, from one properness
    check and one neighbour-colour mask: those of check_proper, check_grundy
    and check_cd, and at "z" the first of the Grundy and CD verdicts that
    fails, else a pass whose witness adds the dominating star ("star") to
    the CD vertices, or a `no-dominating-star` failure.  An improper c fails
    every level with its properness violations instead of raising."""
    proper = check_proper(g, c)
    if not proper:
        return dict.fromkeys(LEVELS, proper)
    nbc = neighbor_colors(g, c.colors)
    cd = cd_flags(c.colors, nbc, c.k)
    grundy = _grundy_verdict(c.colors, nbc)
    cd_verdict = _cd_verdict(c.colors, cd, c.k)
    z = next((v for v in (grundy, cd_verdict) if not v), None)
    if z is None:
        star = star_from(g.adj, c.colors, cd, c.k)
        if star is None:
            z = Verdict(False, [Violation("no-dominating-star", class_index=c.k)])
        else:
            z = Verdict(True, witness={"star": star, **cd_verdict.witness})
    return {"proper": proper, "grundy": grundy, "cd": cd_verdict, "z": z}


def check_level(g: Graph, c: Coloring, level: str) -> Verdict:
    """check_all's verdict at `level`.  Level "proper" runs check_proper
    alone, so its cost does not grow with the color values."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}, expected one of {', '.join(LEVELS)}")
    return check_proper(g, c) if level == "proper" else check_all(g, c)[level]


def check_z(g: Graph, c: Coloring) -> Verdict:
    """Pass iff c is proper, Grundy, color-dominating, and admits a dominating
    star.  Failures come back as verdicts, never exceptions."""
    return check_all(g, c)["z"]


def verify_star(g: Graph, c: Coloring, star: tuple[int, ...]) -> bool:
    """Check a claimed dominating star: u_j has color j and is CD, the last
    vertex is adjacent to all the others.  Out-of-range indices fail."""
    k = c.k
    if len(star) != k:
        return False
    if any(not 0 <= u < c.n or c.colors[u] != j for j, u in enumerate(star, start=1)):
        return False
    cd = cd_flags(c.colors, _proper_masks(g, c, "verify_star"), k)
    return all(cd[u] for u in star) and all(g.has_edge(star[-1], u) for u in star[:-1])
