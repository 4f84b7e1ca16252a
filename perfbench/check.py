"""Output checks written independently of ``zcoloring.verify``.

Every check reads the program's text output (coloring records, catalogs,
bound verdicts) with its own parser and tests it against the host graph the
benchmark generated.  A check returns ``(error, colors)``: an error message
or None, and the number of colors the output carries (a coloring's k, an
atom's t, a certified bound or an oracle value), summed into ``colors_sum``.
"""

from __future__ import annotations

import ast
from pathlib import Path


# ---------------------------------------------------------------------------
# Parsing


def parse_record(text: str) -> dict:
    """Fields of a coloring record: n, edges (u < v pairs), colors, star."""
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.strip().partition(" ")
        if key in ("n", "k", "edges", "colors", "star", "param", "value"):
            fields[key] = rest
    rec = {
        "n": int(fields["n"]),
        "k": int(fields["k"]),
        "edges": sorted(
            tuple(sorted(int(x) for x in item.split("-"))) for item in fields.get("edges", "").split()
        ),
        "colors": [int(x) for x in fields["colors"].split()],
        "star": [int(x) for x in fields["star"].split()] if "star" in fields else None,
    }
    if "value" in fields:
        rec["param"], rec["value"] = fields["param"], int(fields["value"])
    return rec


def parse_catalog(text: str) -> list[dict]:
    """Atom records of a catalog file, in file order."""
    chunks = [c for c in text.split("\n\n") if c.strip()]
    return [parse_record(chunk) for chunk in chunks[1:]]


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# Coloring levels


def coloring_error(adj: list[set[int]], colors: list[int], level: str, star=None) -> str | None:
    """None when `colors` is a coloring of the given level on `adj`.

    Levels: "proper"; "grundy" (each vertex of color c sees every color
    below c); "b" (proper, every class 1..k non-empty with a vertex seeing
    all other colors); "z" (Grundy, b, and a dominating star: the given one
    if `star` is not None, otherwise one must exist).
    """
    n = len(adj)
    if len(colors) != n:
        return f"coloring covers {len(colors)} vertices, host has {n}"
    if any(c < 1 for c in colors):
        return "color below 1"
    k = max(colors, default=0)
    for v in range(n):
        if any(colors[w] == colors[v] for w in adj[v]):
            return f"monochromatic edge at vertex {v}"
    if level == "proper":
        return None
    seen = [{colors[w] for w in adj[v]} for v in range(n)]
    if level in ("grundy", "z"):
        for v in range(n):
            if len(seen[v] & set(range(1, colors[v]))) != colors[v] - 1:
                return f"vertex {v} of color {colors[v]} misses a lower color"
    if level == "grundy":
        return None
    dominating = [len(seen[v]) == k - 1 for v in range(n)]
    by_class = [[] for _ in range(k + 1)]
    for v in range(n):
        if dominating[v]:
            by_class[colors[v]].append(v)
    for j in range(1, k + 1):
        if not by_class[j]:
            return f"class {j} has no color-dominating vertex"
    if level == "b":
        return None
    if star is not None:
        if len(star) != k or any(colors[u] != j for j, u in enumerate(star, start=1)):
            return "star does not list one vertex per color in order"
        if not all(dominating[u] for u in star):
            return "star vertex is not color-dominating"
        if not all(u in adj[star[-1]] for u in star[:-1]):
            return "star center misses a star vertex"
        return None
    for center in by_class[k]:
        if all(any(u in adj[center] for u in by_class[j]) for j in range(1, k)):
            return None
    return "no dominating star"


# ---------------------------------------------------------------------------
# Colored-subgraph embedding (anchored candidate search)


def embedding_error(atom: dict, host_adj: list[set[int]], mapping) -> str | None:
    """None when `mapping` embeds the colored atom: injective, edges kept,
    equal-colored atom vertices sent to non-adjacent host vertices."""
    n, colors = atom["n"], atom["colors"]
    if len(mapping) != n or len(set(mapping)) != n:
        return "embedding is not an injective map of the atom's vertices"
    if not all(0 <= x < len(host_adj) for x in mapping):
        return "embedding leaves the host"
    for u, v in atom["edges"]:
        if mapping[v] not in host_adj[mapping[u]]:
            return f"atom edge {u}-{v} is not a host edge"
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] == colors[v] and mapping[v] in host_adj[mapping[u]]:
                return f"same-colored atom vertices {u},{v} map to adjacent host vertices"
    return None


def embeds(atom: dict, host_adj: list[set[int]]) -> bool:
    """Whether the colored atom embeds in the host at all."""
    n, colors = atom["n"], atom["colors"]
    adj = adjacency(n, atom["edges"])
    order: list[int] = []
    while len(order) < n:
        placed = set(order)
        rest = [v for v in range(n) if v not in placed]
        order.append(max(rest, key=lambda v: (len(adj[v] & placed), len(adj[v]), -v)))
    pos = {v: i for i, v in enumerate(order)}
    back = [[w for w in adj[v] if pos[w] < pos[v]] for v in order]
    same = [[w for w in range(n) if colors[w] == colors[v] and pos[w] < pos[v]] for v in order]
    image = [-1] * n
    used = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        if back[i]:
            cands = set(host_adj[image[back[i][0]]])
            for w in back[i][1:]:
                cands &= host_adj[image[w]]
        else:
            cands = range(len(host_adj))
        for x in cands:
            if x in used or len(host_adj[x]) < len(adj[v]):
                continue
            if any(image[w] in host_adj[x] for w in same[i]):
                continue
            image[v] = x
            used.add(x)
            if extend(i + 1):
                return True
            used.discard(x)
        image[v] = -1
        return False

    return extend(0)


def bound_error(code: int, out: str, catalog: list[dict], host_adj, t: int) -> tuple[str | None, int]:
    """Check an ``atoms bound`` verdict against this module's own matcher:
    exit 0 needs every atom refuted; exit 1 must name the first atom that
    embeds, with a valid embedding."""
    first = next((i for i, atom in enumerate(catalog) if embeds(atom, host_adj)), None)
    if code == 0:
        if first is not None:
            return f"claimed z <= {t - 1} but atom {first} embeds", t - 1
        return None, t - 1
    if code != 1 or not out.startswith("inconclusive: atom "):
        return f"unexpected bound verdict (exit {code}): {out.strip()[:80]}", t
    head, _, tail = out.strip().partition(" embeds via ")
    idx = int(head.split()[-1])
    if idx != first:
        return f"reported atom {idx} but the first atom that embeds is {first}", t
    return embedding_error(catalog[idx], host_adj, ast.literal_eval(tail)), t


# ---------------------------------------------------------------------------
# Per-command checks


def color_error(out: str, n: int, edges, level: str) -> tuple[str | None, int]:
    rec = parse_record(out)
    if rec["n"] != n or rec["edges"] != sorted(tuple(sorted(e)) for e in edges):
        return "record graph differs from the host", rec["k"]
    if rec["k"] != max(rec["colors"], default=0):
        return "record k differs from its colors", rec["k"]
    adj = adjacency(n, edges)
    if rec["k"] > max((len(a) for a in adj), default=0) + 1:
        return "more colors than max degree + 1", rec["k"]
    star = rec["star"]
    if level == "z" and star is None:
        return "z-coloring record without a dominating star", rec["k"]
    return coloring_error(adj, rec["colors"], "z" if star is not None else level, star), rec["k"]


def exact_error(out: str, adj: list[set[int]], param: str) -> tuple[str | None, int]:
    rec = parse_record(out)
    if rec.get("param") != param:
        return "record names another parameter", 0
    value = rec["value"]
    if rec["k"] != value or max(rec["colors"], default=0) != value:
        return f"witness uses {rec['k']} colors, claimed value {value}", value
    level = {"chi": "proper", "gamma": "grundy", "b": "b", "z": "z"}[param]
    return coloring_error(adj, rec["colors"], level), value


def inequality_error(values: dict) -> str | None:
    """chi <= z <= min(Gamma, b) for one graph."""
    chi, gamma, b, z = (values[p] for p in ("chi", "gamma", "b", "z"))
    if not chi <= z <= min(gamma, b):
        return f"chi={chi} z={z} Gamma={gamma} b={b} violates chi <= z <= min(Gamma, b)"
    return None


def catalog_error(out: str, path: Path) -> tuple[str | None, int]:
    expected = path.read_text(encoding="ascii")
    colors = sum(atom["k"] for atom in parse_catalog(expected))
    if out != expected:
        return f"catalog differs from {path.name}", colors
    return None, colors
