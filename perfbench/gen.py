"""Seeded benchmark inputs, written as DIMACS text.

Random hosts come from this module's own generators, not from
``zcoloring.randgraphs``, so a change to the program cannot change the
inputs it is measured on.  The same seed always gives the same text.
Named family hosts are fixed files under ``hosts/``.
"""

from __future__ import annotations

import heapq
import random
from pathlib import Path

HOSTS = Path(__file__).resolve().parent / "hosts"


def rng_for(workload: str, seed: int, label: str) -> random.Random:
    """One independent stream per (workload, seed, input label)."""
    return random.Random(f"{workload}/{seed}/{label}")


def gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, p) edge list, vertices 0..n-1, pairs u < v."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def gnm(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform graph with n vertices and exactly m edges, pairs u < v."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def cubic_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on an even number n >= 4 of vertices whose
    internal vertices all have degree 3, built from a random Pruefer
    sequence in which each of (n - 2) / 2 random internal vertices appears
    twice."""
    internal = rng.sample(range(n), (n - 2) // 2)
    degree = [1] * n
    for v in internal:
        degree[v] = 3
    code = [v for v in internal for _ in range(2)]
    rng.shuffle(code)
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for u in code:
        edges.append((heapq.heappop(leaves), u))
        degree[u] -= 1
        if degree[u] == 1:
            heapq.heappush(leaves, u)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return sorted(tuple(sorted(e)) for e in edges)


def subdivided_gnm(n: int, m: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """G(n, m) with every edge subdivided once: bipartite, girth >= 6.
    Returns (vertex count, edges)."""
    edges = []
    size = n
    for u, v in gnm(n, m, rng):
        edges += [(u, size), (v, size)]
        size += 1
    return size, edges


def dimacs(n: int, edges, comment: str = "") -> str:
    """DIMACS .col text, 1-indexed, edges as given."""
    lines = [f"c {comment}"] if comment else []
    lines.append(f"p edge {n} {len(edges)}")
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def read_host(name: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges as 0-indexed pairs u < v) of the fixed host file hosts/<name>.col."""
    n, edges = 0, []
    for line in (HOSTS / f"{name}.col").read_text(encoding="ascii").splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[2])
        elif parts and parts[0] == "e":
            u, v = sorted((int(parts[1]) - 1, int(parts[2]) - 1))
            edges.append((u, v))
    return n, sorted(edges)
