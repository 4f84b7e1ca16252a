"""Seeded random graphs for benchmarks and property tests: Erdos-Renyi
G(n, p) and uniform random labeled trees."""

from __future__ import annotations

import heapq
import random

from .graphs import Graph


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random Pruefer code."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    # the current leaves, smallest first: each step joins the smallest leaf
    # to the next code vertex, which becomes a leaf on its last occurrence
    leaves = [u for u in range(n) if degree[u] == 1]
    edges = []
    for v in code:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), leaves[0]))
    return Graph.from_edges(n, edges)

