import pytest

from zcoloring import Graph, generate_atoms


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def small_graphs(st, max_n):
    """Hypothesis strategy (`st` is hypothesis.strategies) for any graph on
    0..max_n vertices."""

    @st.composite
    def graphs(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])

    return graphs()


@pytest.fixture(scope="session")
def d3_catalog():
    return generate_atoms(3)


@pytest.fixture(scope="session")
def d4_triangle_free_catalog():
    return generate_atoms(4, triangle_free=True)
