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


def mutated(st, texts):
    """Hypothesis strategy: a text drawn from `texts`, encoded, with a few
    bytes inserted, replaced or deleted; the new bytes are often digits,
    blanks or newlines, so many mutants still parse."""
    bytes_ = st.one_of(st.sampled_from(b"0123456789 -\n"), st.integers(0, 255))

    @st.composite
    def strategy(draw):
        data = bytearray(draw(texts).encode())
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data)))
            byte = draw(bytes_)
            op = draw(st.sampled_from(("insert", "replace", "delete")))
            if op == "insert":
                data.insert(at, byte)
            elif at < len(data):
                if op == "replace":
                    data[at] = byte
                else:
                    del data[at]
        return bytes(data)

    return strategy()


@pytest.fixture(scope="session")
def d3_catalog():
    return generate_atoms(3)


@pytest.fixture(scope="session")
def d4_triangle_free_catalog():
    return generate_atoms(4, triangle_free=True)
