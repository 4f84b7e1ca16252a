import random

import pytest

from zcoloring import (
    ColoredGraph,
    Coloring,
    DimacsError,
    Graph,
    RecordError,
    parse_coloring_record,
    parse_dimacs,
    read_dimacs,
    serialize_coloring,
    serialize_colored_graph,
    to_dimacs,
)
from zcoloring.randgraphs import gnp


def test_parse_k2():
    g = parse_dimacs("p edge 2 1\ne 1 2\n")
    assert g.n == 2 and g.m == 1
    assert g.adj == ((1,), (0,))


def test_parse_edgeless():
    g = parse_dimacs("p edge 3 0\n")
    assert g.n == 3 and g.m == 0


def test_parse_p5_matches_hand_built_adjacency():
    g = parse_dimacs("p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    assert g.adj == ((1,), (0, 2), (1, 3), (2, 4), (3,))


def test_parse_duplicate_edges_collapse():
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n")
    assert g.m == 1


def test_parse_accepts_bytes_and_comments():
    g, comments = read_dimacs(b"c tiny instance\np edge 2 1\ne 1 2\n")
    assert g.m == 1
    assert comments == ["tiny instance"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p edge x 1\ne 1 2\n", "line 1"),
        ("p edge 2 1\ne 1 5\n", "line 2"),
        ("p edge 2 1\ne 2 2\n", "self-loop"),
        ("e 1 2\n", "line 1"),
        ("p edge 2 1\np edge 2 1\n", "duplicate"),
        ("p edge 2 1\nq 1 2\n", "unrecognized"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)


def test_to_dimacs_round_trip_drops_comments():
    text = "c hello\np edge 4 2\ne 1 2\ne 3 4\n"
    g = parse_dimacs(text)
    out = to_dimacs(g)
    assert out == "p edge 4 2\ne 1 2\ne 3 4\n"
    assert parse_dimacs(out) == g


def test_from_edges_normalizes_any_edge_list():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 12)
        raw = []
        for _ in range(rng.randint(0, 25)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                raw.append((u, v))
                if rng.random() < 0.3:
                    raw.append((v, u))
        g = Graph.from_edges(n, raw)
        for v in range(n):
            assert list(g.adj[v]) == sorted(set(g.adj[v]))
            assert v not in g.adj[v]
            for w in g.adj[v]:
                assert v in g.adj[w]


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_graph_helpers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.max_degree() == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.drop_edge(0, 1).m == 3
    assert g.with_vertex([0, 2]).degree(4) == 2
    assert not g.has_triangle()
    assert g.is_connected()
    assert Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).has_triangle()
    assert not Graph.from_edges(2, []).is_connected()
    assert g.induced([0, 1, 2]).m == 2


def test_coloring_basics():
    c = Coloring((1, 3, 1))
    assert c.k == 3
    assert not c.is_normalized()
    assert c.normalize().colors == (1, 2, 1)
    assert Coloring((2, 1, 2)).classes() == [[1], [0, 2]]
    with pytest.raises(ValueError):
        Coloring((0, 1))


def test_serialize_k2_record():
    g = Graph.from_edges(2, [(0, 1)])
    rec = serialize_coloring(g, Coloring((1, 2)))
    assert rec == "n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 1 0\nclass 2 1\n"


def test_serialize_k1_record():
    rec = serialize_coloring(Graph.from_edges(1, []), Coloring((1,)))
    assert rec == "n 1\nedges\nk 1\ncolors 1\nclass 1 0\n"


def test_record_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = gnp(n, 0.4, rng)
        # random proper coloring via random greedy order
        order = list(range(n))
        rng.shuffle(order)
        colors = [0] * n
        for v in order:
            taken = {colors[w] for w in g.adj[v] if colors[w]}
            c = 1
            while c in taken:
                c += 1
            colors[v] = c
        star = (0,) if rng.random() < 0.3 and colors.count(max(colors)) else None
        cg = ColoredGraph(g, Coloring(tuple(colors)), star if star and max(colors) == 1 else None)
        assert parse_coloring_record(serialize_colored_graph(cg)) == cg


def test_record_errors():
    with pytest.raises(RecordError):
        parse_coloring_record("n 2\nk 1\n")  # missing colors
    with pytest.raises(RecordError):
        parse_coloring_record("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 1 1\n")
    with pytest.raises(RecordError):
        parse_coloring_record("n 2\nedges 0-1\nk 3\ncolors 1 2\n")


def test_record_star_index_out_of_range():
    record = "n 5\nedges 0-1 1-2 2-3 3-4\nk 3\ncolors 1 2 3 1 2\nstar 3 1 99\n"
    with pytest.raises(RecordError, match="line 5"):
        parse_coloring_record(record)
