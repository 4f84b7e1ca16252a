import random
import time

import pytest

from conftest import complete_graph, cycle_graph, mutated, path_graph, small_graphs

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
from zcoloring import graphs
from zcoloring.graphs import MAX_ORDER
from zcoloring.randgraphs import gnp, random_tree


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
    # the DIMACS index maps token "0" to -1; only this range test keeps
    # Python's negative indexing from taking it as vertex n-1
    for edge in [(-1, 0), (0, -3)]:
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [edge])


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


def test_drop_edge_matches_rebuild():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_and_edge(draw):
        g = draw(small_graphs(st, 10).filter(lambda g: g.m))
        return g, draw(st.sampled_from(g.edges())), draw(st.booleans())

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(graph_and_edge())
    def check(case):
        g, (u, v), flip = case
        if flip:
            u, v = v, u
        rebuilt = Graph.from_edges(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])
        assert g.drop_edge(u, v) == rebuilt
        with pytest.raises(ValueError):
            rebuilt.drop_edge(u, v)

    check()


def test_with_vertex_matches_rebuild():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_and_neighbors(draw):
        g = draw(small_graphs(st, 9))
        neighbors = draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=2 * g.n)) if g.n else []
        # the new vertex itself (index n) is out of range too
        bad = draw(st.one_of(st.none(), st.sampled_from([-1, g.n, g.n + 1])))
        if bad is not None:
            neighbors.insert(draw(st.integers(0, len(neighbors))), bad)
        return g, neighbors, bad

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(graph_and_neighbors())
    def check(case):
        g, neighbors, bad = case
        if bad is None:
            assert g.with_vertex(neighbors) == Graph.from_edges(g.n + 1, g.edges() + [(g.n, w) for w in neighbors])
        else:
            with pytest.raises(ValueError):
                g.with_vertex(neighbors)

    check()


def test_drop_edge_rejects_missing_and_out_of_range():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for u, v in [(0, 2), (1, 1), (-1, 2), (3, -2), (4, 0), (0, 4)]:
        with pytest.raises(ValueError, match="no edge"):
            g.drop_edge(u, v)


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


def test_pattern_records_match_the_line_reader():
    # parse_coloring_record reads a record that RECORD_PATTERN matches by
    # position and any other through parse_record_lines; on serialized,
    # rewritten and byte-mutated records the two must give the same record
    # or the same error
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def records(draw):
        # colorings need not be proper, use every color or match the star,
        # so most of the record checks can fail; most records still use
        # every color and keep the star in range, as serialized ones do
        g = draw(small_graphs(st, 7))
        colors = Coloring(tuple(draw(st.lists(st.sampled_from([1, 1, 2, 3, 9]), min_size=g.n, max_size=g.n))))
        if draw(st.booleans()):
            colors = colors.normalize()
        star = draw(st.one_of(st.none(), st.lists(st.integers(0, max(g.n - 1, 0) + draw(st.integers(0, 2))),
                                                  min_size=1, max_size=4).map(tuple)))
        lines = serialize_coloring(g, colors, star).splitlines()
        op = draw(st.sampled_from(["keep", "drop", "repeat", "swap", "class"]))
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "class" and lines[i].startswith("class"):
            # a class line with a vertex or its color changed
            words = lines[i].split()
            at = draw(st.integers(1, len(words) - 1))
            words[at] = str(draw(st.integers(0, g.n + 1)))
            lines[i] = " ".join(words)
        return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))

    texts = st.one_of(records(), mutated(st, records()).map(lambda b: b.decode("latin-1")))

    def read_lines(text):
        return graphs.parse_record_lines(text.splitlines())

    @hypothesis.settings(max_examples=800, deadline=None, database=None)
    @hypothesis.given(texts)
    def check(text):
        assert outcome(parse_coloring_record, text) == outcome(read_lines, text), text

    check()
    # integers past int()'s default limit of 4300 digits, in each field
    big = "1" * 5000
    for text in (f"n {big}\nedges\nk 1\ncolors 1\n", f"n 2\nedges 0-{big}\nk 1\ncolors 1 1\nclass 1 0 1\n",
                 f"n 1\nedges\nk {big}\ncolors 1\n", f"n 1\nedges\nk 1\ncolors {big}\n",
                 f"n 1\nedges\nk 1\ncolors 1\nclass 1 0\nstar {big}\n"):
        assert isinstance(outcome(parse_coloring_record, text)[0], str)
        assert outcome(parse_coloring_record, text) == outcome(read_lines, text), text


def test_serialized_records_take_the_pattern_path(monkeypatch):
    # every class is used and the star, where there is one, is not empty, so
    # serialize_coloring writes no line with a trailing space
    def refuse(lines):
        raise AssertionError("a serialized record went to the line reader")

    monkeypatch.setattr(graphs, "parse_record_lines", refuse)
    rng = random.Random(4)
    for g in (Graph.from_edges(0, []), Graph.from_edges(3, []), path_graph(5), gnp(40, 0.3, rng)):
        colors = tuple(1 + v % 3 for v in range(g.n))
        for star in (None, tuple(range(min(g.n, 3))) or None):
            cg = ColoredGraph(g, Coloring(colors), star)
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


@pytest.mark.parametrize("record, field, line", [
    ("n x\nk 1\ncolors 1\n", "n", 1),
    ("n\nk 1\ncolors 1\n", "n", 1),
    ("n 2\nedges 0-x\nk 1\ncolors 1 1\n", "edges", 2),
    ("n 2\nedges 0-1\nk\ncolors 1 2\n", "k", 3),
    ("n 2\nedges 0-1\nk 2\ncolors 1 two\n", "colors", 4),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 1 z\n", "class", 5),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nstar 0 ?\n", "star", 5),
])
def test_record_non_integer_names_field_and_line(record, field, line):
    with pytest.raises(RecordError, match=f"line {line}: .*'{field}'"):
        parse_coloring_record(record)


def test_record_checks_colors_length_before_building(monkeypatch):
    real = Graph.from_edges.__func__
    built = []

    def spy(cls, n, edges):
        # fail instead of allocating, so the unguarded path cannot exhaust memory
        assert n <= 20, f"from_edges asked for {n} vertices"
        built.append(n)
        return real(cls, n, edges)

    monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
    with pytest.raises(RecordError, match="line 3: colors length does not match n"):
        parse_coloring_record("n 400000\nk 1\ncolors 1\n")
    assert built == []
    assert parse_coloring_record("n 2\nedges 0-1\nk 2\ncolors 1 2\n").graph.m == 1
    assert built == [2]


@pytest.mark.parametrize("record, line, message", [
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 1 0\nclass 1 0\n", 6, "duplicate class 1"),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 7\n", 5, "class 7 out of range 1..2"),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass 0\n", 5, "class 0 out of range 1..2"),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass -3\n", 5, "class -3 out of range 1..2"),
    # blank lines are skipped but still counted
    ("n 2\n\nedges 0-1\nk 2\ncolors 1 2\n\nclass 1 0\nclass 1 0\n", 8, "duplicate class 1"),
    ("n 2\nedges 0-1\nk 2\ncolors 1 2\nclass\n", 5, "malformed class line"),
    ("n 2\nedges 0-1\nn 2\nk 2\ncolors 1 2\n", 3, "duplicate field 'n'"),
    ("k 0\nn -1\ncolors\n", 2, "negative vertex count"),
    ("n 2\nedges 0-0\nk 1\ncolors 1 1\n", 2, "self-loop at vertex 0"),
    ("n 2\nedges 0-2\nk 1\ncolors 1 1\n", 2, r"edge \(0,2\) out of range for n=2"),
    ("n 2\nedges 0-1\nk 2\ncolors 0 2\n", 4, "colors must be integers >= 1"),
])
def test_record_rejects_bad_class_lines(record, line, message):
    with pytest.raises(RecordError, match=f"line {line}: {message}"):
        parse_coloring_record(record)


def test_record_class_lines_checked_in_linear_time():
    # each class line is compared with the classes grouped in one pass over
    # colors, not with a fresh scan of all n colors
    n, k = 20_000, 2_000
    c = Coloring(tuple(v % k + 1 for v in range(n)))
    text = serialize_coloring(Graph.from_edges(n, []), c)
    start = time.perf_counter()
    assert parse_coloring_record(text).coloring == c
    assert time.perf_counter() - start < 0.5
    with pytest.raises(RecordError, match=f"line {4 + k}: class {k} inconsistent with colors"):
        parse_coloring_record(text.replace(f"class {k} {k - 1} ", f"class {k} "))


def reference_read(text):
    """A plain line-by-line DIMACS reader, written from the format: returns
    (n, set of 0-indexed edges u < v, comments) or raises DimacsError."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    n, edges, comments = None, set(), []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        words = line.split()
        if not words:
            continue
        bad = f"line {lineno}: malformed {'problem' if words[0] == 'p' else 'edge'} line {line!r}"
        if words[0] == "c":
            comments.append(line[1:].strip())
        elif words[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(words) != 4 or words[1] not in ("edge", "col"):
                raise DimacsError(bad)
            try:
                n, _ = int(words[2]), int(words[3])
            except ValueError:
                raise DimacsError(bad) from None
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
            if n > MAX_ORDER:
                raise DimacsError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_ORDER}")
        elif words[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            try:
                u, v = map(int, words[1:])
            except ValueError:
                raise DimacsError(bad) from None
            if not (0 < u <= n and 0 < v <= n):
                raise DimacsError(f"line {lineno}: vertex index out of range in {line!r}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop edge {line!r}")
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise DimacsError("missing problem line")
    return n, edges, comments


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:  # DimacsError, or UnicodeDecodeError on bytes
        return type(exc).__name__, str(exc)


def test_read_dimacs_matches_a_plain_line_reader():
    # the bulk path and the line reader behind it must agree with a reader
    # written from the format on canonical, noisy and byte-mutated texts
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    canonical = small_graphs(st, 8).map(to_dimacs)

    blanks = st.sampled_from([" ", "  ", "\t", " \t"])

    @st.composite
    def noisy(draw):
        # a canonical text with a few local changes, so that most texts stay
        # close to the form the bulk path takes
        g = draw(small_graphs(st, 8))
        lines = [f"p {draw(st.sampled_from(['edge', 'col']))} {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        end, final = "\n", True
        ops = ["pad", "blank", "comment", "empty", "edge", "join", "crlf", "unterminated"]
        for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4)):
            i = draw(st.integers(0, len(lines) - 1))
            words = lines[i].split(" ")
            if op == "pad" and words[0] == "e":
                j = draw(st.integers(1, 2))
                words[j] = draw(st.sampled_from(["0", "00", "+"])) + words[j]
                lines[i] = " ".join(words)
            elif op == "blank":
                lines[i] = draw(st.sampled_from(["", " "])) + draw(blanks).join(words) + draw(st.sampled_from(["", "\t"]))
            elif op in ("comment", "empty"):
                extra = ["c note", "c", "\tc  spaced  "] if op == "comment" else ["", "   "]
                lines.insert(i + draw(st.integers(0, 1)), draw(st.sampled_from(extra)))
            elif op == "edge" and g.m:
                u, v = draw(st.sampled_from(g.edges()))
                lines.insert(i + 1, draw(st.sampled_from([f"e {u + 1} {v + 1}", f"e {v + 1} {u + 1}"])))
            elif op == "join" and i + 1 < len(lines):
                lines[i] += draw(blanks) + lines.pop(i + 1)
            elif op == "crlf":
                end = "\r\n"
            elif op == "unterminated":
                final = False
        return end.join(lines) + (end if final else "")

    @st.composite
    def joined(draw):
        # two lines of a canonical text run together: a pattern that forgets
        # line ends would read "e 1 2 e 3 4" as two edges
        lines = draw(canonical).splitlines()
        i = draw(st.integers(0, max(len(lines) - 2, 0)))
        lines[i:i + 2] = [draw(blanks).join(lines[i:i + 2])]
        return "\n".join(lines) + "\n"

    texts = st.one_of(canonical, noisy(), joined())
    inputs = st.one_of(texts, mutated(st, texts), mutated(st, texts).map(lambda b: b.decode("latin-1")))

    @hypothesis.settings(max_examples=600, deadline=None, database=None)
    @hypothesis.given(inputs)
    def check(text):
        got, want = outcome(read_dimacs, text), outcome(reference_read, text)
        if isinstance(got, tuple) and isinstance(got[0], Graph):
            g, comments = got
            got = g.n, set(g.edges()), comments
            assert all(list(a) == sorted(set(a)) for a in g.adj)
        assert got == want, text

    check()


def test_canonical_texts_take_the_bulk_path(monkeypatch):
    # every output is the same whichever reader runs, so only this spy sees
    # a canonical body dropping to the line reader: it must get the header
    # (comments and the problem line) and never an edge line
    seen = []
    read_lines = graphs._read_lines

    def spy(text, check_n):
        seen.append(text)
        return read_lines(text, check_n)

    monkeypatch.setattr(graphs, "_read_lines", spy)
    hosts = [Graph.from_edges(0, []), Graph.from_edges(3, []), path_graph(2), path_graph(9),
             cycle_graph(12), complete_graph(30), gnp(60, 0.3, random.Random(3)),
             gnp(1000, 0.01, random.Random(5))]
    assert len(to_dimacs(hosts[-1])) > 2 * graphs._CHUNK
    for g in hosts:
        seen.clear()
        assert parse_dimacs(to_dimacs(g)) == g
        assert seen and not any(line.startswith("e") for text in seen for line in text.splitlines())


@pytest.mark.parametrize(
    "line,want",
    [
        ("e 0 1", "line 4: vertex index out of range in 'e 0 1'"),
        ("e 01 2", None),  # the body names vertex 1 as "1" too
        ("e 1 7", "line 4: vertex index out of range in 'e 1 7'"),
        ("e 1 " + "9" * 5000, "line 4: malformed edge line"),  # past int's digit limit
        ("e 2 1", None),  # e 1 2 is in the body as well
    ],
    ids=["zero", "leading-zero", "n-plus-one", "5000-digits", "both-orientations"],
)
def test_bulk_tokens_match_the_line_reader(line, want):
    # one odd line in an otherwise canonical body; the bulk path must give
    # the line reader's graph or its error text
    body = ["p edge 6 5", "e 1 2", "e 2 3", line, "e 3 4", "e 4 5", "e 5 6", "e 1 6"]
    text = "\n".join(body) + "\n"
    try:
        n, comments, edges = graphs._read_lines(text, None)
        expected = Graph.from_edges(n, edges), comments
    except DimacsError as exc:
        expected = str(exc)
    try:
        got = read_dimacs(text)
    except DimacsError as exc:
        got = str(exc)
    assert got == expected
    if want is None:
        assert got[0].m == 6
    else:
        assert got.startswith(want)


def reference_record(g, c, star):
    """The coloring record, formatted field by field from its definition."""
    k = max(c.colors, default=0)
    lines = [f"n {g.n}", " ".join(["edges"] + [f"{u}-{v}" for u in range(g.n) for v in g.adj[u] if u < v])]
    lines += [f"k {k}", " ".join(["colors"] + [str(x) for x in c.colors])]
    for j in range(1, k + 1):
        lines.append(f"class {j} " + " ".join(str(v) for v in range(g.n) if c.colors[v] == j))
    if star is not None:
        lines.append("star " + " ".join(str(u) for u in star))
    return "".join(line + "\n" for line in lines)


def test_serialize_coloring_matches_a_reference_formatter():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        g = draw(small_graphs(st, 9))
        # colors up to n + 2, so classes may be empty and k may exceed n
        colors = draw(st.lists(st.integers(1, g.n + 2), min_size=g.n, max_size=g.n))
        star = draw(st.one_of(st.none(), st.lists(st.integers(0, max(g.n - 1, 0)), max_size=4).map(tuple)))
        return g, Coloring(tuple(colors)), star

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, c, star = case
        assert serialize_coloring(g, c, star) == reference_record(g, c, star)

    check()
    # an empty class keeps the blank after its number
    assert "class 2 \n" in serialize_coloring(Graph.from_edges(2, []), Coloring((1, 3)))


def _pruefer_tree_by_scan(n, rng):
    # random_tree's decoder before it kept the leaves in a heap: every step
    # scans all n vertices for the smallest leaf
    if n == 1:
        return Graph.from_edges(1, [])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = next(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 30, 200, 1000])
def test_random_tree_matches_scanning_decoder(n):
    for seed in range(5):
        tree = random_tree(n, random.Random(seed))
        assert tree == _pruefer_tree_by_scan(n, random.Random(seed))
        assert tree.m == n - 1 and tree.is_connected()
