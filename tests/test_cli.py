import os
import re
import subprocess
import sys

import pytest

from conftest import complete_graph, cycle_graph, mutated, path_graph, small_graphs

from zcoloring import (
    Coloring,
    Graph,
    check_z,
    greedy_coloring,
    parse_coloring_record,
    parse_dimacs,
    serialize_coloring,
    to_dimacs,
)
from zcoloring import cli, exact_gamma, reduce
from zcoloring.cli import ORACLES, build_parser, main
from zcoloring.graphs import MAX_ORDER


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.col"
    path.write_text(to_dimacs(path_graph(5)))
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.col"
    path.write_text(to_dimacs(complete_graph(5)))
    return str(path)


def test_color_z_on_p5(p5_file, tmp_path, capsys):
    out = tmp_path / "p5.rec"
    assert main(["color", p5_file, "--heuristic", "z", "--out", str(out)]) == 0
    cg = parse_coloring_record(out.read_text())
    assert cg.coloring.k <= 3
    summary = capsys.readouterr().out
    assert "z=ok" in summary and "k=" in summary


def test_color_greedy_on_k5(k5_file, capsys):
    assert main(["color", k5_file, "--heuristic", "greedy"]) == 0
    assert "k=5" in capsys.readouterr().out


def test_color_record_format_round_trips(p5_file, capsys):
    assert main(["color", p5_file, "--heuristic", "gcd", "--format", "record"]) == 0
    record = capsys.readouterr().out
    cg = parse_coloring_record(record)
    assert cg.graph == path_graph(5)


def test_color_determinism(p5_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a.rec", tmp_path / "b.rec"
    main(["color", p5_file, "--heuristic", "iz", "--rounds", "5", "--seed", "9", "--out", str(out1)])
    main(["color", p5_file, "--heuristic", "iz", "--rounds", "5", "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_color_budget_runs_complementary_pass(tmp_path, capsys):
    import random

    from zcoloring.randgraphs import gnp

    g = gnp(14, 0.45, random.Random(2))
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(g))
    assert main(["color", str(path), "--heuristic", "z", "--budget", "200", "--seed", "3",
                 "--format", "record"]) == 0
    with_budget = parse_coloring_record(capsys.readouterr().out)
    assert main(["color", str(path), "--heuristic", "z", "--format", "record"]) == 0
    plain = parse_coloring_record(capsys.readouterr().out)
    assert with_budget.coloring.k <= plain.coloring.k


def test_color_budget_needs_z_heuristic_and_non_negative_value(p5_file, capsys):
    cases = [(["--budget", "-1"], "color: --budget must be >= 0, got -1\n")]
    cases += [(["--heuristic", h, "--budget", "5"], f"color: --budget needs --heuristic z or iz, got {h}\n")
              for h in ("greedy", "grundy", "gcd")]
    for extra, message in cases:
        assert main(["color", p5_file, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


# `color --format table` summaries without the time, recorded before the four
# flags came from one verification pass; the 7-vertex graph's greedy coloring
# is 1 1 2 3 4 2 2 (Grundy, not CD), and on the 10-vertex graph the
# complementary pass finds a 3-coloring that is CD but not Grundy
TABLE_FLAGS = {
    ("P5", "greedy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("P5", "grundy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("P5", "gcd"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("P5", "z"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("C6", "greedy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("C6", "grundy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("C6", "gcd"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("C6", "z"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("H3", "greedy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("H3", "grundy"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("H3", "gcd"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("H3", "z"): "k=2 proper=ok grundy=ok cd=ok z=ok",
    ("G7", "greedy"): "k=4 proper=ok grundy=ok cd=NO z=NO",
    ("G7", "grundy"): "k=4 proper=ok grundy=ok cd=NO z=NO",
    ("G7", "gcd"): "k=3 proper=ok grundy=ok cd=ok z=ok",
    ("G7", "z"): "k=3 proper=ok grundy=ok cd=ok z=ok",
    ("G10", "z"): "k=4 proper=ok grundy=ok cd=ok z=ok",
    ("G10", "z --budget 30"): "k=3 proper=ok grundy=NO cd=ok z=NO",
}


def test_color_table_flags_pinned(tmp_path, capsys):
    from zcoloring import gen_Ht

    hosts = {
        "P5": path_graph(5),
        "C6": cycle_graph(6),
        "H3": gen_Ht(3),
        "G7": Graph.from_edges(7, [(0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (2, 3), (2, 4), (3, 4), (4, 6)]),
        "G10": Graph.from_edges(10, [(0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 7), (4, 5), (4, 9), (5, 6),
                                     (5, 7), (5, 9), (6, 7), (7, 8), (7, 9), (8, 9)]),
    }
    assert greedy_coloring(hosts["G7"]).colors == (1, 1, 2, 3, 4, 2, 2)
    for (name, heuristic), expected in TABLE_FLAGS.items():
        path = tmp_path / f"{name}.col"
        path.write_text(to_dimacs(hosts[name]))
        assert main(["color", str(path), "--heuristic", *heuristic.split()]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith(f"{path}: {expected} time=")


def test_verify_c6_z_level(tmp_path):
    graph = tmp_path / "c6.col"
    graph.write_text(to_dimacs(cycle_graph(6)))
    rec = tmp_path / "c6.rec"
    rec.write_text(serialize_coloring(cycle_graph(6), Coloring((3, 2, 1, 3, 2, 1))))
    assert main(["verify", str(graph), str(rec), "--level", "z"]) == 0


def test_verify_monochromatic_edge_fails(tmp_path, capsys):
    graph = tmp_path / "k2.col"
    graph.write_text(to_dimacs(complete_graph(2)))
    rec = tmp_path / "k2.rec"
    rec.write_text(serialize_coloring(complete_graph(2), Coloring((1, 1))))
    assert main(["verify", str(graph), str(rec), "--level", "proper"]) == 1
    assert "monochromatic-edge" in capsys.readouterr().out


def test_verify_z_level_recomputes_without_stored_star(tmp_path):
    p4 = path_graph(4)
    graph = tmp_path / "p4.col"
    graph.write_text(to_dimacs(p4))
    rec = tmp_path / "p4.rec"
    rec.write_text(serialize_coloring(p4, Coloring((1, 2, 3, 1))))  # Grundy, not z
    assert main(["verify", str(graph), str(rec), "--level", "grundy"]) == 0
    assert main(["verify", str(graph), str(rec), "--level", "z"]) == 1


VERIFY_CASES = {
    # name: (n, edges, colors)
    "z": (6, [(i, (i + 1) % 6) for i in range(6)], (3, 2, 1, 3, 2, 1)),
    "improper": (4, [(0, 1), (1, 2), (0, 2), (2, 3)], (1, 1, 1, 1)),
    "not-grundy-not-cd": (3, [], (1, 2, 2)),
    "cd-not-grundy": (3, [(0, 2)], (2, 2, 1)),
    "grundy-not-cd": (4, [(0, 3), (1, 2), (1, 3)], (1, 3, 1, 2)),
    "grundy-cd-no-star": (8, [(0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 7), (3, 4), (3, 7),
                              (4, 5), (4, 6), (4, 7), (5, 6)], (2, 1, 1, 4, 3, 1, 4, 2)),
}
IMPROPER = ("violation: monochromatic-edge vertex=0 other=1 color=1\n"
            "violation: monochromatic-edge vertex=0 other=2 color=1\n"
            "violation: monochromatic-edge vertex=1 other=2 color=1\n"
            "violation: monochromatic-edge vertex=2 other=3 color=1\n")
MISSING_1_AT_1_2 = ("violation: missing-lower-color vertex=1 color=1\n"
                    "violation: missing-lower-color vertex=2 color=1\n")
VERIFY_EXPECTED = {
    ("z", "proper"): (0, "proper: pass (k=3)\n"),
    ("z", "grundy"): (0, "grundy: pass (k=3)\n"),
    ("z", "cd"): (0, "cd: pass (k=3)\n"),
    ("z", "z"): (0, "z: pass (k=3)\n"),
    ("improper", "proper"): (1, IMPROPER),
    ("improper", "grundy"): (1, IMPROPER),
    ("improper", "cd"): (1, IMPROPER),
    ("improper", "z"): (1, IMPROPER),
    ("not-grundy-not-cd", "proper"): (0, "proper: pass (k=2)\n"),
    ("not-grundy-not-cd", "grundy"): (1, MISSING_1_AT_1_2),
    ("not-grundy-not-cd", "cd"): (1, "violation: class-without-cd-vertex class=1\n"
                                     "violation: class-without-cd-vertex class=2\n"),
    ("not-grundy-not-cd", "z"): (1, MISSING_1_AT_1_2),
    ("cd-not-grundy", "proper"): (0, "proper: pass (k=2)\n"),
    ("cd-not-grundy", "grundy"): (1, "violation: missing-lower-color vertex=1 color=1\n"),
    ("cd-not-grundy", "cd"): (0, "cd: pass (k=2)\n"),
    ("cd-not-grundy", "z"): (1, "violation: missing-lower-color vertex=1 color=1\n"),
    ("grundy-not-cd", "proper"): (0, "proper: pass (k=3)\n"),
    ("grundy-not-cd", "grundy"): (0, "grundy: pass (k=3)\n"),
    ("grundy-not-cd", "cd"): (1, "violation: class-without-cd-vertex class=1\n"),
    ("grundy-not-cd", "z"): (1, "violation: class-without-cd-vertex class=1\n"),
    ("grundy-cd-no-star", "proper"): (0, "proper: pass (k=4)\n"),
    ("grundy-cd-no-star", "grundy"): (0, "grundy: pass (k=4)\n"),
    ("grundy-cd-no-star", "cd"): (0, "cd: pass (k=4)\n"),
    ("grundy-cd-no-star", "z"): (1, "violation: no-dominating-star class=4\n"),
}


def test_verify_output_pinned(tmp_path, capsys):
    # exit code and stdout of every level on records that fail at each step;
    # the text was recorded when verify still checked properness separately
    for name, (n, edges, colors) in VERIFY_CASES.items():
        g = Graph.from_edges(n, edges)
        graph, rec = tmp_path / f"{name}.col", tmp_path / f"{name}.rec"
        graph.write_text(to_dimacs(g))
        rec.write_text(serialize_coloring(g, Coloring(colors)))
        for level in ("proper", "grundy", "cd", "z"):
            code = main(["verify", str(graph), str(rec), "--level", level])
            assert (code, capsys.readouterr().out) == VERIFY_EXPECTED[name, level], (name, level)


@pytest.mark.parametrize("star", ["star 0 0", "star 4 4 4"])
def test_verify_z_level_checks_a_stored_star(p5_file, tmp_path, capsys, star):
    # the record's own star must be a dominating star; lower levels ignore it
    assert main(["color", p5_file, "--format", "record"]) == 0
    good = capsys.readouterr().out
    assert "star 0 1\n" in good
    rec = tmp_path / "p5.rec"
    rec.write_text(good)
    assert main(["verify", p5_file, str(rec), "--level", "z"]) == 0
    assert capsys.readouterr().out == "z: pass (k=2)\n"
    rec.write_text(good.replace("star 0 1", star))
    assert main(["verify", p5_file, str(rec), "--level", "z"]) == 1
    assert capsys.readouterr().out == "violation: invalid-star\n"
    assert main(["verify", p5_file, str(rec), "--level", "cd"]) == 0
    assert capsys.readouterr().out == "cd: pass (k=2)\n"


def test_verify_proper_level_reads_no_color_masks(tmp_path):
    # level proper is check_proper alone: a record whose colors run to 10**10
    # passes in O(n + m), where a neighbour-colour mask would take 10**10 bits.
    # The command runs in a child process capped at 1.5 GB of address space,
    # so a regression fails with MemoryError instead of exhausting the memory.
    graph, rec = tmp_path / "k2.col", tmp_path / "k2.rec"
    graph.write_text(to_dimacs(complete_graph(2)))
    rec.write_text(f"n 2\nedges 0-1\nk {10**10}\ncolors 1 {10**10}\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))\n"
        "from zcoloring.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code, "verify", str(graph), str(rec), "--level", "proper"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"proper: pass (k={10**10})\n", "")


def test_verify_wrong_graph_is_usage_error(tmp_path):
    graph = tmp_path / "k2.col"
    graph.write_text(to_dimacs(complete_graph(2)))
    rec = tmp_path / "p3.rec"
    rec.write_text(serialize_coloring(path_graph(3), Coloring((1, 2, 1))))
    assert main(["verify", str(graph), str(rec)]) == 2


def test_verify_bad_class_line_is_parse_error(tmp_path, capsys):
    graph = tmp_path / "k2.col"
    graph.write_text(to_dimacs(complete_graph(2)))
    rec = tmp_path / "k2.rec"
    rec.write_text(serialize_coloring(complete_graph(2), Coloring((1, 2))) + "class 1 0\n")
    assert main(["verify", str(graph), str(rec)]) == 2
    assert capsys.readouterr().err == "parse error: line 7: duplicate class 1\n"


def test_exact_z_p5(p5_file, capsys):
    assert main(["exact", p5_file, "--param", "z"]) == 0
    assert "= 3" in capsys.readouterr().out


def test_exact_table_names_the_explored_unit(p5_file, capsys):
    # gamma's recursion counts subsets solved, the searches count nodes
    assert main(["exact", p5_file, "--param", "gamma"]) == 0
    assert " subsets, " in capsys.readouterr().out
    assert main(["exact", p5_file, "--param", "b"]) == 0
    out = capsys.readouterr().out
    assert " nodes, " in out and "subsets" not in out


def test_exact_record_round_trips(p5_file, capsys):
    assert main(["exact", p5_file, "--param", "chi", "--format", "record"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("param chi\nvalue 2\n")
    parse_coloring_record(out.split("value 2\n", 1)[1])


def test_exact_size_limit(tmp_path, capsys):
    big = tmp_path / "big.col"
    big.write_text("p edge 20 0\n")
    assert main(["exact", str(big), "--param", "z"]) == 2
    assert main(["exact", str(big), "--param", "z", "--limit", "20"]) == 0


def test_exact_limit_zero_is_a_limit(tmp_path, capsys):
    p3 = tmp_path / "p3.col"
    p3.write_text(to_dimacs(path_graph(3)))
    assert main(["exact", str(p3), "--param", "z", "--limit", "0"]) == 2
    assert capsys.readouterr().err == "exact_z: graph has 3 vertices, limit is 0\n"


def test_exact_rejects_oversized_problem_line_before_building(tmp_path, monkeypatch, capsys):
    real = Graph.from_edges.__func__
    built = []

    def spy(cls, n, edges):
        # fail instead of allocating, so the unguarded path cannot exhaust memory
        assert n <= 20, f"from_edges asked for {n} vertices"
        built.append(n)
        return real(cls, n, edges)

    monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 100000000 0\n")
    for param, limit in (("chi", 12), ("gamma", 12), ("b", 12), ("z", 14)):
        assert main(["exact", str(huge), "--param", param]) == 2
        assert capsys.readouterr().err == (
            f"exact_{param}: graph has 100000000 vertices, limit is {limit}\n")
    over = tmp_path / "over.col"
    over.write_text("p edge 21 1\ne 1 2\n")
    assert main(["exact", str(over), "--param", "z", "--limit", "20"]) == 2
    assert capsys.readouterr().err == "exact_z: graph has 21 vertices, limit is 20\n"
    assert built == []
    at_limit = tmp_path / "at_limit.col"
    at_limit.write_text("p edge 20 0\n")
    assert main(["exact", str(at_limit), "--param", "z", "--limit", "20"]) == 0
    assert built == [20]


def test_every_command_rejects_a_problem_line_above_the_vertex_cap(tmp_path, monkeypatch, capsys):
    real = Graph.from_edges.__func__

    def spy(cls, n, edges):
        assert n <= MAX_ORDER, f"from_edges asked for {n} vertices"
        return real(cls, n, edges)

    monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
    huge = tmp_path / "huge.col"
    huge.write_text(f"c too many\np edge {MAX_ORDER + 1} 0\n")
    unused = str(tmp_path / "unused")
    for argv in (["color", str(huge)], ["verify", str(huge), unused],
                 ["atoms", "bound", str(huge), "--t", "3", "--catalog", unused],
                 ["bench", str(huge)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 2: vertex count {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}\n")


def test_exact_deep_searches_answer(tmp_path, capsys):
    # every oracle keeps its search on an explicit stack, so a long path
    # answers under the default recursion limit; the triangle beside the path
    # makes chi probe 3 colours
    path = tmp_path / "path2000.col"
    path.write_text(to_dimacs(path_graph(2000)))
    deep = tmp_path / "path2000_triangle.col"
    edges = [(i, i + 1) for i in range(1999)] + [(2000, 2001), (2001, 2002), (2000, 2002)]
    deep.write_text(to_dimacs(Graph.from_edges(2003, edges)))
    assert main(["exact", str(deep), "--param", "chi", "--limit", "3000"]) == 0
    assert " = 3 " in capsys.readouterr().out
    for param in ("b", "z", "gamma"):
        assert main(["exact", str(path), "--param", param, "--limit", "3000"]) == 0
        assert " = 3 " in capsys.readouterr().out
    path = tmp_path / "path900.col"
    path.write_text(to_dimacs(path_graph(900)))
    assert main(["exact", str(path), "--param", "gamma", "--limit", "900"]) == 0
    assert " = 3 " in capsys.readouterr().out


def test_exact_decides_z_of_g7(tmp_path, capsys):
    # the separation example at t = 7: z(G_7) = 3 with a verified witness,
    # after every target 4..7 is refuted
    g7 = tmp_path / "g7.col"
    assert main(["family", "gen", "--name", "Gt", "--k", "7", "--out", str(g7)]) == 0
    capsys.readouterr()
    assert main(["exact", str(g7), "--param", "z", "--limit", "52", "--format", "record"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("param z\nvalue 3\n")
    cg = parse_coloring_record(out.split("value 3\n", 1)[1])
    assert check_z(parse_dimacs(g7.read_text()), cg.coloring).passed


def test_exact_never_raises_on_fuzzed_files(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "fuzz.col"

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), (argv, path.read_bytes())
        return code, out

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.one_of(st.binary(max_size=120), mutated(st, small_graphs(st, 8).map(to_dimacs))))
    def check_bytes(data):
        path.write_bytes(data)
        for param in ORACLES:
            run(["exact", str(path), "--param", param])

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(small_graphs(st, 8))
    def check_valid(g):
        path.write_text(to_dimacs(g))
        for param in ORACLES:
            code, out = run(["exact", str(path), "--param", param, "--format", "record"])
            assert code == 0
            if param == "gamma":
                res = exact_gamma(g)
                assert out == f"param gamma\nvalue {res.value}\n" + serialize_coloring(g, res.witness)

    check_bytes()
    check_valid()


def test_color_table_builds_no_record_it_does_not_write(p5_file, monkeypatch, capsys):
    def unused(*args):
        raise AssertionError("serialize_coloring called")

    monkeypatch.setattr(cli, "serialize_coloring", unused)
    assert main(["color", p5_file, "--format", "table"]) == 0
    assert "z=ok" in capsys.readouterr().out


def test_color_reports_z_transform_failure_in_one_line(p5_file, monkeypatch, capsys):
    def stuck(table, moves):
        raise RuntimeError("z_transform failed to converge")

    # the round guard lives in the z rounds, which z_heuristic runs directly
    monkeypatch.setattr(reduce, "_z", stuck)
    for extra in ([], ["--heuristic", "iz"], ["--budget", "5"], ["--format", "record"]):
        assert main(["color", p5_file, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1
        assert "failed to converge" in captured.err


def test_atoms_gen_and_bound(tmp_path, capsys):
    catalog = tmp_path / "d3.catalog"
    assert main(["atoms", "gen", "--t", "3", "--out", str(catalog)]) == 0
    star = tmp_path / "k15.col"
    star.write_text("p edge 6 5\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 1 6\n")
    assert main(["atoms", "bound", str(star), "--t", "3", "--catalog", str(catalog)]) == 0
    assert "<= 2" in capsys.readouterr().out
    tri = tmp_path / "k3.col"
    tri.write_text(to_dimacs(complete_graph(3)))
    assert main(["atoms", "bound", str(tri), "--t", "3", "--catalog", str(catalog)]) == 1
    assert "inconclusive" in capsys.readouterr().out


def test_atoms_bound_on_a_large_tree_embeds_the_first_forest_atom(tmp_path, capsys):
    # a tree host rules out every atom with a cycle before any search; the
    # first forest atom of the full t=4 catalog, atom 37, embeds
    import random

    from zcoloring.atoms import catalog_from_text, embedding_valid
    from zcoloring.randgraphs import random_tree

    tree = random_tree(10_000, random.Random(1))
    host = tmp_path / "tree.col"
    host.write_text(to_dimacs(tree))
    catalog = os.path.join(os.path.dirname(__file__), "..", "catalogs", "d4_full.catalog")
    assert main(["atoms", "bound", str(host), "--t", "4", "--catalog", catalog]) == 1
    out = capsys.readouterr().out
    found = re.fullmatch(r"inconclusive: atom (\d+) embeds via \(([\d, ]+)\)\n", out)
    assert found and found[1] == "37"
    with open(catalog, encoding="ascii") as fh:
        atom = catalog_from_text(fh.read()).atoms[37].cg
    assert embedding_valid(atom, tree, tuple(int(v) for v in found[2].split(", ")))


K3_ATOM = "t 3\nn 3\nedges 0-1 0-2 1-2\nk 3\ncolors 1 2 3\nstar 0 1 2\n"


def test_atoms_bound_malformed_catalog_exits_2(tmp_path, capsys):
    star = tmp_path / "k15.col"
    star.write_text("p edge 6 5\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 1 6\n")
    for name, text, message in (
        ("empty", "", "empty catalog"),
        ("short", "zatoms t 3\n", "malformed catalog header"),
        ("bad_t", "zatoms t x triangle_free 0 count 0\n", "t must be an integer"),
        ("atom_t", "zatoms t 3 triangle_free 0 count 1\n\n" + K3_ATOM.replace("t 3", "t 4"),
         "atom t differs from catalog t"),
        ("count", "zatoms t 3 triangle_free 0 count 2\n\n" + K3_ATOM,
         "catalog declares 2 atoms, found 1"),
    ):
        catalog = tmp_path / f"{name}.catalog"
        catalog.write_text(text)
        assert main(["atoms", "bound", str(star), "--t", "3", "--catalog", str(catalog)]) == 2
        assert message in capsys.readouterr().err


def test_family_gen_size_guard(tmp_path, capsys):
    for name, k in (("Tk", 40), ("Rk", 40), ("Tk", 22), ("Rk", 18)):
        out = tmp_path / f"{name}{k}.col"
        assert main(["family", "gen", "--name", name, "--k", str(k), "--out", str(out)]) == 2
        assert "vertices" in capsys.readouterr().err
        assert not out.exists()
    # K_{t,t} has t^2 edges and F_t has t^2 - 2t + 2 vertices
    for name, unit in (("Ht", "edges"), ("Gt", "vertices"), ("Ft", "vertices")):
        out = tmp_path / f"{name}.col"
        assert main(["family", "gen", "--name", name, "--k", "6000", "--out", str(out)]) == 2
        assert f"gives more than 1048576 {unit}" in capsys.readouterr().err
        assert not out.exists()


def test_family_gen_all_names(tmp_path):
    for name, k in (("Ht", 3), ("Ft", 4), ("Gt", 4), ("Rk", 4), ("Tk", 4)):
        out = tmp_path / f"{name}.col"
        assert main(["family", "gen", "--name", name, "--k", str(k), "--out", str(out)]) == 0
        parse_dimacs(out.read_text())


def test_family_gen_rk_coloring_record(tmp_path):
    out = tmp_path / "r3.col"
    rec = tmp_path / "r3.rec"
    assert main(["family", "gen", "--name", "Rk", "--k", "3",
                 "--out", str(out), "--coloring-out", str(rec)]) == 0
    cg = parse_coloring_record(rec.read_text())
    assert cg.coloring.k == 3 and cg.dominating_star is not None


def test_family_gen_coloring_without_one_is_error(tmp_path):
    assert main(["family", "gen", "--name", "Ht", "--k", "3",
                 "--out", str(tmp_path / "h.col"), "--coloring-out", str(tmp_path / "h.rec")]) == 2
    # refused before anything is written
    assert not (tmp_path / "h.col").exists()


def test_bench_table_and_monotone_columns(tmp_path, capsys):
    g4 = tmp_path / "g4.col"
    from zcoloring import gen_Gt

    g4.write_text(to_dimacs(gen_Gt(4)))
    assert main(["bench", str(g4), "--heuristics", "greedy,z", "--format", "record"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {row[1]: int(row[2]) for row in rows}
    assert counts["z"] <= counts["greedy"]
    # the table: header and one row per instance, timings masked
    assert main(["bench", str(g4), "--heuristics", "greedy,z"]) == 0
    out = re.sub(r"\d+\.\d{3}s", "T", capsys.readouterr().out)
    assert out == ("instance  n     m    greedy         z\n"
                   f"g4.col    19   24   {counts['greedy']:>8}  {counts['z']:>8}   T T\n")
    assert counts == {"greedy": 2, "z": 2}


def test_bench_unknown_heuristic_is_usage_error(capsys):
    assert main(["bench", "--random", "5,0.5,1", "--heuristics", "greedy,foo"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "unknown heuristic 'foo'\n")


def test_bench_without_heuristics_is_usage_error(capsys):
    # a list of blanks and commas would print a header with no columns
    for spec in ("", ",", " , "):
        assert main(["bench", "--random", "5,0.5,1", "--heuristics", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"bench: --heuristics {spec!r} names no heuristic\n")


def test_bench_random_and_iz(capsys):
    assert main(["bench", "--random", "30,0.5,7", "--heuristics", "z,iz",
                 "--rounds", "10", "--seed", "7", "--format", "record"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {row[1]: int(row[2]) for row in rows}
    assert counts["iz"] <= counts["z"]


def test_bench_bad_rounds_is_usage_error(capsys):
    # only the round guard's RuntimeError becomes an `error` cell
    assert main(["bench", "--random", "8,0.5,1", "--heuristics", "iz", "--rounds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "rounds must be >= 1\n"


def test_bench_random_refuses_more_pairs_than_the_cap(capsys):
    # 1448 vertices have 1 047 628 pairs, 1449 have 1 049 076 > MAX_ORDER
    assert main(["bench", "--random", "1448,0.0,1", "--heuristics", "greedy", "--format", "record"]) == 0
    assert capsys.readouterr().out == "gnp-1448-0.0-1 greedy 1\n"
    assert main(["bench", "--random", "1449,0.0,1", "--heuristics", "greedy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "1449" in captured.err


def test_bench_random_malformed_spec_is_usage_error(capsys):
    # a missing, extra or non-numeric field is named in one line, not as an
    # unpacking or conversion error
    for spec in ("5,0.5", "5,0.5,1,2", "a,0.5,1", "5,x,1", "5,0.5,1.5"):
        assert main(["bench", "--random", spec, "--heuristics", "greedy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bench: --random {spec}: expected N,P,SEED: integer N, probability P, integer SEED\n"
    # a spec that parses but that gnp refuses is named with gnp's reason
    for spec, reason in (("5,nan,1", "p must be in [0, 1]"), ("-3,0.5,1", "n must be non-negative")):
        assert main(["bench", f"--random={spec}", "--heuristics", "greedy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bench: --random {spec}: {reason}\n"


def test_bench_empty_instance_list(capsys):
    assert main(["bench", "--heuristics", "greedy"]) == 0


def test_bench_record_determinism(capsys):
    main(["bench", "--random", "16,0.4,3", "--heuristics", "greedy,grundy,gcd,z,iz",
          "--seed", "5", "--format", "record"])
    first = capsys.readouterr().out
    main(["bench", "--random", "16,0.4,3", "--heuristics", "greedy,grundy,gcd,z,iz",
          "--seed", "5", "--format", "record"])
    assert capsys.readouterr().out == first


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 7\n")
    assert main(["color", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code():
    assert main(["color", "/nonexistent.col"]) == 2


def test_directory_instead_of_file_exits_2(tmp_path, p5_file, capsys):
    for argv in (["color", str(tmp_path)],
                 ["atoms", "bound", p5_file, "--t", "4", "--catalog", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["color"])
    assert err.value.code == 2


@pytest.fixture
def cli_files(tmp_path, p5_file, d3_catalog):
    """A graph, a coloring record and a catalog for it, a malformed file and a directory."""
    from zcoloring import catalog_to_text

    record = tmp_path / "p5.rec"
    assert main(["color", p5_file, "--out", str(record), "--format", "record"]) == 0
    catalog = tmp_path / "d3.catalog"
    catalog.write_text(catalog_to_text(d3_catalog))
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 7\n")
    return {"graph": p5_file, "record": str(record), "catalog": str(catalog),
            "bad": str(bad), "dir": str(tmp_path)}


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_main_reuses_one_parser_across_calls(cli_files, capsys):
    f = cli_files
    jobs = [
        ["color", f["graph"], "--heuristic", "iz", "--seed", "3", "--format", "record"],
        ["exact", f["graph"], "--param", "b", "--format", "record"],
        ["color"],
        ["verify", f["graph"], f["record"], "--level", "cd"],
        ["exact", f["graph"], "--param", "z", "--limit", "3"],
        ["atoms", "bound", f["graph"], "--t", "3", "--catalog", f["catalog"]],
        ["family", "gen", "--name", "Rk", "--k", "3"],
        ["bench", f["graph"], "--heuristics", "greedy,gcd", "--format", "record"],
        ["color", f["bad"]],
        ["color", f["graph"], "--heuristic", "grundy", "--format", "record"],
    ]
    fresh = []
    for argv in jobs:
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    assert build_parser() is build_parser()
    reused = [_run(argv, capsys) for argv in jobs]
    assert reused == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 2, 1, 0, 0, 2, 0]


def test_main_never_raises_on_random_argv(cli_files, tmp_path, monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # outputs go to tmp_path and never over the input files, so every example
    # sees the same inputs; sizes stay small so every run is quick
    monkeypatch.chdir(tmp_path)
    f = cli_files
    outs = ["-", "out.txt", f["dir"], str(tmp_path / "no" / "such.txt")]
    paths = [*f.values(), str(tmp_path / "missing.col")]
    small = ["-1", "0", "1", "2", "3"]
    flag_values = {
        "--heuristic": ["greedy", "grundy", "gcd", "z", "iz"], "--rounds": small,
        "--budget": small, "--seed": small, "--out": outs, "--format": ["table", "record"],
        "--level": ["proper", "grundy", "cd", "z"], "--param": list(ORACLES),
        "--limit": small, "--t": small, "--catalog": paths, "--name": ["Ht", "Ft", "Gt", "Rk", "Tk"],
        "--k": small, "--coloring-out": outs, "--heuristics": ["greedy,z", "gcd", "z,nope", ""],
        "--random": ["5,0.5,1", "3,x,1", "4,2.0,1", "-1,0.5,1", "6"],
    }
    junk = ["x", "1.5", "", "-h", "--bogus", "--triangle-free", "--allow-large", *outs]
    commands = [
        (["color", f["graph"]], ["--heuristic", "--rounds", "--budget", "--seed", "--out", "--format"]),
        (["verify", f["graph"], f["record"]], ["--level"]),
        # listed twice: exact runs only with a --param
        (["exact", f["graph"]], ["--param", "--param", "--limit", "--format"]),
        (["atoms", "gen"], ["--t", "--out", "--triangle-free", "--allow-large"]),
        (["atoms", "bound", f["graph"]], ["--t", "--catalog"]),
        (["family", "gen"], ["--name", "--k", "--out", "--coloring-out"]),
        (["bench"], ["--heuristics", "--rounds", "--seed", "--random", "--format"]),
    ]
    # no input path here, so no --out can overwrite one
    everything = ["color", "verify", "exact", "atoms", "gen", "bound", "family", "bench",
                  *flag_values, *junk]

    def rarely(draw):
        return draw(st.sampled_from(range(8))) == 7

    @st.composite
    def argvs(draw):
        if rarely(draw):
            return draw(st.lists(st.sampled_from(everything), max_size=6))
        head, flags = draw(st.sampled_from(commands))
        argv = list(head)
        for _ in range(draw(st.integers(0, 5))):
            flag = draw(st.sampled_from(flags))
            argv.append(flag)
            if flag in flag_values:
                argv.append(draw(st.sampled_from(junk if rarely(draw) else flag_values[flag])))
        if rarely(draw):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(junk)))
        return argv

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        code, _ = _run(argv, capsys)
        assert code in (0, 1, 2), argv

    check()


def test_color_verify_bound_never_raise_on_fuzzed_files(cli_files, tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    f = cli_files
    path = tmp_path / "fuzz.col"
    # verify needs a record of the graph it is given, so P_5 (the graph of
    # f["record"]) and its colorings, proper or not, are drawn often
    p5 = path_graph(5)
    graphs = st.one_of(st.just(p5), small_graphs(st, 8))
    records = st.one_of(
        st.lists(st.integers(1, 4), min_size=5, max_size=5).map(lambda cs: serialize_coloring(p5, Coloring(cs))),
        graphs.map(lambda g: serialize_coloring(g, greedy_coloring(g))),
    )
    texts = st.one_of(graphs.map(to_dimacs), records)
    inputs = st.one_of(texts.map(str.encode), mutated(st, texts), st.binary(max_size=120))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(inputs)
    def check(data):
        path.write_bytes(data)
        for argv in (["color", str(path)],
                     ["color", str(path), "--heuristic", "iz", "--rounds", "2", "--budget", "3"],
                     ["verify", str(path), f["record"], "--level", "z"],
                     ["verify", f["graph"], str(path), "--level", "z"],
                     ["atoms", "bound", str(path), "--t", "3", "--catalog", f["catalog"]]):
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), (argv, data)

    check()


def test_python_m_zcoloring_runs_the_cli(tmp_path, p5_file, capsys):
    # `python -m zcoloring` prints what cli.main prints and exits with its code
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in (["color", p5_file, "--format", "record"], ["color", str(bad)]):
        code = main(argv)
        out, err = capsys.readouterr()
        done = subprocess.run([sys.executable, "-m", "zcoloring", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert code == 2 and "line 2" in err
