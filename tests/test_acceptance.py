"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every sub-check appends a
problem string instead of asserting mid-flight, so the per-criterion verdict
line always prints and a failure names every violated sub-assertion.
"""

import itertools
import random
import time

import pytest

from conftest import complete_graph, cycle_graph, path_graph

from zcoloring import (
    Coloring,
    Graph,
    a_sequence,
    cd_gcd_transform,
    check_z,
    embed,
    exact_b,
    exact_chi,
    exact_gamma,
    exact_z,
    gen_Gt,
    gen_Ktt_minus_matching,
    gen_Ht,
    gen_Ft,
    gen_Rk,
    gen_Tk,
    generate_atoms,
    greedy_coloring,
    grundy_reduce,
    is_colored_isomorphic,
    prove_upper_bound,
    to_dimacs,
    z_heuristic,
    z_transform,
)
from zcoloring.canon import canonical_certificate
from zcoloring.cli import main
from zcoloring.families import gt_layout
from zcoloring.randgraphs import gnp, random_connected_gnp, random_tree


def _report(num, name, problems):
    status = "FAIL" if problems else "PASS"
    print(f"\n[acceptance] criterion {num} ({name}): {status}")
    if problems:
        pytest.fail(f"criterion {num}: " + " | ".join(problems))


def _timed(problems, budget, label, fn):
    start = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        problems.append(f"{label} took {elapsed:.1f}s > {budget}s")
    return value


def test_criterion_1_oracle_table():
    problems = []
    rows = [
        ("z(P_5)", lambda: exact_z(path_graph(5)).value, 3),
        ("z(C_6)", lambda: exact_z(cycle_graph(6)).value, 3),
        ("z(K44-4K2)", lambda: exact_z(gen_Ktt_minus_matching(4)).value, 4),
        ("z(K55-4K2)", lambda: exact_z(gen_Ktt_minus_matching(5, 4)).value, 2),
        ("gamma(H_3)", lambda: exact_gamma(gen_Ht(3)).value, 4),
        ("b(H_3)", lambda: exact_b(gen_Ht(3)).value, 2),
        ("b(F_4)", lambda: exact_b(gen_Ft(4)).value, 4),
    ]
    for label, fn, expected in rows:
        got = _timed(problems, 5.0, label, fn)
        if got != expected:
            problems.append(f"{label} = {got}, expected {expected}")
    _report(1, "oracle table", problems)


def test_criterion_2_atom_catalogs(d3_catalog):
    problems = []
    atoms3 = d3_catalog.atoms
    if len(atoms3) != 2:
        problems.append(f"|D_3| = {len(atoms3)}, expected 2")
    k3 = complete_graph(3)
    from zcoloring import ColoredGraph

    k3_colored = ColoredGraph(k3, Coloring((1, 2, 3)))
    if not any(is_colored_isomorphic(a.cg, k3_colored) for a in atoms3):
        problems.append("D_3 misses K_3")
    if not any(is_colored_isomorphic(a.cg, gen_Rk(3)) for a in atoms3):
        problems.append("D_3 misses the 5-path atom")

    catalog4 = _timed(problems, 600.0, "triangle-free D_4 generation",
                      lambda: generate_atoms(4, triangle_free=True))
    orders = [a.cg.graph.n for a in catalog4.atoms]
    if max(orders) != 14:
        problems.append(f"max atom order {max(orders)}, expected 14")
    largest = [a for a in catalog4.atoms if a.cg.graph.n == 14]
    if len(largest) != 1:
        problems.append(f"{len(largest)} atoms of order 14, expected a unique one")
    else:
        tree = largest[0].cg.graph
        if not (tree.m == tree.n - 1 and tree.is_connected()):
            problems.append("the order-14 atom is not a tree")
        if not is_colored_isomorphic(largest[0].cg, gen_Rk(4)):
            problems.append("the order-14 atom is not colored-isomorphic to R_4")
    # Known spec/paper defect, kept as stated: the complete construction yields
    # 25 colored atoms on 19 underlying graphs; 18 is not attainable (see the
    # decisions ledger for the verification trail).
    if len(catalog4.atoms) != 18:
        graphs = {canonical_certificate(a.cg.graph, Coloring((1,) * a.cg.graph.n))
                  for a in catalog4.atoms}
        problems.append(
            f"triangle-free D_4 has {len(catalog4.atoms)} members on "
            f"{len(graphs)} distinct graphs, the stated count is 18"
        )
    _report(2, "atom catalogs", problems)


def test_criterion_3_bound_prover_on_g4(d4_triangle_free_catalog):
    problems = []
    start = time.perf_counter()
    g4 = gen_Gt(4)
    lay = gt_layout(4)

    # constructed 3-color z-coloring: 2-color the bipartite block, run the
    # star through the second path vertex of the tree block
    colors = [0] * lay["n"]
    for a in lay["ht_a"]:
        colors[a] = 1
    for b in lay["ht_b"]:
        colors[b] = 2
    colors[lay["w"]] = 2
    v1, v2, v3, v4 = lay["ft_path"]
    colors[v1], colors[v2], colors[v3], colors[v4] = 1, 3, 2, 1
    for leaf in lay["ft_leaves"][v1]:
        colors[leaf] = 2
    for leaf in lay["ft_leaves"][v2]:
        colors[leaf] = 1
    for leaf in lay["ft_leaves"][v3]:
        colors[leaf] = 1
    for leaf in lay["ft_leaves"][v4]:
        colors[leaf] = 2
    witness = Coloring(tuple(colors))
    if witness.k != 3 or not check_z(g4, witness).passed:
        problems.append("constructed 3-coloring of G_4 is not a z-coloring")

    verdict = prove_upper_bound(g4, 4, d4_triangle_free_catalog)
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        problems.append(f"criterion took {elapsed:.1f}s > 120s")
    # Known spec/paper defect, kept as stated: the unique 7-vertex atom embeds
    # into the K_{4,4} minus matching block (its same-color pairs sit exactly
    # on the removed matching), so a complete catalog cannot leave G_4
    # embedding-free; the verdict is correctly inconclusive (z(G_4) is still 3
    # by the witness above).  See the decisions ledger.
    if not verdict.passed:
        idx = verdict.witness["atom_index"]
        emb = verdict.witness["embedding"]
        problems.append(
            f"atom {idx} embeds in G_4 via {emb}; the stated outcome was no embedding"
        )
    elif verdict.witness["bound"] != 3:
        problems.append(f"bound verdict says {verdict.witness['bound']}, expected 3")
    _report(3, "bound prover on G_4", problems)


def test_g4_induced_subgraph_exceeds_its_z_number():
    # criterion 3 without a catalog.  S is the image of the 7-vertex atom of
    # the triangle-free D_4 in G_4, and G_4[S] has a 4-color z-coloring while
    # G_4 has none: zeta(G_4) >= 4 > z(G_4), where zeta(G) is the largest z
    # over induced subgraphs of G.  Since an atom of D_t embeds in G exactly
    # when some induced subgraph of G has a z-coloring with t colors, no sound
    # D_4 catalog can certify z(G_4) <= 3
    g4 = gen_Gt(4)
    assert exact_z(g4.induced([0, 1, 2, 4, 5, 6, 7])).value == 4
    assert exact_z(g4, limit_n=19).value == 3


def test_criterion_4_tree_extremals():
    problems = []
    seq = a_sequence(30)
    if seq[:5] != [1, 2, 5, 14, 39]:
        problems.append(f"a_1..a_5 = {seq[:5]}")
    recur = 1
    for k in range(2, 31):
        recur = 2 * recur + 2 ** (k - 1) - k
        if seq[k - 1] != recur:
            problems.append(f"closed form and recurrence disagree at k={k}")
            break
    for k in range(1, 9):
        if gen_Rk(k).graph.n != seq[k - 1]:
            problems.append(f"|R_{k}| = {gen_Rk(k).graph.n} != a_{k} = {seq[k - 1]}")
    for k in range(1, 7):
        rk = gen_Rk(k)
        if rk.coloring.k != k or not check_z(rk.graph, rk.coloring).passed:
            problems.append(f"canonic coloring of R_{k} is not a z-coloring with {k} colors")

    def all_labeled_trees(n):
        if n == 1:
            yield Graph.from_edges(1, [])
            return
        if n == 2:
            yield Graph.from_edges(2, [(0, 1)])
            return
        for code in itertools.product(range(n), repeat=n - 2):
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
            yield Graph.from_edges(n, edges)

    for n in range(1, 5):
        for tree in all_labeled_trees(n):
            value = exact_z(tree).value
            if value > 2:
                problems.append(f"tree on {n} vertices with z = {value}")
    _report(4, "tree extremals", problems)


def test_criterion_5_soundness_sweep(d3_catalog, d4_triangle_free_catalog):
    problems = []
    start = time.perf_counter()
    rng = random.Random(20260808)

    hits3 = 0
    for _ in range(10000):
        n = rng.randint(2, 7)
        g = random_connected_gnp(n, rng.choice([0.3, 0.45, 0.6, 0.8]), rng)
        if exact_z(g).value >= 3:
            hits3 += 1
            if not any(embed(a.cg, g) is not None for a in d3_catalog.atoms):
                problems.append(f"z >= 3 with no D_3 atom embedded: {g.edges()}")
                break
    if hits3 < 1000:
        problems.append(f"only {hits3} graphs with z >= 3 in the n <= 7 sweep")

    hits4 = 0
    samples = 0
    while samples < 1000:
        n = rng.randint(4, 9)
        g = gnp(n, rng.choice([0.15, 0.25, 0.35, 0.5]), rng)
        if g.has_triangle():
            continue
        samples += 1
        if exact_z(g).value >= 4:
            hits4 += 1
            if not any(embed(a.cg, g) is not None for a in d4_triangle_free_catalog.atoms):
                problems.append(f"triangle-free z >= 4 with no D_4 atom embedded: {g.edges()}")
                break
    # seed known triangle-free z=4 hosts so the implication is exercised
    for host in (gen_Ktt_minus_matching(4), gen_Rk(4).graph):
        if exact_z(host).value >= 4:
            hits4 += 1
            if not any(embed(a.cg, host) is not None for a in d4_triangle_free_catalog.atoms):
                problems.append("known z=4 host has no embedded atom")
    if hits4 == 0:
        problems.append("triangle-free sweep never exercised the implication")

    elapsed = time.perf_counter() - start
    if elapsed > 1800.0:
        problems.append(f"sweep took {elapsed:.0f}s > 1800s")
    _report(5, "atom soundness sweep", problems)


def test_criterion_6_heuristic_property_suite():
    problems = []
    rng = random.Random(606)

    def drive(g):
        base = greedy_coloring(g)
        c1, t1 = grundy_reduce(g, base)
        c2, t2 = cd_gcd_transform(g, c1)
        c3, t3 = z_transform(g, c2)
        if not check_z(g, c3).passed:
            problems.append(f"pipeline output fails check_z on n={g.n}, m={g.m}")
            return
        if len(t1.moves) > g.n:
            problems.append(f"grundy_reduce made {len(t1.moves)} moves on n={g.n}")
        if len(t2.moves) > g.n:
            problems.append(f"cd_gcd_transform made {len(t2.moves)} moves on n={g.n}")
        if t3.iterations > g.n:
            problems.append(f"z_transform ran {t3.iterations} iterations on n={g.n}")
        if c3.k > g.max_degree() + 1:
            problems.append("color count above max_degree + 1")
        if g.n <= 10 and c3.k < exact_chi(g).value:
            problems.append("color count below the chromatic number")
        again, t4 = z_transform(g, c3)
        if again != c3 or t4.iterations != 0:
            problems.append("pipeline is not idempotent")

    for _ in range(500):
        n = rng.randint(1, 60)
        drive(gnp(n, rng.choice([0.05, 0.15, 0.35, 0.6, 0.85]), rng))
        if problems:
            break
    if not problems:
        for _ in range(200):
            drive(random_tree(rng.randint(1, 60), rng))
            if problems:
                break
    _report(6, "heuristic property suite", problems)


def test_criterion_7_inequalities():
    problems = []
    rng = random.Random(707)
    for _ in range(300):
        g = gnp(rng.randint(1, 9), rng.choice([0.25, 0.5, 0.75]), rng)
        chi = exact_chi(g).value
        zz = exact_z(g).value
        gamma = exact_gamma(g).value
        b = exact_b(g).value
        if not chi <= zz <= min(gamma, b):
            problems.append(f"chain broken on {g.edges()}: {chi},{zz},{gamma},{b}")
            break
    for _ in range(300):
        t = random_tree(rng.randint(2, 12), rng)
        gamma = exact_gamma(t).value
        zz = exact_z(t).value
        if gamma > zz * zz:
            problems.append(f"gamma > z^2 on tree {t.edges()}")
            break
    t4 = gen_Tk(4).graph
    if not exact_gamma(t4).value > exact_z(t4).value:
        problems.append("gamma(T_4) does not exceed z(T_4)")
    _report(7, "parameter inequalities", problems)


def _has_induced_p5(g: Graph) -> bool:
    for subset in itertools.combinations(range(g.n), 5):
        h = g.induced(subset)
        if h.m == 4 and h.is_connected() and sorted(h.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]:
            return True
    return False


def test_criterion_8_k3_p5_free_spot_check():
    problems = []
    rng = random.Random(808)
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 40000:
        attempts += 1
        n = rng.randint(4, 10)
        g = gnp(n, rng.choice([0.15, 0.25, 0.4, 0.6]), rng)
        if g.has_triangle() or (g.n >= 5 and _has_induced_p5(g)):
            continue
        accepted += 1
        value = exact_z(g).value
        if value > 3:
            problems.append(f"(K_3, P_5)-free graph with z = {value}: {g.edges()}")
            break
    if accepted < 100:
        problems.append(f"sampled only {accepted} admissible graphs")
    _report(8, "(K_3,P_5)-free spot check", problems)


def test_criterion_9_determinism(tmp_path):
    problems = []
    p5 = tmp_path / "p5.col"
    p5.write_text(to_dimacs(path_graph(5)))

    def color_bytes(path):
        main(["color", str(p5), "--heuristic", "iz", "--rounds", "6", "--seed", "11",
              "--out", str(path), "--format", "record"])
        return path.read_bytes()

    if color_bytes(tmp_path / "a.rec") != color_bytes(tmp_path / "b.rec"):
        problems.append("color records differ across runs")

    def catalog_bytes(path):
        main(["atoms", "gen", "--t", "3", "--out", str(path)])
        return path.read_bytes()

    if catalog_bytes(tmp_path / "a.cat") != catalog_bytes(tmp_path / "b.cat"):
        problems.append("atom catalogs differ across runs")

    import io
    import contextlib

    def bench_out():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["bench", str(p5), "--random", "20,0.4,13", "--heuristics",
                  "greedy,grundy,gcd,z,iz", "--seed", "13", "--format", "record"])
        return buf.getvalue()

    if bench_out() != bench_out():
        problems.append("bench record streams differ across runs")

    def exact_out():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["exact", str(p5), "--param", "z", "--format", "record"])
        return buf.getvalue()

    if exact_out() != exact_out():
        problems.append("exact records differ across runs")

    def family_bytes(path):
        main(["family", "gen", "--name", "Rk", "--k", "5", "--out", str(path)])
        return path.read_bytes()

    if family_bytes(tmp_path / "r5a.col") != family_bytes(tmp_path / "r5b.col"):
        problems.append("family output differs across runs")
    _report(9, "seeded determinism", problems)
