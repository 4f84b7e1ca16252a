"""Command-line interface.

Subcommands: color, verify, exact, atoms gen|bound, family gen, bench.
Exit codes: 0 success / property holds, 1 verification or bound failure,
2 usage or parse errors.  All randomized behavior is driven by --seed, and
the machine-readable "record" format never includes timings, so a fixed seed
gives byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .atoms import catalog_from_text, catalog_to_text, generate_atoms, prove_upper_bound
from .families import FamilySpec
from .graphs import (
    DimacsError,
    Graph,
    RecordError,
    parse_coloring_record,
    parse_dimacs,
    serialize_coloring,
    to_dimacs,
)
from .oracle import SizeLimitError, exact_b, exact_chi, exact_gamma, exact_z
from .randgraphs import gnp
from .reduce import (
    cd_gcd_transform,
    complementary,
    greedy_coloring,
    grundy_reduce,
    iterated_z,
    z_heuristic,
)
from .verify import check_cd, check_grundy, check_proper, check_z, find_dominating_star

HEURISTICS = ("greedy", "grundy", "gcd", "z", "iz")
ORACLES = {"chi": exact_chi, "gamma": exact_gamma, "b": exact_b, "z": exact_z}
FAMILY_NAMES = ("Ht", "Ft", "Gt", "Rk", "Tk")
CHECKS = {"proper": check_proper, "grundy": check_grundy, "cd": check_cd, "z": check_z}


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dimacs(fh.read())


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def run_heuristic(g: Graph, name: str, rounds: int, seed: int):
    """Dispatch a heuristic by name; returns (coloring, required verification level)."""
    if name == "greedy":
        return greedy_coloring(g), "grundy"
    if name == "grundy":
        c, _ = grundy_reduce(g, greedy_coloring(g))
        return c, "grundy"
    if name == "gcd":
        c, _ = grundy_reduce(g, greedy_coloring(g))
        c, _ = cd_gcd_transform(g, c)
        return c, "cd"
    if name == "z":
        c, _ = z_heuristic(g)
        return c, "z"
    if name == "iz":
        c, _ = iterated_z(g, rounds, seed)
        return c, "z"
    raise ValueError(f"unknown heuristic {name!r}")


def _verification_flags(g: Graph, c):
    proper = check_proper(g, c).passed
    return {level: proper and (level == "proper" or check(g, c).passed) for level, check in CHECKS.items()}


def _level_holds(flags: dict, level: str) -> bool:
    if level == "proper":
        return flags["proper"]
    if level == "grundy":
        return flags["grundy"]
    if level == "cd":
        return flags["grundy"] and flags["cd"]
    return flags["z"]


def cmd_color(args) -> int:
    g = _load_graph(args.input)
    start = time.perf_counter()
    c, level = run_heuristic(g, args.heuristic, args.rounds, args.seed)
    if args.budget > 0 and level == "z":
        # complementary augmentation: the improved coloring is proper but
        # usually no longer a z-coloring of the original graph
        improved = complementary(g, c, budget=args.budget, rng_seed=args.seed)
        if improved.k < c.k:
            c, level = improved, "proper"
    elapsed = time.perf_counter() - start
    flags = _verification_flags(g, c)
    if not _level_holds(flags, level):
        print(f"internal error: {args.heuristic} output failed {level} verification", file=sys.stderr)
        return 1
    star = find_dominating_star(g, c) if flags["z"] else None
    record = serialize_coloring(g, c, star)
    if args.out:
        _write_text(args.out, record)
    if args.format == "record":
        if not args.out:
            sys.stdout.write(record)
    else:
        summary = " ".join(f"{k}={'ok' if v else 'NO'}" for k, v in flags.items())
        print(f"{args.input}: k={c.k} {summary} time={elapsed:.3f}s")
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.coloring, "r", encoding="ascii") as fh:
        cg = parse_coloring_record(fh.read())
    if cg.graph != g:
        print("coloring record was made for a different graph", file=sys.stderr)
        return 2
    proper = check_proper(g, cg.coloring)
    if args.level == "proper" or not proper.passed:
        verdict = proper
    else:
        verdict = CHECKS[args.level](g, cg.coloring)
    if verdict.passed:
        print(f"{args.level}: pass (k={cg.coloring.k})")
        return 0
    for violation in verdict.violations:
        print(f"violation: {violation}")
    return 1


def cmd_exact(args) -> int:
    g = _load_graph(args.input)
    oracle = ORACLES[args.param]
    start = time.perf_counter()
    try:
        result = oracle(g, args.limit) if args.limit else oracle(g)
    except SizeLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    if args.format == "record":
        sys.stdout.write(f"param {args.param}\nvalue {result.value}\n")
        sys.stdout.write(serialize_coloring(g, result.witness))
    else:
        print(f"{args.param}({args.input}) = {result.value} "
              f"(explored {result.explored} nodes, {elapsed:.3f}s)")
    return 0


def cmd_atoms_gen(args) -> int:
    start = time.perf_counter()
    catalog = generate_atoms(args.t, triangle_free=args.triangle_free, allow_large=args.allow_large)
    elapsed = time.perf_counter() - start
    _write_text(args.out, catalog_to_text(catalog))
    print(f"t={args.t} triangle_free={args.triangle_free}: "
          f"{len(catalog.atoms)} atoms written to {args.out} ({elapsed:.1f}s)", file=sys.stderr)
    return 0


def cmd_atoms_bound(args) -> int:
    g = _load_graph(args.graph)
    with open(args.catalog, "r", encoding="ascii") as fh:
        catalog = catalog_from_text(fh.read())
    verdict = prove_upper_bound(g, args.t, catalog)
    if verdict.passed:
        print(f"z({args.graph}) <= {args.t - 1} "
              f"(none of {len(catalog.atoms)} atoms embeds)")
        return 0
    idx = verdict.witness["atom_index"]
    print(f"inconclusive: atom {idx} embeds via {verdict.witness['embedding']}")
    return 1


def cmd_family_gen(args) -> int:
    made = FamilySpec(args.name, args.k).build()
    if isinstance(made, Graph):
        g, coloring, star = made, None, None
    else:
        g, coloring, star = made.graph, made.coloring, made.dominating_star
    _write_text(args.out, to_dimacs(g))
    if args.coloring_out:
        if coloring is None:
            print(f"family {args.name} has no attached coloring", file=sys.stderr)
            return 2
        _write_text(args.coloring_out, serialize_coloring(g, coloring, star))
    return 0


def _bench_instances(args):
    instances = []
    for path in args.instances:
        instances.append((path.rsplit("/", 1)[-1], _load_graph(path)))
    for spec in args.random or []:
        n_s, p_s, seed_s = spec.split(",")
        n, p, seed = int(n_s), float(p_s), int(seed_s)
        instances.append((f"gnp-{n}-{p}-{seed}", gnp(n, p, random.Random(seed))))
    return instances


def cmd_bench(args) -> int:
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    for h in heuristics:
        if h not in HEURISTICS:
            print(f"unknown heuristic {h!r}", file=sys.stderr)
            return 2
    instances = _bench_instances(args)
    rows = []
    for name, g in instances:
        cells = {}
        times = {}
        for h in heuristics:
            start = time.perf_counter()
            try:
                c, level = run_heuristic(g, h, args.rounds, args.seed)
                ok = _level_holds(_verification_flags(g, c), level)
                cells[h] = str(c.k) if ok else "error"
            except Exception:
                cells[h] = "error"
            times[h] = time.perf_counter() - start
        rows.append((name, g, cells, times))
    if args.format == "record":
        for name, g, cells, _times in rows:
            for h in heuristics:
                sys.stdout.write(f"{name} {h} {cells[h]}\n")
    else:
        width = max([8] + [len(name) for name, *_ in rows])
        header = "instance".ljust(width) + "  n     m  " + "  ".join(f"{h:>8}" for h in heuristics)
        print(header)
        for name, g, cells, times in rows:
            cols = "  ".join(f"{cells[h]:>8}" for h in heuristics)
            print(f"{name.ljust(width)}  {g.n:<4} {g.m:<4} {cols}   "
                  + " ".join(f"{times[h]:.3f}s" for h in heuristics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="color a DIMACS graph with a chosen heuristic")
    p_color.add_argument("input")
    p_color.add_argument("--heuristic", choices=HEURISTICS, default="z")
    p_color.add_argument("--rounds", type=int, default=10)
    p_color.add_argument("--budget", type=int, default=0,
                         help="tuples for the complementary augmentation pass (0 = off)")
    p_color.add_argument("--seed", type=int, default=0)
    p_color.add_argument("--out", default=None, help="write the coloring record here")
    p_color.add_argument("--format", choices=("table", "record"), default="table")
    p_color.set_defaults(func=cmd_color)

    p_verify = sub.add_parser("verify", help="check a coloring record against a graph")
    p_verify.add_argument("graph")
    p_verify.add_argument("coloring")
    p_verify.add_argument("--level", choices=tuple(CHECKS), default="z")
    p_verify.set_defaults(func=cmd_verify)

    p_exact = sub.add_parser("exact", help="exact chi/gamma/b/z by brute force (small graphs)")
    p_exact.add_argument("input")
    p_exact.add_argument("--param", choices=tuple(ORACLES), required=True)
    p_exact.add_argument("--limit", type=int, default=None, help="override the size limit")
    p_exact.add_argument("--format", choices=("table", "record"), default="table")
    p_exact.set_defaults(func=cmd_exact)

    p_atoms = sub.add_parser("atoms", help="atom catalogs and upper-bound proving")
    atoms_sub = p_atoms.add_subparsers(dest="atoms_command", required=True)
    p_gen = atoms_sub.add_parser("gen", help="generate an atom catalog")
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--triangle-free", action="store_true")
    p_gen.add_argument("--allow-large", action="store_true")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_atoms_gen)
    p_bound = atoms_sub.add_parser("bound", help="prove z(G) <= t-1 via non-embedding")
    p_bound.add_argument("graph")
    p_bound.add_argument("--t", type=int, required=True)
    p_bound.add_argument("--catalog", required=True)
    p_bound.set_defaults(func=cmd_atoms_bound)

    p_family = sub.add_parser("family", help="named graph families")
    family_sub = p_family.add_subparsers(dest="family_command", required=True)
    p_fgen = family_sub.add_parser("gen", help="emit a family member as DIMACS")
    p_fgen.add_argument("--name", choices=FAMILY_NAMES, required=True)
    p_fgen.add_argument("--k", type=int, required=True)
    p_fgen.add_argument("--out", default="-")
    p_fgen.add_argument("--coloring-out", default=None, help="also write the canonic coloring record")
    p_fgen.set_defaults(func=cmd_family_gen)

    p_bench = sub.add_parser("bench", help="per-instance, per-heuristic color counts")
    p_bench.add_argument("instances", nargs="*")
    p_bench.add_argument("--heuristics", default="greedy,z")
    p_bench.add_argument("--rounds", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--random", action="append", metavar="N,P,SEED",
                         help="add an Erdos-Renyi instance (repeatable)")
    p_bench.add_argument("--format", choices=("table", "record"), default="table")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, RecordError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
