"""Command-line interface.

Subcommands: color, verify, exact, atoms gen|bound, family gen, bench.
Exit codes: 0 success / property holds, 1 verification or bound failure,
2 usage or parse errors.  All randomized behavior is driven by --seed, and
the machine-readable "record" format never includes timings, so a fixed seed
gives byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import random
import sys
import time

from .atoms import catalog_from_text, catalog_to_text, generate_atoms, prove_upper_bound
from .families import FamilySpec
from .graphs import (
    MAX_ORDER,
    DimacsError,
    Graph,
    RecordError,
    parse_coloring_record,
    parse_dimacs,
    serialize_coloring,
    to_dimacs,
)
from .oracle import check_limit, exact_b, exact_chi, exact_gamma, exact_z
from .randgraphs import gnp
from .reduce import (
    cd_gcd_transform,
    complementary,
    greedy_coloring,
    iterated_z,
    z_heuristic,
)
from .verify import LEVELS, Verdict, Violation, check_all, check_level, verify_star

HEURISTICS = ("greedy", "grundy", "gcd", "z", "iz")
ORACLES = {"chi": exact_chi, "gamma": exact_gamma, "b": exact_b, "z": exact_z}
# what each oracle's `explored` counts (see OracleResult)
EXPLORED_UNITS = {"chi": "nodes", "gamma": "subsets", "b": "nodes", "z": "nodes"}
# each oracle's default size limit, for `exact` without --limit
DEFAULT_LIMITS = {name: inspect.signature(f).parameters["limit_n"].default for name, f in ORACLES.items()}
FAMILY_NAMES = ("Ht", "Ft", "Gt", "Rk", "Tk")


def _load_graph(path: str, check_n=None) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dimacs(fh.read(), check_n)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def run_heuristic(g: Graph, name: str, rounds: int, seed: int):
    """Dispatch a heuristic by name; returns (coloring, required verification level)."""
    # first-fit output is Grundy already, so `grundy` is `greedy`
    if name in ("greedy", "grundy"):
        return greedy_coloring(g), "grundy"
    if name == "gcd":
        c, _ = cd_gcd_transform(g, greedy_coloring(g))
        return c, "cd"
    if name == "z":
        c, _ = z_heuristic(g)
        return c, "z"
    if name == "iz":
        c, _ = iterated_z(g, rounds, seed)
        return c, "z"
    raise ValueError(f"unknown heuristic {name!r}")


def _verify_output(g: Graph, c, level: str):
    """One verification pass over c: whether it meets `level` (its verdict
    and those of the levels before it in LEVELS), and check_all's verdicts."""
    verdicts = check_all(g, c)
    return all(verdicts[name] for name in LEVELS[: LEVELS.index(level) + 1]), verdicts


def cmd_color(args) -> int:
    if args.budget < 0:
        print(f"color: --budget must be >= 0, got {args.budget}", file=sys.stderr)
        return 2
    if args.budget and args.heuristic not in ("z", "iz"):
        print(f"color: --budget needs --heuristic z or iz, got {args.heuristic}", file=sys.stderr)
        return 2
    g = _load_graph(args.input)
    start = time.perf_counter()
    try:
        c, level = run_heuristic(g, args.heuristic, args.rounds, args.seed)
        if args.budget:
            # complementary augmentation: the improved coloring is proper but
            # usually no longer a z-coloring of the original graph
            improved = complementary(g, c, budget=args.budget, rng_seed=args.seed)
            if improved.k < c.k:
                c, level = improved, "proper"
    except RuntimeError as exc:
        # the round guard of z_transform; no known input reaches it
        print(f"internal error: {args.heuristic}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    ok, verdicts = _verify_output(g, c, level)
    if not ok:
        print(f"internal error: {args.heuristic} output failed {level} verification", file=sys.stderr)
        return 1
    if args.out or args.format == "record":
        z = verdicts["z"]
        _write_text(args.out or "-", serialize_coloring(g, c, z.witness["star"] if z else None))
    if args.format != "record":
        summary = " ".join(f"{k}={'ok' if v else 'NO'}" for k, v in verdicts.items())
        print(f"{args.input}: k={c.k} {summary} time={elapsed:.3f}s")
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.coloring, "r", encoding="ascii") as fh:
        cg = parse_coloring_record(fh.read())
    if cg.graph != g:
        print("coloring record was made for a different graph", file=sys.stderr)
        return 2
    verdict = check_level(g, cg.coloring, args.level)
    star = cg.dominating_star
    # a z-coloring record's star is a claim of its own
    if verdict and args.level == "z" and star is not None and not verify_star(g, cg.coloring, star):
        verdict = Verdict(False, [Violation("invalid-star")])
    if verdict.passed:
        print(f"{args.level}: pass (k={cg.coloring.k})")
        return 0
    for violation in verdict.violations:
        print(f"violation: {violation}")
    return 1


def cmd_exact(args) -> int:
    oracle = ORACLES[args.param]
    limit = DEFAULT_LIMITS[args.param] if args.limit is None else args.limit
    # the problem line's vertex count meets the limit before the graph is built
    g = _load_graph(args.input, lambda n: check_limit(n, limit, f"exact_{args.param}"))
    start = time.perf_counter()
    result = oracle(g, limit)
    elapsed = time.perf_counter() - start
    if args.format == "record":
        sys.stdout.write(f"param {args.param}\nvalue {result.value}\n")
        sys.stdout.write(serialize_coloring(g, result.witness))
    else:
        print(f"{args.param}({args.input}) = {result.value} "
              f"(explored {result.explored} {EXPLORED_UNITS[args.param]}, {elapsed:.3f}s)")
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
    if args.coloring_out and coloring is None:
        print(f"family {args.name} has no attached coloring", file=sys.stderr)
        return 2
    _write_text(args.out, to_dimacs(g))
    if args.coloring_out:
        _write_text(args.coloring_out, serialize_coloring(g, coloring, star))
    return 0


def _bench_instances(args):
    instances = []
    for path in args.instances:
        instances.append((path.rsplit("/", 1)[-1], _load_graph(path)))
    for spec in args.random or []:
        try:
            n_s, p_s, seed_s = spec.split(",")
            n, p, seed = int(n_s), float(p_s), int(seed_s)
        except ValueError:
            raise ValueError(f"bench: --random {spec}: expected N,P,SEED: integer N, probability P, integer SEED") from None
        # gnp draws once per vertex pair, whatever p is
        if n > 1 and n * (n - 1) // 2 > MAX_ORDER:
            raise ValueError(f"bench: --random {spec}: {n} vertices have more than {MAX_ORDER} pairs")
        try:
            g = gnp(n, p, random.Random(seed))
        except ValueError as err:
            raise ValueError(f"bench: --random {spec}: {err}") from None
        instances.append((f"gnp-{n}-{p}-{seed}", g))
    return instances


def cmd_bench(args) -> int:
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    if not heuristics:
        print(f"bench: --heuristics {args.heuristics!r} names no heuristic", file=sys.stderr)
        return 2
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
                cells[h] = str(c.k) if _verify_output(g, c, level)[0] else "error"
            except RuntimeError:
                # the round guard of z_transform, as in `color`
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The zcolor argument parser, built once per process and shared."""
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
    p_verify.add_argument("--level", choices=LEVELS, default="z")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, RecordError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
