"""The four workloads, one per ``zcolor`` command, as fixed job lists.

A job is one ``zcolor`` argument list plus a check of its exit code and
standard output.  Inputs are written as DIMACS files into a work directory;
only the seed decides them.  Sizes are chosen so that one pass over a job
list takes a few seconds and its total work varies little from seed to
seed: many mid-sized random hosts rather than a few large ones, and
G(n, m) (edge count fixed) rather than G(n, p) where instance hardness
depends steeply on the edge count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
CATALOGS = ROOT / "catalogs"
T4_CATALOG = CATALOGS / "d4_trianglefree.catalog"

# criterion-1 table of the paper's examples: graph -> {param: value}
TABLE = {
    "P5": {"z": 3},
    "C6": {"z": 3},
    "K44-4K2": {"z": 4},
    "K55-4K2": {"z": 2},
    "H3": {"gamma": 4, "b": 2},
    "F4": {"b": 4},
}
PARAMS = ("chi", "gamma", "b", "z")


@dataclass
class Job:
    name: str
    argv: list[str]
    # (exit code, stdout, stdouts of the pass by job name) -> (error or None, colors)
    check: Callable[[int, str, dict], tuple[str | None, int]]


class Inputs:
    """Writes the seed's host files into `workdir`."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir

    def rng(self, label: str) -> random.Random:
        return gen.rng_for(self.workload, self.seed, label)

    def host(self, label: str, n: int, edges) -> tuple[str, int, list[tuple[int, int]]]:
        """Write a host file; returns (path relative to the checkout, n, edges)."""
        path = self.workdir / f"{label}.col"
        path.write_text(gen.dimacs(n, edges, label), encoding="ascii")
        return str(path.relative_to(ROOT)), n, edges

    def fixed(self, name: str) -> tuple[str, int, list[tuple[int, int]]]:
        """A family host from hosts/, copied so the program reads it like the others."""
        return self.host(name, *gen.read_host(name))


# ---------------------------------------------------------------------------
# color: the reduction pipeline, where reduce and verify do the work


def color_jobs(inp: Inputs) -> list[Job]:
    jobs = []
    iz = ["--heuristic", "iz", "--rounds", "4", "--seed", str(inp.seed)]

    def coloring(label: str, host, flags: list[str], level: str) -> Job:
        path, n, edges = host

        def run_check(code, out, _outs):
            if code != 0:
                return f"exit {code}", 0
            return check.color_error(out, n, edges, level)

        return Job(label, ["color", path, "--format", "record", *flags], run_check)

    def budget(label: str, plain: str, host, tuples: int) -> Job:
        # complementary keeps the z-coloring unless it finds strictly fewer
        # colors, and then promises only properness
        path, n, edges = host

        def run_check(code, out, outs):
            if code != 0:
                return f"exit {code}", 0
            err, k = check.color_error(out, n, edges, "proper")
            base = check.parse_record(outs[plain])["k"]
            if err is None and check.parse_record(out)["star"] is None and k >= base:
                err = f"complementary returned k={k} without improving on k={base}"
            elif err is None and k > base:
                err = f"complementary made k={k} from k={base}"
            return err, k

        return Job(label, ["color", path, "--format", "record", "--heuristic", "z",
                           "--budget", str(tuples), "--seed", str(inp.seed)], run_check)

    hosts = []
    # sparse hosts: the pipeline ends after greedy and the two reductions
    for i in range(3):
        label = f"sparse{i}-gnp1000"
        hosts.append((label, inp.host(label, 1000, gen.gnp(1000, 0.01, inp.rng(label)))))
    # dense hosts: several z_transform rounds, each re-deriving CD sets
    for i in range(12):
        label = f"dense{i}-gnm200"
        hosts.append((label, inp.host(label, 200, gen.gnm(200, 5000, inp.rng(label)))))
    hosts += [(name, inp.fixed(name)) for name in ("G5", "G6", "T7", "T8")]
    for label, host in hosts:
        jobs.append(coloring(f"z {label}", host, ["--heuristic", "z"], "z"))
        jobs.append(coloring(f"iz {label}", host, iz, "z"))
    # complementary augmentation on small hosts, next to the plain z run it starts from
    for i in range(3):
        label = f"small{i}-gnm60"
        host = inp.host(label, 60, gen.gnm(60, 300, inp.rng(label)))
        jobs.append(coloring(f"z {label}", host, ["--heuristic", "z"], "z"))
        jobs.append(budget(f"budget {label}", f"z {label}", host, 40))
    return jobs


# ---------------------------------------------------------------------------
# atoms: catalog generation, where the oracle's z search does the work


def atoms_jobs(inp: Inputs) -> list[Job]:
    # the catalogs take no random input; the seed changes nothing here
    runs = [
        ("gen t3", ["--t", "3"], "d3.catalog"),
        ("gen t4 triangle-free", ["--t", "4", "--triangle-free"], "d4_trianglefree.catalog"),
        ("gen t4 allow-large", ["--t", "4", "--allow-large"], "d4_full.catalog"),
    ]
    jobs = []
    for label, flags, catalog in runs:
        def run_check(code, out, _outs, path=CATALOGS / catalog):
            if code != 0:
                return f"exit {code}", 0
            return check.catalog_error(out, path)

        jobs.append(Job(label, ["atoms", "gen", *flags, "--out", "-"], run_check))
    return jobs


# ---------------------------------------------------------------------------
# bound: the non-embedding prover, where atoms.embed does the work


def bound_jobs(inp: Inputs) -> list[Job]:
    catalog = check.parse_catalog(T4_CATALOG.read_text(encoding="ascii"))
    hosts = []
    # an atom embeds only after the earlier atoms are refuted
    for i in range(10):
        label = f"tree{i}-80"
        hosts.append((label, inp.host(label, 80, gen.cubic_tree(80, inp.rng(label)))))
    hosts += [(name, inp.fixed(name)) for name in ("T6", "T7")]
    # no atom embeds, so every atom is refuted and z <= 3 is certified
    for i in range(10):
        label = f"subdivided{i}-gnm150"
        hosts.append((label, inp.host(label, *gen.subdivided_gnm(150, 225, inp.rng(label)))))
    jobs = []
    for label, (path, n, edges) in hosts:
        adj = check.adjacency(n, edges)

        def run_check(code, out, _outs, adj=adj):
            return check.bound_error(code, out, catalog, adj, 4)

        jobs.append(Job(f"bound {label}",
                        ["atoms", "bound", path, "--t", "4", "--catalog", str(T4_CATALOG.relative_to(ROOT))],
                        run_check))
    return jobs


# ---------------------------------------------------------------------------
# exact: the oracles, the only workload that runs the Grundy, b and chi searches


def exact_jobs(inp: Inputs) -> list[Job]:
    graphs = []
    for n, m, count in ((10, 18, 30), (11, 20, 30), (12, 20, 6)):
        for i in range(count):
            label = f"gnm{n}-{m}-{i}"
            graphs.append((label, *inp.host(label, n, gen.gnm(n, m, inp.rng(label))), {}))
    for name, expected in TABLE.items():
        graphs.append((name, *inp.fixed(name), expected))
    jobs = []
    for label, path, n, edges, expected in graphs:
        adj = check.adjacency(n, edges)
        names = {p: f"{p} {label}" for p in PARAMS}
        for param in PARAMS:
            def run_check(code, out, outs, adj=adj, param=param, names=names, expected=expected):
                if code != 0:
                    return f"exit {code}", 0
                err, value = check.exact_error(out, adj, param)
                if err is None and param in expected and value != expected[param]:
                    err = f"{param} = {value}, the paper's table says {expected[param]}"
                if err is None and param == "z":
                    values = {p: check.parse_record(outs[names[p]])["value"] for p in PARAMS}
                    err = check.inequality_error(values)
                return err, value

            jobs.append(Job(names[param], ["exact", path, "--param", param, "--format", "record"], run_check))
    return jobs


WORKLOADS = {"color": color_jobs, "atoms": atoms_jobs, "bound": bound_jobs, "exact": exact_jobs}
