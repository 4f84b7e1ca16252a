"""Benchmark of the four ``zcolor`` commands: color, atoms gen, atoms bound, exact.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {color,atoms,bound,exact,all} \\
        --seed N --seconds S --trace {0,1}

Each job is the real command driven in-process through
``zcoloring.cli.main(argv)``.  One pass runs the workload's fixed job list;
passes repeat for about S seconds.  The first pass is checked by
``check.py``; later passes must repeat its exit codes and outputs byte for
byte.

Times are corrected for the speed of a shared host, which drifts by tens of
percent within seconds and minutes: a fixed pure-Python reference loop is
timed every 50 ms during a pass, and each job's wall time is scaled by the
ratio of the loop's nominal time to its mean time around and during the
job (see ``HostSpeed``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``colors_sum``.  With ``--trace 1`` untraced and traced passes alternate and
the JSON holds the per-layer metrics of ``tracing.py`` and the tracing
overhead.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 11
PROBE = "import sys; sys.path.insert(0, 'src'); import zcoloring.cli; zcoloring.cli.build_parser()"
# fastest time of reference_seconds() on an idle 2-vCPU cloud VM, Python 3.11
REF_NOMINAL_S = 0.00048
SAMPLE_EVERY_S = 0.05


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: integer arithmetic, list and dict access."""
    start = time.perf_counter()
    acc, table, items = 0, {}, list(range(64))
    for i in range(4000):
        acc = (acc + items[i & 63] * i) % 1000003
        table[i & 255] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed over a pass.

    One reading of the reference loop is taken on entry and on exit, and a
    SIGALRM handler takes one every SAMPLE_EVERY_S seconds in between, also
    while a job runs, so a long job is corrected by the speed over its whole
    run and a short one by the readings next to it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(reference_seconds())

    def __enter__(self):
        self.samples.append(reference_seconds())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference_seconds())

    def corrected(self, elapsed: float, begin: int, end: int) -> float:
        """Time at nominal speed of a job that ran while samples[begin:end] were taken.

        The handler's own time is removed; the speed is the mean over those
        samples and the one on each side.
        """
        readings = self.samples[begin - 1:end + 1]
        return (elapsed - sum(self.samples[begin:end])) * REF_NOMINAL_S * len(readings) / sum(readings)


def speed_reading() -> float:
    return statistics.median(reference_seconds() for _ in range(5))


def measure_setup() -> float:
    """Median corrected time of fresh processes that only set up."""
    times = []
    ref = speed_reading()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = speed_reading()
        times.append(elapsed * 2 * REF_NOMINAL_S / (ref + after))
        ref = after
    return statistics.median(times)


def run_job(cli, job) -> tuple[int | str, str, float]:
    """(exit code or error text, stdout, seconds) of one in-process command."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash counts as a failed job, not a failed benchmark
        code = f"raised {exc!r}"
    return code, out.getvalue(), time.perf_counter() - start


class Timings:
    """Per-job times over passes, corrected for host speed and as measured,
    and each pass's mean speed factor (nominal over measured reference time)."""

    def __init__(self, jobs):
        self.corrected: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.raw: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.speed: list[float] = []

    @staticmethod
    def job_list(times: dict[str, list[float]]) -> float:
        """Time of one pass over the job list, from each job's fastest pass.

        What the correction misses is mostly extra time: in a slow period
        the program slows somewhat more than the small reference loop, and
        the first pass also pays for warm-up.  So the fastest of a job's
        passes is its steadiest estimate.
        """
        return sum(min(ts) for ts in times.values())


class Runner:
    """Runs passes over a job list, checks the first and compares the rest."""

    def __init__(self, cli, jobs):
        self.cli, self.jobs = cli, jobs
        self.timings = Timings(jobs)
        self.digests: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.colors = 0
        self.attempted = 0
        self.failed = 0

    def run_pass(self, timings: Timings | None = None) -> float:
        """Run every job once; returns the pass's duration as measured."""
        timings = timings or self.timings
        first = not self.digests
        outs, spans = {}, []
        start = time.perf_counter()
        with HostSpeed() as speed:
            for job in self.jobs:
                begin = len(speed.samples)
                code, out, elapsed = run_job(self.cli, job)
                spans.append((job.name, elapsed, begin, len(speed.samples)))
                self.record(job, code, out, first, outs)
        duration = time.perf_counter() - start
        for name, elapsed, begin, end in spans:
            timings.raw[name].append(elapsed)
            timings.corrected[name].append(speed.corrected(elapsed, begin, end))
        timings.speed.append(REF_NOMINAL_S * len(speed.samples) / sum(speed.samples))
        if first:
            self._check(outs)
        return duration

    def record(self, job, code, out, first: bool, outs: dict) -> None:
        """Count the run; keep the first pass's output, compare later ones to it."""
        self.attempted += 1
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        if first:
            self.digests[job.name] = digest
            outs[job.name] = (code, out)
        elif digest != self.digests[job.name]:
            self.errors.setdefault(job.name, "output differs from the first pass")
            self.failed += 1
        elif job.name in self.errors:
            self.failed += 1

    def _check(self, outs: dict) -> None:
        stdouts = {name: out for name, (_, out) in outs.items()}
        for job in self.jobs:
            code, out = outs[job.name]
            if isinstance(code, str):
                self.errors[job.name] = code
                continue
            try:
                err, colors = job.check(code, out, stdouts)
            except Exception as exc:  # unreadable output
                err, colors = f"check raised {exc!r}", 0
            self.colors += colors
            if err is not None:
                self.errors[job.name] = err
        self.failed += len(self.errors)


def measure(runner: Runner, seconds: float) -> dict:
    spent = 0.0
    while True:
        last = runner.run_pass()
        spent += last
        if spent + last > seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": (Timings.job_list(runner.timings.corrected), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MiB"),
        "colors_sum": (runner.colors, "colors"),
    }


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    traced = Timings(runner.jobs)
    works, self_times, problems = [], [], []
    spent = 0.0
    while True:
        spent += runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            last = runner.run_pass(traced)
        finally:
            tracer.uninstall()
        spent += last
        works.append(tracer.work())
        self_times.append({name: t * traced.speed[-1] for name, t in tracer.self_s.items()})
        if spent + 2 * last > seconds:
            break
    work = works[0]
    if any(w != work for w in works[1:]):
        problems.append("call counts or work counters differ between traced passes")
    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = (work[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (min(s.get(name, 0.0) for s in self_times), "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(metrics[f"{name}.self_s"][0] for name in tracing.FUNCTIONS if name.startswith(layer + ".")), "s")
    for counter in tracing.COUNTERS:
        metrics[counter] = (work[counter], "count")

    def ratio(part: str, base: str) -> float:
        return work[part] / work[base] if work[base] else 0.0

    metrics["oracle.z_reaches.true_frac"] = (ratio("oracle.z_reaches.true", "oracle.z_reaches.calls"), "ratio")
    metrics["canon.distinct_frac"] = (ratio("canon.distinct", "canon.colored_canonical_form.calls"), "ratio")
    metrics["atoms.embed.found_frac"] = (ratio("atoms.embed.found", "atoms.embed.calls"), "ratio")
    traced_wall = Timings.job_list(traced.corrected)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - Timings.job_list(runner.timings.corrected), "s")
    return metrics, problems


def run_all(args) -> int:
    """Every workload in a fresh process, one after another; their metrics
    are combined under ``<workload>.<metric>`` names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "zcoloring" / "cli.py").is_file() or not (ROOT / "catalogs").is_dir():
        print(f"error: {ROOT} holds no src/zcoloring package or catalogs/ directory", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from zcoloring import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported zcoloring from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = WORKLOADS[args.workload](Inputs(args.workload, args.seed, workdir))
        runner = Runner(cli, jobs)
        problems = []
        if args.trace:
            metrics, problems = measure_traced(runner, args.seconds)
        else:
            metrics = measure(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for name, error in runner.errors.items():
        print(f"FAILED {name}: {error}")
    for problem in problems:
        print(f"FAILED {problem}")
    passes = runner.attempted // len(jobs)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {passes} passes, "
          f"job list {Timings.job_list(runner.timings.raw):.6g} s as measured")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} ratio ({runner.failed} of {runner.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
