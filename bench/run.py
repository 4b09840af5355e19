"""dismantler benchmark: the two CLI paths users run, end to end and per layer.

    python3 bench/run.py --workload dcrs-ba10k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Each workload's real CLI command runs in a
fresh process with one BLAS thread and the checkout's `src` first on the
path; its outputs go to a throwaway directory (`.bench_tmp/`) and are
checked (see checks.py). With `--trace 0` the command is repeated at least
the workload's `reps` times and until `--seconds` of timed commands have
passed, and the end-to-end metrics are the medians over those repetitions. With `--trace 1` the command runs once
untraced and once traced in-process (see spans.py), and the per-layer
metrics come from the traced run. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# write no bytecode into the checkout; everything below imports lazily
sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# numpy reads the pin when it loads; this process imports it for the checks
os.environ.update(THREAD_PIN)
sys.path.insert(0, str(SRC))

# A run must end within 180 s; children are killed at this budget.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One CLI command over a generated graph, and how to set it up.

    `dismantle` workloads run methods[0] at thetas[0]; `experiment` ones run
    every method x theta at the benchmark seed. With `from_file`, set-up
    writes the graph with `dismantler generate` and the command reads that
    file; otherwise the command generates the graph from the spec itself.
    A `--trace 0` run times the command at least `reps` times and reports
    medians; set-up is timed `setup_reps` times.
    """

    name: str
    graph: str
    methods: tuple[str, ...]
    thetas: tuple[float, ...]
    command: str = "experiment"
    epochs: int | None = None
    jobs: int | None = None
    from_file: bool = False
    reps: int = 1
    setup_reps: int = 11


WORKLOADS = {w.name: w for w in (
    # The paper's headline path at N=10k: role discovery (kNN is quadratic
    # in N) and full-batch training do nearly all the work; centrality and
    # orchestration do none. 10 epochs keep a run inside the time budget;
    # every epoch costs the same.
    Workload("dcrs-ba10k", "ba:n=10000,m=4", ("dcrs",), (0.01,),
             command="dismantle", epochs=10),
    # The batch path at N=1k on 2 threads: all seven centralities, random
    # and DCRS at two thetas, 18 tasks. Per-task graph rebuilds, per-theta
    # recomputation and small-array training overhead dominate.
    Workload("experiment-er1k", "er:n=1000,k=6",
             ("dc", "bc", "cc", "hc", "ec", "ci", "pr", "random", "dcrs"),
             (0.01, 0.1), epochs=30, jobs=2),
    # The other way round from the first two: serial, reads a 100k-node
    # edge-list file and writes 100k-row CSVs; no roles or training.
    # Edge-list parsing, union-find percolation and CSV writes dominate.
    # Its pure-Python work swings most with the machine's speed, so a run
    # takes the median of three shorter commands.
    Workload("baselines-plc100k", "plc:n=100000,m=3,p=0.1",
             ("dc", "random"), (0.01, 0.1), from_file=True, reps=3, setup_reps=3),
)}

SETUP_SNIPPET = ("import sys\nfrom dismantler.cli import resolve_input\n"
                 "resolve_input(sys.argv[1], int(sys.argv[2]))\n")
PROBE_SNIPPET = """\
import json, os, platform, dismantler, numpy
deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
blas = deps.get("blas", {})
print(json.dumps({
    "dismantler_file": os.path.abspath(dismantler.__file__),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""


class BenchError(RuntimeError):
    """The benchmark could not set up or run; no result is printed."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv: list[str], env: dict, cwd: Path, log: Path, timeout: float) -> Proc:
    """Run argv to completion; wall from spawn to exit, rusage of the child."""
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dismantler").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env(tmp)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.input = (str(tmp / f"{workload.name}-seed{seed}.txt")
                      if workload.from_file else workload.graph)
        self._graphs: dict[int, object] = {}
        self._rho_cache: dict = {}
        self.samples: dict[str, list[float]] = {}
        self._logs = 0

    def spawn(self, argv: list[str]) -> Proc:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        self._logs += 1
        return spawn(argv, self.env, self.tmp, self.tmp / f"log{self._logs}.txt", remaining)

    def log_tail(self) -> str:
        text = (self.tmp / f"log{self._logs}.txt").read_text(encoding="utf-8", errors="replace")
        return text[-2000:]

    def probe(self) -> dict:
        if self.spawn([sys.executable, "-c", PROBE_SNIPPET]).exit_code != 0:
            raise BenchError(f"cannot import dismantler from {SRC}:\n{self.log_tail()}")
        info = json.loads(self.log_tail().splitlines()[-1])
        if not Path(info["dismantler_file"]).is_relative_to(SRC):
            raise BenchError(f"dismantler resolved to {info['dismantler_file']}, not {SRC}")
        return info

    def setup_argv(self) -> list[str]:
        if not self.w.from_file:
            return [sys.executable, "-c", SETUP_SNIPPET, self.w.graph, str(self.seed)]
        kind, _, params = self.w.graph.partition(":")
        argv = [sys.executable, "-m", "dismantler", "generate", kind]
        for item in params.split(","):
            key, _, value = item.partition("=")
            argv += [f"--{key}", value]
        return argv + ["--seed", str(self.seed), "--out", self.input]

    def setup(self, reps: int) -> list[float]:
        """Build the workload's input `reps` times in fresh processes."""
        times = []
        for _ in range(reps):
            proc = self.spawn(self.setup_argv())
            if proc.exit_code != 0:
                raise BenchError(f"set-up failed:\n{self.log_tail()}")
            times.append(proc.wall_s)
        return times

    def command(self, out: Path) -> list[str]:
        w, seed = self.w, str(self.seed)
        if w.command == "dismantle":
            argv = ["dismantle", "--input", self.input, "--method", w.methods[0],
                    "--theta", repr(w.thetas[0]), "--seed", seed]
        else:
            argv = ["experiment", "--input", self.input, "--methods", ",".join(w.methods),
                    "--thetas", ",".join(map(repr, w.thetas)), "--seeds", seed]
            if w.jobs:
                argv += ["--jobs", str(w.jobs)]
        if w.epochs:
            argv += ["--epochs", str(w.epochs)]
        return argv + ["--out", str(out)]

    def graph(self, seed: int):
        if seed not in self._graphs:
            from dismantler.cli import resolve_input
            self._graphs[seed] = resolve_input(self.input, seed)
        return self._graphs[seed]

    def check(self, proc: Proc, out: Path):
        from checks import CheckResult, check_dismantle, check_experiment

        w = self.w
        tasks = 1 if w.command == "dismantle" else len(w.methods) * len(w.thetas)
        if proc.exit_code != 0:
            return CheckResult(attempted=tasks).fail_all(
                f"exit code {proc.exit_code}:\n{self.log_tail()}")
        if w.command == "dismantle":
            return check_dismantle(out, self.graph(self.seed), w.methods[0],
                                   w.thetas[0], self.seed, self._rho_cache)
        return check_experiment(out, self.graph, list(w.methods), list(w.thetas),
                                [self.seed], self._rho_cache)

    def timed(self, name: str):
        out = self.tmp / name
        proc = self.spawn([sys.executable, "-m", "dismantler", *self.command(out)])
        return proc, self.check(proc, out)

    def traced(self, name: str):
        out = self.tmp / name
        spans_path = self.tmp / f"{name}-spans.json"
        proc = self.spawn([sys.executable, str(BENCH / "spans.py"), "--out",
                           str(spans_path), "--", *self.command(out)])
        result = self.check(proc, out)
        spans = []
        if proc.exit_code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        return proc, result, spans


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics: medians over repetitions of the timed command.

    Half the set-ups are timed before the commands and half after, so that
    setup_s samples the machine over the whole run, not only its start.
    """
    setup = run.setup((run.w.setup_reps + 1) // 2)
    procs, checks = [], []
    while True:
        proc, result = run.timed(f"run{len(procs)}")
        procs.append(proc)
        checks.append(result)
        # stop after `reps` repetitions and --seconds of timed commands, or
        # before a repetition (command plus checks) would overrun the budget
        if ((len(procs) >= run.w.reps and sum(p.wall_s for p in procs) >= seconds)
                or run.deadline - time.perf_counter() < 2 * proc.wall_s):
            break
    setup += run.setup(run.w.setup_reps // 2)
    run.samples = {"wall_s": [p.wall_s for p in procs], "setup_s": setup}
    rhos = [tuple(c.rhos) for c in checks if not c.failed]
    if len(set(rhos)) > 1:
        checks[-1].errors.append(f"rho differs between repetitions: {rhos}")
        checks[-1].failed = checks[-1].attempted
    rho = rhos[0] if rhos else ()
    metrics = {
        "wall_s": (median([p.wall_s for p in procs]), "s"),
        "cpu_s": (median([p.cpu_s for p in procs]), "s"),
        "peak_rss_mb": (median([p.peak_rss_mb for p in procs]), "MB"),
        "setup_s": (median(setup), "s"),
        "rho_mean": (sum(rho) / len(rho) if rho else 0.0, "fraction"),
    }
    return metrics, checks


LAYER_UNITS = {"_s": "s", "_mb": "MB", "reuse": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def trace(run: Run) -> tuple[dict, list]:
    """Per-layer metrics from a traced run, checked against an untraced one."""
    from spans import consistency_errors, layer_metrics

    run.setup(1)
    plain, plain_check = run.timed("untraced")
    traced, traced_check, spans = run.traced("traced")
    if not traced_check.failed and traced_check.rhos != plain_check.rhos:
        traced_check.fail_all(f"traced rho {traced_check.rhos} != untraced "
                              f"{plain_check.rhos}")
    if traced.exit_code == 0:
        errors = consistency_errors(spans)
        if errors:
            traced_check.fail_all("; ".join(errors[:5]))
    metrics = {name: (value, layer_unit(name))
               for name, value in layer_metrics(spans).items()}
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics, [plain_check, traced_check]


def environment(probe: dict) -> dict:
    return {
        **probe,
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "platform": platform.platform(),
        "thread_pin": THREAD_PIN,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def bench(workload: Workload, seed: int, seconds: float, traced: bool):
    """One run: (metrics {name: (value, unit)}, check results, environment)."""
    loadavg_start = os.getloadavg()
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        run = Run(workload, seed, tmp)
        env = environment(run.probe())
        metrics, checks = trace(run) if traced else measure(run, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    env.update(loadavg_start=loadavg_start, loadavg_end=os.getloadavg(),
               samples=run.samples)
    return metrics, checks, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dismantler benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and the
    # output directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dismantler" / "__init__.py").is_file():
        print(f"bench: no dismantler package under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, checks, env = bench(WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for error in c.errors:
            print(f"check failed: {error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {failed / attempted!r} fraction ({failed}/{attempted} tasks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
