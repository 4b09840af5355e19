"""Output checks for one dismantler CLI run.

Every task's `report.json` must have the documented keys and types, its
`tas_size` must equal the number of `curve.csv` rows, and the curve must
cross theta exactly at the last row. Where the command wrote a
`scores.csv`, rho is recomputed from it with the program's own
`minimal_prefix_tas` and must equal the reported rho. For `experiment`,
`runs.csv` and `summary.csv` must hold one row per requested task and per
(method, theta). A task that errored or failed a check counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPORT_TYPES = {"method": str, "theta": float, "tas_size": int, "rho": float,
                "auc": float, "num_nodes": int, "num_edges": int, "seed": int}
RUN_FIELDS = ["network", "method", "theta", "seed", "tas_size", "rho", "auc",
              "status", "error"]
SUMMARY_FIELDS = ["method", "theta", "runs", "mean_rho", "std_rho"]


@dataclass
class CheckResult:
    """Outcome of checking one command's outputs."""

    attempted: int
    failed: int = 0
    rhos: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail_all(self, message: str) -> "CheckResult":
        self.failed = self.attempted
        self.errors.append(message)
        return self


def _read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _is(value, kind) -> bool:
    # bool is an int subclass; JSON true/false is never a valid field here
    return isinstance(value, kind) and not isinstance(value, bool)


def recomputed_rho(graph, scores_path: Path, theta: float, seed: int,
                   cache: dict | None) -> float:
    """rho that `minimal_prefix_tas` gives for the scores in `scores_path`.

    `cache` maps (seed, theta, scores.csv digest) to rho across the checks of
    one run, whose graph is fixed per seed: a repeated command writes the
    same scores, and this spares recomputing them.
    """
    from dismantler.cli import read_scores_csv
    from dismantler.dismantle import minimal_prefix_tas

    cache = {} if cache is None else cache
    key = (seed, theta, hashlib.sha256(scores_path.read_bytes()).hexdigest())
    if key not in cache:
        cache[key] = minimal_prefix_tas(graph, read_scores_csv(scores_path, graph), theta).rho
    return cache[key]


def check_task_dir(task_dir: Path, graph, method: str, theta: float,
                   seed: int, rho_cache: dict | None = None) -> list[str]:
    """Errors in one task directory (report.json, curve.csv, scores.csv)."""
    where = task_dir.name
    try:
        report = json.loads((task_dir / "report.json").read_text(encoding="utf-8"))
        curve = [float(r["ngcc"]) for r in _read_rows(task_dir / "curve.csv")[1]]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{where}: unreadable output: {exc}"]
    if set(report) != set(REPORT_TYPES):
        return [f"{where}: report.json keys {sorted(report)}"]
    errors = [f"{where}: report.json {key} is {type(report[key]).__name__}"
              for key, kind in REPORT_TYPES.items() if not _is(report[key], kind)]
    if errors:
        return errors
    n, k = report["num_nodes"], report["tas_size"]
    if (report["method"], report["theta"], report["seed"]) != (method, theta, seed):
        errors.append(f"{where}: report is for {report['method']} theta "
                      f"{report['theta']} seed {report['seed']}")
    if (n, report["num_edges"]) != (graph.num_nodes, graph.num_edges):
        errors.append(f"{where}: report graph size {n}/{report['num_edges']}")
    if report["rho"] != k / n:
        errors.append(f"{where}: rho {report['rho']} != tas_size/num_nodes")
    if len(curve) != k:
        errors.append(f"{where}: tas_size {k} but {len(curve)} curve rows")
    else:
        # back to component sizes, compared as the program does: size <= theta * N
        within = [round(v * n) <= theta * n for v in curve]
        if within and (not within[-1] or any(within[:-1])):
            errors.append(f"{where}: curve does not first reach theta at row {k}")
        if not math.isclose(sum(curve), report["auc"], rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"{where}: auc {report['auc']} != curve sum {sum(curve)}")
    scores_path = task_dir / "scores.csv"
    if scores_path.exists():
        try:
            rho = recomputed_rho(graph, scores_path, theta, seed, rho_cache)
        except ValueError as exc:
            return errors + [f"{where}: unreadable scores.csv: {exc}"]
        if rho != report["rho"]:
            errors.append(f"{where}: rho {report['rho']} but scores.csv gives {rho}")
    return errors


def check_dismantle(out_dir: Path, graph, method: str, theta: float,
                    seed: int, rho_cache: dict | None = None) -> CheckResult:
    """Check the single task of a `dismantle` command."""
    result = CheckResult(attempted=1)
    errors = check_task_dir(out_dir, graph, method, theta, seed, rho_cache)
    if errors:
        return result.fail_all("; ".join(errors))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    result.rhos.append(report["rho"])
    return result


def check_experiment(out_root: Path, graph_for_seed: Callable[[int], object],
                     methods: list[str], thetas: list[float],
                     seeds: list[int], rho_cache: dict | None = None) -> CheckResult:
    """Check runs.csv, summary.csv and every task directory of `experiment`."""
    tasks = {(m, t, s) for m in methods for t in thetas for s in seeds}
    result = CheckResult(attempted=len(tasks))
    try:
        run_fields, rows = _read_rows(out_root / "runs.csv")
        summary_fields, summary = _read_rows(out_root / "summary.csv")
        if run_fields != RUN_FIELDS or summary_fields != SUMMARY_FIELDS:
            return result.fail_all(f"table columns {run_fields} / {summary_fields}")
        by_task = {(r["method"], float(r["theta"]), int(r["seed"])): r for r in rows}
    except (OSError, ValueError) as exc:
        return result.fail_all(f"unreadable table: {exc}")
    if len(rows) != len(tasks) or set(by_task) != tasks:
        return result.fail_all(f"runs.csv has {len(rows)} rows for {len(tasks)} tasks")
    if len(summary) != len(methods) * len(thetas):
        return result.fail_all(f"summary.csv has {len(summary)} rows for "
                               f"{len(methods) * len(thetas)} (method, theta)")

    reports = {}
    for path in out_root.rglob("report.json"):
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            reports[(report["method"], report["theta"], report["seed"])] = path.parent
        except (ValueError, KeyError, TypeError):
            continue  # its task then has no report
    ok_rho: dict[tuple[str, float], list[float]] = {}
    for key in sorted(tasks):
        method, theta, seed = key
        row = by_task[key]
        if row["status"] != "ok":
            errors = [f"{method} theta {theta} seed {seed}: {row['error']}"]
        elif key not in reports:
            errors = [f"{method} theta {theta} seed {seed}: no report.json"]
        else:
            errors = check_task_dir(reports[key], graph_for_seed(seed), method, theta,
                                    seed, rho_cache)
            report = json.loads((reports[key] / "report.json").read_text(encoding="utf-8"))
            if not errors and (row["tas_size"], row["rho"]) != (
                    str(report["tas_size"]), str(report["rho"])):
                errors.append(f"{method} theta {theta} seed {seed}: runs.csv row "
                              "disagrees with report.json")
        if errors:
            result.failed += 1
            result.errors.extend(errors)
        else:
            result.rhos.append(float(row["rho"]))
            ok_rho.setdefault((method, theta), []).append(float(row["rho"]))

    for row in summary:
        try:
            rhos = ok_rho[(row["method"], float(row["theta"]))]
            agrees = int(row["runs"]) == len(seeds) and math.isclose(
                float(row["mean_rho"]), sum(rhos) / len(rhos), rel_tol=1e-12)
        except (KeyError, ValueError):
            agrees = False
        if not agrees:
            result.errors.append(f"summary.csv row {row} does not match runs.csv")
            result.failed = result.attempted
    return result
