"""Command-line experiment driver.

Subcommands: generate, rank, dismantle, experiment, ablate. Inputs are
either edge-list files or generator specs like "ba:n=1000,m=4". All runs
are deterministic given their arguments; DISMANTLER_SEED provides the
default seed. The experiment command builds each seed's graph once, scores
each (method, seed) once, and reads every theta off that ranking's one
collapse trajectory; it writes one output directory per method x seed x
theta run and emits runs.csv / summary.csv. The ablate command trains all
three DCRS variants, so it takes no --ablation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from dismantler.centrality import (
    betweenness,
    closeness,
    collective_influence,
    degree,
    eigenvector,
    harmonic,
    pagerank,
)
from dismantler.dismantle import (
    DismantleReport,
    minimal_prefix_tas,
    random_scores,
    reports_at,
)
from dismantler.graph import (
    Graph,
    generate_ba,
    generate_er,
    generate_plc,
    generate_ws,
    load_edge_list,
    save_edge_list,
)
from dismantler.model import ABLATIONS, DcrsConfig, run_dcrs
from dismantler.roles import discover_role_graph

METHODS = ("dc", "bc", "cc", "ec", "hc", "ci", "pr", "dcrs", "random")


def default_seed() -> int:
    return int(os.environ.get("DISMANTLER_SEED", "0"))


# each generator's parameters; n and m are counts and must be integers
_GENERATOR_PARAMS = {"er": ("n", "k"), "ba": ("n", "m"), "ws": ("n", "m", "p"),
                     "plc": ("n", "m", "p")}


def parse_generator_spec(spec: str) -> dict:
    """Parse "ba:n=1000,m=4" style generator specs.

    Every parameter of the generator must be given, no other, and the
    counts n and m must be integers; anything else raises ValueError.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(f"unknown generator '{kind}' in spec '{spec}'")
    names = _GENERATOR_PARAMS[kind]
    params: dict[str, float] = {}
    for item in filter(None, (p.strip() for p in rest.split(","))):
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"malformed generator parameter '{item}'")
        if key not in names:
            raise ValueError(f"unknown parameter '{key}' for generator '{kind}' in spec '{spec}'")
        number = float(value)
        if key in ("n", "m"):
            if not number.is_integer():
                raise ValueError(f"'{key}' must be an integer in spec '{spec}'")
            number = int(number)
        params[key] = number
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"generator '{kind}' needs {', '.join(missing)} in spec '{spec}'")
    return {"kind": kind, **params}


def generate_from_spec(spec: str, seed: int) -> Graph:
    params = parse_generator_spec(spec)
    kind = params.pop("kind")
    if kind == "er":
        return generate_er(params["n"], params["k"], seed)
    if kind == "ba":
        return generate_ba(params["n"], params["m"], seed)
    if kind == "ws":
        return generate_ws(params["n"], params["m"], params["p"], seed)
    return generate_plc(params["n"], params["m"], params["p"], seed)


def resolve_input(input_spec: str, seed: int) -> Graph:
    """Load an edge-list file, or generate a graph from a spec string."""
    if ":" in input_spec and not os.path.exists(input_spec):
        return generate_from_spec(input_spec, seed)
    return load_edge_list(input_spec)


def network_name(input_spec: str, seed: int) -> str:
    if ":" in input_spec and not os.path.exists(input_spec):
        params = parse_generator_spec(input_spec)
        kind = params.pop("kind")
        tail = "_".join(f"{k}{v:g}" for k, v in sorted(params.items()))
        return f"{kind}_{tail}_seed{seed}"
    return Path(input_spec).stem


def compute_scores(g: Graph, method: str, seed: int, ci_radius: int = 2,
                   dcrs_config: DcrsConfig | None = None) -> np.ndarray:
    if method == "dc":
        return degree(g)
    if method == "bc":
        return betweenness(g)
    if method == "cc":
        return closeness(g)
    if method == "hc":
        return harmonic(g)
    if method == "ec":
        return eigenvector(g)
    if method == "ci":
        return collective_influence(g, ell=ci_radius)
    if method == "pr":
        return pagerank(g)
    if method == "random":
        return random_scores(g.num_nodes, seed)
    if method == "dcrs":
        config = dcrs_config or DcrsConfig(seed=seed)
        return run_dcrs(g, config).s_dis
    raise ValueError(f"unknown method '{method}'")


def write_scores_csv(path, g: Graph, scores: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "score"])
        for i in range(g.num_nodes):
            writer.writerow([g.labels[i], repr(float(scores[i]))])


def write_dcrs_scores_csv(path, g: Graph, output) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "s_dc", "s_rs", "s_dis"])
        for i in range(g.num_nodes):
            writer.writerow([g.labels[i], repr(float(output.s_dc[i])),
                             repr(float(output.s_rs[i])), repr(float(output.s_dis[i]))])


def read_scores_csv(path, g: Graph) -> np.ndarray:
    """Scores by original label; the last column wins (s_dis for dcrs files)."""
    by_label: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header and header[0] != "node_id":
            raise ValueError(f"{path}: expected a node_id header")
        for row in reader:
            score = float(row[-1])
            if not np.isfinite(score):
                raise ValueError(f"{path}: non-finite score {row[-1]!r} for node {row[0]}")
            by_label[row[0]] = score
    try:
        return np.array([by_label[g.labels[i]] for i in range(g.num_nodes)])
    except KeyError as exc:
        raise ValueError(f"{path}: missing score for node {exc}") from exc


def write_curve_csv(path, curve: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "ngcc"])
        for step, value in enumerate(curve, start=1):
            writer.writerow([step, repr(float(value))])


def report_payload(g: Graph, method: str, report: DismantleReport, seed: int) -> dict:
    return {
        "method": method,
        "theta": report.theta,
        "tas_size": report.tas_size,
        "rho": report.rho,
        "auc": report.auc,
        "num_nodes": g.num_nodes,
        "num_edges": g.num_edges,
        "seed": seed,
    }


def write_report(out_dir: Path, g: Graph, method: str, report: DismantleReport,
                 seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_payload(g, method, report, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_curve_csv(out_dir / "curve.csv", report.ngcc_curve)


DCRS_FIELDS = ("hidden_dim", "gdn_layers", "gcn_layers", "lam", "gamma",
               "role_k", "role_levels", "epochs", "lr", "ablation")


def dcrs_config_from_args(args, seed: int, config_section: dict | None = None) -> DcrsConfig:
    """Build a DcrsConfig: explicit flags win over the config file section."""
    section = dict(config_section or {})
    kwargs = {"seed": seed}
    for name in DCRS_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            kwargs[name] = flag_value
        elif name in section:
            kwargs[name] = section[name]
    return DcrsConfig(**kwargs)


def add_dcrs_args(parser: argparse.ArgumentParser) -> None:
    # None means "not given": the config file, then DcrsConfig defaults apply
    parser.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    parser.add_argument("--gdn-layers", type=int, default=None, dest="gdn_layers")
    parser.add_argument("--gcn-layers", type=int, default=None, dest="gcn_layers")
    parser.add_argument("--lambda", type=float, default=None, dest="lam")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--role-k", type=int, default=None, dest="role_k")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)


def cmd_generate(args) -> int:
    spec_parts = [f"n={args.n}"]
    if args.kind == "er":
        if args.k is None:
            raise ValueError("er generator needs --k")
        spec_parts.append(f"k={args.k}")
    else:
        if args.m is None:
            raise ValueError(f"{args.kind} generator needs --m")
        spec_parts.append(f"m={args.m}")
    if args.kind in ("ws", "plc"):
        spec_parts.append(f"p={args.p}")
    spec = f"{args.kind}:{','.join(spec_parts)}"
    g = generate_from_spec(spec, args.seed)
    save_edge_list(g, args.out)
    print(f"wrote {g.num_nodes} nodes / {g.num_edges} edges to {args.out}")
    return 0


def cmd_rank(args) -> int:
    g = resolve_input(args.input, args.seed)
    if args.method == "dcrs":
        output = run_dcrs(g, dcrs_config_from_args(args, args.seed))
        write_dcrs_scores_csv(args.out, g, output)
    else:
        scores = compute_scores(g, args.method, args.seed, ci_radius=args.ci_radius)
        write_scores_csv(args.out, g, scores)
    print(f"wrote scores for {g.num_nodes} nodes to {args.out}")
    return 0


def _experiment_settings(args) -> tuple[dict, dict]:
    config: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    return config, config.get("dcrs", {})


def cmd_dismantle(args) -> int:
    g = resolve_input(args.input, args.seed)
    if args.scores:
        scores = read_scores_csv(args.scores, g)
        method = f"file:{Path(args.scores).name}"
    else:
        config = dcrs_config_from_args(args, args.seed) if args.method == "dcrs" else None
        scores = compute_scores(g, args.method, args.seed,
                                ci_radius=args.ci_radius, dcrs_config=config)
        method = args.method
    report = minimal_prefix_tas(g, scores, args.theta)
    write_report(Path(args.out), g, method, report, args.seed)
    print(f"theta={args.theta}: removed {report.tas_size}/{g.num_nodes} "
          f"(rho={report.rho:.4f}, auc={report.auc:.2f})")
    return 0


def _run_one(network: str, g: Graph | Exception, method: str, seed: int,
             thetas: list[float], out_root: Path, args, dcrs_section: dict) -> list[dict]:
    """Score one (method, seed) once; one runs.csv row per theta.

    `g` is the seed's graph, shared read-only with the seed's other tasks,
    or the error raised while building it. Every theta is read off the
    one collapse trajectory of the method's ranking.
    """
    rows = [{"network": network, "method": method, "theta": theta, "seed": seed,
             "tas_size": "", "rho": "", "auc": "", "status": "ok", "error": ""}
            for theta in thetas]
    try:
        if isinstance(g, Exception):
            raise g
        config = (dcrs_config_from_args(args, seed, dcrs_section)
                  if method == "dcrs" else None)
        scores = compute_scores(g, method, seed, ci_radius=args.ci_radius,
                                dcrs_config=config)
        for row, report in zip(rows, reports_at(g, scores, thetas)):
            # one directory per method; theta suffix only when sweeping several
            leaf = method if len(thetas) == 1 else f"{method}_theta{report.theta:g}"
            out_dir = out_root / network / leaf
            write_report(out_dir, g, method, report, seed)
            write_scores_csv(out_dir / "scores.csv", g, scores)
            row.update(tas_size=report.tas_size, rho=report.rho, auc=report.auc)
    except Exception as exc:  # noqa: BLE001 - keep the batch running
        for row in rows:
            if row["rho"] == "":
                row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    return rows


def cmd_experiment(args) -> int:
    config, dcrs_section = _experiment_settings(args)
    input_spec = args.input or config.get("input")
    if not input_spec:
        print("experiment: no input network given", file=sys.stderr)
        return 2
    methods = (args.methods.split(",") if args.methods else config.get("methods", ["dc"]))
    thetas = ([float(t) for t in args.thetas.split(",")] if args.thetas
              else [float(t) for t in config.get("thetas", [0.01])])
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [int(s) for s in config.get("seeds", [default_seed()])])
    out_root = Path(args.out or config.get("out", "results"))
    jobs = args.jobs or int(config.get("jobs", 1))
    empty = [name for name, values in (("methods", methods), ("thetas", thetas),
                                       ("seeds", seeds)) if not values]
    if empty:
        print(f"experiment: empty {', '.join(empty)}", file=sys.stderr)
        return 2
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        print(f"experiment: unknown methods {unknown}", file=sys.stderr)
        return 2
    out_of_range = [t for t in thetas if not 0.0 < t < 1.0]
    if out_of_range:
        print(f"experiment: thetas {out_of_range} not in (0, 1)", file=sys.stderr)
        return 2

    graphs: dict[int, Graph | Exception] = {}
    for seed in seeds:
        try:
            graphs[seed] = resolve_input(input_spec, seed)
        except Exception as exc:  # noqa: BLE001 - that seed's rows record it
            graphs[seed] = exc

    def task(method_seed: tuple[str, int]) -> list[dict]:
        method, seed = method_seed
        return _run_one(network_name(input_spec, seed), graphs[seed], method, seed,
                        thetas, out_root, args, dcrs_section)

    tasks = [(method, seed) for method in methods for seed in seeds]
    out_root.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            task_rows = list(pool.map(task, tasks))
    else:
        task_rows = [task(t) for t in tasks]
    rows = [row for per_task in task_rows for row in per_task]

    with open(out_root / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    summary_rows = []
    for method in methods:
        for theta in thetas:
            rhos = [float(r["rho"]) for r in rows
                    if r["method"] == method and r["theta"] == theta
                    and r["status"] == "ok"]
            summary_rows.append({
                "method": method,
                "theta": theta,
                "runs": len(rhos),
                "mean_rho": repr(float(np.mean(rhos))) if rhos else "",
                "std_rho": repr(float(np.std(rhos))) if rhos else "",
            })
    with open(out_root / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0]))
        writer.writeheader()
        writer.writerows(summary_rows)

    failures = [r for r in rows if r["status"] != "ok"]
    for row in summary_rows:
        print(f"{row['method']} theta={row['theta']}: mean rho = {row['mean_rho']}"
              f" +/- {row['std_rho']} over {row['runs']} runs")
    if failures:
        print(json.dumps([{"network": r["network"], "method": r["method"],
                           "seed": r["seed"], "error": r["error"]}
                          for r in failures]), file=sys.stderr)
        return 1
    return 0


def cmd_ablate(args) -> int:
    g = resolve_input(args.input, args.seed)
    base = dcrs_config_from_args(args, args.seed)
    _, role_graph = discover_role_graph(g, k=base.role_k, seed=args.seed)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for ablation in ABLATIONS:
        config = dataclasses.replace(base, ablation=ablation)
        output = run_dcrs(g, config, role_graph=role_graph)
        report = minimal_prefix_tas(g, output.s_dis, args.theta)
        write_report(out_root / ablation, g, f"dcrs[{ablation}]", report, args.seed)
        rows.append({"variant": ablation, "lambda": config.lam,
                     "tas_size": report.tas_size, "rho": report.rho,
                     "auc": report.auc})
        print(f"{ablation}: rho={report.rho:.4f} (tas={report.tas_size})")
    with open(out_root / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dismantler",
                                     description="Score and dismantle networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph as an edge list")
    gen.add_argument("kind", choices=("er", "ba", "ws", "plc"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=float, help="mean degree (er)")
    gen.add_argument("--m", type=int, help="edges per node / ring degree")
    gen.add_argument("--p", type=float, default=0.0, help="rewire/triangle prob")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    rank = sub.add_parser("rank", help="write a score CSV for one method")
    rank.add_argument("--input", required=True, help="edge-list path or generator spec")
    rank.add_argument("--method", choices=METHODS, required=True)
    rank.add_argument("--seed", type=int, default=None)
    rank.add_argument("--ci-radius", type=int, default=2, dest="ci_radius")
    rank.add_argument("--out", required=True)
    add_dcrs_args(rank)
    rank.set_defaults(func=cmd_rank)

    dis = sub.add_parser("dismantle", help="attack a network and report the outcome")
    dis.add_argument("--input", required=True)
    group = dis.add_mutually_exclusive_group(required=True)
    group.add_argument("--method", choices=METHODS)
    group.add_argument("--scores", help="score CSV from the rank command")
    dis.add_argument("--theta", type=float, default=0.01)
    dis.add_argument("--seed", type=int, default=None)
    dis.add_argument("--ci-radius", type=int, default=2, dest="ci_radius")
    dis.add_argument("--out", required=True)
    add_dcrs_args(dis)
    dis.set_defaults(func=cmd_dismantle)

    exp = sub.add_parser("experiment", help="methods x seeds x thetas batch")
    exp.add_argument("--config", help="JSON config file; flags override it")
    exp.add_argument("--input")
    exp.add_argument("--methods")
    exp.add_argument("--thetas")
    exp.add_argument("--seeds")
    exp.add_argument("--out")
    exp.add_argument("--jobs", type=int, default=0)
    exp.add_argument("--ci-radius", type=int, default=2, dest="ci_radius")
    add_dcrs_args(exp)
    exp.set_defaults(func=cmd_experiment)

    abl = sub.add_parser("ablate", help="compare full/no_rs/no_dc variants")
    abl.add_argument("--input", required=True)
    abl.add_argument("--theta", type=float, default=0.01)
    abl.add_argument("--seed", type=int, default=None)
    abl.add_argument("--out", required=True)
    add_dcrs_args(abl)
    abl.set_defaults(func=cmd_ablate)
    # ablate trains every variant, so only the other commands pick one
    for single in (rank, dis, exp):
        single.add_argument("--ablation", choices=ABLATIONS, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = default_seed()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps([{"error": f"{type(exc).__name__}: {exc}"}]), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
