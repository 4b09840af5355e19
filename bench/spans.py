"""Traced run of one dismantler CLI command, and the per-layer metrics.

Run as a script, this executes `dismantler.cli.main(argv)` in-process with
the public functions of every module wrapped in spans:

    python3 bench/spans.py --out spans.json -- dismantle --input ... --out DIR

Each wrapper replaces the function under every name a dismantler module
looks it up by (`cli` imports `run_dcrs` into its own namespace, `model`
imports `adam_step`), so the program runs unchanged apart from the spans.
A span records name, start, end, parent span and thread id; parents are
tracked per thread, so the two worker threads of `experiment --jobs 2`
each get their own stack. The spans are kept in memory and written once
the command returns.

`layer_metrics` turns a list of spans into the per-layer metrics; it is a
pure function so the benchmark's tests can feed it synthetic spans.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import resource
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "name": name,
               "parent": stack[-1] if stack else None,
               "tid": threading.get_ident(), "start": time.perf_counter()}
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def graph_key(g) -> str:
    """Content fingerprint of a Graph, so rebuilt copies count as one input."""
    h = hashlib.blake2b(digest_size=12)
    h.update(str(g.num_nodes).encode())
    h.update(g.offsets.tobytes())
    h.update(g.neighbors.tobytes())
    return h.hexdigest()


def _note_build(rec, args, kwargs, result):
    rec["key"] = repr((rec["fn"], args, sorted(kwargs.items())))


def _note_centrality(rec, args, kwargs, result):
    rec["key"] = rec["name"] + graph_key(args[0])


def _note_nmf(rec, args, kwargs, result):
    rec["iters"] = len(result.objective_history) - 1


def _note_rank(rec, args, kwargs, result):
    rec["rank"] = int(result)


def _note_train(rec, args, kwargs, result):
    g, _, config = args[:3]
    rec["key"] = graph_key(g) + repr(config)


# (module, function, span name, note) for every traced function. `note`
# stores what a metric needs from the arguments or the result.
TRACED = (
    ("graph", "generate_er", "graph.generate", _note_build),
    ("graph", "generate_ba", "graph.generate", _note_build),
    ("graph", "generate_plc", "graph.generate", _note_build),
    ("graph", "generate_ws", "graph.generate", _note_build),
    ("graph", "load_edge_list", "graph.load", _note_build),
    ("centrality", "degree", "centrality.dc", _note_centrality),
    ("centrality", "betweenness", "centrality.bc", _note_centrality),
    ("centrality", "closeness", "centrality.cc", _note_centrality),
    ("centrality", "harmonic", "centrality.hc", _note_centrality),
    ("centrality", "eigenvector", "centrality.ec", _note_centrality),
    ("centrality", "collective_influence", "centrality.ci", _note_centrality),
    ("centrality", "pagerank", "centrality.pr", _note_centrality),
    ("roles", "egonet_features", "roles.egonet", None),
    ("roles", "recursive_aggregate", "roles.aggregate", None),
    ("roles", "minmax_scale", "roles.aggregate", None),
    ("roles", "select_rank_mdl", "roles.mdl", _note_rank),
    ("roles", "mdl_cost", "roles.mdl", None),
    ("roles", "nmf", "roles.nmf", _note_nmf),
    ("roles", "build_role_graph", "roles.knn", None),
    ("roles", "discover_role_graph", "roles.discover", None),
    ("model", "run_dcrs", "model.run_dcrs", None),
    ("model", "train", "model.train", _note_train),
    ("model", "gdn_forward", "model.gdn", None),
    ("model", "gcn_forward", "model.gcn", None),
    ("model", "dismantling_loss", "model.loss", None),
    ("autodiff", "adam_step", "autodiff.adam", None),
    ("dismantle", "rank_nodes", "dismantle.rank", None),
    ("dismantle", "gcc_trajectory", "dismantle.trajectory", None),
    ("dismantle", "minimal_prefix_tas", "dismantle.tas", None),
    ("dismantle", "random_scores", "dismantle.random", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_dismantle", "cli.task", None),
    ("cli", "cmd_experiment", "cli.experiment", None),
    ("cli", "_run_one", "cli.task", None),
    ("cli", "resolve_input", "cli.resolve", None),
    ("cli", "compute_scores", "cli.scores", None),
    ("cli", "write_report", "cli.io", None),
    ("cli", "write_curve_csv", "cli.io", None),
    ("cli", "write_scores_csv", "cli.io", None),
    ("cli", "write_dcrs_scores_csv", "cli.io", None),
    ("cli", "read_scores_csv", "cli.io", None),
)
# Peak-RSS growth is recorded around these spans only.
RSS_SPANS = ("roles.discover", "model.train")
MODULES = ("graph", "centrality", "roles", "autodiff", "model", "dismantle", "cli")


def _wrap(tracer: Tracer, fn, name: str, note):
    rss = name in RSS_SPANS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            if rss:
                rec["rss0"] = _peak_rss_mb()
            result = fn(*args, **kwargs)
            if rss:
                rec["rss1"] = _peak_rss_mb()
        if note is not None:
            rec["fn"] = fn.__name__
            note(rec, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function under each name a dismantler module uses."""
    import importlib

    modules = [importlib.import_module(f"dismantler.{m}") for m in MODULES]
    modules.append(importlib.import_module("dismantler"))
    for module_name, attr, name, note in TRACED:
        original = getattr(importlib.import_module(f"dismantler.{module_name}"), attr)
        wrapper = _wrap(tracer, original, name, note)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    autodiff = importlib.import_module("dismantler.autodiff")
    autodiff.Tensor.backward = _wrap(tracer, autodiff.Tensor.backward,
                                     "autodiff.backward", None)
    cli = importlib.import_module("dismantler.cli")
    cli.ThreadPoolExecutor = _traced_pool(tracer)


def _traced_pool(tracer: Tracer):
    """ThreadPoolExecutor whose caller's waits on results are `cli.wait` spans."""

    class TracedPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = super().map(fn, *iterables, **kwargs)

            def waited():
                while True:
                    with tracer.span("cli.wait"):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    yield item

            return waited()

        def shutdown(self, *args, **kwargs):
            with tracer.span("cli.wait"):
                super().shutdown(*args, **kwargs)

    return TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Parents are per thread, so children never overlap each other and a
    span's self time is never negative unless the spans are inconsistent.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(span: dict, name: str, by_id: dict[int, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == name:
            return True
        parent = by_id[parent]["parent"]
    return False


def _reuse(spans: list[dict]) -> float:
    """Distinct inputs over calls; 1 when there were no calls."""
    if not spans:
        return 1.0
    return len({s["key"] for s in spans}) / len(spans)


def _epoch_times(spans: list[dict]) -> list[float]:
    """Per-epoch durations: train start or the previous Adam step's end to
    the next Adam step's end, within each training run."""
    adam_by_train: dict[int, list[float]] = {}
    for s in spans:
        if s["name"] == "autodiff.adam" and s["parent"] is not None:
            adam_by_train.setdefault(s["parent"], []).append(s["end"])
    epochs: list[float] = []
    for s in spans:
        if s["name"] == "model.train":
            marks = [s["start"]] + sorted(adam_by_train.get(s["id"], []))
            epochs.extend(b - a for a, b in zip(marks, marks[1:]))
    return epochs


def _rss_growth(spans: list[dict]) -> float:
    return sum(s["rss1"] - s["rss0"] for s in spans)


CENTRALITY = ("dc", "bc", "cc", "hc", "ec", "ci", "pr")
# span name -> metric its self time is charged to
SELF_TIME_METRIC = {
    "graph.generate": "graph.generate_s",
    "graph.load": "graph.load_s",
    **{f"centrality.{c}": f"centrality.{c}_s" for c in CENTRALITY},
    "roles.egonet": "roles.egonet_s",
    "roles.aggregate": "roles.aggregate_s",
    "roles.mdl": "roles.mdl_s",
    "roles.nmf": "roles.nmf_s",
    "roles.knn": "roles.knn_s",
    "model.gdn": "model.gdn_s",
    "model.gcn": "model.gcn_s",
    "model.loss": "model.loss_s",
    "autodiff.backward": "autodiff.backward_s",
    "autodiff.adam": "autodiff.adam_s",
    "dismantle.rank": "dismantle.rank_s",
    "dismantle.trajectory": "dismantle.trajectory_s",
    "cli.io": "cli.io_s",
    "cli.wait": "cli.wait_s",
    "cli.main": "cli.self_s",
    "cli.experiment": "cli.self_s",
    "cli.task": "cli.self_s",
    "cli.resolve": "cli.self_s",
    "cli.scores": "cli.self_s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Times are self times summed over all threads, except that NMF fits made
    inside the MDL rank sweep are charged to `roles.mdl_s`, so `roles.nmf_s`
    is the refit outside it. Self time of spans without a metric (glue such
    as `run_dcrs`, `train` or `minimal_prefix_tas`) is left out.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    metrics = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    for s in spans:
        metric = SELF_TIME_METRIC.get(s["name"])
        if s["name"] == "roles.nmf" and _has_ancestor(s, "roles.mdl", by_id):
            metric = "roles.mdl_s"
        if metric is not None:
            metrics[metric] += own[s["id"]]

    builds = named.get("graph.generate", []) + named.get("graph.load", [])
    centrality_calls = [s for c in CENTRALITY for s in named.get(f"centrality.{c}", [])]
    nmf = named.get("roles.nmf", [])
    ranks = [s["rank"] for s in named.get("roles.mdl", []) if "rank" in s]
    trainings = named.get("model.train", [])
    epochs = _epoch_times(spans)
    metrics.update({
        "graph.builds": len(builds),
        "graph.build_reuse": _reuse(builds),
        "centrality.calls": len(centrality_calls),
        "centrality.reuse": _reuse(centrality_calls),
        "roles.nmf_fits": len(nmf),
        "roles.nmf_iters": sum(s["iters"] for s in nmf),
        "roles.rank": statistics.mean(ranks) if ranks else 0,
        "roles.rss_growth_mb": _rss_growth(named.get("roles.discover", [])),
        "model.trainings": len(trainings),
        "model.train_reuse": _reuse(trainings),
        "model.epochs": len(named.get("autodiff.adam", [])),
        "model.epoch_s": statistics.median(epochs) if epochs else 0.0,
        "model.rss_growth_mb": _rss_growth(trainings),
        "dismantle.trajectories": len(named.get("dismantle.trajectory", [])),
        "cli.tasks": len(named.get("cli.task", [])),
    })
    return metrics


def consistency_errors(spans: list[dict]) -> list[str]:
    """Ways the spans fail to nest inside one root `cli.main` span."""
    roots = [s for s in spans if s["name"] == "cli.main"]
    if len(roots) != 1:
        return [f"expected one cli.main span, found {len(roots)}"]
    root = roots[0]
    own = self_times(spans)
    errors = [f"span {s['name']} lies outside cli.main" for s in spans
              if s["start"] < root["start"] or s["end"] > root["end"]]
    errors += [f"span {s['name']} has negative self time {own[s['id']]:.6f} s"
               for s in spans if own[s["id"]] < -1e-9]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="dismantler CLI arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    install(tracer)
    import dismantler.cli

    code = dismantler.cli.main(command)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
