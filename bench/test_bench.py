"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import run
from checks import check_dismantle, check_experiment
from spans import Tracer, consistency_errors, layer_metrics, self_times


def span(sid, name, start, end, parent=None, tid=1, **extra):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "tid": tid, **extra}


class TestSelfTime:
    def test_nested(self):
        spans = [span(0, "cli.main", 0.0, 10.0),
                 span(1, "cli.task", 1.0, 9.0, parent=0),
                 span(2, "roles.mdl", 2.0, 6.0, parent=1, rank=2),
                 span(3, "roles.nmf", 2.5, 5.0, parent=2, iters=7),
                 span(4, "roles.nmf", 6.0, 7.0, parent=1, iters=3)]
        own = self_times(spans)
        assert own == {0: 2.0, 1: 3.0, 2: 1.5, 3: 2.5, 4: 1.0}
        m = layer_metrics(spans)
        # the fit inside the MDL sweep is charged to mdl, the refit to nmf
        assert m["roles.mdl_s"] == pytest.approx(4.0)
        assert m["roles.nmf_s"] == pytest.approx(1.0)
        assert m["roles.nmf_fits"] == 2 and m["roles.nmf_iters"] == 10
        assert m["cli.self_s"] == pytest.approx(5.0)
        assert m["roles.rank"] == 2
        assert consistency_errors(spans) == []

    def test_two_threads(self):
        # the main thread waits on two workers whose spans overlap in time
        spans = [span(0, "cli.main", 0.0, 10.0),
                 span(1, "cli.experiment", 0.5, 9.5, parent=0),
                 span(2, "cli.wait", 1.0, 9.0, parent=1),
                 span(3, "cli.task", 1.0, 8.0, tid=2),
                 span(4, "centrality.bc", 2.0, 7.0, parent=3, tid=2, key="g1"),
                 span(5, "cli.task", 1.0, 9.0, tid=3),
                 span(6, "centrality.bc", 1.5, 8.5, parent=5, tid=3, key="g1")]
        m = layer_metrics(spans)
        assert m["centrality.bc_s"] == pytest.approx(12.0)
        assert m["cli.wait_s"] == pytest.approx(8.0)
        # main 1 + experiment 1 + worker glue 2 + 1
        assert m["cli.self_s"] == pytest.approx(5.0)
        assert m["centrality.calls"] == 2 and m["centrality.reuse"] == 0.5
        assert m["cli.tasks"] == 2
        assert consistency_errors(spans) == []

    def test_tracer_keeps_parents_per_thread(self):
        tracer = Tracer()
        # both workers are alive at once, so their thread ids differ
        both_running = threading.Barrier(2, timeout=10)

        def worker():
            with tracer.span("cli.task"):
                both_running.wait()
                with tracer.span("centrality.dc"):
                    pass

        with tracer.span("cli.main"):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s["name"], []).append(s)
        assert all(s["parent"] is None for s in by_name["cli.task"])
        tasks = {s["id"]: s["tid"] for s in by_name["cli.task"]}
        assert {tasks[s["parent"]] for s in by_name["centrality.dc"]} == set(tasks.values())
        assert len(set(tasks.values())) == 2

    def test_epochs_and_inconsistent_spans(self):
        spans = [span(0, "cli.main", 0.0, 5.0),
                 span(1, "model.train", 0.0, 4.0, parent=0, key="a", rss0=10.0, rss1=25.0),
                 span(2, "autodiff.adam", 0.9, 1.0, parent=1),
                 span(3, "autodiff.adam", 2.9, 3.0, parent=1),
                 span(4, "autodiff.adam", 3.9, 4.0, parent=1)]
        m = layer_metrics(spans)
        assert m["model.epochs"] == 3 and m["model.epoch_s"] == pytest.approx(1.0)
        assert m["model.rss_growth_mb"] == 15.0 and m["model.train_reuse"] == 1.0
        spans.append(span(5, "dismantle.rank", 4.0, 6.0, parent=0))
        assert consistency_errors(spans)


@pytest.fixture
def dismantle_out(tmp_path):
    from dismantler.cli import main, resolve_input

    out = tmp_path / "out"
    assert main(["dismantle", "--input", "ba:n=300,m=3", "--method", "dc",
                 "--theta", "0.1", "--seed", "3", "--out", str(out)]) == 0
    return out, resolve_input("ba:n=300,m=3", 3)


class TestChecks:
    def test_clean_dismantle_passes(self, dismantle_out):
        out, g = dismantle_out
        result = check_dismantle(out, g, "dc", 0.1, 3)
        assert result.failed == 0 and len(result.rhos) == 1

    def test_tas_size_off_by_one(self, dismantle_out):
        out, g = dismantle_out
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["tas_size"] += 1
        path.write_text(json.dumps(report))
        result = check_dismantle(out, g, "dc", 0.1, 3)
        assert result.failed == 1 and "curve rows" in " ".join(result.errors)

    def test_rho_not_matching_scores(self, tmp_path):
        from dismantler.cli import main, resolve_input

        out = tmp_path / "exp"
        assert main(["experiment", "--input", "er:n=200,k=5", "--methods", "dc,pr",
                     "--thetas", "0.1", "--seeds", "4", "--out", str(out)]) == 0
        g = resolve_input("er:n=200,k=5", 4)
        # one cache across both checks, as across the repetitions of a run
        cache = {}
        assert check_experiment(out, lambda s: g, ["dc", "pr"], [0.1], [4], cache).failed == 0
        # reverse the dc scores: the written rho no longer follows from them
        scores = next(out.rglob("dc/scores.csv"))
        lines = scores.read_text().splitlines()
        values = [line.split(",")[1] for line in lines[1:]]
        scores.write_text("\n".join([lines[0]] + [
            f"{line.split(',')[0]},{-float(v)!r}" for line, v in zip(lines[1:], values)]) + "\n")
        result = check_experiment(out, lambda s: g, ["dc", "pr"], [0.1], [4], cache)
        assert result.failed >= 1 and "scores.csv gives" in " ".join(result.errors)

    def test_missing_task_fails(self, tmp_path):
        from dismantler.cli import main, resolve_input

        out = tmp_path / "exp"
        assert main(["experiment", "--input", "er:n=200,k=5", "--methods", "dc",
                     "--thetas", "0.1", "--seeds", "4", "--out", str(out)]) == 0
        g = resolve_input("er:n=200,k=5", 4)
        result = check_experiment(out, lambda s: g, ["dc", "pr"], [0.1], [4])
        assert result.failed == result.attempted == 2


# every workload shape at a small size, so each run takes seconds
SMALL = {
    "dcrs-ba10k": {"graph": "ba:n=400,m=3", "epochs": 3},
    "experiment-er1k": {"graph": "er:n=150,k=5", "epochs": 3},
    "baselines-plc100k": {"graph": "plc:n=2000,m=3,p=0.1", "setup_reps": 2},
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke(name, traced):
    workload = replace(run.WORKLOADS[name], **SMALL[name])
    metrics, checks, env = run.bench(workload, seed=5, seconds=0, traced=traced)
    assert all(c.failed == 0 for c in checks), [c.errors for c in checks]
    assert Path(env["dismantler_file"]).is_relative_to(run.SRC)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    assert {name_: unit for name_, (_, unit) in metrics.items()} == declared
    assert all(isinstance(value, (int, float)) for value, _ in metrics.values())
    if traced:
        assert metrics["cli.self_s"][0] >= 0
        assert metrics["cli.tasks"][0] == (1 if workload.command == "dismantle"
                                           else len(workload.methods) * len(workload.thetas))
    else:
        assert all(metrics[m][0] > 0 for m in declared)
