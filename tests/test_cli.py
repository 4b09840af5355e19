import csv
import json

import numpy as np
import pytest

from dismantler import cli, dismantle
from dismantler.cli import (
    main,
    network_name,
    parse_generator_spec,
    read_scores_csv,
    resolve_input,
)
from dismantler.graph import load_edge_list


def run(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestGeneratorSpec:
    def test_parse(self):
        spec = parse_generator_spec("ba:n=1000,m=4")
        assert spec == {"kind": "ba", "n": 1000.0, "m": 4.0}

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_generator_spec("tree:n=10")

    def test_resolve_spec_vs_file(self, tmp_path):
        g = resolve_input("er:n=50,k=4", seed=1)
        assert g.num_nodes == 50
        p = tmp_path / "tiny.txt"
        p.write_text("0 1\n")
        assert resolve_input(str(p), seed=1).num_nodes == 2

    def test_network_name(self):
        assert network_name("ba:n=100,m=4", 7) == "ba_m4_n100_seed7"
        assert network_name("/data/route.edges", 7) == "route"


class TestGenerateCommand:
    def test_er_writes_n_nodes(self, tmp_path):
        out = tmp_path / "er.txt"
        assert run("generate", "er", "--n", 1000, "--k", 6, "--seed", 1,
                   "--out", out) == 0
        assert load_edge_list(out).num_nodes == 1000

    def test_ba_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("generate", "ba", "--n", 200, "--m", 4, "--seed", 1, "--out", a)
        run("generate", "ba", "--n", 200, "--m", 4, "--seed", 1, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_ws_ring_edge_count(self, tmp_path):
        out = tmp_path / "ws.txt"
        run("generate", "ws", "--n", 10, "--m", 4, "--p", 0, "--seed", 0,
            "--out", out)
        assert load_edge_list(out).num_edges == 20

    def test_missing_param_fails(self, tmp_path):
        assert run("generate", "er", "--n", 10, "--out", tmp_path / "x.txt") == 1


class TestRankCommand:
    def test_degree_on_triangle(self, tmp_path):
        edges = tmp_path / "tri.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "scores.csv"
        assert run("rank", "--input", edges, "--method", "dc", "--out", out) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 3
        assert all(float(r["score"]) == 2.0 for r in rows)

    def test_row_count_matches_n(self, tmp_path):
        out = tmp_path / "scores.csv"
        run("rank", "--input", "ba:n=80,m=3", "--method", "pr", "--seed", 2,
            "--out", out)
        assert len(read_csv_rows(out)) == 80

    def test_dcrs_ablation_no_rs_equals_lambda_one(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        common = ["rank", "--input", "ba:n=40,m=3", "--method", "dcrs",
                  "--seed", 3, "--epochs", 20]
        assert run(*common, "--ablation", "no_rs", "--out", out_a) == 0
        assert run(*common, "--lambda", 1.0, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dcrs_csv_has_branch_columns(self, tmp_path):
        out = tmp_path / "scores.csv"
        run("rank", "--input", "ba:n=30,m=2", "--method", "dcrs", "--seed", 1,
            "--epochs", 10, "--out", out)
        rows = read_csv_rows(out)
        assert set(rows[0]) == {"node_id", "s_dc", "s_rs", "s_dis"}


class TestDismantleCommand:
    def test_star_degree(self, tmp_path):
        edges = tmp_path / "star.txt"
        edges.write_text("c a\nc b\nc d\nc e\n")
        out = tmp_path / "out"
        assert run("dismantle", "--input", edges, "--method", "dc",
                   "--theta", 0.3, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rho"] == pytest.approx(0.2)
        assert report["tas_size"] == 1

    def test_report_schema_and_curve(self, tmp_path):
        out = tmp_path / "out"
        run("dismantle", "--input", "ba:n=100,m=3", "--method", "pr",
            "--theta", 0.05, "--seed", 4, "--out", out)
        report = json.loads((out / "report.json").read_text())
        for key in ("method", "theta", "tas_size", "rho", "auc"):
            assert key in report
        curve = read_csv_rows(out / "curve.csv")
        assert len(curve) == report["tas_size"]
        ngcc = [float(r["ngcc"]) for r in curve]
        assert all(a >= b for a, b in zip(ngcc, ngcc[1:]))

    def test_rerun_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["dismantle", "--input", "er:n=120,k=4", "--method", "dc",
                "--theta", 0.1, "--seed", 5]
        run(*args, "--out", out_a)
        run(*args, "--out", out_b)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "curve.csv").read_bytes() == (out_b / "curve.csv").read_bytes()

    def test_scores_file_roundtrip(self, tmp_path):
        edges = tmp_path / "g.txt"
        run("generate", "ba", "--n", 60, "--m", 2, "--seed", 6, "--out", edges)
        scores = tmp_path / "scores.csv"
        run("rank", "--input", edges, "--method", "dc", "--out", scores)
        out = tmp_path / "out"
        assert run("dismantle", "--input", edges, "--scores", scores,
                   "--theta", 0.1, "--out", out) == 0
        g = load_edge_list(edges)
        loaded = read_scores_csv(scores, g)
        assert np.array_equal(loaded, g.degrees.astype(float))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_scores_rejected(self, tmp_path, capsys, bad):
        edges = tmp_path / "g.txt"
        edges.write_text("a b\nb c\n")
        scores = tmp_path / "scores.csv"
        scores.write_text(f"node_id,score\na,1.0\nb,{bad}\nc,0.5\n")
        assert run("dismantle", "--input", edges, "--scores", scores,
                   "--theta", 0.5, "--out", tmp_path / "o") == 1
        [error] = json.loads(capsys.readouterr().err.strip())
        assert error["error"].startswith("ValueError")
        assert "node b" in error["error"]
        assert not (tmp_path / "o").exists()

    def test_bad_input_fails_with_error_json(self, tmp_path, capsys):
        assert run("dismantle", "--input", tmp_path / "missing.txt",
                   "--method", "dc", "--theta", 0.1,
                   "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())

    @pytest.mark.parametrize("spec, detail", [
        ("er:n=100", "needs k"),
        ("ba:n=100,m=4,q=3", "unknown parameter 'q'"),
        ("ba:n=100.7,m=4", "'n' must be an integer"),
    ])
    def test_bad_generator_spec_fails_with_error_json(self, tmp_path, capsys, spec, detail):
        assert run("dismantle", "--input", spec, "--method", "dc", "--theta", 0.1,
                   "--out", tmp_path / "o") == 1
        [error] = json.loads(capsys.readouterr().err.strip())
        assert error["error"].startswith("ValueError")
        assert detail in error["error"]


class TestExperimentCommand:
    def test_cardinality_and_summary_mean(self, tmp_path):
        out = tmp_path / "results"
        assert run("experiment", "--input", "ba:n=80,m=3",
                   "--methods", "dc,random", "--seeds", "1,2,3",
                   "--thetas", "0.05", "--out", out) == 0
        runs = read_csv_rows(out / "runs.csv")
        summary = read_csv_rows(out / "summary.csv")
        assert len(runs) == 6
        assert len(summary) == 2
        for srow in summary:
            rhos = [float(r["rho"]) for r in runs if r["method"] == srow["method"]]
            assert float(srow["mean_rho"]) == pytest.approx(np.mean(rhos), abs=1e-12)
        # per-run artifacts land in <out>/<network>/<method>/
        method_dir = out / "ba_m3_n80_seed1" / "dc"
        assert (method_dir / "report.json").exists()
        assert (method_dir / "curve.csv").exists()
        assert (method_dir / "scores.csv").exists()

    def test_multi_theta_layout_suffixes_method_dirs(self, tmp_path):
        out = tmp_path / "res"
        run("experiment", "--input", "ba:n=60,m=2", "--methods", "dc",
            "--seeds", "1", "--thetas", "0.05,0.2", "--out", out)
        assert (out / "ba_m2_n60_seed1" / "dc_theta0.05" / "report.json").exists()
        assert (out / "ba_m2_n60_seed1" / "dc_theta0.2" / "report.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "input": "ba:n=60,m=2",
            "methods": ["dc"],
            "thetas": [0.1],
            "seeds": [1, 2],
            "dcrs": {"epochs": 5},
        }))
        out = tmp_path / "res"
        assert run("experiment", "--config", cfg, "--methods", "random",
                   "--out", out) == 0
        runs = read_csv_rows(out / "runs.csv")
        assert {r["method"] for r in runs} == {"random"}
        assert len(runs) == 2

    def test_partial_failure_keeps_running(self, tmp_path, capsys):
        out = tmp_path / "res"
        # ws with odd m fails; dc on the same spec fails too, but the run
        # rows are still recorded and the exit code flags the failures
        code = run("experiment", "--input", "ws:n=30,m=3,p=0.1",
                   "--methods", "dc,random", "--seeds", "1", "--out", out)
        assert code == 1
        runs = read_csv_rows(out / "runs.csv")
        assert len(runs) == 2
        assert all(r["status"] == "error" for r in runs)
        err = capsys.readouterr().err
        assert json.loads(err.strip())

    def test_theta_out_of_range_rejected_before_scoring(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run("experiment", "--input", "ba:n=30,m=2", "--methods", "dc",
                   "--seeds", "1", "--thetas", "0.1,1.0", "--out", out) == 2
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["methods", "thetas", "seeds"])
    def test_empty_list_rejected_before_writing(self, tmp_path, capsys, key):
        out = tmp_path / "res"
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"input": "er:n=50,k=4", "out": str(out), key: []}))
        assert run("experiment", "--config", cfg) == 2
        assert f"empty {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_and_scores_shared_across_thetas(self, tmp_path, monkeypatch):
        calls = {"build": 0, "score": 0, "trajectory": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "resolve_input", counted("build", cli.resolve_input))
        monkeypatch.setattr(cli, "compute_scores", counted("score", cli.compute_scores))
        monkeypatch.setattr(dismantle, "gcc_trajectory",
                            counted("trajectory", dismantle.gcc_trajectory))
        out = tmp_path / "res"
        assert run("experiment", "--input", "ba:n=60,m=2", "--methods", "dc,random",
                   "--seeds", "1,2", "--thetas", "0.05,0.2", "--out", out) == 0
        # one build per seed, one scoring and one trajectory per (method, seed)
        assert calls == {"build": 2, "score": 4, "trajectory": 4}
        runs = read_csv_rows(out / "runs.csv")
        assert [(r["method"], r["seed"], r["theta"]) for r in runs] == [
            (m, s, t) for m in ("dc", "random") for s in ("1", "2")
            for t in ("0.05", "0.2")]
        for seed in (1, 2):
            for method in ("dc", "random"):
                task_dir = out / f"ba_m2_n60_seed{seed}"
                assert ((task_dir / f"{method}_theta0.05" / "scores.csv").read_bytes()
                        == (task_dir / f"{method}_theta0.2" / "scores.csv").read_bytes())

    def test_jobs_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        args = ["experiment", "--input", "er:n=60,k=4", "--methods", "dc,pr",
                "--seeds", "1,2", "--thetas", "0.1"]
        run(*args, "--out", serial)
        run(*args, "--jobs", 4, "--out", parallel)
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()


class TestAblateCommand:
    def test_three_variants_written(self, tmp_path):
        out = tmp_path / "abl"
        assert run("ablate", "--input", "ba:n=50,m=3", "--seed", 2,
                   "--epochs", 15, "--theta", 0.1, "--out", out) == 0
        rows = read_csv_rows(out / "ablation.csv")
        assert [r["variant"] for r in rows] == ["full", "no_rs", "no_dc"]
        assert float(rows[1]["lambda"]) == 1.0
        assert float(rows[2]["lambda"]) == 0.0

    def test_lambda_flag_kept_for_full_variant(self, tmp_path):
        out = tmp_path / "abl"
        assert run("ablate", "--input", "ba:n=40,m=3", "--seed", 1,
                   "--epochs", 5, "--lambda", 0.3, "--theta", 0.1, "--out", out) == 0
        rows = read_csv_rows(out / "ablation.csv")
        assert [float(r["lambda"]) for r in rows] == [0.3, 1.0, 0.0]

    def test_ablation_flag_not_accepted(self, tmp_path):
        with pytest.raises(SystemExit):
            run("ablate", "--input", "ba:n=40,m=3", "--ablation", "no_dc",
                "--out", tmp_path / "abl")


class TestSeedEnvDefault:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISMANTLER_SEED", "9")
        out_env = tmp_path / "env.txt"
        run("generate", "ba", "--n", 50, "--m", 2, "--out", out_env)
        out_explicit = tmp_path / "exp.txt"
        run("generate", "ba", "--n", 50, "--m", 2, "--seed", 9, "--out", out_explicit)
        assert out_env.read_bytes() == out_explicit.read_bytes()
