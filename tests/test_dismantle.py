import numpy as np
import pytest

from dismantler.centrality import degree
from dismantler.dismantle import (
    gcc_trajectory,
    minimal_prefix_tas,
    random_scores,
    rank_nodes,
    reports_at,
)
from dismantler.graph import Graph, generate_ba

from util import brute_gcc_size, complete, path_graph, random_graph, remove_nodes, star


def naive_trajectory(g, ranking):
    """Forward recomputation: remove prefix, BFS the remainder."""
    out = []
    for t in range(g.num_nodes + 1):
        sub = remove_nodes(g, set(int(v) for v in ranking[:t]))
        out.append(brute_gcc_size(sub))
    return np.array(out)


class TestRanking:
    def test_descending_with_id_tiebreak(self):
        scores = np.array([1.0, 3.0, 3.0, 0.5])
        assert rank_nodes(scores).tolist() == [1, 2, 0, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rank_nodes(np.array([1.0, bad, 0.5]))

    def test_random_scores_deterministic(self):
        assert np.array_equal(random_scores(50, 3), random_scores(50, 3))


class TestMinimalPrefix:
    def test_star_theta_03(self):
        report = minimal_prefix_tas(star(4), degree(star(4)), 0.3)
        assert report.tas_size == 1
        assert report.rho == pytest.approx(0.2)
        assert report.tas().tolist() == [0]

    def test_complete_k5_theta_05(self):
        g = complete(5)
        report = minimal_prefix_tas(g, degree(g), 0.5)
        assert report.tas_size == 3
        assert report.rho == pytest.approx(0.6)

    def test_exactness_of_boundary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, 40, 0.08)
            scores = rng.random(40)
            theta = float(rng.uniform(0.05, 0.6))
            report = minimal_prefix_tas(g, scores, theta)
            traj = gcc_trajectory(g, report.ranking)
            k = report.tas_size
            assert traj[k] <= theta * g.num_nodes
            if k > 0:
                assert traj[k - 1] > theta * g.num_nodes

    def test_intact_graph_already_satisfied(self):
        g = Graph(10, [(0, 1)])  # GCC = 2, N = 10
        report = minimal_prefix_tas(g, degree(g), 0.5)
        assert report.tas_size == 0
        assert report.rho == 0.0
        assert report.auc == 0.0

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            minimal_prefix_tas(star(4), degree(star(4)), 0.0)
        with pytest.raises(ValueError):
            minimal_prefix_tas(star(4), degree(star(4)), 1.0)

    def test_report_invariants(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 60, 0.07)
        report = minimal_prefix_tas(g, rng.random(60), 0.1)
        assert np.all(np.diff(report.ngcc_curve) <= 0)
        assert 0.0 <= report.rho <= 1.0
        assert report.auc == pytest.approx(report.ngcc_curve.sum())


class TestTrajectoryEquivalence:
    def test_reverse_union_find_equals_forward_recompute(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            g = random_graph(rng, n, float(rng.uniform(0.005, 0.08)))
            ranking = rng.permutation(n)
            assert np.array_equal(gcc_trajectory(g, ranking),
                                  naive_trajectory(g, ranking))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            gcc_trajectory(star(4), np.array([0, 1, 2, 3, 3]))


class TestNgccCurve:
    def test_k_zero(self):
        # theta = 1: the intact star already satisfies the bound
        [report] = reports_at(star(4), degree(star(4)), [1.0])
        assert report.tas_size == 0
        assert report.ngcc_curve.size == 0
        assert report.auc == 0.0

    def test_path_hand_trace(self):
        # ranking [1, 0, 2]: GCC 3, 1, 1, 0; only the whole path gets below 1/3
        [report] = reports_at(path_graph(3), np.array([2.0, 3.0, 1.0]), [0.2])
        assert report.tas_size == 3
        assert np.allclose(report.ngcc_curve, [1 / 3, 1 / 3, 0.0])
        assert report.auc == pytest.approx(2 / 3)

    def test_curves_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, 0.1)
            [report] = reports_at(g, rng.random(n), [0.5 / n])
            assert report.tas_size == n
            assert np.all(np.diff(report.ngcc_curve) <= 1e-12)


class TestThresholdSweep:
    def test_theta_one_gives_zero(self):
        g = star(4)
        reports = reports_at(g, degree(g), [0.2, 1.0])
        assert reports[-1].rho == 0.0

    def test_single_edge_hand_trace(self):
        g = Graph(2, [(0, 1)])
        [report] = reports_at(g, degree(g), [0.4])
        assert report.rho == 1.0

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng, 50, 0.08)
            reports = reports_at(g, rng.random(50), [0.05, 0.1, 0.2, 0.4, 0.8])
            rhos = [report.rho for report in reports]
            assert all(a >= b for a, b in zip(rhos, rhos[1:]))


class TestCalibrationBaseline:
    def test_degree_beats_random_on_ba(self):
        wins = 0
        for seed in range(20):
            g = generate_ba(1000, 4, seed=seed)
            rho_dc = minimal_prefix_tas(g, degree(g), 0.01).rho
            rho_rand = minimal_prefix_tas(g, random_scores(1000, seed), 0.01).rho
            if rho_dc <= rho_rand:
                wins += 1
        assert wins >= 18
