import numpy as np
import pytest

from dismantler.graph import Graph, generate_ba, generate_ws
from dismantler.roles import (
    FeatureMatrix,
    build_role_graph,
    discover_role_graph,
    egonet_features,
    mdl_cost,
    minmax_scale,
    nmf,
    recursive_aggregate,
    select_rank_mdl,
)

from util import brute_role_graph, permute_graph, random_graph, star, triangle


class TestEgonetFeatures:
    def test_triangle(self):
        feat = egonet_features(triangle())
        for row in feat.values:
            assert row.tolist() == [2.0, 1.0, 6.0, 3.0]

    def test_star_center(self):
        feat = egonet_features(star(4))
        assert feat.values[0].tolist() == [4.0, 0.0, 8.0, 4.0]

    def test_star_leaf(self):
        # leaf egonet = {leaf, center}: 1 inside edge, 3 leaving
        feat = egonet_features(star(4))
        assert feat.values[1].tolist() == [1.0, 0.0, 5.0, 0.25]

    def test_isolated_node(self):
        g = Graph(3, [(0, 1)])
        feat = egonet_features(g)
        assert feat.values[2].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 20, 0.2)
        perm = rng.permutation(20)
        base = egonet_features(g).values
        permuted = egonet_features(permute_graph(g, perm)).values
        assert np.allclose(permuted[perm], base)


class TestRecursiveAggregate:
    def test_levels_zero_identity(self):
        feat = egonet_features(triangle())
        out = recursive_aggregate(feat, triangle(), levels=0)
        assert np.array_equal(out.values, feat.values)
        assert out.feature_names == feat.feature_names

    def test_level_one_column_bound(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 30, 0.2)
        out = recursive_aggregate(egonet_features(g), g, levels=1)
        assert out.values.shape[1] <= 12

    def test_regular_ring_prunes_constant_aggregates(self):
        g = generate_ws(20, 4, 0.0, seed=0)
        out = recursive_aggregate(egonet_features(g), g, levels=1)
        # every base feature is constant on a ring lattice, so one column survives
        assert "degree_nbr_mean" not in out.feature_names
        assert out.values.shape[1] == 1

    def test_isolated_nodes_aggregate_zero(self):
        g = Graph(3, [(0, 1)])
        out = recursive_aggregate(egonet_features(g), g, levels=1)
        sums = [n for n in out.feature_names if n.endswith("_nbr_sum")]
        for name in sums:
            j = out.feature_names.index(name)
            assert out.values[2, j] == 0.0


class TestNmf:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.5, 1.0, size=(30, 1))
        v = rng.uniform(0.5, 1.0, size=(1, 6))
        feat = FeatureMatrix(u @ v, tuple(f"f{i}" for i in range(6)))
        model = nmf(feat, r=1, iters=500, tol=1e-12, seed=0)
        assert model.objective_history[-1] < 1e-6

    def test_objective_monotone(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            vals = rng.uniform(0, 1, size=(25, 7))
            feat = FeatureMatrix(vals, tuple(f"f{i}" for i in range(7)))
            model = nmf(feat, r=3, iters=200, tol=0.0, seed=trial)
            diffs = np.diff(model.objective_history)
            assert np.all(diffs <= 1e-9 * max(1.0, model.objective_history[0]))

    def test_two_block_membership(self):
        rng = np.random.default_rng(4)
        vals = np.zeros((20, 4))
        vals[:10, :2] = rng.uniform(0.5, 1.0, size=(10, 2))
        vals[10:, 2:] = rng.uniform(0.5, 1.0, size=(10, 2))
        feat = FeatureMatrix(vals, ("a", "b", "c", "d"))
        model = nmf(feat, r=2, iters=500, tol=1e-12, seed=0)
        roles = model.R.argmax(axis=1)
        assert len(set(roles[:10])) == 1
        assert len(set(roles[10:])) == 1
        assert roles[0] != roles[10]

    def test_determinism(self):
        rng = np.random.default_rng(5)
        feat = FeatureMatrix(rng.uniform(0, 1, size=(15, 5)), tuple("abcde"))
        a = nmf(feat, r=2, seed=7)
        b = nmf(feat, r=2, seed=7)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.M, b.M)

    def test_rejects_bad_rank_and_nonfinite(self):
        feat = FeatureMatrix(np.ones((4, 3)), ("a", "b", "c"))
        with pytest.raises(ValueError):
            nmf(feat, r=4)
        with pytest.raises(ValueError):
            nmf(feat, r=0)
        bad = FeatureMatrix(np.full((4, 3), np.nan), ("a", "b", "c"))
        with pytest.raises(ValueError):
            nmf(bad, r=2)


class TestMdlRankSelection:
    def test_exact_rank_two_selected(self):
        # two node groups loading disjoint feature blocks: the rank-1 fit
        # leaves a residual large enough that the error bits beat the
        # per-rank model bits
        rng = np.random.default_rng(6)
        r0 = np.zeros((200, 2))
        r0[:100, 0] = rng.uniform(5.0, 10.0, size=100)
        r0[100:, 1] = rng.uniform(5.0, 10.0, size=100)
        m0 = np.zeros((2, 8))
        m0[0, :4] = rng.uniform(0.5, 1.0, size=4)
        m0[1, 4:] = rng.uniform(0.5, 1.0, size=4)
        vals = r0 @ m0 + rng.uniform(0, 1e-4, size=(200, 8))
        feat = FeatureMatrix(vals, tuple(f"f{i}" for i in range(8)))
        costs = {r: mdl_cost(feat, nmf(feat, r, iters=500, tol=1e-10, seed=0))
                 for r in range(1, 6)}
        assert min(costs, key=costs.get) == 2
        assert select_rank_mdl(feat, 1, 5, iters=500, tol=1e-10, seed=0) == 2

    def test_forced_range(self):
        rng = np.random.default_rng(7)
        feat = FeatureMatrix(rng.uniform(0, 1, size=(30, 6)), tuple("abcdef"))
        assert select_rank_mdl(feat, 4, 4) == 4

    def test_constant_matrix_selects_r_min(self):
        feat = minmax_scale(FeatureMatrix(np.full((30, 6), 0.7), tuple("abcdef")))
        assert select_rank_mdl(feat, 1, 4) == 1

    def test_rejects_bad_range(self):
        feat = FeatureMatrix(np.ones((5, 4)), ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            select_rank_mdl(feat, 3, 2)
        with pytest.raises(ValueError):
            select_rank_mdl(feat, 1, 5)


class TestRoleGraph:
    def test_identical_rows_tiebreak(self):
        big_r = np.ones((5, 2))
        rg = build_role_graph(big_r, k=2)
        expected = {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)}
        assert set(map(tuple, rg.graph.edge_list().tolist())) == expected
        assert rg.graph.degrees.max() <= 4

    def test_k_large_gives_complete_graph(self):
        rng = np.random.default_rng(9)
        big_r = rng.uniform(0.1, 1, size=(6, 3))
        rg = build_role_graph(big_r, k=10)
        assert rg.graph.num_edges == 15

    def test_orthogonal_clusters_stay_separate(self):
        big_r = np.zeros((8, 2))
        big_r[:4, 0] = np.linspace(0.5, 1.0, 4)
        big_r[4:, 1] = np.linspace(0.5, 1.0, 4)
        rg = build_role_graph(big_r, k=1)
        for u, v in rg.graph.edge_list():
            assert (u < 4) == (v < 4)

    def test_node_set_preserved(self):
        rng = np.random.default_rng(10)
        big_r = rng.uniform(0, 1, size=(40, 4))
        rg = build_role_graph(big_r, k=3)
        assert rg.graph.num_nodes == 40

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_role_graph(np.ones((4, 2)), k=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        big_r = np.ones((4, 2))
        big_r[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build_role_graph(big_r, k=2)

    def test_tiny_inputs(self):
        assert build_role_graph(np.zeros((0, 2)), k=3).graph.num_nodes == 0
        one = build_role_graph(np.ones((1, 2)), k=3).graph
        assert (one.num_nodes, one.num_edges) == (1, 0)
        two = build_role_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), k=3).graph
        assert two.edge_list().tolist() == [[0, 1]]

    @staticmethod
    def assert_same_csr(got: Graph, want: Graph):
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.neighbors, want.neighbors)

    def test_matches_sort_oracle_on_tied_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            big_r = rng.integers(0, 3, size=(n, int(rng.integers(1, 5)))).astype(float)
            big_r[rng.integers(0, n, size=2)] = 0.0
            big_r[rng.integers(0, n, size=3)] = big_r[rng.integers(0, n)]
            k = int(rng.integers(1, n + 2))
            chunk = int(rng.integers(2, n))
            chunk += n % chunk == 0
            self.assert_same_csr(build_role_graph(big_r, k, chunk).graph,
                                 brute_role_graph(big_r, k, chunk))

    def test_chunk_size_does_not_change_exact_similarities(self):
        # The rounding of a dot product depends on which BLAS kernel the
        # block shape selects, so the graph is chunk-independent only where
        # every similarity is exact: rows c * (binary with 1 or 4 ones) have
        # unit rows in {0, 0.5, 1}, whose products sum exactly in any order.
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            big_r = np.zeros((n, 6))
            for i in range(n):
                ones = rng.choice(6, size=rng.choice([0, 1, 4]), replace=False)
                big_r[i, ones] = rng.integers(1, 4)
            k = int(rng.integers(1, n + 2))
            want = brute_role_graph(big_r, k, chunk=512)
            for chunk in (3, 7):
                self.assert_same_csr(build_role_graph(big_r, k, chunk).graph, want)

    def test_pipeline_role_graph_matches_oracle(self):
        model, rg = discover_role_graph(generate_ba(2000, 4, seed=1))
        self.assert_same_csr(rg.graph, brute_role_graph(model.R, rg.k))


class TestPipelineAndSerialization:
    def test_discover_role_graph_runs(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 60, 0.08)
        model, rg = discover_role_graph(g, k=5, seed=0)
        assert model.R.shape[0] == 60
        assert 1 <= model.r <= 8
        assert model.mdl_cost is not None
        assert rg.graph.num_nodes == 60

    def test_minmax_scale(self):
        feat = FeatureMatrix(np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]]), ("a", "b"))
        out = minmax_scale(feat)
        assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert np.all(out.values[:, 1] == 0.0)

    def test_role_graph_exports_as_edge_list(self, tmp_path):
        from dismantler.graph import load_edge_list, save_edge_list

        rng = np.random.default_rng(13)
        rg = build_role_graph(rng.uniform(0, 1, size=(15, 3)), k=2)
        path = tmp_path / "role_graph.txt"
        save_edge_list(rg.graph, path)
        back = load_edge_list(path)
        assert back.num_nodes == rg.graph.num_nodes
        assert back.num_edges == rg.graph.num_edges
