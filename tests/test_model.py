import numpy as np
import pytest

from dismantler import autodiff as ad
from dismantler import model
from dismantler.graph import Graph, generate_ba, generate_er
from dismantler.model import (
    DcrsConfig,
    dismantling_loss,
    forward,
    gcn_forward,
    gdn_forward,
    init_params,
    run_dcrs,
    score_and_fuse,
    train,
)
from dismantler.roles import RoleGraph, build_role_graph, discover_role_graph

from util import (
    add_at_scatter_rows,
    add_first_layer_attention,
    full_width_gcn_forward,
    full_width_gdn_forward,
    path_graph,
    random_graph,
    scale_leaky_relu,
    star,
    triangle,
)


def zero_attention(store, layers):
    """Hand-set a diffusion layer stack: no attention, identity aggregation.

    Layer 0 has no attention parameters; it is uniform by construction.
    """
    d = store["gdn0.w3"].values.shape[0]
    for layer in range(layers):
        if layer:
            store[f"gdn{layer}.w1"].values[:] = 0.0
            store[f"gdn{layer}.w2"].values[:] = 0.0
        store[f"gdn{layer}.w3"].values[:] = np.eye(d)
        store[f"gdn{layer}.b3"].values[:] = 0.0


class TestGdnForward:
    def test_uniform_weights_on_first_layer(self):
        g = random_graph(np.random.default_rng(0), 15, 0.25)
        cfg = DcrsConfig(hidden_dim=4, gdn_layers=1, epochs=1, seed=0)
        store = init_params(cfg)
        collected = []
        gdn_forward(g, store, 1, weights_out=collected)
        weights = collected[0][:, 0]
        # equal logits within each out-edge segment -> exactly 1/deg weights
        assert np.array_equal(weights, 1.0 / g.degrees[g.edge_src])

    def test_first_layer_has_no_attention_parameters(self):
        names = set(init_params(DcrsConfig(gdn_layers=3)).names())
        assert not names & {"gdn0.w1", "gdn0.w2", "gdn0.beta"}
        assert {"gdn1.w1", "gdn1.w2", "gdn1.beta", "gdn2.beta"} <= names

    def test_softmax_sums_per_source(self):
        g = random_graph(np.random.default_rng(1), 20, 0.2)
        cfg = DcrsConfig(hidden_dim=8, gdn_layers=2, epochs=1, seed=3)
        store = init_params(cfg)
        collected = []
        gdn_forward(g, store, 2, weights_out=collected)
        for weights in collected:
            sums = np.bincount(g.edge_src, weights=weights[:, 0], minlength=g.num_nodes)
            present = g.degrees > 0
            assert np.allclose(sums[present], 1.0, atol=1e-6)

    def test_path_hand_trace(self):
        g = path_graph(3)
        cfg = DcrsConfig(hidden_dim=4, gdn_layers=1, epochs=1, seed=0)
        store = init_params(cfg)
        zero_attention(store, 1)
        h = gdn_forward(g, store, 1).values
        # endpoints each send weight 1; the middle splits 1/2 each way
        assert np.allclose(h[1], 2.0)
        assert np.allclose(h[0], 0.5)
        assert np.allclose(h[2], 0.5)

    def test_isolated_node_empty_aggregation(self):
        g = Graph(3, [(0, 1)])
        cfg = DcrsConfig(hidden_dim=4, gdn_layers=1, epochs=1, seed=0)
        store = init_params(cfg)
        zero_attention(store, 1)
        h = gdn_forward(g, store, 1).values
        assert np.all(h[2] == 0.0)

    def test_permutation_equivariance_hand_params(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 12, 0.3)
        rg = RoleGraph(random_graph(rng, 12, 0.3), k=3)
        perm = rng.permutation(12)
        gp = Graph(12, [(int(perm[u]), int(perm[v])) for u, v in g.edge_list()])
        rgp = RoleGraph(Graph(12, [(int(perm[u]), int(perm[v]))
                                   for u, v in rg.graph.edge_list()]), k=3)
        cfg = DcrsConfig(hidden_dim=1, gdn_layers=2, gcn_layers=2, epochs=1, seed=0)

        def hand_store():
            store = init_params(cfg)
            store["gdn1.w1"].values[:] = 0.3
            store["gdn1.w2"].values[:] = -0.2
            store["gdn1.beta"].values[:] = 0.7
            for layer in range(2):
                store[f"gdn{layer}.w3"].values[:] = 0.9
                store[f"gdn{layer}.b3"].values[:] = 0.1
                store[f"gcn{layer}.w"].values[:] = 1.1
            store["score_dc.w"].values[:] = 0.5
            store["score_rs.w"].values[:] = 0.4
            return store

        _, _, s, _, _ = forward(g, rg, hand_store(), cfg)
        _, _, sp, _, _ = forward(gp, rgp, hand_store(), cfg)
        assert np.allclose(sp.values[perm, 0], s.values[:, 0], atol=1e-12)


class TestGcnForward:
    def test_lonely_node_keeps_self_loop(self):
        rg = RoleGraph(Graph(3, [(0, 1)]), k=1)
        cfg = DcrsConfig(hidden_dim=4, gcn_layers=1, epochs=1, seed=0)
        store = init_params(cfg)
        store["gcn0.w"].values[:] = np.eye(4)
        z = gcn_forward(rg, store, 1).values
        assert np.allclose(z[2], 1.0)

    def test_complete_role_graph_uniform_rows(self):
        n = 6
        rg = RoleGraph(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
                       k=n - 1)
        cfg = DcrsConfig(hidden_dim=4, gcn_layers=2, epochs=1, seed=1)
        store = init_params(cfg)
        z = gcn_forward(rg, store, 2).values
        assert np.allclose(z, z[0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(5, 51))
            rg = RoleGraph(random_graph(rng, n, 0.15), k=3)
            cfg = DcrsConfig(hidden_dim=6, gcn_layers=2, epochs=1,
                             seed=int(rng.integers(100)))
            store = init_params(cfg)
            z = gcn_forward(rg, store, 2).values

            a = np.zeros((n, n))
            for u, v in rg.graph.edge_list():
                a[u, v] = a[v, u] = 1.0
            a_tilde = a + np.eye(n)
            d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
            s = d_inv_sqrt @ a_tilde @ d_inv_sqrt
            ref = np.ones((n, 6))
            for layer in range(2):
                ref = np.maximum(s @ ref @ store[f"gcn{layer}.w"].values, 0.0)
            assert np.allclose(z, ref, atol=1e-10)


class TestScoreAndFuse:
    def test_lambda_one_ignores_role_branch(self):
        rng = np.random.default_rng(4)
        cfg = DcrsConfig(hidden_dim=5, epochs=1, seed=0)
        store = init_params(cfg)
        store["score_dc.w"].values[:] = rng.normal(size=(5, 1))
        h = ad.constant(rng.random((7, 5)))
        za = ad.constant(rng.random((7, 5)))
        zb = ad.constant(rng.random((7, 5)))
        _, _, sa = score_and_fuse(h, za, store, lam=1.0)
        _, _, sb = score_and_fuse(h, zb, store, lam=1.0)
        assert np.array_equal(sa.values, sb.values)

    def test_zero_params_give_half(self):
        cfg = DcrsConfig(hidden_dim=4, epochs=1, seed=0)
        store = init_params(cfg)
        store["score_dc.w"].values[:] = 0.0
        store["score_dc.b"].values[:] = 0.0
        store["score_rs.w"].values[:] = 0.0
        store["score_rs.b"].values[:] = 0.0
        h = ad.constant(np.random.default_rng(5).random((6, 4)))
        _, _, s = score_and_fuse(h, h, store, lam=0.5)
        assert np.all(s.values == 0.5)

    def test_ordering_preserved_at_lambda_one(self):
        rng = np.random.default_rng(6)
        cfg = DcrsConfig(hidden_dim=3, epochs=1, seed=0)
        store = init_params(cfg)
        store["score_dc.w"].values[:] = rng.normal(size=(3, 1))
        h = ad.constant(rng.random((10, 3)))
        s_dc, _, s_dis = score_and_fuse(h, h, store, lam=1.0)
        order_dc = np.argsort(s_dc.values[:, 0])
        assert np.array_equal(order_dc, np.argsort(s_dis.values[:, 0], kind="stable"))

    def test_s_dis_range(self):
        rng = np.random.default_rng(7)
        cfg = DcrsConfig(hidden_dim=4, epochs=1, seed=2)
        store = init_params(cfg)
        store["score_dc.w"].values[:] = rng.normal(size=(4, 1))
        store["score_rs.w"].values[:] = rng.normal(size=(4, 1))
        h = ad.constant(rng.random((50, 4)) * 10)
        _, _, s = score_and_fuse(h, h, store, lam=0.3)
        assert np.all(s.values >= 0.5)
        assert np.all(s.values < 1.0)


class TestLoss:
    def test_triangle_all_zero_scores(self):
        loss = dismantling_loss(triangle(), np.zeros(3), gamma=1.0)
        assert loss.item() == 3.0

    def test_triangle_all_one_scores(self):
        loss = dismantling_loss(triangle(), np.ones(3), gamma=1.0)
        assert loss.item() == 3.75

    def test_star_mixed_scores(self):
        s = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        loss = dismantling_loss(star(4), s, gamma=0.0)
        assert loss.item() == 3.0

    def test_isolated_node_contributes_one(self):
        g = Graph(2, [])
        loss = dismantling_loss(g, np.zeros(2), gamma=0.0)
        assert loss.item() == 2.0

    def test_lower_bound(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 30, 0.15)
        s = rng.uniform(0, 1, 30)
        loss = dismantling_loss(g, s, gamma=0.7).item()
        assert loss >= 0.7 * s.sum()


class TestFullModelGradients:
    def test_every_parameter_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 12, 0.3)
        _, rg = discover_role_graph(g, k=3, seed=0)
        cfg = DcrsConfig(hidden_dim=6, gdn_layers=2, gcn_layers=2, epochs=1,
                         lam=0.4, gamma=1.0, seed=11)
        store = init_params(cfg)
        # non-degenerate heads so gradients reach every branch
        store["score_dc.w"].values[:] = rng.normal(scale=0.5, size=(6, 1))
        store["score_rs.w"].values[:] = rng.normal(scale=0.5, size=(6, 1))

        def loss_value():
            _, _, s_dis, _, _ = forward(g, rg, store, cfg)
            return dismantling_loss(g, s_dis, cfg.gamma)

        loss = loss_value()
        loss.backward()
        grads = {name: t.grad.copy() for name, t in store.items()}
        h = 1e-5
        worst = 0.0
        for name, tensor in store.items():
            flat = tensor.values.ravel()
            gflat = grads[name].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_value().item()
                flat[idx] = orig - h
                down = loss_value().item()
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                # 1e-5 floor: below it central differences are cancellation
                # noise (eps * |loss| / 2h), not signal
                denom = max(abs(numeric), abs(gflat[idx]), 1e-5)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-4


def _one_pass(g, rg, store, cfg, gdn, gcn):
    """Forward values and parameter grads of one loss.backward()."""
    store.zero_grad()
    weights = []
    h = gdn(g, store, cfg.gdn_layers, weights_out=weights)
    z = gcn(rg, store, cfg.gcn_layers)
    s_dc, s_rs, s_dis = score_and_fuse(h, z, store, cfg.lam)
    loss = dismantling_loss(g, s_dis, cfg.gamma)
    loss.backward()
    values = [h.values, z.values, s_dc.values, s_rs.values, s_dis.values,
              loss.values, *weights]
    return values, {name: t.grad for name, t in store.items()}


def _folding_cases():
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        rg = RoleGraph(random_graph(rng, n, float(rng.uniform(0.0, 0.3))), k=3)
        yield g, rg, int(rng.integers(1, 7)), int(rng.integers(1, 4))
    # isolated nodes in the graph, a lonely node in the role graph
    lonely = RoleGraph(Graph(6, [(0, 1), (2, 3), (3, 4)]), k=1)
    yield Graph(6, [(0, 1), (1, 2), (0, 2)]), lonely, 4, 2
    yield Graph(4, []), RoleGraph(Graph(4, []), k=1), 3, 2


def assert_close(actual, expected, what):
    """Agreement within 1e-12 of the larger array's largest magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    if actual.size:
        scale = max(np.abs(actual).max(), np.abs(expected).max())
        assert np.abs(actual - expected).max() <= 1e-12 * scale, what


class TestFoldedFirstLayers:
    """Layer 0 of the diffusion encoder is the closed form of uniform
    attention, and layer 0 of the role encoder sums one column of the
    all-ones input. The full-width reference in tests/util.py runs softmax
    attention with random layer-0 parameters on the full (E, d) block."""

    def test_first_layer_is_exact_inverse_degree_sum(self):
        for g, _, d, _ in _folding_cases():
            store = init_params(DcrsConfig(hidden_dim=d, gdn_layers=1, epochs=1))
            zero_attention(store, 1)  # identity map: h is the layer-0 sum itself
            h = gdn_forward(g, store, 1).values
            deg = g.degrees
            # the in-order float sum over the sorted neighbor list
            exact = [sum(1.0 / deg[j] for j in g.neighbors_of(i)) for i in range(g.num_nodes)]
            assert np.array_equal(h, np.repeat(np.array(exact, dtype=float).reshape(-1, 1),
                                               d, axis=1))

    def test_values_and_grads_match_full_width(self):
        rng = np.random.default_rng(13)
        for g, rg, d, layers in _folding_cases():
            cfg = DcrsConfig(hidden_dim=d, gdn_layers=layers, gcn_layers=layers,
                             epochs=1, lam=float(rng.uniform(0.1, 0.9)), gamma=0.3,
                             seed=int(rng.integers(100)))
            store = init_params(cfg)
            names = store.names()
            # non-zero heads so gradients reach every encoder parameter
            store["score_dc.w"].values[:] = rng.normal(scale=0.5, size=(d, 1))
            store["score_rs.w"].values[:] = rng.normal(scale=0.5, size=(d, 1))
            add_first_layer_attention(store)
            lean, lean_grads = _one_pass(g, rg, store, cfg, gdn_forward, gcn_forward)
            ref, ref_grads = _one_pass(g, rg, store, cfg, full_width_gdn_forward,
                                       full_width_gcn_forward)
            assert len(lean) == len(ref)
            # the role encoder does not see the diffusion layer at all
            assert np.array_equal(lean[1], ref[1])
            for i, (a, b) in enumerate(zip(lean, ref)):
                assert_close(a, b, f"value {i}")
            for name in names:
                assert lean_grads[name] is not None
                assert_close(lean_grads[name], ref_grads[name], name)

    @pytest.mark.parametrize("ablation", ["full", "no_rs", "no_dc"])
    def test_training_matches_full_width(self, monkeypatch, ablation):
        base = generate_er(150, 5, seed=4)
        g = Graph(base.num_nodes + 2, base.edge_list())  # two isolated nodes
        _, rg = discover_role_graph(g, k=5, seed=4)
        cfg = DcrsConfig(epochs=10, seed=6, ablation=ablation)
        lean = train(g, rg, cfg)

        def init_with_attention(config):
            store = init_params(config)
            add_first_layer_attention(store)
            return store

        monkeypatch.setattr(model, "init_params", init_with_attention)
        monkeypatch.setattr(model, "gdn_forward", full_width_gdn_forward)
        monkeypatch.setattr(model, "gcn_forward", full_width_gcn_forward)
        ref = train(g, rg, cfg)
        for field in ("s_dc", "s_rs", "s_dis", "H", "Z"):
            assert_close(getattr(lean, field), getattr(ref, field), field)
        assert_close(lean.loss_history, ref.loss_history, "loss_history")


class TestLeanKernels:
    """Training is bitwise the same with the chunked flat scatter and the
    mask-only LeakyReLU as with one 2-D `np.add.at` and the float scale."""

    @pytest.mark.parametrize("ablation", ["full", "no_rs", "no_dc"])
    def test_training_matches_add_at_kernels(self, monkeypatch, ablation):
        base = generate_er(150, 5, seed=4)
        g = Graph(base.num_nodes + 2, base.edge_list())  # two isolated nodes
        _, rg = discover_role_graph(g, k=5, seed=4)
        cfg = DcrsConfig(epochs=10, seed=6, ablation=ablation)
        lean = train(g, rg, cfg)
        # chunks of 31 rows at d = 32: the scatters cross chunk boundaries
        monkeypatch.setattr(ad, "_SCATTER_ENTRIES", 1000)
        chunked = train(g, rg, cfg)
        calls = []

        def counted_scatter(x, index, num_rows):
            calls.append(x.shape)
            return add_at_scatter_rows(x, index, num_rows)

        monkeypatch.setattr(ad, "scatter_rows", counted_scatter)
        monkeypatch.setattr(ad, "leaky_relu", scale_leaky_relu)
        ref = train(g, rg, cfg)
        assert calls, "the oracle scatter was never called"
        for out in (lean, chunked):
            for field in ("s_dc", "s_rs", "s_dis", "H", "Z"):
                assert np.array_equal(getattr(out, field), getattr(ref, field)), field
            assert out.loss_history == ref.loss_history


class TestTraining:
    def test_descent_on_ba(self):
        g = generate_ba(200, 4, seed=1)
        out = run_dcrs(g, DcrsConfig(epochs=200, seed=0))
        assert out.loss_history[-1] < out.loss_history[0]

    def test_determinism(self):
        g = generate_ba(100, 3, seed=2)
        a = run_dcrs(g, DcrsConfig(epochs=50, seed=5))
        b = run_dcrs(g, DcrsConfig(epochs=50, seed=5))
        assert np.array_equal(a.s_dis, b.s_dis)
        assert a.loss_history == b.loss_history

    def test_ablation_no_dc_equals_lambda_zero(self):
        g = generate_ba(80, 3, seed=3)
        _, rg = discover_role_graph(g, k=5, seed=3)
        abl = train(g, rg, DcrsConfig(epochs=30, seed=1, ablation="no_dc"))
        lam0 = train(g, rg, DcrsConfig(epochs=30, seed=1, lam=0.0))
        assert np.array_equal(abl.s_dis, lam0.s_dis)

    def test_ablation_forces_lambda(self):
        assert DcrsConfig(ablation="no_rs", lam=0.3).lam == 1.0
        assert DcrsConfig(ablation="no_dc", lam=0.3).lam == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DcrsConfig(lam=1.5)
        with pytest.raises(ValueError):
            DcrsConfig(ablation="bogus")
        with pytest.raises(ValueError):
            DcrsConfig(gdn_layers=0)

    def test_scores_in_range_and_history_length(self):
        g = generate_ba(60, 3, seed=4)
        out = run_dcrs(g, DcrsConfig(epochs=40, seed=2))
        assert len(out.loss_history) == 40
        assert np.all(out.s_dis >= 0.5)
        # the open upper bound can saturate to 1.0 in float64 for huge raw
        # scores; strict inequality is checked pre-saturation below
        assert np.all(out.s_dis <= 1.0)
        assert np.all(out.s_dc >= 0.0)
        assert np.all(out.s_rs >= 0.0)
        early = run_dcrs(g, DcrsConfig(epochs=5, seed=2))
        assert np.all(early.s_dis < 1.0)

    def test_role_graph_node_mismatch_rejected(self):
        g = generate_ba(30, 2, seed=0)
        rg = RoleGraph(Graph(10, [(0, 1)]), k=1)
        with pytest.raises(ValueError):
            train(g, rg, DcrsConfig(epochs=1, seed=0))
