import numpy as np
import pytest

from dismantler import autodiff
from dismantler.autodiff import (
    ParamStore,
    Tensor,
    adam_step,
    add,
    add_bias,
    constant,
    leaky_relu,
    matmul,
    mul,
    reciprocal_1p,
    reduce_sum,
    relu,
    row_gather,
    scatter_rows,
    segment_prod,
    segment_softmax,
    segment_sum,
    sigmoid,
)

from util import add_at_scatter_rows


def numeric_grad(fn, values, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(values)
    flat = values.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(values)
        flat[i] = orig - h
        down = fn(values)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_grad(build, values, rtol=1e-6):
    """Compare the analytic gradient of a weighted sum of build(x) against
    central finite differences. The random projection keeps gradients
    generically nonzero (a plain sum is constant for e.g. softmax outputs).
    """
    probe = build(Tensor(values.copy()))
    weight = constant(np.random.default_rng(123).normal(size=probe.shape))

    def loss_tensor(x):
        return reduce_sum(mul(build(x), weight))

    x = Tensor(values.copy(), requires_grad=True)
    loss_tensor(x).backward()

    def scalar(v):
        return loss_tensor(Tensor(v)).item()

    expected = numeric_grad(scalar, values.copy())
    err = np.abs(x.grad - expected)
    denom = np.maximum(np.maximum(np.abs(expected), np.abs(x.grad)), 1.0)
    assert np.max(err / denom) < rtol


class TestForwardValues:
    def test_segment_softmax_uniform(self):
        x = Tensor(np.zeros((3, 1)))
        out = segment_softmax(x, np.array([0, 0, 0]), 1)
        assert np.allclose(out.values, 1.0 / 3.0)

    def test_segment_softmax_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(20, 1)))
        seg = rng.integers(0, 5, size=20)
        out = segment_softmax(x, seg, 5)
        assert np.all(out.values > 0)
        sums = np.bincount(seg, weights=out.values[:, 0], minlength=5)
        present = np.bincount(seg, minlength=5) > 0
        assert np.allclose(sums[present], 1.0, atol=1e-6)

    def test_reciprocal_1p_at_zero(self):
        assert reciprocal_1p(Tensor([[0.0]])).item() == 1.0

    def test_segment_prod_empty_segment_is_one(self):
        x = Tensor(np.array([[2.0], [3.0]]))
        out = segment_prod(x, np.array([0, 0]), 2)
        assert out.values[:, 0].tolist() == [6.0, 1.0]

    def test_segment_sum_empty_rows(self):
        x = Tensor(np.empty((0, 3)))
        out = segment_sum(x, np.empty(0, dtype=int), 4)
        assert out.shape == (4, 3)
        assert np.all(out.values == 0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        w = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        reduce_sum(w).backward()
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_sigmoid_gradient_at_zero(self):
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        reduce_sum(sigmoid(w)).backward()
        assert np.allclose(w.grad, 0.25)

    def test_non_scalar_backward_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            add(w, w).backward()

    def test_grad_accumulates_without_zeroing(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        reduce_sum(w).backward()
        reduce_sum(w).backward()
        assert np.array_equal(w.grad, 2 * np.ones((2, 2)))

    def test_repeated_backward_accumulates_once_per_call(self):
        w = Tensor(np.ones((1, 1)), requires_grad=True)
        loss = reduce_sum(mul(w, constant([[3.0]])))
        loss.backward()
        loss.backward()
        assert w.grad[0, 0] == 6.0

    def test_interior_grads_released_leaves_kept(self):
        w = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        v = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        prod = mul(w, v)
        act = sigmoid(prod)
        loss = reduce_sum(act)
        loss.backward()
        assert prod.grad is None and act.grad is None and loss.grad is None
        assert w.grad is not None and v.grad is not None

    def test_leaf_grads_are_not_shared(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        v = Tensor(np.zeros((2, 2)), requires_grad=True)
        reduce_sum(add(w, v)).backward()
        assert w.grad is not v.grad
        assert np.array_equal(w.grad, np.ones((2, 2)))
        assert np.array_equal(v.grad, np.ones((2, 2)))

    def test_constant_operand_gets_no_grad(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        for op in (matmul, add, mul):
            c = constant(rng.normal(size=(3, 3)))
            reduce_sum(op(c, w)).backward()
            reduce_sum(op(w, c)).backward()
            assert c.grad is None

    def test_shared_subexpression(self):
        w = Tensor(np.full((1, 1), 3.0), requires_grad=True)
        y = mul(w, w)  # w^2, dw = 2w
        reduce_sum(y).backward()
        assert w.grad[0, 0] == pytest.approx(6.0)


class TestGradientChecks:
    def test_matmul(self):
        rng = np.random.default_rng(2)
        b = constant(rng.normal(size=(3, 2)))
        check_grad(lambda x: matmul(x, b), rng.normal(size=(4, 3)))

    def test_elementwise_ops(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.3, 2.0, size=(4, 3))
        check_grad(sigmoid, vals.copy())
        check_grad(reciprocal_1p, vals.copy())
        # keep away from the kink for relu-like ops
        signed = np.where(rng.random((4, 3)) < 0.5, -1.0, 1.0) * vals
        check_grad(relu, signed.copy())
        check_grad(lambda x: leaky_relu(x, 0.2), signed.copy())

    def test_mul_broadcast(self):
        rng = np.random.default_rng(4)
        w = constant(rng.normal(size=(5, 1)))
        check_grad(lambda x: mul(w, x), rng.normal(size=(5, 3)))
        w2 = constant(rng.normal(size=(5, 3)))
        check_grad(lambda x: mul(x, w2), rng.normal(size=(5, 1)))

    def test_add_bias(self):
        rng = np.random.default_rng(5)
        x = constant(rng.normal(size=(4, 3)))
        check_grad(lambda b: add_bias(x, b), rng.normal(size=(1, 3)))

    def test_row_gather(self):
        rng = np.random.default_rng(6)
        idx = np.array([0, 2, 2, 1, 0])
        check_grad(lambda x: row_gather(x, idx), rng.normal(size=(3, 2)))

    def test_segment_ops(self):
        rng = np.random.default_rng(7)
        seg = np.array([0, 0, 1, 2, 2, 2])
        check_grad(lambda x: segment_sum(x, seg, 3), rng.normal(size=(6, 2)))
        check_grad(lambda x: segment_softmax(x, seg, 3), rng.normal(size=(6, 1)),
                   rtol=1e-5)
        check_grad(lambda x: segment_prod(x, seg, 3),
                   rng.uniform(0.4, 1.5, size=(6, 1)))

    def test_random_compositions(self):
        # 50 trials across the registered ops on random inputs
        rng = np.random.default_rng(8)
        for trial in range(50):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            w = constant(rng.normal(size=(d, d)))
            seg = rng.integers(0, 2, size=n)

            def build(x, w=w, seg=seg, n=n):
                y = matmul(x, w)
                y = sigmoid(y)
                z = segment_sum(y, seg, 2)
                return mul(z, z)

            check_grad(build, rng.normal(size=(n, d)), rtol=1e-4)


class TestAdam:
    def test_zero_grad_no_move(self):
        store = ParamStore(seed=0)
        w = store.glorot("w", 3, 3)
        before = w.values.copy()
        adam_step(store, lr=0.1)
        assert np.array_equal(w.values, before)

    def test_quadratic_convergence(self):
        store = ParamStore(seed=0)
        x = store.zeros("x", 1, 1)
        for _ in range(500):
            loss = mul(add(x, constant([[-3.0]])), add(x, constant([[-3.0]])))
            loss.backward()
            adam_step(store, lr=0.1)
        assert abs(x.values[0, 0] - 3.0) < 1e-2

    def test_bit_identical_trajectories(self):
        def run():
            store = ParamStore(seed=42)
            w = store.glorot("w", 4, 4)
            traj = []
            for _ in range(20):
                loss = reduce_sum(mul(w, w))
                loss.backward()
                adam_step(store, lr=0.05)
                traj.append(w.values.copy())
            return traj

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_duplicate_name_rejected(self):
        store = ParamStore(seed=0)
        store.zeros("w", 1, 1)
        with pytest.raises(ValueError):
            store.zeros("w", 2, 2)


def _scatter_cases():
    """Seeded (x, index, num_rows): repeated indices and three buckets no index hits."""
    rng = np.random.default_rng(21)
    for d in (1, 3, 32, 40):
        for rows, buckets in ((1, 1), (17, 5), (300, 40)):
            yield rng.normal(size=(rows, d)), rng.integers(0, buckets, size=rows), buckets + 3


class TestScatterRows:
    """`scatter_rows` and the ops built on it against one 2-D `np.add.at`."""

    @pytest.fixture(params=[None, 7], ids=["default_chunk", "7_entry_chunk"])
    def chunk(self, request, monkeypatch):
        # 7 entries divide none of the row counts and cut d = 32, 40 to one row
        if request.param is not None:
            monkeypatch.setattr(autodiff, "_SCATTER_ENTRIES", request.param)

    def test_matches_add_at(self, chunk):
        for x, index, num_rows in _scatter_cases():
            assert np.array_equal(scatter_rows(x, index, num_rows),
                                  add_at_scatter_rows(x, index, num_rows))

    def test_empty_index(self, chunk):
        for d in (1, 3, 32, 40):
            x = np.zeros((0, d))
            index = np.zeros(0, dtype=np.int64)
            for num_rows in (0, 4):
                out = scatter_rows(x, index, num_rows)
                assert out.shape == (num_rows, d)
                assert np.array_equal(out, add_at_scatter_rows(x, index, num_rows))

    def test_non_contiguous_inputs(self, chunk):
        rng = np.random.default_rng(22)
        for d in (1, 3, 32, 40):
            index = rng.integers(0, 30, size=250)
            transposed = rng.normal(size=(d, 500))[:, ::2].T
            column_slice = rng.normal(size=(250, d + 5))[:, 2:2 + d]
            for x in (transposed, column_slice):
                assert not x.flags.c_contiguous
                assert np.array_equal(scatter_rows(x, index, 33),
                                      add_at_scatter_rows(x, index, 33))

    def test_index_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scatter_rows(np.ones((4, 2)), np.zeros(3, dtype=np.int64), 2)

    def test_segment_sum_matches_add_at(self, chunk):
        for x, index, num_rows in _scatter_cases():
            out = segment_sum(constant(x), index, num_rows).values
            assert np.array_equal(out, add_at_scatter_rows(x, index, num_rows))

    def test_row_gather_backward_matches_add_at(self, chunk):
        for g, index, num_rows in _scatter_cases():
            x = Tensor(np.zeros((num_rows, g.shape[1])), requires_grad=True)
            # the upstream gradient of sum(gathered * g) is g itself, bitwise
            reduce_sum(mul(row_gather(x, index), constant(g))).backward()
            assert np.array_equal(x.grad, add_at_scatter_rows(g, index, num_rows))
