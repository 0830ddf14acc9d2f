"""Gradient checks and semantics for every differentiable op."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, ops


def arrays(shape, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=shape)


class TestElementwiseGradients:
    @pytest.mark.parametrize("fn", [
        lambda a, b: ops.add(a, b),
        lambda a, b: ops.sub(a, b),
        lambda a, b: ops.mul(a, b),
    ])
    def test_binary_same_shape(self, fn):
        check_gradients(fn, [arrays((3, 4), 1), arrays((3, 4), 2)])

    def test_div(self):
        b = np.abs(arrays((3, 4), 2)) + 1.0
        check_gradients(lambda a, b: ops.div(a, b), [arrays((3, 4), 1), b])

    @pytest.mark.parametrize("shapes", [((3, 1), (3, 4)), ((4,), (3, 4)), ((1,), (2, 2))])
    def test_broadcasting(self, shapes):
        check_gradients(lambda a, b: ops.mul(a, b),
                        [arrays(shapes[0], 1), arrays(shapes[1], 2)])

    def test_neg(self):
        check_gradients(lambda a: ops.neg(a), [arrays((5,), 3)])

    def test_power(self):
        x = np.abs(arrays((4,), 4)) + 0.5
        check_gradients(lambda a: ops.power(a, 2.5), [x])

    def test_exp_log(self):
        check_gradients(lambda a: ops.exp(a), [arrays((4,), 5, 0.5)])
        check_gradients(lambda a: ops.log(a), [np.abs(arrays((4,), 6)) + 0.5])

    def test_sqrt(self):
        check_gradients(lambda a: ops.sqrt(a), [np.abs(arrays((4,), 7)) + 0.5])

    def test_absolute(self):
        x = arrays((6,), 8)
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_gradients(lambda a: ops.absolute(a), [x])

    def test_clip_gradient_masked(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        ops.sum(ops.clip(a, -1.0, 1.0)).backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_maximum(self):
        a = arrays((5,), 9)
        b = arrays((5,), 10)
        b += (np.abs(a - b) < 0.1) * 0.5  # avoid ties
        check_gradients(lambda x, y: ops.maximum(x, y), [a, b])


class TestActivationGradients:
    @pytest.mark.parametrize("fn", [
        lambda a: ops.relu(a),
        lambda a: ops.leaky_relu(a, 0.1),
        lambda a: ops.elu(a),
        lambda a: ops.sigmoid(a),
        lambda a: ops.tanh(a),
    ])
    def test_unary(self, fn):
        x = arrays((4, 3), 11)
        x[np.abs(x) < 0.05] = 0.3  # avoid relu kink
        check_gradients(fn, [x])

    def test_softmax(self):
        check_gradients(lambda a: ops.softmax(a, axis=-1), [arrays((3, 5), 12)])

    def test_log_softmax(self):
        check_gradients(lambda a: ops.log_softmax(a, axis=-1), [arrays((3, 5), 13)])

    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(Tensor(arrays((4, 6), 14)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_sigmoid_saturation_no_overflow(self):
        out = ops.sigmoid(Tensor(np.array([-1e4, 1e4])))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_row_normalize(self):
        check_gradients(lambda a: ops.row_normalize(a), [arrays((4, 3), 15)])
        out = ops.row_normalize(Tensor(arrays((4, 3), 15)))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4))

    def test_cosine_similarity_range(self):
        a, b = arrays((10, 4), 16), arrays((10, 4), 17)
        sim = ops.cosine_similarity(Tensor(a), Tensor(b)).data
        assert np.all(sim <= 1.0 + 1e-9) and np.all(sim >= -1.0 - 1e-9)

    def test_cosine_similarity_gradient(self):
        check_gradients(lambda a, b: ops.cosine_similarity(a, b),
                        [arrays((4, 3), 18), arrays((4, 3), 19)])


class TestLinearAlgebra:
    def test_matmul_grad(self):
        check_gradients(lambda a, b: ops.matmul(a, b),
                        [arrays((3, 4), 20), arrays((4, 2), 21)])

    def test_matmul_value(self):
        a, b = arrays((2, 3), 22), arrays((3, 2), 23)
        np.testing.assert_allclose(ops.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_transpose_grad(self):
        check_gradients(lambda a: ops.transpose(a), [arrays((3, 4), 24)])

    def test_transpose_axes(self):
        a = arrays((2, 3, 4), 25)
        out = ops.transpose(Tensor(a), (2, 0, 1))
        assert out.shape == (4, 2, 3)
        check_gradients(lambda t: ops.transpose(t, (2, 0, 1)), [a])

    def test_reshape_grad(self):
        check_gradients(lambda a: ops.reshape(a, (2, 6)), [arrays((3, 4), 26)])

    def test_concat_grad(self):
        check_gradients(lambda a, b: ops.concat([a, b], axis=0),
                        [arrays((2, 3), 27), arrays((4, 3), 28)])
        check_gradients(lambda a, b: ops.concat([a, b], axis=1),
                        [arrays((2, 3), 29), arrays((2, 2), 30)])

    def test_stack_grad(self):
        check_gradients(lambda a, b: ops.stack([a, b], axis=0),
                        [arrays((2, 3), 31), arrays((2, 3), 32)])


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_sum(self, axis, keepdims):
        check_gradients(lambda a: ops.sum(a, axis=axis, keepdims=keepdims),
                        [arrays((3, 4), 33)])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_mean(self, axis, keepdims):
        check_gradients(lambda a: ops.mean(a, axis=axis, keepdims=keepdims),
                        [arrays((3, 4), 34)])

    def test_norm_l2(self):
        check_gradients(lambda a: ops.norm(a, axis=1), [arrays((4, 3), 35)])

    def test_norm_l1(self):
        x = arrays((4, 3), 36)
        x[np.abs(x) < 0.1] = 0.5
        check_gradients(lambda a: ops.norm(a, axis=1, ord=1), [x])

    def test_norm_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported"):
            ops.norm(Tensor(arrays((3,), 37)), ord=3)

    def test_max_reduce(self):
        x = arrays((4, 5), 38)
        check_gradients(lambda a: ops.max_reduce(a, axis=1), [x])


class TestIndexingScatter:
    def test_index_slice(self):
        check_gradients(lambda a: ops.index(a, (slice(1, 3), slice(None))),
                        [arrays((4, 3), 39)])

    def test_gather_rows_duplicates(self):
        idx = np.array([0, 0, 2, 2, 2])
        check_gradients(lambda a: ops.gather_rows(a, idx), [arrays((4, 3), 40)])

    def test_set_rows_value_and_grads(self):
        check_gradients(lambda a, v: ops.set_rows(a, np.array([0, 2]), v),
                        [arrays((4, 3), 41), arrays((1, 3), 42)])
        a = Tensor(arrays((4, 3), 43))
        v = Tensor(np.zeros((1, 3)))
        out = ops.set_rows(a, np.array([1]), v)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[0], a.data[0])

    def test_segment_sum_values(self):
        vals = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.segment_sum(vals, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_segment_sum_grad(self):
        check_gradients(
            lambda a: ops.segment_sum(a, np.array([0, 1, 1, 2, 0]), 3),
            [arrays((5, 2), 44)])

    def test_segment_softmax_sums_to_one_per_segment(self):
        seg = np.array([0, 0, 1, 1, 1])
        out = ops.segment_softmax(Tensor(arrays((5,), 45)), seg, 2).data
        assert out[:2].sum() == pytest.approx(1.0)
        assert out[2:].sum() == pytest.approx(1.0)

    def test_segment_softmax_grad(self):
        check_gradients(
            lambda a: ops.segment_softmax(a, np.array([0, 0, 1, 1, 2, 2]), 3),
            [arrays((6, 2), 46)])

    def test_dropout_eval_identity(self):
        a = Tensor(arrays((5, 5), 47))
        out = ops.dropout(a, 0.5, np.random.default_rng(0), training=False)
        assert out is a

    def test_dropout_scales_kept_values(self):
        rng = np.random.default_rng(0)
        a = Tensor(np.ones((1000,)))
        out = ops.dropout(a, 0.5, rng, training=True).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.35 < (out > 0).mean() < 0.65


def test_matmul_grad_property(int_examples):
    """Property: matmul gradients match finite differences for random sizes."""
    for n, m, seed in int_examples(25, (2, 6), (2, 6), (0, 10_000)):
        a = arrays((n, m), seed)
        b = arrays((m, n), seed + 1)
        check_gradients(lambda x, y: ops.matmul(x, y), [a, b])


def test_segment_softmax_partition_property(int_examples):
    """Property: per-segment attention always sums to one."""
    for n, cols, seed in int_examples(25, (2, 30), (1, 4), (0, 10_000)):
        rng = np.random.default_rng(seed)
        seg = np.sort(rng.integers(0, 5, size=n))
        scores = rng.normal(size=(n, cols))
        out = ops.segment_softmax(Tensor(scores), seg, 5).data
        for s in np.unique(seg):
            np.testing.assert_allclose(out[seg == s].sum(axis=0),
                                       np.ones(cols), rtol=1e-9)
