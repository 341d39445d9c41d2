import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.errors import ConfigError, ShapeError, TrainingError

from oracles import (
    conv1d, conv1d_naive, conv2d_naive, fd_gradient, prefix_mean, prefix_mean_naive, rel_err,
    sigmoid_masked,
)

GRAD_TOL = 1e-4


def check_grad(build_loss, arrays, tol=GRAD_TOL):
    """FD-check the gradient of scalar build_loss(*tensors) w.r.t. each array."""
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [T.Tensor(b.copy()) for b in arrays]
            args[i] = T.Tensor(x)
            return float(build_loss(*args).data.sum())

        num = fd_gradient(f, a.copy())
        assert tensors[i].grad is not None
        assert rel_err(tensors[i].grad, num) <= tol


def weighted_sum(x):
    # Reduce to a scalar with fixed irrational-ish weights so every output
    # coordinate influences the loss differently.
    w = np.cos(np.arange(x.size, dtype=np.float64)).reshape(x.shape)
    return T.sum_all(T.mul(x, T.Tensor(w)))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_value():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_matches_fd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    check_grad(lambda x, y: T.sum_all(T.matmul(x, y)), [a, b], tol=1e-6)


# ---------------------------------------------------------------------------
# linear


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(5,), (4, 3)])
def test_linear_matches_matmul_add_bitwise(lead):
    rng = np.random.default_rng(40)
    x = rng.standard_normal(lead + (6,))
    w = rng.standard_normal((6, 7))
    b = rng.standard_normal(7)
    seed = rng.standard_normal(lead + (7,))

    fused = [T.Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = T.linear(*fused)
    out.backward(seed)

    xx, ww, bb = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
    ref = T.reshape(T.add(T.matmul(T.reshape(xx, (-1, 6)), ww), bb), lead + (7,))
    ref.backward(seed)

    assert same_bits(out.data, ref.data)
    for got, want in zip(fused, (xx, ww, bb)):
        assert same_bits(got.grad, want.grad)


def test_linear_gradient_matches_fd():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 2, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    check_grad(lambda xx, ww, bb: weighted_sum(T.linear(xx, ww, bb)), [x, w, b], tol=1e-6)


def test_linear_rejects_mismatched_shapes():
    x, w = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        T.linear(x, T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        T.linear(x, w, T.Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.zeros(4)), w, T.Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# conv1d: the tape op of the op-by-op global block oracle (tests/oracles.py),
# checked here against the loop oracle and finite differences.


def test_conv1d_causal_two_tap():
    # y_t = x_t + x_{t-1} once the caller left-pads one zero.
    x = T.pad_left_time(T.Tensor([[1.0, 2.0, 3.0]]), 1)
    w = T.Tensor(np.array([[[1.0, 1.0]]]))
    out = conv1d(x, w)
    assert np.allclose(out.data, [[1.0, 3.0, 5.0]])


def test_conv1d_pointwise_identity():
    x = T.Tensor(np.random.default_rng(1).standard_normal((4, 7)))
    w = T.Tensor(np.eye(4)[:, :, None])
    assert np.allclose(conv1d(x, w).data, x.data)


def test_conv1d_depthwise_dilated_matches_naive():
    rng = np.random.default_rng(2)
    x = np.cumsum(rng.standard_normal((3, 12)), axis=1)
    w = rng.standard_normal((3, 1, 3))
    out = conv1d(T.Tensor(x), T.Tensor(w), dilation=2, groups=3)
    assert np.max(np.abs(out.data - conv1d_naive(x, w, dilation=2, groups=3))) <= 1e-12


@pytest.mark.parametrize("groups,dilation", [(1, 1), (1, 2), (2, 1), (4, 3)])
def test_conv1d_matches_naive(groups, dilation):
    rng = np.random.default_rng(groups * 10 + dilation)
    x = rng.standard_normal((4, 16))
    w = rng.standard_normal((4, 4 // groups, 3))
    out = conv1d(T.Tensor(x), T.Tensor(w), dilation=dilation, groups=groups)
    assert np.max(np.abs(out.data - conv1d_naive(x, w, dilation, groups))) <= 1e-12


def test_conv1d_group_mismatch():
    with pytest.raises(ShapeError):
        conv1d(T.Tensor(np.zeros((3, 8))), T.Tensor(np.zeros((2, 2, 3))), groups=2)


@pytest.mark.parametrize("groups,dilation", [(1, 1), (1, 2), (4, 2)])
def test_conv1d_gradient(groups, dilation):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 10))
    w = rng.standard_normal((4, 4 // groups, 3))
    b = rng.standard_normal(4)
    check_grad(
        lambda xx, ww, bb: weighted_sum(conv1d(xx, ww, bb, dilation=dilation, groups=groups)),
        [x, w, b],
    )


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_ones():
    out = T.conv2d(T.Tensor(np.ones((1, 3, 3))), T.Tensor(np.ones((1, 1, 2, 2))))
    assert np.allclose(out.data, np.full((1, 2, 2), 4.0))


def test_conv2d_delta_kernel_crops_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 4))
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    out = T.conv2d(T.Tensor(x), T.Tensor(w))
    assert np.array_equal(out.data, x[:, :4, :3])


def test_conv2d_matches_naive():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5, 4))
    w = rng.standard_normal((3, 2, 3, 2))
    out = T.conv2d(T.Tensor(x), T.Tensor(w))
    assert np.max(np.abs(out.data - conv2d_naive(x, w))) <= 1e-12


def test_conv2d_too_small_input():
    with pytest.raises(ShapeError):
        T.conv2d(T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros((1, 1, 3, 3))))


def test_conv2d_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    check_grad(lambda xx, ww, bb: weighted_sum(T.conv2d(xx, ww, bb)), [x, w, b])


# ---------------------------------------------------------------------------
# elementwise suite


def test_swish_at_zero():
    assert T.swish(T.Tensor([0.0])).data[0] == 0.0


def test_relu_in_place_matches_where_form_bitwise():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5, -1.5])
    for z in (edges, np.random.default_rng(43).standard_normal((40, 64))):
        got = z.copy()
        mask = T.relu_(got)
        assert same_bits(got, np.where(z > 0, z, 0.0))
        assert np.array_equal(mask, z > 0)


def test_sigmoid_matches_masked_form_bitwise():
    rng = np.random.default_rng(42)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300,
                      36.0, -36.0, 710.0, -745.0])
    for z in (edges, rng.standard_normal((1, 256)) * 8, rng.standard_normal((50, 512)) * 30):
        got, want = T._sigmoid(z), sigmoid_masked(z)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # Sign bits included: compare the raw bytes of every non-NaN entry.
        assert same_bits(got[~nan], want[~nan])


@pytest.mark.parametrize("op", [T.relu, T.sigmoid, T.tanh, T.swish])
def test_elementwise_gradients(op):
    rng = np.random.default_rng(10)
    # Keep relu away from its kink; FD is meaningless exactly at 0.
    x = rng.standard_normal((3, 5)) + 0.05
    check_grad(lambda xx: weighted_sum(op(xx)), [x])


def test_add_bias_and_mul_gradients():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    y = rng.standard_normal((3, 4))
    check_grad(lambda xx, bb, yy: weighted_sum(T.mul(T.add(xx, bb), yy)), [x, b, y])


def test_shape_ops_gradients():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((2, 4))

    def f(xx, yy):
        cat = T.concat([xx, yy], axis=0)
        pad = T.pad_zeros(cat, ((1, 0), (0, 2)))
        perm = T.permute(pad, (1, 0))
        return weighted_sum(T.reshape(perm, (-1,)))

    check_grad(f, [x, y])


def test_slice_columns_roundtrip_gradient():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 8))

    def f(xx):
        a, b, c, d = (T.slice_axis(xx, 1, 2 * k, 2 * k + 2) for k in range(4))
        return weighted_sum(T.concat([T.mul(a, b), T.mul(c, d)], axis=1))

    check_grad(f, [x])


def test_mean_over_axis_and_prefix_mean():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, 3))
    # prefix_mean is the oracle global block's causal squeeze statistic; its
    # last row is the mean over the whole time axis.
    out = prefix_mean(T.Tensor(x)).data
    assert np.allclose(out[-1], x.mean(axis=0))
    assert np.max(np.abs(out - prefix_mean_naive(x))) <= 1e-12
    check_grad(lambda xx: weighted_sum(prefix_mean(xx)), [x])
    check_grad(lambda xx: weighted_sum(T.slice_axis(prefix_mean(xx), 0, 5, 6)), [x])


def test_outer_sum_gradient():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4))
    out = T.outer_sum(T.Tensor(a), T.Tensor(b))
    assert out.shape == (3, 2, 4)
    check_grad(lambda aa, bb: weighted_sum(T.outer_sum(aa, bb)), [a, b])


def test_outer_tanh_rejects_mismatched_shapes():
    a, b = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((2, 5)))
    wa, wb, bias = T.Tensor(np.zeros((4, 6))), T.Tensor(np.zeros((5, 6))), T.Tensor(np.zeros(6))
    assert T.outer_tanh(a, wa, b, wb, bias).shape == (3, 2, 6)
    with pytest.raises(ShapeError):
        T.outer_tanh(a, wa, b, T.Tensor(np.zeros((5, 7))), bias)
    with pytest.raises(ShapeError):
        T.outer_tanh(a, wa, b, wb, T.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        T.outer_tanh(T.Tensor(np.zeros(4)), wa, b, wb, bias)


def test_gather_rows_gradient():
    rng = np.random.default_rng(17)
    table = rng.standard_normal((6, 3))
    ids = np.array([0, 2, 2, 5])
    check_grad(lambda tt: weighted_sum(T.gather_rows(tt, ids)), [table])


# ---------------------------------------------------------------------------
# dropout


def test_dropout_eval_is_identity():
    x = T.Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.5, training=False) is x


def test_dropout_bad_probability():
    with pytest.raises(ConfigError):
        T.dropout(T.Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(18)
    state = rng.bit_generator.state
    x = np.ones((1000,))
    out = T.dropout(T.Tensor(x, requires_grad=True), 0.25, training=True, rng=rng)
    rng2 = np.random.default_rng(18)
    rng2.bit_generator.state = state
    keep = rng2.random(x.shape) >= 0.25
    assert np.array_equal(out.data, np.where(keep, 1.0 / 0.75, 0.0))
    out.backward(np.ones_like(x))
    parent = out._parents[0]
    assert np.array_equal(parent.grad, np.where(keep, 1.0 / 0.75, 0.0))


# ---------------------------------------------------------------------------
# batchnorm_time


def test_batchnorm_eval_identity_with_fresh_stats():
    x = np.random.default_rng(19).standard_normal((3, 7))
    stats = T.RunningStats(3)
    out = T.batchnorm_time(
        T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), stats, training=False
    )
    # Fresh stats are mean 0 and variance 1, so only the variance floor scales x.
    assert np.max(np.abs(out.data - x / np.sqrt(1.0 + T.BN_EPS))) <= 1e-15


def test_batchnorm_training_constant_channel_gives_zeros():
    stats = T.RunningStats(1)
    out = T.batchnorm_time(
        T.Tensor([[2.0, 2.0, 2.0]]), T.Tensor([1.0]), T.Tensor([0.0]), stats, training=True
    )
    assert np.allclose(out.data, 0.0)


def test_batchnorm_training_centers_each_channel():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((4, 50)) * 3 + 1
    beta = rng.standard_normal(4)
    stats = T.RunningStats(4)
    out = T.batchnorm_time(
        T.Tensor(x), T.Tensor(np.ones(4)), T.Tensor(beta), stats, training=True
    )
    assert np.max(np.abs(out.data.mean(axis=1) - beta)) <= 1e-8


def test_batchnorm_running_stats_update():
    x = np.arange(8.0).reshape(2, 4)
    stats = T.RunningStats(2)
    T.batchnorm_time(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), stats, training=True)
    assert np.allclose(stats.mean, 0.9 * 0.0 + 0.1 * x.mean(axis=1))
    assert np.allclose(stats.var, 0.9 * 1.0 + 0.1 * x.var(axis=1))


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradients(training):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 9))
    gamma = rng.standard_normal(3) + 1.5
    beta = rng.standard_normal(3)
    stats = T.RunningStats(3)
    stats.mean = rng.standard_normal(3)
    stats.var = rng.random(3) + 0.5

    def f(xx, gg, bb):
        return weighted_sum(
            T.batchnorm_time(xx, gg, bb, stats, training=training)
        )

    check_grad(f, [x, gamma, beta])


# ---------------------------------------------------------------------------
# tape behaviour


def test_backward_accumulates_through_shared_nodes():
    x = T.Tensor([2.0], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
    y.backward(np.ones(1))
    assert np.allclose(x.grad, [5.0])


def test_backward_is_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(22)
        x = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        h = T.tanh(T.matmul(x, w))
        loss = T.sum_all(T.mul(h, h))
        loss.backward()
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_second_backward_through_a_node_raises():
    x = T.Tensor([1.0, -3.0], requires_grad=True)
    y = 2 * x
    loss = T.sum_all(y)
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # Again from the same loss, and from a new node on the propagated y.
    for again in (loss, T.sum_all(y)):
        with pytest.raises(TrainingError):
            again.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # A fresh graph on the same leaf still accumulates.
    T.sum_all(2 * x).backward()
    assert np.array_equal(x.grad, [4.0, 4.0])


def test_no_grad_suppresses_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.relu(x)
    assert y._parents == () and not y.requires_grad


def test_first_accumulation_is_zeros_plus_g_bitwise():
    rng = np.random.default_rng(43)
    g_t = rng.standard_normal((5, 3)).T  # a transposed (F-order) gradient
    g_z = np.array([[-0.0, 0.0, -1.5], [2.0, -0.0, -0.0]])
    for g in (g_t, g_z):
        x = T.Tensor(np.ones(g.shape), requires_grad=True)
        x.accumulate_grad(g)
        assert same_bits(x.grad, np.zeros_like(x.data) + g)
        assert x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, g)
    assert not np.signbit(x.grad[x.grad == 0.0]).any()


def test_grad_lengths_match_data():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    T.sum_all(x).backward()
    assert x.grad.shape == x.data.shape
