import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.errors import ConfigError, ShapeError, TrainingError
from convrnnt.layers import BN_EPS, BatchNormTime

import oracles
from oracles import (
    causal_conv2d_per_utterance, conv1d, conv1d_naive, conv2d, conv2d_naive, fd_gradient,
    lstm_per_utterance, pad_left_time, pad_zeros, prefix_mean, prefix_mean_naive, rel_err,
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
    w = np.cos(np.arange(x.data.size, dtype=np.float64)).reshape(x.shape)
    return oracles.sum_all(oracles.mul(x, T.Tensor(w)))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(oracles.matmul(a, b).data, b.data)


def test_matmul_hand_value():
    out = oracles.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        oracles.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_matches_fd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    check_grad(lambda x, y: oracles.sum_all(oracles.matmul(x, y)), [a, b], tol=1e-6)


# ---------------------------------------------------------------------------
# linear


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Five rows, and the one row of a label encoder step.
@pytest.mark.parametrize("lead", [(5,), (1,)])
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
    ref = oracles.add(oracles.matmul(xx, ww), bb)
    ref.backward(seed)

    assert same_bits(out.data, ref.data)
    for got, want in zip(fused, (xx, ww, bb)):
        assert same_bits(got.grad, want.grad)


def test_linear_gradient_matches_fd():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((6, 4))
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
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.zeros((2, 3, 4))), w, T.Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# conv1d: the tape op of the op-by-op global block oracle (tests/oracles.py),
# checked here against the loop oracle and finite differences.


def test_conv1d_causal_two_tap():
    # y_t = x_t + x_{t-1} once the caller left-pads one zero.
    x = pad_left_time(T.Tensor([[1.0, 2.0, 3.0]]), 1)
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
# conv2d: the valid im2col conv of the per-utterance oracle (tests/oracles.py),
# checked here against the loop oracle and finite differences.


def test_conv2d_ones():
    out = conv2d(T.Tensor(np.ones((1, 3, 3))), T.Tensor(np.ones((1, 1, 2, 2))))
    assert np.allclose(out.data, np.full((1, 2, 2), 4.0))


def test_conv2d_delta_kernel_crops_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 4))
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    out = conv2d(T.Tensor(x), T.Tensor(w))
    assert np.array_equal(out.data, x[:, :4, :3])


def test_conv2d_matches_naive():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5, 4))
    w = rng.standard_normal((3, 2, 3, 2))
    out = conv2d(T.Tensor(x), T.Tensor(w))
    assert np.max(np.abs(out.data - conv2d_naive(x, w))) <= 1e-12


def test_conv2d_too_small_input():
    with pytest.raises(ShapeError):
        conv2d(T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros((1, 1, 3, 3))))


def test_conv2d_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    check_grad(lambda xx, ww, bb: weighted_sum(conv2d(xx, ww, bb)), [x, w, b])


# ---------------------------------------------------------------------------
# packed causal conv2d and lstm, checked against their per-utterance oracles


# Uneven utterances, one of a single frame; two share the longest length.
LENGTHS = [5, 1, 9, 3, 9]
ORACLE_TOL = 1e-12


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def packed_conv_args(rng, n=sum(LENGTHS), kt=3, kf=3):
    return [rng.standard_normal((2, n, 6)), rng.standard_normal((4, 2, kt, kf)) * 0.5,
            rng.standard_normal(4) * 0.1]


def packed_lstm_args(rng, n=sum(LENGTHS)):
    return [rng.standard_normal((n, 3)), rng.uniform(-0.8, 0.8, (3, 16)),
            rng.uniform(-0.8, 0.8, (4, 16)), rng.uniform(-0.8, 0.8, 16)]


def run_with_grads(op, arrays, seed, *extra):
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors, *extra)
    out.backward(seed)
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("packed,oracle,make", [
    (T.conv2d, causal_conv2d_per_utterance, packed_conv_args),
    (T.lstm, lstm_per_utterance, packed_lstm_args),
])
def test_packed_op_matches_per_utterance_oracle(packed, oracle, make):
    rng = np.random.default_rng(44)
    arrays = make(rng)
    shape = packed(*[T.Tensor(a) for a in arrays], LENGTHS).shape
    seed = rng.standard_normal(shape)
    got = run_with_grads(packed, arrays, seed, LENGTHS)
    want = run_with_grads(oracle, arrays, seed, LENGTHS)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert max_rel(g, w) <= ORACLE_TOL


def test_packed_conv2d_kernel_longer_than_utterances():
    rng = np.random.default_rng(45)
    lengths = [2, 1, 3]
    arrays = packed_conv_args(rng, n=6, kt=5, kf=5)
    seed = rng.standard_normal((4, 6, 6))
    got = run_with_grads(T.conv2d, arrays, seed, lengths)
    want = run_with_grads(causal_conv2d_per_utterance, arrays, seed, lengths)
    for g, w in zip(got, want):
        assert max_rel(g, w) <= ORACLE_TOL


@pytest.mark.parametrize("op,make", [(T.conv2d, packed_conv_args), (T.lstm, packed_lstm_args)])
def test_packed_op_gradient_matches_fd(op, make):
    lengths = [3, 1, 4]
    arrays = make(np.random.default_rng(46), n=sum(lengths))
    check_grad(lambda *ts: weighted_sum(op(*ts, lengths)), arrays, tol=1e-6)


@pytest.mark.parametrize("op,make,time_axis", [
    (T.conv2d, packed_conv_args, 1), (T.lstm, packed_lstm_args, 0),
])
def test_packed_op_keeps_utterances_apart_bitwise(op, make, time_axis):
    rng = np.random.default_rng(47)
    arrays = make(rng)
    ends = np.cumsum(LENGTHS)
    with T.no_grad():
        base = np.moveaxis(op(*[T.Tensor(a) for a in arrays], LENGTHS).data, time_axis, 0)
        for k, t0 in ((2, 4), (0, 0), (4, 8), (1, 0)):
            x = np.moveaxis(arrays[0].copy(), time_axis, 0)
            row = ends[k] - LENGTHS[k] + t0
            x[row] += rng.standard_normal(x.shape[1:])
            args = [T.Tensor(np.moveaxis(x, 0, time_axis))] + [T.Tensor(a) for a in arrays[1:]]
            pert = np.moveaxis(op(*args, LENGTHS).data, time_axis, 0)
            # Every other utterance, and this one's frames before t0, keep their bits.
            assert np.array_equal(pert[:row], base[:row])
            assert np.array_equal(pert[ends[k]:], base[ends[k]:])
            assert not np.array_equal(pert[row:ends[k]], base[row:ends[k]])


@pytest.mark.parametrize("lengths", [LENGTHS, [7]])
def test_lstm_forward_matches_allocating_frame_loop_bitwise(lengths):
    x, w, u, b = packed_lstm_args(np.random.default_rng(49), n=sum(lengths))
    with T.no_grad():
        got = T.lstm(T.Tensor(x), T.Tensor(w), T.Tensor(u), T.Tensor(b), lengths).data
    want = oracles.lstm_frames_allocating(x, w, u, b, lengths)
    assert got.tobytes() == want.tobytes()


def test_float32_lstm_matches_the_float32_frame_loop_bitwise():
    # On float32 rows and weights the op computes in float32 throughout, as
    # the frame loop does.
    args = [a.astype(np.float32) for a in packed_lstm_args(np.random.default_rng(50))]
    with T.no_grad():
        got = T.lstm(*(T.Tensor(a) for a in args), LENGTHS).data
    want = oracles.lstm_frames_allocating(*args, LENGTHS)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_lstm_backward_forms_the_pre_activation_gradient_in_the_gate_rows():
    # A desk audio LSTM (64 inputs, 64 hidden) over a batch of ten.  The
    # backward's transient stays under the [N, 4H] factor, the [N, 4H]
    # gradient and its gathered later-frame rows it once built beside the
    # gates: it forms dL/d(pre-activation) in the gate rows the node keeps.
    lengths = [90, 71, 84, 66, 95, 78, 88, 70, 81, 75]
    n, hid = sum(lengths), 64
    rng = np.random.default_rng(52)
    x, w, u, b = (T.Tensor(a, requires_grad=True) for a in (
        rng.standard_normal((n, 64)), rng.uniform(-0.2, 0.2, (64, 4 * hid)),
        rng.uniform(-0.2, 0.2, (hid, 4 * hid)), rng.uniform(-0.2, 0.2, 4 * hid)))
    out = T.lstm(x, w, u, b, lengths)
    seed = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        out.backward(seed)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(t.grad)) for t in (x, w, u, b))
    # All ten run at frame 0, so N - 10 rows are later frames' rows.
    assert peak - kept < (3 * n - len(lengths)) * 4 * hid * 8


@pytest.mark.parametrize("op,make", [(T.conv2d, packed_conv_args), (T.lstm, packed_lstm_args)])
def test_packed_op_rejects_lengths_that_do_not_split_the_rows(op, make):
    arrays = [T.Tensor(a) for a in make(np.random.default_rng(48), n=6)]
    for lengths in ([2, 3], [6, 0], [7, -1], []):
        with pytest.raises(ShapeError):
            op(*arrays, lengths)


# ---------------------------------------------------------------------------
# frame-blocked conv2d: calls at paper width that span several blocks


# Packed with the paper's first local conv (3 stacked frames of 64 bands into
# 100 channels, 5x5 kernel), these 312 base rows make blocks of 141, 141 and
# 30: the first and last utterances straddle the block boundaries, and the
# middle block holds parts of all four.
WIDE_LENGTHS = [150, 1, 37, 112]


def wide_conv_args(rng, n=sum(WIDE_LENGTHS), c_in=3, c_out=100):
    return [rng.standard_normal((c_in, n, 64)), rng.standard_normal((c_out, c_in, 5, 5)) * 0.2,
            rng.standard_normal(c_out) * 0.1]


def n_conv_blocks(x, w, lengths):
    c_in, n, f = x.shape
    c_out, _, kt, kf = w.shape
    rows = T._conv_block_rows(c_in, c_out, kt, kf, f + kf - 1)
    return -(-(n + (kt - 1) * (len(lengths) - 1)) // rows)


def test_multi_block_conv2d_matches_per_utterance_oracle_and_repeats_bitwise():
    rng = np.random.default_rng(49)
    arrays = wide_conv_args(rng)
    assert n_conv_blocks(arrays[0], arrays[1], WIDE_LENGTHS) == 3
    seed = rng.standard_normal((100, sum(WIDE_LENGTHS), 64))
    got = run_with_grads(T.conv2d, arrays, seed, WIDE_LENGTHS)
    want = run_with_grads(causal_conv2d_per_utterance, arrays, seed, WIDE_LENGTHS)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert max_rel(g, w) <= ORACLE_TOL
    again = run_with_grads(T.conv2d, arrays, seed, WIDE_LENGTHS)
    assert all(same_bits(a, b) for a, b in zip(got, again))


def test_multi_block_conv2d_keeps_utterances_apart_bitwise():
    rng = np.random.default_rng(50)
    x, w, b = wide_conv_args(rng)
    ends = np.cumsum(WIDE_LENGTHS)

    def run(x):
        with T.no_grad():
            return T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), WIDE_LENGTHS).data

    base = run(x)
    for k, t0 in ((0, 100), (2, 0), (3, 5), (1, 0)):
        pert = x.copy()
        row = ends[k] - WIDE_LENGTHS[k] + t0
        pert[:, row] += rng.standard_normal(pert.shape[::2])
        out = run(pert)
        # Every other utterance, and this one's frames before t0, keep their bits.
        assert same_bits(out[:, :row], base[:, :row])
        assert same_bits(out[:, ends[k]:], base[:, ends[k]:])
        assert not np.array_equal(out[:, row:ends[k]], base[:, row:ends[k]])


def test_conv2d_transient_memory_is_one_block_whatever_the_frame_count():
    # The paper's widest local conv: 100 channels in and out, 25 base rows a block.
    rng = np.random.default_rng(51)
    transient = []
    for n in (100, 400):
        x, w, b = (T.Tensor(a) for a in wide_conv_args(rng, n=n, c_in=100))
        assert n_conv_blocks(x, w, [n]) >= 4
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.conv2d(x, w, b, [n])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        transient.append(peak - out.data.nbytes)
    assert max(transient) <= T.CONV_BLOCK_BYTES
    # Only the per-block row indices grow with the frame count.
    assert transient[1] - transient[0] <= 64 << 10


# ---------------------------------------------------------------------------
# elementwise suite


def test_swish_at_zero():
    assert T.swish(T.Tensor([0.0])).data[0] == 0.0


def test_relu_in_place_matches_where_form_bitwise():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5, -1.5])
    for z in (edges, np.random.default_rng(43).standard_normal((40, 64))):
        got = z.copy()
        T.relu_(got)
        assert same_bits(got, np.where(z > 0, z, 0.0))
        # So `got > 0.0` is the mask a backward reads.
        assert np.array_equal(got > 0.0, z > 0)


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


@pytest.mark.parametrize("op", [oracles.relu, oracles.sigmoid, oracles.tanh, T.swish])
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
    check_grad(lambda xx, bb, yy: weighted_sum(oracles.mul(oracles.add(xx, bb), yy)), [x, b, y])


def test_shape_ops_gradients():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((2, 4))

    def f(xx, yy):
        cat = T.concat([xx, yy], axis=0)
        pad = pad_zeros(cat, ((1, 0), (0, 2)))
        perm = T.permute(pad, (1, 0))
        return weighted_sum(T.reshape(perm, (-1,)))

    check_grad(f, [x, y])


def test_gather_rows_gives_minus_one_ids_a_zero_row_and_no_gradient():
    rng = np.random.default_rng(49)
    table = rng.standard_normal((3, 4))
    ids = np.array([-1, 2, 0, -1, 2])
    out = T.gather_rows(T.Tensor(table), ids)
    assert np.array_equal(out.data[[0, 3]], np.zeros((2, 4)))
    assert np.array_equal(out.data[[1, 2, 4]], table[[2, 0, 2]])
    check_grad(lambda tt: weighted_sum(T.gather_rows(tt, ids)), [table])
    node = T.Tensor(table, requires_grad=True)
    T.gather_rows(node, [-1, -1]).backward()
    assert np.array_equal(node.grad, np.zeros_like(table))


def joint_packed_and_alone(a, b, weights, a_len, b_len, seed):
    """Runs the joint once on the packed rows of several utterances and once
    per utterance on its rows alone, those calls' gradients propagated last
    utterance first.  Returns, per run, the [sum T_i U_i, V] output and the
    7 gradients: a's, b's, then the 5 parameters'."""
    def joint(aa, bb, params, lengths=None):
        return T.joint(aa, params[0], bb, *params[1:], lengths)

    packed = [T.Tensor(v, requires_grad=True) for v in (a, b) + weights]
    out = joint(*packed[:2], packed[2:], (a_len, b_len))
    out.backward(seed)

    params = [T.Tensor(v, requires_grad=True) for v in weights]
    cells = [t * u for t, u in zip(a_len, b_len)]
    spans = [np.cumsum([0] + n) for n in (a_len, b_len, cells)]
    alone = []
    for i in range(len(cells)):
        rows = [T.Tensor(x[s[i]:s[i + 1]], requires_grad=True) for x, s in zip((a, b), spans)]
        alone.append((rows, joint(*rows, params)))
    for i in reversed(range(len(cells))):
        c0, c1 = spans[2][i], spans[2][i + 1]
        alone[i][1].backward(seed[c0:c1].reshape(a_len[i], b_len[i], -1))
    return ((out.data, [x.grad for x in packed]),
            (np.concatenate([got.data.reshape(c, -1) for c, (_, got) in zip(cells, alone)]),
             [np.concatenate([rows[k].grad for rows, _ in alone]) for k in range(2)]
             + [x.grad for x in params]))


def test_joint_ops_with_lengths_keep_each_utterances_bits():
    # The joint on the packed rows of three utterances, one of a single row:
    # each utterance's cells and input-gradient rows have the bits of the
    # calls on its rows alone, and the parameter gradients those of the
    # per-utterance calls propagated last utterance first.
    rng = np.random.default_rng(54)
    a_len, b_len = [3, 1, 4], [2, 3, 1]
    a, b = rng.standard_normal((8, 5)), rng.standard_normal((6, 4))
    weights = (rng.standard_normal((5, 7)), rng.standard_normal((4, 7)), rng.standard_normal(7),
               rng.standard_normal((7, 6)), rng.standard_normal(6))
    seed = rng.standard_normal((sum(t * u for t, u in zip(a_len, b_len)), 6))
    (out, grads), (alone, alone_grads) = joint_packed_and_alone(a, b, weights, a_len, b_len, seed)
    assert out.shape == (sum(t * u for t, u in zip(a_len, b_len)), 6)
    assert same_bits(out, alone)
    for got, want in zip(grads, alone_grads):
        assert same_bits(got, want)


def test_joint_backward_in_several_blocks_keeps_every_bit(monkeypatch):
    # With a block budget of 8 rows of the [C, J] tanh rows, two utterances'
    # tanh-row gradients are formed in several uneven blocks (45 cells in
    # blocks of 7 and 8 rows, 30 cells in blocks of 7 and 8) and one (2
    # cells) in less than one block.  The output and all 7 gradients keep
    # the bits of the default budget, where each utterance is one block,
    # and those of the per-utterance calls.  (A budget of one or two rows
    # would not: those GEMMs take other BLAS kernels, which `row_blocks`
    # never makes at the default budget.)
    rng = np.random.default_rng(55)
    a_len, b_len, j, v = [9, 1, 6], [5, 2, 5], 8, 6
    cells = [t * u for t, u in zip(a_len, b_len)]
    a, b = rng.standard_normal((16, 5)), rng.standard_normal((12, 4))
    weights = (rng.standard_normal((5, j)), rng.standard_normal((4, j)), rng.standard_normal(j),
               rng.standard_normal((j, v)), rng.standard_normal(v))
    seed = rng.standard_normal((sum(cells), v))
    (want, want_grads), _ = joint_packed_and_alone(a, b, weights, a_len, b_len, seed)
    assert all(len(T.row_blocks(0, c, j)) == 1 for c in cells)

    monkeypatch.setattr(T, "BLOCK_BYTES", 8 * j * 8)
    assert [[s.stop - s.start for s in T.row_blocks(0, c, j)] for c in cells] == [
        [7, 8, 7, 8, 7, 8], [2], [7, 8, 7, 8]]
    (out, grads), (alone, alone_grads) = joint_packed_and_alone(a, b, weights, a_len, b_len, seed)
    assert same_bits(out, want) and same_bits(alone, want)
    for got, again, ref in zip(grads, alone_grads, want_grads):
        assert same_bits(got, ref) and same_bits(again, ref)


def test_joint_ops_reject_lengths_that_do_not_split_the_rows():
    a, b = T.Tensor(np.zeros((5, 4))), T.Tensor(np.zeros((3, 2)))
    wa, wb, bias = T.Tensor(np.zeros((4, 6))), T.Tensor(np.zeros((2, 6))), T.Tensor(np.zeros(6))
    w, bo = T.Tensor(np.zeros((6, 2))), T.Tensor(np.zeros(2))
    assert T.joint(a, wa, b, wb, bias, w, bo, ([2, 3], [1, 2])).shape == (8, 2)
    for lengths in (([2, 3], [3]), ([2, 2], [1, 2]), ([5, 0], [1, 2])):
        with pytest.raises(ShapeError):
            T.joint(a, wa, b, wb, bias, w, bo, lengths)


def test_slice_columns_roundtrip_gradient():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 8))

    def f(xx):
        a, b, c, d = (oracles.slice_axis(xx, 1, 2 * k, 2 * k + 2) for k in range(4))
        return weighted_sum(T.concat([oracles.mul(a, b), oracles.mul(c, d)], axis=1))

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
    check_grad(lambda xx: weighted_sum(oracles.slice_axis(prefix_mean(xx), 0, 5, 6)), [x])


def test_outer_sum_gradient():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4))
    out = oracles.outer_sum(T.Tensor(a), T.Tensor(b))
    assert out.shape == (3, 2, 4)
    check_grad(lambda aa, bb: weighted_sum(oracles.outer_sum(aa, bb)), [a, b])


def test_joint_rejects_mismatched_shapes():
    a, b = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((2, 5)))
    wa, wb, bias = T.Tensor(np.zeros((4, 6))), T.Tensor(np.zeros((5, 6))), T.Tensor(np.zeros(6))
    w, bo = T.Tensor(np.zeros((6, 7))), T.Tensor(np.zeros(7))
    assert T.joint(a, wa, b, wb, bias, w, bo).shape == (3, 2, 7)
    with pytest.raises(ShapeError):
        T.joint(a, wa, b, T.Tensor(np.zeros((5, 7))), bias, w, bo)
    with pytest.raises(ShapeError):
        T.joint(a, wa, b, wb, T.Tensor(np.zeros(5)), w, bo)
    with pytest.raises(ShapeError):
        T.joint(T.Tensor(np.zeros(4)), wa, b, wb, bias, w, bo)
    with pytest.raises(ShapeError):
        T.joint(a, wa, b, wb, bias, T.Tensor(np.zeros((5, 7))), bo)
    with pytest.raises(ShapeError):
        T.joint(a, wa, b, wb, bias, w, T.Tensor(np.zeros(6)))


def test_gather_rows_gradient():
    rng = np.random.default_rng(17)
    table = rng.standard_normal((6, 3))
    ids = np.array([0, 2, 2, 5])
    check_grad(lambda tt: weighted_sum(T.gather_rows(tt, ids)), [table])


# ---------------------------------------------------------------------------
# dropout


def test_dropout_eval_is_identity():
    x = T.Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.5, None) is x


def test_dropout_bad_probability():
    with pytest.raises(ConfigError):
        T.dropout(T.Tensor(np.ones(3)), 1.0, np.random.default_rng(0))


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(18)
    state = rng.bit_generator.state
    x = np.ones((1000,))
    xt = T.Tensor(x, requires_grad=True)
    out = T.dropout(xt, 0.25, rng)
    rng2 = np.random.default_rng(18)
    rng2.bit_generator.state = state
    keep = rng2.random(x.shape) >= 0.25
    assert np.array_equal(out.data, np.where(keep, 1.0 / 0.75, 0.0))
    out.backward(np.ones_like(x))
    assert np.array_equal(xt.grad, np.where(keep, 1.0 / 0.75, 0.0))


# ---------------------------------------------------------------------------
# what a recorded node keeps: its output and what its backward cannot rebuild


# Bytes a node may hold besides the arrays named in its case: the tensor and
# closure objects, the LSTM's row orders and frame blocks, the conv's block
# row indices.
NODE_SLACK = 12 << 10


def lstm_case(rng):
    arrays = [rng.standard_normal((120, 48)), rng.uniform(-0.5, 0.5, (48, 128)),
              rng.uniform(-0.5, 0.5, (32, 128)), rng.uniform(-0.5, 0.5, 128)]
    # The gates, the cell states and the output, [120, 4 * 32 + 32 + 32];
    # not the time-major input rows or hidden states.
    return T.lstm, lstm_per_utterance, arrays, lambda: ([60, 17, 43],), 120 * 192 * 8


def conv2d_case(rng):
    arrays = [rng.standard_normal((16, 160, 6)), rng.standard_normal((16, 16, 3, 5)) * 0.2,
              rng.standard_normal(16) * 0.1]
    # The output, [16, 160, 6]; not the ReLU mask or the reordered weights.
    return T.conv2d, causal_conv2d_per_utterance, arrays, lambda: ([80, 27, 53],), 16 * 160 * 6 * 8


def swish_case(rng):
    # The output, which is all the node keeps; not the sigmoid.
    return (T.swish, lambda x: oracles.mul(x, oracles.sigmoid(x)),
            [rng.standard_normal((200, 64))], lambda: (), 200 * 64 * 8)


def dropout_oracle(x, p, rng):
    return oracles.mul(x, T.Tensor((rng.random(x.shape) >= p) / (1.0 - p)))


def dropout_case(rng):
    # The output and the boolean draw; not float64 factors.
    return (T.dropout, dropout_oracle, [rng.standard_normal((200, 64))],
            lambda: (0.25, np.random.default_rng(61)), 200 * 64 * (8 + 1))


@pytest.mark.parametrize("case", [lstm_case, conv2d_case, swish_case, dropout_case])
def test_a_recorded_op_holds_only_what_its_backward_reads(case):
    rng = np.random.default_rng(60)
    op, oracle, arrays, extra, kept = case(rng)
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    tracemalloc.start()
    try:
        out = op(*tensors, *extra())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= kept + NODE_SLACK
    # Its backward forms again what the node dropped: the gradients agree
    # with the oracle's as before.
    seed = rng.standard_normal(out.shape)
    out.backward(seed)
    got = [out.data] + [t.grad for t in tensors]
    want = run_with_grads(oracle, arrays, seed, *extra())
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g))
        assert max_rel(g, w) <= ORACLE_TOL


# ---------------------------------------------------------------------------
# batchnorm_time


def test_batchnorm_eval_identity_with_fresh_stats():
    x = np.random.default_rng(19).standard_normal((3, 7))
    norm = BatchNormTime(3, np.float64)
    out = oracles.batchnorm_time(
        T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), norm, training=False
    )
    # Fresh stats are mean 0 and variance 1, so only the variance floor scales x.
    assert np.max(np.abs(out.data - x / np.sqrt(1.0 + BN_EPS))) <= 1e-15


def test_batchnorm_training_constant_channel_gives_zeros():
    norm = BatchNormTime(1, np.float64)
    out = oracles.batchnorm_time(
        T.Tensor([[2.0, 2.0, 2.0]]), T.Tensor([1.0]), T.Tensor([0.0]), norm, training=True
    )
    assert np.allclose(out.data, 0.0)


def test_batchnorm_training_centers_each_channel():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((4, 50)) * 3 + 1
    beta = rng.standard_normal(4)
    norm = BatchNormTime(4, np.float64)
    out = oracles.batchnorm_time(
        T.Tensor(x), T.Tensor(np.ones(4)), T.Tensor(beta), norm, training=True
    )
    assert np.max(np.abs(out.data.mean(axis=1) - beta)) <= 1e-8


def test_batchnorm_running_stats_update():
    x = np.arange(8.0).reshape(2, 4)
    norm = BatchNormTime(2, np.float64)
    oracles.batchnorm_time(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), norm,
                           training=True)
    assert np.allclose(norm.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=1))
    assert np.allclose(norm.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=1))


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradients(training):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 9))
    gamma = rng.standard_normal(3) + 1.5
    beta = rng.standard_normal(3)
    norm = BatchNormTime(3, np.float64)
    norm.running_mean = rng.standard_normal(3)
    norm.running_var = rng.random(3) + 0.5

    def f(xx, gg, bb):
        return weighted_sum(
            oracles.batchnorm_time(xx, gg, bb, norm, training=training)
        )

    check_grad(f, [x, gamma, beta])


# ---------------------------------------------------------------------------
# tape behaviour


def test_backward_accumulates_through_shared_nodes():
    x = T.Tensor([2.0], requires_grad=True)
    y = oracles.add(oracles.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
    y.backward(np.ones(1))
    assert np.allclose(x.grad, [5.0])


def test_backward_is_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(22)
        x = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        h = oracles.tanh(oracles.matmul(x, w))
        loss = oracles.sum_all(oracles.mul(h, h))
        loss.backward()
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_second_backward_through_a_node_raises():
    x = T.Tensor([1.0, -3.0], requires_grad=True)
    y = oracles.scale(x, 2.0)
    loss = oracles.sum_all(y)
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # Again from the same loss, and from a new node on the propagated y.
    for again in (loss, oracles.sum_all(y)):
        with pytest.raises(TrainingError):
            again.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # A fresh graph on the same leaf still accumulates.
    oracles.sum_all(oracles.scale(x, 2.0)).backward()
    assert np.array_equal(x.grad, [4.0, 4.0])


def test_backward_keeps_the_grad_of_a_caller_held_intermediate():
    rng = np.random.default_rng(44)
    x = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    h = oracles.tanh(oracles.matmul(x, w))
    oracles.sum_all(oracles.mul(h, h)).backward()
    assert np.array_equal(h.grad, np.zeros_like(h.data) + 2.0 * h.data)
    assert h._parents == () and x.grad is not None and w.grad is not None


def test_a_closure_that_raises_leaves_its_node_spent():
    x = T.Tensor([1.0, 2.0], requires_grad=True)

    def failing(g):
        raise RuntimeError("backward failed")

    y = T.from_op(2.0 * x.data, (x,), failing)
    with pytest.raises(RuntimeError):
        oracles.sum_all(y).backward()
    assert y._parents == () and x.grad is None
    # A half-run pass is not re-run: the spent node stops the next one.
    with pytest.raises(TrainingError):
        oracles.sum_all(y).backward()


def test_no_grad_suppresses_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = oracles.relu(x)
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


def test_adopt_grad_takes_a_fresh_array_with_the_bits_of_accumulate_grad():
    g_z = np.array([[-0.0, 0.0, -1.5], [2.0, -0.0, -0.0]])
    ref = T.Tensor(np.ones(g_z.shape), requires_grad=True)
    ref.accumulate_grad(g_z)
    x = T.Tensor(np.ones(g_z.shape), requires_grad=True)
    g = g_z.copy()
    x.adopt_grad(g)
    assert x.grad is g and same_bits(x.grad, ref.grad)
    x.adopt_grad(np.ones(g_z.shape))
    assert x.grad is g and same_bits(x.grad, ref.grad + 1.0)
    # Laid out unlike the data, the array is copied into the data's layout.
    y = T.Tensor(np.ones((3, 2)).T, requires_grad=True)
    g = g_z.copy()
    y.adopt_grad(g)
    assert y.grad is not g and y.grad.strides == y.data.strides
    assert same_bits(y.grad, ref.grad)


def test_a_tensor_keeps_float32_only_where_no_gradient_is_asked():
    x32 = np.ones(3, np.float32)
    assert T.Tensor(x32).data.dtype == np.float32
    assert T.Tensor(x32, requires_grad=True).data.dtype == np.float64
    assert T.Tensor(np.ones(3, np.float16)).data.dtype == np.float64
    assert T.Tensor([1, 2]).data.dtype == np.float64


def test_the_tape_refuses_a_float32_node():
    rng = np.random.default_rng(45)
    x = T.Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    w32 = T.Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    b32 = T.Tensor(np.zeros(5, np.float32))
    # A float32 leaf is built float64 when it requires grad; one flagged by
    # hand would make a float32 node to record.
    assert T.Tensor(w32.data, requires_grad=True).data.dtype == np.float64
    w32.requires_grad = True
    with pytest.raises(TrainingError, match="float64 nodes only, got float32"):
        T.linear(x, w32, b32)
    with pytest.raises(TrainingError, match="float64 nodes only"):
        T.from_op(np.zeros(5, np.float32), (w32,), lambda g: None)
    # Unrecorded, on float32 weights, the op runs in float32.
    w32.requires_grad = False
    out = T.linear(x, w32, b32)
    assert out.data.dtype == np.float32 and not out.requires_grad
    assert same_bits(out.data, x.data @ w32.data + b32.data)


@pytest.mark.parametrize("grad", [True, False])
def test_an_op_over_mixed_dtypes_raises_naming_both(grad):
    # Whether or not its inputs would make the node record, the op raises
    # instead of computing in NumPy's promoted dtype.
    rng = np.random.default_rng(46)
    x32 = T.Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    w = T.Tensor(rng.standard_normal((6, 5)), requires_grad=grad)
    b = T.Tensor(np.zeros(5), requires_grad=grad)
    with pytest.raises(ShapeError, match="float64 input gave a float32 output"):
        T.linear(x32, w, b)
    x64 = T.Tensor(x32.data.astype(np.float64), requires_grad=grad)
    w32, b32 = (T.Tensor(p.data.astype(np.float32)) for p in (w, b))
    with pytest.raises(ShapeError, match="float32 input gave a float64 output"):
        T.linear(x64, w32, b32)
    with pytest.raises(ShapeError, match="float64 input gave a float32 output"):
        T.from_op(np.zeros(5, np.float32), (b,), lambda g: None)


def test_grad_lengths_match_data():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    oracles.sum_all(x).backward()
    assert x.grad.shape == x.data.shape


# ---------------------------------------------------------------------------
# the package ships only what the model runs


ROOT = pathlib.Path(__file__).resolve().parent.parent


def tensor_names_used(path):
    """Names of `convrnnt.tensor` that one source file uses: attributes of the
    module (imported as `tensor` or under an alias) and names imported from it."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("tensor", "convrnnt.tensor"):
                used.update(a.name for a in node.names)
            elif node.module in (None, "convrnnt"):
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_public_tensor_name_has_a_caller_outside_the_tests():
    src = ROOT / "src" / "convrnnt"
    tree = ast.parse((src / "tensor.py").read_text())
    public = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    callers = [p for p in src.glob("*.py") if p.name != "tensor.py"]
    callers += (ROOT / "perfbench").rglob("*.py")
    used = set().union(*(tensor_names_used(p) for p in callers))
    assert sorted(public - used) == []
