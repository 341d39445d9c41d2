import functools
import tracemalloc

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import ModelSettings
from convrnnt.global_encoder import GlobalBlock, GlobalEncoder

import oracles
from oracles import fd_gradient, global_encoder_per_op, prefix_mean, prefix_mean_naive, rel_err

D = 16
M = ModelSettings()


def zero_params(obj):
    for _, p in obj.params():
        p.data[...] = 0.0


def constant_gate(block):
    """Switch the excitation off the one way the block allows: with a zero
    expand weight its gate is the constant sigmoid(se_expand.bias)."""
    block.se_expand.weight.data[...] = 0.0


def positive_conv_weights(block):
    for name, p in block.params():
        if name.endswith("weight") and "se_" not in name:
            p.data = np.abs(p.data) + 0.1
        elif name.endswith("bias"):
            p.data[...] = 0.0


def run_block(block, x):
    return block.forward_batch([x])[0]


def run_stack(enc, x):
    return enc.forward_batch(T.Tensor(x), [len(x)]).data


# ---------------------------------------------------------------------------
# causal prefix mean (the squeeze statistic of the op-by-op oracle, which the
# fused block matches bit for bit)


def test_prefix_mean_hand_values():
    out = prefix_mean(T.Tensor([[2.0], [4.0], [6.0]]))
    assert np.allclose(out.data, [[2.0], [3.0], [4.0]])


def test_prefix_mean_constant_input():
    x = np.full((7, 3), 1.25)
    assert np.allclose(prefix_mean(T.Tensor(x)).data, x)


def test_prefix_mean_matches_direct_summation():
    x = np.random.default_rng(0).standard_normal((50, D))
    out = prefix_mean(T.Tensor(x)).data
    assert np.max(np.abs(out - prefix_mean_naive(x))) <= 1e-12


# ---------------------------------------------------------------------------
# squeeze-excitation inside the block


def constant_branch_block(seed, c, m=M):
    """A block whose pointwise-out branch is the constant row c at every step."""
    block = GlobalBlock(m, D, dilation=2, rng=np.random.default_rng(seed))
    block.pw_out.weight.data[...] = 0.0
    block.pw_out.bias.data[...] = c
    return block


def test_se_zero_weights_halves_input():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(D)
    block = constant_branch_block(2, c)
    zero_params(block.se_reduce)
    zero_params(block.se_expand)
    x = rng.standard_normal((9, D))
    # The gate is sigmoid(0) = 0.5 exactly, so the branch is halved.
    assert np.array_equal(run_block(block, x), x + 0.5 * c)
    # A bias of 40 rounds the gate to exactly 1.0: the branch passes whole.
    block.se_expand.bias.data[...] = 40.0
    assert np.array_equal(run_block(block, x), x + c)


def test_se_zero_input_zero_output():
    block = constant_branch_block(3, 0.0)
    for _, p in block.se_reduce.params() + block.se_expand.params():
        p.data = np.random.default_rng(4).standard_normal(p.shape)
    x = np.random.default_rng(5).standard_normal((5, D))
    assert np.array_equal(run_block(block, x), x)


def test_se_causality_bitwise():
    block = GlobalBlock(M, D, dilation=2, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, D))
    base = run_block(block, x)
    t0 = 9
    reach = 1 + (M.dw_kernel - 1) * 2
    x2 = x.copy()
    x2[t0] += rng.standard_normal(D)
    pert = run_block(block, x2)
    assert np.array_equal(base[:t0], pert[:t0])
    # Beyond the depthwise reach only the excitation's prefix mean carries it.
    assert not np.array_equal(base[t0 + reach:], pert[t0 + reach:])


# ---------------------------------------------------------------------------
# single block


def test_block_zero_weights_is_identity():
    block = GlobalBlock(M, D, dilation=2, rng=np.random.default_rng(6))
    zero_params(block)
    x = np.random.default_rng(7).standard_normal((11, D))
    out = run_block(block, x)
    assert np.array_equal(out, x)


def test_block_shape_preserved():
    block = GlobalBlock(M, D, dilation=4, rng=np.random.default_rng(8))
    x = np.random.default_rng(9).standard_normal((13, D))
    assert run_block(block, x).shape == (13, D)


def test_block_causality_bitwise():
    block = GlobalBlock(M, D, dilation=2, rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((16, D))
    base = run_block(block, x)
    t0 = 9
    x2 = x.copy()
    x2[t0] += rng.standard_normal(D)
    pert = run_block(block, x2)
    assert np.array_equal(base[:t0], pert[:t0])


@pytest.mark.parametrize("block_index", [1, 2, 3])
def test_block_impulse_support_with_se_disabled(block_index):
    dilation = 2 ** block_index
    block = GlobalBlock(M, D, dilation=dilation, rng=np.random.default_rng(12))
    positive_conv_weights(block)
    constant_gate(block)
    t_len, t0 = 80, 10
    x = np.zeros((t_len, D))
    x[t0] = 1.0
    out = run_block(block, x)
    hot = np.where(np.abs(out).sum(axis=1) > 0)[0]
    reach = 1 + (M.dw_kernel - 1) * dilation
    assert hot[0] == t0
    assert hot[-1] <= t0 + reach - 1
    assert hot[-1] == t0 + reach - 1  # positive weights hit the full reach


# ---------------------------------------------------------------------------
# full stack


def test_stack_dilations_double_per_block():
    enc = GlobalEncoder(M, D, np.random.default_rng(13))
    assert [b.dilation for b in enc.blocks] == [2, 4, 8, 16, 32, 64]


def test_stack_zero_input_zero_output():
    enc = GlobalEncoder(M, D, np.random.default_rng(14))
    assert np.all(run_stack(enc, np.zeros((9, D))) == 0.0)


def test_stack_causality_bitwise():
    enc = GlobalEncoder(M, D, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    x = rng.standard_normal((20, D))
    base = run_stack(enc, x)
    t0 = 12
    x2 = x.copy()
    x2[t0] += rng.standard_normal(D)
    pert = run_stack(enc, x2)
    assert np.array_equal(base[:t0], pert[:t0])


def test_stack_zero_weights_is_identity():
    enc = GlobalEncoder(M, D, np.random.default_rng(17))
    for _, p in enc.params():
        p.data[...] = 0.0
    x = np.random.default_rng(18).standard_normal((8, D))
    assert np.array_equal(run_stack(enc, x), x)


def test_stack_conv_receptive_field_is_253():
    # Six depthwise convs of dw_kernel 3, dilated 2, 4, ..., 64, reach
    # 1 + 2 * (2 + 4 + ... + 64) = 253 frames, current frame included.
    enc = GlobalEncoder(M, D, np.random.default_rng(19))
    for block in enc.blocks:
        positive_conv_weights(block)
        constant_gate(block)
    t_len, t0 = 300, 20
    x = np.zeros((t_len, D))
    x[t0] = 1.0
    out = run_stack(enc, x)
    hot = np.where(np.abs(out).sum(axis=1) > 0)[0]
    # All dilations are even, so interior coverage lands on even offsets; the
    # claim is about the span of the response.
    assert hot[0] == t0
    assert hot[-1] == t0 + 252


def test_se_gives_full_prefix_reach():
    # With excitation on, any past frame influences later outputs.
    enc = GlobalEncoder(ModelSettings(global_blocks=2), D, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, D))
    base = run_stack(enc, x)
    x2 = x.copy()
    x2[0] += 1.0
    pert = run_stack(enc, x2)
    assert not np.array_equal(base[-1], pert[-1])  # beyond conv reach, via SE


def test_block_gradients_flow():
    block = GlobalBlock(ModelSettings(dropout_p=0.0), 6, 2, np.random.default_rng(22))
    x = np.random.default_rng(23).standard_normal((10, 6))
    out, backward = block.forward_batch([x], np.random.default_rng(24))
    assert backward(np.ones_like(out)).shape == x.shape
    for name, p in block.params():
        assert p.grad is not None, name


# ---------------------------------------------------------------------------
# the fused node against the op-by-op oracle


def batch_inputs(lengths, d, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((t, d)) for t in lengths], [rng.standard_normal((t, d)) for t in lengths]


def seeded_sum(out, seeds):
    """<out, seeds> over packed rows as one scalar tensor."""
    return oracles.sum_all(oracles.mul(out, T.Tensor(np.concatenate(seeds))))


def per_utterance(rows, lengths):
    return np.split(rows, np.cumsum(lengths)[:-1])


def run_encoder(forward, m, arrays, seeds, grad, se_enabled=True, training=False, bounds=None):
    """Each utterance's outputs, the running stats and (with grad) each
    utterance's input gradient and the parameter gradients; in training mode,
    from a generator of a fixed seed.  With `bounds`, a dict, `forward` is
    the op-by-op oracle, and `bounds` gets its gradient error bounds (each
    batch-norm's gamma and beta) under the gradients' keys."""
    enc = GlobalEncoder(m, D, np.random.default_rng(31))
    by_param = {}
    if bounds is not None:
        forward = functools.partial(forward, bounds=by_param)
    if not se_enabled:
        for block in enc.blocks:
            constant_gate(block)
    lengths = [len(a) for a in arrays]
    x = T.Tensor(np.concatenate(arrays), requires_grad=True)
    rng = np.random.default_rng(32) if training else None
    if grad:
        out = forward(enc, x, lengths, rng)
        seeded_sum(out, seeds).backward()
    else:
        with T.no_grad():
            out = forward(enc, x, lengths, rng)
    got = {f"out{i}": o for i, o in enumerate(per_utterance(out.data, lengths))}
    for name, bn in enc.norm_layers():
        got[f"{name}.mean"], got[f"{name}.var"] = bn.running_mean, bn.running_var
    if grad:
        got.update({f"x{i}.grad": g for i, g in enumerate(per_utterance(x.grad, lengths))})
        got.update({f"{name}.grad": p.grad for name, p in enc.params() if p.grad is not None})
    if bounds is not None:
        bounds.update({f"{name}.grad": by_param[p] for name, p in enc.params() if p in by_param})
    return got


def assert_gradients_match(got, want, bounds):
    """Each batch-norm gamma and beta gradient, a sum over the packed frames
    that training can nearly cancel, within the largest of the oracle's error
    bounds for its entries (the errors of the upstream gradients that its
    terms read spread over all entries); every other array within 1e-12 of
    its own largest entry."""
    assert got.keys() == want.keys()
    for key in want:
        assert np.all(np.isfinite(got[key])), key
        gap = np.abs(got[key] - want[key])
        if key in bounds:
            assert np.max(gap) <= np.max(bounds[key]), key
        else:
            assert np.max(gap) <= 1e-12 * np.max(np.abs(want[key])), key


def fused(enc, x, lengths, rng):
    return enc.forward_batch(x, lengths, rng)


@pytest.mark.parametrize("lengths", [(9,), (7, 13, 4)])
@pytest.mark.parametrize("se_enabled", [True, False])
@pytest.mark.parametrize("training,dropout_p", [(False, 0.1), (True, 0.0), (True, 0.1)])
def test_forward_matches_per_op_bitwise(lengths, se_enabled, training, dropout_p):
    m = ModelSettings(dropout_p=dropout_p)
    arrays, seeds = batch_inputs(lengths, D, 33)
    got = run_encoder(fused, m, arrays, seeds, False, se_enabled, training=training)
    want = run_encoder(global_encoder_per_op, m, arrays, seeds, False, se_enabled,
                       training=training)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("lengths", [(9,), (7, 13, 4)])
@pytest.mark.parametrize("se_enabled", [True, False])
@pytest.mark.parametrize("training", [False, True])
def test_gradients_match_per_op(lengths, se_enabled, training):
    m = ModelSettings(dropout_p=0.1)
    arrays, seeds = batch_inputs(lengths, D, 34)
    got = run_encoder(fused, m, arrays, seeds, True, se_enabled, training=training)
    bounds = {}
    want = run_encoder(global_encoder_per_op, m, arrays, seeds, True, se_enabled,
                       training=training, bounds=bounds)
    # The forward bits are pinned above.
    assert_gradients_match(got, want, bounds)


def test_a_recorded_encoder_holds_only_what_its_backward_reads():
    # Per block the backward reads the transposed input, both batch-norms'
    # normalized rows and ReLU masks, the excitation's input, prefix mean,
    # bottleneck rows and gate, the frame counts and the boolean dropout
    # draw.  It forms the batch-norms' affine outputs again from the
    # normalized rows and the dropout factors from the draw, so the node keeps
    # neither.
    held = []

    def traced(enc, x, lengths, rng):
        tracemalloc.start()
        try:
            out = enc.forward_batch(x, lengths, rng)
            held.append(tracemalloc.get_traced_memory()[0] - out.data.nbytes)
        finally:
            tracemalloc.stop()
        return out

    m = ModelSettings(dropout_p=0.1)
    lengths = (40, 25, 55)
    arrays, seeds = batch_inputs(lengths, D, 54)
    got = run_encoder(traced, m, arrays, seeds, True, training=True)
    bounds = {}
    want = run_encoder(global_encoder_per_op, m, arrays, seeds, True, training=True,
                       bounds=bounds)
    n, e, se = sum(lengths), m.expansion * D, max(D // m.se_divisor, m.se_min)
    # Float rows: input, two normalized, excitation input, mean and gate,
    # bottleneck, frame count.  Bool rows: two masks, the dropout draw.
    floats = n * (D + 2 * e + 3 * D + se + 1)
    bools = n * (2 * e + D)
    # Per block, 12 KiB of slack: the closure, the taps' in-utterance masks,
    # the spans and the running statistics the forward replaces.
    assert held[0] <= m.global_blocks * (8 * floats + bools + (12 << 10))
    assert_gradients_match(got, want, bounds)


@pytest.mark.parametrize("se_enabled", [True, False])
def test_block_gradient_matches_fd(se_enabled):
    # Three unequal lengths, so training-mode batch-norm pools across them and
    # each input's gradient depends on the other utterances.
    d = 6
    m = ModelSettings(dropout_p=0.1)
    block = GlobalBlock(m, d, 2, np.random.default_rng(35))
    # Move off the initialization: with every bias zero the second batch-norm
    # cancels a rescaling of the first one's gamma, whose gradient is then
    # nearly zero and below finite-difference noise.
    rng = np.random.default_rng(40)
    for _, p in block.params():
        p.data = p.data + 0.3 * rng.standard_normal(p.shape)
    if not se_enabled:
        constant_gate(block)
    arrays, seeds = batch_inputs((5, 8, 3), d, 36)

    def forward(values):
        return block.forward_batch(values, np.random.default_rng(37))

    def loss(values):
        return float((forward(values)[0] * np.concatenate(seeds)).sum())

    _, backward = forward(arrays)
    grads = per_utterance(backward(np.concatenate(seeds)), [5, 8, 3])
    for i, g in enumerate(grads):
        def f(v, i=i):
            return loss(arrays[:i] + [v] + arrays[i + 1:])

        assert rel_err(g, fd_gradient(f, arrays[i].copy())) <= 1e-6, f"x{i}"
    params = block.params()
    assert len(params) == 14
    for name, p in params:
        kept = p.data

        def f(v, p=p):
            p.data = v
            return loss(arrays)

        num = fd_gradient(f, kept.copy())
        p.data = kept
        assert rel_err(p.grad, num) <= 1e-6, name


def test_encoder_is_one_node_for_the_batch():
    enc = GlobalEncoder(ModelSettings(dropout_p=0.0), D, np.random.default_rng(38))
    arrays, _ = batch_inputs((4, 6, 5), D, 39)
    x = T.Tensor(np.concatenate(arrays), requires_grad=True)
    out = enc.forward_batch(x, [4, 6, 5], np.random.default_rng(40))
    assert out._parents == (x,) + tuple(p for _, p in enc.params())
    assert out.shape == (15, D)
    with T.no_grad():
        out = enc.forward_batch(x, [4, 6, 5])
    assert out._backward is None and not out._parents


def test_an_encoder_that_records_nothing_keeps_no_block_state():
    # Under no_grad each block's saved arrays go once the next block has its
    # output, so six blocks peak no higher than two.
    x = T.Tensor(np.random.default_rng(52).standard_normal((400, 64)))

    def peak(blocks):
        enc = GlobalEncoder(ModelSettings(global_blocks=blocks), 64, np.random.default_rng(53))
        tracemalloc.start()
        try:
            with T.no_grad():
                enc.forward_batch(x, [400])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) <= peak(2) + (1 << 18)


@pytest.mark.parametrize("se_enabled", [True, False])
def test_block_backward_accumulates_each_parameter_once(se_enabled, monkeypatch):
    # The backward forms each parameter gradient over the whole batch, not
    # one utterance at a time.
    enc = GlobalEncoder(ModelSettings(global_blocks=1), D, np.random.default_rng(44))
    (block,) = enc.blocks
    if not se_enabled:
        constant_gate(block)
    arrays, seeds = batch_inputs((6, 3, 9, 1, 5), D, 45)
    x = T.Tensor(np.concatenate(arrays), requires_grad=True)
    out = enc.forward_batch(x, [6, 3, 9, 1, 5], np.random.default_rng(46))
    total = seeded_sum(out, seeds)
    calls = {}
    accumulate = T.Tensor.accumulate_grad

    def counting(self, g):
        calls[id(self)] = calls.get(id(self), 0) + 1
        accumulate(self, g)

    monkeypatch.setattr(T.Tensor, "accumulate_grad", counting)
    total.backward()
    for name, p in block.params():
        if p.grad is not None:
            assert calls[id(p)] == 1, name
    assert calls[id(x)] == 1
    assert sum(p.grad is not None for _, p in block.params()) == 14



def test_an_input_without_gradient_skips_the_first_blocks_input_gradient():
    # The model's features need no gradient: the first block then forms no
    # input gradient, and every parameter gradient keeps its bits.
    lengths = (4, 6, 5)
    arrays, seeds = batch_inputs(lengths, D, 47)
    grads = {}
    for needed in (True, False):
        enc = GlobalEncoder(ModelSettings(dropout_p=0.1), D, np.random.default_rng(48))
        x = T.Tensor(np.concatenate(arrays), requires_grad=needed)
        out = enc.forward_batch(x, lengths, np.random.default_rng(49))
        seeded_sum(out, seeds).backward()
        assert (x.grad is not None) == needed
        grads[needed] = [p.grad for _, p in enc.params()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads[True], grads[False]))
    block = GlobalBlock(M, D, 2, np.random.default_rng(50))
    out, backward = block.forward_batch(arrays, np.random.default_rng(51))
    assert backward(np.ones_like(out), False) is None
