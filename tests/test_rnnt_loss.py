import math
import tracemalloc
import weakref

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import ModelSettings, load_preset
from convrnnt.errors import DataError, ShapeError
from convrnnt.model import TransducerModel
from convrnnt.rnnt_loss import _cells, _checked, _lattice, _normalisers, rnnt_loss
from convrnnt.transducer import Joint

import oracles
from oracles import (
    build_lattice,
    fd_gradient,
    frame_lattice,
    lattice_per_frame,
    logit_grad_per_frame,
    normalisers_per_frame,
    rel_err,
    transducer_nll_enumeration,
)


def uniform_log_probs(t_len, u_len, n_sym):
    return np.full((t_len, u_len + 1, n_sym), -math.log(n_sym))


def log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def random_log_probs(rng, t_len, u_len, n_sym):
    return log_softmax(rng.standard_normal((t_len, u_len + 1, n_sym)) * 2.0)


def lattice_nll(log_probs, labels):
    return -build_lattice(log_probs, labels).log_likelihood


def test_single_blank_uniform():
    assert abs(lattice_nll(uniform_log_probs(1, 0, 3), []) - math.log(3.0)) <= 1e-12


def test_two_frames_one_label_uniform():
    # Two alignments, each with three moves of probability 1/3.
    assert abs(lattice_nll(uniform_log_probs(2, 1, 3), [1]) - math.log(27.0 / 2.0)) <= 1e-12


def test_matches_enumeration_t3_u2():
    rng = np.random.default_rng(0)
    lp = random_log_probs(rng, 3, 2, 4)
    labels = [2, 1]
    assert abs(lattice_nll(lp, labels) - transducer_nll_enumeration(lp, labels)) <= 1e-10


@pytest.mark.parametrize("t_len", [1, 2, 3, 4])
@pytest.mark.parametrize("u_len", [0, 1, 2, 3])
def test_matches_enumeration_grid(t_len, u_len):
    rng = np.random.default_rng(10 * t_len + u_len)
    for v in (1, 2, 3):
        lp = random_log_probs(rng, t_len, u_len, v + 1)
        labels = rng.integers(1, v + 1, size=u_len)
        assert abs(lattice_nll(lp, labels) - transducer_nll_enumeration(lp, labels)) <= 1e-10


def test_forward_backward_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t_len = int(rng.integers(1, 9))
        u_len = int(rng.integers(0, 6))
        lp = random_log_probs(rng, t_len, u_len, 5)
        labels = rng.integers(1, 5, size=u_len)
        lat = build_lattice(lp, labels)
        assert abs(lat.log_likelihood - lat.beta[0, 0]) <= 1e-10


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    node = T.Tensor(random_log_probs(rng, 5, 3, 6), requires_grad=True)
    rnnt_loss(node, [1, 4, 2]).backward()
    assert np.max(np.abs(node.grad.sum(axis=-1))) <= 1e-10


def test_gradient_matches_fd():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((3, 3, 4)) * 1.5
    labels = [3, 1]

    def f(z):
        return float(rnnt_loss(T.Tensor(z), labels).data)

    node = T.Tensor(logits, requires_grad=True)
    rnnt_loss(node, labels).backward()
    num = fd_gradient(f, logits.copy())
    assert rel_err(node.grad, num) <= 1e-5


def test_nll_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lp = random_log_probs(rng, 4, 2, 4)
        assert lattice_nll(lp, [1, 2]) >= 0.0


def test_raising_correct_label_logprob_never_hurts():
    # At the (unnormalized) log-probability level each path is monotone in
    # every correct-label entry, so the marginal can only improve.
    rng = np.random.default_rng(5)
    lp = random_log_probs(rng, 4, 3, 4)
    labels = [2, 3, 1]
    base = lattice_nll(lp, labels)
    for t in range(4):
        for u in range(3):
            bumped = lp.copy()
            bumped[t, u, labels[u]] += 0.3
            assert lattice_nll(bumped, labels) <= base + 1e-12


def test_long_label_burst_at_single_frame():
    # T=1 with U labels is feasible: emit everything, then the final blank.
    lp = uniform_log_probs(1, 3, 5)
    assert abs(lattice_nll(lp, [1, 2, 3]) - 4 * math.log(5.0)) <= 1e-12


def test_loss_op_scales_gradient_with_seed():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((2, 2, 3))
    n1 = T.Tensor(logits, requires_grad=True)
    rnnt_loss(n1, [1]).backward()
    n2 = T.Tensor(logits, requires_grad=True)
    rnnt_loss(n2, [1]).backward(np.asarray(0.5))
    assert np.allclose(n2.grad, 0.5 * n1.grad)


@pytest.mark.parametrize("t_len, labels", [(1, [2, 3, 1]), (4, [])])
def test_loss_op_at_one_frame_and_no_labels(t_len, labels):
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((t_len, len(labels) + 1, 4)) * 1.5

    def f(z):
        return float(rnnt_loss(T.Tensor(z), labels).data)

    node = T.Tensor(logits.copy(), requires_grad=True)
    loss = rnnt_loss(node, labels)
    loss.backward()
    assert abs(float(loss.data) - transducer_nll_enumeration(log_softmax(logits), labels)) <= 1e-10
    assert rel_err(node.grad, fd_gradient(f, logits.copy())) <= 1e-5


@pytest.mark.parametrize("bad", [0, -1, 5])
def test_labels_outside_vocab_raise_data_error(bad):
    logits = T.Tensor(np.zeros((3, 3, 5)))
    with pytest.raises(DataError):
        rnnt_loss(logits, [1, bad])
    with pytest.raises(DataError):
        build_lattice(np.zeros((3, 3, 5)), [bad, 4])


@pytest.mark.parametrize("bad", [[1.7], [1.0, 2.0], [True]])
def test_non_integer_labels_raise_data_error(bad):
    logits = T.Tensor(np.zeros((3, len(bad) + 1, 5)))
    with pytest.raises(DataError):
        rnnt_loss(logits, bad)
    with pytest.raises(DataError):
        build_lattice(np.zeros((3, len(bad) + 1, 5)), bad)


def test_logits_of_wrong_rank_or_row_count_raise_shape_error():
    with pytest.raises(ShapeError):
        rnnt_loss(T.Tensor(np.zeros((3, 5))), [1, 2])
    with pytest.raises(ShapeError):
        rnnt_loss(T.Tensor(np.zeros((3, 2, 5))), [1, 2])
    with pytest.raises(ShapeError):
        rnnt_loss(T.Tensor(np.zeros((3, 4, 5))), [1, 2])


def test_gradient_has_no_negative_zero_under_a_negative_seed():
    # exp underflows to 0 on the -1000 logits, so those gradient entries are
    # 0 * occupancy; a negative seed must still leave them +0.0, as
    # accumulating into a zero gradient does.
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((3, 3, 6))
    logits[:, :, 5] = -1000.0
    node = T.Tensor(logits, requires_grad=True)
    rnnt_loss(node, [1, 2]).backward(np.asarray(-2.0))
    zeros = node.grad[node.grad == 0.0]
    assert zeros.size >= 9 and not np.signbit(zeros).any()


def small_joint(t_len, u_len, n_sym, joint_dim, seed):
    cfg = ModelSettings(proj_dim=32, label_proj=24, joint_dim=joint_dim, vocab_size=n_sym - 1)
    rng = np.random.default_rng(seed)
    joint = Joint(cfg, rng)
    enc = T.Tensor(rng.standard_normal((t_len, 32)), requires_grad=True)
    pred = T.Tensor(rng.standard_normal((u_len + 1, 24)), requires_grad=True)
    return joint, enc, pred, rng.integers(1, n_sym, size=u_len)


def test_joint_and_loss_peak_memory_is_bounded_by_logits():
    # The forward keeps the logits and [T, U+1]-sized arrays; the backward
    # adds [T, U+1, J] joint activations, and at most one logit-sized
    # gradient buffer (none here: the loss forms it over the logits).
    t_len, u_len, n_sym = 40, 10, 501
    joint, enc, pred, labels = small_joint(t_len, u_len, n_sym, 64, 9)
    tracemalloc.start()
    try:
        rnnt_loss(joint(enc, pred), labels).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * t_len * (u_len + 1) * n_sym * 8


def test_one_utterances_logits_have_the_bits_of_a_packed_batch_of_one():
    # The [T, U+1, V+1] form of the joint and loss against the packed call
    # with ([T], [U+1]) and [T]: the nll, both input gradients and all five
    # joint parameter gradients keep their bits.
    joint, enc, pred, labels = small_joint(12, 5, 31, 16, 16)
    t_len, rows = enc.shape[0], pred.shape[0]

    def run(packed):
        leaves = [T.Tensor(enc.data, requires_grad=True), T.Tensor(pred.data, requires_grad=True)]
        for _, p in joint.params():
            p.zero_grad()
        if packed:
            loss, _ = rnnt_loss(joint(*leaves, ([t_len], [rows])), [labels], [t_len])
        else:
            loss = rnnt_loss(joint(*leaves), labels)
        loss.backward()
        return [loss.data] + [x.grad for x in leaves] + [p.grad for _, p in joint.params()]

    got, want = run(False), run(True)
    assert len(got) == 8
    for g, w in zip(got, want):
        assert np.any(w != 0.0) and same_bits(g, w)


def test_backward_frees_the_logits_the_caller_does_not_hold():
    joint, enc, pred, labels = small_joint(20, 4, 51, 16, 10)
    logits = joint(enc, pred)
    # The logits tensor holds its data view, so a dead view means a dead tensor.
    view_ref, buffer_ref = weakref.ref(logits.data), weakref.ref(logits.data.base)
    loss = rnnt_loss(logits, labels)
    del logits
    assert view_ref() is not None
    loss.backward()
    # Neither the tape nor the joint's backward closure keeps them.
    assert view_ref() is None and buffer_ref() is None
    assert enc.grad is not None and loss.grad is not None


def test_backward_peak_above_the_forward_is_one_logit_gradient():
    # A loose bound, kept from before the loss formed the gradient of logits
    # only the tape holds over the logits themselves: the backward may grow
    # by one logit-sized buffer.  Today it grows by the joint's output-layer
    # weight gradient and one block (the test below); a buffer beside the
    # logits would still pass here.
    t_len, u_len, n_sym, joint_dim = 60, 10, 501, 128
    joint, enc, pred, labels = small_joint(t_len, u_len, n_sym, joint_dim, 11)
    tracemalloc.start()
    try:
        loss = rnnt_loss(joint(enc, pred), labels)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live <= t_len * (u_len + 1) * n_sym * 8 + (256 << 10)


def test_backward_of_tape_only_logits_grows_by_the_output_weight_gradient_and_one_block():
    # The caller holds only the loss, so the loss forms the logit gradient
    # in the logits' own buffer, and the joint forms the tanh rows' gradient
    # in the tanh rows, one block of g @ w.T at a time: the backward grows
    # by the output layer's [J, V+1] weight gradient and one block, and by
    # no logit-sized or [T(U+1), J] array.  The 3,150 x 128 tanh rows span
    # four blocks.
    t_len, u_len, n_sym, joint_dim = 150, 20, 501, 128
    joint, enc, pred, labels = small_joint(t_len, u_len, n_sym, joint_dim, 11)
    tracemalloc.start()
    try:
        loss = rnnt_loss(joint(enc, pred), labels)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(T.row_blocks(0, t_len * (u_len + 1), joint_dim)) == 4
    assert peak - live <= n_sym * joint_dim * 8 + T.BLOCK_BYTES + (256 << 10)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def record_donations(monkeypatch):
    """Per `Tensor.adopt_grad` call from now on, whether the adopted
    gradient is the tensor's own data buffer."""
    donated = []
    adopt = T.Tensor.adopt_grad

    def recording(self, g):
        donated.append(np.shares_memory(g, self.data))
        adopt(self, g)

    monkeypatch.setattr(T.Tensor, "adopt_grad", recording)
    return donated


# What the caller keeps of the joint's logits while the loss runs backward.
HOLDS = {
    "nothing": lambda logits: None,
    "the tensor": lambda logits: logits,
    "its data": lambda logits: logits.data,
    "a view of its buffer": lambda logits: logits.data.base[5:9],
}


def joint_loss_backward(hold, n_losses, monkeypatch):
    """The leaf gradients of a joint + loss backward, whether the loss
    adopted the logits' own buffer, and whether what the caller held of
    them is bitwise unchanged.  Two losses read the same logits and are
    summed."""
    joint, enc, pred, labels = small_joint(20, 4, 51, 16, 15)
    logits = joint(enc, pred)
    held = HOLDS[hold](logits)

    def values():
        return np.copy(held.data if isinstance(held, T.Tensor) else held)

    before = None if held is None else values()
    losses = [rnnt_loss(logits, labels) for _ in range(n_losses)]
    del logits
    donated = record_donations(monkeypatch)
    (losses[0] if n_losses == 1 else oracles.mean_of(losses)).backward()
    monkeypatch.undo()
    grads = [enc.grad, pred.grad] + [p.grad for _, p in joint.params()]
    return grads, any(donated), held is None or same_bits(values(), before)


@pytest.mark.parametrize("n_losses", [1, 2])
@pytest.mark.parametrize("hold", list(HOLDS))
def test_loss_donates_the_logits_buffer_only_when_only_the_tape_holds_it(hold, n_losses,
                                                                          monkeypatch):
    # Whether the logit gradient goes into the logits' buffer or a fresh one,
    # every gradient has the bits of the run that holds the logits tensor.
    want, donated, _ = joint_loss_backward("the tensor", n_losses, monkeypatch)
    assert not donated
    grads, donated, unchanged = joint_loss_backward(hold, n_losses, monkeypatch)
    assert all(same_bits(g, w) for g, w in zip(grads, want))
    assert unchanged
    # Of two losses, the first to run backward finds the other still holding
    # the logits and takes a fresh buffer; the second may then donate them.
    assert donated == (hold == "nothing")


def test_loss_never_donates_a_leaf(monkeypatch):
    # A leaf is the caller's memory: its buffer never takes the gradient,
    # even when the caller has dropped the leaf and its data.
    z = np.random.default_rng(16).standard_normal((5, 3, 7))
    labels = np.array([2, 4])
    held = T.Tensor(z.copy(), requires_grad=True)
    donated = record_donations(monkeypatch)
    rnnt_loss(T.Tensor(z.copy(), requires_grad=True), labels).backward()
    rnnt_loss(held, labels).backward()
    assert donated == [False, False]
    m, lse = normalisers_per_frame(z)
    lat = lattice_per_frame(z, m, lse, labels)
    assert same_bits(held.data, z)
    assert same_bits(held.grad, logit_grad_per_frame(z, m, lse, labels, lat, 1.0))


def test_packed_encoded_loss_donates_the_logits_buffer(monkeypatch):
    cfg = load_preset("desk", ["model.vocab_size=8"])
    tokens = [[1, 2, 3], [], [4, 4]]
    lengths = [6, 2, 5]

    def grads(loss_of):
        model = TransducerModel(cfg, seed=17)
        enc = T.Tensor(np.random.default_rng(18).standard_normal(
            (sum(lengths), cfg.model.proj_dim)), requires_grad=True)
        loss_of(model, enc).backward()
        return [enc.grad] + [p.grad for _, p in model.parameters() if p.grad is not None]

    held = []

    def holding_the_logits(model, enc):
        pred = model.label_encoder(*tokens)
        held.append(model.joint(enc, pred, (lengths, [len(u) + 1 for u in tokens])))
        return rnnt_loss(held[-1], tokens, lengths)[0]

    donated = record_donations(monkeypatch)
    want = grads(holding_the_logits)
    assert not any(donated)
    got = grads(lambda model, enc: model.encoded_loss(enc, lengths, tokens)[0])
    assert donated.count(True) == 1
    assert len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize(
    "t_len, u_len, n_sym, g, n_blocks",
    [
        (11, 3, 10, 1.0, 1),      # a desk utterance: one block holds it all
        (80, 10, 501, 0.1, 4),    # 880 cells of 4 KB, 220 to a block (261 fit)
        (1, 3, 7, 1.0, 1),        # one frame
        (6, 0, 5, 1.0, 1),        # no labels
        (3, 8, 6, 1.0, 1),        # more labels than frames
        (9, 3, 6, -2.5, 1),       # a negative seed gradient
    ],
)
def test_frame_blocked_passes_match_per_frame_oracle_bitwise(t_len, u_len, n_sym, g, n_blocks):
    rng = np.random.default_rng(t_len * 1000 + u_len)
    z = rng.standard_normal((t_len, u_len + 1, n_sym)) * 2.0
    z[:, :, -1] = -1000.0  # exp underflows: zero gradient entries, whose sign g must not flip
    labels = rng.integers(1, n_sym - 1, size=u_len)
    rows, ids, t_lens = _checked(z, labels, None)
    assert len(T.row_blocks(0, *rows.shape)) == n_blocks

    m_ref, lse_ref = normalisers_per_frame(z)
    lat_ref = lattice_per_frame(z, m_ref, lse_ref, labels)
    grad_ref = logit_grad_per_frame(z, m_ref, lse_ref, labels, lat_ref, g)

    cells = _cells(ids, t_lens)
    m, lse = _normalisers(rows, cells)
    lat = frame_lattice(_lattice(rows, m, lse, cells), t_len)
    assert same_bits(m.reshape(t_len, -1), m_ref) and same_bits(lse.reshape(t_len, -1), lse_ref)
    for field in ("log_probs_blank", "log_probs_label", "alpha", "beta"):
        assert same_bits(getattr(lat, field), getattr(lat_ref, field)), field

    node = T.Tensor(z, requires_grad=True)
    loss = rnnt_loss(node, labels)
    loss.backward(np.asarray(g))
    assert same_bits(loss.data, -lat_ref.log_likelihood)
    assert same_bits(node.grad, grad_ref)


def packed_cells(rng, t_lens, tokens, n_sym):
    """Random packed logit rows of a batch and each utterance's [T, U+1, V+1] view of them."""
    counts = [t * (len(u) + 1) for t, u in zip(t_lens, tokens)]
    z = rng.standard_normal((sum(counts), n_sym)) * 2.0
    ends = np.cumsum(counts)
    return z, [z[e - c:e].reshape(t, len(u) + 1, n_sym)
               for e, c, t, u in zip(ends, counts, t_lens, tokens)]


# One frame with more labels than frames, an empty transcript, more labels
# than frames again, and a 40-frame utterance whose 440 cells of 501 symbols
# straddle the boundary of the packed passes' two 240-row blocks.
PACKED_T = [1, 5, 2, 40, 7]
PACKED_TOKENS = [[3, 1, 4], [], [2, 5, 5, 1], list(range(1, 11)), [6, 2]]


def test_packed_loss_mean_matches_add_scale_bitwise():
    rng = np.random.default_rng(12)
    z, views = packed_cells(rng, PACKED_T, PACKED_TOKENS, 501)
    z[:, -1] = -1000.0  # exp underflows: zero gradient entries
    node = T.Tensor(z, requires_grad=True)
    loss, nlls = rnnt_loss(node, PACKED_TOKENS, PACKED_T)
    assert len(T.row_blocks(0, *z.shape)) == 2
    loss.backward()

    alone = [T.Tensor(v.copy(), requires_grad=True) for v in views]
    losses = [rnnt_loss(x, u) for x, u in zip(alone, PACKED_TOKENS)]
    mean = oracles.mean_of(losses)
    mean.backward()

    assert nlls == [float(l.data) for l in losses]
    assert same_bits(loss.data, mean.data)
    assert same_bits(node.grad, np.concatenate([x.grad.reshape(-1, 501) for x in alone]))


def test_packed_loss_rejects_cells_that_do_not_match_the_transcripts():
    z = T.Tensor(np.zeros((3 * 3 + 2 * 1, 5)))
    assert rnnt_loss(z, [[1, 2], []], [3, 2])[0].shape == ()
    for tokens, lengths in (([[1, 2], []], [3, 3]), ([[1, 2]], [3, 2]), ([[1, 2], []], [3, 0]),
                            ([[[1, 2]], []], [3, 2])):
        with pytest.raises(ShapeError):
            rnnt_loss(z, tokens, lengths)
    with pytest.raises(ShapeError):
        rnnt_loss(T.Tensor(np.zeros((3, 3, 5))), [[1, 2]], [3])
    with pytest.raises(DataError):
        rnnt_loss(z, [[1, 5], []], [3, 2])


@pytest.mark.parametrize("bad", ["nan", "+inf", "all -inf"])
def test_non_finite_logits_raise_data_error_naming_the_utterance(bad):
    rng = np.random.default_rng(13)
    z, views = packed_cells(rng, [3, 2, 4], [[1, 2], [], [3]], 5)
    row = views[2][1, 0]  # utterance 2, frame 1, label row 0
    if bad == "nan":
        row[3] = np.nan
    elif bad == "+inf":
        row[1] = np.inf
    else:
        row[:] = -np.inf
    with pytest.raises(DataError, match="utterance 2: .* frame 1, label row 0"):
        rnnt_loss(T.Tensor(z), [[1, 2], [], [3]], [3, 2, 4])
    with pytest.raises(DataError):
        rnnt_loss(T.Tensor(views[2].copy()), [3])


def test_a_minus_inf_entry_in_a_finite_row_is_a_zero_probability():
    # Only a row's max is checked: a -inf logit is a symbol the row never
    # emits, and the loss stays finite with a zero gradient there.
    rng = np.random.default_rng(14)
    z = rng.standard_normal((3, 3, 6))
    z[1, 2, 4] = -np.inf
    node = T.Tensor(z.copy(), requires_grad=True)
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        loss = rnnt_loss(node, [1, 2])
        loss.backward()
    m, lse = normalisers_per_frame(z)
    lat = lattice_per_frame(z, m, lse, np.array([1, 2]))
    assert same_bits(loss.data, -lat.log_likelihood)
    assert same_bits(node.grad, logit_grad_per_frame(z, m, lse, np.array([1, 2]), lat, 1.0))
    assert node.grad[1, 2, 4] == 0.0
