import math
import tracemalloc

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.errors import DataError, ShapeError
from convrnnt.rnnt_loss import build_lattice, rnnt_loss
from convrnnt.transducer import Joint, TransducerConfig

from oracles import fd_gradient, rel_err, transducer_nll_enumeration


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


def test_joint_and_loss_peak_memory_is_bounded_by_logits():
    # The forward keeps the logits and [T, U+1]-sized arrays; the backward
    # adds one logit-sized gradient buffer and [T, U+1, J] joint activations.
    t_len, u_len, n_sym, joint_dim = 40, 10, 501, 64
    cfg = TransducerConfig(proj_dim=32, label_proj=24, joint_dim=joint_dim,
                           vocab_size=n_sym - 1)
    rng = np.random.default_rng(9)
    joint = Joint(cfg, rng)
    enc = T.Tensor(rng.standard_normal((t_len, 32)), requires_grad=True)
    pred = T.Tensor(rng.standard_normal((u_len + 1, 24)), requires_grad=True)
    labels = rng.integers(1, n_sym, size=u_len)
    tracemalloc.start()
    try:
        rnnt_loss(joint(enc, pred), labels).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * t_len * (u_len + 1) * n_sym * 8
