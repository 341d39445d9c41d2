"""Exact transducer alignment loss.

The negative log-likelihood marginalizes over every monotone alignment of U
label emissions and T frame advances (blanks) on the T x (U+1) trellis,
computed with a log-domain forward/backward dynamic program.  The gradient
with respect to the pre-softmax logits comes from posterior path occupancies:

    d nll / d logit(t, u, k) = softmax(t, u, k) * occ(t, u) - occ_k(t, u)

Minus infinity is represented by a large negative sentinel that logaddexp
absorbs without producing NaNs.

`rnnt_loss` is the tape node the model trains with.  Besides the logits it
is given, its forward keeps only [T, U+1]-sized arrays: the per-row max and
log-normaliser (computed one frame at a time), the blank and label
log-probabilities and the alpha/beta lattice.  No normalized copy of the
[T, U+1, V+1] logits is made.  Its backward forms the logit gradient once,
frame by frame, into one fresh buffer that becomes the logits' `.grad`
without a further copy.  `build_lattice` and `rnnt_forward` take
log-softmax-normalized input and run the same code with a zero normaliser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, ShapeError
from .tensor import Tensor

NEG_INF = -1.0e30


@dataclass
class AlignmentLattice:
    log_probs_blank: np.ndarray  # [T, U+1]
    log_probs_label: np.ndarray  # [T, U]
    alpha: np.ndarray            # [T, U+1]
    beta: np.ndarray             # [T, U+1]

    @property
    def log_likelihood(self) -> float:
        t_last, u_last = self.alpha.shape[0] - 1, self.alpha.shape[1] - 1
        return float(self.alpha[t_last, u_last] + self.log_probs_blank[t_last, u_last])


@dataclass
class LossResult:
    nll: float
    grad_logits: np.ndarray  # [T, U+1, V+1], gradient w.r.t. raw logits
    lattice: AlignmentLattice


def _scan_forward(base: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Solve r[u] = logaddexp(base[u], r[u-1] + chain[u-1]) in one vector pass.

    With c[u] = sum(chain[:u]), r[u] = logsumexp_{j<=u}(base[j] - c[j]) + c[u],
    which is a running logaddexp over base - c.
    """
    c = np.concatenate(([0.0], np.cumsum(chain)))
    return np.logaddexp.accumulate(base - c) + c


def _scan_backward(base: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Solve r[u] = logaddexp(base[u], r[u+1] + chain[u]), scanning right to left."""
    c = np.concatenate((np.cumsum(chain[::-1])[::-1], [0.0]))
    return (np.logaddexp.accumulate((base - c)[::-1]) + c[::-1])[::-1]


def _checked_labels(z: np.ndarray, labels) -> np.ndarray:
    """The transcript as int64 ids after checking it against the [T, U+1, V+1] input."""
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim != 3 or labels.ndim != 1:
        raise ShapeError(
            f"want [T, U+1, V+1] joint output and U labels, got {z.shape} and {labels.shape}"
        )
    t_len, u_rows, n_sym = z.shape
    if u_rows != labels.size + 1:
        raise ShapeError(f"joint output has {u_rows} label rows, want {labels.size + 1}")
    if t_len < 1:
        raise ShapeError("need at least one frame")
    if labels.size and (labels.min() < 1 or labels.max() >= n_sym):
        raise DataError(
            f"labels must lie in [1, {n_sym - 1}], got values from {labels.min()} to {labels.max()}"
        )
    return labels


def _normalisers(z: np.ndarray):
    """Per-row max m and log-normaliser log sum exp(z - m), each [T, U+1].

    The exponentials are taken one frame at a time, so no [T, U+1, V+1]
    temporary is made.
    """
    m = z.max(axis=-1)
    lse = np.empty_like(m)
    for t in range(z.shape[0]):
        lse[t] = np.log(np.exp(z[t] - m[t][:, None]).sum(axis=-1))
    return m, lse


def _lattice(z: np.ndarray, m: np.ndarray, lse: np.ndarray, labels: np.ndarray) -> AlignmentLattice:
    """Gather the blank and label log-probs (z - m) - lse and run both recursions."""
    t_len, u_rows, _ = z.shape
    u_len = u_rows - 1
    blank_lp = (z[:, :, 0] - m) - lse
    label_lp = (z[:, np.arange(u_len), labels] - m[:, :-1]) - lse[:, :-1]

    alpha = np.full((t_len, u_rows), NEG_INF)
    alpha[0, 0] = 0.0
    if u_len:
        alpha[0, 1:] = np.cumsum(label_lp[0])
    for t in range(1, t_len):
        alpha[t] = _scan_forward(alpha[t - 1] + blank_lp[t - 1], label_lp[t])

    beta = np.full((t_len, u_rows), NEG_INF)
    beta[t_len - 1] = _scan_backward(
        np.concatenate((np.full(u_len, NEG_INF), [blank_lp[t_len - 1, u_len]])),
        label_lp[t_len - 1],
    )
    for t in range(t_len - 2, -1, -1):
        beta[t] = _scan_backward(beta[t + 1] + blank_lp[t], label_lp[t])

    return AlignmentLattice(blank_lp, label_lp, alpha, beta)


def _occupancies(lat: AlignmentLattice):
    """Posterior occupancies of each blank [T, U+1], each label [T, U] and each node."""
    t_len, u_rows = lat.alpha.shape
    u_len = u_rows - 1
    log_z = lat.log_likelihood
    # A blank at (t, u) continues at (t+1, u); the final blank at (T-1, U)
    # terminates with no continuation cost.
    beta_next_t = np.full((t_len, u_rows), NEG_INF)
    beta_next_t[:-1] = lat.beta[1:]
    beta_next_t[t_len - 1, u_len] = 0.0
    occ_blank = np.exp(lat.alpha + lat.log_probs_blank + beta_next_t - log_z)
    occ_label = np.exp(lat.alpha[:, :-1] + lat.log_probs_label + lat.beta[:, 1:] - log_z)
    occ_total = occ_blank.copy()
    occ_total[:, :-1] += occ_label
    return occ_blank, occ_label, occ_total


def _logit_grad(z, m, lse, labels, lat: AlignmentLattice, g: float) -> np.ndarray:
    """g times the nll gradient w.r.t. z, formed frame by frame into one fresh buffer.

    Frame t is exp((z[t] - m[t]) - lse[t]) * occ_total[t] minus the blank and
    label occupancies, then scaled by g.
    """
    occ_blank, occ_label, occ_total = _occupancies(lat)
    rows = np.arange(labels.size)
    grad = np.empty(z.shape)
    for t in range(z.shape[0]):
        gt = grad[t]
        np.subtract(z[t], m[t][:, None], out=gt)
        gt -= lse[t][:, None]
        np.exp(gt, out=gt)
        gt *= occ_total[t][:, None]
        gt[:, 0] -= occ_blank[t]
        gt[rows, labels] -= occ_label[t]
        gt *= g
        # Turn the -0.0 a non-positive g leaves into +0.0, as the first
        # accumulation into a zero gradient would.
        gt += 0.0
    return grad


def build_lattice(log_probs: np.ndarray, labels) -> AlignmentLattice:
    """Run the forward and backward recursions for one utterance.

    `log_probs` is the log-softmax-normalized [T, U+1, V+1] joint output and
    `labels` the U-token transcript (blank-free).
    """
    labels = _checked_labels(log_probs, labels)
    zero = np.zeros(log_probs.shape[:2])
    return _lattice(log_probs, zero, zero, labels)


def rnnt_forward(log_probs: np.ndarray, labels, blank_id: int = 0) -> LossResult:
    """Loss and exact logit gradient for one utterance.

    The input must already be log-softmax normalized over the last axis; the
    returned gradient is nevertheless with respect to the *raw* logits (the
    softmax Jacobian is folded in via the occupancy identity).
    """
    if blank_id != 0:
        raise ShapeError("blank id is fixed at 0")
    labels = _checked_labels(log_probs, labels)
    zero = np.zeros(log_probs.shape[:2])
    lat = _lattice(log_probs, zero, zero, labels)
    return LossResult(-lat.log_likelihood, _logit_grad(log_probs, zero, zero, labels, lat, 1.0), lat)


def rnnt_loss(logits: Tensor, labels, blank_id: int = 0) -> Tensor:
    """Tape node: scalar loss from raw joint logits [T, U+1, V+1]."""
    if blank_id != 0:
        raise ShapeError("blank id is fixed at 0")
    z = logits.data
    labels = _checked_labels(z, labels)
    m, lse = _normalisers(z)
    lat = _lattice(z, m, lse, labels)

    def backward(g):
        grad = _logit_grad(z, m, lse, labels, lat, float(g))
        if logits.grad is None:
            # The buffer is fresh and referenced nowhere else, so it becomes
            # the gradient itself rather than being copied by accumulate_grad.
            logits.grad = grad
        else:
            logits.accumulate_grad(grad)

    return T.from_op(np.asarray(-lat.log_likelihood), (logits,), backward)
