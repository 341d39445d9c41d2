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
log-normaliser, the blank and label log-probabilities and the alpha/beta
lattice.  No normalized copy of the [T, U+1, V+1] logits is made.  Its
backward forms the logit gradient once into one fresh buffer, which
`Tensor.adopt_grad` makes the logits' first `.grad` without a copy.  Both
the normaliser and the gradient pass run over blocks of consecutive frames
whose [U+1, V+1] rows fit in BLOCK_BYTES together: a short utterance is one
block, while a frame at paper width (about 620 KB) is a block of its own, so
no temporary exceeds one block.  The recursions take the prefix sums of
every frame's label log-probabilities once, before they start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor
from .vocab import label_ids

NEG_INF = -1.0e30
BLOCK_BYTES = 1 << 20  # float64 bytes of [U+1, V+1] rows one frame block may take


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


def _scan(r: np.ndarray, c: np.ndarray) -> None:
    """In place, r <- logaddexp.accumulate(r - c) + c.

    With r holding base and c[u] = sum(chain[:u]), this solves
    r[u] = logaddexp(base[u], r[u-1] + chain[u-1]) in one vector pass: a
    running logaddexp over base - c.  Run on reversed views it scans right
    to left.
    """
    r -= c
    np.logaddexp.accumulate(r, out=r)
    r += c


def _frame_blocks(z: np.ndarray):
    """Slices of consecutive frames of the [T, U+1, V+1] input, as many per
    block as fit in BLOCK_BYTES of float64 (at least one)."""
    t_len, u_rows, n_sym = z.shape
    size = max(1, BLOCK_BYTES // (u_rows * n_sym * 8))
    return [slice(t, t + size) for t in range(0, t_len, size)]


def _checked_labels(z: np.ndarray, labels) -> np.ndarray:
    """The transcript as int64 ids after checking it against the [T, U+1, V+1] input."""
    labels = np.asarray(labels)
    if z.ndim != 3 or labels.ndim != 1:
        raise ShapeError(
            f"want [T, U+1, V+1] joint output and U labels, got {z.shape} and {labels.shape}"
        )
    t_len, u_rows, n_sym = z.shape
    if u_rows != labels.size + 1:
        raise ShapeError(f"joint output has {u_rows} label rows, want {labels.size + 1}")
    if t_len < 1:
        raise ShapeError("need at least one frame")
    return label_ids(labels, n_sym - 1)


def _normalisers(z: np.ndarray):
    """Per-row max m and log-normaliser log sum exp(z - m), each [T, U+1].

    The exponentials are taken one frame block at a time, so no temporary
    larger than BLOCK_BYTES (or one frame) is made.
    """
    m = z.max(axis=-1)
    lse = np.empty_like(m)
    for b in _frame_blocks(z):
        lse[b] = np.log(np.exp(z[b] - m[b][..., None]).sum(axis=-1))
    return m, lse


def _lattice(z: np.ndarray, m: np.ndarray, lse: np.ndarray, labels: np.ndarray) -> AlignmentLattice:
    """Gather the blank and label log-probs (z - m) - lse and run both recursions."""
    t_len, u_rows, _ = z.shape
    u_len = u_rows - 1
    blank_lp = (z[:, :, 0] - m) - lse
    label_lp = (z[:, np.arange(u_len), labels] - m[:, :-1]) - lse[:, :-1]
    # Prefix sums of every frame's label log-probs, taken once: row t of fwd
    # is [0, cumsum(label_lp[t])], row t of rev the same over label_lp[t, ::-1].
    fwd = np.zeros((t_len, u_rows))
    rev = np.zeros((t_len, u_rows))
    np.cumsum(label_lp, axis=1, out=fwd[:, 1:])
    np.cumsum(label_lp[:, ::-1], axis=1, out=rev[:, 1:])

    alpha = np.empty((t_len, u_rows))
    alpha[0] = fwd[0]
    for t in range(1, t_len):
        np.add(alpha[t - 1], blank_lp[t - 1], out=alpha[t])
        _scan(alpha[t], fwd[t])

    # Beta rows are written reversed, so the right-to-left scan runs as a
    # left-to-right one over rev; the last row starts from the final blank.
    beta = np.empty((t_len, u_rows))
    last = beta[t_len - 1, ::-1]
    last.fill(NEG_INF)
    last[0] = blank_lp[t_len - 1, u_len]
    _scan(last, rev[t_len - 1])
    for t in range(t_len - 2, -1, -1):
        np.add(beta[t + 1, ::-1], blank_lp[t, ::-1], out=beta[t, ::-1])
        _scan(beta[t, ::-1], rev[t])

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
    """g times the nll gradient w.r.t. z, formed one frame block at a time
    into one fresh buffer.

    Each frame t is exp((z[t] - m[t]) - lse[t]) * occ_total[t] minus the
    blank and label occupancies, then scaled by g; a block does this for its
    frames at once, in place in its span of the buffer.  A non-positive g
    can leave -0.0 entries, which `Tensor.adopt_grad` turns into +0.0.
    """
    occ_blank, occ_label, occ_total = _occupancies(lat)
    rows = np.arange(labels.size)
    grad = np.empty(z.shape)
    for b in _frame_blocks(z):
        gb = grad[b]
        np.subtract(z[b], m[b][..., None], out=gb)
        gb -= lse[b][..., None]
        np.exp(gb, out=gb)
        gb *= occ_total[b][..., None]
        gb[..., 0] -= occ_blank[b]
        gb[:, rows, labels] -= occ_label[b]
        gb *= g
    return grad


def rnnt_loss(logits: Tensor, labels) -> Tensor:
    """Tape node: scalar loss from raw joint logits [T, U+1, V+1]; blank is id 0."""
    z = logits.data
    labels = _checked_labels(z, labels)
    m, lse = _normalisers(z)
    lat = _lattice(z, m, lse, labels)

    def backward(g):
        logits.adopt_grad(_logit_grad(z, m, lse, labels, lat, float(g)))

    return T.from_op(np.asarray(-lat.log_likelihood), (logits,), backward)
