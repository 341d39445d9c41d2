"""Exact transducer alignment loss.

The negative log-likelihood marginalizes over every monotone alignment of U
label emissions and T frame advances (blanks) on the T x (U+1) trellis,
computed with a log-domain forward/backward dynamic program.  The gradient
with respect to the pre-softmax logits comes from posterior path occupancies:

    d nll / d logit(t, u, k) = softmax(t, u, k) * occ(t, u) - occ_k(t, u)

Minus infinity is represented by a large negative sentinel that logaddexp
absorbs without producing NaNs.

`rnnt_loss` is the tape node the model trains with.  It takes one
utterance's [T, U+1, V+1] logits, or the packed cells of a batch as the
packed `Joint` gives them: each utterance's T_i x (U_i+1) cells in (t, u)
row-major order, utterance after utterance, as [sum T_i (U_i+1), V+1] rows
with no padding, beside the transcripts and the frame counts T_i.  Either
way it is one node whose value is the mean nll, and its work runs once per
call, not once per utterance: the blank and label log-probabilities are
gathered for every cell, and both recursions run across the utterances at
once on padded [T_max, B, U_max+1] lattices, alpha's aligned at each
utterance's start and beta's at its end (frame T_i - 1 and label row U_i
first), so every utterance's scans start at step 0.  Each step is
elementwise or reduces one row, so every utterance gets the nll and
gradient bits of a call on its own logits.  A row whose max is NaN or
infinite raises `DataError` naming its utterance.

Besides the logits, the forward keeps only per-cell arrays; no normalized
copy of the logits is made.  The backward forms the logit gradient once,
and `Tensor.adopt_grad` makes it the logits' first `.grad` without a copy.
Its buffer is the logits' own when `tensor.tape_only` finds that only the
tape holds them (the joint's output once the caller has dropped it), so no
second logit-sized array is made.  It is a fresh one when the caller holds
the logits, their `.data` or a view of their buffer, when they are a leaf,
or when a second consumer still needs them.  The same operations run in
the same order either way, so the bits are the same.  One utterance's
[T, U+1, V+1] logits are a batch of one, so both inputs take one path,
under one block rule: the normaliser and gradient passes run over blocks of
consecutive cells within `tensor.BLOCK_BYTES`, the one block budget, which
the joint's backward shares (at most 52 cells at paper width, V+1 = 2501;
`tensor.row_blocks` splits the cells into nearly equal blocks), so no
temporary exceeds one block.  Both passes work row by row, so the block
size changes no bit.  The prefix sums of each row's label log-probabilities
are taken once, before the scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, ShapeError
from .tensor import Tensor
from .vocab import label_ids

NEG_INF = -1.0e30


@dataclass
class Cells:
    """Where the packed cells sit: cell c is frame t[c] and label row u[c] of
    utterance utt[c]."""
    utt: np.ndarray      # [C]
    t: np.ndarray        # [C]
    u: np.ndarray        # [C]
    t_lens: np.ndarray   # [B] frames T_i
    u_lens: np.ndarray   # [B] labels U_i
    last: np.ndarray     # [B] each utterance's final cell (T_i - 1, U_i)
    labels: np.ndarray   # [L] the cells with u < U_i, which emit a label, ascending
    ids: np.ndarray      # [L] the label id each of them emits


@dataclass
class AlignmentLattice:
    log_probs_blank: np.ndarray  # [C]
    log_probs_label: np.ndarray  # [L]
    alpha: np.ndarray            # [C]
    beta: np.ndarray             # [C]
    log_likelihood: np.ndarray   # [B]


def _scan(r: np.ndarray, c: np.ndarray) -> None:
    """In place along the last axis, r <- logaddexp.accumulate(r - c) + c.

    With r holding base and c[u] = sum(chain[:u]), this solves
    r[u] = logaddexp(base[u], r[u-1] + chain[u-1]) in one vector pass: a
    running logaddexp over base - c.  Run on reversed rows it scans right
    to left.
    """
    r -= c
    np.logaddexp.accumulate(r, axis=-1, out=r)
    r += c


def _checked(z: np.ndarray, labels, lengths):
    """The input as [C, V+1] rows after checking it, the transcripts as int64
    ids and the frame counts; one utterance's [T, U+1, V+1] input (lengths
    None) becomes a batch of one."""
    if lengths is None:
        labels = np.asarray(labels)
        if z.ndim != 3 or labels.ndim != 1:
            raise ShapeError(
                f"want [T, U+1, V+1] joint output and U labels, got {z.shape} and {labels.shape}"
            )
        if z.shape[1] != labels.size + 1:
            raise ShapeError(f"joint output has {z.shape[1]} label rows, want {labels.size + 1}")
        z, labels, lengths = z.reshape(-1, z.shape[2]), [labels], [z.shape[0]]
    labels = [np.asarray(tokens) for tokens in labels]
    if z.ndim != 2 or not lengths or len(labels) != len(lengths) or any(
            tokens.ndim != 1 for tokens in labels):
        raise ShapeError(
            f"want [sum T_i (U_i+1), V+1] packed cells and one transcript per frame count, "
            f"got {z.shape}, {len(labels)} transcripts and {len(lengths)} frame counts"
        )
    t_lens = [int(t) for t in lengths]
    if min(t_lens) < 1:
        raise ShapeError(f"every utterance needs at least one frame, got {t_lens}")
    ids = [label_ids(tokens, z.shape[1] - 1) for tokens in labels]
    n_cells = sum(t * (tokens.size + 1) for t, tokens in zip(t_lens, ids))
    if z.shape[0] != n_cells:
        raise ShapeError(f"{z.shape[0]} packed cells, want sum T_i (U_i+1) = {n_cells}")
    return z, ids, t_lens


def _cells(ids, t_lens) -> Cells:
    u_lens = np.array([tokens.size for tokens in ids], dtype=np.int64)
    t_lens = np.array(t_lens, dtype=np.int64)
    rows = u_lens + 1
    counts = t_lens * rows
    ends = np.cumsum(counts)
    utt = np.repeat(np.arange(len(ids)), counts)
    t, u = np.divmod(np.arange(ends[-1]) - np.repeat(ends - counts, counts), rows[utt])
    labels = np.flatnonzero(u < u_lens[utt])
    first_id = np.cumsum(u_lens) - u_lens
    return Cells(utt, t, u, t_lens, u_lens, ends - 1, labels,
                 np.concatenate(ids)[first_id[utt[labels]] + u[labels]])


def _normalisers(z: np.ndarray, cells: Cells):
    """Per-row max m and log-normaliser log sum exp(z - m), each [C].

    A row whose max is NaN or infinite raises `DataError` before any
    exponential is taken.  The exponentials are taken one block at a time,
    so no temporary larger than `tensor.BLOCK_BYTES` (or one row) is made.
    """
    m = z.max(axis=-1)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        c = bad[0]
        raise DataError(
            f"utterance {cells.utt[c]}: the logits of frame {cells.t[c]}, label row "
            f"{cells.u[c]} have a non-finite max ({m[c]})"
        )
    lse = np.empty_like(m)
    for b in T.row_blocks(0, *z.shape):
        lse[b] = np.log(np.exp(z[b] - m[b][:, None]).sum(axis=-1))
    return m, lse


def _lattice(z: np.ndarray, m: np.ndarray, lse: np.ndarray, cells: Cells) -> AlignmentLattice:
    """Gather the blank and label log-probs (z - m) - lse and run both
    recursions, for every utterance at once."""
    utt, t, u, labels = cells.utt, cells.t, cells.u, cells.labels
    blank_lp = (z[:, 0] - m) - lse
    label_lp = (z[labels, cells.ids] - m[labels]) - lse[labels]

    # Flat positions of every cell in the padded [T_max, B, U_max+1] lattices,
    # aligned at each utterance's start and at its end.  Padding holds zeros
    # or what the scans make of them; no cell reads it.
    n_utt = cells.t_lens.size
    grid = (int(cells.t_lens.max()), n_utt, int(cells.u_lens.max()) + 1)
    at_start = (t * n_utt + utt) * grid[2] + u
    at_end = ((cells.t_lens[utt] - 1 - t) * n_utt + utt) * grid[2] + cells.u_lens[utt] - u

    def spread(values, at):
        out = np.zeros(grid)
        out.reshape(-1)[at] = values
        return out

    blank_fwd = spread(blank_lp, at_start)
    blank_rev = spread(blank_lp, at_end)
    # Prefix sums of every frame's label log-probs, taken once: row t of
    # utterance i in fwd is [0, cumsum(label_lp_i[t])], in rev (counted from
    # the end) the same over label_lp_i[t, ::-1].
    fwd = np.zeros(grid)
    rev = np.zeros(grid)
    np.cumsum(spread(label_lp, at_start[labels])[..., :-1], axis=-1, out=fwd[..., 1:])
    np.cumsum(spread(label_lp, at_end[labels] - 1)[..., :-1], axis=-1, out=rev[..., 1:])

    alpha = np.empty(grid)
    alpha[0] = fwd[0]
    for s in range(1, grid[0]):
        np.add(alpha[s - 1], blank_fwd[s - 1], out=alpha[s])
        _scan(alpha[s], fwd[s])

    # Beta runs over the end-aligned lattice, so its right-to-left scans run
    # left to right over rev; each utterance's first row starts from its
    # final blank.
    beta = np.empty(grid)
    beta[0].fill(NEG_INF)
    beta[0, :, 0] = blank_rev[0, :, 0]
    _scan(beta[0], rev[0])
    for s in range(1, grid[0]):
        np.add(beta[s - 1], blank_rev[s], out=beta[s])
        _scan(beta[s], rev[s])

    alpha = alpha.reshape(-1)[at_start]
    return AlignmentLattice(blank_lp, label_lp, alpha, beta.reshape(-1)[at_end],
                            alpha[cells.last] + blank_lp[cells.last])


def _occupancies(cells: Cells, lat: AlignmentLattice):
    """Posterior occupancies of each cell's blank [C], each label [L] and each cell [C]."""
    utt, labels = cells.utt, cells.labels
    log_z = lat.log_likelihood[utt]
    # A blank at (t, u) continues at (t+1, u), U_i + 1 cells on; the final
    # blank at (T_i-1, U_i) terminates with no continuation cost.
    inner = np.flatnonzero(cells.t < cells.t_lens[utt] - 1)
    beta_next_t = np.full(utt.size, NEG_INF)
    beta_next_t[inner] = lat.beta[inner + cells.u_lens[utt[inner]] + 1]
    beta_next_t[cells.last] = 0.0
    occ_blank = np.exp(lat.alpha + lat.log_probs_blank + beta_next_t - log_z)
    occ_label = np.exp(lat.alpha[labels] + lat.log_probs_label + lat.beta[labels + 1]
                       - log_z[labels])
    occ_total = occ_blank.copy()
    occ_total[labels] += occ_label
    return occ_blank, occ_label, occ_total


def _logit_grad(z, m, lse, cells: Cells, lat: AlignmentLattice, g: float,
                out: np.ndarray) -> np.ndarray:
    """g times the nll gradient w.r.t. z [C, V+1], formed one block of rows
    at a time into `out`, a fresh buffer or z itself.

    Each row is exp((z - m) - lse) * occ_total minus the blank and label
    occupancies, then scaled by g; a block does this for its rows at once,
    in place in its span of `out`.  Every step is elementwise, and a block's
    rows of z are read before they are written, so over z itself it gives
    the same bits.  A non-positive g can leave -0.0 entries, which
    `Tensor.adopt_grad` turns into +0.0.
    """
    occ_blank, occ_label, occ_total = _occupancies(cells, lat)
    for b in T.row_blocks(0, *z.shape):
        gb = out[b]
        np.subtract(z[b], m[b][:, None], out=gb)
        gb -= lse[b][:, None]
        np.exp(gb, out=gb)
        gb *= occ_total[b][:, None]
        gb[:, 0] -= occ_blank[b]
        k = slice(*np.searchsorted(cells.labels, (b.start, b.stop)))
        gb[cells.labels[k] - b.start, cells.ids[k]] -= occ_label[k]
        gb *= g
    return out


def rnnt_loss(logits: Tensor, labels, lengths=None):
    """Tape node: the transducer loss from raw joint logits; blank is id 0.

    With `lengths` None, `logits` are one utterance's [T, U+1, V+1] and
    `labels` its U ids; returns its scalar nll.  Otherwise `logits` are the
    packed cells [sum T_i (U_i+1), V+1] of a batch, `labels` its
    transcripts and `lengths` their frame counts T_i; returns the mean nll
    as one scalar node, with the bits of summing the nlls in order and
    scaling by 1/B, and the list of per-utterance nlls.
    """
    z, ids, t_lens = _checked(logits.data, labels, lengths)
    cells = _cells(ids, t_lens)
    m, lse = _normalisers(z, cells)
    lat = _lattice(z, m, lse, cells)
    nll = -lat.log_likelihood
    s = 1.0 / nll.size

    def backward(g):
        # Asked before this closure makes its own view of the buffer.
        donate = T.tape_only(logits)
        rows = logits.data.reshape(-1, logits.shape[-1])
        grad = _logit_grad(rows, m, lse, cells, lat, float(g) * s,
                           rows if donate else np.empty(rows.shape))
        logits.adopt_grad(grad.reshape(logits.shape))

    loss = T.from_op(np.asarray(np.cumsum(nll)[-1] * s), (logits,), backward)
    return loss if lengths is None else (loss, nll.tolist())
