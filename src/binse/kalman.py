"""Concatenated state-space models and the fixed-lag Kalman smoother.

The unvoiced (UV) model stacks a speech companion chain of length d_s+1 on
top of a noise companion chain of length Q.  The voiced-unvoiced (V-UV)
model inserts an excitation chain between them, driven by white noise and a
single pitch-lag tap b(p); the excitation feeds the speech chain through a
coupling entry.  The chain is as long as the longest pitch period of the
record being smoothed (one entry when no frame is voiced): entries past it
only ever shift out, so leaving them out marginalizes them exactly.  Every
row of the transition shifts the entry above it down one place, except the
head row of each chain, so a model stores only its head rows, over the
columns they reach.  A model does not record which kind it is: the UV
layout is the V-UV one with an empty excitation chain.

The smoother has one regime: each frame's samples run as lifted blocks of
``BLOCK_LEN`` = K samples, each one vector measurement (``lift`` and
``lifted_update``; Anderson & Moore, *Optimal Filtering*, 1979, sequential
processing of vector measurements), which in exact arithmetic is the
fixed-lag smoother of K ``flks_step`` calls.  A segment's last < K samples
run ``flks_step``.  So does a block whose innovation covariance is not
positive definite, has a pivot at most ``INNOVATION_EPS`` (digital silence),
or spreads its K-step prior variances past ``BLOCK_SPREAD_MAX`` times the
smallest innovation variance (a flat prior, or a near-noiseless record), and
every block of a model whose lifted rows grow past ``ROW_GROWTH_MAX``
(clustered sharp poles): there the block would lose digits that the
per-sample steps keep.  With these guards the blocks stayed within 2.2e-11
of the peak of the per-sample loop on 1,500 random stable models of orders
1-14 (poles up to 0.995, sigma_v^2 down to 1e-7; the property test in
``tests/test_kalman.py`` holds them to 1e-10), and within 1e-12 on all but
26 of them.
Latency is that of the per-sample smoother: a frame's blocks start once its
parameters exist, which already needs the whole frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .linpred import ArModel
from .pitch import UNVOICED, PitchInfo

INNOVATION_EPS = 1e-30
# Samples per lifted block: it divides the default 200-sample frame.
BLOCK_LEN = 25
# A block cancels its K-step prior variances down to the innovation variances;
# past this ratio it runs per sample.  Bench blocks read 1.7 (median) to 15.
BLOCK_SPREAD_MAX = 20.0
# Past this absolute row sum of the lifted rows h F^t, e_head F^t and e_d F^t,
# a model's K-step products cancel digits that per-sample steps keep, so its
# samples run per sample.  Bench models read 4 to 12.
ROW_GROWTH_MAX = 100.0


@dataclass(frozen=True)
class StateSpaceModel:
    """One frame's x(n+1) = F x(n) + G [d(n), v(n)], z(n) = h x(n) + noise.

    Row i > 0 of F copies entry i - 1, except the first row of each chain:
    ``head_weights[j]`` is row ``head_rows[j]`` of F at the columns
    ``head_cols``, the columns the head rows' coefficients cover; F is zero
    elsewhere.  G puts d(n) and v(n) into one entry each, ``inputs``, and h
    sums the two entries ``observed``.
    """

    dim: int
    head_rows: npt.NDArray[np.intp]
    head_cols: npt.NDArray[np.intp]
    head_weights: npt.NDArray[np.float64]  # (len(head_rows), len(head_cols))
    inputs: tuple[int, int]  # entries driven by (d, v)
    observed: tuple[int, int]  # entries summed into the observation
    process_variances: tuple[float, float]  # (sigma_d^2, sigma_v^2)
    smoother_delay: int

    def __post_init__(self):
        # The head block's index, W^T / 2 and Q (inputs are head rows).
        rows, k = self.head_rows, np.searchsorted(self.head_rows, self.inputs)
        q = np.zeros((len(rows), len(rows)))
        q[k, k] = self.process_variances
        object.__setattr__(self, "_head_block", (np.ix_(rows, rows), self.head_weights.T / 2, q))

    def predict(self, joint, out) -> None:
        """Write F P F^T + Q for the ``dim`` columns of ``joint`` = [P | X] that
        hold P, and F X for the rest, into ``out``.

        One product W [P | X][head_cols] gives the head rows of F P and of
        F X.  On the models ``build_vuv_model`` makes, its columns have the
        bits of one mat-vec per column, so a channel gets the same bits alone
        as beside others (``tests/test_kalman.py`` checks this against the
        per-column form).  F P F^T + Q is exactly symmetric: a shifted copy
        of P, R = W P[head_cols] for the head rows and R^T for the head
        columns, and M + M^T + Q for the head block, with
        M = R[:, head_cols] W^T / 2.
        """
        rows, weights, k = self.head_rows, self.head_weights, self.dim
        block, half_weights_t, q = self._head_block
        heads = weights.dot(joint[self.head_cols])
        shifted = heads[:, : k - 1]
        out[1:, k:] = joint[:-1, k:]
        out[rows, k:] = heads[:, k:]
        out[1:, 1:k] = joint[:-1, : k - 1]
        out[rows, 1:k] = shifted  # row 0 is always a head row
        out[1:, rows] = shifted.T
        m = heads[:, self.head_cols].dot(half_weights_t)
        out[block] = m + m.T + q

    def matrix(self) -> npt.NDArray[np.float64]:
        """F as a dense ``(dim, dim)`` array."""
        f = np.eye(self.dim, k=-1)
        f[self.head_rows] = 0.0
        f[np.ix_(self.head_rows, self.head_cols)] = self.head_weights
        return f


class SmootherState:
    """A posteriori covariance P and state x, side by side in one
    ``(dim, dim + C)`` array ``joint`` = [P | x]; ``cov`` and ``x`` (``(dim,)``
    or ``(dim, C)``) are views of it.

    It also holds the steps' workspace: a ``spare`` array of the shape of
    ``joint``, which ``flks_step`` and ``lifted_update`` write into and then
    swap with ``joint``, and the reused arrays of ``buffer``.  As the two
    arrays swap on every step, a ``cov`` or ``x`` view taken after one step
    is overwritten two steps later; a caller that keeps one must copy it."""

    def __init__(self, x, cov):
        x = np.asarray(x, dtype=float)
        self.joint = np.concatenate((cov, x.reshape(len(x), -1)), axis=1)
        self.spare = np.empty_like(self.joint)
        self.x_shape = x.shape
        self.samples_seen = 0
        self.buffers: dict[str, npt.NDArray[np.float64]] = {}

    def buffer(self, name: str, shape) -> npt.NDArray[np.float64]:
        """The reused C-contiguous array ``name`` of ``shape``.  Fresh arrays
        instead made lifted blocks 1.6x slower at dim 138 and 1.7x at dim 296
        (one BLAS thread, 2-core x86-64 host)."""
        size = math.prod(shape)
        flat = self.buffers.get(name)
        if flat is None or flat.size < size:
            flat = self.buffers[name] = np.empty(size)
        return flat[:size].reshape(shape)

    @property
    def cov(self) -> npt.NDArray[np.float64]:
        return self.joint[:, : len(self.joint)]

    @property
    def x(self) -> npt.NDArray[np.float64]:
        return self.joint[:, len(self.joint) :].reshape(self.x_shape)

    @x.setter
    def x(self, value):
        self.joint[:, len(self.joint) :] = np.reshape(value, (len(self.joint), -1))


def build_uv_model(speech: ArModel, noise: ArModel, smoother_delay: int) -> StateSpaceModel:
    """Assemble the UV state space: the V-UV one with an empty excitation chain."""
    return build_vuv_model(speech, noise, UNVOICED, smoother_delay, 0)


def build_vuv_model(
    speech: ArModel, noise: ArModel, pitch: PitchInfo, smoother_delay: int, chain_len: int
) -> StateSpaceModel:
    """Assemble the V-UV state space with a ``chain_len``-entry excitation chain.

    The chain must reach every pitch period the state will see, so the
    state survives pitch changes; unvoiced frames simply zero the tap.
    d(n+1) enters the excitation chain and v(n) the noise chain.  With
    ``chain_len`` 0 this is the UV layout: d(n) drives the speech head.
    """
    ds1 = smoother_delay + 1
    noise_start = ds1 + chain_len
    driven = ds1 if chain_len else 0  # the entry d(n) drives
    rows = sorted({0, driven, noise_start})  # the chains' heads
    dim = noise_start + noise.order
    # F's head rows as (row, first column, weights) runs.
    runs = [(0, 0, speech.coefficients), (noise_start, noise_start, noise.coefficients)]
    if chain_len:
        runs.append((0, ds1, [1.0]))  # coupling: u(n) drives s(n)
    if pitch.is_voiced:
        runs.append((ds1, ds1 + pitch.period_samples - 1, [pitch.voicing]))
    block = np.zeros((len(rows), dim))
    covered = np.zeros(dim, dtype=bool)
    for row, start, weights in runs:
        block[rows.index(row), start : start + len(weights)] = weights
        covered[start : start + len(weights)] = True
    cols = np.flatnonzero(covered)
    variances = (speech.excitation_variance, noise.excitation_variance)
    return StateSpaceModel(dim, np.array(rows), cols, block[:, cols], (driven, noise_start),
                           (0, noise_start), variances, smoother_delay)


def initial_state(
    model: StateSpaceModel, obs_variance: float, channels: tuple[int, ...] = ()
) -> SmootherState:
    """Covariance = obs_variance * I, except the V-UV excitation chain which
    starts at the speech excitation variance so it matches the UV prior.

    The state is ``(dim,)``, or ``(dim, C)`` for ``channels=(C,)``: C
    channels that share the model share the covariance.
    """
    dim = model.dim
    cov = np.eye(dim) * obs_variance
    ds1 = model.smoother_delay + 1
    noise_start = model.observed[1]  # the UV model has no chain: noise_start == ds1
    cov[ds1:noise_start, ds1:noise_start] = (
        np.eye(noise_start - ds1) * model.process_variances[0]
    )
    return SmootherState(x=np.zeros((dim, *channels)), cov=cov)


def flks_step(state: SmootherState, model: StateSpaceModel, z_n):
    """One predict/gain/correct cycle; returns (state, enhanced sample or None).

    The state ``x`` is ``(dim,)`` with a float observation ``z_n``, or
    ``(dim, C)`` with a ``(C,)`` array of observations, one per channel; the
    covariance and the gain are computed once and serve every channel.  The
    emitted sample (a float, or a ``(C,)`` array) is the last speech entry
    of the a posteriori state, i.e. the smoothed estimate of s(n - d_s);
    nothing is emitted until the state is filled.

    Rows i + j of the prediction of [P | x] hold [P h^T | h x], and one
    rank-one update [P | x] -= u [u | (h x - z) / sqrt(s)], u = P h^T / sqrt(s),
    corrects both.  A degenerate innovation variance s (digital silence
    under zero process variances) skips the correction.  ``enhance_channel``
    runs it for the samples its lifted blocks leave and for a block that
    falls back.

    The step allocates no ``(dim, dim + C)`` array: it
    works in the state's workspace (see ``SmootherState``), and forms the
    rank-one term by a K = 1 matrix product, which has the bits of the outer
    product.
    """
    joint, dim, (i, j) = state.joint, model.dim, model.observed
    n, delay = state.samples_seen, model.smoother_delay
    out = state.spare
    model.predict(joint, out)
    obs = out[i] + out[j]  # [P h^T | h x], as P is symmetric
    innov_var = float(obs[i] + obs[j])
    if not innov_var <= INNOVATION_EPS:  # a NaN still corrects, so it shows
        obs[dim:] -= z_n
        obs /= math.sqrt(innov_var)
        out -= np.dot(obs[:dim, None], obs[None, :], out=state.buffer("rank_one", out.shape))
    state.joint, state.spare, state.samples_seen = out, joint, n + 1
    if n < delay:
        return state, None
    emitted = out[delay, dim:]
    return state, float(emitted[0]) if len(state.x_shape) == 1 else emitted.copy()


class _Layout(NamedTuple):
    """The index arrays of K steps under one layout of chains (see ``lift``)."""

    reach: npt.NDArray[np.intp]
    shift: npt.NDArray[np.float64]  # F over the reach with 0 for the head rows' weights
    weights_at: tuple  # where the head rows' weights go in ``shift``
    heads_at: npt.NDArray[np.intp]  # the heads' places in the reach
    inputs_at: npt.NDArray[np.intp]
    observed: tuple  # the chains of the two observed heads
    obs_lags: npt.NDArray[np.intp]  # [t0, s0]: sample t0 + 1 lags noise s0 by t0 - s0, or K
    out_lags: npt.NDArray[np.intp]  # [t0 - min(d, K), s0]: t0 - s0 - d, or K
    fresh_lags: tuple  # [g, s0]: G row g = e_head F^(K-m) sees noise s0 K - 1 - s0 - m late, or K
    fresh_powers: tuple  # [g]: G row g's power K - m and chain
    fresh_rows: npt.NDArray[np.intp]  # the fresh entries' rows of G
    take: npt.NDArray[np.intp]  # [x; G x; E x] -> [F^K x; E_d x]
    pieces: npt.NDArray[np.intp]  # (pieces, K): each chain's entries, then 0s to fill a piece
    piece_take: npt.NDArray[np.intp]  # ``take`` in the pieces, then the samples' piece
    place: npt.NDArray[np.intp]  # each entry's and sample's slot in the pieces
    fresh_block: npt.NDArray[np.intp]  # flat, the fresh entries' block, upper triangle, in G G^T
    shifted: npt.NDArray[np.intp]  # flat, F^K P F^K^T in [[P, P G^T], [G P, G P G^T]]
    paired: npt.NDArray[np.intp]  # flat, W W^T in the upper triangle of the pieces' products
    augmented: npt.NDArray[np.float64]  # [[0, 0], [I, c I]]


@functools.lru_cache(maxsize=16)  # a record's frames differ in their pitch tap at most
def _layout(dim, heads, head_cols, observed, inputs, delay, k) -> _Layout:
    heads, head_cols = np.array(heads), np.array(head_cols, dtype=np.intp)
    entries, m, lengths = np.arange(dim), np.arange(k), np.diff([*heads, dim])
    chain = np.searchsorted(heads, entries, side="right") - 1
    offset = entries - heads[chain]
    last = heads.copy()  # the last entry of each chain that a head row reads
    np.maximum.at(last, chain[head_cols], head_cols)
    in_reach = entries <= last[chain]
    reach, at = np.flatnonzero(in_reach), np.cumsum(in_reach) - 1
    shift = np.eye(len(reach), k=-1)
    shift[at[heads]] = 0.0
    # G: a row for each fresh entry, and K for a chain with no observed head, whose
    # length may change; the rows past its end are never used.
    seen = (heads == observed[0]) | (heads == observed[1])
    counts = np.where(seen, np.minimum(lengths, k), k)
    g_first = np.cumsum(counts) - counts
    g_chain = np.repeat(np.arange(len(heads)), counts)
    g_offset = np.arange(counts.sum()) - g_first[g_chain]
    fresh = np.flatnonzero(offset < k)
    fresh_rows = g_first[chain[fresh]] + offset[fresh]
    lag = min(delay, k)  # samples t = 1..lag emit x_0[d - t]
    shifted = np.where(offset < k, dim + np.cumsum(offset < k) - 1, entries - k)
    take = np.concatenate((shifted, delay - 1 - m[:lag], dim + len(g_chain) + m[: k - lag]))
    take[fresh] = dim + fresh_rows
    # Slots: the observed chains' entries, then each other chain from a piece of its own.
    slot, used = np.empty(dim, dtype=np.intp), 0
    for c in [*np.flatnonzero(seen), *np.flatnonzero(~seen)]:
        used = used if seen[c] else -(-used // k) * k
        slot[heads[c] : heads[c] + lengths[c]] = used + np.arange(lengths[c])
        used += lengths[c]
    n_slots = -(-used // k) * k
    place = np.concatenate((slot, n_slots + m))
    slots = np.zeros(n_slots + k, dtype=np.intp)
    slots[place] = np.r_[entries, dim + m]
    lags, fresh_lags = np.subtract.outer(m, m), k - 1 - np.add.outer(g_offset, m)
    augmented = np.zeros((2 * k, 2 * k))
    augmented[k:] = np.hstack((np.eye(k), 1e300 * np.eye(k)))
    layout = _Layout(
        reach, shift, (at[heads, None], at[head_cols]), at[heads], at[list(inputs)],
        tuple(np.searchsorted(heads, observed)), np.where(lags >= 0, lags, k),
        np.where(lags >= delay, lags - delay, k)[lag:],
        (np.where(fresh_lags >= 0, fresh_lags, k), g_chain[:, None]), (k - g_offset, g_chain),
        fresh_rows, take, slots[:-k].reshape(-1, k), take[slots], place,
        np.minimum.outer(fresh_rows, fresh_rows) * len(g_chain)
        + np.maximum.outer(fresh_rows, fresh_rows),
        shifted[:, None] * (dim + len(fresh)) + shifted,
        np.minimum.outer(slot, slot) * n_slots + np.maximum.outer(slot, slot), augmented)
    for array in layout:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return layout


class LiftedModel(NamedTuple):
    """``BLOCK_LEN`` = K steps of one model as a single vector measurement.

    A row of F^t is a shifted unit row or a chain head's row of a lower
    power, and a head row reads only the reach: each chain from its head to
    the last entry a head row reads.  So F^K copies entry i - K into entry
    i, except at the first K entries of each chain, the fresh ones, whose
    rows e_head F^(K-m) read the reach; h F^t (t = 1..K) and e_d F^t
    (t > d) read it too, and e_d F^t = e_(d-t) for t <= d.  ``rows``
    stacks, over the reach, H = [h F^t], then G, K fresh rows per chain
    (those past a chain's end are never used), then E = [e_d F^t], t > d.
    Below the ``dim`` entries of the state, or rows of P H^T, their
    products with [G; E] give [F^K; E_d] of it by one gather; and F^K P
    F^K^T is a gather of [[P, P G^T], [G P, G P G^T + Q_K]], G cut to the
    fresh entries' rows.

    The process noise enters through the two driven entries only: ``noise``
    is the covariance of the noise in ``rows``' products with the K
    observations, [N; M; N_d], and ``fresh_noise`` G's own, Q_K.

    A product over the state's entries runs in K-row pieces, each chain from
    a piece of its own, then a piece of the K samples: a longer chain only
    adds pieces, so it leaves the bits of the rest.
    """

    layout: _Layout
    rows: npt.NDArray[np.float64]  # (K + len(head_rows) * K + K - min(d, K), reach)
    rows_t: tuple  # H^T and [G; E]^T, each contiguous
    noise: npt.NDArray[np.float64]
    fresh_noise: npt.NDArray[np.float64]


def lift(model: StateSpaceModel) -> LiftedModel | None:
    """The data-free matrices of ``BLOCK_LEN`` steps under ``model``.

    They come from the chain heads' rows of F^t over the reach, t = 0..K,
    one small product per t, and the noise terms from those rows' entries
    at the two driven entries: the process noises' impulse responses.  None
    where the rows grow past ``ROW_GROWTH_MAX``.
    """
    k, n_heads = BLOCK_LEN, len(model.head_rows)
    layout = _layout(model.dim, tuple(model.head_rows), tuple(model.head_cols), model.observed,
                     model.inputs, model.smoother_delay, k)
    (i, j), n_fresh = layout.observed, len(layout.fresh_powers[0])
    f = layout.shift.copy()
    f[layout.weights_at] = model.head_weights
    powers = np.zeros((k + 1, n_heads, len(layout.reach)))  # [t, c]: e_(head c) F^t
    powers[0, np.arange(n_heads), layout.heads_at] = 1.0
    for t in range(k):
        np.dot(powers[t], f, out=powers[t + 1])
    rows = np.concatenate((powers[1:, i] + powers[1:, j], powers[layout.fresh_powers],
                           powers[1 : len(layout.out_lags) + 1, 0]))
    if not np.abs(rows).sum(axis=1).max() <= ROW_GROWTH_MAX:
        return None
    # [t, c, a] = e_(head c) F^t e_(input a) for t < K, and a zero row at t = K.
    impulse = np.concatenate((powers[:k][:, :, layout.inputs_at], np.zeros((1, n_heads, 2))))
    responses = np.concatenate((
        (impulse[:, i] + impulse[:, j])[layout.obs_lags],
        impulse[layout.fresh_lags],
        impulse[layout.out_lags, 0])).reshape(len(rows), 2 * k)
    weighted = responses * np.tile(model.process_variances, k)
    fresh_noise = weighted[k : k + n_fresh] @ responses[k : k + n_fresh].T
    return LiftedModel(layout, rows, (rows[:k].T.copy(), rows[k:].T.copy()),
                       weighted @ responses[:k].T,
                       fresh_noise.reshape(-1)[layout.fresh_block])


def lifted_update(state: SmootherState, lifted: LiftedModel, z, emitted) -> bool:
    """Run ``BLOCK_LEN`` samples as one vector measurement: write their
    ``(C, K)`` emitted samples for the ``(C, K)`` observations ``z`` into
    ``emitted`` and advance ``state``; returns False, touching neither,
    where the block must run per sample.

    With S = H P H^T + N = L L^T and C = F^K P H^T + M, the end state is
    F^K x + C S^-1 (z - H x) and P becomes F^K P F^K^T + Q_K - W W^T with
    W = C L^-T; sample t emits e_d F^t x plus row t of B L^-T, B = E_d P
    H^T + N_d, cut to its lower triangle, times L^-1 (z - H x).  S and its
    checks come first, so a block that falls back skips the G and E products.
    """
    layout, rows, dim, k = lifted.layout, lifted.rows, len(state.joint), BLOCK_LEN
    reach, fresh_rows, cov, x = layout.reach, layout.fresh_rows, state.cov, state.joint[:, dim:]
    buffer, shape = state.buffer, (*layout.pieces.shape, len(reach))
    reached = np.take(cov, reach, axis=1, out=buffer("reached", (dim, len(reach))), mode="clip")
    pieces = np.take(reached, layout.pieces, axis=0, out=buffer("pieces", shape), mode="clip")

    def products(name, rows_t):  # P rows^T, in the pieces, then placed back in entry order
        placed = np.matmul(pieces, rows_t, out=buffer(name, (*shape[:2], rows_t.shape[1])))
        return np.take(placed.reshape(-1, rows_t.shape[1]), layout.place[:dim], axis=0,
                       out=buffer(name + " placed", (dim, rows_t.shape[1])), mode="clip")

    ph = products("H", lifted.rows_t[0])  # P H^T
    ph_reach = ph[reach]
    # The Cholesky factor of [[S, I], [I, c I]], c past any entry of S^-1, holds L^-T below L.
    augmented = layout.augmented.copy()
    augmented[:k, :k] = rows[:k] @ ph_reach + lifted.noise[:k]
    try:
        factor = np.linalg.cholesky(augmented)
    except np.linalg.LinAlgError:
        return False
    pivot = np.diagonal(factor)[:k].min() ** 2
    if not (pivot > INNOVATION_EPS and math.isfinite(z.sum())
            and augmented.diagonal()[:k].max() <= BLOCK_SPREAD_MAX * pivot):
        return False
    band = products("G E", lifted.rows_t[1])  # P [G; E]^T
    dense = rows[k:] @ ph_reach + lifted.noise[k:]  # C and B where F^K and E_d are dense
    whiten_t = factor[k:, :k]  # L^-T
    white = np.concatenate((ph, dense))[layout.piece_take].reshape(-1, k, k) @ whiten_t
    white[-1] = np.tril(white[-1])  # [W; B L^-T cut to its lower triangle], in pieces
    gain = white @ whiten_t.T
    w = white[:-1]
    paired = buffer("paired", (w.size // k,) * 2)  # W_a W_b^T for each pair of pieces
    np.matmul(w[:, None], w[None].swapaxes(2, 3),
              out=paired.reshape(len(w), k, len(w), k).swapaxes(1, 2))

    n_g = len(layout.fresh_powers[0])
    spread = buffer("spread", (dim + len(fresh_rows),) * 2)
    spread[:dim, :dim] = cov
    spread[:dim, dim:] = band[:, fresh_rows]
    spread[dim:, :dim] = spread[:dim, dim:].T
    np.add((rows[k : k + n_g] @ band[reach, :n_g]).reshape(-1)[layout.fresh_block],
           lifted.fresh_noise, out=spread[dim:, dim:])
    out = state.spare
    np.subtract(
        np.take(spread.reshape(-1), layout.shifted, out=buffer("shifted", (dim, dim)), mode="clip"),
        np.take(paired.reshape(-1), layout.paired, out=buffer("paired_at", (dim, dim)), mode="clip"),
        out=out[:, :dim])
    # Each channel's products are calls of their own, so its bits do not depend on the others.
    predicted = np.matmul(rows, x[reach].T[:, :, None])[:, :, 0]
    corrected = np.matmul(gain, (z - predicted[:, :k])[:, None, :, None])
    lifted_x = (np.concatenate((x, predicted[:, k:].T))[layout.take]
                + corrected.reshape(len(z), -1).T[layout.place])
    out[:, dim:] = lifted_x[:dim]
    emitted[...] = lifted_x[dim:].T
    state.joint, state.spare = out, state.joint
    state.samples_seen += k
    return True


def enhance_channel(
    x: npt.NDArray[np.float64], per_frame_params, frame_len: int, model_kind: str,
    smoother_delay: int,
) -> npt.NDArray[np.float64]:
    """Run the FLKS over an ``(n,)`` channel, or over the C channels of a
    ``(C, n)`` array that share the per-frame (StpEstimate, PitchInfo);
    returns an array of the same shape.

    Channels that share the parameters share the model, so one covariance
    recursion serves them all; it starts from the mean of their first-frame
    energies.  Each frame has its own model; state and covariance carry
    across.  The steps run over the input and then ``smoother_delay`` zero
    observations, which flush the last samples out, so the output aligns
    sample-for-sample with the input: the step for sample n emits output
    sample n - ``smoother_delay``.  Samples after the last full frame, and
    the flush, use the last frame's model.  Each frame, and the last one
    through the partial frame and the flush, runs as lifted blocks of
    ``BLOCK_LEN`` samples (``lifted_update``) and ``flks_step`` for the rest;
    a block that cannot run lifted (see the module docstring) runs
    ``flks_step`` too.  The output is the fixed-lag smoother of the
    per-sample recursion, to the accuracy the module docstring states.  The
    products on the data run one channel at a time and span only the
    entries the frame reads, so neither the channel count nor a chain's
    unread tail changes the bits of the rest.
    ``per_frame_params`` holds one entry per whole frame, as
    ``pipeline.frame_params`` gives it, and ``smoother_delay`` is at least
    the speech order, as ``pipeline.process`` checks.  Input shorter than
    one frame has no parameters and is returned unchanged.

    ``model_kind`` "uv" builds UV models; "vuv" builds V-UV ones, whose
    excitation chain is sized to the longest voiced period (one entry if
    none is voiced).
    """
    x = np.asarray(x, dtype=float)
    n_samples = x.shape[-1]
    n_frames = n_samples // frame_len
    if n_frames == 0:
        return x.copy()
    if model_kind != "uv":
        chain_len = max((p.period_samples for _, p in per_frame_params if p.is_voiced),
                        default=1)
    models = [
        build_uv_model(stp.speech, stp.noise, smoother_delay) if model_kind == "uv"
        else build_vuv_model(stp.speech, stp.noise, pitch, smoother_delay, chain_len)
        for stp, pitch in per_frame_params
    ]
    head = np.atleast_2d(x)[:, :frame_len]
    r0 = np.mean([float(np.dot(c, c)) / frame_len for c in head])
    state = initial_state(models[0], max(r0, 1e-12), x.shape[:-1])
    padded = np.concatenate((x, np.zeros((*x.shape[:-1], smoother_delay))), axis=-1)
    observations = padded.reshape(-1, padded.shape[-1])
    emitted = np.empty_like(observations)  # column n: what the step for sample n emits
    n = 0
    for f, model in enumerate(models):
        end = (f + 1) * frame_len if f < n_frames - 1 else observations.shape[1]
        lifted = lift(model) if end - n >= BLOCK_LEN else None
        while n < end:
            stop = min(n + BLOCK_LEN, end)
            block = slice(n, stop)
            if lifted is None or stop - n < BLOCK_LEN or not lifted_update(state, lifted, observations[:, block],
                                                         emitted[:, block]):
                for i in range(n, stop):
                    state, sample = flks_step(state, model, padded[..., i])
                    if sample is not None:
                        emitted[:, i] = sample
            n = stop
    return emitted[:, smoother_delay:].reshape(x.shape)
