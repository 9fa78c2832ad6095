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

Each frame runs in two phases.  Until its gain freezes, ``flks_step`` runs
one fused, exactly symmetric step per sample on [P | x].  Within a frame the
gain converges geometrically; once it moves by at most ``FREEZE_TOL`` of its
max-abs between samples, the rest of the frame keeps it and P and is the
time-invariant filter x_n = (I - g h) F x_(n-1) + g z_n.  A long enough rest
runs as a few matrix products (``_frozen_run``), a shorter one, or one of a
large state, as O(dim) steps (``_frozen_steps``); see
``BLOCK_TAIL_DIM2_PER_STEP``.  The freeze reads only P, so channels that
share it freeze together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .linpred import ArModel
from .pitch import PitchInfo

INNOVATION_EPS = 1e-30
FREEZE_TOL = 1e-12
# The block tail of a frame costs about as much as r**2 / 100 O(dim) frozen
# steps, r the entries it spans (one BLAS thread on x86-64, r = 40-296), so
# a frozen rest of fewer steps runs per sample.
BLOCK_TAIL_DIM2_PER_STEP = 100


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

    def __post_init__(self):  # the head block's index, W^T / 2 and Q (inputs are head rows)
        rows, k = self.head_rows, np.searchsorted(self.head_rows, self.inputs)
        q = np.zeros((len(rows), len(rows)))
        q[k, k] = self.process_variances
        object.__setattr__(self, "_head_block", (np.ix_(rows, rows), self.head_weights.T / 2, q))

    def predict(self, joint, out, cov_cols: int) -> None:
        """Write F P F^T + Q for the first ``cov_cols`` columns (``dim`` or 0)
        of ``joint`` = [P | X], and F X for the rest, into ``out``.

        The head rows of F X are one mat-vec per column, so a channel gets
        the same bits alone as beside others.  F P F^T + Q is exactly
        symmetric: a shifted copy of P, R = W P[head_cols] for the head rows
        and R^T for the head columns, and M + M^T + Q for the head block, with
        M = R[:, head_cols] W^T / 2.
        """
        rows, weights, k = self.head_rows, self.head_weights, cov_cols
        gathered = joint[self.head_cols]
        out[1:, k:] = joint[:-1, k:]
        for c in range(k, joint.shape[1]):
            out[rows, c] = weights.dot(gathered[:, c])
        if k:
            block, half_weights_t, q = self._head_block
            heads = weights.dot(gathered[:, :k])
            shifted = heads[:, :-1]
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
    or ``(dim, C)``) are views of it."""

    def __init__(self, x, cov):
        x = np.asarray(x, dtype=float)
        self.joint = np.concatenate((cov, x.reshape(len(x), -1)), axis=1)
        self.x_shape = x.shape
        self.samples_seen = 0
        self.gain: npt.NDArray[np.float64] | None = None  # the last correction's gain
        self.frozen: StateSpaceModel | None = None  # the model whose settled gain is ``gain``

    @property
    def cov(self) -> npt.NDArray[np.float64]:
        return self.joint[:, : len(self.joint)]

    @property
    def x(self) -> npt.NDArray[np.float64]:
        return self.joint[:, len(self.joint) :].reshape(self.x_shape)

    @x.setter
    def x(self, value):
        self.joint[:, len(self.joint) :] = np.reshape(value, (len(self.joint), -1))


def _model(speech, noise, smoother_delay, dim, rows, runs, inputs, observed):
    """The model whose head ``rows`` hold ``(row, first column, weights)``
    ``runs``; its ``head_cols`` are the columns the runs cover."""
    block = np.zeros((len(rows), dim))
    covered = np.zeros(dim, dtype=bool)
    for row, start, weights in runs:
        block[rows.index(row), start : start + len(weights)] = weights
        covered[start : start + len(weights)] = True
    cols = np.flatnonzero(covered)
    variances = (speech.excitation_variance, noise.excitation_variance)
    return StateSpaceModel(dim, np.array(rows), cols, block[:, cols], inputs, observed,
                           variances, smoother_delay)


def build_uv_model(speech: ArModel, noise: ArModel, smoother_delay: int) -> StateSpaceModel:
    """Assemble the UV concatenated state space (speech chain + noise chain)."""
    ds1 = smoother_delay + 1
    runs = [(0, 0, speech.coefficients), (ds1, ds1, noise.coefficients)]
    return _model(speech, noise, smoother_delay, ds1 + noise.order, [0, ds1], runs,
                  inputs=(0, ds1), observed=(0, ds1))


def build_vuv_model(
    speech: ArModel, noise: ArModel, pitch: PitchInfo, smoother_delay: int, chain_len: int
) -> StateSpaceModel:
    """Assemble the V-UV state space with a ``chain_len``-entry excitation chain.

    The chain must reach every pitch period the state will see, so the
    state survives pitch changes; unvoiced frames simply zero the tap.
    d(n+1) enters the excitation chain and v(n) the noise chain.
    """
    ds1 = smoother_delay + 1
    noise_start = ds1 + chain_len
    runs = [
        (0, 0, speech.coefficients),
        (0, ds1, [1.0]),  # coupling: u(n) drives s(n)
        (noise_start, noise_start, noise.coefficients),
    ]
    if pitch.is_voiced:
        runs.append((ds1, ds1 + pitch.period_samples - 1, [pitch.voicing]))
    return _model(speech, noise, smoother_delay, noise_start + noise.order,
                  [0, ds1, noise_start], runs, inputs=(ds1, noise_start),
                  observed=(0, noise_start))


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
    under zero process variances) skips the correction.  Once the gain
    settles under ``model``, P is kept and the kept gain corrects x.
    """
    joint, dim = state.joint, model.dim
    n, delay = state.samples_seen, model.smoother_delay
    if state.frozen is model:
        emitted = _frozen_steps(state, model, np.reshape(z_n, (-1, 1)))[:, 0]
    else:
        i, j = model.observed
        out = np.empty_like(joint)
        model.predict(joint, out, dim)
        obs = out[i] + out[j]  # [P h^T | h x], as P is symmetric
        innov_var = float(obs[i] + obs[j])
        gain = None
        if not innov_var <= INNOVATION_EPS:  # a NaN still corrects, so it shows
            gain = obs[:dim] / innov_var
            obs[dim:] -= z_n
            w = obs / math.sqrt(innov_var)
            out -= np.multiply.outer(w[:dim], w)
            if state.gain is not None and (abs(gain - state.gain).max()
                                           <= FREEZE_TOL * abs(gain).max()):
                state.frozen = model
        state.gain = gain
        state.joint, state.samples_seen = out, n + 1
        emitted = out[delay, dim:]
    if n < delay:
        return state, None
    return state, float(emitted[0]) if len(state.x_shape) == 1 else emitted.copy()


def _frozen_steps(state: SmootherState, model: StateSpaceModel, z) -> npt.NDArray[np.float64]:
    """Step a state frozen under ``model`` through the ``(C, T)`` observations
    ``z`` one sample at a time, P and the gain kept; returns the ``(C, T)``
    emitted samples and leaves the end state.  A step is the O(dim) update
    x = F x + g (z - h F x)."""
    dim, delay = model.dim, model.smoother_delay
    i, j = model.observed
    x = state.joint[:, dim:]
    pred = np.empty_like(x)
    emitted = np.empty_like(z)
    for t, z_t in enumerate(z.T):
        model.predict(x, pred, 0)
        pred += np.multiply.outer(state.gain, z_t - (pred[i] + pred[j]))
        x, pred = pred, x
        emitted[:, t] = x[delay]
    state.joint[:, dim:] = x
    state.samples_seen += z.shape[-1]
    return emitted


def _unread_runs(model: StateSpaceModel) -> list[tuple[int, int]]:
    """The ``(start, stop)`` runs that end a chain past every entry a head
    row, the observation or the output reads.  Such entries only shift out,
    so nothing else depends on them within a frame."""
    read = np.zeros(model.dim, dtype=bool)
    read[model.head_cols] = read[model.head_rows] = True
    read[[*model.observed, model.smoother_delay]] = True
    bounds = [*model.head_rows, model.dim]
    last_read = [lo + np.flatnonzero(read[lo:hi])[-1] for lo, hi in zip(bounds, bounds[1:])]
    return [(last + 1, hi) for last, hi in zip(last_read, bounds[1:]) if last + 1 < hi]


def _frozen_run(state: SmootherState, model: StateSpaceModel, z) -> npt.NDArray[np.float64]:
    """Step a state frozen under ``model`` through the ``(C, T)`` observations
    ``z``; returns the ``(C, T)`` emitted samples and leaves the end state.

    A step is x_t = A x_(t-1) + g z_t, A = (I - g h) F, so a left vector l
    reads l x_t = l A^t x_0 plus the lower-triangular Toeplitz product of
    the taps l A^k g with z, and x_T = A^T x_0 + sum_t A^(T-t) g z_t.  The
    rows l A^t and columns A^k g double block by block through the squares
    of A.  These span only the entries something reads, so a chain's unread
    tail (see ``_unread_runs``) does not change the bits of the rest.  Its
    entry k = start + m ends at x_(start-1)(T-m-1) + sum_(s<=m) g_(k-s) nu_(T-s)
    if m < T, else at x_(k-T)(0) + sum_(s<T) g_(k-s) nu_(T-s), with the
    innovation nu_t = z_t - h F x_(t-1) and x_(start-1) as two more left
    vectors.  Products on the data run per channel, so a channel gets the
    same bits alone as beside others.
    """
    gain, dim, steps = state.gain, model.dim, z.shape[-1]
    runs = _unread_runs(model)
    read = np.ones(dim, dtype=bool)
    for start, stop in runs:
        read[start:stop] = False
    at = np.cumsum(read) - 1  # an entry's place among the read entries
    f = model.matrix()[np.ix_(read, read)]
    h_f = f[at[model.observed[0]]] + f[at[model.observed[1]]]
    g = gain[read]
    a = f - np.multiply.outer(g, h_f)
    left = np.eye(len(g))[at[[model.smoother_delay, *(start - 1 for start, _ in runs)]]]
    if runs:
        left = np.vstack((left, h_f))
    starts = state.x.reshape(dim, -1).T.copy()  # one row per channel
    powered = [x[read] for x in starts]  # becomes A^T x_0, one square per bit of T
    rows = np.empty((len(left), steps + 1, len(g)))  # l A^t for t = 0..T
    columns = np.empty((len(g), steps))  # A^t g for t = 0..T-1
    rows[:, 0], columns[:, 0] = left, g
    square, t = a, 1  # square = A^t
    while t <= steps:
        rows[:, t : 2 * t] = rows[:, : min(t, steps + 1 - t)] @ square
        columns[:, t : 2 * t] = square @ columns[:, : min(t, steps - t)]
        if steps & t:
            powered = [square @ x for x in powered]
        t *= 2
        if t <= steps:
            square = square @ square
    taps = rows[:, :steps] @ g
    emitted = np.empty_like(z)
    for c, (x, z_c) in enumerate(zip(starts, z)):
        reads = rows @ x[read]  # l x_t for t = 0..T, before the inputs
        for row, taps_l in zip(reads, taps):
            row[1:] += np.convolve(taps_l, z_c)[:steps]
        emitted[c] = reads[0, 1:]
        end = state.joint[:, dim + c]  # every entry is read or in a run
        end[read] = powered[c] + columns[:, ::-1] @ z_c
        if runs:
            nu_reversed = (z_c - reads[-1, :steps])[::-1]  # nu_T, ..., nu_1
            for (start, stop), last_read in zip(runs, reads[1:]):
                m = np.arange(stop - start)
                lag = m[:, None] - np.arange(steps)
                spread = np.where(lag >= 0, gain[start + np.maximum(lag, 0)], 0.0)
                fed = np.where(m < steps, last_read[np.maximum(steps - 1 - m, 0)],
                               x[start + np.maximum(m - steps, 0)])
                end[start:stop] = fed + (spread * nu_reversed).sum(axis=1)
    state.samples_seen += steps
    return emitted


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
    the flush, use the last frame's model.  Within a frame, ``flks_step``
    runs until the gain freezes; the rest runs as a block (``_frozen_run``)
    if it has at least r**2 / ``BLOCK_TAIL_DIM2_PER_STEP`` samples, r the
    entries the block spans, else sample by sample (``_frozen_steps``).
    The choice reads neither the data, nor the channel count, nor a chain's
    unread tail.  ``per_frame_params`` holds one entry per whole frame, as
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
        while n < end and state.frozen is not model:
            state, sample = flks_step(state, model, padded[..., n])
            if sample is not None:
                emitted[:, n] = sample
            n += 1
        if n < end:
            spanned = model.dim - sum(stop - start for start, stop in _unread_runs(model))
            block = (end - n) * BLOCK_TAIL_DIM2_PER_STEP >= spanned**2
            frozen_rest = _frozen_run if block else _frozen_steps
            emitted[:, n:end] = frozen_rest(state, model, observations[:, n:end])
            n = end
    return emitted[:, smoother_delay:].reshape(x.shape)
