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

The covariance step is exactly symmetric: a shifted copy of P, one head-row
product R = W P[head_cols] for the head rows and columns, and the rank-one
correction u u^T.  Within a frame the gain converges geometrically; once it
moves by at most ``FREEZE_TOL`` of its max-abs between samples, later steps
under that model keep it and P.  The freeze reads only P, so channels that
share it freeze together.  It moved benchmark-scene outputs by <= 2.8e-11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .linpred import ArModel
from .pitch import PitchInfo, UNVOICED

DEFAULT_SMOOTHER_DELAY = 25
INNOVATION_EPS = 1e-30
FREEZE_TOL = 1e-12


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

    def transition(self, a: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """F a for a ``(dim,)`` or ``(dim, C)`` array.

        The head rows are one mat-vec per channel, so a channel gets the
        same bits alone as beside others.
        """
        out = np.empty_like(a)
        out[1:] = a[:-1]
        channels, out_channels = a.reshape(len(a), -1), out.reshape(len(a), -1)  # views
        for c in range(channels.shape[1]):
            out_channels[self.head_rows, c] = self.head_weights.dot(channels[self.head_cols, c])
        return out

    def predict_covariance(self, cov: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """F cov F^T + G diag(sigma_d^2, sigma_v^2) G^T, exactly symmetric for a
        symmetric cov: R = W cov[head_cols] gives the head rows, R^T the head
        columns, and M + M^T + Q the head block, with M = R[:, head_cols] W^T / 2.
        """
        block, half_weights_t, q = self._head_block
        heads = self.head_weights.dot(cov[self.head_cols])
        out = np.empty_like(cov)
        out[1:, 1:] = cov[:-1, :-1]
        out[self.head_rows, 1:] = heads[:, :-1]  # row 0 is always a head row
        out[1:, self.head_rows] = heads[:, :-1].T
        m = heads[:, self.head_cols].dot(half_weights_t)
        out[block] = m + m.T + q
        return out


@dataclass
class SmootherState:
    """A posteriori state estimate and error covariance."""

    x: npt.NDArray[np.float64]
    cov: npt.NDArray[np.float64]
    samples_seen: int = 0
    gain: npt.NDArray[np.float64] | None = None  # the last correction's gain
    frozen: StateSpaceModel | None = None  # the model whose settled gain is ``gain``


def _model(speech, noise, smoother_delay, dim, rows, runs, inputs, observed):
    """The model whose head ``rows`` hold ``(row, first column, weights)``
    ``runs``; its ``head_cols`` are the columns the runs cover."""
    if smoother_delay < speech.order:
        raise ValueError("smoother delay must be >= speech AR order")
    block = np.zeros((len(rows), dim))
    covered = np.zeros(dim, dtype=bool)
    for row, start, weights in runs:
        block[rows.index(row), start : start + len(weights)] = weights
        covered[start : start + len(weights)] = True
    cols = np.flatnonzero(covered)
    variances = (speech.excitation_variance, noise.excitation_variance)
    return StateSpaceModel(dim, np.array(rows), cols, block[:, cols], inputs, observed,
                           variances, smoother_delay)


def build_uv_model(
    speech: ArModel,
    noise: ArModel,
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
) -> StateSpaceModel:
    """Assemble the UV concatenated state space (speech chain + noise chain)."""
    ds1 = smoother_delay + 1
    runs = [(0, 0, speech.coefficients), (ds1, ds1, noise.coefficients)]
    return _model(speech, noise, smoother_delay, ds1 + noise.order, [0, ds1], runs,
                  inputs=(0, ds1), observed=(0, ds1))


def build_vuv_model(
    speech: ArModel,
    noise: ArModel,
    pitch: PitchInfo,
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
    chain_len: int = 100,
) -> StateSpaceModel:
    """Assemble the V-UV state space with a ``chain_len``-entry excitation chain.

    The chain must reach every pitch period the state will see, so the
    state survives pitch changes; unvoiced frames simply zero the tap.
    d(n+1) enters the excitation chain and v(n) the noise chain.
    """
    if pitch.is_voiced and not (1 <= pitch.period_samples <= chain_len):
        raise ValueError(
            f"pitch period {pitch.period_samples} outside [1, {chain_len}]"
        )
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
    return SmootherState(x=np.zeros((dim, *channels)), cov=cov, samples_seen=0)


def flks_step(state: SmootherState, model: StateSpaceModel, z_n):
    """One predict/gain/correct cycle; returns (state, enhanced sample or None).

    The state ``x`` is ``(dim,)`` with a float observation ``z_n``, or
    ``(dim, C)`` with a ``(C,)`` array of observations, one per channel; the
    covariance and the gain are computed once and serve every channel.  The
    emitted sample (a float, or a ``(C,)`` array) is the last speech entry
    of the a posteriori state, i.e. the smoothed estimate of s(n - d_s);
    nothing is emitted until the state is filled.  A degenerate innovation
    variance (digital silence under zero process variances) skips the
    correction: the state becomes its prediction.  Once the gain settles
    under ``model``, P is kept as it is and the kept gain corrects x.
    """
    if len(state.x) != model.dim:
        raise ValueError("state dimension does not match model")

    i, j = model.observed
    x_pred = model.transition(state.x)
    if state.frozen is not model:
        cov = model.predict_covariance(state.cov)
        cov_obs = cov[i] + cov[j]  # columns i and j, as cov is symmetric
        innov_var = float(cov_obs[i] + cov_obs[j])
        gain = None
        if not innov_var <= INNOVATION_EPS:  # a NaN still corrects, so it shows
            gain = cov_obs / innov_var
            u = cov_obs / np.sqrt(innov_var)
            cov -= u[:, None] * u
            if state.gain is not None and (abs(gain - state.gain).max()
                                           <= FREEZE_TOL * abs(gain).max()):
                state.frozen = model
        state.cov, state.gain = cov, gain
    if state.gain is not None:
        x_pred += np.multiply.outer(state.gain, z_n - (x_pred[i] + x_pred[j]))

    n = state.samples_seen
    state.x = x_pred
    state.samples_seen = n + 1

    delay = model.smoother_delay
    if n < delay:
        return state, None
    emitted = x_pred[delay]
    return state, float(emitted) if emitted.ndim == 0 else emitted.copy()


def enhance_channel(
    x: npt.NDArray[np.float64],
    per_frame_params,
    frame_len: int,
    model_kind: str = "uv",
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
    p_max: int = 100,
) -> npt.NDArray[np.float64]:
    """Run the FLKS over an ``(n,)`` channel, or over the C channels of a
    ``(C, n)`` array that share the per-frame (StpEstimate, PitchInfo);
    returns an array of the same shape.

    Channels that share the parameters share the model, so one covariance
    recursion serves them all; it starts from the mean of their first-frame
    energies.  Each frame has its own model; state and covariance carry
    across.  One loop steps through the input and then ``smoother_delay``
    zero observations, which flush the last samples out, so the output
    aligns sample-for-sample with the input.  Samples after the last full
    frame, and the flush, use the last frame's model.  Input shorter than
    one frame has no parameters and is returned unchanged.

    Every voiced period must lie in [1, ``p_max``]; the V-UV excitation
    chain is sized to the longest of them (one entry if none is voiced).
    """
    x = np.asarray(x, dtype=float)
    n_samples = x.shape[-1]
    n_frames = n_samples // frame_len
    if len(per_frame_params) != n_frames:
        raise ValueError(
            f"expected {n_frames} parameter sets, got {len(per_frame_params)}"
        )
    if n_frames == 0:
        return x.copy()
    if model_kind != "uv":
        chain_len = max(
            (p.period_samples for _, p in per_frame_params if p and p.is_voiced), default=1
        )
        if chain_len > p_max:
            raise ValueError(f"pitch period {chain_len} outside [1, {p_max}]")
    models = [
        build_uv_model(stp.speech, stp.noise, smoother_delay) if model_kind == "uv"
        else build_vuv_model(stp.speech, stp.noise, pitch or UNVOICED, smoother_delay, chain_len)
        for stp, pitch in per_frame_params
    ]
    head = np.atleast_2d(x)[:, :frame_len]
    r0 = np.mean([float(np.dot(c, c)) / frame_len for c in head])
    state = initial_state(models[0], max(r0, 1e-12), x.shape[:-1])
    padded = np.concatenate((x, np.zeros((*x.shape[:-1], smoother_delay))), axis=-1)
    out = np.empty_like(x)
    for n in range(padded.shape[-1]):
        state, emitted = flks_step(state, models[min(n // frame_len, n_frames - 1)], padded[..., n])
        if n >= smoother_delay:  # the step for sample n emits s(n - smoother_delay)
            out[..., n - smoother_delay] = emitted
    return out
