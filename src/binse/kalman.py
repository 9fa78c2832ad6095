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
columns they reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .linpred import ArModel
from .pitch import PitchInfo, UNVOICED

DEFAULT_SMOOTHER_DELAY = 25
INNOVATION_EPS = 1e-30


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
    kind: str  # "uv" | "vuv"

    def transition(self, a: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """F a for a ``(dim,)`` or ``(dim, C)`` array.

        Each head row adds its terms one at a time in column order, so a
        channel gets the same bits alone as beside others.
        """
        out = np.empty_like(a)
        out[1:] = a[:-1]
        terms = a[self.head_cols].T[..., None, :] * self.head_weights
        out[self.head_rows] = np.cumsum(terms, axis=-1)[..., -1].T
        return out

    def predict_covariance(self, cov: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """F cov F^T + G diag(sigma_d^2, sigma_v^2) G^T.

        The head rows are products over ``head_cols`` alone, so their sums
        do not depend on the state's width.
        """
        rows, cols, weights = self.head_rows, self.head_cols, self.head_weights
        f_cov = np.empty_like(cov)
        f_cov[1:] = cov[:-1]
        f_cov[rows] = weights @ cov[cols]  # row 0 is always a head row
        out = np.empty_like(cov)
        out[:, 1:] = f_cov[:, :-1]
        out[:, rows] = f_cov[:, cols] @ weights.T
        for i, variance in zip(self.inputs, self.process_variances):
            out[i, i] += variance
        return out


@dataclass
class SmootherState:
    """A posteriori state estimate and error covariance."""

    x: npt.NDArray[np.float64]
    cov: npt.NDArray[np.float64]
    samples_seen: int = 0


def _model(speech, noise, smoother_delay, kind, dim, rows, runs, inputs, observed):
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
                           variances, smoother_delay, kind)


def build_uv_model(
    speech: ArModel,
    noise: ArModel,
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
) -> StateSpaceModel:
    """Assemble the UV concatenated state space (speech chain + noise chain)."""
    ds1 = smoother_delay + 1
    runs = [(0, 0, speech.coefficients), (ds1, ds1, noise.coefficients)]
    return _model(speech, noise, smoother_delay, "uv", ds1 + noise.order, [0, ds1], runs,
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
    return _model(speech, noise, smoother_delay, "vuv", noise_start + noise.order,
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
    if model.kind == "vuv":
        ds1 = model.smoother_delay + 1
        noise_start = model.observed[1]
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
    correction: the state becomes its prediction.
    """
    if len(state.x) != model.dim:
        raise ValueError("state dimension does not match model")

    x_pred = model.transition(state.x)
    cov_pred = model.predict_covariance(state.cov)

    i, j = model.observed
    cov_obs = cov_pred[:, i] + cov_pred[:, j]
    innov_var = float(cov_obs[i] + cov_obs[j])
    if innov_var <= INNOVATION_EPS:
        cov_post = cov_pred
    else:
        gain = cov_obs / innov_var
        innovation = z_n - (x_pred[i] + x_pred[j])
        x_pred += np.multiply.outer(gain, innovation)
        cov_pred -= np.outer(gain, cov_obs)
        cov_post = cov_pred + cov_pred.T
        cov_post *= 0.5

    n = state.samples_seen
    state.x = x_pred
    state.cov = cov_post
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
    energies.  The model is rebuilt at frame boundaries; state and
    covariance carry across.  Samples after the last full frame are
    smoothed with the last frame's model.  Output is delay-compensated by
    flushing the smoother with zero observations, so it aligns
    sample-for-sample with the input.  Input shorter than one frame has no
    parameters and is returned unchanged.

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
    out = np.zeros_like(x)
    write = 0
    state = None
    for fi in range(n_frames):
        stp, pitch = per_frame_params[fi]
        if model_kind == "uv":
            model = build_uv_model(stp.speech, stp.noise, smoother_delay)
        else:
            model = build_vuv_model(
                stp.speech, stp.noise, pitch or UNVOICED, smoother_delay, chain_len
            )
        if state is None:
            head = np.atleast_2d(x)[:, :frame_len]
            r0 = np.mean([float(np.dot(c, c)) / frame_len for c in head])
            state = initial_state(model, max(r0, 1e-12), x.shape[:-1])
        stop = (fi + 1) * frame_len if fi < n_frames - 1 else n_samples
        for n in range(fi * frame_len, stop):
            state, emitted = flks_step(state, model, x[..., n])
            if emitted is not None and write < n_samples:
                out[..., write] = emitted
                write += 1
    # Flush: zero observations until every input sample has been emitted.
    silence = np.zeros(x.shape[:-1])
    while write < n_samples:
        state, emitted = flks_step(state, model, silence)
        if emitted is not None:
            out[..., write] = emitted
            write += 1
    return out
