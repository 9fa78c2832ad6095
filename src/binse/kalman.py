"""Concatenated state-space models and the fixed-lag Kalman smoother.

The unvoiced (UV) model stacks a speech companion chain of length d_s+1 on
top of a noise companion chain of length Q.  The voiced-unvoiced (V-UV)
model inserts an excitation chain between them, driven by white noise and a
single pitch-lag tap b(p); the excitation feeds the speech chain through a
coupling block.  The chain is as long as the longest pitch period of the
record being smoothed (one entry when no frame is voiced): entries past it
only ever shift out, so leaving them out marginalizes them exactly.  Sparse
transition matrices keep the per-sample covariance propagation cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .linpred import ArModel
from .pitch import PitchInfo, UNVOICED

DEFAULT_SMOOTHER_DELAY = 25
INNOVATION_EPS = 1e-30


@dataclass(frozen=True)
class StateSpaceModel:
    """Transition/input/observation structure for one frame's parameters."""

    transition: sp.csr_matrix
    noise_input: npt.NDArray[np.float64]  # (dim, 2) input map for (d, v)
    observation: npt.NDArray[np.float64]  # (dim,) selector row
    process_variances: tuple[float, float]  # (sigma_d^2, sigma_v^2)
    smoother_delay: int
    kind: str  # "uv" | "vuv"

    @property
    def dim(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def process_noise_support(self):
        """(rows, cols, values) of the nonzero entries of Q = G diag(sigma^2) G^T."""
        g = self.noise_input
        q = (g * np.array(self.process_variances)) @ g.T
        rows, cols = np.nonzero(q)
        return rows, cols, q[rows, cols]

    @cached_property
    def observation_support(self):
        """(indices, weights) of the nonzero entries of the observation row."""
        idx = np.flatnonzero(self.observation)
        return idx, self.observation[idx]


@dataclass
class SmootherState:
    """A posteriori state estimate and error covariance."""

    x: npt.NDArray[np.float64]
    cov: npt.NDArray[np.float64]
    samples_seen: int = 0


def _companion(top_row: npt.NDArray[np.float64], dim: int) -> npt.NDArray[np.float64]:
    mat = np.zeros((dim, dim))
    mat[0, : len(top_row)] = top_row
    if dim > 1:
        mat[1:, :-1] += np.eye(dim - 1)
    return mat


def build_uv_model(
    speech: ArModel,
    noise: ArModel,
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
) -> StateSpaceModel:
    """Assemble the UV concatenated state space (speech chain + noise chain)."""
    p, q = speech.order, noise.order
    if smoother_delay < p:
        raise ValueError("smoother delay must be >= speech AR order")
    ds1 = smoother_delay + 1
    dim = ds1 + q
    f = np.zeros((dim, dim))
    f[:ds1, :ds1] = _companion(speech.coefficients, ds1)
    f[ds1:, ds1:] = _companion(noise.coefficients, q)
    g = np.zeros((dim, 2))
    g[0, 0] = 1.0
    g[ds1, 1] = 1.0
    obs = np.zeros(dim)
    obs[0] = 1.0
    obs[ds1] = 1.0
    return StateSpaceModel(
        transition=sp.csr_matrix(f),
        noise_input=g,
        observation=obs,
        process_variances=(speech.excitation_variance, noise.excitation_variance),
        smoother_delay=smoother_delay,
        kind="uv",
    )


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
    """
    p, q = speech.order, noise.order
    if smoother_delay < p:
        raise ValueError("smoother delay must be >= speech AR order")
    if pitch.is_voiced and not (1 <= pitch.period_samples <= chain_len):
        raise ValueError(
            f"pitch period {pitch.period_samples} outside [1, {chain_len}]"
        )
    ds1 = smoother_delay + 1
    dim = ds1 + chain_len + q
    f = np.zeros((dim, dim))
    f[:ds1, :ds1] = _companion(speech.coefficients, ds1)
    f[0, ds1] = 1.0  # coupling: u(n) drives s(n)
    b_row = np.zeros(chain_len)
    if pitch.is_voiced:
        b_row[pitch.period_samples - 1] = pitch.voicing
    f[ds1 : ds1 + chain_len, ds1 : ds1 + chain_len] = _companion(b_row, chain_len)
    f[ds1 + chain_len :, ds1 + chain_len :] = _companion(noise.coefficients, q)
    g = np.zeros((dim, 2))
    g[ds1, 0] = 1.0  # d(n+1) enters the excitation chain
    g[ds1 + chain_len, 1] = 1.0  # v(n) enters the noise chain
    obs = np.zeros(dim)
    obs[0] = 1.0
    obs[ds1 + chain_len] = 1.0
    return StateSpaceModel(
        transition=sp.csr_matrix(f),
        noise_input=g,
        observation=obs,
        process_variances=(speech.excitation_variance, noise.excitation_variance),
        smoother_delay=smoother_delay,
        kind="vuv",
    )


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
        noise_start = int(np.flatnonzero(model.observation)[-1])
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
    f = model.transition
    obs_i, obs_w = model.observation_support
    if len(state.x) != model.dim:
        raise ValueError("state dimension does not match model")

    x_pred = f @ state.x
    cov_pred = (f @ (f @ state.cov).T).T
    q_rows, q_cols, q_vals = model.process_noise_support
    cov_pred[q_rows, q_cols] += q_vals

    cov_obs = cov_pred[:, obs_i] @ obs_w
    innov_var = float(cov_obs[obs_i] @ obs_w)
    if innov_var <= INNOVATION_EPS:
        cov_post = cov_pred
    else:
        gain = cov_obs / innov_var
        innovation = z_n - obs_w @ x_pred[obs_i]
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
