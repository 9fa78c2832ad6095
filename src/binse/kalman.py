"""Concatenated state-space models and the fixed-lag Kalman smoother.

The unvoiced (UV) model stacks a speech companion chain of length d_s+1 on
top of a noise companion chain of length Q.  The voiced-unvoiced (V-UV)
model inserts an excitation chain of length p_max between them, driven by
white noise and a single pitch-lag tap b(p); the excitation feeds the
speech chain through a coupling block.  Sparse transition matrices keep
the per-sample covariance propagation cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .linpred import ArModel
from .pitch import PitchInfo, UNVOICED
from .signal_core import AudioBuffer

DEFAULT_SMOOTHER_DELAY = 25
INNOVATION_EPS = 1e-30


class SingularInnovationError(ArithmeticError):
    """Innovation variance collapsed; the covariance recursion degenerated."""


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

    def process_noise_cov(self) -> npt.NDArray[np.float64]:
        g = self.noise_input
        sd2, sv2 = self.process_variances
        return (g * np.array([sd2, sv2])) @ g.T


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
    p_max: int = 100,
) -> StateSpaceModel:
    """Assemble the V-UV state space with the pitch-lag excitation chain.

    The chain length stays at p_max regardless of the current pitch so the
    state survives pitch changes; unvoiced frames simply zero the tap.
    """
    p, q = speech.order, noise.order
    if smoother_delay < p:
        raise ValueError("smoother delay must be >= speech AR order")
    if pitch.is_voiced and not (1 <= pitch.period_samples <= p_max):
        raise ValueError(
            f"pitch period {pitch.period_samples} outside [1, {p_max}]"
        )
    ds1 = smoother_delay + 1
    dim = ds1 + p_max + q
    f = np.zeros((dim, dim))
    f[:ds1, :ds1] = _companion(speech.coefficients, ds1)
    f[0, ds1] = 1.0  # coupling: u(n) drives s(n)
    b_row = np.zeros(p_max)
    if pitch.is_voiced:
        b_row[pitch.period_samples - 1] = pitch.voicing
    f[ds1 : ds1 + p_max, ds1 : ds1 + p_max] = _companion(b_row, p_max)
    f[ds1 + p_max :, ds1 + p_max :] = _companion(noise.coefficients, q)
    g = np.zeros((dim, 2))
    g[ds1, 0] = 1.0  # d(n+1) enters the excitation chain
    g[ds1 + p_max, 1] = 1.0  # v(n) enters the noise chain
    obs = np.zeros(dim)
    obs[0] = 1.0
    obs[ds1 + p_max] = 1.0
    return StateSpaceModel(
        transition=sp.csr_matrix(f),
        noise_input=g,
        observation=obs,
        process_variances=(speech.excitation_variance, noise.excitation_variance),
        smoother_delay=smoother_delay,
        kind="vuv",
    )


def initial_state(model: StateSpaceModel, obs_variance: float) -> SmootherState:
    """Covariance = obs_variance * I, except the V-UV excitation chain which
    starts at the speech excitation variance so it matches the UV prior."""
    dim = model.dim
    cov = np.eye(dim) * obs_variance
    if model.kind == "vuv":
        ds1 = model.smoother_delay + 1
        noise_start = int(np.flatnonzero(model.observation)[-1])
        cov[ds1:noise_start, ds1:noise_start] = (
            np.eye(noise_start - ds1) * model.process_variances[0]
        )
    return SmootherState(x=np.zeros(dim), cov=cov, samples_seen=0)


def flks_step(state: SmootherState, model: StateSpaceModel, z_n: float):
    """One predict/gain/correct cycle; returns (state, enhanced sample or None).

    The emitted sample is the last speech entry of the a posteriori state,
    i.e. the smoothed estimate of s(n - d_s); nothing is emitted until the
    state is filled.
    """
    f = model.transition
    obs = model.observation
    if len(state.x) != model.dim:
        raise ValueError("state dimension does not match model")

    x_pred = f @ state.x
    cov_pred = (f @ (f @ state.cov).T).T + model.process_noise_cov()

    cov_obs = cov_pred @ obs
    innov_var = float(obs @ cov_obs)
    if innov_var <= INNOVATION_EPS:
        raise SingularInnovationError(
            f"innovation variance {innov_var:.3g} at sample {state.samples_seen}"
        )
    gain = cov_obs / innov_var
    innovation = z_n - float(obs @ x_pred)
    x_post = x_pred + gain * innovation
    cov_post = cov_pred - np.outer(gain, cov_obs)
    cov_post = 0.5 * (cov_post + cov_post.T)

    n = state.samples_seen
    state.x = x_post
    state.cov = cov_post
    state.samples_seen = n + 1

    delay = model.smoother_delay
    if n < delay:
        return state, None
    return state, float(x_post[delay])


def enhance_channel(
    z: AudioBuffer,
    per_frame_params,
    frame_len: int,
    model_kind: str = "uv",
    smoother_delay: int = DEFAULT_SMOOTHER_DELAY,
    p_max: int = 100,
    channel: str = "left",
) -> AudioBuffer:
    """Run the FLKS over one channel with per-frame (StpEstimate, PitchInfo).

    The model is rebuilt at frame boundaries; state and covariance carry
    across.  Samples after the last full frame are smoothed with the last
    frame's model.  Output is delay-compensated by flushing the smoother
    with zero observations, so it aligns sample-for-sample with the input.
    Input shorter than one frame has no parameters and is returned
    unchanged.
    """
    x = z.channel(channel)
    n_frames = len(x) // frame_len
    if len(per_frame_params) != n_frames:
        raise ValueError(
            f"expected {n_frames} parameter sets, got {len(per_frame_params)}"
        )
    if n_frames == 0:
        return AudioBuffer(x.copy(), z.sample_rate)
    out = np.zeros(len(x))
    write = 0
    state = None
    for fi in range(n_frames):
        stp, pitch = per_frame_params[fi]
        if model_kind == "uv":
            model = build_uv_model(stp.speech, stp.noise, smoother_delay)
        else:
            model = build_vuv_model(
                stp.speech, stp.noise, pitch or UNVOICED, smoother_delay, p_max
            )
        if state is None:
            r0 = float(np.dot(x[:frame_len], x[:frame_len])) / frame_len
            state = initial_state(model, max(r0, 1e-12))
        stop = (fi + 1) * frame_len if fi < n_frames - 1 else len(x)
        for n in range(fi * frame_len, stop):
            state, emitted = flks_step(state, model, x[n])
            if emitted is not None and write < len(out):
                out[write] = emitted
                write += 1
    # Flush: zero observations until every input sample has been emitted.
    while write < len(out):
        state, emitted = flks_step(state, model, 0.0)
        if emitted is not None:
            out[write] = emitted
            write += 1
    return AudioBuffer(out, z.sample_rate)
