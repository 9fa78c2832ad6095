"""Model-based binaural speech enhancement.

Codebook-driven Bayesian estimation of speech/noise AR parameters, a
harmonic-model pitch estimator for a frontal target seen by one or two
ears, and fixed-lag Kalman smoothing under unvoiced and voiced-unvoiced
excitation models.
"""

from .codebook import Codebook
from .linpred import ArModel
from .pipeline import RunConfig, process
from .pitch import PitchInfo
from .signal_core import AudioBuffer
from .stp import StpEstimate

__all__ = [
    "ArModel",
    "AudioBuffer",
    "Codebook",
    "PitchInfo",
    "RunConfig",
    "StpEstimate",
    "process",
]

__version__ = "0.1.0"
