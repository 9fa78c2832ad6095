"""In-memory tracing of binse's public functions, patched where each name is looked up.

binse modules import functions by name (``from .pitch import estimate_pitch``)
or call them through a module (``stp.estimate_stp``), so a wrapper only
records calls when it replaces the attribute the caller actually reads:
``binse.pipeline.estimate_pitch``, not ``binse.pitch.estimate_pitch``.
Each layer therefore lists its lookup sites.  A site that no longer exists
is skipped, and a layer with no site left is reported as absent.

A layer's self time is its inclusive time minus the time of the traced
calls nested inside it.  Spans (layer, start, end, parent, request) are kept
in memory and written out once at the end; the per-sample Kalman step is
only counted, because one span per sample would cost more than the step.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

NEGLIGIBLE_WEIGHT = 1e-6

# layer -> lookup sites "module:attribute[.attribute]"
LAYERS = {
    "cli.main": [],  # the root span, opened by the benchmark around each call
    "cli.read_wav": ["binse.cli:read_wav"],
    "cli.write_wav": ["binse.cli:write_wav"],
    "codebook.load": ["binse.codebook:load"],
    "codebook.train": ["binse.codebook:train"],
    "pipeline.process": ["binse.pipeline:process"],
    "stp.DualChannelNoiseTracker.update": ["binse.stp:DualChannelNoiseTracker.update"],
    "stp.noise_psd_to_ar": ["binse.stp:noise_psd_to_ar"],
    "stp.estimate_stp": ["binse.stp:estimate_stp"],
    "stp.ml_excitation_variances": ["binse.stp:ml_excitation_variances"],
    "linpred.ar_to_lsf": ["binse.stp:ar_to_lsf", "binse.codebook:ar_to_lsf"],
    "linpred.lsf_to_ar": ["binse.stp:lsf_to_ar", "binse.codebook:lsf_to_ar"],
    "pitch.prewhiten": ["binse.pipeline:prewhiten"],
    "pitch.estimate_pitch": ["binse.pipeline:estimate_pitch"],
    "kalman.enhance_channel": ["binse.kalman:enhance_channel"],
    "kalman.flks_step": ["binse.kalman:flks_step"],
}
COUNTED_ONLY = {"kalman.flks_step"}


@dataclass
class _Open:
    layer: str
    start: float
    span: int
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # (layer, start, end, parent span, request)
    calls: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)  # outcomes, and "layer<caller" calls
    absent: list = field(default_factory=list)
    request: int = -1
    _stack: list = field(default_factory=list)

    def _enter(self, layer):
        parent = -1
        if self._stack:
            parent = self._stack[-1].span
            self.counts[f"{layer}<{self._stack[-1].layer}"] += 1
        span = -1
        if layer not in COUNTED_ONLY:
            span = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent, self.request])
        opened = _Open(layer, time.perf_counter(), span)
        self._stack.append(opened)
        return opened

    def _exit(self, opened):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - opened.start
        self.calls[opened.layer] += 1
        self.total_s[opened.layer] += duration
        self.self_s[opened.layer] += duration - opened.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if opened.span >= 0:
            self.spans[opened.span][1:3] = [opened.start, end]

    def run_request(self, fn, *args):
        """Call ``fn`` as one request under a root ``cli.main`` span."""
        self.request += 1
        opened = self._enter("cli.main")
        try:
            return fn(*args)
        finally:
            self._exit(opened)

    def wrap(self, layer, fn):
        observe = _OBSERVERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[layer + ".failed"] += 1
                raise
            finally:
                self._exit(opened)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self):
        """Install wrappers at every lookup site; returns a function undoing it."""
        undo = []
        for layer, sites in LAYERS.items():
            found = 0
            for site in sites:
                target = _resolve(site)
                if target is None:
                    continue
                owner, attr = target
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(layer, original))
                undo.append((owner, attr, original))
                found += 1
            if sites and not found:
                self.absent.append(layer)

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start_s", "end_s", "parent", "request"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "absent": self.absent,
                },
                fh,
            )


def _resolve(site):
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in getattr(owner, "__dict__", {}) or not callable(owner.__dict__[attr]):
        return None
    return owner, attr


def _observe_stp(counts, args, kwargs, result):
    diag = kwargs.get("diagnostics")
    n_noise = len(args[3]) if len(args) > 3 else len(kwargs.get("noise_entries", ()))
    n_speech = len(args[2]) if len(args) > 2 else len(kwargs.get("speech_entries", ()))
    counts["stp.entries"] += n_speech + n_noise
    if diag is None:
        return
    counts["stp.with_diagnostics"] += 1
    counts["stp.underflow_fallback"] += bool(getattr(diag, "underflow_fallback", False))
    weights = getattr(diag, "weights", None)
    if weights is not None:
        counts["stp.pairs"] += weights.size
        counts["stp.negligible_pairs"] += int((weights < NEGLIGIBLE_WEIGHT).sum())


def _observe_pitch(counts, args, kwargs, result):
    counts["pitch.voiced"] += bool(getattr(result, "is_voiced", False))


_OBSERVERS = {"stp.estimate_stp": _observe_stp, "pitch.estimate_pitch": _observe_pitch}
