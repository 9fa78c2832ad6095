"""binse benchmark: closed-loop CLI calls, timed end to end, with an optional traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload vuv-binaural-16x4 --seed 1 --seconds 30 --trace 0

One client calls ``binse.cli.main([...])`` in-process, each call on one
generated input, and starts the next call when the previous one returns.
Calls stop once the next one would end past ``--seconds``.  An untimed
warm-up call on a short input comes first, and is repeated after the timed
loop to check byte-level determinism.  The timed quantity is each call's
CPU time rescaled by a core-speed reference sampled during the call
(``speed.py``); raw CPU and wall times go to the report line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the loop traced instead and reports the per-layer metrics; the spans go
to ``perfbench/out/``.  It also runs the warm-up input once untraced and once
traced, which must give the same bytes, and reports the difference in RTF
between the two as the tracing overhead.

The last line of standard output is the result object; the line before it,
prefixed ``report``, holds every metric with its unit, the checks, and the
machine facts.  Exit code 2 means the benchmark could not run (no binse
source next to it, or a bad argument).
"""

from __future__ import annotations

import os

# One core, as the performance target states; set before numpy loads BLAS.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import codebooks  # noqa: E402
import scenes  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

SETUP_PROBE = """
import sys, time
from speed import SpeedSampler
with SpeedSampler() as sampler:
    c0 = time.process_time()
    import binse.cli
    from binse import codebook
    for path in sys.argv[1:]:
        codebook.load(path)
    cpu = time.process_time() - c0
print(sampler.normalized(cpu))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup(codebook_paths):
    """Median over fresh interpreters of the speed-normalized CPU time of
    ``import binse.cli`` plus loading the codebooks."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *map(str, codebook_paths)],
            check=True, capture_output=True, text=True, env=child_env(), timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


class Runner:
    """Executes calls and keeps each output's bytes for the checks."""

    def __init__(self, workload, out_dir: Path):
        from binse import cli

        self.main = cli.main
        self.workload = workload
        self.out_dir = out_dir
        self.errors = []

    def execute(self, call, tag, tracer=None):
        output = self.out_dir / f"{tag}-{call.key}.out"
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with SpeedSampler() as sampler, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.main(call.argv(output))
                else:
                    code = tracer.run_request(self.main, call.argv(output))
        except Exception as exc:  # a traceback out of cli.main is a failure, not a crash
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problem = None
        if code != 0:
            problem = f"{call.key}: exit {code}: {sink.getvalue().strip()[-200:]}"
        elif not output.is_file():
            problem = f"{call.key}: no output written"
        else:
            problem = self.workload.check(call, output)
        data = output.read_bytes() if problem is None else None
        if problem:
            self.errors.append(problem)
        output.unlink(missing_ok=True)
        return {"call": call, "wall": wall, "cpu": cpu, "norm": sampler.normalized(cpu),
                "slowdown": sampler.slowdown(), "code": code, "ok": problem is None, "data": data}

    def closed_loop(self, calls, seconds, tag, tracer=None):
        """Call after call, cycling through ``calls``, until the next would overrun."""
        results = []
        start = time.perf_counter()
        while True:
            call = calls[len(results) % len(calls)]
            results.append(self.execute(call, f"{tag}{len(results)}", tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(results) + 1) / len(results) > seconds:
                return results


def rtf(results, clock="norm"):
    """Median over successful calls of processing seconds per audio second.

    ``clock`` is "norm" (CPU time at the reference core speed), "cpu" or
    "wall".  The calls are single-threaded with BLAS pinned to one thread, so
    CPU time is their processing time.
    """
    ratios = [r[clock] / r["call"].audio_s for r in results if r["ok"]]
    return statistics.median(ratios) if ratios else None


def same_outputs(reference, results):
    """Keys whose output differs from the first output recorded for that key."""
    first = {}
    for r in reference + results:
        if r["data"] is None:
            continue
        seen = first.setdefault(r["call"].key, r["data"])
        if seen != r["data"]:
            yield r["call"].key


def quality(results):
    """Segmental-SNR gain and interaural errors over the distinct enhanced scenes."""
    from binse import metrics
    from binse.signal_core import AudioBuffer

    done = {}
    for r in results:
        if r["ok"] and r["call"].scene is not None:
            done.setdefault(r["call"].key, r)
    gains, itd, ild = [], [], []
    for r in done.values():
        scene = r["call"].scene
        clean = scenes.as_read(scene.clean)
        noisy = scenes.as_read(scene.noisy)
        enh = scenes.read_wav(io.BytesIO(r["data"]))
        buf = [[AudioBuffer(x[c], scenes.SAMPLE_RATE) for c in (0, 1)] for x in (clean, noisy, enh)]
        for c in (0, 1):
            gains.append(metrics.segmental_snr(buf[0][c], buf[2][c])
                         - metrics.segmental_snr(buf[0][c], buf[1][c]))
        report = metrics.interaural_errors(*buf[0], *buf[2])
        itd.append(report.itd_error)
        ild.append(report.ild_error)
    if not done:
        return {}
    return {
        "segsnr_gain_db": float(np.mean(gains)),
        "itd_error": float(np.mean(itd)),
        "ild_error_db": float(np.mean(ild)),
        "scenes_scored": len(done),
    }


def layer_metrics(tracer, traced, untraced_warm, traced_warm):
    out = {}
    for layer in LAYERS:
        calls = tracer.calls[layer]
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        per_call = 1e6 * tracer.total_s[layer] / calls if calls else 0.0
        out[f"{layer}.us_per_call"] = (per_call, "us")
    c = tracer.counts
    estimates = tracer.calls["stp.estimate_stp"]
    out["stp.entries_per_estimate"] = (c["stp.entries"] / estimates if estimates else 0.0, "count")
    out["stp.ar_to_lsf_calls_per_estimate"] = (
        c["linpred.ar_to_lsf<stp.estimate_stp"] / estimates if estimates else 0.0, "count")
    pairs = c["stp.pairs"]
    out["stp.negligible_pair_frac"] = (c["stp.negligible_pairs"] / pairs if pairs else 0.0, "ratio")
    seen = c["stp.with_diagnostics"]
    out["stp.underflow_fallback_frac"] = (c["stp.underflow_fallback"] / seen if seen else 0.0, "ratio")
    out["stp.noise_psd_to_ar.failed"] = (c["stp.noise_psd_to_ar.failed"], "count")
    pitches = tracer.calls["pitch.estimate_pitch"]
    out["pitch.voiced_frac"] = (c["pitch.voiced"] / pitches if pitches else 0.0, "ratio")
    root = tracer.total_s["cli.main"]
    out["trace.unattributed_frac"] = (tracer.self_s["cli.main"] / root if root else 0.0, "ratio")
    out["trace.rtf"] = (rtf(traced) or 0.0, "s/s")
    out["trace.overhead_rtf"] = ((rtf(traced_warm) or 0.0) - (rtf(untraced_warm) or 0.0), "s/s")
    return out


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    cb_dir = codebooks.ensure(child_env())
    setup_s = measure_setup(workload.codebooks(cb_dir))

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        work = Path(tmp)
        runner = Runner(workload, work)
        calls = workload.calls(work, args.seed, cb_dir)
        warm_call = workload.warmup_call(work, args.seed, cb_dir)
        warm = runner.execute(warm_call, "warm")
        untraced, traced, warm_traced, tracer, silent_code = [], [], [], None, None
        if args.trace:
            # The warm-up input once more untraced and once traced: the
            # overhead pair, and the traced-equals-untraced check.
            rewarm = runner.execute(warm_call, "rewarm")
            tracer = Tracer()
            restore = tracer.patch()
            try:
                traced = runner.closed_loop(calls, args.seconds, "traced", tracer)
                warm_traced = [runner.execute(warm_call, "warm-traced", tracer)]
            finally:
                restore()
            silent_code = runner.execute(workload.silent_lead_call(work, args.seed, cb_dir), "edge")["code"]
        else:
            untraced = runner.closed_loop(calls, args.seconds, "run")
            rewarm = runner.execute(warm_call, "rewarm")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        nondeterministic = sorted(set(same_outputs([warm, rewarm], untraced)))
        trace_mismatch = sorted(set(same_outputs([rewarm], traced + warm_traced)))
        attempted = len(untraced) + len(traced)
        failed = sum(not r["ok"] for r in untraced + traced + warm_traced)

        distortion = None
        scored = workload.speech_codebooks(cb_dir, untraced)
        if scored:
            held_out = workloads.held_out_lsfs(args.seed)
            distortion = statistics.mean(
                workloads.quantization_distortion(held_out, workloads.read_codebook(cb)[1])
                for cb in scored)
        scores = quality(untraced)

    checks = {
        "outputs_valid": failed == 0 and warm["ok"] and rewarm["ok"],
        "deterministic": not nondeterministic,
        "traced_matches_untraced": not trace_mismatch,
        "silent_lead_exit_clean": silent_code in (None, 0, 1, 2),
    }
    correct = all(checks.values())
    end_to_end = {
        "rtf": (rtf(untraced), "s/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "segsnr_gain_db": (scores.get("segsnr_gain_db"), "dB"),
        "itd_error": (scores.get("itd_error"), "ratio"),
        "ild_error_db": (scores.get("ild_error_db"), "dB"),
        "train_distortion": (distortion, "rad2"),
    }
    per_layer = {}
    if args.trace:
        per_layer = layer_metrics(tracer, traced, [rewarm], warm_traced)
        per_layer["edge.silent_lead_exit_code"] = (
            silent_code if isinstance(silent_code, int) else -1, "code")
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        value = source.get(m["name"], (None, m["unit"]))[0]
        if value is None or not np.isfinite(value):
            correct = False
            checks[f"missing:{m['name']}"] = False
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calls": {"warmup_s": warm["wall"], "untraced_wall_s": [r["wall"] for r in untraced],
                  "untraced_cpu_s": [r["cpu"] for r in untraced],
                  "untraced_slowdown": [r["slowdown"] for r in untraced],
                  "traced_wall_s": [r["wall"] for r in traced]},
        "rtf_cpu": rtf(untraced, "cpu"), "rtf_wall": rtf(untraced, "wall"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **per_layer}.items()},
        "quality_scenes": scores.get("scenes_scored", 0),
        "checks": checks, "errors": runner.errors[:5],
        "nondeterministic": nondeterministic, "trace_mismatch": trace_mismatch,
        "absent_layers": tracer.absent if tracer else [],
        "machine": machine_facts(),
    }
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "binse" / "__init__.py").is_file():
        print(f"error: no binse source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
