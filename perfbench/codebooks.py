"""Codebooks for the enhancement workloads, trained once per checkout and cached.

The codebooks come from ``binse train`` (``codebook.train``) on seeded
material of their own, so their cost never lands in a timed run.  The cache
key holds the training seed and a digest of ``src/binse`` and of the
generator, so editing either retrains them.  Run as a script, this file builds one cache
directory: ``python3 perfbench/codebooks.py <directory>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CODEBOOK_SEED = 1806

# name -> (kind, size, training stream, files, seconds per file)
CODEBOOKS = {
    "speech16": ("speech", 16, 10, 4, 2.0),
    "noise4": ("noise", 4, 11, 2, 1.5),
}


def cache_dir():
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src" / "binse").rglob("*.py")) + [HERE / "scenes.py", HERE / "codebooks.py"]
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return HERE / ".cache" / f"codebooks-{CODEBOOK_SEED}-{digest.hexdigest()[:16]}"


def ensure(env):
    """Return the cache directory, building it in a child process if missing."""
    target = cache_dir()
    if all((target / f"{name}.cbk").is_file() for name in CODEBOOKS):
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=target.parent, prefix=".build-"))
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(staging)],
            check=True, env=env, stdout=subprocess.DEVNULL, timeout=850,
        )
        try:
            os.replace(staging, target)
        except OSError:  # another run finished the same build first
            if not target.is_dir():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def build(out_dir):
    import scenes
    from binse import cli

    out_dir = Path(out_dir)
    for name, (kind, size, stream, files, seconds) in CODEBOOKS.items():
        make = scenes.training_speech if kind == "speech" else scenes.training_babble
        wavs = []
        for i, samples in enumerate(make(CODEBOOK_SEED, stream, files, seconds)):
            wavs.append(str(out_dir / f"{name}-{i}.wav"))
            scenes.write_wav(wavs[-1], samples)
        argv = ["train", *wavs, "--kind", kind, "--size", str(size), "--order", "14",
                "--seed", str(CODEBOOK_SEED), "-o", str(out_dir / f"{name}.cbk")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"training {name} exited with {code}")
        for wav in wavs:
            os.unlink(wav)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    build(sys.argv[1])
