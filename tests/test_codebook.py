import numpy as np
import pytest

from binse import codebook
from binse.codebook import Codebook, CodebookFormatError
from binse.linpred import ArModel, ar_to_lsf, levinson_durbin
from binse.signal_core import autocorrelation, frame_rows

from conftest import ar_signal


class TestTrain:
    def test_single_process_single_centroid(self, rng):
        coeffs = [1.2, -0.8, 0.3, -0.1, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        x = ar_signal(coeffs, 1.0, 400 * 120, rng)
        cb = codebook.train(frame_rows(x, 400), size=1, order=14, seed=7)
        # Oracle: Levinson-Durbin on the pooled signal.
        r = autocorrelation(x, 14)
        pooled = ar_to_lsf(levinson_durbin(r)).frequencies
        assert np.linalg.norm(cb.entries[0] - pooled) < 0.01

    def test_two_separated_processes(self, rng):
        lo = ar_signal([1.6, -0.8], 1.0, 400 * 60, rng)   # low-frequency resonance
        hi = ar_signal([-1.6, -0.8], 1.0, 400 * 60, rng)  # high-frequency resonance
        frames = np.vstack((frame_rows(lo, 400), frame_rows(hi, 400)))
        cb = codebook.train(frames, size=2, order=2, seed=3)
        # Per-class LP oracle.
        targets = []
        for x in (lo, hi):
            r = autocorrelation(x, 2)
            targets.append(ar_to_lsf(levinson_durbin(r)).frequencies)
        for t in targets:
            assert min(np.linalg.norm(cb.entries[i] - t) for i in range(2)) < 0.05

    def test_too_few_frames(self, rng):
        x = ar_signal([0.5], 1.0, 200 * 3, rng)
        with pytest.raises(ValueError):
            codebook.train(frame_rows(x, 200), size=8, order=4, seed=1)

    def test_silence_excluded(self, rng):
        x = ar_signal([0.5], 1.0, 200 * 5, rng)
        silent = np.zeros((1, 200))
        with pytest.raises(ValueError):
            codebook.train(np.repeat(silent, 10, axis=0), size=1, order=4, seed=1)
        cb = codebook.train(np.vstack((frame_rows(x, 200), silent)), size=1, order=4, seed=1)
        assert cb.size == 1

    def test_deterministic(self, rng):
        x = ar_signal([1.2, -0.6], 1.0, 200 * 40, rng)
        frames = frame_rows(x, 200)
        a = codebook.train(frames, size=4, order=6, seed=11)
        b = codebook.train(frames, size=4, order=6, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_distortion_non_increasing(self, rng):
        x = ar_signal([1.2, -0.6, 0.1], 1.0, 200 * 50, rng)
        trace = []
        codebook.train(
            frame_rows(x, 200), size=4, order=6, seed=5,
            on_iteration=lambda it, d: trace.append(d),
        )
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 1e-12)

    def test_centroids_are_valid_lsf(self, rng):
        x = ar_signal([1.2, -0.6, 0.1], 1.0, 200 * 50, rng)
        cb = codebook.train(frame_rows(x, 200), size=8, order=10, seed=2)
        for m in cb.ar_models():
            assert m.is_stable()


class TestSaveLoad:
    def test_round_trip_identity(self, rng, tmp_path):
        entries = np.sort(rng.uniform(0.01, np.pi - 0.01, (64, 14)), axis=1)
        entries += np.arange(14) * 1e-6  # guarantee strict increase
        cb = Codebook(np.sort(entries, axis=1), "speech")
        path = tmp_path / "cb.bin"
        codebook.save(cb, path)
        back = codebook.load(path)
        np.testing.assert_array_equal(back.entries, cb.entries)
        assert back.kind == cb.kind
        codebook.save(back, tmp_path / "cb2.bin")
        assert (tmp_path / "cb.bin").read_bytes() == (tmp_path / "cb2.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(CodebookFormatError, match="offset 0"):
            codebook.load(path)

    def test_truncated_entries(self, tmp_path, rng):
        cb = Codebook(np.array([[0.5, 1.0, 1.5]]), "noise")
        path = tmp_path / "cut.bin"
        codebook.save(cb, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(CodebookFormatError, match="offset"):
            codebook.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.bin"
        path.write_bytes(b"CBK1\x01")
        with pytest.raises(CodebookFormatError):
            codebook.load(path)

    def test_kind_byte_round_trip(self, tmp_path):
        cb = Codebook(np.array([[0.3, 0.9]]), "noise")
        codebook.save(cb, tmp_path / "n.bin")
        assert codebook.load(tmp_path / "n.bin").kind == "noise"


def test_codebook_rejects_bad_entries():
    with pytest.raises(ValueError):
        Codebook(np.array([[1.0, 0.5]]), "speech")
    with pytest.raises(ValueError):
        Codebook(np.array([[0.5, 1.0]]), "granular")
