import numpy as np
import pytest

from binse import codebook
from binse.codebook import Codebook, CodebookFormatError
from binse.linpred import ar_to_lsf, levinson_durbin, valid_lsf_rows
from binse.signal_core import autocorrelation, frame_rows

from conftest import ar_signal, close_pole_model


class TestTrain:
    def test_single_process_single_centroid(self, rng):
        coeffs = [1.2, -0.8, 0.3, -0.1, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        x = ar_signal(coeffs, 1.0, 400 * 120, rng)
        cb = codebook.train(frame_rows(x, 400), size=1, order=14, seed=7)
        # Oracle: Levinson-Durbin on the pooled signal.
        r = autocorrelation(x, 14)
        [pooled] = ar_to_lsf(levinson_durbin(r[None])[0])
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
            targets.extend(ar_to_lsf(levinson_durbin(r[None])[0]))
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

    def test_ar_models_convert_in_one_call(self, rng, monkeypatch):
        # One lsf_to_ar call converts every entry; each model is the entry's
        # one-row conversion, bit for bit.
        x = ar_signal([1.2, -0.6, 0.1], 1.0, 200 * 50, rng)
        cb = codebook.train(frame_rows(x, 200), size=8, order=10, seed=2)
        calls = []
        convert = codebook.lsf_to_ar
        monkeypatch.setattr(codebook, "lsf_to_ar", lambda lsf: calls.append(lsf) or convert(lsf))
        models = cb.ar_models()
        assert len(calls) == 1
        monkeypatch.setattr(codebook, "lsf_to_ar", convert)
        for m, row in zip(models, cb.entries, strict=True):
            np.testing.assert_array_equal(m.coefficients, convert(row[None])[0])
            assert m.excitation_variance == 1.0


    @pytest.mark.parametrize(
        "frames, order, size, kind, name",
        [
            (np.ones(400), 4, 1, "speech", "training_frames"),
            (np.ones((10, 200)), 200, 1, "speech", "order"),
            (np.ones((10, 200)), 300, 1, "speech", "order"),
            (np.ones((10, 200)), 0, 1, "speech", "order"),
            (np.ones((10, 200)), -3, 1, "speech", "order"),
            (np.ones((10, 200)), 4, 0, "speech", "size"),
            (np.ones((10, 200)), 4, 1, "granular", "kind"),
        ],
        ids=["1d", "order_at_frame_len", "order_above_frame_len", "order_0", "order_negative",
             "size_0", "kind"],
    )
    def test_bad_argument_named(self, frames, order, size, kind, name):
        with pytest.raises(ValueError, match=name):
            codebook.train(frames, size=size, order=order, seed=0, kind=kind)


def _frame_to_lsf(frame, order, fit=levinson_durbin):
    """One frame's LSF row as ``train`` made it before it batched ``ar_to_lsf``.

    None for a frame that training skips.  Kept as the oracle of
    ``test_train_matches_per_frame_oracle``.
    """
    if np.dot(frame, frame) < codebook.SILENCE_ENERGY:
        return None
    r = autocorrelation(frame, order)
    if r[0] <= 0:
        return None
    coeffs, _, ok = fit(r[None])
    if not ok[0]:
        return None
    try:
        return ar_to_lsf(coeffs)[0]
    except (ValueError, ArithmeticError):
        return None


def test_train_matches_per_frame_oracle(rng, monkeypatch):
    order = 10
    speech = frame_rows(ar_signal([1.2, -0.6, 0.1], 1.0, 200 * 70, rng), 200)
    # The autocorrelation method fits stable models to real frames, so the
    # odd fits are injected: a constant frame of amplitude c has r(0) = c^2
    # exactly.  The fit below hands the row with r(0) = 16 to the recursion
    # as one whose reflection coefficient exceeds 1, and swaps in a failing
    # model for r(0) = 4 and a stable model with two LSFs about 1e-7 apart,
    # which converts, for r(0) = 9.
    injected = {
        4.0: np.r_[np.zeros(order - 1), 1.5],  # unstable
        9.0: close_pole_model(order).coefficients,
    }

    def fit(r):
        r = np.where(r[:, :1] == 16.0, np.r_[1.0, 1.1, np.zeros(order - 1)], r)  # |k| >= 1
        coeffs, variances, ok = levinson_durbin(r)
        for row, r0 in enumerate(r[:, 0].tolist()):
            coeffs[row] = injected.get(r0, coeffs[row])
        return coeffs, variances, ok

    odd = [np.zeros(200), np.full(200, 1e-6), np.full(200, 1e200)]  # silent, silent, overflow
    odd += [np.full(200, c) for c in (2.0, 3.0, 4.0)]
    frames = np.insert(speech, [0, 19, 30, 31, 44, 70], odd, axis=0)  # across block edges
    batches = []

    def spy(models, **kwargs):
        batches.append(ar_to_lsf(models, **kwargs))
        return batches[-1]

    monkeypatch.setattr(codebook, "levinson_durbin", fit)
    monkeypatch.setattr(codebook, "ar_to_lsf", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        cb = codebook.train(frames, size=4, order=order, seed=3)
        want = [v for v in (_frame_to_lsf(f, order, fit) for f in frames) if v is not None]
    assert len(batches) == 1 and len(want) == len(speech) + 1
    np.testing.assert_array_equal(batches[0], want)
    assert np.min(np.diff(batches[0][44], axis=-1)) < 2e-7  # the close-pole row
    clean = codebook.train(np.insert(speech, 44, 3.0, axis=0), size=4, order=order, seed=3)
    np.testing.assert_array_equal(cb.entries, clean.entries)


def _reference_lloyd(data, size, seed):
    """Lloyd iterations with a cell-by-cell centroid update, the oracle of ``train``'s."""
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=size, replace=False)].copy()
    trace, prev = [], np.inf
    for _ in range(codebook.LLOYD_MAX_ITERS):
        d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        per_vector = d2[np.arange(len(data)), assign]
        trace.append(float(per_vector.mean()))
        cell_distortion = np.bincount(assign, weights=per_vector, minlength=size)
        for cell in range(size):
            members = data[assign == cell]
            if len(members):
                centroids[cell] = members.mean(axis=0)
            else:
                worst = int(np.argmax(cell_distortion))
                centroids[cell] = centroids[worst] + 1e-4
                centroids[worst] = centroids[worst] - 1e-4
        if prev - trace[-1] < codebook.LLOYD_REL_TOL * max(trace[-1], 1e-30):
            break
        prev = trace[-1]
    centroids = codebook._sanitize_centroids(centroids)
    return centroids[np.lexsort(centroids.T[::-1])], trace


@pytest.mark.parametrize("seed", [0, 4, 5, 7])
def test_lloyd_matches_cell_by_cell_reference(seed, monkeypatch):
    # Five LSF vectors repeated ten times each, plus fifteen more: the drawn
    # centroids repeat, so cells empty and are refilled by splitting the
    # worst cell, which lies before the empty cell (seeds 5 and 7), after it
    # (0 and 5), or the step has no empty cell (4).
    rng = np.random.default_rng(seed)
    data = np.sort(rng.uniform(0.1, 3.0, (20, 6)), axis=1)
    data = np.concatenate((np.repeat(data[:5], 10, axis=0), data[5:]))
    monkeypatch.setattr(codebook, "ar_to_lsf", lambda coeffs, **kwargs: data)
    trace = []
    cb = codebook.train(rng.normal(size=(10, 40)), size=8, order=6, seed=seed,
                        on_iteration=lambda it, d: trace.append(d))
    want, want_trace = _reference_lloyd(data, 8, seed)
    np.testing.assert_array_equal(cb.entries, want)
    assert trace == want_trace


def test_sanitize_centroids_fixes_rows_in_order():
    # Clipped into (0, pi), then each entry not above its left neighbour is
    # set just above it; rows that need nothing are returned as they are.
    eps = 1e-9
    rows = np.array([[0.5, 1.0, 2.0, 3.0],
                     [0.5, 0.5, 0.5, 1.0],    # equal neighbours
                     [-0.1, 0.0, 1.0, 4.0],   # entries outside (0, pi)
                     [0.2, 1.5, 1.5 - 1e-12, 2.0]])
    out = codebook._sanitize_centroids(rows)
    np.testing.assert_array_equal(out[0], rows[0])
    np.testing.assert_array_equal(out[1], [0.5, 0.5 + eps, 0.5 + eps + eps, 1.0])
    np.testing.assert_array_equal(out[2], [eps, 2 * eps, 1.0, np.pi - eps])
    np.testing.assert_array_equal(out[3], [0.2, 1.5, 1.5 + eps, 2.0])
    np.testing.assert_array_equal(rows[1], [0.5, 0.5, 0.5, 1.0])  # the input is not touched


def test_sanitize_centroids_keeps_top_entries_below_pi():
    # Two top entries above pi: clipping both to pi - eps and stepping the
    # last one up would reach pi, so each entry is clipped below pi by as
    # many steps as entries follow it.
    eps = 1e-9
    out = codebook._sanitize_centroids(np.array([[1.0, 3.2, 3.3]]))
    np.testing.assert_array_equal(out[0], [1.0, np.pi - eps - eps, np.pi - eps])
    assert valid_lsf_rows(out).all()
    Codebook(out, "speech")


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
