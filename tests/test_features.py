"""MFCC pipeline: geometry, spectral placement, deltas, file format."""

import numpy as np
import pytest

from gkw import features
from gkw.errors import FormatError, InvalidInputError
from gkw.features import (
    FeatureConfig,
    delta,
    extract_mfcc,
    log_mel_spectrogram,
    mel_centers_hz,
    read_features,
    write_features,
)

from oracles import reader_leaks


def tone(freq, seconds, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def test_max_frames_constant():
    # one frame plus one per full hop in the remaining 8 s of samples
    cfg = FeatureConfig()
    assert cfg.max_frames == 1 + (8 * 16000 - 400) // 160 == 798


def test_output_width_is_39():
    feats = extract_mfcc(tone(300, 0.5))
    assert feats.shape[1] == 39
    assert feats.dtype == np.float32


def test_long_clip_truncated_to_max_frames():
    feats = extract_mfcc(tone(300, 10.0))
    assert feats.shape[0] == FeatureConfig().max_frames


def test_short_clip_frame_count():
    # 1 s at 16 kHz: 1 + (16000 - 400) // 160 = 98 frames
    feats = extract_mfcc(tone(300, 1.0))
    assert feats.shape[0] == 98


def test_too_short_clip_rejected():
    with pytest.raises(InvalidInputError):
        extract_mfcc(np.zeros(399))


def test_silence_gives_identical_frames_and_zero_deltas():
    feats = extract_mfcc(np.zeros(8000))
    assert np.all(feats == feats[0])
    assert np.all(feats[:, 13:] == 0.0)


def test_tone_peaks_at_nearest_mel_filter():
    # independent recomputation of filter centers, then the placement claim
    cfg = FeatureConfig()
    centers = 700.0 * (
        10.0
        ** (
            np.linspace(
                0.0,
                2595.0 * np.log10(1.0 + (cfg.sample_rate / 2.0) / 700.0),
                cfg.n_mels + 2,
            )[1:-1]
            / 2595.0
        )
        - 1.0
    )
    assert np.allclose(centers, mel_centers_hz(cfg.n_mels, cfg.sample_rate))
    for freq in (440.0, 800.0, 2000.0):
        nearest = int(np.argmin(np.abs(centers - freq)))
        log_mels, _ = log_mel_spectrogram(tone(freq, 0.5), cfg)
        assert int(np.argmax(log_mels.mean(axis=0))) == nearest


def test_gain_covariance():
    # doubling the waveform: C1-C12 unchanged, C0 shifts by a constant,
    # all delta columns unchanged
    rng = np.random.default_rng(5)
    clip = rng.normal(size=16000) * 0.1
    a = extract_mfcc(clip).astype(np.float64)
    b = extract_mfcc(2.0 * clip).astype(np.float64)
    assert np.abs(a[:, 1:13] - b[:, 1:13]).max() < 1e-4
    shift = b[:, 0] - a[:, 0]
    assert np.abs(shift - shift[0]).max() < 1e-4
    assert shift[0] > 0
    assert np.abs(a[:, 13:] - b[:, 13:]).max() < 1e-3


def test_determinism():
    clip = tone(523, 1.3)
    assert extract_mfcc(clip).tobytes() == extract_mfcc(clip).tobytes()


# -- delta ----------------------------------------------------------------

def test_delta_constant_is_zero():
    assert np.all(delta(np.full((6, 3), 2.5)) == 0.0)


def test_delta_ramp_interior_is_one():
    ramp = np.arange(10.0)[:, None]
    d = delta(ramp, window=2)
    assert np.allclose(d[2:-2], 1.0)


def test_delta_matches_direct_formula():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 3))
    got = delta(x, window=2)
    padded = np.vstack([x[0], x[0], x, x[-1], x[-1]])
    expect = np.zeros_like(x)
    for t in range(8):
        num = sum(n * (padded[t + 2 + n] - padded[t + 2 - n]) for n in (1, 2))
        expect[t] = num / (2 * (1 + 4))
    assert np.allclose(got, expect, atol=1e-12)


def test_delta_bad_window():
    with pytest.raises(InvalidInputError):
        delta(np.zeros((4, 2)), window=0)


# -- file format ----------------------------------------------------------

def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(17, 39)).astype(np.float32)
    path = tmp_path / "utt.feat"
    write_features(path, mat)
    assert np.array_equal(read_features(path), mat)
    write_features(path, mat)
    first = path.read_bytes()
    write_features(path, mat)
    assert path.read_bytes() == first


def test_empty_file_bad_magic(tmp_path):
    path = tmp_path / "empty.feat"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="magic"):
        read_features(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        read_features(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.feat"
    write_features(path, np.ones((10, 4), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-16])  # drop one row
    with pytest.raises(FormatError, match="truncated"):
        read_features(path)


def test_oversized_payload(tmp_path):
    path = tmp_path / "fat.feat"
    write_features(path, np.ones((10, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        read_features(path)


def test_unsupported_version(tmp_path):
    import struct

    path = tmp_path / "v9.feat"
    path.write_bytes(b"GKWF" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        read_features(path)


def test_header_claiming_more_than_the_file_holds(tmp_path):
    import struct

    # 96 bytes on disk, header claims (2^32 - 1) x 65535 floats (~1 PB)
    path = tmp_path / "huge.feat"
    path.write_bytes(b"GKWF" + struct.pack("<III", 1, 2**32 - 1, 65535) + b"\x00" * 80)
    assert path.stat().st_size == 96
    with pytest.raises(FormatError, match="truncated"):
        read_features(path)


def _read_finite(path):
    mat = read_features(path)
    if not np.isfinite(mat).all():
        raise AssertionError("read back non-finite feature values")
    return mat


def test_feature_file_fuzz_raises_only_data_errors(tmp_path):
    """600 truncated, bit-flipped and oversized-header copies of a feature
    file: each one reads back finite values or raises a DataError, never
    another error."""
    path = tmp_path / "utt.gkwf"
    write_features(path, np.random.default_rng(9).normal(size=(12, 39)))
    blob = path.read_bytes()
    leaks = reader_leaks(_read_finite, tmp_path / "damaged.gkwf", blob, 600, seed=10,
                         header_len=16, size_offsets=(8, 12))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


def test_non_finite_feature_values_are_format_errors(tmp_path):
    path = tmp_path / "nan.gkwf"
    mat = np.zeros((3, 2), dtype=np.float32)
    mat[1, 1] = np.nan
    write_features(path, mat)
    with pytest.raises(FormatError, match="finite"):
        read_features(path)
