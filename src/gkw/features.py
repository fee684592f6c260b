"""MFCC feature extraction and the binary feature-file format.

Audio goes through the conventional chain: pre-emphasis, 25 ms Hamming
frames every 10 ms, magnitude spectrum, 26-filter mel bank, floored log,
DCT-II keeping 13 coefficients with C0 replaced by log frame energy, then
first and second order deltas for 39 dimensions total. Clips longer than
8 seconds are truncated at the frame level.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .errors import FormatError, InvalidInputError

FEATURE_DIM = 39
_MAGIC = b"GKWF"
_VERSION = 1


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    frame_length: float = 0.025   # seconds
    frame_step: float = 0.010     # seconds
    preemphasis: float = 0.97
    n_fft: int = 512
    n_mels: int = 26
    n_cepstra: int = 13
    delta_window: int = 2
    log_floor: float = 1e-10
    max_seconds: float = 8.0

    @property
    def win(self):
        """Frame length in samples."""
        return int(round(self.frame_length * self.sample_rate))

    @property
    def hop(self):
        """Frame step in samples."""
        return int(round(self.frame_step * self.sample_rate))

    @property
    def max_frames(self):
        # frame count of a clip exactly max_seconds long, no-padding framing
        return 1 + (int(self.max_seconds * self.sample_rate) - self.win) // self.hop


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels, n_fft, sample_rate):
    """Triangular filters with peaks at exact mel-spaced frequencies.

    Returns (n_mels, n_fft // 2 + 1). Each filter rises linearly in Hz from
    its left neighbor's center to its own and falls to the right neighbor's.
    """
    centers = _mel_points(n_mels, sample_rate)
    bins_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_mels, bins_hz.size))
    for m in range(1, n_mels + 1):
        left, center, right = centers[m - 1], centers[m], centers[m + 1]
        up = (bins_hz - left) / (center - left)
        down = (right - bins_hz) / (right - center)
        bank[m - 1] = np.maximum(0.0, np.minimum(up, down))
    return bank


def _mel_points(n_mels, sample_rate):
    """The n_mels + 2 mel-spaced frequencies in Hz from 0 to Nyquist: filter
    m rises from point m - 1, peaks at point m and falls to point m + 1."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))


def mel_centers_hz(n_mels, sample_rate):
    """Center frequency in Hz of each filter in mel_filterbank's bank."""
    return _mel_points(n_mels, sample_rate)[1:-1]


def frame_signal(samples, win, hop):
    """Slice into overlapping frames; tail samples that do not fill a whole
    frame are dropped (no padding)."""
    n = 1 + (len(samples) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n)[:, None]
    return samples[idx]


def log_mel_spectrogram(samples, config=FeatureConfig()):
    """Frames -> floored log mel energies, (T, n_mels). Also returns the
    per-frame log energy of the windowed signal."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise InvalidInputError(f"expected mono audio, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise InvalidInputError("audio holds non-finite (NaN or infinite) samples")
    win, hop = config.win, config.hop
    if len(samples) < win:
        raise InvalidInputError(
            f"clip of {len(samples)} samples is shorter than one "
            f"{win}-sample frame"
        )
    emphasized = np.concatenate(
        [samples[:1], samples[1:] - config.preemphasis * samples[:-1]]
    )
    frames = frame_signal(emphasized, win, hop) * np.hamming(win)
    energy = np.log(np.maximum((frames ** 2).sum(axis=1), config.log_floor))
    spectrum = np.abs(np.fft.rfft(frames, n=config.n_fft))
    bank = mel_filterbank(config.n_mels, config.n_fft, config.sample_rate)
    mel_energies = (spectrum ** 2) @ bank.T
    return np.log(np.maximum(mel_energies, config.log_floor)), energy


def delta(features, window=2):
    """Regression delta over +/-window frames with edge replication.

    delta_t = sum_n n * (x[t+n] - x[t-n]) / (2 * sum_n n^2)
    """
    if window < 1:
        raise InvalidInputError(f"delta window must be >= 1, got {window}")
    features = np.asarray(features, dtype=np.float64)
    padded = np.pad(features, ((window, window), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(features)
    T = len(features)
    for n in range(1, window + 1):
        out += n * (padded[window + n : window + n + T] - padded[window - n : window - n + T])
    return out / denom


def extract_mfcc(samples, config=FeatureConfig()):
    """Raw mono audio -> (T, 39) float32 feature matrix."""
    log_mels, energy = log_mel_spectrogram(samples, config)
    cepstra = dct(log_mels, type=2, axis=1, norm="ortho")[:, : config.n_cepstra]
    cepstra[:, 0] = energy
    d1 = delta(cepstra, config.delta_window)
    d2 = delta(d1, config.delta_window)
    feats = np.concatenate([cepstra, d1, d2], axis=1)
    return feats[: config.max_frames].astype(np.float32)


def load_wav(path):
    """Read a mono 16-bit or float wav; returns (samples in [-1, 1], rate)."""
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as err:  # not RIFF/RIFX/RF64, or cut short
        raise FormatError(f"{path}: not a readable WAV file: {err}") from None
    if data.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio, got shape {data.shape}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InvalidInputError(f"{path}: unsupported sample dtype {data.dtype}")
    return samples, rate


def write_features(path, matrix):
    """Binary feature file: magic, version, u32 rows, u32 cols, f32 LE data."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise FormatError(f"feature matrix must be 2-D, got shape {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, matrix.shape[0], matrix.shape[1]))
        fh.write(matrix)  # the array's own buffer, not a bytes copy of it


def read_features(path):
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic, not a feature file")
        version, rows, cols = struct.unpack("<III", head[4:])
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        nbytes = rows * cols * 4
        # a corrupt header must not make us allocate what the file cannot hold
        if nbytes > os.fstat(fh.fileno()).st_size - len(head):
            raise FormatError(
                f"{path}: truncated payload, header claims {rows}x{cols}"
            )
        # read straight into the returned array, with no bytes copy
        matrix = np.empty((rows, cols), dtype="<f4")
        if fh.readinto(matrix) != nbytes or fh.read(1):
            raise FormatError(
                f"{path}: truncated or oversized payload, header claims {rows}x{cols}"
            )
    if not np.isfinite(matrix).all():
        raise FormatError(f"{path}: non-finite feature values")
    return matrix
