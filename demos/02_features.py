"""MFCC features from raw audio, step by step.

Synthesizes a two-tone signal, walks it through framing, the mel
filterbank, cepstra and deltas, and shows that the loudest filter tracks
the tone frequency.
"""

import numpy as np

from gkw.features import (
    FeatureConfig,
    extract_mfcc,
    frame_signal,
    log_mel_spectrogram,
    mel_centers_hz,
)

config = FeatureConfig()
rate = config.sample_rate
t = np.arange(2 * rate) / rate
signal = np.where(t < 1.0,
                  np.sin(2 * np.pi * 440 * t),
                  0.5 * np.sin(2 * np.pi * 1760 * t))

frames = frame_signal(signal, config.win, config.hop)
print(f"{len(signal)} samples -> {frames.shape[0]} frames of {frames.shape[1]}")

log_mels, energy = log_mel_spectrogram(signal, config)
centers = mel_centers_hz(config.n_mels, rate)
for name, row in (("440 Hz", log_mels[20]), ("1760 Hz", log_mels[150])):
    loudest = int(np.argmax(row))
    print(f"{name}: loudest mel filter centered at {centers[loudest]:.0f} Hz")

feats = extract_mfcc(signal, config)
print(f"\nfeature matrix {feats.shape}: 13 cepstra + 13 deltas + 13 accelerations")
print("c0 (log energy) range:", round(float(feats[:, 0].min()), 2),
      "to", round(float(feats[:, 0].max()), 2))

# deltas light up at the tone switch and stay small where it is steady
steady = float(np.abs(feats[30:60, 13:26]).mean())
switching = float(np.abs(feats[93:103, 13:26]).mean())
print(f"mean |delta| steady {steady:.3f} vs at the switch {switching:.3f}")
print("truncation cap:", config.max_frames, "frames "
      f"({config.max_seconds:.0f} s of audio)")
