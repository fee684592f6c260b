"""Supervision vectors: vocabulary, multi-hot targets, vision probabilities.

The models never see text. Training pairs an utterance's features with a
W-dimensional target vector: either the oracle multi-hot built from the
transcription, or soft per-word probabilities in [0,1] as a vision tagger
would produce. A seeded synthetic channel turns oracle targets into such
soft targets by injecting misses, false alarms, and semantic confusions.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, open_text

# Beta means for the channel's emission paths: confidently present words,
# the absent-word floor, spurious detections, and semantic leakage.
MU_HI = 0.85
MU_LO = 0.03
MU_FA = 0.55
MU_LEAK = 0.65


class Vocabulary:
    """Ordered word list with positions; order is part of the identity."""

    def __init__(self, words):
        words = list(words)
        if len(set(words)) != len(words):
            raise DataError("vocabulary contains duplicate words")
        if any(w != w.lower() or not w for w in words):
            raise DataError("vocabulary words must be non-empty and lowercase")
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.words == other.words

    def serialize(self):
        return ("\n".join(self.words) + "\n").encode("utf-8")

    def fingerprint(self):
        """8-byte digest of the serialized word list; order-sensitive."""
        return hashlib.blake2b(self.serialize(), digest_size=8).digest()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path):
        with open_text(path) as fh:
            words = [line.strip() for line in fh if line.strip()]
        if not words:
            raise DataError(f"{path}: empty vocabulary file")
        return cls(words)


def build_vocabulary(transcriptions, stop_words=None, size=1000):
    """Top-`size` non-stop word types by corpus frequency.

    Ties break lexicographically. If fewer types exist, all are kept.
    """
    if size <= 0:
        raise ConfigError(f"vocabulary size must be positive, got {size}")
    stop_words = frozenset(stop_words or ())
    counts = Counter()
    for tokens in transcriptions:
        for token in tokens:
            token = token.lower()
            if token not in stop_words:
                counts[token] += 1
    if not counts:
        raise DataError("no vocabulary candidates: corpus empty or all stop words")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([w for w, _ in ranked[:size]])


def oracle_bow(tokens, vocab):
    """Multi-hot presence vector; multiplicity and order are discarded."""
    vec = np.zeros(len(vocab), dtype=np.float32)
    for token in tokens:
        i = vocab.index.get(token.lower())
        if i is not None:
            vec[i] = 1.0
    return vec


# -- vision-target files ----------------------------------------------------

def check_utt_id(utt_id, where):
    """Refuse an utterance id that is empty or holds `/`, `\\`, a tab, CR,
    LF or NUL: ids name files (`<id>.gkwf`) and lead tab-separated rows."""
    if not utt_id or any(c in utt_id for c in "/\\\t\r\n\0"):
        raise DataError(
            f"{where}: utterance id {utt_id!r} is empty or holds '/', '\\', "
            f"a tab, CR, LF or NUL"
        )


def format_prob(p):
    """Shortest decimal text that reads back as the same float32."""
    return np.format_float_positional(np.float32(p), unique=True)


def write_vision_targets(path, targets, vocab):
    """One line per utterance: `utt_id<TAB>word:prob word:prob ...`.

    Zero entries are omitted (absent words default to probability 0).
    Rows are written in sorted id order so identical inputs give identical
    bytes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id in sorted(targets):
            vec = targets[utt_id]
            pairs = [
                f"{vocab.words[i]}:{format_prob(vec[i])}"
                for i in range(len(vocab))
                if vec[i] != 0.0
            ]
            fh.write(utt_id + "\t" + " ".join(pairs) + "\n")


def load_vision_targets(path, vocab):
    """Parse a vision-target file into {utt_id: (W,) float32 vector}."""
    out = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            utt_id, tab, rest = line.partition("\t")
            if not tab:
                raise DataError(f"{path}:{lineno}: expected `utt_id<TAB>...`")
            check_utt_id(utt_id, f"{path}:{lineno}")
            if utt_id in out:
                raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
            vec = np.zeros(len(vocab), dtype=np.float32)
            for pair in rest.split():
                word, colon, prob_text = pair.rpartition(":")
                if not colon or not word:
                    raise DataError(f"{path}:{lineno}: malformed pair {pair!r}")
                i = vocab.index.get(word)
                if i is None:
                    raise DataError(
                        f"{path}:{lineno}: word {word!r} is not in the vocabulary"
                    )
                try:
                    prob = float(prob_text)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad probability {prob_text!r}"
                    ) from None
                if not 0.0 <= prob <= 1.0:
                    raise DataError(
                        f"{path}:{lineno}: probability {prob} outside [0, 1]"
                    )
                vec[i] = prob
            out[utt_id] = vec
    return out


# -- synthetic vision channel ------------------------------------------------

@dataclass(frozen=True)
class VisionChannelConfig:
    miss_rate: float = 0.1
    false_alarm_rate: float = 0.05
    confusion_map: dict = field(default_factory=dict)  # word -> [(word, leak prob)]
    concentration: float = 50.0  # Beta sharpness; inf collapses to hard 0/1
    seed: int = 0

    def validate(self, vocab=None):
        for name, p in (
            ("miss_rate", self.miss_rate),
            ("false_alarm_rate", self.false_alarm_rate),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if not self.concentration > 0:
            raise ConfigError(f"concentration must be > 0, got {self.concentration}")
        for word, edges in self.confusion_map.items():
            if vocab is not None and word not in vocab:
                raise ConfigError(f"confusion key {word!r} is not in the vocabulary")
            for neighbor, leak in edges:
                if not 0.0 <= leak <= 1.0:
                    raise ConfigError(
                        f"leak probability for {word}->{neighbor} must be in "
                        f"[0, 1], got {leak}"
                    )
                if vocab is not None and neighbor not in vocab:
                    raise ConfigError(
                        f"confusion target {neighbor!r} is not in the vocabulary"
                    )


def _emit(rng, mu, concentration):
    if np.isinf(concentration):
        # degenerate channel: each path emits its mean rounded to certainty
        return 1.0 if mu >= 0.5 else 0.0
    return float(rng.beta(concentration * mu, concentration * (1.0 - mu)))


def simulate_vision_channel(truth, config, vocab, rng=None):
    """Corrupt a multi-hot target into soft vision-tagger probabilities.

    Present words emit near MU_HI unless missed; absent words sit at the
    MU_LO floor unless a false alarm fires; confusion neighbors of present
    words leak at MU_LEAK with their configured probability. Overlapping
    emissions combine by max. With miss and false-alarm rates at zero, no
    confusions, and infinite concentration the channel is the identity.
    """
    config.validate(vocab)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    truth = np.asarray(truth)
    if truth.shape != (len(vocab),):
        raise DataError(f"target shape {truth.shape} != ({len(vocab)},)")
    present = truth > 0.5
    out = np.zeros(len(vocab), dtype=np.float32)
    for i in range(len(vocab)):
        if present[i]:
            mu = MU_LO if rng.random() < config.miss_rate else MU_HI
        else:
            mu = MU_FA if rng.random() < config.false_alarm_rate else MU_LO
        out[i] = _emit(rng, mu, config.concentration)
    for i in np.flatnonzero(present):
        for neighbor, leak in config.confusion_map.get(vocab.words[i], ()):
            if rng.random() < leak:
                j = vocab.index[neighbor]
                out[j] = max(out[j], _emit(rng, MU_LEAK, config.concentration))
    return np.clip(out, 0.0, 1.0)
