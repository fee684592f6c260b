"""Seeded synthetic grounded-speech corpora.

Real spoken-caption data is too large to train on in minutes, so these
corpora are built directly in feature space: every word type gets a fixed
random prototype segment, an utterance is its words' prototypes
concatenated plus frame noise, and the soft supervision comes from the
synthetic vision channel in targets.py. The corpus is easy by design; it
exists to exercise the pipeline, not to be hard.

Word frequencies follow a Zipf law over the whole lexicon with stop words
occupying the top ranks, so the unigram baseline is non-trivial and
vocabulary construction has something to filter.
"""

import itertools
import json
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, open_text
from .evaluation import save_semantic_map
from .features import FEATURE_DIM, read_features, write_features
from .targets import (
    VisionChannelConfig,
    build_vocabulary,
    check_utt_id,
    oracle_bow,
    simulate_vision_channel,
    write_vision_targets,
)

SPLITS = ("train", "dev", "test")

# spoken but excluded from the vocabulary; ranked most frequent, as in text
_STOP_FORMS = ("the", "a", "of", "to", "and", "in", "is", "it", "on", "for")

_LEAK_RATE = 0.6


def content_forms(count):
    """Deterministic pronounceable word forms for the content vocabulary.

    Two-syllable strings, so they can never collide with the short stop
    forms. Position in the returned list is the word's a-priori frequency
    rank among content words.
    """
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    forms = ["".join(p) for p in itertools.product(syllables, repeat=2)][5::13]
    if count > len(forms):
        raise ConfigError(f"at most {len(forms)} content words available, got {count}")
    return forms[:count]


def default_confusion_map(content_words):
    """Symmetric confusion pairs over the six rarest content words.

    These drive the semantic-spotting improvement: a model trained on the
    leaky channel fires on a word's confusion partner, which exact matching
    counts as a false alarm and semantic matching forgives. Rare words keep
    P@10 away from its ceiling, so the forgiveness is visible there.
    """
    tail = content_words[-6:]
    pairs = {}
    for a, b in zip(tail[0::2], tail[1::2]):
        pairs[a] = [(b, _LEAK_RATE)]
        pairs[b] = [(a, _LEAK_RATE)]
    return pairs


def default_channel(vocab_size):
    return VisionChannelConfig(
        confusion_map=default_confusion_map(content_forms(vocab_size))
    )


@dataclass(frozen=True)
class SynthConfig:
    vocab_size: int = 20
    stop_word_count: int = 5
    utterance_words: tuple = (3, 5)  # inclusive token-count range
    prototype_frames: tuple = (42, 52)  # inclusive per-word length range
    prototype_sigma: float = 1.0
    prototype_ripple: float = 0.25  # temporal variation inside a prototype
    frame_noise_sigma: float = 0.05
    train_size: int = 2000
    dev_size: int = 200
    test_size: int = 200
    zipf_exponent: float = 1.0
    seed: int = 17
    channel: VisionChannelConfig = None  # None -> default_channel(vocab_size)

    def __post_init__(self):
        if self.channel is None:
            object.__setattr__(self, "channel", default_channel(self.vocab_size))

    def validate(self):
        for name in ("vocab_size", "train_size", "dev_size", "test_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.stop_word_count < 0:
            raise ConfigError(f"stop_word_count must be >= 0, got {self.stop_word_count}")
        if self.stop_word_count > len(_STOP_FORMS):
            raise ConfigError(
                f"stop_word_count must be <= {len(_STOP_FORMS)}, "
                f"got {self.stop_word_count}"
            )
        for name in ("utterance_words", "prototype_frames"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"{name} must satisfy 1 <= lo <= hi, got {lo}..{hi}")
        for name in ("prototype_sigma", "prototype_ripple", "frame_noise_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.zipf_exponent < 0:
            raise ConfigError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        self.channel.validate()

    @property
    def total_size(self):
        return self.train_size + self.dev_size + self.test_size


def _corpus_path(value, where, key):
    """A manifest path must stay under the manifest's directory. Checked
    lexically: no absolute path and no climbing out through `..`."""
    norm = os.path.normpath(value) if isinstance(value, str) and value else None
    if norm is None or os.path.isabs(norm) or norm.split(os.sep)[0] == os.pardir:
        raise DataError(
            f"{where}: {key} must be a relative path inside the corpus directory, "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class UtteranceRecord:
    utt_id: str
    split: str
    features: str  # path relative to the manifest
    transcription: tuple
    vision_targets: str = None


class _FeatureFiles(Mapping):
    """Utterance id -> (T, D) features, read from the id's file at each
    lookup and not kept."""

    def __init__(self, paths):
        self._paths = paths  # id -> feature file

    def __getitem__(self, utt_id):
        return read_features(self._paths[utt_id])

    def __contains__(self, utt_id):  # Mapping's would read the file
        return utt_id in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self):
        return len(self._paths)


@dataclass
class CorpusManifest:
    records: list
    root: Path

    def ids(self, split=None):
        return [
            r.utt_id for r in self.records if split is None or r.split == split
        ]

    def transcriptions(self, split=None):
        return {
            r.utt_id: list(r.transcription)
            for r in self.records
            if split is None or r.split == split
        }

    def feature_files(self, ids=None):
        """The features of `ids` (default: every utterance), in manifest
        order, as a mapping that reads an utterance's file each time it is
        looked up and keeps nothing: a caller holds only the matrices it is
        using."""
        wanted = set(self.ids() if ids is None else ids)
        paths = {rec.utt_id: self.root / rec.features
                 for rec in self.records if rec.utt_id in wanted}
        missing = wanted - set(paths)
        if missing:
            raise DataError(f"manifest has no utterance {sorted(missing)[0]!r}")
        return _FeatureFiles(paths)

    def load_features(self, ids=None):
        """The features of `ids` (default: every utterance), read into a dict."""
        return dict(self.feature_files(ids))

    def target_paths(self):
        """Distinct vision-target files referenced by the manifest."""
        return sorted({r.vision_targets for r in self.records if r.vision_targets})

    def save(self, path):
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                obj = {
                    "id": rec.utt_id,
                    "split": rec.split,
                    "features": rec.features,
                    "transcription": list(rec.transcription),
                }
                if rec.vision_targets is not None:
                    obj["vision_targets"] = rec.vision_targets
                fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        self.root = path.parent

    @classmethod
    def load(cls, path):
        path = Path(path)
        records = []
        seen = set()
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as err:
                    raise DataError(f"{path}:{lineno}: bad JSON: {err}") from err
                if not isinstance(obj, dict):
                    raise DataError(f"{path}:{lineno}: expected a JSON object")
                for key in ("id", "split", "features", "transcription"):
                    if key not in obj:
                        raise DataError(f"{path}:{lineno}: missing field {key!r}")
                utt_id = obj["id"]
                if not isinstance(utt_id, str):
                    raise DataError(f"{path}:{lineno}: 'id' must be a string")
                check_utt_id(utt_id, f"{path}:{lineno}")
                if utt_id in seen:
                    raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
                seen.add(utt_id)
                if obj["split"] not in SPLITS:
                    raise DataError(f"{path}:{lineno}: unknown split {obj['split']!r}")
                tokens = obj["transcription"]
                if not isinstance(tokens, list) or not all(
                    isinstance(t, str) and t for t in tokens
                ):
                    raise DataError(
                        f"{path}:{lineno}: transcription must be a list of words"
                    )
                where = f"{path}:{lineno}"
                targets = obj.get("vision_targets")
                records.append(
                    UtteranceRecord(
                        utt_id=utt_id,
                        split=obj["split"],
                        features=_corpus_path(obj["features"], where, "features"),
                        transcription=tuple(tokens),
                        vision_targets=None if targets is None
                        else _corpus_path(targets, where, "vision_targets"),
                    )
                )
        return cls(records=records, root=path.parent)


def generate_corpus(config, out_dir):
    """Write a complete corpus under `out_dir` and return its manifest.

    Layout: manifest.jsonl, features/<id>.gkwf, vision_targets.tsv,
    vocabulary.txt, stop_words.txt, semantic_map.json. Every draw comes
    from a stream derived from config.seed (one child stream per
    utterance), so regeneration is byte-identical. Every utterance's words
    are drawn and the corpus is checked before anything is written, so a
    corpus that fails its checks leaves `out_dir` as it was.
    """
    config.validate()
    out = Path(out_dir)

    content = content_forms(config.vocab_size)
    stops = list(_STOP_FORMS[: config.stop_word_count])
    lexicon = stops + content  # global frequency rank order
    ranks = np.arange(1, len(lexicon) + 1, dtype=np.float64)
    probs = ranks ** -config.zipf_exponent
    probs /= probs.sum()

    proto_seq, utt_seq, channel_seq = np.random.SeedSequence(config.seed).spawn(3)
    proto_rng = np.random.default_rng(proto_seq)
    f_lo, f_hi = config.prototype_frames
    prototypes = {}
    for word in lexicon:
        # locally stationary, like a held spectral shape: a per-word base
        # vector plus small per-frame variation, so any window inside the
        # word carries the word's identity
        frames = int(proto_rng.integers(f_lo, f_hi + 1))
        base = proto_rng.normal(0.0, config.prototype_sigma, size=(1, FEATURE_DIM))
        ripple = proto_rng.normal(
            0.0, config.prototype_ripple * config.prototype_sigma,
            size=(frames, FEATURE_DIM),
        )
        prototypes[word] = (base + ripple).astype(np.float32)

    w_lo, w_hi = config.utterance_words
    children = iter(utt_seq.spawn(config.total_size))
    records = []
    transcriptions = {}
    streams = {}  # each utterance's stream, left at its frame noise
    for split, size in zip(SPLITS, (config.train_size, config.dev_size, config.test_size)):
        for i in range(size):
            rng = np.random.default_rng(next(children))
            utt_id = f"{split}-{i:04d}"
            n_words = int(rng.integers(w_lo, w_hi + 1))
            tokens = [lexicon[j] for j in rng.choice(len(lexicon), size=n_words, p=probs)]
            streams[utt_id] = rng
            transcriptions[utt_id] = tokens
            records.append(
                UtteranceRecord(
                    utt_id=utt_id,
                    split=split,
                    features=f"features/{utt_id}.gkwf",
                    transcription=tuple(tokens),
                    vision_targets="vision_targets.tsv",
                )
            )

    vocab = build_vocabulary(
        transcriptions.values(), stop_words=stops, size=config.vocab_size
    )
    if len(vocab) < config.vocab_size:
        raise DataError(
            f"corpus too small: only {len(vocab)} of {config.vocab_size} "
            f"content words were realized"
        )
    config.channel.validate(vocab)

    (out / "features").mkdir(parents=True, exist_ok=True)
    for utt_id, rng in streams.items():
        mat = np.concatenate([prototypes[w] for w in transcriptions[utt_id]], axis=0)
        if config.frame_noise_sigma > 0:
            mat = mat + rng.normal(0.0, config.frame_noise_sigma, size=mat.shape)
        write_features(out / "features" / f"{utt_id}.gkwf", mat.astype(np.float32))

    channel_rng = np.random.default_rng(channel_seq)
    targets = {}
    for utt_id in sorted(transcriptions):
        truth = oracle_bow(transcriptions[utt_id], vocab)
        targets[utt_id] = simulate_vision_channel(
            truth, config.channel, vocab, rng=channel_rng
        )
    write_vision_targets(out / "vision_targets.tsv", targets, vocab)

    vocab.save(out / "vocabulary.txt")
    with open(out / "stop_words.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(w + "\n" for w in stops))
    # every vocabulary word gets an entry so the map can drive semantic
    # evaluation over any keyword set; unconfused words map to themselves
    confusion = config.channel.confusion_map
    save_semantic_map(
        out / "semantic_map.json",
        {
            word: {word} | {n for n, _ in confusion.get(word, ())}
            for word in vocab.words
        },
    )

    manifest = CorpusManifest(records=records, root=out)
    manifest.save(out / "manifest.jsonl")
    return manifest


def corpus_stats(manifest):
    """Summary counts plus a Zipf fit over the realized type frequencies.

    Recounts every token from the manifest itself and opens every feature
    file, so it doubles as an integrity check.
    """
    if not manifest.records:
        raise DataError("manifest has no utterances")
    token_counts = Counter()
    words_hist = Counter()
    frames_hist = Counter()
    split_sizes = Counter()
    for rec in manifest.records:
        split_sizes[rec.split] += 1
        token_counts.update(rec.transcription)
        words_hist[len(rec.transcription)] += 1
        path = manifest.root / rec.features
        if not path.exists():
            raise DataError(f"missing feature file for utterance {rec.utt_id!r}")
        frames_hist[read_features(path).shape[0]] += 1

    ordered = sorted(token_counts.values(), reverse=True)
    if len(ordered) >= 2:
        slope = np.polyfit(np.log(np.arange(1, len(ordered) + 1)), np.log(ordered), 1)[0]
        zipf = float(-slope)
    else:
        zipf = None
    return {
        "utterances": len(manifest.records),
        "splits": {s: split_sizes[s] for s in SPLITS if s in split_sizes},
        "token_count": int(sum(token_counts.values())),
        "type_count": len(token_counts),
        "token_frequencies": dict(
            sorted(token_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        "words_per_utterance": {k: words_hist[k] for k in sorted(words_hist)},
        "frames_per_utterance": {k: frames_hist[k] for k in sorted(frames_hist)},
        "zipf_exponent": zipf,
    }
