"""Synthetic corpus generation."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gkw import synth
from gkw.errors import ConfigError, DataError
from gkw.synth import (
    CorpusManifest,
    SynthConfig,
    UtteranceRecord,
    content_forms,
    corpus_stats,
    default_channel,
    generate_corpus,
)
from gkw.features import read_features
from gkw.targets import VisionChannelConfig, Vocabulary, load_vision_targets

from oracles import reader_leaks


def toy_config(**overrides):
    base = dict(
        vocab_size=8,
        stop_word_count=2,
        utterance_words=(4, 6),
        prototype_frames=(10, 14),
        train_size=30,
        dev_size=5,
        test_size=5,
        channel=VisionChannelConfig(confusion_map={}),
        seed=3,
    )
    base.update(overrides)
    return SynthConfig(**base)


def tree_hash(root):
    h = hashlib.blake2b()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_content_forms_distinct_and_stable():
    forms = content_forms(30)
    assert len(set(forms)) == 30
    assert forms == content_forms(30)
    assert all(len(w) == 4 for w in forms)
    with pytest.raises(ConfigError):
        content_forms(10_000)


def test_config_validation():
    with pytest.raises(ConfigError, match="train_size"):
        toy_config(train_size=0).validate()
    with pytest.raises(ConfigError, match="prototype_frames"):
        toy_config(prototype_frames=(9, 4)).validate()
    with pytest.raises(ConfigError, match="frame_noise_sigma"):
        toy_config(frame_noise_sigma=-0.1).validate()
    with pytest.raises(ConfigError, match="zipf_exponent"):
        toy_config(zipf_exponent=-1.0).validate()
    with pytest.raises(ConfigError, match="stop_word_count"):
        toy_config(stop_word_count=99).validate()


def test_generate_layout_and_sizes(tmp_path):
    cfg = toy_config()
    manifest = generate_corpus(cfg, tmp_path)
    assert len(manifest.records) == 40
    assert manifest.ids("train") == [f"train-{i:04d}" for i in range(30)]
    assert len(manifest.ids("dev")) == 5 and len(manifest.ids("test")) == 5
    for name in (
        "manifest.jsonl",
        "vision_targets.tsv",
        "vocabulary.txt",
        "stop_words.txt",
        "semantic_map.json",
    ):
        assert (tmp_path / name).exists()
    vocab = Vocabulary.load(tmp_path / "vocabulary.txt")
    assert len(vocab) == cfg.vocab_size
    targets = load_vision_targets(tmp_path / "vision_targets.tsv", vocab)
    assert set(targets) == set(manifest.ids())
    stops = (tmp_path / "stop_words.txt").read_text().split()
    assert len(stops) == cfg.stop_word_count
    assert not set(stops) & set(vocab.words)


def test_same_seed_byte_identical(tmp_path):
    cfg = toy_config(channel=default_channel(10), vocab_size=10)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(cfg, tmp_path / "b")
    assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    generate_corpus(toy_config(seed=3), tmp_path / "a")
    generate_corpus(toy_config(seed=4), tmp_path / "b")
    assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")


def test_feature_rows_sum_prototype_lengths(tmp_path):
    # word prototypes have fixed lengths, so every utterance's frame count
    # is the exact sum over its tokens
    cfg = toy_config()
    manifest = generate_corpus(cfg, tmp_path)
    lengths = {}
    for rec in manifest.records:
        rows = read_features(tmp_path / rec.features).shape[0]
        per_token = Counter(rec.transcription)
        lengths[rec.utt_id] = (rows, per_token)
    proto_len = {}
    for rec in manifest.records:
        rows, per_token = lengths[rec.utt_id]
        if len(per_token) == 1:
            (word, n), = per_token.items()
            if rows % n == 0:
                proto_len[word] = rows // n
    solved = False
    for rec in manifest.records:
        rows, per_token = lengths[rec.utt_id]
        if all(w in proto_len for w in per_token):
            assert rows == sum(proto_len[w] * n for w, n in per_token.items())
            solved = True
    # at minimum the row count must be consistent with the length range
    lo, hi = cfg.prototype_frames
    for rec in manifest.records:
        rows, per_token = lengths[rec.utt_id]
        n = sum(per_token.values())
        assert lo * n <= rows <= hi * n
    assert solved or len(proto_len) == 0


def test_zero_noise_identical_transcriptions(tmp_path):
    cfg = toy_config(frame_noise_sigma=0.0, vocab_size=2, stop_word_count=0,
                     utterance_words=(2, 2), train_size=40)
    manifest = generate_corpus(cfg, tmp_path)
    by_words = {}
    for rec in manifest.records:
        by_words.setdefault(tuple(rec.transcription), []).append(rec.utt_id)
    feats = manifest.load_features()
    repeated = [ids for ids in by_words.values() if len(ids) > 1]
    assert repeated, "toy corpus should repeat some two-word transcription"
    for ids in repeated:
        first = feats[ids[0]]
        for other in ids[1:]:
            assert np.array_equal(first, feats[other])


def test_manifest_roundtrip(tmp_path):
    manifest = generate_corpus(toy_config(), tmp_path)
    loaded = CorpusManifest.load(tmp_path / "manifest.jsonl")
    assert loaded.records == manifest.records
    assert loaded.target_paths() == ["vision_targets.tsv"]
    feats = loaded.load_features(["dev-0000"])
    assert feats["dev-0000"].dtype == np.float32
    with pytest.raises(DataError, match="nope"):
        loaded.load_features(["nope"])


def test_feature_files_read_at_each_lookup_and_keep_nothing(tmp_path, monkeypatch):
    manifest = generate_corpus(toy_config(), tmp_path)
    ids = manifest.ids("dev")
    files = manifest.feature_files(ids)
    assert list(files) == ids and len(files) == len(ids)
    reads = []
    monkeypatch.setattr(synth, "read_features", lambda path: reads.append(path) or path)
    assert "dev-0000" in files and "train-0000" not in files and not reads
    assert files["dev-0000"] == files["dev-0000"] == tmp_path / "features" / "dev-0000.gkwf"
    assert len(reads) == 2  # read again at the second lookup: nothing kept
    monkeypatch.undo()
    loaded = manifest.load_features(ids)
    assert all(np.array_equal(files[u], loaded[u]) for u in ids)
    with pytest.raises(DataError, match="nope"):
        manifest.feature_files(["nope"])


def test_manifest_load_errors(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(DataError, match="JSON"):
        CorpusManifest.load(path)
    path.write_text('{"id":"u0","split":"train","features":"f.gkwf"}\n')
    with pytest.raises(DataError, match="transcription"):
        CorpusManifest.load(path)
    line = '{"id":"u0","split":"train","features":"f.gkwf","transcription":["a"]}\n'
    path.write_text(line + line)
    with pytest.raises(DataError, match="duplicate"):
        CorpusManifest.load(path)
    path.write_text(line.replace("train", "validation"))
    with pytest.raises(DataError, match="split"):
        CorpusManifest.load(path)


@pytest.mark.parametrize("key, value", [
    ("id", 5),
    ("id", ""),
    ("features", 5),
    ("features", ""),
    ("vision_targets", ["t.tsv"]),
    ("features", "../other/x.gkwf"),
    ("features", "features/../../x.gkwf"),
    ("features", "/tmp/x.gkwf"),
    ("vision_targets", "../t.tsv"),
    ("id", "../u0"),
    ("id", "u\t0"),
])
def test_manifest_rejects_bad_ids_and_paths(tmp_path, key, value):
    obj = {"id": "u0", "split": "train", "features": "f.gkwf", "transcription": ["a"]}
    obj[key] = value
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataError, match=key):
        CorpusManifest.load(path)


def test_manifest_accepts_paths_that_stay_inside(tmp_path):
    obj = {"id": "u0", "split": "train", "features": "sub/../features/./f.gkwf",
           "transcription": ["a"], "vision_targets": "t.tsv"}
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    record = CorpusManifest.load(path).records[0]
    assert record.features == "sub/../features/./f.gkwf"
    assert record.vision_targets == "t.tsv"


def test_manifest_fuzz_raises_only_data_errors(tmp_path):
    path = tmp_path / "manifest.jsonl"
    CorpusManifest(records=[
        UtteranceRecord("u0", "train", "features/u0.gkwf", ("the", "café"), "vision.tsv"),
        UtteranceRecord("u1", "test", "features/u1.gkwf", ("über", "dog")),
    ], root=tmp_path).save(path)
    blob = path.read_bytes()
    leaks = reader_leaks(CorpusManifest.load, tmp_path / "damaged.jsonl", blob, 600, seed=12,
                         header_len=blob.index(b"\n") + 1,
                         size_offsets=(0, len(blob) // 2, len(blob) - 4))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


def test_default_channel_follows_vocab_size():
    assert SynthConfig().channel == default_channel(20)
    assert SynthConfig(vocab_size=10).channel == default_channel(10)


def test_semantic_map_mirrors_confusion(tmp_path):
    cfg = toy_config(channel=default_channel(10), vocab_size=10)
    generate_corpus(cfg, tmp_path)
    saved = json.loads((tmp_path / "semantic_map.json").read_text())
    for word, edges in cfg.channel.confusion_map.items():
        assert set(saved[word]) >= {n for n, _ in edges}


def test_stats_match_independent_count(tmp_path):
    manifest = generate_corpus(toy_config(), tmp_path)
    stats = corpus_stats(manifest)
    recount = Counter()
    for rec in manifest.records:
        recount.update(rec.transcription)
    assert stats["token_frequencies"] == dict(recount)
    assert stats["token_count"] == sum(recount.values())
    assert stats["utterances"] == 40
    assert stats["splits"] == {"train": 30, "dev": 5, "test": 5}
    assert sum(stats["words_per_utterance"].values()) == 40


def test_stats_toy_hand_count(tmp_path):
    manifest = generate_corpus(toy_config(), tmp_path)
    manifest.records = manifest.records[:3]
    stats = corpus_stats(manifest)
    by_hand = Counter()
    for rec in manifest.records:
        for token in rec.transcription:
            by_hand[token] += 1
    assert stats["token_frequencies"] == dict(by_hand)


def test_stats_missing_feature_file(tmp_path):
    manifest = generate_corpus(toy_config(), tmp_path)
    victim = manifest.records[7]
    (tmp_path / victim.features).unlink()
    with pytest.raises(DataError, match=victim.utt_id):
        corpus_stats(manifest)


def test_stats_empty_manifest():
    with pytest.raises(DataError, match="no utterances"):
        corpus_stats(CorpusManifest(records=[], root=Path(".")))


def test_default_scale_zipf_fit(tmp_path):
    manifest = generate_corpus(SynthConfig(), tmp_path)
    stats = corpus_stats(manifest)
    assert stats["utterances"] == 2400
    assert stats["type_count"] == 25
    assert abs(stats["zipf_exponent"] - 1.0) <= 0.2
