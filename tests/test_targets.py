"""Vocabulary, multi-hot targets, vision-target files, synthetic channel."""

import numpy as np
import pytest

from gkw.errors import ConfigError, DataError
from gkw.targets import (
    MU_HI,
    MU_LO,
    VisionChannelConfig,
    Vocabulary,
    build_vocabulary,
    load_vision_targets,
    oracle_bow,
    simulate_vision_channel,
    write_vision_targets,
)

from oracles import reader_leaks


def test_build_vocabulary_tie_break():
    corpus = ["a dog runs".split(), "a dog sleeps".split()]
    vocab = build_vocabulary(corpus, stop_words={"a"}, size=2)
    assert vocab.words == ["dog", "runs"]


def test_build_vocabulary_underflow():
    corpus = ["red green blue".split()]
    vocab = build_vocabulary(corpus, size=1000)
    assert len(vocab) == 3


def test_build_vocabulary_lowercases():
    vocab = build_vocabulary([["Dog", "DOG", "cat"]], size=5)
    assert vocab.words == ["dog", "cat"]


def test_build_vocabulary_bad_size():
    with pytest.raises(ConfigError):
        build_vocabulary([["a"]], size=0)


def test_build_vocabulary_empty_corpus():
    with pytest.raises(DataError):
        build_vocabulary([], size=5)
    with pytest.raises(DataError):
        build_vocabulary([["the", "a"]], stop_words={"the", "a"}, size=5)


def test_vocabulary_order_matches_count_pass():
    rng = np.random.default_rng(8)
    lexicon = [f"w{i}" for i in range(30)]
    corpus = [
        [lexicon[int(rng.integers(0, 30))] for _ in range(10)] for _ in range(200)
    ]
    vocab = build_vocabulary(corpus, size=30)
    counts = {}
    for utt in corpus:
        for tok in utt:
            counts[tok] = counts.get(tok, 0) + 1
    expect = sorted(counts, key=lambda w: (-counts[w], w))
    assert vocab.words == expect


def test_vocabulary_rebuild_is_identical():
    corpus = ["green red red blue blue blue".split()]
    assert build_vocabulary(corpus, size=3) == build_vocabulary(corpus, size=3)


def test_vocabulary_rejects_duplicates_and_case():
    with pytest.raises(DataError):
        Vocabulary(["dog", "dog"])
    with pytest.raises(DataError):
        Vocabulary(["Dog"])


def test_vocabulary_file_roundtrip(tmp_path):
    vocab = Vocabulary(["dog", "cat", "zebra"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab
    assert Vocabulary.load(path).fingerprint() == vocab.fingerprint()


def test_fingerprint_is_order_sensitive():
    a = Vocabulary(["dog", "cat"])
    b = Vocabulary(["cat", "dog"])
    assert a.fingerprint() != b.fingerprint()
    assert len(a.fingerprint()) == 8


def test_empty_vocabulary_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("")
    with pytest.raises(DataError):
        Vocabulary.load(path)


def test_vocabulary_file_fuzz_raises_only_data_errors(tmp_path):
    path = tmp_path / "vocabulary.txt"
    Vocabulary(["dog", "café", "über", "cat"]).save(path)
    blob = path.read_bytes()
    leaks = reader_leaks(Vocabulary.load, tmp_path / "damaged.txt", blob, 600, seed=10,
                         header_len=len(blob), size_offsets=(0, len(blob) // 2, len(blob) - 4))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


# -- oracle_bow -------------------------------------------------------------

def test_oracle_bow_discards_multiplicity():
    vocab = Vocabulary(["dog", "runs", "cat"])
    assert np.array_equal(oracle_bow("dog dog runs".split(), vocab), [1, 1, 0])


def test_oracle_bow_all_oov():
    vocab = Vocabulary(["dog"])
    assert np.array_equal(oracle_bow("cat sat here".split(), vocab), [0])


def test_oracle_bow_matches_set_membership():
    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(12)]
    vocab = Vocabulary(words[:8])
    for _ in range(50):
        utt = [words[int(rng.integers(0, 12))] for _ in range(int(rng.integers(1, 9)))]
        got = oracle_bow(utt, vocab)
        types = set(utt)
        expect = [1.0 if w in types else 0.0 for w in vocab.words]
        assert np.array_equal(got, expect)
        assert set(np.unique(got)) <= {0.0, 1.0}


# -- vision-target files ------------------------------------------------------

def test_vision_targets_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    targets = {
        f"utt{k}": rng.uniform(size=6).astype(np.float32) for k in range(5)
    }
    targets["utt5"] = np.zeros(6, dtype=np.float32)
    path = tmp_path / "targets.tsv"
    write_vision_targets(path, targets, vocab)
    loaded = load_vision_targets(path, vocab)
    assert set(loaded) == set(targets)
    for utt_id in targets:
        assert np.abs(loaded[utt_id] - targets[utt_id]).max() < 1e-6


def test_vision_targets_binary_file_equals_oracle(tmp_path):
    vocab = Vocabulary(["dog", "runs", "cat"])
    path = tmp_path / "targets.tsv"
    path.write_text("u1\tdog:1 runs:1\nu2\tcat:1\nu3\t\n")
    loaded = load_vision_targets(path, vocab)
    assert np.array_equal(loaded["u1"], oracle_bow("dog runs".split(), vocab))
    assert np.array_equal(loaded["u2"], oracle_bow("cat".split(), vocab))
    assert np.array_equal(loaded["u3"], np.zeros(3))


def test_vision_targets_out_of_range_names_line(tmp_path):
    vocab = Vocabulary(["dog"])
    path = tmp_path / "targets.tsv"
    path.write_text("".join(f"u{k}\tdog:0.5\n" for k in range(6)) + "u7\tdog:1.3\n")
    with pytest.raises(DataError, match=":7:"):
        load_vision_targets(path, vocab)


def test_vision_targets_unknown_word(tmp_path):
    vocab = Vocabulary(["dog"])
    path = tmp_path / "targets.tsv"
    path.write_text("u1\tzebra:0.4\n")
    with pytest.raises(DataError, match="zebra"):
        load_vision_targets(path, vocab)


def test_vision_targets_malformed(tmp_path):
    vocab = Vocabulary(["dog"])
    path = tmp_path / "targets.tsv"
    path.write_text("u1 dog:0.4\n")
    with pytest.raises(DataError):
        load_vision_targets(path, vocab)
    path.write_text("u1\tdog=0.4\n")
    with pytest.raises(DataError):
        load_vision_targets(path, vocab)
    path.write_text("u1\tdog:abc\n")
    with pytest.raises(DataError, match="abc"):
        load_vision_targets(path, vocab)


def test_vision_targets_duplicate_id(tmp_path):
    vocab = Vocabulary(["dog"])
    path = tmp_path / "targets.tsv"
    path.write_text("u1\tdog:0.4\nu1\tdog:0.5\n")
    with pytest.raises(DataError, match="duplicate"):
        load_vision_targets(path, vocab)


def test_vision_targets_fuzz_raises_only_data_errors(tmp_path):
    vocab = Vocabulary(["dog", "café", "über", "cat"])
    path = tmp_path / "targets.tsv"
    write_vision_targets(path, {
        "utt0": np.array([0.5, 0.0, 0.875, 1.0], dtype=np.float32),
        "utt1": np.array([0.0, 0.25, 0.0, 0.0625], dtype=np.float32),
    }, vocab)
    blob = path.read_bytes()
    leaks = reader_leaks(lambda p: load_vision_targets(p, vocab), tmp_path / "damaged.tsv",
                         blob, 600, seed=11, header_len=blob.index(b"\n") + 1,
                         size_offsets=(0, len(blob) // 2, len(blob) - 4))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


# -- synthetic channel --------------------------------------------------------

def test_noiseless_channel_is_identity():
    vocab = Vocabulary([f"w{i}" for i in range(7)])
    config = VisionChannelConfig(
        miss_rate=0.0, false_alarm_rate=0.0, concentration=np.inf, seed=3
    )
    rng = np.random.default_rng(3)
    for _ in range(20):
        truth = (rng.uniform(size=7) < 0.4).astype(np.float32)
        out = simulate_vision_channel(truth, config, vocab)
        assert np.array_equal(out, truth)


def test_channel_fixed_seed_is_reproducible():
    vocab = Vocabulary([f"w{i}" for i in range(5)])
    truth = np.array([1, 0, 1, 0, 0], dtype=np.float32)
    config = VisionChannelConfig(seed=11)
    a = simulate_vision_channel(truth, config, vocab)
    b = simulate_vision_channel(truth, config, vocab)
    assert np.array_equal(a, b)


def test_channel_output_in_unit_interval():
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    config = VisionChannelConfig(
        confusion_map={"w0": [("w1", 0.8)]}, concentration=2.0, seed=4
    )
    rng = np.random.default_rng(4)
    for _ in range(200):
        truth = (rng.uniform(size=6) < 0.5).astype(np.float32)
        out = simulate_vision_channel(truth, config, vocab, rng=rng)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_channel_present_words_score_high():
    vocab = Vocabulary(["dog", "cat"])
    truth = np.array([1, 0], dtype=np.float32)
    config = VisionChannelConfig(miss_rate=0.0, false_alarm_rate=0.0, seed=5)
    rng = np.random.default_rng(5)
    draws = np.array(
        [simulate_vision_channel(truth, config, vocab, rng=rng) for _ in range(10000)]
    )
    assert abs(draws[:, 0].mean() - MU_HI) < 0.01
    assert abs(draws[:, 1].mean() - MU_LO) < 0.01


def test_channel_miss_rate_lowers_present_mean():
    vocab = Vocabulary(["dog"])
    truth = np.array([1], dtype=np.float32)
    means = []
    for miss in (0.0, 0.3):
        rng = np.random.default_rng(6)
        config = VisionChannelConfig(miss_rate=miss, seed=6)
        draws = [
            simulate_vision_channel(truth, config, vocab, rng=rng)[0]
            for _ in range(10000)
        ]
        means.append(np.mean(draws))
    assert means[1] < means[0] - 0.1


def test_channel_confusion_leak_lifts_neighbor():
    vocab = Vocabulary(["girl", "young", "tree"])
    truth = np.array([1, 0, 0], dtype=np.float32)
    config = VisionChannelConfig(
        miss_rate=0.0,
        false_alarm_rate=0.0,
        confusion_map={"girl": [("young", 0.9)]},
        seed=7,
    )
    rng = np.random.default_rng(7)
    draws = np.array(
        [simulate_vision_channel(truth, config, vocab, rng=rng) for _ in range(10000)]
    )
    # "young" rides the leak; "tree" stays at the absent-word floor
    assert draws[:, 1].mean() > draws[:, 2].mean() + 0.3
    assert abs(draws[:, 2].mean() - MU_LO) < 0.01


def test_channel_config_validation():
    vocab = Vocabulary(["dog"])
    with pytest.raises(ConfigError):
        VisionChannelConfig(miss_rate=1.5).validate()
    with pytest.raises(ConfigError):
        VisionChannelConfig(false_alarm_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        VisionChannelConfig(concentration=0.0).validate()
    with pytest.raises(ConfigError):
        VisionChannelConfig(confusion_map={"dog": [("cat", 2.0)]}).validate()
    with pytest.raises(ConfigError):
        VisionChannelConfig(confusion_map={"dog": [("zebra", 0.5)]}).validate(vocab)


def test_channel_shape_mismatch():
    vocab = Vocabulary(["dog", "cat"])
    with pytest.raises(DataError):
        simulate_vision_channel(np.zeros(3), VisionChannelConfig(), vocab)
