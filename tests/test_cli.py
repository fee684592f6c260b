"""Command-line pipeline, run in-process through cli.main()."""

import argparse
import json
import hashlib
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkw import cli, models
from gkw.evaluation import ScoreTable
from gkw.features import read_features, write_features
from gkw.models import (
    ArchitectureSpec,
    SpeechModel,
    forward_psc,
    load_checkpoint,
    save_checkpoint,
)
from gkw.synth import CorpusManifest, content_forms
from gkw.targets import Vocabulary


def write_config(tmp_path, **sections):
    base = {
        "generate": {
            "out": str(tmp_path / "corpus"),
            "vocab_size": 6,
            "stop_word_count": 2,
            "utterance_words": [4, 6],
            "prototype_frames": [14, 18],
            "train_size": 48,
            "dev_size": 10,
            "test_size": 10,
            "confusion_map": {},
        },
        "train": {
            "arch": "psc",
            "epochs": 8,
            "out": str(tmp_path / "model.gkwm"),
        },
        "score": {"out": str(tmp_path / "scores.tsv")},
    }
    for name, extra in sections.items():
        base.setdefault(name, {}).update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generate+train+score run shared by the read-only CLI tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = write_config(tmp_path)
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    assert cli.main(["--config", str(config), "generate"]) == 0
    assert cli.main(["--config", str(config), "train", str(manifest),
                     "--targets", "oracle"]) == 0
    assert cli.main(["--config", str(config), "score",
                     str(tmp_path / "model.gkwm"), str(manifest)]) == 0
    return tmp_path, config, manifest


def test_generate_writes_manifest(pipeline, capsys):
    tmp_path, config, manifest = pipeline
    assert manifest.exists()
    assert len(manifest.read_text().splitlines()) == 68
    capsys.readouterr()


def test_generate_same_seed_same_checksum(tmp_path, capsys):
    config = write_config(tmp_path)
    outs = []
    for _ in range(2):
        assert cli.main(["--config", str(config), "generate"]) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("checksum")
        )
        outs.append(line)
    assert outs[0] == outs[1]


def test_generate_bad_config_key_names_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generate": {"vocab_sizx": 5}}))
    assert cli.main(["--config", str(config), "generate"]) == 1
    assert "vocab_sizx" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["miss_rat", "seed", "channel"])
def test_generate_refuses_keys_outside_the_config_fields(tmp_path, capsys, key):
    config = write_config(tmp_path, generate={key: 0.1})
    assert cli.main(["--config", str(config), "generate"]) == 1
    assert repr(key) in capsys.readouterr().err


def test_generate_accepts_every_config_field(tmp_path, capsys):
    # with write_config's keys, every SynthConfig and VisionChannelConfig
    # field but the seed and the channel
    config = write_config(tmp_path, generate={
        "prototype_sigma": 1.0, "prototype_ripple": 0.25, "frame_noise_sigma": 0.05,
        "zipf_exponent": 1.0, "miss_rate": 0.1, "false_alarm_rate": 0.05,
        "concentration": 50.0,
    })
    assert cli.main(["--config", str(config), "generate"]) == 0
    capsys.readouterr()


def test_generate_default_confusion_follows_vocab_size(tmp_path, capsys):
    config = write_config(tmp_path, generate={"vocab_size": 10})
    doc = json.loads(config.read_text())
    del doc["generate"]["confusion_map"]
    config.write_text(json.dumps(doc))
    assert cli.main(["--config", str(config), "generate"]) == 0
    capsys.readouterr()
    semantic_map = json.loads((tmp_path / "corpus" / "semantic_map.json").read_text())
    tail = content_forms(10)[-6:]
    for a, b in zip(tail[0::2], tail[1::2]):
        assert semantic_map[a] == semantic_map[b] == sorted([a, b])


@pytest.mark.parametrize("generate, code, message", [
    ({"confusion_map": {"notaword": [[content_forms(6)[0], 0.5]]}},
     1, "'notaword' is not in the vocabulary"),
    ({"confusion_map": {content_forms(6)[0]: [["notaword", 0.5]]}},
     1, "'notaword' is not in the vocabulary"),
    # four one-word utterances cannot realize six content words
    ({"utterance_words": [1, 1], "train_size": 2, "dev_size": 1, "test_size": 1},
     2, "corpus too small"),
], ids=["key", "neighbor", "small-corpus"])
def test_generate_confusion_word_outside_the_vocabulary(tmp_path, capsys, generate, code,
                                                        message):
    # the corpus is checked before any file is written
    config = write_config(tmp_path, generate=generate)
    assert cli.main(["--config", str(config), "generate"]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("section, values", [
    ("generate", {"confusion_map": 5}),
    ("generate", {"confusion_map": {"a": 5}}),
    ("generate", {"confusion_map": {"a": [["b", "high"]]}}),
    ("generate", {"vocab_size": "ten"}),
    ("generate", {"utterance_words": 3}),
    ("generate", {"utterance_words": [3, 4, 5]}),
    ("generate", {"train_size": 2.5}),
    ("generate", {"miss_rate": "x"}),
    ("generate", {"out": 5}),
    ("common", {"seed": "x"}),
    ("common", {"threads": 0}),
    ("common", {"precision": "f16"}),
    ("common", {"strict_determinism": 1}),
])
def test_generate_wrong_config_value_type_is_config_error(tmp_path, capsys, section, values):
    config = write_config(tmp_path, **{section: values})
    assert cli.main(["--config", str(config), "generate"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(next(iter(values))) in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("section, values", [
    ("train", {"batch_size": "32"}),
    ("train", {"epochs": 0}),
    ("train", {"arch": "rnn"}),
    ("eval", {"alpha": 0.5}),
    ("eval", {"alpha": [0.5, "x"]}),
    ("score", {"emit_localization": "yes"}),
])
def test_wrong_config_value_type_fails_before_any_work(tmp_path, capsys, section, values):
    config = write_config(tmp_path, **{section: values})
    assert cli.main(["--config", str(config), "generate"]) == 1
    assert repr(next(iter(values))) in capsys.readouterr().err


def _parsers():
    """The top-level parser as "common", and each subcommand's parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"common": parser, **sub.choices}


def _option_cases():
    for section, parser in _parsers().items():
        for action in parser._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                yield pytest.param(section, action, id=f"{section}.{action.dest}")


@pytest.mark.parametrize("section, action", _option_cases())
def test_every_option_is_a_config_key_and_typed(tmp_path, capsys, monkeypatch,
                                                section, action):
    if action.nargs == 0:
        good, bad = True, "x"
    elif action.choices:
        good, bad = action.choices[0], "x"
    elif action.type is None:
        good, bad = "x", 5
    else:
        good, bad = action.type("1"), "x"
    if isinstance(action, argparse._AppendAction):
        good = [good]
    monkeypatch.setattr(cli, "_pin_threads", lambda count: None)
    config = tmp_path / "config.json"
    argv = ["--config", str(config), "score", str(tmp_path / "none.gkwm"),
            str(tmp_path / "none.jsonl")]
    config.write_text(json.dumps({section: {action.dest: good}}))
    assert cli.main(argv) == 2  # accepted; the missing manifest is a data error
    assert "none.jsonl" in capsys.readouterr().err
    config.write_text(json.dumps({section: {action.dest: bad}}))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(action.dest) in err


@pytest.mark.parametrize("command", list(_parsers()))
def test_help_renders_and_shows_the_defaults(capsys, command):
    argv = ["--help"] if command == "common" else [command, "--help"]
    assert cli.main(argv) == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = [a.default for a in _parsers()[command]._actions
                if a.default not in (None, False, argparse.SUPPRESS)]
    for default in defaults:
        assert f"(default {default})" in text


def test_unknown_section_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generte": {}}))
    assert cli.main(["--config", str(config), "generate"]) == 1
    assert "generte" in capsys.readouterr().err


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"generate": {"out": "caf\xe9"}}')
    assert cli.main(["--config", str(config), "generate"]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_utf8_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(b'{"id": "u\xff"}\n')
    assert cli.main(["score", str(tmp_path / "model.gkwm"), str(manifest)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_train_writes_checkpoint_and_loss_log(pipeline):
    tmp_path, config, manifest = pipeline
    assert (tmp_path / "model.gkwm").exists()
    log = (tmp_path / "model.gkwm.losses.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,dev_loss"
    assert len(log) >= 2
    first = float(log[1].split(",")[2])
    best = min(float(row.split(",")[2]) for row in log[1:])
    assert best <= first


def test_train_vision_targets_missing_file(tmp_path, capsys):
    config = write_config(tmp_path)
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    assert cli.main(["--config", str(config), "generate"]) == 0
    (tmp_path / "corpus" / "vision_targets.tsv").unlink()
    code = cli.main(["--config", str(config), "train", str(manifest)])
    assert code == 2
    capsys.readouterr()


def test_train_file_targets_need_path(pipeline, capsys):
    tmp_path, config, manifest = pipeline
    code = cli.main(["--config", str(config), "train", str(manifest),
                     "--targets", "file", "--out", str(tmp_path / "unused.gkwm")])
    assert code == 1
    assert "--target-file" in capsys.readouterr().err


def test_score_row_count_and_rescore_identical(pipeline):
    tmp_path, config, manifest = pipeline
    scores = tmp_path / "scores.tsv"
    lines = scores.read_text().splitlines()
    assert len(lines) == 1 + 10  # header + test split
    digest = hashlib.blake2b(scores.read_bytes()).hexdigest()
    assert cli.main(["--config", str(config), "score",
                     str(tmp_path / "model.gkwm"), str(manifest)]) == 0
    assert hashlib.blake2b(scores.read_bytes()).hexdigest() == digest


def test_score_fingerprint_mismatch_refused(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    other = write_config(tmp_path, generate={"out": str(tmp_path / "corpus2"),
                                             "vocab_size": 5})
    assert cli.main(["--config", str(other), "generate"]) == 0
    code = cli.main(["--config", str(other), "score", str(src_path / "model.gkwm"),
                     str(tmp_path / "corpus2" / "manifest.jsonl")])
    assert code == 2
    capsys.readouterr()


def test_emit_localization_psc(pipeline, tmp_path):
    src_path, config, manifest = pipeline
    out = tmp_path / "loc_scores.tsv"
    assert cli.main(["--config", str(config), "score",
                     str(src_path / "model.gkwm"), str(manifest),
                     "--out", str(out), "--emit-localization"]) == 0
    loc_dir = tmp_path / "loc_scores.localization"
    assert len(list(loc_dir.glob("*.gkwf"))) == 10
    vocab = Vocabulary.load(src_path / "corpus" / "vocabulary.txt")
    model, _, _ = load_checkpoint(src_path / "model.gkwm", vocab=vocab)
    r = model.spec.r
    trim = sum(layer[1] - 1 for layer in model.spec.layers if layer[0] == "conv")
    table = ScoreTable.load(out, vocab=vocab)
    features = CorpusManifest.load(manifest).load_features(table.utt_ids)
    for utt_id, row in zip(table.utt_ids, table.scores):
        h = read_features(loc_dir / f"{utt_id}.gkwf")
        assert h.shape == (len(features[utt_id]) - trim, len(vocab))
        h64 = h.astype(np.float64)
        top = h64.max(axis=0)
        pooled = top + np.log(np.exp(r * (h64 - top)).mean(axis=0)) / r
        assert np.abs(1.0 / (1.0 + np.exp(-pooled)) - row).max() <= 1e-5
        _, alone = forward_psc(model, features[utt_id])
        assert np.abs(h - alone).max() <= 1e-5


def test_emit_localization_needs_psc_and_writes_nothing(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    vocab = Vocabulary.load(src_path / "corpus" / "vocabulary.txt")
    spec = ArchitectureSpec("cnn-pool", len(vocab), 39, (
        ("conv", 3, 4, "relu"), ("maxtime",), ("dense", len(vocab), "sigmoid")))
    checkpoint = tmp_path / "cnn.gkwm"
    save_checkpoint(checkpoint, SpeechModel(spec), vocab.fingerprint(), {})
    code = cli.main(["score", str(checkpoint), str(manifest),
                     "--out", str(tmp_path / "cnn.tsv"), "--emit-localization"])
    assert code == 1
    assert "psc checkpoint" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [checkpoint]


def test_score_refuses_an_id_that_leaves_the_localization_directory(pipeline, tmp_path,
                                                                    capsys):
    src_path, config, manifest = pipeline
    corpus = tmp_path / "corpus"
    (corpus / "features").mkdir(parents=True)
    shutil.copy(src_path / "corpus" / "vocabulary.txt", corpus)
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    records = [r for r in records if r["split"] == "test"]
    for record in records:
        shutil.copy(src_path / "corpus" / record["features"], corpus / "features")
    records[0]["id"] = "../../escaped-" + records[0]["id"]
    (corpus / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out" / "scores.tsv"
    assert cli.main(["score", str(src_path / "model.gkwm"), str(corpus / "manifest.jsonl"),
                     "--out", str(out), "--emit-localization"]) == 2
    assert "utterance id" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [corpus]
    assert not list(tmp_path.rglob("escaped-*"))


def _test_split(src_path, root, frames, seed):
    """A corpus at `root` beside the pipeline's vocabulary whose test split
    holds one utterance of random features per entry of `frames`, in
    frames' order; returns its manifest path."""
    (root / "features").mkdir(parents=True)
    shutil.copy(src_path / "corpus" / "vocabulary.txt", root)
    rng = np.random.default_rng(seed)
    records = []
    for k, n in enumerate(frames):
        rel = f"features/u{k:03d}.gkwf"
        write_features(root / rel, rng.normal(size=(n, 39)))
        records.append({"id": f"u{k:03d}", "split": "test", "features": rel,
                        "transcription": ["word"]})
    manifest = root / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    return manifest


def test_score_refuses_a_bad_feature_file_before_any_output(pipeline, tmp_path, capsys):
    # the longest utterance, in the second batch of the length order, holds
    # a NaN: every file is read and checked before the first batch runs, so
    # no score table, localization directory or map is written
    src_path, config, _ = pipeline
    corpus = tmp_path / "corpus"
    manifest = _test_split(src_path, corpus, range(100, 140), seed=31)
    bad = read_features(corpus / "features" / "u039.gkwf")
    bad[7, 3] = np.nan
    write_features(corpus / "features" / "u039.gkwf", bad)
    out = tmp_path / "scores.tsv"
    assert cli.main(["score", str(src_path / "model.gkwm"), str(manifest),
                     "--out", str(out), "--emit-localization"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [corpus]


def test_score_holds_less_than_the_model_plus_the_split(pipeline, tmp_path, capsys):
    # a test split of seven batches: scoring reads each batch's files when
    # it runs that batch, so it never holds the whole split's features
    src_path, _, _ = pipeline
    frames = [300] * 200
    manifest = _test_split(src_path, tmp_path / "corpus", frames, seed=32)
    vocab = Vocabulary.load(tmp_path / "corpus" / "vocabulary.txt")
    model = SpeechModel(models.psc(len(vocab), conv_filters=(8,) * 5))
    checkpoint = tmp_path / "psc.gkwm"
    save_checkpoint(checkpoint, model, vocab.fingerprint(), {})
    out = tmp_path / "scores.tsv"
    tracemalloc.start()
    try:
        code = cli.main(["score", str(checkpoint), str(manifest), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    model_bytes = sum(p.data.nbytes for _, p in model.parameters())
    split_bytes = sum(frames) * 39 * 4
    assert peak < model_bytes + split_bytes, (
        f"score peaked at {peak / 1e6:.1f} MB; model {model_bytes / 1e6:.1f} MB, "
        f"split {split_bytes / 1e6:.1f} MB")
    ids = [f"u{k:03d}" for k in range(len(frames))]
    features = CorpusManifest.load(manifest).load_features(ids)
    table = ScoreTable.load(out, vocab=vocab)
    assert table.utt_ids == ids
    assert np.array_equal(table.scores, models.score_utterances(model, features, ids))


@pytest.mark.parametrize("features", [5, "../elsewhere/x.gkwf"])
def test_score_bad_manifest_entry_is_data_error(pipeline, tmp_path, capsys, features):
    src_path, config, manifest = pipeline
    record = json.loads(manifest.read_text().splitlines()[-1])
    record["features"] = features
    bad = tmp_path / "manifest.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    assert cli.main(["score", str(src_path / "model.gkwm"), str(bad)]) == 2
    assert "features" in capsys.readouterr().err


def test_eval_bow_report(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    out = tmp_path / "bow.json"
    assert cli.main(["--config", str(config), "eval",
                     str(src_path / "scores.tsv"), str(manifest),
                     "--mode", "bow", "--alpha", "0.4", "--alpha", "0.7",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert set(report["alpha"]) == {"0.4", "0.7"}
    for point in report["alpha"].values():
        assert 0.0 <= point["precision"] <= 1.0
        assert 0.0 <= point["fscore"] <= 1.0
    assert 0.0 <= report["average_precision"] <= 1.0
    assert "scores" in report["inputs"] and "manifest" in report["inputs"]
    assert report["config"]["command"] == "eval"


def test_eval_kws_report(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    out = tmp_path / "kws.json"
    assert cli.main(["--config", str(config), "eval",
                     str(src_path / "scores.tsv"), str(manifest),
                     "--mode", "kws", "--keywords", "3",
                     "--min-occurrences", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["mode"] == "exact"
    assert len(report["per_keyword"]) >= 1
    for stats in report["per_keyword"].values():
        assert set(stats) >= {"p_at_10", "p_at_n", "eer", "occurrences"}
    for key, value in report["average"].items():
        assert abs(report["average_percent"][key] - 100.0 * value) < 1e-9


def test_eval_semantic_needs_map(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    # the toy corpus has no confusion pairs, so its semantic map exists but
    # is empty; an explicit missing path must fail cleanly
    code = cli.main(["--config", str(config), "eval",
                     str(src_path / "scores.tsv"), str(manifest),
                     "--mode", "semantic-kws", "--keywords", "3",
                     "--min-occurrences", "2",
                     "--semantic-map", str(tmp_path / "nope.json")])
    assert code == 2
    capsys.readouterr()


def test_eval_semantic_with_map(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    vocab = Vocabulary.load(src_path / "corpus" / "vocabulary.txt")
    mapping = {w: [vocab.words[0]] for w in vocab.words}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(mapping))
    out = tmp_path / "sem.json"
    assert cli.main(["--config", str(config), "eval",
                     str(src_path / "scores.tsv"), str(manifest),
                     "--mode", "semantic-kws", "--keywords", "3",
                     "--min-occurrences", "2", "--semantic-map", str(map_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["mode"] == "semantic"


def test_report_and_checkpoint_record_the_defaults_used(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    checkpoint = tmp_path / "vision.gkwm"
    assert cli.main(["--config", str(config), "train", str(manifest),
                     "--epochs", "1", "--out", str(checkpoint)]) == 0
    _, _, metadata = load_checkpoint(checkpoint)
    assert metadata["config"]["targets"] == "vision"
    assert metadata["config"]["arch"] == "psc"  # the config file's value
    assert metadata["config"]["precision"] == "f32"
    out = tmp_path / "bow.json"
    assert cli.main(["eval", str(src_path / "scores.tsv"), str(manifest),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert set(report["config"]) == {
        "command", "seed", "precision", "strict_determinism", "mode", "split",
        "alpha", "keywords", "min_occurrences", "semantic_map", "confusion"}
    assert report["config"]["mode"] == "bow"
    assert report["config"]["split"] == "test"
    assert report["config"]["alpha"] == [0.4, 0.7]
    assert set(report["alpha"]) == {"0.4", "0.7"}


def test_alpha_flag_replaces_the_config_file_list(pipeline, tmp_path, capsys):
    src_path, _, manifest = pipeline
    config = write_config(tmp_path, eval={"alpha": [0.5]})
    out = tmp_path / "bow.json"
    for flags, alphas in (([], [0.5]), (["--alpha", "0.6"], [0.6])):
        assert cli.main(["--config", str(config), "eval", str(src_path / "scores.tsv"),
                         str(manifest), *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["alpha"] == alphas
        assert list(report["alpha"]) == [f"{a:g}" for a in alphas]
    capsys.readouterr()


def test_eval_alpha_out_of_range(pipeline, capsys):
    src_path, config, manifest = pipeline
    code = cli.main(["--config", str(config), "eval",
                     str(src_path / "scores.tsv"), str(manifest),
                     "--mode", "bow", "--alpha", "1.5"])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_eval_id_not_in_split(pipeline, tmp_path, capsys):
    src_path, config, manifest = pipeline
    table = ScoreTable.load(src_path / "scores.tsv")
    bad = ScoreTable(["zz-" + u for u in table.utt_ids], table.scores, table.vocab)
    bad_path = tmp_path / "bad.tsv"
    bad.save(bad_path)
    code = cli.main(["--config", str(config), "eval", str(bad_path), str(manifest),
                     "--mode", "bow"])
    assert code == 2
    assert "zz-" in capsys.readouterr().err


def test_features_subcommand(tmp_path, capsys):
    import wave

    from scipy.io import wavfile

    rng = np.random.default_rng(0)
    wav_path = tmp_path / "tone.wav"
    rate = 16000
    signal = (np.sin(2 * np.pi * 440 * np.arange(rate) / rate) * 12000).astype("<i2")
    with wave.open(str(wav_path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(signal.tobytes())
    assert cli.main(["features", str(wav_path), "--out", str(tmp_path / "feats")]) == 0
    capsys.readouterr()
    mat = read_features(tmp_path / "feats" / "tone.gkwf")
    assert mat.shape == (98, 39)
    # a WAV that fails extraction is named, and no WAV's features are written
    nan_path = tmp_path / "nan.wav"
    wavfile.write(nan_path, rate, np.full(rate, np.nan, dtype=np.float32))
    assert cli.main(["features", str(wav_path), str(nan_path),
                     "--out", str(tmp_path / "both")]) == 2
    err = capsys.readouterr().err
    assert "nan.wav" in err and "non-finite" in err
    assert not (tmp_path / "both").exists()


@pytest.mark.parametrize("content", [b"junk, not audio", b"RIFF\x10\x00\x00\x00WAVEfmt "],
                         ids=["not-riff", "cut-short"])
def test_features_malformed_wav_is_data_error(tmp_path, capsys, content):
    wav_path = tmp_path / "bad.wav"
    wav_path.write_bytes(content)
    assert cli.main(["features", str(wav_path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "bad.wav" in err
    assert not (tmp_path / "bad.gkwf").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_features_non_finite_wav_is_data_error(tmp_path, capsys, bad):
    from scipy.io import wavfile

    samples = np.zeros(16000, dtype=np.float32)
    samples[100] = bad
    wav_path = tmp_path / "bad.wav"
    wavfile.write(wav_path, 16000, samples)
    assert cli.main(["features", str(wav_path), "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.gkwf"))


def test_gradcheck_both_pass(capsys):
    assert cli.main(["gradcheck", "--arch", "both"]) == 0
    out = capsys.readouterr().out
    assert "cnn-pool" in out and "psc" in out and "FAIL" not in out


def test_gradcheck_zero_step_is_config_error(capsys):
    assert cli.main(["gradcheck", "--arch", "psc", "--step", "0"]) == 1
    assert "step" in capsys.readouterr().err


def test_gradcheck_corrupted_fails(monkeypatch, capsys):
    monkeypatch.setattr(models, "gradient_check", lambda spec, **kwargs: (0.5, "conv1.filters"))
    assert cli.main(["gradcheck", "--arch", "cnn"]) == 3
    err = capsys.readouterr()
    assert "FAIL" in err.out


def test_usage_error_is_exit_1(capsys):
    assert cli.main(["train"]) == 1  # missing manifest argument
    capsys.readouterr()
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_flag_overrides_config_file(tmp_path, capsys):
    config = write_config(tmp_path, generate={"train_size": 5})
    # flag seed changes the corpus; config seed would otherwise pin it
    assert cli.main(["--config", str(config), "--seed", "5", "generate"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["--config", str(config), "--seed", "6", "generate"]) == 0
    second = capsys.readouterr().out
    first_sum = next(l for l in first.splitlines() if l.startswith("checksum"))
    second_sum = next(l for l in second.splitlines() if l.startswith("checksum"))
    assert first_sum != second_sum


@pytest.mark.parametrize("flag", [["--threads", "1"], ["--strict-determinism"]])
def test_thread_flags_warn_when_numpy_is_loaded(flag, caplog, capsys):
    # numpy is already imported here, so the flags cannot take effect
    with caplog.at_level("WARNING", logger="gkw"):
        assert cli.main([*flag, "gradcheck", "--arch", "cnn"]) == 0
    capsys.readouterr()
    assert any("cannot be pinned" in r.getMessage() for r in caplog.records)
