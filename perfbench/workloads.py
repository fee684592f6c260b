"""The three benchmark workloads: set-up, one timed pass, and its checks.

Every workload builds its corpus with `gkw.synth.generate_corpus` from the
benchmark's seed, so the same seed gives the same inputs. gkw is reached
through module attributes (`models.train`, `cli.main`, ...) at call time,
so the same code runs traced when the tracer has patched those attributes.

- train-cnn, train-psc: one `models.train` call of one epoch over the
  default corpus's 2000 train utterances, with the 200 dev utterances for
  the dev-loss pass. One epoch is what it takes for dev AP to settle
  (about 0.80 for cnn-pool and 0.97 for psc) to within a few percent from
  one seed to the next.
- score-long: `gkw score` for both variants, `gkw score
  --emit-localization` for psc, and `gkw eval` in its three modes, all
  in-process through `cli.main`, on a test split of long utterances.
"""

import contextlib
import importlib.util
import io
import json
import time

import numpy as np
from scipy.special import expit

from gkw import cli, evaluation, features, models, synth, targets
from gkw.errors import DataError

TRAIN_SEED = 0
BATCH_SIZE = 32
EPOCHS = 1
LONG_WORDS = (3, 12)  # cnn-pool needs >= 126 frames; a word has >= 42
LONG_TEST_SIZE = 200
LONG_OTHER_SIZE = 100  # train and dev utterances, which score-long never uses
UNIGRAM_MARGIN = 0.15  # dev AP over the unigram baseline, as in acceptance criterion 6
EVAL_MODES = ("bow", "kws", "semantic-kws")
# Rows scored in another order. In float64 cnn-pool's move by about 1e-15,
# so masking is exact; in float32 they move by up to 1.25e-6 (seeds 1-20),
# which is rounding from BLAS summing in another order for another batch
# shape. The float32 bound is the one the localization check uses.
SHUFFLED_FLOAT64_TOL = 1e-6
SHUFFLED_FLOAT32_TOL = 1e-5


class Checks:
    """Correctness checks counted as attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _reference(manifest, split):
    return {u: frozenset(t.lower() for t in tokens)
            for u, tokens in manifest.transcriptions(split).items()}


def brute_average_precision(table, reference):
    """AP over all (utterance, word) pairs, ranked by score, then utterance
    id, then word index, with one numpy sort instead of the library's loop."""
    n_utt, n_words = table.scores.shape
    scores = table.scores.astype(np.float64).ravel()
    utt = np.repeat(np.arange(n_utt), n_words)
    word = np.tile(np.arange(n_words), n_utt)
    id_rank = np.argsort(np.argsort(np.array(table.utt_ids)))
    labels = np.array([w in reference[u] for u in table.utt_ids for w in table.vocab.words])
    hits = labels[np.lexsort((word, id_rank[utt], -scores))]
    ranks = np.arange(1, hits.size + 1)
    return float(np.sum(np.cumsum(hits)[hits] / ranks[hits]) / hits.sum())


def brute_precision_at_10(table, reference, keyword, accepted):
    """P@10 of `keyword`'s column; a hit has any `accepted` word."""
    col = table.vocab.words.index(keyword)
    ids = np.array(table.utt_ids)
    order = np.lexsort((ids, -table.scores[:, col].astype(np.float64)))
    return sum(bool(reference[u] & accepted) for u in ids[order[:10]]) / 10.0


def load_oracles(root):
    """The test suite's independent metric oracles, imported read-only."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TrainWorkload:
    """One epoch of `models.train` on the default corpus."""

    setup_reps = 3  # about 8 s; a fixed count, so peak RSS sees the same work in every run

    def __init__(self, variant, seed):
        self.variant = variant
        self.seed = seed
        self._untrained_dev_loss = None

    def params(self):
        corpus = synth.SynthConfig(seed=self.seed)
        return {
            "corpus": {"seed": corpus.seed, "train_size": corpus.train_size,
                       "dev_size": corpus.dev_size, "utterance_words": list(corpus.utterance_words)},
            "variant": self.variant,
            "train": {"seed": TRAIN_SEED, "batch_size": BATCH_SIZE, "epochs": EPOCHS,
                      "patience": EPOCHS, "targets": "vision"},
        }

    def setup(self, workdir):
        manifest = synth.generate_corpus(synth.SynthConfig(seed=self.seed), workdir)
        vocab = targets.Vocabulary.load(workdir / "vocabulary.txt")
        target_map = {}
        for rel in manifest.target_paths():
            target_map.update(targets.load_vision_targets(manifest.root / rel, vocab))
        train_ids, dev_ids = manifest.ids("train"), manifest.ids("dev")
        feature_map = manifest.load_features(train_ids + dev_ids)
        make = models.cnn_pool if self.variant == models.CNN_POOL else models.psc
        spec = make(len(vocab))
        return {
            "manifest": manifest, "vocab": vocab, "targets": target_map,
            "train_ids": train_ids, "dev_ids": dev_ids, "features": feature_map,
            "spec": spec, "untrained": models.SpeechModel(spec, seed=TRAIN_SEED),
            "frames": sum(len(feature_map[u]) for u in train_ids),
        }

    def warm_up(self, s):
        """A two-step training run, untimed: the first training in a process
        pays about 1.5 s of one-time allocation that later ones do not."""
        config = models.TrainConfig(seed=TRAIN_SEED, batch_size=BATCH_SIZE, epochs=1)
        models.train(s["features"], s["targets"], s["train_ids"][: 2 * BATCH_SIZE],
                     s["dev_ids"][:BATCH_SIZE], s["spec"], config)

    def run(self, s):
        config = models.TrainConfig(seed=TRAIN_SEED, batch_size=BATCH_SIZE,
                                    epochs=EPOCHS, patience=EPOCHS)
        start = time.perf_counter()
        model, meta = models.train(s["features"], s["targets"], s["train_ids"],
                                   s["dev_ids"], s["spec"], config)
        wall = time.perf_counter() - start
        epochs = meta["epochs_run"]
        return {"wall": wall, "frames_per_s": s["frames"] * epochs / wall,
                "info": {"utt_per_s": len(s["train_ids"]) * epochs / wall},
                "model": model, "meta": meta}

    def check(self, s, result, checks):
        """Finite losses, a dev loss below the untrained model's, and a dev
        AP equal to a brute-force recomputation; sets `result["ap"]`."""
        meta = result["meta"]
        losses = meta["train_loss"] + meta["dev_loss"]
        checks.expect(meta["epochs_run"] == EPOCHS, f"ran {meta['epochs_run']} epochs, not {EPOCHS}")
        checks.expect(bool(np.isfinite(losses).all()), f"non-finite epoch loss in {losses}")
        dev_ids = s["dev_ids"]
        dev_targets = np.stack([s["targets"][u] for u in dev_ids])
        if self._untrained_dev_loss is None:
            probs = models.score_utterances(s["untrained"], s["features"], dev_ids)
            self._untrained_dev_loss = models.bow_loss(probs, dev_targets).data.item()
        checks.expect(meta["dev_loss"][-1] < self._untrained_dev_loss,
                      f"dev loss {meta['dev_loss'][-1]} not below untrained "
                      f"{self._untrained_dev_loss}")
        table = evaluation.ScoreTable(
            dev_ids, models.score_utterances(result["model"], s["features"], dev_ids), s["vocab"])
        reference = _reference(s["manifest"], "dev")
        ap = evaluation.average_precision(table, reference)
        brute = brute_average_precision(table, reference)
        checks.expect(abs(ap - brute) <= 1e-9, f"dev AP {ap} != brute force {brute}")
        unigram = evaluation.average_precision(evaluation.unigram_baseline(
            s["manifest"].transcriptions("train"), s["vocab"], dev_ids), reference)
        checks.expect(ap >= unigram + UNIGRAM_MARGIN,
                      f"dev AP {ap} is not {UNIGRAM_MARGIN} above the unigram baseline's {unigram}")
        result["ap"] = ap
        result["info"]["dev_ap"] = ap


class ScoreWorkload:
    """`gkw score`, `score --emit-localization` and `eval` on long inputs."""

    variants = (("cnn", models.cnn_pool), ("psc", models.psc))
    test_size = LONG_TEST_SIZE
    setup_reps = 11  # about 5 s; a fixed count, so peak RSS sees the same work in every run

    def __init__(self, seed, oracles):
        self.seed = seed
        self.oracles = oracles
        self.passes = 0

    def params(self):
        return {
            "corpus": {"seed": self.seed, "utterance_words": list(LONG_WORDS),
                       "train_size": LONG_OTHER_SIZE, "dev_size": LONG_OTHER_SIZE,
                       "test_size": LONG_TEST_SIZE},
            "models": "seeded initialisation (seed 0) of cnn-pool and psc",
            "steps": ["score cnn-pool", "score psc", "score psc --emit-localization",
                      *(f"eval --mode {m} (cnn-pool table)" for m in EVAL_MODES)],
        }

    def setup(self, workdir):
        config = synth.SynthConfig(utterance_words=LONG_WORDS, train_size=LONG_OTHER_SIZE,
                                   dev_size=LONG_OTHER_SIZE, test_size=LONG_TEST_SIZE,
                                   seed=self.seed)
        manifest = synth.generate_corpus(config, workdir)
        vocab = targets.Vocabulary.load(workdir / "vocabulary.txt")
        frames = sum(features.read_features(manifest.root / r.features).shape[0]
                     for r in manifest.records if r.split == "test")
        for name, make in self.variants:
            model = models.SpeechModel(make(len(vocab)), seed=TRAIN_SEED)
            models.save_checkpoint(workdir / f"{name}.gkwm", model, vocab.fingerprint(),
                                   {"variant": model.spec.variant, "seed": TRAIN_SEED})
        return {"dir": workdir, "manifest_path": workdir / "manifest.jsonl", "vocab": vocab,
                "frames": frames}

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main([str(a) for a in argv])
            return code, time.perf_counter() - start

    def _score(self, s, name, out, *extra):
        return self._cli(["score", s["dir"] / f"{name}.gkwm", s["manifest_path"],
                          "--out", out, *extra])

    def warm_up(self, s):
        """One untimed pass: the first pass in a process runs about 10%
        slower than later ones, even after scoring another split."""
        self.run(s)

    def run(self, s):
        out = s["dir"] / f"pass{self.passes}"
        self.passes += 1
        out.mkdir()
        codes, walls = {}, {}
        for name, _ in self.variants:
            codes[name], walls[name] = self._score(s, name, out / f"{name}.tsv")
        codes["localize"], walls["localize"] = self._score(
            s, "psc", out / "localize.tsv", "--emit-localization")
        for mode in EVAL_MODES:
            codes[mode], walls[mode] = self._cli(
                ["eval", out / "cnn.tsv", s["manifest_path"], "--mode", mode,
                 "--out", out / f"{mode}.json"])
        scoring = walls["cnn"] + walls["psc"]
        return {"wall": sum(walls.values()), "codes": codes, "out": out,
                # each of the three score calls feeds every test frame through a model
                "frames_per_s": 3 * s["frames"] / (scoring + walls["localize"]),
                "info": {"utt_per_s": LONG_TEST_SIZE / scoring,
                         "localize_utt_per_s": LONG_TEST_SIZE / walls["localize"]}}

    def check(self, s, result, checks):
        """Exit codes, complete tables of valid probabilities, localization
        maps that pool to the psc scores, and metrics equal to brute force;
        sets `result["ap"]`."""
        failed = [step for step, code in result["codes"].items()
                  if not checks.expect(code == 0, f"{step} exited {code}")]
        if failed:
            return
        out = result["out"]
        manifest = synth.CorpusManifest.load(s["manifest_path"])
        test_ids = manifest.ids("test")
        tables = {}
        for name in ("cnn", "psc", "localize"):
            try:
                tables[name] = evaluation.ScoreTable.load(out / f"{name}.tsv", vocab=s["vocab"])
            except (OSError, DataError) as err:
                checks.expect(False, f"{name} score table unreadable: {err}")
                return
            table = tables[name]
            checks.expect(table.utt_ids == test_ids, f"{name} table rows != test utterances")
            checks.expect(bool(np.isfinite(table.scores).all()
                               and table.scores.min() >= 0.0 and table.scores.max() <= 1.0),
                          f"{name} table has probabilities outside [0, 1]")
        checks.expect(np.abs(tables["localize"].scores - tables["psc"].scores).max() <= 1e-6,
                      "localizing score run disagrees with the plain psc run")
        self._check_localization(s, manifest, tables["psc"], out, checks)

        reference = _reference(manifest, "test")
        table = tables["cnn"]
        reports = {m: json.loads((out / f"{m}.json").read_text()) for m in EVAL_MODES}
        ap = reports["bow"]["average_precision"]
        brute = brute_average_precision(table, reference)
        checks.expect(abs(ap - brute) <= 1e-9, f"eval AP {ap} != brute force {brute}")
        semantic_map = json.loads((s["dir"] / "semantic_map.json").read_text())
        for kw, per in reports["kws"]["per_keyword"].items():
            p10, _ = self.oracles.oracle_precision_at(table, reference, kw)
            checks.expect(per["p_at_10"] == p10, f"kws P@10 of {kw!r} {per['p_at_10']} != {p10}")
        for kw, per in reports["semantic-kws"]["per_keyword"].items():
            accepted = {w.lower() for w in semantic_map[kw]} | {kw}
            p10 = brute_precision_at_10(table, reference, kw, accepted)
            checks.expect(per["p_at_10"] == p10,
                          f"semantic-kws P@10 of {kw!r} {per['p_at_10']} != {p10}")
        result["ap"] = ap
        result["info"]["eval_ap"] = ap

    def _check_localization(self, s, manifest, psc_table, out, checks):
        """Each map has T - 53 rows, and logsumexp-pooling it gives the
        utterance's psc probabilities back."""
        spec = models.psc(len(s["vocab"]))
        trim = sum(layer[1] - 1 for layer in spec.layers if layer[0] == "conv")
        frames = {r.utt_id: r.features for r in manifest.records if r.split == "test"}
        worst, bad_shape = 0.0, []
        for row, utt_id in zip(psc_table.scores, psc_table.utt_ids):
            h = features.read_features(out / "localize.localization" / f"{utt_id}.gkwf")
            T = features.read_features(manifest.root / frames[utt_id]).shape[0]
            if h.shape != (T - trim, len(s["vocab"])):
                bad_shape.append(utt_id)
                continue
            h = h.astype(np.float64)
            m = h.max(axis=0)
            pooled = m + np.log(np.exp(spec.r * (h - m)).mean(axis=0)) / spec.r
            worst = max(worst, float(np.abs(expit(pooled) - row).max()))
        checks.expect(not bad_shape, f"localization maps of wrong shape: {bad_shape[:3]}")
        checks.expect(worst <= 1e-5, f"pooled localization differs from psc scores by {worst}")

    def check_shuffled(self, s, result, checks):
        """Scoring the test utterances in a shuffled order gives the same rows:
        within SHUFFLED_FLOAT64_TOL in float64, where only masking can move
        them, and within SHUFFLED_FLOAT32_TOL through the float32 CLI, where
        other batch shapes also change BLAS summation order."""
        manifest = synth.CorpusManifest.load(s["manifest_path"])
        rng = np.random.default_rng(self.seed)
        test = [r for r in manifest.records if r.split == "test"]
        rest = [r for r in manifest.records if r.split != "test"]
        perm = rng.permutation(len(test))
        ids = [r.utt_id for r in test]
        shuffled_ids = [ids[k] for k in perm]
        feature_map = manifest.load_features(ids)
        for name, make in self.variants:
            model = models.SpeechModel(make(len(s["vocab"])), seed=TRAIN_SEED, dtype=np.float64)
            first = models.score_utterances(model, feature_map, ids)
            again = models.score_utterances(model, feature_map, shuffled_ids)
            diff = float(np.abs(first[perm] - again).max())
            checks.expect(diff <= SHUFFLED_FLOAT64_TOL,
                          f"float64 {name} rows change with scoring order by {diff}")
        shuffled = synth.CorpusManifest(records=rest + [test[k] for k in perm], root=s["dir"])
        path = s["dir"] / "shuffled.jsonl"
        shuffled.save(path)
        for name, _ in self.variants:
            out = result["out"] / f"{name}.shuffled.tsv"
            code, _ = self._cli(["score", s["dir"] / f"{name}.gkwm", path, "--out", out])
            if not checks.expect(code == 0, f"shuffled {name} score exited {code}"):
                continue
            again = evaluation.ScoreTable.load(out, vocab=s["vocab"])
            first = evaluation.ScoreTable.load(result["out"] / f"{name}.tsv", vocab=s["vocab"])
            rows = {u: r for u, r in zip(again.utt_ids, again.scores)}
            same_ids = sorted(rows) == sorted(first.utt_ids)
            diff = max((float(np.abs(rows[u] - r).max()) for u, r in
                        zip(first.utt_ids, first.scores)), default=0.0) if same_ids else np.inf
            checks.expect(diff <= SHUFFLED_FLOAT32_TOL,
                          f"{name} rows change with scoring order by {diff}")


def make(name, seed, root):
    if name == "train-cnn":
        return TrainWorkload(models.CNN_POOL, seed)
    if name == "train-psc":
        return TrainWorkload(models.PSC, seed)
    if name == "score-long":
        return ScoreWorkload(seed, load_oracles(root))
    raise ValueError(f"unknown workload {name!r}")
