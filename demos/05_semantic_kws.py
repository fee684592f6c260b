"""Semantic keyword spotting: forgiving confusions the tagger taught.

The vision channel leaks probability between confusable word pairs, so a
model trained on its output fires on a keyword's partner. Exact matching
counts those retrievals as errors; semantic matching, driven by the
corpus's relabelling map, accepts them. The psc architecture also says
where in the utterance each word scored highest.
"""

import tempfile

import numpy as np

from gkw.evaluation import (
    ScoreTable,
    build_reference,
    keyword_spot,
    load_semantic_map,
)
from gkw.models import TrainConfig, forward_psc, psc, score_utterances, train
from gkw.synth import SynthConfig, generate_corpus
from gkw.targets import Vocabulary, load_vision_targets

out_dir = tempfile.mkdtemp(prefix="gkw_sem_")
config = SynthConfig(train_size=500, dev_size=80, test_size=80)
manifest = generate_corpus(config, out_dir)
vocab = Vocabulary.load(f"{out_dir}/vocabulary.txt")
confused = sorted(config.channel.confusion_map)
print("confusion pairs:", ", ".join(
    f"{w}->{config.channel.confusion_map[w][0][0]}" for w in confused))

features = manifest.load_features()
model, meta = train(
    features, load_vision_targets(f"{out_dir}/vision_targets.tsv", vocab),
    manifest.ids("train"), manifest.ids("dev"),
    psc(len(vocab)), TrainConfig(epochs=25, seed=0),
)
print(f"trained {meta['epochs_run']} epochs")

test_ids = manifest.ids("test")
table = ScoreTable(test_ids, score_utterances(model, features, test_ids), vocab)
reference = build_reference(manifest.transcriptions("test"))
keywords = [w for w in confused if any(w in reference[u] for u in test_ids)]

semantic_map = load_semantic_map(f"{out_dir}/semantic_map.json")
exact = keyword_spot(table, keywords, reference)
semantic = keyword_spot(table, keywords, reference, semantic_map=semantic_map)
print(f"\n{'keyword':>8}  exact P@10  semantic P@10")
for kw in exact["per_keyword"]:
    print(f"{kw:>8}      {exact['per_keyword'][kw]['p_at_10']:.2f}        "
          f"{semantic['per_keyword'][kw]['p_at_10']:.2f}")
print(f"{'average':>8}      {exact['average']['p_at_10']:.2f}        "
      f"{semantic['average']['p_at_10']:.2f}")

# localization: where the top-scoring word peaks inside one utterance
utt_id = test_ids[0]
_, scores = forward_psc(model, features[utt_id])
word = int(np.argmax(scores.max(axis=0)))
frame = int(np.argmax(scores[:, word]))
tokens = manifest.transcriptions("test")[utt_id]
print(f"\n{utt_id}: \"{' '.join(tokens)}\"")
print(f"strongest word {vocab.words[word]!r} peaks at output frame {frame} "
      f"of {len(scores)}")
