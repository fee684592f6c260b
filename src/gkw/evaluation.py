"""Scoring tables and the three evaluation tasks.

A trained model reduces each utterance to a row of per-word scores. From
that one table we evaluate spoken bag-of-words prediction (threshold the
row, compare word sets), exact keyword spotting (rank utterances per query
word), and semantic keyword spotting (a retrieval counts if the utterance
contains any acceptable variant of the query). Reference word sets come
from transcriptions and keep out-of-vocabulary words: the models can never
predict those, which costs recall, matching how the tasks are posed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, open_text
from .targets import Vocabulary, format_prob


@dataclass
class ScoreTable:
    """Per-utterance, per-vocabulary-word scores in [0, 1]."""

    utt_ids: list
    scores: np.ndarray
    vocab: Vocabulary

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float32)
        if self.scores.ndim != 2 or self.scores.shape != (len(self.utt_ids), len(self.vocab)):
            raise DataError(
                f"score matrix shape {self.scores.shape} != "
                f"({len(self.utt_ids)}, {len(self.vocab)})"
            )
        if len(set(self.utt_ids)) != len(self.utt_ids):
            raise DataError("duplicate utterance ids in score table")
        if not np.isfinite(self.scores).all():
            raise DataError("scores must be finite numbers in [0, 1]")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise DataError("scores must lie in [0, 1]")

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("utt_id\t" + ",".join(self.vocab.words) + "\n")
            for utt_id, row in zip(self.utt_ids, self.scores):
                fh.write(utt_id + "\t" + ",".join(map(format_prob, row)) + "\n")

    @classmethod
    def load(cls, path, vocab=None):
        with open_text(path) as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("utt_id\t"):
                raise DataError(f"{path}: missing score-table header")
            words = header.split("\t", 1)[1].split(",")
            table_vocab = Vocabulary(words)
            if vocab is not None and table_vocab != vocab:
                raise DataError(f"{path}: header vocabulary differs from expected")
            ids, rows = [], []
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                utt_id, tab, rest = line.partition("\t")
                if not tab:
                    raise DataError(f"{path}:{lineno}: expected `utt_id<TAB>scores`")
                values = rest.split(",")
                if len(values) != len(words):
                    raise DataError(
                        f"{path}:{lineno}: {len(values)} scores for "
                        f"{len(words)} vocabulary words"
                    )
                try:
                    row = [float(v) for v in values]
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: {err}") from None
                if not np.isfinite(row).all():
                    raise FormatError(f"{path}:{lineno}: scores must be finite numbers")
                rows.append(row)
                ids.append(utt_id)
        return cls(ids, np.array(rows, dtype=np.float32), table_vocab)


def build_reference(transcriptions):
    """{utt_id: token list} -> {utt_id: frozenset of lowercase word types}.

    All word types are kept, in-vocabulary or not.
    """
    return {
        utt_id: frozenset(tok.lower() for tok in tokens)
        for utt_id, tokens in transcriptions.items()
    }


# -- spoken bag-of-words -------------------------------------------------------

def bow_predict(table, alpha):
    """Predicted word set per utterance: words scoring strictly above alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    out = {}
    for utt_id, row in zip(table.utt_ids, table.scores):
        out[utt_id] = {w for w, s in zip(table.vocab.words, row) if s > alpha}
    return out


def bow_metrics(predictions, reference):
    """Micro-averaged precision/recall/F over per-utterance word sets."""
    if not predictions:
        raise DataError("empty corpus: nothing to evaluate")
    hit = pred_total = ref_total = 0
    for utt_id, pred in predictions.items():
        if utt_id not in reference:
            raise DataError(f"utterance {utt_id!r} has no reference")
        ref = reference[utt_id]
        hit += len(pred & ref)
        pred_total += len(pred)
        ref_total += len(ref)
    flags = []
    if pred_total == 0:
        flags.append("no_predictions")
    if ref_total == 0:
        flags.append("empty_reference")
    precision = hit / pred_total if pred_total else 0.0
    recall = hit / ref_total if ref_total else 0.0
    fscore = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return {"precision": precision, "recall": recall, "fscore": fscore, "flags": flags}


def average_precision(table, reference):
    """AP over the pooled (utterance, vocabulary word) decisions.

    Pairs are ranked by score descending with (utterance id, word index)
    as the deterministic tie-break; AP sums precision at each positive rank
    times the recall step.
    """
    pairs = []
    for row_i, utt_id in enumerate(table.utt_ids):
        ref = reference.get(utt_id)
        if ref is None:
            raise DataError(f"utterance {utt_id!r} has no reference")
        row = table.scores[row_i]
        for w, word in enumerate(table.vocab.words):
            pairs.append((-float(row[w]), utt_id, w, word in ref))
    pairs.sort(key=lambda p: p[:3])
    n_pos = sum(1 for p in pairs if p[3])
    if n_pos == 0:
        raise DataError("no positive (utterance, word) pairs; AP undefined")
    ap = 0.0
    seen_pos = 0
    for rank, pair in enumerate(pairs, 1):
        if pair[3]:
            seen_pos += 1
            ap += seen_pos / rank
    return ap / n_pos


# -- keyword spotting ------------------------------------------------------------

def select_keywords(reference, vocab, count=20, min_occurrences=5, seed=0):
    """Draw query words uniformly among those with enough true occurrences."""
    if count < 1:
        raise ConfigError(f"keyword count must be >= 1, got {count}")
    occurrences = {
        word: sum(1 for ref in reference.values() if word in ref)
        for word in vocab.words
    }
    eligible = sorted(w for w, n in occurrences.items() if n >= min_occurrences)
    if not eligible:
        raise DataError(
            f"no vocabulary word occurs >= {min_occurrences} times; "
            "cannot select keywords"
        )
    rng = np.random.default_rng(seed)
    take = min(count, len(eligible))
    picked = rng.choice(len(eligible), size=take, replace=False)
    return [eligible[i] for i in picked]


def _eer(positives, negatives):
    """Equal error rate from a threshold sweep, linearly interpolated.

    Thresholds start above every score, then descend through the distinct
    scores; an utterance is accepted when its score >= threshold.
    """
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if positives.size == 0:
        raise DataError("EER needs at least one positive")
    if negatives.size == 0:
        return 0.0
    fa_prev, fr_prev = 0.0, 1.0
    for tau in sorted(set(positives.tolist()) | set(negatives.tolist()), reverse=True):
        fa = float((negatives >= tau).sum()) / negatives.size
        fr = float((positives < tau).sum()) / positives.size
        if fa >= fr:
            if fa == fr:
                return fa
            # crossing lies between the previous and this operating point
            t = (fr_prev - fa_prev) / ((fa - fa_prev) - (fr - fr_prev))
            return fa_prev + t * (fa - fa_prev)
        fa_prev, fr_prev = fa, fr
    # below the lowest score everything is accepted: (fa, fr) = (1, 0)
    t = (fr_prev - fa_prev) / ((1.0 - fa_prev) - (0.0 - fr_prev))
    return fa_prev + t * (1.0 - fa_prev)


def keyword_spot(table, keywords, reference, semantic_map=None):
    """P@10, P@N, and EER per keyword plus averages.

    Utterances are ranked by the keyword's score column, ties broken by
    utterance id. A hit is an utterance whose reference contains the
    keyword, or in semantic mode any word the map accepts for it. Keywords
    with zero true occurrences are excluded with a warning.
    """
    per_keyword = {}
    excluded = []
    for kw in keywords:
        if kw not in table.vocab:
            raise DataError(f"keyword {kw!r} is not in the vocabulary")
        if semantic_map is None:
            accepted = {kw}
        else:
            if kw not in semantic_map:
                raise DataError(f"keyword {kw!r} missing from the semantic map")
            accepted = set(semantic_map[kw]) | {kw}
        col = table.vocab.index[kw]
        hits = np.array(
            [bool(reference[utt_id] & accepted) for utt_id in table.utt_ids]
        )
        n_true = int(hits.sum())
        if n_true == 0:
            warnings.warn(f"keyword {kw!r} has no true occurrences; excluded")
            excluded.append(kw)
            continue
        order = sorted(
            range(len(table.utt_ids)),
            key=lambda i: (-float(table.scores[i, col]), table.utt_ids[i]),
        )
        ranked_hits = hits[order]
        p_at_10 = float(ranked_hits[:10].sum()) / 10.0
        p_at_n = float(ranked_hits[:n_true].sum()) / n_true
        scores_col = table.scores[:, col].astype(np.float64)
        eer = _eer(scores_col[hits], scores_col[~hits])
        per_keyword[kw] = {
            "p_at_10": p_at_10,
            "p_at_n": p_at_n,
            "eer": eer,
            "occurrences": n_true,
        }
    if not per_keyword:
        raise DataError("no keyword had any true occurrence")
    average = {
        key: float(np.mean([v[key] for v in per_keyword.values()]))
        for key in ("p_at_10", "p_at_n", "eer")
    }
    return {
        "mode": "semantic" if semantic_map is not None else "exact",
        "per_keyword": per_keyword,
        "average": average,
        "average_percent": {k: 100.0 * v for k, v in average.items()},
        "excluded": excluded,
    }


# -- baselines and diagnostics ------------------------------------------------------

def unigram_baseline(transcriptions, vocab, utt_ids):
    """Every row is the same vector of training-corpus unigram probabilities.

    Probability is token count over total token count, so words outside the
    vocabulary still weigh down the in-vocabulary entries.
    """
    counts = np.zeros(len(vocab))
    total = 0
    for tokens in transcriptions.values():
        for tok in tokens:
            total += 1
            i = vocab.index.get(tok.lower())
            if i is not None:
                counts[i] += 1
    if total == 0:
        raise DataError("empty training transcriptions")
    row = (counts / total).astype(np.float32)
    return ScoreTable(list(utt_ids), np.tile(row, (len(utt_ids), 1)), vocab)


def confusion_report(table, reference, alpha):
    """Rows of (falsely predicted word, co-occurring reference word, count).

    Ordered by the predicted word's total false-alarm count, then
    lexicographically; within a predicted word by count then word.
    """
    predictions = bow_predict(table, alpha)
    co = {}
    fa_counts = {}
    for utt_id, pred in predictions.items():
        ref = reference[utt_id]
        for word in pred - ref:
            fa_counts[word] = fa_counts.get(word, 0) + 1
            bucket = co.setdefault(word, {})
            for ref_word in ref:
                bucket[ref_word] = bucket.get(ref_word, 0) + 1
    rows = []
    for word in sorted(co, key=lambda w: (-fa_counts[w], w)):
        for ref_word, n in sorted(co[word].items(), key=lambda kv: (-kv[1], kv[0])):
            rows.append((word, ref_word, n))
    return rows


# -- semantic map ---------------------------------------------------------------------

def save_semantic_map(path, mapping):
    """JSON object: keyword -> sorted list of acceptable match words."""
    doc = {kw: sorted(set(words) | {kw}) for kw, words in mapping.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_semantic_map(path):
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: semantic map must be a JSON object")
    mapping = {}
    for kw, words in doc.items():
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise DataError(f"{path}: entry {kw!r} must map to a list of words")
        mapping[kw] = frozenset(w.lower() for w in words) | {kw.lower()}
    return mapping
