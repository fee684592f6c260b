"""Evaluation tasks against the independent oracles in oracles.py."""

import numpy as np
import pytest

from gkw.errors import ConfigError, DataError, FormatError
from gkw.evaluation import (
    ScoreTable,
    average_precision,
    bow_metrics,
    bow_predict,
    build_reference,
    confusion_report,
    keyword_spot,
    load_semantic_map,
    save_semantic_map,
    select_keywords,
    unigram_baseline,
)
from gkw.targets import Vocabulary

from oracles import (
    oracle_average_precision,
    oracle_bow_metrics,
    oracle_eer,
    oracle_precision_at,
    random_eval_instance,
    reader_leaks,
)


def table_of(rows, words, ids=None):
    ids = ids or [f"u{k}" for k in range(len(rows))]
    return ScoreTable(ids, np.array(rows, dtype=np.float32), Vocabulary(words))


# -- bow_predict -------------------------------------------------------------

def test_bow_predict_boundaries():
    table = table_of([[0.8, 0.3, 0.71]], ["a1", "b2", "c3"])
    assert bow_predict(table, 1.0) == {"u0": set()}
    assert bow_predict(table, 0.0) == {"u0": {"a1", "b2", "c3"}}
    assert bow_predict(table, 0.7) == {"u0": {"a1", "c3"}}


def test_bow_predict_bad_alpha():
    table = table_of([[0.5]], ["a1"])
    with pytest.raises(ConfigError):
        bow_predict(table, 1.5)


# -- bow_metrics -------------------------------------------------------------

def test_bow_metrics_single_utterance():
    got = bow_metrics({"u0": {"a", "b"}}, {"u0": frozenset({"b", "c"})})
    assert got["precision"] == 0.5
    assert got["recall"] == 0.5
    assert got["fscore"] == 0.5


def test_bow_metrics_perfect():
    ref = {"u0": frozenset({"a"}), "u1": frozenset({"b", "c"})}
    got = bow_metrics({"u0": {"a"}, "u1": {"b", "c"}}, ref)
    assert got["precision"] == got["recall"] == got["fscore"] == 1.0


def test_bow_metrics_zero_denominators_flagged():
    got = bow_metrics({"u0": set()}, {"u0": frozenset({"a"})})
    assert got["precision"] == 0.0 and got["fscore"] == 0.0
    assert "no_predictions" in got["flags"]
    got = bow_metrics({"u0": {"a"}}, {"u0": frozenset()})
    assert got["recall"] == 0.0
    assert "empty_reference" in got["flags"]


def test_bow_metrics_empty_corpus():
    with pytest.raises(DataError):
        bow_metrics({}, {})


def test_bow_metrics_matches_counting_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        table, reference = random_eval_instance(rng)
        preds = bow_predict(table, float(rng.uniform(0.2, 0.8)))
        got = bow_metrics(preds, reference)
        p, r, f = oracle_bow_metrics(preds, reference)
        assert got["precision"] == p and got["recall"] == r and got["fscore"] == f


# -- average_precision ----------------------------------------------------------

def test_ap_perfect_ranking():
    ref = {"u0": frozenset({"a"}), "u1": frozenset()}
    table = table_of([[0.9], [0.2]], ["a"], ids=["u0", "u1"])
    assert average_precision(table, ref) == 1.0


def test_ap_pinned_example():
    # pairs 0.9+, 0.8-, 0.7+ -> AP = (1 + 2/3) / 2
    ref = {"u0": frozenset({"a"}), "u1": frozenset(), "u2": frozenset({"a"})}
    table = table_of([[0.9], [0.8], [0.7]], ["a"], ids=["u0", "u1", "u2"])
    ap = average_precision(table, ref)
    assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12
    assert abs(ap - 0.8333) < 1e-4


def test_ap_no_positives():
    table = table_of([[0.5]], ["a"])
    with pytest.raises(DataError):
        average_precision(table, {"u0": frozenset()})


def test_ap_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(62)
    for _ in range(60):
        table, reference = random_eval_instance(rng)
        got = average_precision(table, reference)
        assert abs(got - oracle_average_precision(table, reference)) < 1e-9


def test_ap_invariant_under_monotone_transform():
    rng = np.random.default_rng(63)
    table, reference = random_eval_instance(rng)
    cubed = ScoreTable(table.utt_ids, table.scores ** 3, table.vocab)
    assert average_precision(table, reference) == average_precision(cubed, reference)


# -- keyword spotting --------------------------------------------------------------

def kws_reference(table, extra=()):
    ref = {}
    rng = np.random.default_rng(64)
    for utt_id in table.utt_ids:
        ref[utt_id] = frozenset(
            {w for w in table.vocab.words if rng.uniform() < 0.5} | set(extra)
        )
    return ref


def test_keyword_spot_perfect_separation():
    words = ["kw"]
    ids = [f"u{k}" for k in range(30)]
    scores = np.concatenate([np.linspace(0.9, 0.8, 15), np.linspace(0.3, 0.1, 15)])
    table = ScoreTable(ids, scores[:, None].astype(np.float32), Vocabulary(words))
    ref = {u: frozenset({"kw"} if k < 15 else set()) for k, u in enumerate(ids)}
    got = keyword_spot(table, ["kw"], ref)["per_keyword"]["kw"]
    assert got["p_at_10"] == 1.0
    assert got["p_at_n"] == 1.0
    assert got["eer"] == 0.0


def test_keyword_spot_pinned_eer_crossing():
    ids = ["u0", "u1", "u2", "u3"]
    scores = np.array([[0.9], [0.4], [0.6], [0.1]], dtype=np.float32)
    table = ScoreTable(ids, scores, Vocabulary(["kw"]))
    ref = {
        "u0": frozenset({"kw"}),
        "u1": frozenset({"kw"}),
        "u2": frozenset(),
        "u3": frozenset(),
    }
    got = keyword_spot(table, ["kw"], ref)["per_keyword"]["kw"]
    assert got["eer"] == 0.5


def test_keyword_spot_constant_scores_eer_half():
    ids = [f"u{k}" for k in range(20)]
    table = ScoreTable(
        ids, np.full((20, 1), 0.37, dtype=np.float32), Vocabulary(["kw"])
    )
    ref = {u: frozenset({"kw"} if k % 3 == 0 else set()) for k, u in enumerate(ids)}
    got = keyword_spot(table, ["kw"], ref)["per_keyword"]["kw"]
    assert got["eer"] == 0.5


def test_keyword_spot_matches_oracles():
    rng = np.random.default_rng(65)
    checked = 0
    for _ in range(60):
        table, reference = random_eval_instance(rng)
        keywords = [
            w for w in table.vocab.words
            if any(w in reference[u] for u in table.utt_ids)
        ]
        if not keywords:
            continue
        got = keyword_spot(table, keywords, reference)
        for kw in keywords:
            per = got["per_keyword"][kw]
            p10, n_true = oracle_precision_at(table, reference, kw)
            pn, _ = oracle_precision_at(table, reference, kw, k="N")
            assert per["p_at_10"] == p10
            assert per["p_at_n"] == pn
            assert per["occurrences"] == n_true
            col = table.vocab.index[kw]
            scores = table.scores[:, col].astype(np.float64)
            hits = np.array([kw in reference[u] for u in table.utt_ids])
            if hits.all():
                # no negatives: nothing can be falsely accepted
                assert per["eer"] == 0.0
            else:
                assert abs(per["eer"] - oracle_eer(scores[hits], scores[~hits])) < 1e-9
            checked += 1
    assert checked > 100


def test_keyword_spot_column_independence():
    rng = np.random.default_rng(66)
    table, reference = random_eval_instance(rng)
    kw = next(
        w for w in table.vocab.words if any(w in reference[u] for u in table.utt_ids)
    )
    before = keyword_spot(table, [kw], reference)["per_keyword"][kw]
    col = table.vocab.index[kw]
    perturbed = table.scores.copy()
    for w in range(perturbed.shape[1]):
        if w != col:
            perturbed[:, w] = rng.uniform(size=len(table.utt_ids))
    after = keyword_spot(
        ScoreTable(table.utt_ids, perturbed, table.vocab), [kw], reference
    )["per_keyword"][kw]
    assert before == after


def test_keyword_spot_semantic_superset():
    rng = np.random.default_rng(67)
    words = [f"w{i}" for i in range(5)]
    table, reference = random_eval_instance(rng)
    keywords = [
        w for w in table.vocab.words if any(w in reference[u] for u in table.utt_ids)
    ]
    semantic_map = {kw: frozenset({kw, "zzq"}) for kw in keywords}
    exact = keyword_spot(table, keywords, reference)
    semantic = keyword_spot(table, keywords, reference, semantic_map=semantic_map)
    assert semantic["mode"] == "semantic"
    for kw in keywords:
        assert (
            semantic["per_keyword"][kw]["p_at_10"]
            >= exact["per_keyword"][kw]["p_at_10"]
        )


def test_keyword_spot_zero_occurrence_excluded():
    table = table_of([[0.5, 0.5]], ["a1", "b2"])
    ref = {"u0": frozenset({"a1"})}
    with pytest.warns(UserWarning, match="b2"):
        got = keyword_spot(table, ["a1", "b2"], ref)
    assert got["excluded"] == ["b2"]
    assert "b2" not in got["per_keyword"]


def test_keyword_spot_unknown_keyword():
    table = table_of([[0.5]], ["a1"])
    with pytest.raises(DataError):
        keyword_spot(table, ["zz"], {"u0": frozenset({"a1"})})


def test_keyword_spot_semantic_needs_map_entry():
    table = table_of([[0.5]], ["a1"])
    with pytest.raises(DataError, match="semantic map"):
        keyword_spot(table, ["a1"], {"u0": frozenset({"a1"})}, semantic_map={})


# -- select_keywords -----------------------------------------------------------------

def test_select_keywords_eligibility_and_determinism():
    vocab = Vocabulary(["common", "rare"])
    ref = {f"u{k}": frozenset({"common"}) for k in range(6)}
    ref["u9"] = frozenset({"rare"})
    got = select_keywords(ref, vocab, count=5, min_occurrences=5, seed=1)
    assert got == ["common"]
    assert got == select_keywords(ref, vocab, count=5, min_occurrences=5, seed=1)
    with pytest.raises(DataError):
        select_keywords(ref, vocab, count=5, min_occurrences=50, seed=1)


def test_select_keywords_draws_without_replacement():
    vocab = Vocabulary([f"w{i}" for i in range(10)])
    ref = {f"u{k}": frozenset(vocab.words) for k in range(6)}
    got = select_keywords(ref, vocab, count=7, min_occurrences=5, seed=3)
    assert len(got) == 7
    assert len(set(got)) == 7


# -- unigram baseline -----------------------------------------------------------------

def test_unigram_baseline_pinned_example():
    vocab = Vocabulary(["dog", "cat"])
    table = unigram_baseline({"t0": ["dog", "dog", "cat"]}, vocab, ["u0", "u1"])
    assert np.allclose(table.scores, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]])
    assert np.array_equal(table.scores[0], table.scores[1])


def test_unigram_baseline_counts_oov_in_denominator():
    vocab = Vocabulary(["dog"])
    table = unigram_baseline({"t0": ["dog", "the", "the", "the"]}, vocab, ["u0"])
    assert np.allclose(table.scores, [[0.25]])


# -- confusion report ------------------------------------------------------------------

def test_confusion_report_empty_when_clean():
    table = table_of([[0.9, 0.1]], ["a1", "b2"])
    ref = {"u0": frozenset({"a1"})}
    assert confusion_report(table, ref, 0.5) == []


def test_confusion_report_pinned_example():
    table = table_of([[0.9]], ["snow"])
    ref = {"u0": frozenset({"snowy", "hill"})}
    rows = confusion_report(table, ref, 0.5)
    assert rows == [("snow", "hill", 1), ("snow", "snowy", 1)]


# -- score table files --------------------------------------------------------------------

def test_score_table_roundtrip(tmp_path):
    rng = np.random.default_rng(68)
    table, _ = random_eval_instance(rng)
    path = tmp_path / "scores.tsv"
    table.save(path)
    loaded = ScoreTable.load(path, vocab=table.vocab)
    assert loaded.utt_ids == table.utt_ids
    assert np.array_equal(loaded.scores, table.scores)
    first = path.read_bytes()
    table.save(path)
    assert path.read_bytes() == first


def test_score_table_header_mismatch(tmp_path):
    table = table_of([[0.5]], ["a1"])
    path = tmp_path / "scores.tsv"
    table.save(path)
    with pytest.raises(DataError):
        ScoreTable.load(path, vocab=Vocabulary(["b2"]))


def test_score_table_bad_files(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("not a header\n")
    with pytest.raises(DataError, match="header"):
        ScoreTable.load(path)
    path.write_text("utt_id\ta1,b2\nu0\t0.5\n")
    with pytest.raises(DataError, match="2"):
        ScoreTable.load(path)
    path.write_text("utt_id\ta1\nu0\t1.5\n")
    with pytest.raises(DataError):
        ScoreTable.load(path)


def test_score_table_validation():
    with pytest.raises(DataError):
        table_of([[1.2]], ["a1"])
    with pytest.raises(DataError):
        ScoreTable(["u0", "u0"], np.zeros((2, 1), dtype=np.float32), Vocabulary(["a1"]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_table_refuses_non_finite_scores(bad):
    # NaN compares False against both bounds, so a range check alone lets it in
    with pytest.raises(DataError, match="finite"):
        table_of([[bad, 0.5]], ["a1", "b2"])


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_score_table_load_refuses_non_finite_scores(tmp_path, text):
    path = tmp_path / "scores.tsv"
    path.write_text(f"utt_id\ta1,b2\nu0\t{text},0.5\n")
    with pytest.raises(FormatError, match=r":2: .*finite"):
        ScoreTable.load(path)


def test_score_table_fuzz_raises_only_data_errors(tmp_path):
    """600 truncated, bit-flipped and overwritten copies of a score table:
    each one loads or raises a DataError, never another error."""
    path = tmp_path / "scores.tsv"
    table_of([[0.5, 0.25, 1.0], [0.0, 0.75, 0.125]], ["dog", "café", "über"]).save(path)
    blob = path.read_bytes()
    header_len = blob.index(b"\n") + 1
    leaks = reader_leaks(ScoreTable.load, tmp_path / "damaged.tsv", blob, 600, seed=8,
                         header_len=header_len, size_offsets=(0, header_len, len(blob) - 4))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


# -- semantic map ------------------------------------------------------------------------

def test_semantic_map_roundtrip(tmp_path):
    path = tmp_path / "map.json"
    save_semantic_map(path, {"girl": {"young", "lady"}})
    loaded = load_semantic_map(path)
    assert loaded["girl"] == frozenset({"girl", "young", "lady"})


def test_semantic_map_always_accepts_keyword(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"girl": ["young"]}\n')
    assert "girl" in load_semantic_map(path)["girl"]


def test_semantic_map_bad_files(tmp_path):
    path = tmp_path / "map.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(DataError):
        load_semantic_map(path)
    path.write_text('{"girl": "young"}\n')
    with pytest.raises(DataError):
        load_semantic_map(path)
    path.write_text("{broken\n")
    with pytest.raises(DataError, match="JSON"):
        load_semantic_map(path)


def test_semantic_map_fuzz_raises_only_data_errors(tmp_path):
    path = tmp_path / "semantic.json"
    save_semantic_map(path, {"dog": ["puppy", "hound"], "café": ["bistro", "crème"]})
    blob = path.read_bytes()
    leaks = reader_leaks(load_semantic_map, tmp_path / "damaged.json", blob, 600, seed=9,
                         header_len=len(blob), size_offsets=(0, len(blob) // 2, len(blob) - 4))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


def test_build_reference_keeps_oov_and_lowercases():
    ref = build_reference({"u0": ["Dog", "ZZQ", "dog"]})
    assert ref["u0"] == frozenset({"dog", "zzq"})
