"""Architectures, loss, training loop, checkpoints, gradient harness."""

import gc
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from gkw import models, ops
from gkw.errors import ConfigError, DataError, FormatError, InvalidInputError, NumericError
from gkw.models import (
    SpeechModel,
    TrainConfig,
    bow_loss,
    cnn_pool,
    forward_cnn,
    forward_psc,
    gradient_check,
    load_checkpoint,
    psc,
    save_checkpoint,
    score_utterances,
    toy_spec,
    train,
)
from gkw.targets import Vocabulary
from gkw.tensor import Tensor, no_grad

from oracles import pad, reader_leaks, reference_forward, unpack


def toy_corpus(rng, spec, n=20, vocab_size=5):
    """Prototype-concatenation utterances that a toy model can learn."""
    protos = rng.normal(size=(vocab_size, 16, spec.input_dim))
    feats, targs, ids = {}, {}, []
    for k in range(n):
        words = rng.choice(vocab_size, size=int(rng.integers(4, 6)), replace=True)
        mat = np.concatenate([protos[w] for w in words])
        mat = mat + rng.normal(size=mat.shape) * 0.1
        uid = f"u{k:03d}"
        feats[uid] = mat.astype(np.float32)
        vec = np.zeros(vocab_size, dtype=np.float32)
        vec[np.unique(words)] = 1.0
        targs[uid] = vec
        ids.append(uid)
    return feats, targs, ids


# -- shape contracts ----------------------------------------------------------

def test_cnn_time_extents_and_minimum():
    spec = cnn_pool(1000)
    assert spec.time_extents(800) == [792, 264, 255, 85, 75]
    assert spec.min_frames == 126


def test_psc_time_extents_and_minimum():
    spec = psc(1000)
    assert spec.time_extents(800) == [792, 783, 774, 765, 756, 747]
    assert spec.min_frames == 54


def test_forward_records_extents():
    spec = toy_spec("cnn-pool")
    model = SpeechModel(spec, seed=0)
    model.forward(np.zeros((200, spec.input_dim), dtype=np.float32))
    assert model.last_time_extents == spec.time_extents(200)


def test_output_shape_and_range():
    rng = np.random.default_rng(1)
    for variant in ("cnn-pool", "psc"):
        spec = toy_spec(variant, vocab_size=4)
        model = SpeechModel(spec, seed=2)
        x = rng.normal(size=(spec.min_frames + 10, spec.input_dim)).astype(np.float32)
        probs = model.predict(x)
        assert probs.shape == (4,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_too_short_input_names_minimum():
    spec = toy_spec("cnn-pool")
    model = SpeechModel(spec, seed=0)
    with pytest.raises(InvalidInputError, match=str(spec.min_frames)):
        model.predict(np.zeros((spec.min_frames - 1, spec.input_dim), dtype=np.float32))


def test_wrong_feature_dim():
    spec = toy_spec("psc")
    model = SpeechModel(spec, seed=0)
    with pytest.raises(DataError):
        model.predict(np.zeros((60, spec.input_dim + 1), dtype=np.float32))


def test_zero_output_layer_gives_half():
    spec = toy_spec("cnn-pool", vocab_size=4)
    model = SpeechModel(spec, seed=3)
    model.params["dense2.weights"].data[:] = 0.0
    model.params["dense2.bias"].data[:] = 0.0
    probs = model.predict(np.random.default_rng(0).normal(size=(130, 8)).astype(np.float32))
    assert np.all(probs == 0.5)


def test_forward_is_pure():
    spec = toy_spec("psc")
    model = SpeechModel(spec, seed=4)
    x = np.random.default_rng(5).normal(size=(60, 8)).astype(np.float32)
    assert np.array_equal(model.predict(x), model.predict(x))


def test_masking_invariance():
    # appending padding frames must not change the output at all
    rng = np.random.default_rng(6)
    for variant in ("cnn-pool", "psc"):
        spec = toy_spec(variant)
        model = SpeechModel(spec, seed=7)
        T = spec.min_frames + 9
        x = rng.normal(size=(T, spec.input_dim)).astype(np.float32)
        plain = model.forward(x).data[0]
        padded = np.concatenate([x, rng.normal(size=(25, spec.input_dim)).astype(np.float32)])
        batch = np.stack([padded, padded])
        masked = model.forward(batch, lengths=np.array([T, T + 25])).data[0]
        assert np.abs(masked - plain).max() <= 1e-6
        # no lengths means every row is whole
        assert np.array_equal(model.forward(batch).data,
                              model.forward(batch, np.full(2, T + 25)).data)


@pytest.mark.parametrize("make", [cnn_pool, psc])
def test_forward_rows_match_the_padded_reference(make):
    """A ragged B=32 batch, packed, gives every utterance's probabilities
    (and psc's score map) bitwise as the padded, masked computation."""
    rng = np.random.default_rng(30)
    model = SpeechModel(make(20), seed=3)
    lengths = rng.integers(128, 260, size=32)
    batch = pad([rng.normal(size=(n, 39)).astype(np.float32) for n in lengths], fill=1e3)
    with no_grad():
        if make is psc:
            probs, h, h_lengths = model.forward(batch, lengths, return_scores=True)
        else:
            probs = model.forward(batch, lengths)
    want = reference_forward(model, batch, lengths, scores=make is psc)
    if make is psc:
        want, want_h, want_h_lengths = want
        assert np.array_equal(h_lengths, want_h_lengths)
        for b, rows in enumerate(unpack(h.data, h_lengths)):
            assert np.array_equal(rows, want_h[b, :h_lengths[b]]), b
    assert probs.data.dtype == want.dtype == np.float32
    assert np.array_equal(probs.data, want)


@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_perturbing_one_utterance_leaves_the_other_rows_bitwise(variant):
    rng = np.random.default_rng(31)
    spec = toy_spec(variant, vocab_size=4)
    model = SpeechModel(spec, seed=5)
    lengths = spec.min_frames + np.array([0, 7, 2, 13])
    batch = rng.normal(size=(4, lengths.max(), spec.input_dim)).astype(np.float32)
    before = model.forward(batch, lengths).data
    for b in range(4):
        changed = batch.copy()
        changed[b, :lengths[b]] = rng.normal(size=(lengths[b], spec.input_dim)) * 10
        after = model.forward(changed, lengths).data
        for k in range(4):
            assert np.array_equal(before[k], after[k]) == (k != b), (b, k)


@pytest.mark.parametrize("variant, lengths", [
    # cnn-pool: the minimum length, and tails of 0, 1 and 2 frames at both pools
    ("cnn-pool", [126, 129, 127, 134]),
    ("psc", [54, 60, 57, 71]),
])
def test_gradient_check_on_a_ragged_batch(variant, lengths):
    spec = toy_spec(variant)
    assert min(lengths) == spec.min_frames
    err, worst = gradient_check(spec, seed=3, frames=lengths)
    assert err <= 1e-6, f"{variant}: {err} at {worst}"


def test_forward_refuses_lengths_outside_the_batch():
    spec = toy_spec("psc")
    model = SpeechModel(spec, seed=0)
    batch = np.zeros((2, 60, spec.input_dim), dtype=np.float32)
    for lengths in ([60, 61], [60], [0, 60]):
        with pytest.raises(DataError, match="lengths"):
            model.forward(batch, lengths)
    # a (T, D) matrix is one utterance; the ops would read it as two packed
    with pytest.raises(DataError, match="lengths"):
        model.forward(batch[0], [30, 30])


def test_psc_localization_consistency():
    spec = toy_spec("psc", vocab_size=4)
    model = SpeechModel(spec, seed=8)
    x = np.random.default_rng(9).normal(size=(70, 8)).astype(np.float32)
    probs, h = forward_psc(model, x)
    assert h.shape == (70 - 8 - 5 * 9, 4)
    recomputed = ops.sigmoid(ops.logsumexp_pool(Tensor(h), spec.r)).data
    assert np.array_equal(probs, recomputed)


def test_psc_constant_input_gives_sigmoid_of_h():
    spec = toy_spec("psc", vocab_size=3)
    model = SpeechModel(spec, seed=10)
    x = np.full((60, 8), 0.3, dtype=np.float32)
    probs, h = forward_psc(model, x)
    assert np.abs(h - h[0]).max() < 1e-5
    expit = 1.0 / (1.0 + np.exp(-h[0].astype(np.float64)))
    assert np.abs(probs - expit).max() < 1e-6


def test_variant_dispatch_guards():
    cnn_model = SpeechModel(toy_spec("cnn-pool"), seed=0)
    psc_model = SpeechModel(toy_spec("psc"), seed=0)
    x = np.zeros((130, 8), dtype=np.float32)
    with pytest.raises(ConfigError):
        forward_psc(cnn_model, x)
    with pytest.raises(ConfigError):
        forward_cnn(psc_model, x)


def test_return_scores_needs_psc():
    model = SpeechModel(toy_spec("cnn-pool"), seed=0)
    with pytest.raises(ConfigError, match="psc"):
        model.forward(np.zeros((130, 8), dtype=np.float32), return_scores=True)


def _live_tensors():
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_no_grad_forward_frees_its_graph_at_once(variant):
    model = SpeechModel(toy_spec(variant, vocab_size=4), seed=4)
    x = np.random.default_rng(23).normal(size=(2, 140, 8))
    lengths = [140, 131]
    targets = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.float32)
    expected = model.forward(x, lengths).data.copy()
    gc.collect()
    gc.disable()
    try:
        before = _live_tensors()
        with no_grad():
            probs = model.forward(x, lengths)
            loss = bow_loss(probs, targets)
        assert np.array_equal(probs.data, expected)
        with pytest.raises(ValueError, match="requires a gradient"):
            loss.backward()
        freed = weakref.ref(probs.data)
        del probs, loss
        assert freed() is None
        assert _live_tensors() == before
    finally:
        gc.enable()


def _held_arrays(root):
    """Distinct arrays (by their base buffer) of the tensors reachable from
    `root` other than parameters: what a backward sweep keeps alive."""
    held, seen, stack = {}, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._parents or not node.requires_grad:
            base = node.data
            while base.base is not None:
                base = base.base
            held[id(base)] = base
    return list(held.values())


@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_training_graph_holds_one_array_per_layer(variant):
    """The packed input, one array per layer (a ReLU runs in place on its
    layer's output) and the loss. A dense layer's sigmoid is an op of its
    own, which keeps its own array."""
    spec = toy_spec(variant, vocab_size=4)
    model = SpeechModel(spec, seed=4)
    x = np.random.default_rng(24).normal(size=(2, 140, 8))
    loss = bow_loss(model.forward(x, [140, 131]), np.eye(4, dtype=np.float32)[:2])
    sigmoids = sum(l[0] == "dense" and l[2] == "sigmoid" for l in spec.layers)
    assert len(_held_arrays(loss)) == 1 + len(spec.layers) + sigmoids + 1


def test_lone_cnn_pool_forward_is_bitwise_its_row_in_a_batch_of_two():
    """A lone utterance's dense layers run as two-row products, so the
    one-row BLAS kernel does not round its probabilities differently."""
    rng = np.random.default_rng(25)
    model = SpeechModel(cnn_pool(20), seed=0)
    x = rng.normal(size=(300, 39)).astype(np.float32)
    other = rng.normal(size=(260, 39)).astype(np.float32)
    lone = model.predict(x)
    with no_grad():
        first = model.forward(pad([x, other]), [300, 260]).data[0]
        second = model.forward(pad([other, x]), [260, 300]).data[1]
    assert np.array_equal(lone, first)
    assert np.array_equal(lone, second)


def test_spec_validation():
    with pytest.raises(ConfigError):
        models.ArchitectureSpec("mlp", 3, 8, (("dense", 3, "sigmoid"),))
    with pytest.raises(ConfigError):
        psc(5, conv_filters=(4, 4, 4, 4, 4), r=0.0)


# -- loss -----------------------------------------------------------------------

def test_loss_symmetric_point():
    loss = bow_loss(Tensor(np.array([0.5])), np.array([0.5]))
    assert abs(loss.data.item() - np.log(2.0)) < 1e-7
    assert abs(loss.data.item() - 0.693147) < 1e-6


def test_loss_pinned_example():
    loss = bow_loss(Tensor(np.array([0.9, 0.1])), np.array([1.0, 0.0]))
    assert abs(loss.data.item() - (-2.0 * np.log(0.9))) < 1e-7
    assert abs(loss.data.item() - 0.210721) < 1e-6


def test_loss_gradient_zero_at_target():
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.uniform(0.05, 0.95, size=6)
        pred = Tensor(y.copy(), requires_grad=True)
        bow_loss(pred, y).backward()
        assert np.abs(pred.grad).max() <= 1e-6


def test_loss_entropy_floor():
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = rng.uniform(0.01, 0.99, size=8)
        loss = bow_loss(Tensor(y.copy()), y).data.item()
        floor = -(y * np.log(y) + (1 - y) * np.log1p(-y)).sum()
        assert abs(loss - floor) < 1e-6
        f = rng.uniform(0.01, 0.99, size=8)
        assert bow_loss(Tensor(f), y).data.item() >= floor - 1e-9


def test_loss_nonnegative_for_binary_targets():
    rng = np.random.default_rng(13)
    for _ in range(50):
        y = (rng.uniform(size=5) < 0.5).astype(np.float64)
        f = rng.uniform(1e-6, 1 - 1e-6, size=5)
        assert bow_loss(Tensor(f), y).data.item() >= 0.0


def test_loss_batch_is_mean_over_rows():
    rng = np.random.default_rng(14)
    preds = rng.uniform(0.1, 0.9, size=(3, 4))
    ys = (rng.uniform(size=(3, 4)) < 0.5).astype(np.float64)
    batch = bow_loss(Tensor(preds.copy()), ys).data.item()
    singles = [bow_loss(Tensor(preds[i]), ys[i]).data.item() for i in range(3)]
    assert abs(batch - np.mean(singles)) < 1e-9


def test_loss_dimension_mismatch():
    with pytest.raises(DataError):
        bow_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0]))


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    y = rng.uniform(size=5)
    f = rng.uniform(0.05, 0.95, size=5)
    pred = Tensor(f.copy(), requires_grad=True)
    bow_loss(pred, y).backward()
    step = 1e-7
    for i in range(5):
        fp = f.copy(); fp[i] += step
        fm = f.copy(); fm[i] -= step
        num = (bow_loss(Tensor(fp), y).data - bow_loss(Tensor(fm), y).data) / (2 * step)
        assert abs(pred.grad[i] - num) < 1e-5


# -- training ---------------------------------------------------------------------

def test_train_loss_decreases():
    rng = np.random.default_rng(16)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=30)
    _, meta = train(
        feats, targs, ids[:24], ids[24:], spec,
        TrainConfig(epochs=20, batch_size=8, seed=0, patience=20),
    )
    assert meta["train_loss"][-1] < meta["train_loss"][0]


def test_train_returns_a_model_without_gradients():
    """Adam's step frees the gradients it applied: none outlives training."""
    rng = np.random.default_rng(26)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=12)
    model, _ = train(feats, targs, ids[:8], ids[8:], spec,
                     TrainConfig(epochs=2, batch_size=4, seed=0))
    assert all(p.grad is None for _, p in model.parameters())


def test_overfit_single_utterance():
    rng = np.random.default_rng(17)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=1)
    uid = ids[0]
    model, _ = train(
        feats, targs, [uid], [uid], spec,
        TrainConfig(epochs=200, batch_size=1, seed=1, patience=200, learning_rate=0.01),
    )
    assert np.abs(model.predict(feats[uid]) - targs[uid]).max() < 0.05


def test_train_determinism(tmp_path):
    rng = np.random.default_rng(18)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=16)
    fp = Vocabulary([f"w{i}" for i in range(5)]).fingerprint()

    def run(path):
        model, meta = train(
            feats, targs, ids[:12], ids[12:], spec,
            TrainConfig(epochs=5, batch_size=4, seed=42, patience=5),
        )
        save_checkpoint(path, model, fp, meta)
        return path.read_bytes()

    assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")


def test_train_early_stopping_restores_best(monkeypatch):
    rng = np.random.default_rng(19)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=16)
    calls = []
    monkeypatch.setattr(SpeechModel, "__init__",
                        _recording(SpeechModel.__init__, "SpeechModel", calls))
    model, meta = train(
        feats, targs, ids[:12], ids[12:], spec,
        TrainConfig(epochs=40, batch_size=4, seed=2, patience=3),
    )
    # the trained model, then the one built on the best parameters
    assert calls == ["SpeechModel"] * 2
    dev = meta["dev_loss"]
    assert meta["best_epoch"] == int(np.argmin(dev)) + 1
    # stopped early: the tail after the best epoch is all non-improving
    assert meta["epochs_run"] < 40
    assert meta["epochs_run"] - meta["best_epoch"] >= 3
    # the returned parameters are the best epoch's, bit for bit
    assert models._epoch_loss(model, feats, targs, ids[12:], 4) == dev[meta["best_epoch"] - 1]


def _recording(fn, name, calls, after=None):
    """`fn`, appending `name` to `calls` when it is entered and `after`
    when it returns."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        result = fn(*args, **kwargs)
        if after is not None:
            calls.append(after)
        return result
    return wrapper


@pytest.mark.parametrize("epochs, copies", [(1, 0), (5, 1)])
def test_train_whose_last_epoch_is_best_returns_the_live_model(monkeypatch, epochs, copies):
    """The best parameters are copied only before an epoch overwrites them,
    once, and later improving epochs write into that copy."""
    rng = np.random.default_rng(19)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=16)
    calls = []
    monkeypatch.setattr(SpeechModel, "__init__",
                        _recording(SpeechModel.__init__, "SpeechModel", calls))
    monkeypatch.setattr(SpeechModel, "state", _recording(SpeechModel.state, "state", calls))
    model, meta = train(feats, targs, ids[:12], ids[12:], spec,
                        TrainConfig(epochs=epochs, batch_size=4, seed=2, patience=3))
    assert meta["best_epoch"] == meta["epochs_run"] == epochs
    assert calls == ["SpeechModel"] + ["state"] * copies
    assert models._epoch_loss(model, feats, targs, ids[12:], 4) == meta["dev_loss"][-1]


def test_train_steps_adam_once_per_batch_after_backward_returns(monkeypatch):
    """Adam.step ends each training step after backward has returned, and
    the dev pass runs no backward: a trace tells steps and dev passes apart
    by these calls."""
    from gkw.optim import Adam

    rng = np.random.default_rng(19)
    spec = toy_spec("psc", vocab_size=5)
    feats, targs, ids = toy_corpus(rng, spec, n=16)
    calls = []
    monkeypatch.setattr(Tensor, "backward", _recording(Tensor.backward, "backward", calls,
                                                       after="backward returned"))
    monkeypatch.setattr(Adam, "step", _recording(Adam.step, "step", calls))
    _, meta = train(feats, targs, ids[:10], ids[10:], spec,
                    TrainConfig(epochs=2, batch_size=4, seed=2, patience=3))
    assert meta["epochs_run"] == 2
    assert calls == ["backward", "backward returned", "step"] * (2 * 3)


def test_train_validates_inputs():
    spec = toy_spec("psc", vocab_size=3)
    feats = {"u0": np.zeros((60, 8), dtype=np.float32)}
    targs = {"u0": np.zeros(3, dtype=np.float32)}
    with pytest.raises(DataError, match="u1"):
        train(feats, targs, ["u0", "u1"], ["u0"], spec)
    with pytest.raises(DataError, match="dimension"):
        train(feats, {"u0": np.zeros(4, dtype=np.float32)}, ["u0"], ["u0"], spec)
    short = {"u0": np.zeros((20, 8), dtype=np.float32)}
    with pytest.raises(InvalidInputError, match="u0"):
        train(short, targs, ["u0"], ["u0"], spec)
    with pytest.raises(DataError):
        train(feats, targs, [], ["u0"], spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN is the point
def test_train_divergence_reports_epoch_and_batch():
    rng = np.random.default_rng(20)
    spec = toy_spec("psc", vocab_size=3)
    feats, targs, ids = toy_corpus(rng, spec, n=8, vocab_size=3)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="epoch") as info:
            train(
                feats, targs, ids[:6], ids[6:], spec,
                TrainConfig(epochs=3, batch_size=2, seed=0, patience=5,
                            learning_rate=1e12),
            )
    named = re.search(r"\(utterances ([^)]*)\)", str(info.value))
    assert named, str(info.value)
    batch = named.group(1).split(", ")
    assert len(batch) == 2 and set(batch) <= set(ids[:6])


def test_score_utterances_names_a_too_short_utterance():
    spec = toy_spec("cnn-pool")
    model = SpeechModel(spec, seed=0)
    feats = {
        "utt-long": np.zeros((spec.min_frames + 74, 8), dtype=np.float32),
        "utt-short": np.zeros((spec.min_frames - 1, 8), dtype=np.float32),
    }
    with pytest.raises(InvalidInputError, match="'utt-short' has"):
        score_utterances(model, feats, ["utt-long", "utt-short"])


def test_score_utterances_names_a_missing_utterance():
    model = SpeechModel(toy_spec("psc"), seed=0)
    with pytest.raises(DataError, match="'zz' has no features"):
        score_utterances(model, {}, ["zz"])


def test_score_utterances_matches_predict():
    rng = np.random.default_rng(21)
    spec = toy_spec("psc", vocab_size=4)
    model = SpeechModel(spec, seed=5)
    feats = {
        f"u{k}": rng.normal(size=(int(rng.integers(56, 90)), 8)).astype(np.float32)
        for k in range(7)
    }
    ids = sorted(feats)
    mat = score_utterances(model, feats, ids, batch_size=3)
    for row, uid in enumerate(ids):
        assert np.abs(mat[row] - model.predict(feats[uid])).max() <= 1e-6


def ragged_features(rng, spec, n=11):
    """`n` utterances of a few lengths, each length shared by several."""
    need = spec.min_frames
    lengths = rng.choice([need, need + 4, need + 9, need + 9, need + 17], size=n)
    return {
        f"u{k:02d}": rng.normal(size=(int(t), spec.input_dim)).astype(np.float32)
        for k, t in enumerate(lengths)
    }


def forward_spy(model):
    """Record the lengths of every batch `model.forward` is called with."""
    seen = []
    real = model.forward

    def spy(features, lengths=None, **kwargs):
        seen.append(np.asarray(lengths).copy())
        return real(features, lengths, **kwargs)

    model.forward = spy
    return seen


@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_score_utterances_rows_do_not_depend_on_id_order(variant):
    """Batches are taken in (length, id) order, so scoring any order of the
    same ids runs the same float32 batches: rows equal to the bit."""
    rng = np.random.default_rng(23)
    spec = toy_spec(variant, vocab_size=4)
    model = SpeechModel(spec, seed=6)
    feats = ragged_features(rng, spec)
    ids = list(feats)
    shuffled = [ids[k] for k in rng.permutation(len(ids))]
    first = score_utterances(model, feats, ids, batch_size=4)  # 11 = 4 + 4 + 3
    again = score_utterances(model, feats, shuffled, batch_size=4)
    assert first.dtype == np.float32
    for row, uid in enumerate(shuffled):
        assert np.array_equal(again[row], first[ids.index(uid)])
    for row, uid in enumerate(ids):
        assert np.abs(first[row] - model.predict(feats[uid])).max() <= 1e-6


def test_score_utterances_batches_ascend_in_length():
    rng = np.random.default_rng(24)
    spec = toy_spec("psc", vocab_size=4)
    model = SpeechModel(spec, seed=7)
    feats = ragged_features(rng, spec)
    seen = forward_spy(model)
    score_utterances(model, feats, list(feats)[::-1], batch_size=3)
    assert [len(lengths) for lengths in seen] == [3, 3, 3, 2]
    flat = np.concatenate(seen)
    assert np.array_equal(flat, np.sort([len(m) for m in feats.values()]))
    assert all((np.diff(lengths) >= 0).all() for lengths in seen)


def test_score_utterances_on_map_gets_each_id_once_with_its_own_map():
    rng = np.random.default_rng(25)
    spec = toy_spec("psc", vocab_size=4)
    model = SpeechModel(spec, seed=8)
    feats = ragged_features(rng, spec)
    ids = list(feats)[::-1]
    maps = {}

    def on_map(utt_id, h):
        assert utt_id not in maps
        maps[utt_id] = h.copy()

    mat = score_utterances(model, feats, ids, batch_size=4, on_map=on_map)
    assert sorted(maps) == sorted(ids)
    for row, uid in enumerate(ids):
        probs, h = forward_psc(model, feats[uid])
        assert maps[uid].shape == h.shape
        assert np.abs(maps[uid] - h).max() <= 1e-5
        assert np.abs(mat[row] - probs).max() <= 1e-5


def test_epoch_loss_runs_length_ordered_batches_with_the_same_mean():
    rng = np.random.default_rng(26)
    spec = toy_spec("psc", vocab_size=4)
    model = SpeechModel(spec, seed=9)
    feats = ragged_features(rng, spec)
    ids = list(feats)
    targs = {uid: (rng.uniform(size=4) < 0.5).astype(np.float32) for uid in ids}
    total = 0.0
    with no_grad():
        for start in range(0, len(ids), 4):  # in the order of `ids`
            chunk = ids[start : start + 4]
            batch, lengths = models._pad_batch(feats, chunk, model.dtype)
            targets = np.stack([targs[uid] for uid in chunk])
            total += bow_loss(model.forward(batch, lengths), targets).data.item() * len(chunk)
    seen = forward_spy(model)
    loss = models._epoch_loss(model, feats, targs, ids, 4)
    assert abs(loss - total / len(ids)) <= 1e-6
    assert all((np.diff(lengths) >= 0).all() for lengths in seen)
    assert np.array_equal(np.concatenate(seen), np.sort([len(m) for m in feats.values()]))


# -- checkpoints --------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    spec = toy_spec("cnn-pool", vocab_size=4)
    model = SpeechModel(spec, seed=6)
    vocab = Vocabulary(["a1", "b2", "c3", "d4"])
    meta = {"seed": 6, "note_free": True}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, vocab.fingerprint(), meta)
    loaded, fp, got_meta = load_checkpoint(path, vocab=vocab, variant="cnn-pool")
    assert fp == vocab.fingerprint()
    assert got_meta == meta
    probe = rng.normal(size=(140, 8)).astype(np.float32)
    assert np.abs(loaded.predict(probe) - model.predict(probe)).max() <= 1e-6


def test_checkpoint_f64_roundtrip_is_bitwise(tmp_path):
    model = SpeechModel(toy_spec("psc", vocab_size=4), seed=6, dtype=np.float64)
    weights = model.params["conv1.filters"].data
    assert not np.array_equal(weights, weights.astype(np.float32))  # f32 would round
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x02" * 8, {})
    loaded, _, _ = load_checkpoint(path, dtype=np.float64)
    for (name, p), (_, q) in zip(model.parameters(), loaded.parameters()):
        assert q.data.dtype == np.float64
        assert np.array_equal(p.data, q.data), name


def test_checkpoint_load_peaks_below_twice_the_parameters(tmp_path):
    # the model is built from the stored arrays: no throwaway initialisation
    # is drawn, and each array is copied once
    model = SpeechModel(cnn_pool(20), seed=6)
    param_bytes = sum(p.data.nbytes for _, p in model.parameters())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x04" * 8, {})
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * param_bytes, f"load peaked at {peak / param_bytes:.2f}x the parameters"
    for (name, p), (_, q) in zip(model.parameters(), loaded.parameters()):
        assert q.data.flags.writeable and np.array_equal(p.data, q.data), name


def test_checkpoint_non_finite_parameter_is_format_error(tmp_path):
    model = SpeechModel(toy_spec("psc", vocab_size=4), seed=6)
    model.params["conv2.filters"].data[0, 0, 0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x05" * 8, {})
    with pytest.raises(FormatError, match="not finite"):
        load_checkpoint(path)


def _as_version_1(blob):
    """A version-2 checkpoint of a float32 model, rewritten in the version-1
    layout: no parameter-width field after the metadata."""
    (spec_len,) = struct.unpack("<I", blob[8:12])
    meta_at = 12 + spec_len + 8
    (meta_len,) = struct.unpack("<I", blob[meta_at:meta_at + 4])
    width_at = meta_at + 4 + meta_len
    assert blob[4:8] == struct.pack("<I", 2) and blob[width_at:width_at + 4] == struct.pack("<I", 4)
    return blob[:4] + struct.pack("<I", 1) + blob[8:width_at] + blob[width_at + 4:]


def test_checkpoint_version_1_still_loads(tmp_path):
    model = SpeechModel(toy_spec("cnn-pool", vocab_size=4), seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x03" * 8, {"epochs_run": 1})
    path.write_bytes(_as_version_1(path.read_bytes()))
    loaded, fp, meta = load_checkpoint(path)
    assert fp == b"\x03" * 8 and meta == {"epochs_run": 1}
    for (name, p), (_, q) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data), name


def test_checkpoint_bad_parameter_width_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    blob, _, meta_at, meta_len = _psc_checkpoint(path, {})
    width_at = meta_at + 4 + meta_len
    path.write_bytes(blob[:width_at] + struct.pack("<I", 2) + blob[width_at + 4:])
    with pytest.raises(FormatError, match="width"):
        load_checkpoint(path)


def test_checkpoint_fingerprint_mismatch_names_both(tmp_path):
    spec = toy_spec("psc", vocab_size=3)
    model = SpeechModel(spec, seed=7)
    vocab_a = Vocabulary(["x", "y", "z"])
    vocab_b = Vocabulary(["x", "y", "q"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, vocab_a.fingerprint(), {})
    with pytest.raises(DataError) as err:
        load_checkpoint(path, vocab=vocab_b)
    assert vocab_a.fingerprint().hex() in str(err.value)
    assert vocab_b.fingerprint().hex() in str(err.value)


def test_checkpoint_variant_mismatch(tmp_path):
    model = SpeechModel(toy_spec("psc"), seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x00" * 8, {})
    with pytest.raises(DataError, match="psc"):
        load_checkpoint(path, variant="cnn-pool")


def test_checkpoint_corruption_detected(tmp_path):
    model = SpeechModel(toy_spec("psc"), seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, b"\x01" * 8, {})
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(blob[:-40])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def _psc_checkpoint(path, metadata):
    save_checkpoint(path, SpeechModel(toy_spec("psc"), seed=9), b"\x01" * 8, metadata)
    blob = path.read_bytes()
    (spec_len,) = struct.unpack("<I", blob[8:12])
    meta_at = 12 + spec_len + 8  # offset of the metadata size field
    (meta_len,) = struct.unpack("<I", blob[meta_at:meta_at + 4])
    return blob, spec_len, meta_at, meta_len


def test_checkpoint_undecodable_metadata_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    blob, _, meta_at, _ = _psc_checkpoint(path, {"note": "x"})
    at = blob.index(b'"x"', meta_at) + 1
    path.write_bytes(blob[:at] + b"\xef" + blob[at + 1:])
    with pytest.raises(FormatError, match="metadata"):
        load_checkpoint(path)


def test_checkpoint_psc_spec_without_lse_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    blob, _, _, _ = _psc_checkpoint(path, {})
    path.write_bytes(blob.replace(b'"lse"', b'"lsf"', 1))
    with pytest.raises(FormatError, match="architecture"):
        load_checkpoint(path)


@pytest.mark.parametrize("layers", [
    (("conv", 3, 3, "relu"), ("sigmoid",)),               # psc without lse
    (("lse", 1.0), ("sigmoid",)),                         # psc without conv
    ((), ("conv", 3, 3, "none"), ("lse", 1.0)),           # empty layer
    (("conv", 3, 3, "tanh"), ("lse", 1.0)),               # unknown activation
    (("conv", 0, 3, "none"), ("lse", 1.0)),               # width 0
    (("conv", 3, 3, "none"), ("lse", "1")),               # r not a number
    (("conv", 3, 3), ("lse", 1.0)),                       # missing argument
    (("conv", 3, 3, "sigmoid"), ("lse", 1.0)),            # a conv has no sigmoid
])
def test_spec_refuses_malformed_layers(layers):
    with pytest.raises(ConfigError):
        models.ArchitectureSpec("psc", 3, 8, layers)


def test_checkpoint_conv_sigmoid_is_format_error(tmp_path):
    """A stored convolution with a sigmoid would run as a linear layer."""
    path = tmp_path / "model.ckpt"
    blob, spec_len, _, _ = _psc_checkpoint(path, {})
    spec = blob[12:12 + spec_len].replace(b'"none"', b'"sigmoid"', 1)
    path.write_bytes(blob[:8] + struct.pack("<I", len(spec)) + spec + blob[12 + spec_len:])
    with pytest.raises(FormatError, match="sigmoid"):
        load_checkpoint(path)


def test_checkpoint_fuzz_raises_only_data_errors(tmp_path):
    """3000 truncated, bit-flipped and oversized-header copies of a toy psc
    checkpoint: each one loads or raises a DataError, never another error."""
    path = tmp_path / "model.ckpt"
    blob, spec_len, meta_at, meta_len = _psc_checkpoint(
        path, {"epochs_run": 2, "dev_loss": [0.5, 0.25], "note": "toy"})
    leaks = reader_leaks(load_checkpoint, tmp_path / "damaged.ckpt", blob, 3000, seed=5,
                         header_len=meta_at + 8 + meta_len, size_offsets=(8, meta_at))
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:3]}"


# -- gradient harness ----------------------------------------------------------------

def test_gradient_check_passes_both_variants():
    for variant in ("cnn-pool", "psc"):
        err, worst = gradient_check(toy_spec(variant), seed=0)
        assert err <= 1e-6, f"{variant}: {err} at {worst}"


def test_gradient_check_refuses_zero_step():
    with pytest.raises(ConfigError, match="step"):
        gradient_check(toy_spec("psc"), step=0.0)


def test_gradient_check_negative_control(monkeypatch):
    conv1d_valid = ops.conv1d_valid

    def conv_relu_without_mask(x, filters, bias, lengths=None, activation="none"):
        out = conv1d_valid(x, filters, bias, lengths=lengths)
        if activation == "none":
            return out
        relu = Tensor(np.maximum(out.data, 0.0), _parents=(out,), _op="relu")

        def backward():  # right forward, wrong backward
            out.accumulate_grad(relu.grad)
        relu._backward = backward
        return relu

    monkeypatch.setattr(ops, "conv1d_valid", conv_relu_without_mask)
    err, worst = gradient_check(toy_spec("psc"), seed=0)
    assert err > 1e-6
    assert worst
