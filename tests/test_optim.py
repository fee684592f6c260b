"""Adam against an independently coded reference loop."""

import numpy as np
import pytest

from gkw.errors import NumericError
from gkw.models import SpeechModel, bow_loss, toy_spec
from gkw.optim import _BLOCK, Adam
from gkw.tensor import parameter


def test_zero_gradient_leaves_params_unchanged():
    p = parameter(np.array([1.0, -2.0]), dtype=np.float64)
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_missing_gradient_treated_as_zero():
    p = parameter(np.array([3.0]), dtype=np.float64)
    opt = Adam([("p", p)], lr=0.1)
    opt.step()
    assert np.array_equal(p.data, [3.0])


def test_first_step_magnitude_is_lr():
    p = parameter(np.array([0.0, 0.0]), dtype=np.float64)
    opt = Adam([("p", p)], lr=0.05)
    p.grad = np.array([0.3, -7.0])
    opt.step()
    # bias correction makes the first update lr * sign(g) up to eps
    assert np.allclose(p.data, [-0.05, 0.05], atol=1e-6)


def test_five_step_trajectory_matches_reference_loop():
    # reference Adam coded from the update equations, no shared helpers
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    ref_p, ref_m, ref_v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 6):
        g = 2.0 * ref_p
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        mhat = ref_m / (1 - b1 ** t)
        vhat = ref_v / (1 - b2 ** t)
        ref_p = ref_p - lr * mhat / (np.sqrt(vhat) + eps)
        trajectory.append(ref_p)

    p = parameter(np.array([1.0]), dtype=np.float64)
    opt = Adam([("p", p)], lr=lr)
    got = []
    for _ in range(5):
        loss = p ** 2
        loss.backward()
        opt.step()
        got.append(p.data[0])
    assert np.abs(np.array(got) - np.array(trajectory)).max() < 1e-10


def test_nonfinite_gradient_names_parameter():
    p = parameter(np.array([1.0]), dtype=np.float64)
    opt = Adam([("conv1.filters", p)], lr=0.1)
    p.grad = np.array([np.inf])
    with pytest.raises(NumericError, match="conv1.filters"):
        opt.step()


def test_bad_learning_rate():
    p = parameter(np.array([1.0]), dtype=np.float64)
    with pytest.raises(ValueError):
        Adam([("p", p)], lr=0.0)


def test_deterministic_updates():
    def run():
        rng = np.random.default_rng(7)
        p = parameter(rng.normal(size=(4, 3)).astype(np.float32))
        opt = Adam([("p", p)], lr=1e-3)
        for _ in range(20):
            loss = ((p * p).sum() + (p * 0.3).sum())
            loss.backward()
            opt.step()
        return p.data.tobytes()

    assert run() == run()


# -- blocked in-place update ----------------------------------------------

def _reference_adam(params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Whole-array Adam, one expression per update, as numpy evaluates it,
    without flushing subnormal first moments.

    params: list of arrays (updated in place); grads: per step, a list of
    arrays or None (treated as zeros). Returns the first moments."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, step_grads in enumerate(grads, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m_, v_, g in zip(params, m, v, step_grads):
            g = np.zeros_like(p) if g is None else g
            m_[...] = b1 * m_ + (1.0 - b1) * g
            v_[...] = b2 * v_ + (1.0 - b2) * g * g
            p -= lr * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)
    return m


def test_blocked_update_is_bitwise_the_reference():
    rng = np.random.default_rng(3)
    shapes_dtypes = [
        ((2 * _BLOCK + 123,), np.float32),   # three blocks, the last one partial
        ((37, 5, 200), np.float32),          # not a multiple of the block size
        ((7,), np.float32),                  # gradient stays None
        ((3 * _BLOCK // 2,), np.float64),    # mixed precision
        ((), np.float32),                    # a scalar
    ]
    init = [rng.normal(size=s).astype(d) for s, d in shapes_dtypes]
    grads = [
        [None if i == 2 else (rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)).astype(d)
         for i, (s, d) in enumerate(shapes_dtypes)]
        for _ in range(5)
    ]
    params = [parameter(x.copy(), dtype=x.dtype) for x in init]
    opt = Adam([(f"p{i}", p) for i, p in enumerate(params)], lr=3e-3)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = None if g is None else g.copy()
        opt.step()
    expected = [x.copy() for x in init]
    _reference_adam(expected, grads, lr=3e-3)
    for p, e in zip(params, expected):
        assert p.data.dtype == e.dtype
        assert p.data.tobytes() == e.tobytes()
    assert np.array_equal(params[2].data, init[2])


# zero-gradient steps after which a first moment of about 1e-3 would be
# subnormal without the flush: 0.9 ** k * 1e-3 < np.finfo(dtype).tiny
ZERO_STEPS = {np.float32: 1000, np.float64: 7000}


def _subnormal(x):
    return (x != 0) & (np.abs(x) < np.finfo(x.dtype).tiny)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_moment_of_a_dead_gradient_holds_no_subnormal(dtype):
    # one real gradient, then zeros: without the flush m decays into the
    # subnormal range and stays there, 0.9 times the smallest subnormal
    # rounding back to it
    p = parameter(np.linspace(-1.0, 1.0, 64), dtype=dtype)
    opt = Adam([("p", p)], lr=1e-3)
    p.grad = np.linspace(-2.0, 3.0, 64).astype(dtype)
    opt.step()
    for _ in range(ZERO_STEPS[dtype]):
        opt.step()
    assert not _subnormal(opt.m[0]).any()
    assert not _subnormal(opt.v[0]).any() and not _subnormal(p.data).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_flushed_training_is_bitwise_the_unflushed_reference(variant, dtype):
    # a toy model trained on real gradients, then on zero ones until the
    # reference's first moments are subnormal: flushing them moves no
    # parameter's bits
    spec = toy_spec(variant, vocab_size=4)
    model = SpeechModel(spec, seed=3, dtype=dtype)
    init = [p.data.copy() for _, p in model.parameters()]
    opt = Adam(model.parameters(), lr=1e-2)
    rng = np.random.default_rng(12)
    grads = []
    for _ in range(20):
        lengths = rng.integers(spec.min_frames, spec.min_frames + 9, size=3)
        feats = rng.normal(size=(3, int(lengths.max()), spec.input_dim))
        targets = rng.uniform(size=(3, spec.vocab_size))
        bow_loss(model.forward(feats, lengths), targets).backward()
        grads.append([p.grad.copy() for _, p in model.parameters()])
        opt.step()
    grads += [[None] * len(init)] * ZERO_STEPS[dtype]
    for _ in range(ZERO_STEPS[dtype]):
        opt.step()
    m = _reference_adam(init, grads, lr=1e-2)
    assert any(_subnormal(x).any() for x in m)  # the flush had work to do
    for (name, p), want in zip(model.parameters(), init):
        assert p.data.tobytes() == want.tobytes(), name
    assert not any(_subnormal(x).any() for x in opt.m)


def test_empty_parameter_list():
    opt = Adam([], lr=0.1)
    opt.step()
    assert opt.step_count == 1


def test_nonfinite_gradient_in_a_later_block_names_parameter():
    ok = parameter(np.ones(4), dtype=np.float32)
    big = parameter(np.ones(2 * _BLOCK + 5), dtype=np.float32)
    opt = Adam([("ok", ok), ("dense.weights", big)], lr=0.1)
    ok.grad = np.ones(4, dtype=np.float32)
    big.grad = np.ones(big.data.size, dtype=np.float32)
    big.grad[-1] = np.nan
    before = big.data.copy()
    with pytest.raises(NumericError, match="dense.weights"):
        opt.step()
    assert np.array_equal(big.data, before)  # no block was updated


# -- fused step: apply each parameter inside backward --------------------------

def _toy_run(variant, dtype, on_leaf_grad=None, steps=10):
    """`steps` Adam steps of a toy model on seeded batches; returns its
    parameters and both moments as bytes. `on_leaf_grad(model, opt)` makes
    backward's callback; None runs backward without one."""
    spec = toy_spec(variant, vocab_size=4)
    model = SpeechModel(spec, seed=3, dtype=dtype)
    opt = Adam(model.parameters(), lr=1e-2)
    callback = None if on_leaf_grad is None else on_leaf_grad(model, opt)
    rng = np.random.default_rng(11)
    for _ in range(steps):
        lengths = rng.integers(spec.min_frames, spec.min_frames + 9, size=3)
        feats = rng.normal(size=(3, int(lengths.max()), spec.input_dim))
        targets = rng.uniform(size=(3, spec.vocab_size))
        bow_loss(model.forward(feats, lengths), targets).backward(on_leaf_grad=callback)
        opt.step()
    return [x.tobytes() for x in (*(p.data for _, p in opt.params), *opt.m, *opt.v)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_fused_steps_are_bitwise_the_separate_ones(variant, dtype):
    fused = _toy_run(variant, dtype, lambda model, opt: opt.apply)
    assert fused == _toy_run(variant, dtype)


@pytest.mark.parametrize("variant", ["cnn-pool", "psc"])
def test_each_callback_sees_gradients_of_one_layer_only(variant):
    calls = []

    def check(model, opt):
        def callback(p):
            layer = next(n for n, q in model.params.items() if q is p).split(".")[0]
            held = {n.split(".")[0] for n, q in model.params.items() if q.grad is not None}
            assert held <= {layer}, (layer, held)
            calls.append(layer)
            opt.apply(p)
        return callback

    _toy_run(variant, np.float32, check, steps=2)
    assert len(calls) == 2 * len(SpeechModel(toy_spec(variant, vocab_size=4)).params)


def test_apply_leaves_a_foreign_tensor_alone_and_refuses_a_second_step():
    p = parameter(np.array([1.0, 2.0]), dtype=np.float64)
    other = parameter(np.array([5.0]), dtype=np.float64)
    opt = Adam([("p", p)], lr=0.1)
    other.grad = np.array([1.0])
    opt.apply(other)
    assert np.array_equal(other.data, [5.0]) and other.grad is not None
    p.grad = np.array([1.0, -1.0])
    opt.apply(p)
    assert p.grad is None and opt.step_count == 0
    with pytest.raises(ValueError, match="'p'"):
        opt.apply(p)
    before = p.data.copy()
    opt.step()  # p was already applied: step only ends the step
    assert np.array_equal(p.data, before) and opt.step_count == 1
