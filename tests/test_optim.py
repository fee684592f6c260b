"""Adam against an independently coded reference loop."""

import numpy as np
import pytest

from gkw.errors import NumericError
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
        opt.zero_grad()
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
            opt.zero_grad()
            loss.backward()
            opt.step()
        return p.data.tobytes()

    assert run() == run()


# -- blocked in-place update ----------------------------------------------

def _reference_adam(params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Whole-array Adam, one expression per update, as numpy evaluates it.

    params: list of arrays (updated in place); grads: per step, a list of
    arrays or None (treated as zeros)."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, step_grads in enumerate(grads, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m_, v_, g in zip(params, m, v, step_grads):
            g = np.zeros_like(p) if g is None else g
            m_[...] = b1 * m_ + (1.0 - b1) * g
            v_[...] = b2 * v_ + (1.0 - b2) * g * g
            p -= lr * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)


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
