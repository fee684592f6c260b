"""Autodiff core: graph mechanics, arithmetic gradients, validation."""

import gc
import weakref

import numpy as np
import pytest

from gkw.errors import NumericError
from gkw.tensor import Tensor, parameter


def test_square_gradient():
    p = parameter([3.0], dtype=np.float64)
    loss = p ** 2
    loss.backward()
    assert np.allclose(p.grad, [6.0])


def test_add_mul_chain():
    a = parameter([2.0], dtype=np.float64)
    b = parameter([5.0], dtype=np.float64)
    loss = (a * b + a) * 3.0
    loss.backward()
    # d/da 3(ab + a) = 3(b + 1), d/db = 3a
    assert np.allclose(a.grad, [18.0])
    assert np.allclose(b.grad, [6.0])


def test_reuse_accumulates():
    p = parameter([4.0], dtype=np.float64)
    loss = p * p + p * 2.0
    loss.backward()
    assert np.allclose(p.grad, [10.0])


def test_shared_output_gradient_is_copied_into_each_parent():
    # `add` hands the same output gradient to both parents
    a = parameter([1.0, 2.0], dtype=np.float64)
    b = parameter([3.0, 4.0], dtype=np.float64)
    (a + b).sum().backward()
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    a.accumulate_grad(np.array([10.0, 20.0]))
    assert np.array_equal(a.grad, [11.0, 21.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_first_gradient_is_a_copy_in_the_value_dtype():
    p = parameter([1.0, 2.0], dtype=np.float32)
    g = np.array([0.1, 0.2], dtype=np.float64)
    p.accumulate_grad(g)
    g[:] = 5.0
    assert p.grad.dtype == np.float32
    assert np.array_equal(p.grad, np.array([0.1, 0.2], dtype=np.float32))


def test_fresh_first_gradient_is_adopted_and_added_into_in_place():
    p = parameter([1.0, 2.0], dtype=np.float32)
    g = np.array([0.1, 0.2], dtype=np.float32)
    p.accumulate_grad(g)
    assert p.grad is g
    p.accumulate_grad(np.array([1.0, 1.0], dtype=np.float32))
    assert p.grad is g and np.array_equal(g, np.array([1.1, 1.2], dtype=np.float32))


def test_derived_gradients_are_released_after_the_sweep():
    a = parameter([1.0, -2.0], dtype=np.float64)
    hidden = a * 3.0
    loss = (hidden * hidden).sum()
    loss.backward()
    assert hidden.grad is None and loss.grad is None
    assert np.array_equal(a.grad, 18.0 * a.data)


def test_sub_neg():
    a = parameter([7.0], dtype=np.float64)
    b = parameter([3.0], dtype=np.float64)
    loss = (a - b).sum()
    loss.backward()
    assert np.allclose(a.grad, [1.0])
    assert np.allclose(b.grad, [-1.0])


def test_broadcast_gradient_shapes():
    a = parameter(np.ones((3, 4)), dtype=np.float64)
    b = parameter(np.ones((1, 4)), dtype=np.float64)
    c = parameter(np.ones(4), dtype=np.float64)
    loss = (a * b + c).sum()
    loss.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    assert c.grad.shape == (4,)
    assert np.allclose(b.grad, 3.0)
    assert np.allclose(c.grad, 3.0)


def test_mean_gradient():
    p = parameter(np.arange(6.0).reshape(2, 3), dtype=np.float64)
    p.mean().backward()
    assert np.allclose(p.grad, 1.0 / 6.0)


def test_reshape_gradient():
    p = parameter(np.arange(6.0), dtype=np.float64)
    loss = (p.reshape(2, 3) * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])).sum()
    loss.backward()
    assert np.allclose(p.grad, [1, 2, 3, 4, 5, 6])


def test_backward_needs_scalar():
    p = parameter(np.ones(3), dtype=np.float64)
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_nonfinite_rejected():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        Tensor(np.array([np.inf]))


def test_nonfinite_from_op_names_op():
    big = Tensor(np.array([1e30], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="mul"):
            big * big


def test_deep_graph_iterative_backward():
    # a recursive traversal would blow the interpreter stack here
    p = parameter([1.0], dtype=np.float64)
    node = p
    for _ in range(5000):
        node = node + 0.0
    node.backward()
    assert np.allclose(p.grad, [1.0])


def test_visits_each_node_once():
    # diamond graph: p feeds two branches that rejoin
    p = parameter([2.0], dtype=np.float64)
    a = p * 3.0
    b = p * 4.0
    (a + b).backward()
    assert np.allclose(p.grad, [7.0])


def test_swept_graph_is_freed_without_the_cycle_collector():
    p = parameter(np.ones(3), dtype=np.float64)
    hidden = p * 2.0
    freed = weakref.ref(hidden.data)
    loss = (hidden * hidden).sum()
    gc.disable()
    try:
        loss.backward()
        del hidden, loss
        assert freed() is None
    finally:
        gc.enable()
    assert np.allclose(p.grad, [8.0, 8.0, 8.0])


def test_second_backward_through_a_graph_is_refused():
    p = parameter([2.0], dtype=np.float64)
    loss = p * 3.0
    loss.backward()
    with pytest.raises(ValueError, match="already ran"):
        loss.backward()
    assert np.allclose(p.grad, [3.0])


def test_no_grad_without_requires():
    x = Tensor(np.ones(3))
    p = parameter(np.ones(3), dtype=np.float64)
    loss = (x * p).sum()
    loss.backward()
    assert x.grad is None
    assert p.grad is not None


def test_default_dtype_is_float32():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float32


# -- on_leaf_grad: a leaf's gradient handed over once it is complete -----------

def test_leaf_used_twice_fires_once_after_both_contributions():
    p = parameter([1.5, -2.0], dtype=np.float64)
    seen = []
    ((p * p + p).sum()).backward(on_leaf_grad=lambda leaf: seen.append((leaf, leaf.grad.copy())))
    assert len(seen) == 1 and seen[0][0] is p
    assert np.array_equal(seen[0][1], 2.0 * p.data + 1.0)


def test_leaf_fires_after_its_last_consumer_in_the_sweep():
    # `a` feeds the first mul and `b` the second one, which runs first
    a = parameter([2.0], dtype=np.float64)
    b = parameter([3.0], dtype=np.float64)
    hidden = a * 4.0
    loss = (hidden * b).sum()
    order = []
    loss.backward(on_leaf_grad=lambda leaf: order.append(
        (leaf, hidden.grad is None, a.grad is None)))
    assert [leaf for leaf, _, _ in order] == [b, a]
    # when b fires, hidden's gradient is pushed but a's closure has not run
    assert order[0][1:] == (False, True)
    assert order[1][1:] == (True, False)


def test_unreached_leaves_and_non_leaves_never_fire():
    p = parameter([1.0, 2.0], dtype=np.float64)
    unused = parameter([5.0], dtype=np.float64)
    x = Tensor(np.array([3.0, 4.0]))  # a leaf that needs no gradient
    hidden = p * 2.0
    fired = []
    (hidden * x).sum().backward(on_leaf_grad=fired.append)
    assert fired == [p]
    assert unused.grad is None


def test_a_leaf_seed_fires_at_once():
    p = parameter([3.0], dtype=np.float64)
    fired = []
    p.backward(on_leaf_grad=fired.append)
    assert fired == [p] and np.array_equal(p.grad, [1.0])


def test_numeric_error_from_the_callback_propagates():
    p = parameter([1.0], dtype=np.float64)

    def refuse(leaf):
        raise NumericError("non-finite gradient for parameter 'p'")

    with pytest.raises(NumericError, match="'p'"):
        (p * 3.0).backward(on_leaf_grad=refuse)
