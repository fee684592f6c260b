"""Dense-array reverse-mode differentiation core.

Every operation produces a new Tensor whose closure knows how to push the
output gradient back to its inputs. Calling ``backward()`` on a scalar
result walks the recorded graph once in reverse topological order. Arrays
are float32 by default; float64 is used for gradient checking.

All op results are validated to be finite -- a NaN or Inf anywhere is a
hard error naming the op that produced it.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import NumericError

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Forward-only block: a Tensor derived inside it neither requires a
    gradient nor refers to its inputs, so no op builds a backward closure
    and each intermediate array is freed as soon as nothing uses it."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A dense real array plus the bookkeeping reverse-mode AD needs."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _op="leaf"):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        _check_finite(arr, _op)
        if not _grad_enabled:
            _parents = ()
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = tuple(_parents)
        self._backward = None
        self.op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g):
        """Add ``g`` into this tensor's gradient (gradient shape == value shape).

        The first gradient is adopted, not copied, when it has the value's
        dtype, and later ones are added into it in place: a caller hands
        over an array that no other tensor holds, and copies one it shares.
        """
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} != value shape {self.data.shape} at op '{self.op}'"
            )
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self, on_leaf_grad=None):
        """Reverse-mode sweep seeded from this scalar.

        Visits each reachable node exactly once, in reverse topological
        order (iterative postorder: deep graphs do not hit the recursion
        limit). Each node's backward closure is dropped once it has run, so
        a graph can be swept only once: the closure refers to its own output
        tensor, and that cycle would keep the whole graph, activations and
        gradients, alive until Python's cycle collector happens to run.
        A derived node's gradient is dropped too once its closure has pushed
        it to the inputs; only leaves (parameters, inputs) keep theirs.

        `on_leaf_grad(leaf)`, if given, is called once for each leaf that
        requires a gradient, as soon as that gradient is complete: right
        after the closure of the leaf's last consumer in the sweep has run
        (consumers counted over the sweep's topological order), or at once
        for a seed that is itself a leaf. An optimizer can step the leaf
        there and drop its gradient, so a sweep holds the gradients of one
        layer's parameters at a time. An exception raised by the callback
        propagates, and the rest of the sweep does not run.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar seed, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ValueError("backward() needs a result that requires a gradient")
        if self._parents and self._backward is None:
            raise ValueError("backward() already ran through this graph")
        topo = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in visited and p.requires_grad:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        self.grad = np.ones_like(self.data)
        uses = {}  # leaf id -> consumers whose closures have not run yet
        if on_leaf_grad is not None:
            for node in topo:
                for p in node._parents:
                    if p.requires_grad and not p._parents:
                        uses[id(p)] = uses.get(id(p), 0) + 1
            if not self._parents:
                on_leaf_grad(self)
        for node in reversed(topo):
            backward, node._backward = node._backward, None
            if backward is not None:
                backward()
                node.grad = None
            for p in node._parents:
                left = uses.get(id(p))
                if left is not None:
                    uses[id(p)] = left - 1
                    if left == 1:
                        on_leaf_grad(p)

    # -- small arithmetic closure, enough for losses and tests ------------

    def _lift(self, other):
        return other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype)
        )

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, _parents=(self, other), _op="add")
        if out.requires_grad:
            def backward():
                # one output gradient for both parents: each gets its own copy
                self.accumulate_grad(_unbroadcast(out.grad, self.data.shape).copy())
                other.accumulate_grad(_unbroadcast(out.grad, other.data.shape).copy())
            out._backward = backward
        return out

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, _parents=(self, other), _op="mul")
        if out.requires_grad:
            def backward():
                self.accumulate_grad(_unbroadcast(out.grad * other.data, self.data.shape))
                other.accumulate_grad(_unbroadcast(out.grad * self.data, other.data.shape))
            out._backward = backward
        return out

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data ** exponent, _parents=(self,), _op="pow")
        if out.requires_grad:
            def backward():
                self.accumulate_grad(out.grad * exponent * self.data ** (exponent - 1))
            out._backward = backward
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._lift(other))

    __radd__ = __add__
    __rmul__ = __mul__

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,), _op="reshape")
        if out.requires_grad:
            def backward():
                self.accumulate_grad(out.grad.reshape(self.data.shape))
            out._backward = backward
        return out

    def sum(self):
        out = Tensor(self.data.sum(keepdims=False), _parents=(self,), _op="sum")
        if out.requires_grad:
            def backward():
                self.accumulate_grad(np.broadcast_to(out.grad, self.data.shape).copy())
            out._backward = backward
        return out

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, grad={self.grad is not None})"


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def parameter(data, dtype=np.float32, name="param"):
    """Create a trainable leaf tensor."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True, _op=name)
