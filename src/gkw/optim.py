"""Adam optimizer over named parameter tensors.

A step can be fused into the backward sweep: passed as `Tensor.backward`'s
`on_leaf_grad`, `Adam.apply` steps each parameter the moment its gradient
is complete and drops that gradient, and `Adam.step` then ends the step.
The sweep so holds one layer's parameter gradients at a time instead of all
of them (the fused gradient-and-update step of LOMO, Lv et al. 2023).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# elements per block of the in-place update: the blocks of p, g, m, v and
# the two scratch buffers stay in cache. For cnn-pool's 7.35M float32
# parameters on a 2-core Xeon, 2^14 to 2^17 took 32-39 ms a step, 2^12 58 ms
# and 2^20 52 ms; the flat optimum makes this a constant, not a setting
_BLOCK = 1 << 15


class Adam:
    """Bias-corrected Adam (defaults beta1=0.9, beta2=0.999, eps=1e-8).

    Takes (name, tensor) pairs; names appear in diagnostics when a gradient
    goes non-finite. Moment accumulators live in the parameter dtype.

    `apply(p)` steps one parameter and `step()` steps every parameter that
    `apply` has not reached, then ends the step; both drop the gradients
    they apply. The update is elementwise and per parameter, so
    `backward(on_leaf_grad=opt.apply); step()` gives the same parameters,
    bitwise, as `backward(); step()`. A non-finite gradient raises a
    `NumericError` naming its parameter before any of it is updated, but
    parameters applied earlier in the same step stay stepped: after the
    error the model is half stepped and should not be used.

    The update (Kingma & Ba 2015) runs in place over blocks of `_BLOCK`
    elements with two block-sized scratch buffers, so a step allocates no
    parameter-sized temporaries. Each block goes through the same
    elementwise operations, in the same order and dtype, as the expression

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)

    evaluated whole-array by numpy, so the result is bitwise identical to it.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        if not lr > 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.params = [(name, p) for name, p in params]
        for _, p in self.params:
            # the blocked update writes through flat views of p, m and v
            p.data = np.ascontiguousarray(p.data)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]
        self._index = {id(p): i for i, (_, p) in enumerate(self.params)}
        self._applied = set()  # indices of the parameters stepped this step

    def apply(self, p):
        """Step parameter `p` now, at step `step_count + 1`, and drop its
        gradient (None counts as zeros). A tensor that is not one of this
        optimizer's parameters is left as it is."""
        i = self._index.get(id(p))
        if i is None:
            return
        if i in self._applied:
            raise ValueError(
                f"parameter '{self.params[i][0]}' was already stepped at step "
                f"{self.step_count + 1}"
            )
        self._update(i)

    def step(self):
        """Step every parameter that `apply` has not reached, then end the step."""
        for i in range(len(self.params)):
            if i not in self._applied:
                self._update(i)
        self._applied.clear()
        self.step_count += 1

    def _update(self, i):
        name, p = self.params[i]
        m, v = self.m[i], self.v[i]
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        flat = (p.data.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1))
        a = np.empty(min(p.data.size, _BLOCK), dtype=p.data.dtype)
        b = np.empty_like(a)
        for lo in range(0, p.data.size, _BLOCK):
            pb, gb, mb, vb = (x[lo:lo + _BLOCK] for x in flat)
            a_, b_ = a[:len(pb)], b[:len(pb)]
            mb *= b1
            np.multiply(1.0 - b1, gb, out=a_)
            mb += a_
            vb *= b2
            np.multiply(1.0 - b2, gb, out=a_)
            a_ *= gb
            vb += a_
            np.divide(mb, bc1, out=a_)
            np.multiply(lr, a_, out=a_)
            np.divide(vb, bc2, out=b_)
            np.sqrt(b_, out=b_)
            b_ += eps
            a_ /= b_
            pb -= a_
        p.grad = None
        self._applied.add(i)
