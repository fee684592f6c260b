"""Adam optimizer over named parameter tensors."""

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

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        for (name, p), m, v in zip(self.params, self.m, self.v):
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
