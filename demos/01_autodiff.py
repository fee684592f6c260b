"""A tour of the tensor engine: build a loss, backpropagate, verify.

The whole model stack runs on one small reverse-mode engine over numpy
arrays. This script differentiates a toy expression by hand and by the
engine, then runs the full finite-difference check on both architectures.
"""

import numpy as np

from gkw.models import CNN_POOL, PSC, gradient_check, toy_spec
from gkw.ops import dense, logsumexp_pool
from gkw.tensor import Tensor

# A scalar chain: y = sum(relu(x W^T + b)), differentiated two ways.
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

y = dense(x, w, b, activation="relu").sum()
y.backward()
print("engine dy/db:", b.grad)

# the same gradient by perturbing each bias entry
step = 1e-6
numeric = np.zeros_like(b.data)
for j in range(2):
    for sign in (+1.0, -1.0):
        shifted = b.data.copy()
        shifted[j] += sign * step
        out = dense(x, w, Tensor(shifted), activation="relu").sum().data
        numeric[j] += sign * out / (2 * step)
print("numeric dy/db:", numeric)
print("max gap:", np.abs(b.grad - numeric).max())

# Soft pooling: r sweeps the output from the mean to the max. The time ops
# take one (T, D) matrix per utterance, or several packed back to back
# with their `lengths`.
h = Tensor(rng.normal(size=(10, 1)))
print("\nmean", float(h.data.mean()), " max", float(h.data.max()))
for r in (0.01, 1.0, 100.0):
    pooled = logsumexp_pool(h, r).data.item()
    print(f"logsumexp pool r={r:>6}: {pooled:.5f}")
both = logsumexp_pool(Tensor(np.concatenate([h.data, h.data[:4]])), 1.0, lengths=[10, 4])
print("packed [10, 4] frames, r=1:", np.round(both.data.ravel(), 5))

# The same machinery, checked end to end through each architecture.
print()
for variant in (CNN_POOL, PSC):
    max_rel, worst = gradient_check(toy_spec(variant), seed=0)
    print(f"{variant}: worst parameter {worst}, max relative error {max_rel:.2e}")
