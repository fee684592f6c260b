"""Layer primitives: valid 1-D convolution, pooling, and affine maps.

Every op accepts a single matrix (time on axis 0) or a batch (batch, time,
channels). Batches carry a `lengths` vector giving the number of valid
leading frames per row; frames past that are padding. Ops never let padding
influence a valid output: positions computed from padding are zero-filled
in the forward pass and receive no gradient, so a model's output on a
padded utterance is identical to the unpadded one.

Time lengths flow through the network with `conv_out_lengths` and
`pool_out_lengths`; callers thread them between ops.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ConfigError, DataError, InvalidInputError
from .tensor import Tensor


def conv_out_lengths(lengths, width):
    """Valid frames after a valid (no-pad) width-`width` convolution."""
    return np.asarray(lengths, dtype=np.int64) - width + 1


def pool_out_lengths(lengths, size):
    """Valid frames after non-overlapping pooling with a partial tail window."""
    return -(-np.asarray(lengths, dtype=np.int64) // size)


def _as_tensor(x, dtype=None):
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _as_batch(x):
    """Lift a (T, D) matrix to (1, T, D); report whether it was lifted."""
    x = _as_tensor(x)
    if x.data.ndim == 2:
        return x.reshape(1, *x.data.shape), True
    if x.data.ndim == 3:
        return x, False
    raise DataError(f"expected a 2-D or 3-D input, got shape {x.data.shape}")


def _check_lengths(lengths, batch, time):
    if lengths is None:
        return np.full(batch, time, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise DataError(f"lengths shape {lengths.shape} != (batch,) = ({batch},)")
    if (lengths < 1).any() or (lengths > time).any():
        raise DataError(f"lengths must lie in [1, {time}], got {lengths}")
    return lengths


def _valid_time_mask(lengths, time):
    return np.arange(time)[None, :] < lengths[:, None]


def conv1d_valid(x, filters, bias, lengths=None):
    """Valid 1-D convolution over time, stride 1.

    x: (T, D) or (B, T, D); filters: (K, width, D); bias: (K,).
    out[t, k] = bias[k] + sum_{i, d} x[t+i, d] * filters[k, i, d],
    shape (T - width + 1, K). Every valid frame window must fit:
    each row needs at least `width` valid frames.

    Layout: the batch is viewed as one (B*T, D) matrix and each tap i is a
    single GEMM, flat[:n] += x_flat[i:i+n] @ filters[:, i].T with
    n = B*T - width + 1 (Chellapilla et al. 2006 without the im2col copy).
    Flat row b*T + t is output frame t of row b; rows whose window runs
    into the next batch row have t >= T - width + 1 and are cut off. The
    input gradient runs the same way on the zero-padded (B*T, K) output
    gradient. Every output element is the same inner product as in a
    per-row GEMM (inner dimension D forward, K for the input gradient) and
    the taps are added in the same order, so flattening only turns B small
    GEMMs per tap into one tall one, and at the default models' layer sizes
    the result is bitwise that of one GEMM per row. BLAS libraries switch
    to other kernels for small products (OpenBLAS below roughly 1e5
    multiply-adds per row, e.g. a 6-word psc output layer on short
    utterances, or 1-3 output frames per row), and those can round the
    last bit differently. The forward pass builds no (B*T, width*D) column
    matrix: for long inputs and few filters it would be many times the
    input's size.

    Backward: padding frames' output gradient is zeroed by multiplying
    with the valid-frame mask. The filter gradient is one GEMM,
    g.reshape(B*T_out, K).T @ win, over the (B*T_out, width*D) window
    matrix whose row b*T_out + t is x[b, t:t+width]. In float32 that
    matrix is copied tap-major, (width, D) per row, so the copy moves
    runs of D contiguous values (1.5 ms against 7.3 ms for the d-major
    gather on a 96->96 psc layer at B=32, T=220, 2-core Xeon) and the
    product is already in (K, width, D) order. The inner dimension stays
    B*T_out, so every element is the same sum in the same order as with
    the d-major (D, width) matrix; only the order of the output columns
    changes. OpenBLAS's dgemm (0.3.31, x86-64) rounds the last
    (width*D mod 8) columns with an edge kernel that sums differently,
    while its sgemm rounds every column alike, so float64 keeps the
    d-major order to stay bitwise (the 39-channel first layer has 351
    columns).
    """
    xb, lifted = _as_batch(x)
    filters = _as_tensor(filters)
    bias = _as_tensor(bias)
    if filters.data.ndim != 3:
        raise DataError(f"filters must be (K, width, D), got {filters.data.shape}")
    B, T, D = xb.data.shape
    K, width, Df = filters.data.shape
    if Df != D:
        raise DataError(f"filter channels {Df} != input channels {D}")
    if bias.data.shape != (K,):
        raise DataError(f"bias shape {bias.data.shape} != ({K},)")
    lengths = _check_lengths(lengths, B, T)
    if (lengths < width).any():
        short = int(np.argmin(lengths))
        raise InvalidInputError(
            f"input at batch index {short} has {int(lengths[short])} frames; "
            f"a width-{width} convolution needs at least {width}"
        )

    T_out = T - width + 1
    n = B * T - width + 1
    x_flat = xb.data.reshape(B * T, D)
    flat = np.zeros((B * T, K), dtype=xb.data.dtype)
    for i in range(width):
        flat[:n] += x_flat[i:i + n] @ filters.data[:, i, :].T
    out_data = np.empty((B, T_out, K), dtype=xb.data.dtype)
    np.add(flat.reshape(B, T, K)[:, :T_out], bias.data, out=out_data)
    out_len = conv_out_lengths(lengths, width)
    row_valid = _valid_time_mask(out_len, T_out)
    out_data[~row_valid] = 0.0

    out = Tensor(out_data, _parents=(xb, filters, bias), _op="conv1d")
    if out.requires_grad:
        def backward():
            g = out.grad * row_valid[:, :, None]
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=(0, 1)))
            if filters.requires_grad:
                win = sliding_window_view(xb.data, width, axis=1)  # (B,T_out,D,width)
                tap_major = win.dtype == np.float32
                win = np.ascontiguousarray(win.transpose(0, 1, 3, 2) if tap_major else win)
                gf = g.reshape(B * T_out, K).T @ win.reshape(B * T_out, width * D)
                del win
                gf = (gf.reshape(K, width, D) if tap_major else
                      np.ascontiguousarray(gf.reshape(K, D, width).transpose(0, 2, 1)))
                filters.accumulate_grad(gf)
                del gf  # before the input gradient allocates: lower peak RSS
            if xb.requires_grad:
                g_flat = np.zeros((B * T, K), dtype=g.dtype)
                g_flat.reshape(B, T, K)[:, :T_out] = g
                gx = np.zeros((B * T, D), dtype=xb.data.dtype)
                for i in range(width):
                    gx[i:i + n] += g_flat[:n] @ filters.data[:, i, :]
                xb.accumulate_grad(gx.reshape(B, T, D))
        out._backward = backward
    return out.reshape(T_out, K) if lifted else out


def max_pool1d(x, size, lengths=None):
    """Non-overlapping max pooling over time with a partial final window.

    x: (T, K) or (B, T, K). Output has ceil(T/size) rows. Gradient goes to
    the earliest maximal index in each window.
    """
    if size < 1:
        raise ConfigError(f"pool size must be >= 1, got {size}")
    xb, lifted = _as_batch(x)
    B, T, K = xb.data.shape
    lengths = _check_lengths(lengths, B, T)

    T_out = -(-T // size)
    win = np.full((B, T_out * size, K), -np.inf, dtype=xb.data.dtype)
    np.copyto(win[:, :T], xb.data, where=_valid_time_mask(lengths, T)[:, :, None])
    win = win.reshape(B, T_out, size, K)
    # running max over the window offsets: only a strictly greater value
    # moves it, so ties keep the earliest index, as argmax does
    val = win[:, :, 0, :].copy()                                 # (B,T_out,K)
    arg = np.zeros(val.shape, dtype=np.intp)
    for s in range(1, size):
        better = win[:, :, s, :] > val
        val = np.where(better, win[:, :, s, :], val)
        arg += better * (s - arg)
    out_len = pool_out_lengths(lengths, size)
    row_valid = _valid_time_mask(out_len, T_out)
    val[~row_valid] = 0.0

    out = Tensor(val, _parents=(xb,), _op="max_pool1d")
    if out.requires_grad:
        def backward():
            g = out.grad * row_valid[:, :, None]
            onehot = arg[:, :, None, :] == np.arange(size)[None, None, :, None]
            gwin = g[:, :, None, :] * onehot
            xb.accumulate_grad(gwin.reshape(B, T_out * size, K)[:, :T, :])
        out._backward = backward
    return out.reshape(T_out, K) if lifted else out


def max_over_time(x, lengths=None):
    """Maximum over all valid frames: (B, T, K) -> (B, K) or (T, K) -> (K,)."""
    xb, lifted = _as_batch(x)
    B, T, K = xb.data.shape
    lengths = _check_lengths(lengths, B, T)
    t_valid = _valid_time_mask(lengths, T)
    masked = np.where(t_valid[:, :, None], xb.data, -np.inf)
    arg = masked.argmax(axis=1)                                  # (B,K)
    val = np.take_along_axis(masked, arg[:, None, :], axis=1)[:, 0, :]

    out = Tensor(val, _parents=(xb,), _op="max_over_time")
    if out.requires_grad:
        def backward():
            onehot = np.arange(T)[None, :, None] == arg[:, None, :]
            xb.accumulate_grad(out.grad[:, None, :] * onehot)
        out._backward = backward
    return out.reshape(K) if lifted else out


def logsumexp_pool(h, r, lengths=None):
    """Soft temporal pooling: s_w = (1/r) log[(1/T) sum_t exp(r h[t,w])].

    h: (T, W) or (B, T, W); returns (W,) or (B, W). Computed with a
    per-column max shift so huge activations stay finite. Interpolates
    between mean pooling (r -> 0) and max pooling (r -> inf).
    """
    if not r > 0:
        raise ConfigError(f"pooling sharpness r must be > 0, got {r}")
    hb, lifted = _as_batch(h)
    B, T, W = hb.data.shape
    lengths = _check_lengths(lengths, B, T)
    t_valid = _valid_time_mask(lengths, T)

    m = np.where(t_valid[:, :, None], hb.data, -np.inf).max(axis=1)   # (B,W)
    diff = np.where(t_valid[:, :, None], hb.data - m[:, None, :], -np.inf)
    z = np.exp(r * diff)                                              # 0 at padding
    S = z.sum(axis=1)                                                 # (B,W)
    log_n = np.log(lengths).astype(hb.data.dtype)
    val = m + (np.log(S) - log_n[:, None]) / r

    out = Tensor(val, _parents=(hb,), _op="logsumexp_pool")
    if out.requires_grad:
        def backward():
            hb.accumulate_grad(out.grad[:, None, :] * z / S[:, None, :])
        out._backward = backward
    return out.reshape(W) if lifted else out


def dense(x, weights, bias, activation="none"):
    """Affine map out = x @ weights.T + bias with an optional activation.

    x: (N,) or (B, N); weights: (M, N); bias: (M,). activation is one of
    "none", "relu", "sigmoid".
    """
    x = _as_tensor(x)
    weights = _as_tensor(weights)
    bias = _as_tensor(bias)
    single = x.data.ndim == 1
    xb = x.reshape(1, -1) if single else x
    if xb.data.ndim != 2:
        raise DataError(f"dense input must be 1-D or 2-D, got shape {x.data.shape}")
    B, N = xb.data.shape
    if weights.data.ndim != 2 or weights.data.shape[1] != N:
        raise DataError(
            f"weights shape {weights.data.shape} does not map input shape {x.data.shape}"
        )
    M = weights.data.shape[0]
    if bias.data.shape != (M,):
        raise DataError(f"bias shape {bias.data.shape} != ({M},)")

    out = Tensor(
        xb.data @ weights.data.T + bias.data, _parents=(xb, weights, bias), _op="dense"
    )
    if out.requires_grad:
        def backward():
            g = out.grad
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=0))
            if weights.requires_grad:
                weights.accumulate_grad(g.T @ xb.data)
            if xb.requires_grad:
                xb.accumulate_grad(g @ weights.data)
        out._backward = backward
    if single:
        out = out.reshape(M)
    if activation == "none":
        return out
    if activation == "relu":
        return relu(out)
    if activation == "sigmoid":
        return sigmoid(out)
    raise ConfigError(f"unknown activation {activation!r}")


def relu(x):
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,), _op="relu")
    if out.requires_grad:
        def backward():
            x.accumulate_grad(out.grad * (x.data > 0))
        out._backward = backward
    return out


def sigmoid(x):
    x = _as_tensor(x)
    y = expit(x.data)
    out = Tensor(y, _parents=(x,), _op="sigmoid")
    if out.requires_grad:
        def backward():
            x.accumulate_grad(out.grad * y * (1.0 - y))
        out._backward = backward
    return out
