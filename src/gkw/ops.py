"""Layer primitives: valid 1-D convolution, pooling, and affine maps.

The time ops (`conv1d_valid`, `max_pool1d`, `max_over_time`,
`logsumexp_pool`) take a packed batch: one (N, D) matrix that holds the
utterances back to back, time on axis 0, and a `lengths` vector whose
entries sum to N. Utterance b owns the lengths[b] rows after those of the
utterances before it. A single (T, D) matrix is one utterance, and a
(B, T, D) array is B utterances of T frames each. There is no padding. A
convolution drops every output row whose window straddles a boundary
between two utterances, and a pool starts its windows at each utterance's
first frame, so no utterance's output or gradient depends on another's
frames: a model's output on an utterance does not depend on what shares
its batch. A convolution runs its taps over the whole packed matrix and
then drops the straddling rows; where these are more than a quarter of its
rows and it has more filters than input channels (short utterances, wide
windows, many filters: cnn-pool's conv3), it computes only the rows it
keeps.

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


def _packed(x, lengths):
    """A time op's input as an (N, D) Tensor plus its segment lengths.

    Returns (x, lengths, rows): `rows` is B for a (B, T, D) input, whose
    per-frame outputs are shaped back to (B, T', K); 0 for a lone (T, D)
    matrix, whose reductions return (K,); None for a packed (N, D) matrix
    with `lengths`.
    """
    x = _as_tensor(x)
    shape = x.data.shape
    if x.data.ndim == 3:
        if lengths is not None:
            raise DataError(
                f"a {shape} batch holds {shape[0]} utterances of {shape[1]} frames; "
                f"pass a ragged batch packed as (N, D) with its lengths"
            )
        B, T, D = shape
        return x.reshape(B * T, D), np.full(B, T, dtype=np.int64), B
    if x.data.ndim != 2:
        raise DataError(f"expected a 2-D or 3-D input, got shape {shape}")
    if lengths is None:
        return x, np.array([shape[0]], dtype=np.int64), 0
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or not len(lengths):
        raise DataError(f"lengths must be a non-empty vector, got shape {lengths.shape}")
    if (lengths < 1).any() or lengths.sum() != shape[0]:
        raise DataError(
            f"lengths must be >= 1 and sum to the {shape[0]} packed rows, got {lengths}"
        )
    return x, lengths, None


def _offsets(lengths):
    """First row of each segment of a packed matrix."""
    return np.cumsum(lengths) - lengths


def _segment_rows(starts, counts, step=1):
    """Rows starts[b] + step * j for j < counts[b], segment after segment."""
    within = np.arange(counts.sum()) - np.repeat(_offsets(counts), counts)
    return np.repeat(starts, counts) + step * within


def _taps_over_kept_rows(kept, flat, channels, filters):
    """Whether a convolution runs its taps over its `kept` output rows only
    instead of all `flat` = N - width + 1 window rows: when fewer than 3/4
    of the flat rows are kept and the layer has more filters than input
    channels. The kept-row taps copy the kept input rows (`channels` values
    each) to skip the dropped output rows (`filters` values each), so they
    pay only when most windows straddle two utterances and each output row
    costs more than the copy of an input row. With few filters the copies
    cost more than they save: at 96 -> 6 and 96 -> 20 channels, keeping
    60% of the rows, both passes were slower than the flat taps."""
    return 4 * kept < 3 * flat and filters > channels


def conv1d_valid(x, filters, bias, lengths=None):
    """Valid 1-D convolution over time, stride 1.

    x: packed (N, D) with `lengths`, (T, D), or (B, T, D); filters:
    (K, width, D); bias: (K,). For each utterance,
    out[t, k] = bias[k] + sum_{i, d} x[t+i, d] * filters[k, i, d]
    for t < length - width + 1, so each utterance needs at least `width`
    frames. The output is packed the same way, with conv_out_lengths(lengths)
    rows per utterance.

    Layout: each tap i is a single GEMM over the whole packed matrix,
    flat += x[i:i+n] @ filters[:, i].T with n = N - width + 1
    (Chellapilla et al. 2006 without the im2col copy). Flat row r is the
    window that starts at input row r. The width - 1 rows before each
    utterance boundary hold windows that straddle it; one row gather drops
    them, so the next layer gets a packed matrix again. Where fewer than 3/4
    of the flat rows are kept and there are more filters than input
    channels (`_taps_over_kept_rows`), the taps skip the straddling rows
    instead: out += x[keep + i] @ filters[:, i].T over the kept rows `keep`
    only. Of the default models' layers in training only cnn-pool's conv3
    (256 -> 1024, width 11, about 18 frames per utterance) does so; it
    keeps under half its flat rows, and its forward went from about 26 to
    15 ms (B=32, float32, 2-core Xeon). The other layers keep 85% or more
    and stay on the flat taps, which copy nothing. Both paths give every
    kept element the same inner product as a per-utterance GEMM (inner
    dimension D), with the taps added in the same order, so packing only
    turns B small GEMMs per tap into one tall one, and at the default
    models' layer sizes the result is bitwise that of one GEMM per
    utterance, on either path. BLAS libraries switch to other kernels for
    small products (OpenBLAS below roughly 1e5 multiply-adds per row, e.g.
    a 6-word psc output layer on short utterances, or 1-3 output frames per
    utterance; its float32 kernels for a filter count that is not a
    multiple of 4 also round by row count), and those can round the last
    bit differently. The forward pass builds
    no (N, width*D) column matrix: for long inputs and few filters it would
    be many times the input's size.

    Backward: the filter gradient is one GEMM, g.T @ win, over the
    (N_out, width*D) window matrix of the kept rows: row j is the window of
    output row j. In float32 that matrix is gathered tap-major, (width, D)
    per row, so the copy moves runs of D contiguous values (1.5 ms against
    7.3 ms for the d-major gather on a 96->96 psc layer at B=32, T=220,
    2-core Xeon) and the product is already in (K, width, D) order. The
    inner dimension stays N_out, so every element is the same sum in the
    same order as with the d-major (D, width) matrix; only the order of the
    output columns changes. OpenBLAS's dgemm (0.3.31, x86-64) rounds the
    last (width*D mod 8) columns with an edge kernel that sums differently,
    while its sgemm rounds every column alike, so float64 keeps the d-major
    order to stay bitwise (the 39-channel first layer has 351 columns). The
    input gradient runs the forward's per-tap GEMMs in reverse, in tap
    order, on the path the forward took. The flat taps take the output
    gradient scattered back to the flat rows, where the straddling rows get
    zero; the kept-row taps add gx[keep + i] += g @ filters[:, i] straight
    from the kept rows (about 21 -> 12 ms at conv3's shape). Adding the zero
    rows changes no sum, so at the default models' shapes both paths give
    the same bits.
    """
    x, lengths, rows = _packed(x, lengths)
    filters = _as_tensor(filters)
    bias = _as_tensor(bias)
    if filters.data.ndim != 3:
        raise DataError(f"filters must be (K, width, D), got {filters.data.shape}")
    N, D = x.data.shape
    K, width, Df = filters.data.shape
    if Df != D:
        raise DataError(f"filter channels {Df} != input channels {D}")
    if bias.data.shape != (K,):
        raise DataError(f"bias shape {bias.data.shape} != ({K},)")
    if (lengths < width).any():
        short = int(np.argmin(lengths))
        raise InvalidInputError(
            f"input at batch index {short} has {int(lengths[short])} frames; "
            f"a width-{width} convolution needs at least {width}"
        )

    n = N - width + 1
    out_len = conv_out_lengths(lengths, width)
    N_out = int(out_len.sum())
    keep = _segment_rows(_offsets(lengths), out_len) if len(lengths) > 1 else None
    kept_only = _taps_over_kept_rows(N_out, n, D, K)
    if kept_only:
        out_data = x.data[keep] @ filters.data[:, 0, :].T
        for i in range(1, width):
            out_data += x.data[keep + i] @ filters.data[:, i, :].T
    else:
        flat = x.data[:n] @ filters.data[:, 0, :].T
        for i in range(1, width):
            flat += x.data[i:i + n] @ filters.data[:, i, :].T
        out_data = flat if keep is None else flat[keep]
        del flat
    out_data += bias.data

    out = Tensor(out_data, _parents=(x, filters, bias), _op="conv1d")
    if out.requires_grad:
        def backward():
            g = out.grad
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=0))
            if filters.requires_grad:
                win = sliding_window_view(x.data, width, axis=0)  # (n, D, width)
                tap_major = win.dtype == np.float32
                if tap_major:
                    win = win.transpose(0, 2, 1)
                win = np.ascontiguousarray(win if keep is None else win[keep])
                gf = g.T @ win.reshape(N_out, width * D)
                del win
                gf = (gf.reshape(K, width, D) if tap_major else
                      np.ascontiguousarray(gf.reshape(K, D, width).transpose(0, 2, 1)))
                filters.accumulate_grad(gf)
                del gf  # before the input gradient allocates: lower peak RSS
            if x.requires_grad:
                gx = np.zeros((N, D), dtype=x.data.dtype)
                if kept_only:
                    for i in range(width):
                        gx[keep + i] += g @ filters.data[:, i, :]
                else:
                    if keep is None:
                        g_flat = g
                    else:
                        g_flat = np.zeros((n, K), dtype=g.dtype)
                        g_flat[keep] = g
                    for i in range(width):
                        gx[i:i + n] += g_flat @ filters.data[:, i, :]
                x.accumulate_grad(gx)
        out._backward = backward
    return out.reshape(rows, -1, K) if rows else out


def max_pool1d(x, size, lengths=None):
    """Non-overlapping max pooling over time with a partial final window.

    x: packed (N, K) with `lengths`, (T, K), or (B, T, K). Each utterance's
    windows start at its first frame, and it keeps ceil(length/size) rows.
    Gradient goes to the earliest maximal index in each window.
    """
    if size < 1:
        raise ConfigError(f"pool size must be >= 1, got {size}")
    x, lengths, rows = _packed(x, lengths)
    starts = _offsets(lengths)
    out_len = pool_out_lengths(lengths, size)
    first = _segment_rows(starts, out_len, size)
    # row of each window offset; a partial tail window repeats its last row,
    # which changes neither its maximum nor its earliest maximal index
    taps = first[:, None] + np.arange(size)
    taps = np.minimum(taps, np.repeat(starts + lengths - 1, out_len)[:, None])
    val = x.data[taps].max(axis=1)                                  # (M, K)

    out = Tensor(val, _parents=(x,), _op="max_pool1d")
    if out.requires_grad:
        def backward():
            hit = x.data[taps] == val[:, None, :]                  # (M, size, K)
            seen = hit[:, 0].copy()
            for s in range(1, size):  # keep each window's earliest hit only
                hit[:, s] &= ~seen
                seen |= hit[:, s]
            real = (taps == first[:, None] + np.arange(size)).ravel()
            gwin = out.grad[:, None, :] * hit
            x.accumulate_grad(gwin.reshape(-1, val.shape[1])[real])
        out._backward = backward
    return out.reshape(rows, -1, val.shape[1]) if rows else out


def max_over_time(x, lengths=None):
    """Maximum over each utterance's frames: packed (N, K) with B lengths or
    (B, T, K) -> (B, K); (T, K) -> (K,). Gradient goes to the earliest
    maximal frame."""
    x, lengths, rows = _packed(x, lengths)
    starts = _offsets(lengths)
    val = np.maximum.reduceat(x.data, starts, axis=0)                  # (B, K)

    out = Tensor(val, _parents=(x,), _op="max_over_time")
    if out.requires_grad:
        def backward():
            first = np.stack([s + x.data[s:s + n].argmax(axis=0)
                              for s, n in zip(starts, lengths)])
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, first, out.grad, axis=0)
            x.accumulate_grad(gx)
        out._backward = backward
    return out.reshape(val.shape[1]) if rows == 0 else out


def logsumexp_pool(h, r, lengths=None):
    """Soft temporal pooling: s_w = (1/r) log[(1/T) sum_t exp(r h[t,w])].

    h: packed (N, W) with B lengths or (B, T, W), returning (B, W); or
    (T, W), returning (W,). Computed with a per-utterance, per-column max
    shift so huge activations stay finite. Interpolates between mean
    pooling (r -> 0) and max pooling (r -> inf).
    """
    if not r > 0:
        raise ConfigError(f"pooling sharpness r must be > 0, got {r}")
    h, lengths, rows = _packed(h, lengths)
    starts = _offsets(lengths)

    m = np.maximum.reduceat(h.data, starts, axis=0)                   # (B,W)
    z = np.exp(r * (h.data - np.repeat(m, lengths, axis=0)))
    # row by row within each utterance, the order a (T, W) sum over axis 0
    # takes; np.add.reduceat adds in another order and rounds differently
    S = np.stack([z[s:s + n].sum(axis=0) for s, n in zip(starts, lengths)])
    log_n = np.log(lengths).astype(h.data.dtype)
    val = m + (np.log(S) - log_n[:, None]) / r

    out = Tensor(val, _parents=(h,), _op="logsumexp_pool")
    if out.requires_grad:
        def backward():
            g = np.repeat(out.grad, lengths, axis=0)
            h.accumulate_grad(g * z / np.repeat(S, lengths, axis=0))
        out._backward = backward
    return out.reshape(val.shape[1]) if rows == 0 else out


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
