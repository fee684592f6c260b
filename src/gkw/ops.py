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
frames: in a batch of two or more utterances, a model's output on one
does not depend on what else shares its batch. Run alone, an utterance
can differ in the last bit where that leaves a convolution only a few
output rows: BLAS computes products of a few rows with other kernels (see
`conv1d_valid`). `dense` runs a one-row input as a two-row product for
this reason. A convolution with at least as many filters as input
channels computes only the rows it keeps, one GEMM over their windows per
block of at most `_ROWS` rows; one with fewer runs its taps over the whole
packed matrix and then gathers the rows it keeps. A lone utterance gathers
its kept rows, all of them, as a batch does. Backward mirrors this in the
same blocks: the filter gradient is summed block by block over the
windows, and the input gradient, itself a convolution with the channels
and filters swapped, runs the forward's window GEMM over the padded output
gradient where the layer has at least as many channels as filters, and as
one GEMM over the kept rows where it has fewer.

Time lengths flow through the network with `conv_out_lengths` and
`pool_out_lengths`; callers thread them between ops.

`conv1d_valid` and `dense` take an `activation`. A ReLU is applied in
place to the layer's own output, after the bias, so a ReLU layer keeps
one array, not two, through backward. Its backward masks the output
gradient in place with `out > 0`, which holds exactly where the
pre-activation is > 0 (Rota Bulo et al., "In-Place Activated BatchNorm",
2018), so the gradient has the bits of a separate ReLU's. The finiteness
check runs on the pre-activation, which a ReLU could hide an -inf in.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ConfigError, DataError, InvalidInputError
from .tensor import Tensor


# the activations each layer op takes
CONV_ACTIVATIONS = ("none", "relu")
DENSE_ACTIVATIONS = ("none", "relu", "sigmoid")


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


# rows per GEMM of a convolution's window paths, forward and backward; a
# block's window matrix holds at most _ROWS * width * D values (16 MB at
# psc's 96-channel layers in float32), whatever the input's length. The
# forward passes of the eight window-path layers of both default models on
# a length-ordered batch of 32 scoring utterances (about 9.6k conv1 rows),
# 2-core Xeon, summed: 1024 to 4096 rows 95-106 ms, 512 110 ms, 8192
# 106-112 ms and one block for the whole batch 115-119 ms, where psc's
# 96 -> 96 layers slowed from about 14 to 21 ms each; the flat optimum makes
# this a constant, not a setting
_ROWS = 4096


def _over_window(channels, filters):
    """Whether a convolution with `channels` input channels and `filters`
    filters multiplies the windows of its kept rows by all its filters in
    one GEMM (inner dimension width * channels): when it has at least as
    many filters as channels. Per output row the window copies width *
    channels values, where per-tap products add width fresh products of
    `filters` values each, so the window moves less memory only with at
    least as many filters as channels. With fewer it was slower: psc's
    96 -> 20 output layer at the scoring shape took 5.1 ms on the flat taps
    and 6.8 ms on the window. The input gradient is itself a convolution,
    of the output gradient (K channels) with the flipped filters (D
    filters), so the same rule picks its path with the roles swapped."""
    return filters >= channels


def _window_blocks(rows):
    """(start, stop) of ceil(rows / `_ROWS`) near-equal blocks that cover
    `rows` rows. Beyond `_ROWS` rows every block holds at least `_ROWS` / 2
    rows: BLAS runs products of a few rows with other kernels, which can
    round the last bit differently from the same rows inside a tall GEMM."""
    count = max(1, -(-rows // _ROWS))
    bounds = [rows * i // count for i in range(count + 1)]
    return zip(bounds[:-1], bounds[1:])


def _window_matmul(src, rows, width, weights, out):
    """out = windows @ weights, where row j of windows is the tap-major
    window src[rows[j]:rows[j]+width] as width * src.shape[1] values.

    Runs one GEMM per `_window_blocks` block. Each block's windows are
    gathered by row index, which copies them contiguous: numpy runs a
    product on the overlapping window view itself without BLAS. The copy is
    dropped at once after its GEMM, so no two blocks are alive together."""
    win = sliding_window_view(src, width, axis=0).transpose(0, 2, 1)
    for s, e in _window_blocks(len(rows)):
        np.matmul(win[rows[s:e]].reshape(e - s, -1), weights, out=out[s:e])


def conv1d_valid(x, filters, bias, lengths=None, activation="none"):
    """Valid 1-D convolution over time, stride 1, with an optional ReLU.

    x: packed (N, D) with `lengths`, (T, D), or (B, T, D); filters:
    (K, width, D); bias: (K,). For each utterance,
    out[t, k] = bias[k] + sum_{i, d} x[t+i, d] * filters[k, i, d]
    for t < length - width + 1, so each utterance needs at least `width`
    frames. The output is packed the same way, with conv_out_lengths(lengths)
    rows per utterance. activation is "none" or "relu"; "relu" runs
    np.maximum(out, 0, out=out) on the output after the bias, and backward
    first masks the output gradient in place with out > 0 (see the module
    docstring), so the layer holds one array and the gradients keep the
    bits of a separate ReLU's.

    Layout: a layer with at least as many filters as input channels
    (`_over_window`: cnn-pool's conv1-3, psc's conv1-5) computes its kept
    rows only. It gathers the tap-major window of each kept output row,
    x[r:r+width] as width*D values, and multiplies blocks of at most
    `_ROWS` such rows by filters.reshape(K, width*D).T straight into the
    output (`_window_matmul`): one GEMM per block with inner dimension
    width*D (Chellapilla et al. 2006), no row whose window straddles two
    utterances, no per-tap sum. The blocks bound the window matrix; a
    full-batch one would be many times the input on long utterances. A
    layer with fewer filters (psc's 96 -> 20 and 96 -> 6 output layers)
    runs each tap i as a single GEMM over the whole packed matrix,
    flat += x[i:i+n] @ filters[:, i].T with n = N - width + 1; flat row r
    is the window that starts at input row r, and one row gather drops the
    width - 1 rows before each utterance boundary, whose windows straddle
    it. A lone utterance gathers its kept rows, all n of them, on either
    path, as a batch does. Either way the next layer gets a
    packed matrix again, and each output row is the same inner product
    whatever rows share its GEMM, so packing only turns many small GEMMs
    into tall ones: an utterance's rows in a batch are bitwise those of a
    call on it alone once it has enough rows to fill a tall GEMM's kernel.
    BLAS runs products of a few rows with other kernels that can round the
    last bit differently. At the default models' float32 shapes, probing
    1-128 output rows against a 2000-row batch mate on three seeds, a lone
    utterance differed with up to 10 rows at 96 -> 96, 60 at 96 -> 20
    (flat taps), 12 at 39 -> 96, 18 at 39 -> 64, 4 at 64 -> 256 and 1 at
    256 -> 1024 (2-core Xeon, OpenBLAS 0.3.31). OpenBLAS also switches
    kernels for other small products (below roughly 1e5 multiply-adds per
    row, e.g. a 6-word psc output layer on short utterances; its float32
    kernels for a filter count that is not a multiple of 4 also round by
    row count).

    Backward runs over the forward's blocks of at most `_ROWS` rows, so
    no window matrix grows with the batch. The filter gradient sums
    g[s:e].T @ win[s:e] block by block, over the window matrix of the kept
    rows (row j is the window of output row j). It is rebuilt here rather
    than kept from the forward pass, which would hold about 110 MB more
    through a psc training step. In float32 the window is gathered
    tap-major, (width, D) per row, so the copy moves runs of D contiguous
    values (1.5 ms against 7.3 ms for the d-major gather on a 96->96 psc
    layer at B=32, T=220, 2-core Xeon) and the product is already in
    (K, width, D) order. Within a block every element is the same sum in
    the same order as with the d-major (D, width) window; only the order of
    the output columns changes. OpenBLAS's dgemm (0.3.31, x86-64) rounds
    the last (width*D mod 8) columns with an edge kernel that sums
    differently, while its sgemm rounds every column alike, so float64
    keeps the d-major order to stay bitwise (the 39-channel first layer has
    351 columns).

    The input gradient is itself a valid convolution: of the output
    gradient, zero-padded by width - 1 rows, with the flipped filters
    (Dumoulin & Visin, "A guide to convolution arithmetic", 2016). It
    picks its path by the forward's rule with the roles swapped, D filters
    over K channels. Where D >= K (psc's conv2-6), the output gradient is
    scattered to rows kept + width - 1 of a zeroed (N + width - 1, K)
    array, the straddling rows staying zero. Input row r's window is then
    rows r to r + width - 1 of that array, and `_window_matmul`, the
    forward's routine, multiplies the windows of all N input rows by the
    flipped filters, (width*K, D), into gx block by block. Where D < K
    (cnn-pool's conv2 and conv3), one GEMM over the kept rows,
    g @ filters.reshape(K, width*D), yields every tap's product, and its
    tap-i columns are added to gx[kept + i] tap by tap: the per-tap
    products in tap order, bitwise the per-tap GEMMs at those layers. That
    product is not blocked, since blocks would add an input row's taps out
    of tap order. In float64 the taps stay one GEMM each, for dgemm's edge
    columns as above (at the 39-channel first layer the one GEMM moved the
    last bit).
    """
    if activation not in CONV_ACTIVATIONS:
        raise ConfigError(f"unknown convolution activation {activation!r}")
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
    kept = _segment_rows(_offsets(lengths), conv_out_lengths(lengths, width))
    N_out = len(kept)
    if _over_window(D, K):
        out_data = np.empty((N_out, K), dtype=np.result_type(x.data, filters.data))
        _window_matmul(x.data, kept, width, filters.data.reshape(K, width * D).T, out_data)
    else:
        flat = x.data[:n] @ filters.data[:, 0, :].T
        for i in range(1, width):
            flat += x.data[i:i + n] @ filters.data[:, i, :].T
        out_data = flat[kept]
        del flat
    out_data += bias.data

    out = Tensor(out_data, _parents=(x, filters, bias), _op="conv1d")
    relu = activation == "relu"
    if relu:
        np.maximum(out.data, 0.0, out=out.data)
    if out.requires_grad:
        def backward():
            g = out.grad
            if relu:
                g *= out.data > 0
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=0))
            tap_major = x.data.dtype == np.float32
            if filters.requires_grad:
                win = sliding_window_view(x.data, width, axis=0)  # (n, D, width)
                if tap_major:
                    win = win.transpose(0, 2, 1)
                parts = (g[s:e].T @ win[kept[s:e]].reshape(e - s, width * D)
                         for s, e in _window_blocks(N_out))
                gf = next(parts)  # the first product starts the sum: no zero fill
                for part in parts:
                    gf += part
                gf = (gf.reshape(K, width, D) if tap_major else
                      np.ascontiguousarray(gf.reshape(K, D, width).transpose(0, 2, 1)))
                filters.accumulate_grad(gf)
                del gf  # before the input gradient allocates: lower peak RSS
            if x.requires_grad:
                if _over_window(K, D):
                    gp = np.zeros((N + width - 1, K), dtype=g.dtype)
                    gp[kept + width - 1] = g
                    flipped = filters.data[:, ::-1, :].transpose(1, 0, 2).reshape(width * K, D)
                    gx = np.empty((N, D), dtype=x.data.dtype)
                    _window_matmul(gp, np.arange(N), width, flipped, gx)
                else:
                    gx = np.zeros((N, D), dtype=x.data.dtype)
                    if tap_major:
                        gw = g @ filters.data.reshape(K, width * D)
                        taps = (gw[:, i * D:(i + 1) * D] for i in range(width))
                    else:  # dgemm's edge columns: see the filter gradient
                        taps = (g @ filters.data[:, i, :] for i in range(width))
                    for i, tap in enumerate(taps):
                        gx[kept + i] += tap
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
    "none", "relu", "sigmoid". "relu" runs in place on the output, with
    its backward mask taken from the output, as in `conv1d_valid`;
    "sigmoid" is a separate `sigmoid` op. A single row is multiplied as
    two copies of itself, keeping the first row of the product: BLAS runs
    a one-row product with another kernel, which can round the last bit
    differently from the same row inside a taller GEMM, and the copy makes
    a lone input's output bitwise its row in a batch.
    """
    if activation not in DENSE_ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
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

    lhs = np.repeat(xb.data, 2, axis=0) if B == 1 else xb.data
    out = Tensor(
        (lhs @ weights.data.T)[:B] + bias.data, _parents=(xb, weights, bias), _op="dense"
    )
    relu = activation == "relu"
    if relu:
        np.maximum(out.data, 0.0, out=out.data)
    if out.requires_grad:
        def backward():
            g = out.grad
            if relu:
                g *= out.data > 0
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=0))
            if weights.requires_grad:
                weights.accumulate_grad(g.T @ xb.data)
            if xb.requires_grad:
                xb.accumulate_grad(g @ weights.data)
        out._backward = backward
    if single:
        out = out.reshape(M)
    return sigmoid(out) if activation == "sigmoid" else out


def sigmoid(x):
    x = _as_tensor(x)
    y = expit(x.data)
    out = Tensor(y, _parents=(x,), _op="sigmoid")
    if out.requires_grad:
        def backward():
            x.accumulate_grad(out.grad * y * (1.0 - y))
        out._backward = backward
    return out
