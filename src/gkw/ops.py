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
this reason. A convolution multiplies the windows of its input by its
filters in GEMMs. Where the input is long enough, every `width`-th window
tiles the input without overlap, so each such phase of the windows is a
reshape of a slice of the input, and one GEMM per phase runs on it with no
copy; the rows the layer keeps are then gathered from the result. On a
shorter input the layer gathers the windows of the rows it keeps, in
blocks of at most `_ROWS` rows, one GEMM per block. A lone utterance takes
the same rule as a batch. Backward runs the same window products: the
filter gradient is summed phase by phase or block by block, and the input
gradient, itself a convolution with the channels and filters swapped, runs
the window product over the padded output gradient where the layer has at
least as many channels as filters, and as one GEMM over the kept rows
where it has fewer.

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


# rows per GEMM of a convolution's gathered window path (`_window_matmul`
# and the blocked filter gradient); a block's window matrix holds at most
# _ROWS * width * D values (16 MB at psc's 96-channel layers in float32),
# whatever the input's length. The phase path copies no window and needs no
# bound. Measured when every layer gathered its windows: the forward passes
# of the eight layers that did, in both default models, on a
# length-ordered batch of 32 scoring utterances (about 9.6k conv1 rows),
# 2-core Xeon, summed: 1024 to 4096 rows 95-106 ms, 512 110 ms, 8192
# 106-112 ms and one block for the whole batch 115-119 ms, where psc's
# 96 -> 96 layers slowed from about 14 to 21 ms each; the flat optimum makes
# this a constant, not a setting
_ROWS = 4096


def _over_window(channels, filters):
    """Whether a convolution with `channels` input channels and `filters`
    filters runs as a window product, whose windows hold width * channels
    values per row, rather than as one GEMM of its kept rows by all its
    taps' filters, which makes width * filters values per row to be added
    tap by tap: when it has at least as many filters as channels, so that
    the window is the smaller. `conv1d_valid` asks only for the input
    gradient, a convolution of the output gradient (K channels) with the
    flipped filters (D filters), so the window product takes D >= K there.
    The forward is always a window product."""
    return filters >= channels


def _by_phase(rows, width, cols):
    """Whether a window product with `rows` output rows and `cols` output
    columns runs one GEMM per phase (`_phases`) rather than per gathered
    block (`_window_matmul`): when each of its `width` phases has at least
    as many rows as the product has columns. Every phase packs the weights
    again, which a short phase does not pay for: on a B=32 training batch,
    where neither passes this rule, cnn-pool's 256 -> 1024 conv3 forward
    took 27-30 ms by phase against 6-8 ms gathered, and its 64 -> 256
    conv2 4.7-6.5 ms against 3.2-4.8 ms (two runs, 2-core Xeon)."""
    return rows >= width * cols


def _phases(src, rows, width):
    """(j, windows) for each phase j < width of the first `rows` windows of
    `src`: windows is the (q, width * src.shape[1]) matrix whose row p is
    the tap-major window src[j + p*width : j + (p+1)*width], with
    q = (rows - 1 - j) // width + 1. The windows of one phase tile src
    without overlap, so windows is a reshape of the slice
    src[j : j + width*q], a view that BLAS takes as it is."""
    for j in range(width):
        q = (rows - 1 - j) // width + 1
        yield j, src[j:j + width * q].reshape(q, -1)


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

    Layout: the layer is a window matrix times its filters. Row r of the
    window matrix is x[r:r+width], the tap-major window that starts at
    input row r, as width*D values, and filters.reshape(K, width*D).T
    multiplies it: GEMMs with inner dimension width*D (Chellapilla et al.
    2006) and no per-tap sum. The packed input has n = N - width + 1
    windows; those that straddle two utterances are not output. Where each phase of the windows has at
    least as many rows as the layer has filters (`_by_phase`:
    n >= width*K), the layer runs one GEMM per phase j < width over windows
    j, j + width, j + 2*width, ... These tile x[j:] without overlap, so
    their matrix is x[j : j + width*q].reshape(q, width*D), a view that
    BLAS takes with no copy, and the GEMM writes straight into rows
    j::width of an (n, K) array; one row gather then takes the kept rows
    (`_phases`). This is a 1-D, copy-free form of MEC (Cho & Brand,
    "MEC: Memory-efficient Convolution for Deep Neural Network", ICML
    2017); it computes the width - 1 straddling rows at each utterance
    boundary and drops them. Otherwise the layer gathers the window of
    each kept row only, by row index, which copies it, and multiplies
    blocks of at most `_ROWS` such rows straight into the output
    (`_window_matmul`); the blocks bound the copy, which a full-batch one
    would make many times the input on long utterances. At the default
    models' float32 shapes, on B=32 batches of training or scoring
    utterances, psc's conv1-6 and cnn-pool's conv1 run by phase, cnn-pool's
    conv2 by phase on scoring batches only, and its conv3 never. A lone
    utterance takes the same rule as a batch. Either way the next layer
    gets a packed matrix again, and each output row is the same inner
    product, in the same order, on either path and whatever rows share its
    GEMM, so packing only turns many small GEMMs into tall ones: an
    utterance's rows in a batch are bitwise those of a call on it alone
    once it has enough rows to fill a tall GEMM's kernel. BLAS runs
    products of a few rows with other kernels that can round the last bit
    differently. At the default models' float32 shapes, probing 1-128
    output rows against a 2000-row batch mate on three seeds, a lone
    utterance differed with up to 10 rows at 96 -> 96, 52 at 96 -> 20, 12
    at 39 -> 96, 18 at 39 -> 64, 4 at 64 -> 256 and 1 at 256 -> 1024
    (2-core Xeon, OpenBLAS 0.3.31). OpenBLAS also switches kernels for
    other small products (below roughly 1e5 multiply-adds per row, e.g. a
    6-word psc output layer on short utterances; its float32 kernels for a
    filter count that is not a multiple of 4 also round by row count).

    Backward runs the forward's window products again. The filter
    gradient is their transpose, summed over the same pieces. By phase, it
    sums g_flat[j::width].T @ (phase j's windows) in phase order, where
    g_flat (n, K) holds the output gradient at its windows' flat rows and
    zeros at the straddling ones. g_flat is a view of the zero-padded
    output gradient that the input gradient reads (below), so the gradient
    is scattered once. Otherwise it sums g[s:e].T @ win[s:e] block by
    block, win being the gathered windows of the kept rows. The windows
    are read again rather than kept from the forward pass, which on the
    gathered path would hold about 110 MB more through a psc training step.
    They are tap-major, (width, D) per row, so the product is already in
    (K, width, D) order, and a gather copies runs of D contiguous values
    (1.5 ms against 7.3 ms for a d-major (D, width) gather on a 96->96 psc
    layer at B=32, T=220, 2-core Xeon).

    The input gradient is itself a valid convolution: of the output
    gradient, zero-padded by width - 1 rows, with the flipped filters
    (Dumoulin & Visin, "A guide to convolution arithmetic", 2016).
    `_over_window` picks its path with the roles swapped, D filters over K
    channels. Where D >= K (psc's conv2-6), the output gradient is
    scattered to rows kept + width - 1 of a zeroed (N + width - 1, K)
    array, the straddling rows staying zero. Input row r's window is then
    rows r to r + width - 1 of that array, and the forward's window
    product, by phase where N >= width*D and else `_window_matmul`,
    multiplies the windows of all N input rows by the flipped filters,
    (width*K, D), into gx. Where D < K (cnn-pool's conv2 and conv3), one
    GEMM over the kept rows, g @ filters.reshape(K, width*D), yields every
    tap's product, and its tap-i columns are added to gx[kept + i] in tap
    order. That product is not blocked, since blocks would add an input
    row's taps out of tap order.
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
    dtype = np.result_type(x.data, filters.data)
    weights = filters.data.reshape(K, width * D).T
    by_phase = _by_phase(n, width, K)
    if by_phase:
        flat = np.empty((n, K), dtype=dtype)
        for j, win in _phases(x.data, n, width):
            np.matmul(win, weights, out=flat[j::width])
        out_data = flat[kept]
        del flat
    else:
        out_data = np.empty((N_out, K), dtype=dtype)
        _window_matmul(x.data, kept, width, weights, out_data)
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
            window_gx = x.requires_grad and _over_window(K, D)
            if window_gx or (by_phase and filters.requires_grad):
                # row r + width - 1 holds the gradient of window r; the
                # straddling windows and width - 1 rows at each end stay zero
                gp = np.zeros((N + width - 1, K), dtype=g.dtype)
                gp[kept + width - 1] = g
            if filters.requires_grad:
                if by_phase:
                    g_flat = gp[width - 1:width - 1 + n]
                    parts = (g_flat[j::width].T @ win for j, win in _phases(x.data, n, width))
                else:
                    win = sliding_window_view(x.data, width, axis=0).transpose(0, 2, 1)
                    parts = (g[s:e].T @ win[kept[s:e]].reshape(e - s, width * D)
                             for s, e in _window_blocks(N_out))
                gf = next(parts)  # the first product starts the sum: no zero fill
                for part in parts:
                    gf += part
                filters.accumulate_grad(gf.reshape(K, width, D))
                del gf  # before the input gradient allocates: lower peak RSS
            if x.requires_grad:
                if window_gx:
                    flipped = filters.data[:, ::-1, :].transpose(1, 0, 2).reshape(width * K, D)
                    gx = np.empty((N, D), dtype=x.data.dtype)
                    if _by_phase(N, width, D):
                        for j, win in _phases(gp, N, width):
                            np.matmul(win, flipped, out=gx[j::width])
                    else:
                        _window_matmul(gp, np.arange(N), width, flipped, gx)
                else:
                    gx = np.zeros((N, D), dtype=x.data.dtype)
                    gw = g @ filters.data.reshape(K, width * D)
                    for i in range(width):
                        gx[kept + i] += gw[:, i * D:(i + 1) * D]
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
    # one slice per utterance: at cnn-pool's 1024-channel conv3 output, B=32,
    # np.maximum.reduceat took 0.51 ms (training) and 2.8 ms (scoring
    # lengths) against 0.08 and 0.17 ms here, 2-core Xeon; max is exact, so
    # the values are the same
    val = np.stack([x.data[s:s + n].max(axis=0) for s, n in zip(starts, lengths)])

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
