"""Layer primitives against brute-force oracles and finite differences."""

import mpmath as mp
import numpy as np
import pytest

from gkw import ops
from gkw.errors import ConfigError, DataError, InvalidInputError
from gkw.models import cnn_pool, psc
from gkw.tensor import Tensor, parameter

from oracles import oracle_conv1d, pack, pad, reference_conv1d_backward, unpack


def finite_diff(build, params, step=1e-5, tol=1e-6):
    """Compare analytic gradients of build() (a scalar) to central differences."""
    loss = build()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + step
            hi = build().data.item()
            p.data[idx] = orig - step
            lo = build().data.item()
            p.data[idx] = orig
            numeric[idx] = (hi - lo) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        worst = (np.abs(analytic - numeric) / denom).max()
        assert worst <= tol, f"gradient mismatch {worst:.3g}"


# -- conv1d_valid ---------------------------------------------------------

def test_conv_identity_kernel():
    x = np.arange(14.0, dtype=np.float32).reshape(7, 2)
    f = np.zeros((2, 3, 2), dtype=np.float32)
    f[0, 0, 0] = 1.0
    f[1, 0, 1] = 1.0
    out = ops.conv1d_valid(x, f, np.zeros(2))
    assert np.array_equal(out.data, x[:5])


def test_conv_zero_input_gives_bias():
    b = np.array([2.5, -1.0], dtype=np.float32)
    out = ops.conv1d_valid(np.zeros((6, 3)), np.zeros((2, 4, 3)), b)
    assert np.allclose(out.data, np.broadcast_to(b, (3, 2)))


def test_conv_matches_triple_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        T = int(rng.integers(4, 12))
        D = int(rng.integers(1, 5))
        w = int(rng.integers(1, T + 1))
        K = int(rng.integers(1, 5))
        x = rng.normal(size=(T, D))
        f = rng.normal(size=(K, w, D))
        b = rng.normal(size=K)
        out = ops.conv1d_valid(Tensor(x, dtype=np.float64), f, b)
        expected = oracle_conv1d(x[None], f, b, [T], np.zeros((1, T - w + 1, K)))[0][0]
        assert np.abs(out.data - expected).max() < 1e-6


def test_conv_too_short_names_minimum():
    with pytest.raises(InvalidInputError, match="at least 5"):
        ops.conv1d_valid(np.zeros((3, 2)), np.zeros((1, 5, 2)), np.zeros(1))


def test_conv_channel_mismatch():
    with pytest.raises(DataError):
        ops.conv1d_valid(np.zeros((6, 3)), np.zeros((1, 2, 4)), np.zeros(1))


def test_conv_gradients():
    rng = np.random.default_rng(12)
    x = parameter(rng.normal(size=(8, 3)), dtype=np.float64)
    f = parameter(rng.normal(size=(4, 3, 3)), dtype=np.float64)
    b = parameter(rng.normal(size=4), dtype=np.float64)
    probe = Tensor(rng.normal(size=(6, 4)))

    def build():
        return (ops.conv1d_valid(x, f, b) * probe).sum()

    finite_diff(build, [x, f, b])


def test_conv_batched_matches_per_row():
    rng = np.random.default_rng(13)
    rows = [rng.normal(size=(l, 2)) for l in (6, 9, 4)]
    packed, lens = pack(rows)
    f = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=3)
    out = ops.conv1d_valid(Tensor(packed, dtype=np.float64), f, b, lengths=lens)
    out_len = ops.conv_out_lengths(lens, 4)
    assert out.data.shape == (out_len.sum(), 3)
    for got, r in zip(unpack(out.data, out_len), rows):
        single = ops.conv1d_valid(Tensor(r, dtype=np.float64), f, b)
        assert np.allclose(got, single.data, atol=1e-12)


def test_conv_equal_length_batch_is_b_utterances():
    rng = np.random.default_rng(16)
    batch = rng.normal(size=(3, 7, 2))
    f = rng.normal(size=(4, 3, 2))
    b = rng.normal(size=4)
    out = ops.conv1d_valid(Tensor(batch, dtype=np.float64), f, b)
    packed = ops.conv1d_valid(Tensor(batch.reshape(21, 2), dtype=np.float64), f, b,
                              lengths=[7, 7, 7])
    assert out.data.shape == (3, 5, 4)
    assert np.array_equal(out.data.reshape(15, 4), packed.data)
    with pytest.raises(DataError, match="packed"):
        ops.conv1d_valid(Tensor(batch), f, b, lengths=[7, 5, 6])


def _conv_against_oracle(rng, lengths, T, D, K, width, dtype, lift=False):
    """Largest error of conv1d_valid and its three gradients vs the oracle,
    relative to the largest oracle magnitude of each. The utterances are
    packed back to back (`lift`: one lone (T, D) matrix); the oracle runs
    each on its own."""
    rows = [rng.normal(size=(n, D)) for n in lengths]
    out_len = ops.conv_out_lengths(lengths, width)
    probes = [rng.normal(size=(n, K)) for n in out_len]
    packed, _ = pack(rows)
    x = parameter(packed, dtype=dtype)
    f = parameter(rng.normal(size=(K, width, D)), dtype=dtype)
    b_ = parameter(rng.normal(size=K), dtype=dtype)
    out = ops.conv1d_valid(x, f, b_, lengths=None if lift else lengths)
    (out * Tensor(pack(probes)[0], dtype=dtype)).sum().backward()
    expected = oracle_conv1d(pad(rows), f.data, b_.data, lengths,
                             pad(probes)[:, :T - width + 1])
    out_e, df_e, db_e, dx_e = expected
    expected = (pack([o[:n] for o, n in zip(out_e, out_len)])[0], df_e, db_e,
                pack([d[:n] for d, n in zip(dx_e, lengths)])[0])
    got = (out.data, f.grad, b_.grad, x.grad)
    errors = []
    for g, e in zip(got, expected):
        assert g.dtype == dtype and g.shape == e.shape
        errors.append(np.abs(g - e).max() / max(np.abs(e).max(), 1.0))
    return max(errors)


CONV_CASES = [
    # lengths, T, D, K, width
    ([9, 4, 7, 5], 9, 3, 4, 4),     # ragged
    ([4, 9, 4], 9, 2, 3, 4),        # rows with lengths == width
    ([5, 5, 5], 5, 3, 2, 5),        # T == width: one output frame per row
    ([11], 11, 4, 3, 3),            # B = 1
    ([6, 13], 13, 5, 6, 1),         # width 1
    ([20, 17, 12, 20, 9], 20, 7, 8, 9),
]


CONV_TOLERANCES = [(np.float64, 1e-12), (np.float32, 1e-5)]


@pytest.mark.parametrize("dtype, tol", CONV_TOLERANCES)
@pytest.mark.parametrize("lengths, T, D, K, width", CONV_CASES)
def test_conv_matches_per_utterance_oracle(lengths, T, D, K, width, dtype, tol):
    rng = np.random.default_rng(T * 100 + width)
    assert _conv_against_oracle(rng, lengths, T, D, K, width, dtype) <= tol


@pytest.mark.parametrize("dtype, tol", CONV_TOLERANCES)
def test_conv_lifted_2d_input_matches_oracle(dtype, tol):
    rng = np.random.default_rng(15)
    assert _conv_against_oracle(rng, [10], 10, 3, 4, 3, dtype, lift=True) <= tol


def _default_conv_layers(spec, lengths):
    """(input lengths, D, K, width) of each conv layer of `spec` on a batch
    of utterances with the given frame counts."""
    layers, d = [], spec.input_dim
    for layer in spec.layers:
        if layer[0] == "conv":
            _, width, filters, _ = layer
            layers.append((lengths, d, filters, width))
            lengths, d = ops.conv_out_lengths(lengths, width), filters
        elif layer[0] == "pool":
            lengths = ops.pool_out_lengths(lengths, layer[1])
    return layers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [cnn_pool, psc])
def test_conv_backward_is_bitwise_the_reference_at_default_layer_shapes(make, dtype):
    # B = 32 utterances of 100 (cnn-pool: its minimum, 126) to 600 frames
    # through every conv layer of the default model; padding holds large
    # values that must not leak
    rng = np.random.default_rng(41)
    spec = make(20)
    frames = rng.integers(max(100, spec.min_frames), 601, size=32)
    for lengths, D, K, width in _default_conv_layers(spec, frames):
        x_data = rng.normal(size=(int(lengths.sum()), D)).astype(dtype)
        x = parameter(x_data, dtype=dtype)
        f = parameter(rng.normal(size=(K, width, D)), dtype=dtype)
        b = parameter(rng.normal(size=K), dtype=dtype)
        n_out = int(ops.conv_out_lengths(lengths, width).sum())
        probe = rng.normal(size=(n_out, K)).astype(dtype)
        (ops.conv1d_valid(x, f, b, lengths=lengths) * Tensor(probe)).sum().backward()
        expected = reference_conv1d_backward(x_data, f.data, lengths, probe, dtype)
        got = {"bias": b.grad, "filters": f.grad, "input": x.grad}
        for (name, g), want in zip(got.items(), expected):
            assert g.dtype == dtype and g.shape == want.shape
            assert np.array_equal(g, want), f"{name} gradient, {D}->{K} width {width}"


TRAINING_FRAMES = (128, 259)  # the default corpus's training utterances


def _training_batches():
    """Frame counts of B = 32 training utterances: three random draws from
    the training range, plus all-shortest and all-longest."""
    rng = np.random.default_rng(43)
    lo, hi = TRAINING_FRAMES
    draws = [rng.integers(lo, hi + 1, size=32) for _ in range(3)]
    return draws + [np.full(32, lo), np.full(32, hi)]


def _takes_kept_rows(lengths, D, K, width):
    n = int(lengths.sum()) - width + 1
    return ops._taps_over_kept_rows(int(ops.conv_out_lengths(lengths, width).sum()), n, D, K)


@pytest.mark.parametrize("make", [cnn_pool, psc])
def test_only_cnn_pool_conv3_takes_the_kept_row_path(make):
    # the kept-row taps were slower at psc's shapes; a later edit of the
    # rule must not move psc, or cnn-pool's longer layers, onto them
    spec = make(20)
    for frames in _training_batches():
        layers = _default_conv_layers(spec, frames)
        taken = [_takes_kept_rows(*layer) for layer in layers]
        expected = [make is cnn_pool and i == 2 for i in range(len(layers))]
        assert taken == expected, f"{spec.variant} on {frames.min()}-{frames.max()} frames"


def test_short_layer_with_few_filters_keeps_the_flat_taps():
    # psc(6)'s 96 -> 6 output layer on 64-frame utterances keeps 58% of its
    # flat rows, but with 6 filters the row copies cost more than they save
    lengths, D, K, width = _default_conv_layers(psc(6), np.full(8, 64))[-1]
    assert (D, K) == (96, 6) and 4 * (lengths - width + 1).sum() < 3 * (lengths.sum() - width + 1)
    assert not _takes_kept_rows(lengths, D, K, width)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_kept_row_path_at_cnn_pool_conv3_shape(dtype):
    # B = 32 training utterances as they reach conv3 (256 -> 1024, width 11):
    # the packed forward is bitwise that of each utterance on its own (a lone
    # utterance takes the flat path), and the gradients that of the reference.
    # A lone utterance with one output row is a one-row product, which BLAS
    # runs with another kernel that rounds the last bit differently, so those
    # match to the oracle tolerance only.
    rng = np.random.default_rng(44)
    frames = rng.integers(TRAINING_FRAMES[0], TRAINING_FRAMES[1] + 1, size=32)
    lengths, D, K, width = _default_conv_layers(cnn_pool(20), frames)[2]
    assert (D, K, width) == (256, 1024, 11) and _takes_kept_rows(lengths, D, K, width)
    x_data = rng.normal(size=(int(lengths.sum()), D)).astype(dtype)
    x = parameter(x_data, dtype=dtype)
    f = parameter(rng.normal(size=(K, width, D)), dtype=dtype)
    b = parameter(rng.normal(size=K), dtype=dtype)
    out = ops.conv1d_valid(x, f, b, lengths=lengths)
    assert out.data.dtype == dtype
    out_len = ops.conv_out_lengths(lengths, width)
    assert (out_len > 1).sum() >= 24
    tol = dict(CONV_TOLERANCES)[dtype]
    for u, got in zip(unpack(x_data, lengths), unpack(out.data, out_len)):
        alone = ops.conv1d_valid(Tensor(u, dtype=dtype), f.data, b.data).data
        if len(got) > 1:
            assert np.array_equal(got, alone)
        else:
            assert np.abs(got - alone).max() <= tol * np.abs(alone).max()
    probe = rng.normal(size=out.data.shape).astype(dtype)
    (out * Tensor(probe)).sum().backward()
    expected = reference_conv1d_backward(x_data, f.data, lengths, probe, dtype)
    for name, g, want in zip(("bias", "filters", "input"), (b.grad, f.grad, x.grad), expected):
        assert g.dtype == dtype and np.array_equal(g, want), f"{name} gradient"


def test_conv_one_kept_row_per_utterance_matches_oracle():
    # every utterance exactly `width` frames long: one output row each, so
    # nearly every window straddles two utterances
    rng = np.random.default_rng(45)
    B, D, K, width = 8, 5, 6, 4
    assert _takes_kept_rows(np.full(B, width), D, K, width)
    assert _conv_against_oracle(rng, [width] * B, width, D, K, width, np.float64) <= 1e-12


def test_conv_padding_gets_no_gradient():
    # packed, the frames next to an utterance are its neighbours': a loss
    # on the second utterance's output sends none of them a gradient
    rng = np.random.default_rng(14)
    lens = np.array([5, 8])
    x = parameter(rng.normal(size=(13, 2)), dtype=np.float64)
    f = parameter(rng.normal(size=(2, 3, 2)), dtype=np.float64)
    out = ops.conv1d_valid(x, f, np.zeros(2), lengths=lens)
    pooled = ops.max_over_time(out, lengths=ops.conv_out_lengths(lens, 3))
    (pooled * Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))).sum().backward()
    assert np.all(x.grad[:5] == 0.0)
    assert np.any(x.grad[5:] != 0.0)


# -- max_pool1d -----------------------------------------------------------

def pool_oracle(x, size):
    return np.stack([x[s : s + size].max(axis=0) for s in range(0, len(x), size)])


def test_pool_size_one_is_identity():
    x = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
    assert np.array_equal(ops.max_pool1d(x, 1).data, x)


def test_pool_partial_tail_window():
    out = ops.max_pool1d(np.array([[1.0], [5.0], [2.0], [4.0]]), 3)
    assert np.array_equal(out.data, [[5.0], [4.0]])


def test_pool_matches_window_scan_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        T = int(rng.integers(1, 15))
        K = int(rng.integers(1, 5))
        size = int(rng.integers(1, 6))
        x = rng.normal(size=(T, K))
        out = ops.max_pool1d(Tensor(x, dtype=np.float64), size)
        assert np.array_equal(out.data, pool_oracle(x, size))


def test_pool_bad_size():
    with pytest.raises(ConfigError):
        ops.max_pool1d(np.zeros((4, 2)), 0)


def test_pool_gradient_earliest_tie():
    x = parameter(np.array([[2.0], [5.0], [5.0], [1.0]]), dtype=np.float64)
    ops.max_pool1d(x, 4).sum().backward()
    assert np.array_equal(x.grad.ravel(), [0.0, 1.0, 0.0, 0.0])


def test_pool_gradients():
    rng = np.random.default_rng(22)
    x = parameter(rng.normal(size=(10, 3)), dtype=np.float64)
    probe = Tensor(rng.normal(size=(4, 3)))

    def build():
        return (ops.max_pool1d(x, 3) * probe).sum()

    finite_diff(build, [x])


def test_pool_masked_matches_per_row():
    rng = np.random.default_rng(23)
    rows = [rng.normal(size=(l, 2)) for l in (4, 7)]
    packed, lens = pack(rows)
    out = ops.max_pool1d(Tensor(packed, dtype=np.float64), 3, lengths=lens)
    out_len = ops.pool_out_lengths(lens, 3)
    assert out.data.shape == (out_len.sum(), 2)
    for got, r in zip(unpack(out.data, out_len), rows):
        assert np.array_equal(got, pool_oracle(r, 3))


def test_pool_ragged_batch_matches_per_row_and_pads_get_no_gradient():
    # windows start at each utterance's first frame, so a large value in
    # one utterance never wins a window of its neighbour's
    rng = np.random.default_rng(24)
    lens = np.array([13, 5, 9, 1, 11])
    rows = [rng.normal(size=(n, 3)) + (1e3 if b % 2 else 0.0) for b, n in enumerate(lens)]
    x = parameter(pack(rows)[0], dtype=np.float64)
    out = ops.max_pool1d(x, 4, lengths=lens)
    out_len = ops.pool_out_lengths(lens, 4)
    probe = rng.normal(size=out.data.shape)
    (out * Tensor(probe)).sum().backward()
    for r, got, grad, p in zip(rows, unpack(out.data, out_len), unpack(x.grad, lens),
                               unpack(probe, out_len)):
        assert np.array_equal(got, pool_oracle(r, 4))
        # each window passes its probe value to exactly one of its frames
        assert np.count_nonzero(grad) == np.count_nonzero(p)
        sums = np.add.reduceat(grad, np.arange(0, len(r), 4), axis=0)
        assert np.array_equal(sums, p)


# -- max_over_time --------------------------------------------------------

def test_max_over_time_basic():
    x = np.array([[1.0, 9.0], [4.0, 2.0], [3.0, 5.0]])
    assert np.array_equal(ops.max_over_time(x).data, [4.0, 9.0])


def test_max_over_time_respects_lengths():
    packed = np.array([[1.0], [99.0], [4.0]])
    out = ops.max_over_time(Tensor(packed), lengths=np.array([1, 2]))
    assert np.array_equal(out.data, [[1.0], [99.0]])
    out = ops.max_over_time(Tensor(packed), lengths=np.array([2, 1]))
    assert np.array_equal(out.data, [[99.0], [4.0]])


def test_max_over_time_gradient_goes_to_earliest_tie_of_each_utterance():
    x = parameter(np.array([[5.0], [2.0], [5.0], [3.0], [7.0], [7.0]]), dtype=np.float64)
    ops.max_over_time(x, lengths=[3, 3]).sum().backward()
    assert np.array_equal(x.grad.ravel(), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def test_max_over_time_gradient_goes_to_earliest_tie_in_many_columns():
    # few distinct values, so most columns of every ragged utterance tie
    rng = np.random.default_rng(46)
    lengths = np.array([5, 1, 9, 3, 7, 2])
    data = rng.integers(0, 3, size=(int(lengths.sum()), 40)).astype(np.float64)
    x = parameter(data, dtype=np.float64)
    probe = rng.normal(size=(len(lengths), 40))
    (ops.max_over_time(x, lengths=lengths) * Tensor(probe)).sum().backward()
    expected = np.zeros_like(data)
    for b, (s, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
        for k in range(40):
            col = data[s:s + n, k]
            expected[s + next(t for t in range(n) if col[t] == col.max()), k] = probe[b, k]
    assert np.array_equal(x.grad, expected)


def test_max_over_time_gradients():
    rng = np.random.default_rng(31)
    x = parameter(rng.normal(size=(7, 4)), dtype=np.float64)
    probe = Tensor(rng.normal(size=4))

    def build():
        return (ops.max_over_time(x) * probe).sum()

    finite_diff(build, [x])


# -- logsumexp_pool -------------------------------------------------------

def lse_oracle(col, r):
    with mp.workdps(60):
        terms = [mp.exp(mp.mpf(r) * mp.mpf(float(v))) for v in col]
        return float(mp.log(mp.fsum(terms) / len(terms)) / mp.mpf(r))


def test_lse_constant_column():
    h = np.full((6, 2), 1.7)
    for r in (0.01, 1.0, 100.0):
        assert np.allclose(ops.logsumexp_pool(h, r).data, 1.7, atol=1e-9)


def test_lse_pinned_examples():
    out = ops.logsumexp_pool(np.array([[0.0], [np.log(3.0)]]), 1.0)
    assert abs(out.data[0] - np.log(2.0)) < 1e-9
    assert abs(out.data[0] - 0.693147) < 1e-6
    out = ops.logsumexp_pool(np.array([[1.0], [3.0]]), 100.0)
    assert abs(out.data[0] - 2.993069) < 1e-6
    assert abs(out.data[0] - lse_oracle([1.0, 3.0], 100.0)) < 1e-12


def test_lse_matches_high_precision_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        col = rng.normal(size=int(rng.integers(1, 10))) * 3
        r = float(rng.choice([0.05, 0.5, 1.0, 7.0, 80.0]))
        got = ops.logsumexp_pool(Tensor(col[:, None], dtype=np.float64), r).data[0]
        assert abs(got - lse_oracle(col, r)) < 1e-10


def test_lse_overflow_safe():
    h = np.array([[1e4], [9e3], [-1e4]])
    out = ops.logsumexp_pool(Tensor(h, dtype=np.float64), 1.0)
    assert np.isfinite(out.data).all()
    # max-shifted closed form: m + log(sum exp(h - m))/r - log(T)/r
    expect = 1e4 + np.log(np.exp(0.0) + np.exp(-1e3) + np.exp(-2e4)) - np.log(3.0)
    assert abs(out.data[0] - expect) < 1e-9


def test_lse_bad_r():
    with pytest.raises(ConfigError):
        ops.logsumexp_pool(np.zeros((3, 1)), 0.0)
    with pytest.raises(ConfigError):
        ops.logsumexp_pool(np.zeros((3, 1)), -1.0)


def test_lse_gradients():
    rng = np.random.default_rng(42)
    h = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
    probe = Tensor(rng.normal(size=3))

    def build():
        return (ops.logsumexp_pool(h, 1.0) * probe).sum()

    finite_diff(build, [h])


def test_lse_masked_matches_per_row():
    rng = np.random.default_rng(43)
    rows = [rng.normal(size=(l, 2)) for l in (3, 6)]
    packed, lens = pack(rows)
    out = ops.logsumexp_pool(Tensor(packed, dtype=np.float64), 1.0, lengths=lens)
    assert out.data.shape == (2, 2)
    for i, r in enumerate(rows):
        single = ops.logsumexp_pool(Tensor(r, dtype=np.float64), 1.0)
        assert np.allclose(out.data[i], single.data, atol=1e-12)


def test_lse_ragged_gradients():
    rng = np.random.default_rng(44)
    h = parameter(rng.normal(size=(11, 3)), dtype=np.float64)
    probe = Tensor(rng.normal(size=(3, 3)))

    def build():
        return (ops.logsumexp_pool(h, 2.0, lengths=[4, 1, 6]) * probe).sum()

    finite_diff(build, [h])


# -- dense / activations --------------------------------------------------

def test_dense_identity():
    x = np.array([1.0, -2.0, 3.0])
    out = ops.dense(x, np.eye(3), np.zeros(3))
    assert np.allclose(out.data, x)


def test_dense_zero_weights_sigmoid():
    b = np.array([0.0, 2.0])
    out = ops.dense(np.ones(3), np.zeros((2, 3)), b, activation="sigmoid")
    assert np.allclose(out.data, 1.0 / (1.0 + np.exp(-b)))


def test_dense_matches_matvec_oracle():
    rng = np.random.default_rng(51)
    x = rng.normal(size=3)
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    out = ops.dense(Tensor(x, dtype=np.float64), w, b)
    assert np.allclose(out.data, w @ x + b, atol=1e-12)


def test_dense_shape_mismatch_names_both():
    with pytest.raises(DataError, match=r"\(2, 3\).*\(4,\)"):
        ops.dense(np.zeros(4), np.zeros((2, 3)), np.zeros(2))


def test_dense_bad_activation():
    with pytest.raises(ConfigError):
        ops.dense(np.zeros(3), np.eye(3), np.zeros(3), activation="tanh")


def test_dense_gradients():
    rng = np.random.default_rng(52)
    x = parameter(rng.normal(size=(4, 3)), dtype=np.float64)
    w = parameter(rng.normal(size=(2, 3)), dtype=np.float64)
    b = parameter(rng.normal(size=2), dtype=np.float64)
    probe = Tensor(rng.normal(size=(4, 2)))

    def build():
        return (ops.dense(x, w, b, activation="sigmoid") * probe).sum()

    finite_diff(build, [x, w, b])


def test_relu_values_and_gradient():
    x = parameter(np.array([-2.0, 0.0, 3.0]), dtype=np.float64)
    out = ops.relu(x)
    assert np.array_equal(out.data, [0.0, 0.0, 3.0])
    out.sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_gradient_equals_the_where_form(dtype):
    rng = np.random.default_rng(43)
    data = rng.normal(size=(4, 30, 6))
    data[rng.uniform(size=data.shape) < 0.2] = 0.0  # exact zeros get no gradient
    x = parameter(data, dtype=dtype)
    probe = rng.normal(size=data.shape).astype(dtype)
    (ops.relu(x) * Tensor(probe)).sum().backward()
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, np.where(x.data > 0, probe, 0.0))
    assert np.all(x.grad[x.data == 0.0] == 0.0)


def test_sigmoid_extremes_stay_finite():
    out = ops.sigmoid(np.array([-1e4, 0.0, 1e4]))
    assert np.isfinite(out.data).all()
    assert np.allclose(out.data[1], 0.5)


def test_lengths_validation():
    with pytest.raises(DataError):
        ops.max_over_time(Tensor(np.zeros((10, 1))), lengths=np.array([0, 10]))
    with pytest.raises(DataError):
        ops.max_over_time(Tensor(np.zeros((10, 1))), lengths=np.array([6, 5]))
    with pytest.raises(DataError):
        ops.max_over_time(Tensor(np.zeros((10, 1))), lengths=np.array([5]))
    with pytest.raises(DataError):
        ops.max_over_time(Tensor(np.zeros((10, 1))), lengths=np.array([[5, 5]]))
    with pytest.raises(DataError):
        ops.max_over_time(Tensor(np.zeros((2, 5, 1))), lengths=np.array([5, 5]))


# -- packing --------------------------------------------------------------

def _time_ops(lengths):
    """Each time op at a fixed width, as f(packed x) -> (output Tensor,
    output lengths), with one row block per utterance."""
    conv_f = np.random.default_rng(61).normal(size=(4, 3, 5))
    return {
        "conv": lambda x: (ops.conv1d_valid(x, conv_f, np.ones(4), lengths=lengths),
                           ops.conv_out_lengths(lengths, 3)),
        "pool": lambda x: (ops.max_pool1d(x, 3, lengths=lengths),
                           ops.pool_out_lengths(lengths, 3)),
        "max": lambda x: (ops.max_over_time(x, lengths=lengths), np.ones_like(lengths)),
        "lse": lambda x: (ops.logsumexp_pool(x, 1.5, lengths=lengths), np.ones_like(lengths)),
    }


@pytest.mark.parametrize("op", ["conv", "pool", "max", "lse"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_perturbing_one_utterance_leaves_the_others_bitwise(op, dtype):
    rng = np.random.default_rng(62)
    lengths = np.array([7, 3, 12, 4, 9])
    x = rng.normal(size=(lengths.sum(), 5)).astype(dtype)
    run = _time_ops(lengths)[op]
    before, out_len = run(Tensor(x))
    for b, start in enumerate(np.cumsum(lengths) - lengths):
        y = x.copy()
        y[start:start + lengths[b]] = rng.normal(size=(lengths[b], 5)) * 1e3
        after, _ = run(Tensor(y))
        blocks = zip(unpack(before.data, out_len), unpack(after.data, out_len))
        for k, (old, new) in enumerate(blocks):
            assert np.array_equal(old, new) == (k != b), (b, k)


@pytest.mark.parametrize("op", ["conv", "pool", "max", "lse"])
def test_packed_gradients_ragged(op):
    # lengths 3 (the conv's minimum) and pool tails of 1, 2 and 3 frames
    rng = np.random.default_rng(63)
    lengths = np.array([3, 7, 5, 9])
    x = parameter(rng.normal(size=(lengths.sum(), 5)), dtype=np.float64)
    run = _time_ops(lengths)[op]
    probe = Tensor(rng.normal(size=run(x)[0].data.shape))

    def build():
        return (run(x)[0] * probe).sum()

    finite_diff(build, [x])
