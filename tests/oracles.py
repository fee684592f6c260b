"""Independently coded metric oracles used by the test suite.

These deliberately avoid the library's code paths: counting is done with
per-pair loops, ranking with numpy lexsort, EER with an exhaustive
operating-point scan. They exist so the shipped metrics can be checked
against a second implementation, not to be fast.
"""

import numpy as np


def oracle_bow_metrics(predictions, reference):
    hits = 0
    n_pred = 0
    n_ref = 0
    for utt_id in predictions:
        for word in predictions[utt_id]:
            n_pred += 1
            if word in reference[utt_id]:
                hits += 1
        for _ in reference[utt_id]:
            n_ref += 1
    p = hits / n_pred if n_pred else 0.0
    r = hits / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_average_precision(table, reference):
    """All-thresholds PR-step evaluation over the pooled pair set."""
    scores = []
    labels = []
    for i, utt_id in enumerate(table.utt_ids):
        for w, word in enumerate(table.vocab.words):
            scores.append(float(table.scores[i, w]))
            labels.append(word in reference[utt_id])
    scores = np.array(scores)
    labels = np.array(labels)
    total_pos = int(labels.sum())
    ap = 0.0
    recall_prev = 0.0
    for tau in sorted(set(scores.tolist()), reverse=True):
        retrieved = scores >= tau
        pos = int(labels[retrieved].sum())
        precision = pos / int(retrieved.sum())
        recall = pos / total_pos
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return ap


def oracle_precision_at(table, reference, keyword, k=None):
    """P@10 (k=None -> 10) or P@N via an independent lexsort ranking."""
    col = table.vocab.words.index(keyword)
    scores = table.scores[:, col].astype(np.float64)
    ids = np.array(table.utt_ids)
    order = np.lexsort((ids, -scores))
    hits = np.array([keyword in reference[u] for u in ids[order]])
    n_true = int(np.array([keyword in reference[u] for u in ids]).sum())
    if k is None:
        return float(hits[:10].sum()) / 10.0, n_true
    n = n_true if k == "N" else k
    return float(hits[:n].sum()) / n, n_true


def oracle_eer(positives, negatives):
    """Exhaustive sweep; crossing solved on the segment where FA passes FR."""
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    taus = [np.inf] + sorted(set(positives.tolist()) | set(negatives.tolist()), reverse=True)
    points = []
    for tau in taus:
        fa = float((negatives >= tau).sum()) / len(negatives)
        fr = float((positives < tau).sum()) / len(positives)
        points.append((fa, fr))
    for (fa0, fr0), (fa1, fr1) in zip(points, points[1:]):
        if fa1 >= fr1:
            if fa1 == fr1:
                return fa1
            denom = (fa1 - fa0) - (fr1 - fr0)
            t = (fr0 - fa0) / denom
            return fa0 + t * (fa1 - fa0)
    return points[-1][0]


def random_eval_instance(rng, oov_words=("zzq", "xxo")):
    """A small random ScoreTable plus reference sets with some OOV noise."""
    from gkw.evaluation import ScoreTable
    from gkw.targets import Vocabulary

    n_utts = int(rng.integers(3, 13))
    n_words = int(rng.integers(2, 7))
    vocab = Vocabulary([f"w{i}" for i in range(n_words)])
    ids = [f"u{k:02d}" for k in range(n_utts)]
    scores = rng.uniform(size=(n_utts, n_words)).astype(np.float32)
    reference = {}
    for utt_id in ids:
        words = {w for w in vocab.words if rng.uniform() < 0.4}
        if rng.uniform() < 0.3:
            words.add(oov_words[int(rng.integers(0, len(oov_words)))])
        reference[utt_id] = frozenset(words)
    # make sure at least one in-vocabulary positive exists
    reference[ids[0]] = frozenset(set(reference[ids[0]]) | {vocab.words[0]})
    return ScoreTable(ids, scores, vocab), reference


def oracle_conv1d(x, filters, bias, lengths, grad_out):
    """Valid convolution of each utterance on its own, tap by tap, in float64.

    x: (B, T, D); filters: (K, width, D); bias: (K,); lengths: (B,);
    grad_out: (B, T - width + 1, K). Returns (out, d_filters, d_bias, d_x):
    the output, zero past each row's valid frames, and the gradients of
    sum(out * grad_out). Frames past a row's length are never read.
    """
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    B, T, D = x.shape
    K, width, _ = filters.shape
    out = np.zeros((B, T - width + 1, K))
    d_filters = np.zeros_like(filters)
    d_bias = np.zeros(K)
    d_x = np.zeros_like(x)
    for b in range(B):
        utt = x[b, : lengths[b]]
        for t in range(len(utt) - width + 1):
            g = grad_out[b, t]
            out[b, t] = bias
            d_bias += g
            for i in range(width):
                out[b, t] += filters[:, i, :] @ utt[t + i]
                d_filters[:, i, :] += np.outer(g, utt[t + i])
                d_x[b, t + i] += g @ filters[:, i, :]
    return out, d_filters, d_bias, d_x


def pack(rows):
    """Utterances back to back: (the (N, D) packed matrix, their lengths)."""
    return np.concatenate(rows), np.array([len(r) for r in rows], dtype=np.int64)


def unpack(packed, lengths):
    """The per-utterance row blocks of a packed matrix."""
    return np.split(packed, np.cumsum(lengths)[:-1])


def pad(rows, fill=0.0):
    """Utterances as a (B, T, D) batch padded with `fill` to the longest."""
    batch = np.full((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:], fill)
    for b, r in enumerate(rows):
        batch[b, :len(r)] = r
    return batch


def reference_conv1d_backward(x, filters, lengths, grad_out, dtype):
    """The conv1d_valid backward built from tap-major windows, one path per
    gradient, in the fast path's summation order.

    x: packed (N, D) with `lengths`; grad_out: packed (N_out, K). The
    filter gradient is `np.tensordot` of the output gradient with the
    tap-major windows of a sliding-window view, summed into
    (K, width, D) the way the op sums it. Where `ops._by_phase` takes the
    layer's n = N - width + 1 windows by phase, the output gradient is
    placed at its windows' rows of a zeroed (n, K) array, and the sum runs
    over the phases j < width in order, phase j being windows j, j + width,
    ... Elsewhere it runs over the windows of the kept rows, block by block
    over `ops._window_blocks(N_out)`. The input gradient, with at least as
    many input channels as filters, is one GEMM over every row's window of
    the output gradient, zero-padded in front by width - 1 rows, with the
    flipped filters; with fewer channels, one GEMM over the kept rows with
    all the taps' filters side by side, whose tap-i columns are added to
    the rows kept + i in tap order. The fast path must match it bitwise (up
    to the sign of zeros). Returns (d_bias, d_filters, d_x) in `dtype`.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    from gkw import ops

    x = np.asarray(x, dtype=dtype)
    filters = np.asarray(filters, dtype=dtype)
    g = np.asarray(grad_out, dtype=dtype)
    N, D = x.shape
    K, width, _ = filters.shape
    n = N - width + 1
    starts = np.cumsum(lengths) - lengths
    keep = np.concatenate([s + np.arange(l - width + 1) for s, l in zip(starts, lengths)])
    d_bias = g.sum(axis=0)
    win = sliding_window_view(x, width, axis=0).transpose(0, 2, 1)  # (n, width, D)
    d_filters = np.zeros((K, width, D), dtype=dtype)
    if ops._by_phase(n, width, K):
        g_all = np.zeros((n, K), dtype=dtype)
        g_all[keep] = g
        for j in range(width):
            d_filters += np.tensordot(g_all[j::width], win[j::width], axes=([0], [0]))
    else:
        for s, e in ops._window_blocks(len(keep)):
            d_filters += np.tensordot(g[s:e], win[keep[s:e]], axes=([0], [0]))
    if D >= K:
        padded = np.zeros((N + width - 1, K), dtype=dtype)
        padded[keep + width - 1] = g
        windows = sliding_window_view(padded, width, axis=0).transpose(0, 2, 1)
        flipped = np.stack([filters[:, width - 1 - j, :] for j in range(width)])
        d_x = windows.reshape(N, width * K) @ flipped.reshape(width * K, D)
    else:
        d_x = np.zeros((N, D), dtype=dtype)
        taps = g @ filters.reshape(K, width * D)
        for i in range(width):
            d_x[keep + i] += taps[:, i * D:(i + 1) * D]
    return d_bias, d_filters, d_x


def reference_forward(model, batch, lengths, scores=False):
    """A SpeechModel's forward pass on a padded (B, T, D) batch, computed
    the padded way: every layer keeps (B, T', K) arrays, zero-fills the
    frames past each row's valid length, pools with -inf fills, and masks
    the time reductions. Every convolution is one GEMM over the tap-major
    windows of every row, padding included. Plain numpy, no
    Tensors. Returns the (B, W) probabilities, and with `scores` (psc) also
    the padded (B, T', W) score map and its valid lengths.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    from scipy.special import expit

    dtype = model.dtype
    x = np.asarray(batch, dtype=dtype)
    lens = np.asarray(lengths, dtype=np.int64)
    conv_i = dense_i = 0
    h = h_lens = None
    for layer in model.spec.layers:
        if layer[0] == "conv":
            _, width, _, activation = layer
            conv_i += 1
            F = model.params[f"conv{conv_i}.filters"].data
            b = model.params[f"conv{conv_i}.bias"].data
            B, T, D = x.shape
            K, T_out = len(F), T - width + 1
            win = sliding_window_view(x, width, axis=1).transpose(0, 1, 3, 2)
            x = win.reshape(B * T_out, width * D) @ F.reshape(K, width * D).T
            x = (x + b).reshape(B, T_out, K)
            lens = lens - width + 1
            x[np.arange(T_out)[None, :] >= lens[:, None]] = 0.0
            if activation == "relu":
                x = np.maximum(x, 0.0)
        elif layer[0] == "pool":
            size = layer[1]
            B, T, K = x.shape
            T_out = -(-T // size)
            win = np.full((B, T_out * size, K), -np.inf, dtype=dtype)
            np.copyto(win[:, :T], x, where=(np.arange(T)[None, :] < lens[:, None])[:, :, None])
            x = win.reshape(B, T_out, size, K).max(axis=2)
            lens = -(-lens // size)
            x[np.arange(T_out)[None, :] >= lens[:, None]] = 0.0
        elif layer[0] == "maxtime":
            valid = np.arange(x.shape[1])[None, :, None] < lens[:, None, None]
            x = np.where(valid, x, -np.inf).max(axis=1)
        elif layer[0] == "lse":
            r = layer[1]
            h, h_lens = x, lens
            valid = np.arange(x.shape[1])[None, :, None] < lens[:, None, None]
            m = np.where(valid, x, -np.inf).max(axis=1)
            z = np.exp(r * np.where(valid, x - m[:, None, :], -np.inf))
            x = m + (np.log(z.sum(axis=1)) - np.log(lens).astype(dtype)[:, None]) / r
        elif layer[0] == "dense":
            _, _, activation = layer
            dense_i += 1
            W = model.params[f"dense{dense_i}.weights"].data
            b = model.params[f"dense{dense_i}.bias"].data
            x = x @ W.T + b
            if activation == "relu":
                x = np.maximum(x, 0.0)
            elif activation == "sigmoid":
                x = expit(x)
        elif layer[0] == "sigmoid":
            x = expit(x)
    return (x, h, h_lens) if scores else x


def corrupted_copies(blob, cases, seed, header_len, size_offsets):
    """Seeded damaged copies of a well-formed file, for fuzzing a reader.

    Cycles through three kinds of damage and yields (kind, bytes):
    "truncate" cuts the file at a random length; "flip" flips one bit,
    half of the time inside the first `header_len` bytes, where a flip
    changes structure rather than a stored value; "oversize" overwrites the
    little-endian uint32 size field at one of `size_offsets` with a size
    larger than the whole file.
    """
    rng = np.random.default_rng(seed)
    for case in range(cases):
        data = bytearray(blob)
        kind = ("truncate", "flip", "oversize")[case % 3]
        if kind == "truncate":
            data = data[: int(rng.integers(0, len(data)))]
        elif kind == "flip":
            end = header_len if rng.uniform() < 0.5 else len(data)
            data[int(rng.integers(0, end))] ^= 1 << int(rng.integers(0, 8))
        else:
            at = int(rng.choice(size_offsets))
            data[at:at + 4] = int(rng.integers(len(data), 2**32)).to_bytes(4, "little")
        yield kind, bytes(data)


def reader_leaks(read, path, blob, cases, seed, header_len, size_offsets):
    """Run `read(path)` on each of `corrupted_copies(blob, ...)` written to
    `path`; returns the errors other than a DataError, as "kind: repr"
    strings. A copy that still reads, or that raises a DataError, passes."""
    from gkw.errors import DataError

    leaks = []
    for kind, data in corrupted_copies(blob, cases, seed, header_len, size_offsets):
        path.write_bytes(data)
        try:
            read(path)
        except DataError:
            pass
        except Exception as err:  # noqa: BLE001 -- any other error is the failure
            leaks.append(f"{kind}: {err!r}")
    return leaks
