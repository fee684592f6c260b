"""Per-layer metrics derived from the spans of one traced pass.

A "batch" is one `SpeechModel.forward` call on a (B, T, D) batch; a sweep
is one `Tensor.backward` call. Op times are self times (a span minus the
spans directly inside it) summed per batch or per sweep, so `ops.dense`
leaves out the activation it calls and an op's backward leaves out the
`accumulate_grad` calls that `tensor.accumulate_grad_ms` reports. Step
and batch values are medians over batches, sweeps or steps.

Every metric is reported for every workload. A layer the workload does not
run reads 0 with 0 samples.
"""

import bisect
import statistics

from tracer import ATTRS, END, NAME, PARENT, START

OPS = ("max_pool1d", "max_over_time", "dense", "logsumexp_pool", "relu", "sigmoid")
CONV_LAYERS = tuple(f"conv{i}" for i in range(1, 7))

FORWARD = "models.SpeechModel.forward"
BACKWARD = "tensor.Tensor.backward"
ACCUMULATE = "tensor.Tensor.accumulate_grad"
ADAM_STEP = "optim.Adam.step"
LOSS = "models.bow_loss"

# exact counts: the same seed must give the same value in every run
EXACT_COUNTS = (
    "ops.conv.gflop_per_batch", "models.pad_fraction", "tensor.nodes_per_step",
    "optim.adam_params", "optim.adam_bytes_per_step",
)

# name -> unit, in the order the metrics are printed
UNITS = {}
for _layer in CONV_LAYERS:
    UNITS[f"ops.{_layer}.fwd_ms"] = "ms"
    UNITS[f"ops.{_layer}.bwd_ms"] = "ms"
UNITS["ops.conv.gflop_per_batch"] = "GFLOP"
UNITS["ops.conv.gflop_s"] = "GFLOP/s"
for _op in OPS:
    UNITS[f"ops.{_op}.fwd_ms"] = "ms"
    UNITS[f"ops.{_op}.bwd_ms"] = "ms"
UNITS.update({
    "tensor.backward_ms": "ms",
    "tensor.backward_self_ms": "ms",
    "tensor.accumulate_grad_ms": "ms",
    "tensor.nodes_per_step": "count",
    "optim.adam_step_ms": "ms",
    "optim.adam_params": "count",
    "optim.adam_bytes_per_step": "B",
    "models.step_ms": "ms",
    "models.step_p90_ms": "ms",
    "models.step_self_ms": "ms",
    "models.forward_ms": "ms",
    "models.loss_ms": "ms",
    "models.dev_pass_s": "s",
    "models.pad_fraction": "ratio",
    "models.score_utterances_s": "s",
    "models.predict_ms": "ms",
    "models.save_checkpoint_ms": "ms",
    "models.load_checkpoint_ms": "ms",
    "synth.generate_corpus_s": "s",
    "synth.load_features_s": "s",
    "targets.load_vision_targets_ms": "ms",
    "features.read_features_ms": "ms",
    "features.write_features_ms": "ms",
    "evaluation.average_precision_ms": "ms",
    "evaluation.keyword_spot_ms": "ms",
    "evaluation.bow_metrics_ms": "ms",
    "evaluation.score_table_save_ms": "ms",
    "evaluation.score_table_load_ms": "ms",
    "cli.score_self_ms": "ms",
    "cli.eval_s": "s",
    "cli.localize_utt_per_s": "utt/s",
    "trace.overhead_ratio": "ratio",
})

_SCALE = {"ms": 1e3, "s": 1.0}

# per-call medians of single functions: metric -> span name
_PER_CALL = {
    "models.loss_ms": LOSS,
    "models.score_utterances_s": "models.score_utterances",
    "models.predict_ms": "models.SpeechModel.predict",
    "models.save_checkpoint_ms": "models.save_checkpoint",
    "models.load_checkpoint_ms": "models.load_checkpoint",
    "synth.generate_corpus_s": "synth.generate_corpus",
    "synth.load_features_s": "synth.CorpusManifest.load_features",
    "targets.load_vision_targets_ms": "targets.load_vision_targets",
    "features.read_features_ms": "features.read_features",
    "features.write_features_ms": "features.write_features",
    "evaluation.average_precision_ms": "evaluation.average_precision",
    "evaluation.keyword_spot_ms": "evaluation.keyword_spot",
    "evaluation.bow_metrics_ms": "evaluation.bow_metrics",
    "evaluation.score_table_save_ms": "evaluation.ScoreTable.save",
    "evaluation.score_table_load_ms": "evaluation.ScoreTable.load",
    "optim.adam_step_ms": ADAM_STEP,
    "tensor.backward_ms": BACKWARD,
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class _Index:
    """Durations, self times, and the batch or sweep each span falls in."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        child_time = [0.0] * n
        self.unit = [-1] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += self.dur[i]
            if (s[NAME] == FORWARD and (s[ATTRS] or {}).get("batched")) or s[NAME] == BACKWARD:
                self.unit[i] = i
            elif p >= 0:
                self.unit[i] = self.unit[p]
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]
        self.by_name = {}
        self._sums = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
            u = self.unit[i]
            if u >= 0 and u != i:
                key = (s[NAME], (s[ATTRS] or {}).get("layer") if s[NAME].startswith("ops.conv1d") else None)
                per = self._sums.setdefault(key, {})
                per[u] = per.get(u, 0.0) + self.self_time[i]

    def named(self, name):
        return self.by_name.get(name, [])

    def per_unit(self, units, name, layer=None):
        """Summed self time of `name` spans (of one conv layer) per unit,
        for the units in which it ran."""
        sums = self._sums.get((name, layer), {})
        return [sums[u] for u in units if u in sums]

    def inside(self, i, ancestor_name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == ancestor_name:
                return p
            p = self.spans[p][PARENT]
        return -1


def _steps(ix, batches):
    """(interval, self) per training step or scoring batch.

    A training step runs from one `Adam.step` return to the next, inside one
    `train` call, with exactly one batched forward between them. A scoring
    batch runs from the previous batch's end (or the `score_utterances`
    start) to the end of its forward. Self time is what is left after the
    forward, loss, backward and Adam spans.
    """
    out = []
    spans = ix.spans
    step_parts = (FORWARD, LOSS, BACKWARD, ADAM_STEP, "optim.Adam.zero_grad")
    for train in ix.named("models.train"):
        ends = [i for i in ix.named(ADAM_STEP) if ix.inside(i, "models.train") == train]
        for prev, cur in zip(ends, ends[1:]):
            lo, hi = spans[prev][END], spans[cur][END]
            kids = [i for i in range(prev + 1, cur + 1) if spans[i][PARENT] == spans[cur][PARENT]]
            forwards = [i for i in kids if i in batches]
            if len(forwards) != 1:
                continue
            busy = sum(ix.dur[i] for i in kids if spans[i][NAME] in step_parts)
            out.append((hi - lo, hi - lo - busy))
    for call in ix.named("models.score_utterances"):
        lo = spans[call][START]
        for i in ix.named(FORWARD):
            if i in batches and spans[i][PARENT] == call:
                hi = spans[i][END]
                out.append((hi - lo, hi - lo - ix.dur[i]))
                lo = hi
    return out


def _dev_passes(ix, batches):
    """Wall of each dev-loss pass: a run of batched forwards in a `train`
    call with no backward after any of them, up to the last one's loss."""
    spans = ix.spans
    out = []
    for train in ix.named("models.train"):
        kids = [i for i in range(train + 1, len(spans)) if spans[i][PARENT] == train]
        forwards = [i for i in kids if i in batches]
        backwards = [i for i in kids if spans[i][NAME] == BACKWARD]
        runs = []
        for a, b in zip(forwards, forwards[1:] + [len(spans)]):
            trained = bisect.bisect_right(backwards, a) < bisect.bisect_left(backwards, b)
            if trained:
                runs.append(None)
            elif runs and runs[-1] is not None:
                runs[-1][1] = a
            else:
                runs.append([a, a])
        for run in filter(None, runs):
            first, last = run
            losses = [k for k in kids if k > last and spans[k][NAME] == LOSS]
            end = spans[losses[0]][END] if losses else spans[last][END]
            out.append(end - spans[first][START])
    return out


def derive(spans, test_utterances=None):
    """Per-layer metrics of one traced pass: {name: (value, samples)}.

    `test_utterances` turns the localizing `score` call into
    `cli.localize_utt_per_s`.
    """
    ix = _Index(spans)
    batches = {i for i in ix.named(FORWARD) if spans[i][ATTRS].get("batched")}
    sweeps = ix.named(BACKWARD)
    forward_units = sorted(batches)
    m = {}

    conv_fwd = "ops.conv1d_valid"
    conv_bwd = "ops.conv1d_valid:backward"
    for layer in CONV_LAYERS:
        fwd = ix.per_unit(forward_units, conv_fwd, layer)
        bwd = ix.per_unit(sweeps, conv_bwd, layer)
        m[f"ops.{layer}.fwd_ms"] = (_median(fwd) * 1e3, len(fwd))
        m[f"ops.{layer}.bwd_ms"] = (_median(bwd) * 1e3, len(bwd))

    per_batch = {u: 0 for u in forward_units}
    flops = seconds = 0.0
    for i in ix.named(conv_fwd):
        attrs = spans[i][ATTRS]
        if ix.unit[i] in per_batch:
            per_batch[ix.unit[i]] += attrs["flops"]
        flops += attrs["flops"]
        seconds += ix.self_time[i]
    for i in ix.named(conv_bwd):
        flops += spans[i][ATTRS]["bwd_flops"]
        seconds += ix.self_time[i]
    gflops = [v / 1e9 for v in per_batch.values() if v]
    m["ops.conv.gflop_per_batch"] = (_median(gflops), len(gflops))
    m["ops.conv.gflop_s"] = (flops / 1e9 / seconds if seconds else 0.0, len(ix.named(conv_fwd)))

    for op in OPS:
        name = f"ops.{op}"
        fwd = ix.per_unit(forward_units, name)
        bwd = ix.per_unit(sweeps, name + ":backward")
        m[f"ops.{op}.fwd_ms"] = (_median(fwd) * 1e3, len(fwd))
        m[f"ops.{op}.bwd_ms"] = (_median(bwd) * 1e3, len(bwd))

    walk, acc, nodes = [], [], []
    for u in sweeps:
        closures = accumulate = 0.0
        for i in range(u + 1, len(spans)):
            if spans[i][START] >= spans[u][END]:
                break
            if spans[i][NAME].endswith(":backward") and spans[i][PARENT] == u:
                closures += ix.self_time[i]
            elif spans[i][NAME] == ACCUMULATE:
                accumulate += ix.dur[i]
        walk.append(ix.dur[u] - closures)
        acc.append(accumulate)
        nodes.append(spans[u][ATTRS]["nodes"])
    m["tensor.backward_self_ms"] = (_median(walk) * 1e3, len(walk))
    m["tensor.accumulate_grad_ms"] = (_median(acc) * 1e3, len(acc))
    m["tensor.nodes_per_step"] = (_median(nodes), len(nodes))

    adam = [spans[i][ATTRS] for i in ix.named(ADAM_STEP)]
    params = adam[-1]["params"] if adam else 0
    m["optim.adam_params"] = (params, len(adam))
    # computed, not measured: Adam reads p, g, m, v and writes p, m, v
    m["optim.adam_bytes_per_step"] = (7 * params * (adam[-1]["itemsize"] if adam else 0), len(adam))

    steps = _steps(ix, batches)
    m["models.step_ms"] = (_median([s[0] for s in steps]) * 1e3, len(steps))
    m["models.step_p90_ms"] = (_p90([s[0] for s in steps]) * 1e3, len(steps))
    m["models.step_self_ms"] = (_median([s[1] for s in steps]) * 1e3, len(steps))
    dev = _dev_passes(ix, batches)
    m["models.dev_pass_s"] = (_median(dev), len(dev))
    computed = sum(spans[i][ATTRS]["computed"] for i in batches)
    valid = sum(spans[i][ATTRS]["valid"] for i in batches)
    m["models.pad_fraction"] = ((computed - valid) / computed if computed else 0.0, len(batches))

    forwards = [ix.dur[i] for i in forward_units]
    m["models.forward_ms"] = (_median(forwards) * 1e3, len(forwards))
    for metric, name in _PER_CALL.items():
        values = [ix.dur[i] for i in ix.named(name)]
        m[metric] = (_median(values) * _SCALE[UNITS[metric]], len(values))

    cli = [(i, spans[i][ATTRS]) for i in ix.named("cli.main")]
    score = [ix.self_time[i] for i, a in cli if a["command"] == "score"]
    evals = [ix.dur[i] for i, a in cli if a["command"] == "eval"]
    local = [ix.dur[i] for i, a in cli if a["command"] == "score" and a["localize"]]
    m["cli.score_self_ms"] = (_median(score) * 1e3, len(score))
    m["cli.eval_s"] = (_median(evals), len(evals))
    rate = test_utterances / _median(local) if local and test_utterances else 0.0
    m["cli.localize_utt_per_s"] = (rate, len(local))
    return m
