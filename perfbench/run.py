"""gkw benchmark: train-cnn, train-psc and score-long.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; gkw is imported from `src/`. Without
`--workload`, each workload runs in a process of its own, one after the
other. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` they are the per-layer ones from a traced pass. The lines
before it list every metric with its unit, sample count and better
direction, and the machine and workload facts. Results, traces and
records of exact values go under `.bench_run/`; the exit code is 1 when a
correctness check fails.

See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_run"
WORKLOADS = ("train-cnn", "train-psc", "score-long")
DEFAULT_SEED = 17
DEFAULT_SECONDS = 30

# name -> (unit, better); printed for every workload with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "frames_per_s": ("frame/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="corpus seed")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass, per-layer metrics")
    return parser.parse_args(argv)


def pin_threads():
    """Pin BLAS threads to nproc, at most 2; only works before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    count = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_VARS:
        os.environ[var] = str(count)
    return count


def machine_facts(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def _emit(lines, result):
    for line in lines:
        print(line)
    print(json.dumps(result, separators=(",", ":")), flush=True)


def _metric_lines(metrics, samples, better=None):
    lines = []
    for name, (value, unit) in metrics.items():
        direction = f"  {better[name]} is better" if better else ""
        lines.append(f"{name:34s} {value:16.6g} {unit:8s} n={samples[name]}{direction}")
    return lines


def _reset(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _record_exact(path, values, checks):
    """Values that must repeat exactly for this seed: compare with the ones a
    previous run in this checkout recorded, and add any new ones."""
    known = json.loads(path.read_text()) if path.exists() else {}
    for name, value in values.items():
        if value is None:  # a failed step left nothing to compare
            continue
        if name in known:
            checks.expect(known[name] == value,
                          f"{name} = {value!r}, an earlier run on this seed had {known[name]!r}")
        else:
            known[name] = value
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(args, threads):
    import layers
    import workloads
    from tracer import Tracer

    facts = machine_facts(threads)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    for sub in ("results", "traces", "exact"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, ROOT)
    checks = workloads.Checks()
    tag = f"{args.workload}-s{args.seed}"
    try:
        if args.trace:
            metrics, samples, exact, info = _traced(args, wl, work, checks, layers, Tracer)
        else:
            metrics, samples, exact, info = _untraced(args, wl, work, checks)
        # the record holds for one seed, thread count and set of parameters
        key = hashlib.blake2b(json.dumps(wl.params(), sort_keys=True).encode(),
                              digest_size=4).hexdigest()
        _record_exact(OUT / "exact" / f"{tag}-t{threads}-{key}.json", exact, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.UNITS if args.trace else {k: v[0] for k, v in END_TO_END.items()}
    shown = {name: (metrics[name], units[name]) for name in units}
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, params=wl.params(), samples=samples,
                  info=info, failures=checks.failures)
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    lines = [f"# gkw benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds} s, trace {args.trace}",
             "# machine " + json.dumps(facts, sort_keys=True),
             "# workload " + json.dumps(wl.params(), sort_keys=True)]
    better = None if args.trace else {k: v[1] for k, v in END_TO_END.items()}
    lines += _metric_lines(shown, samples, better)
    lines += [f"# also measured: {k} {v:.6g}" for k, v in info.items() if not isinstance(v, list)]
    lines += [f"# check failed: {what}" for what in checks.failures]
    lines.append(f"# checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    _emit(lines, result)
    return 0 if result["correct"] else 1


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(wl, state, seconds, checks):
    """Timed passes: at least one, and another only while it fits the budget.

    The peak RSS is read after the first pass, so that every run has done
    the same work by then. Memory the allocator keeps grows with each
    further pass, and how many passes fit depends on the machine's speed.
    """
    wl.warm_up(state)
    passes = []
    start = time.perf_counter()
    while True:
        result = wl.run(state)
        if not passes:
            result["peak_rss_mb"] = _peak_rss_mb()
        passes.append(result)
        wl.check(state, result, checks)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def _untraced(args, wl, work, checks):
    setup, state = [], None
    for _ in range(wl.setup_reps):
        state = None  # the last set-up's state goes before the next set-up starts
        gc.collect()
        _reset(work)
        start = time.perf_counter()
        state = wl.setup(work)
        setup.append(time.perf_counter() - start)
    passes = _measure(wl, state, args.seconds, checks)
    if hasattr(wl, "check_shuffled"):
        wl.check_shuffled(state, passes[-1], checks)
    metrics = {
        "setup_s": statistics.median(setup),
        "frames_per_s": statistics.median(p["frames_per_s"] for p in passes),
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    samples = {"setup_s": len(setup), "frames_per_s": len(passes), "peak_rss_mb": 1}
    info = {k: statistics.median(p["info"][k] for p in passes) for k in passes[0]["info"]}
    info["frames_per_s_passes"] = [p["frames_per_s"] for p in passes]
    info["setup_s_reps"] = setup
    return metrics, samples, {"ap": passes[0].get("ap")}, info


def _traced(args, wl, work, checks, layers, Tracer):
    """Per-layer metrics from one traced pass, and its overhead against the
    untraced pass that follows it. A full untimed pass comes first, since
    the first full pass in a process is slower than later ones."""
    _reset(work)
    state = wl.setup(work)
    wl.warm_up(state)
    wl.check(state, wl.run(state), checks)
    del state
    tracer = Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}")
    _reset(work)
    with tracer:
        with tracer.span("bench.setup"):
            state = wl.setup(work)
        with tracer.span("bench.pass"):
            traced = wl.run(state)
    wl.check(state, traced, checks)
    plain = wl.run(state)
    wl.check(state, plain, checks)
    checks.expect(traced.get("ap") == plain.get("ap"),
                  f"tracing changed the AP from {plain.get('ap')!r} to {traced.get('ap')!r}")
    tracer.write_jsonl(OUT / "traces" / f"{args.workload}-s{args.seed}.jsonl")
    derived = layers.derive(tracer.spans, test_utterances=getattr(wl, "test_size", None))
    derived["trace.overhead_ratio"] = (traced["wall"] / plain["wall"], 1)
    metrics = {name: value for name, (value, _) in derived.items()}
    samples = {name: n for name, (_, n) in derived.items()}
    exact = {name: metrics[name] for name in layers.EXACT_COUNTS}
    exact["ap"] = traced.get("ap")
    return metrics, samples, exact, traced["info"]


def run_all(args):
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        worst = max(worst, done.returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gkw" / "__init__.py").is_file():
        print(f"gkw benchmark: no gkw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
