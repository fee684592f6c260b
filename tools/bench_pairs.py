"""Run the benchmark in two checkouts in alternating pairs and compare them.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S]

Each pair runs `python3 perfbench/run.py --workload W --seed S` once in
each checkout, from that checkout's root, so each run uses its own code
and its own `.bench_run/`, the records of exact values included: a change
that moves a trained value on purpose is not checked against the other
checkout's record. The parent runs first in even pairs (0, 2, ...) and the
change first in odd ones. Each run's result is the JSON object on the last
line it prints.

For each end-to-end metric that CHANGE_DIR's BENCHMARK.json names, the
script prints the per-pair ratios change / parent, each side's median and
quartiles, the share of pairs in which the change is better (ties count
for neither side), and whether the change clears the gain rule (better in
at least nine tenths of the pairs, medians further apart than the
parent's interquartile range) and stays within the metric's bound. Per-pair
ratios show a gain that every pair shows even when the host's speed moves
during the series, which pooled quartiles can hide. Failed correctness
checks are counted per side.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", type=int, required=True, help="number of pairs to run")
    parser.add_argument("--seed", type=int, default=17, help="corpus seed (default 17)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def last_json(stdout):
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_once(checkout, workload, seed):
    """One benchmark run in `checkout`; its result object."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return last_json(run.stdout)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        raise SystemExit(f"{checkout}: run exited {run.returncode} with no result "
                         f"({err}):\n{run.stderr[-2000:]}") from None


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """Report lines for `pairs`, a list of (parent result, change result),
    on `metrics`, the end_to_end entries of BENCHMARK.json."""
    lines = []
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(p[index]["failed"] for p in pairs)
        attempted = sum(p[index]["attempted"] for p in pairs)
        wrong = sum(not p[index]["correct"] for p in pairs)
        lines.append(f"{side}: {failed} of {attempted} checks failed, "
                     f"in {wrong} of {len(pairs)} runs")
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        unit = pairs[0][0]["metrics"][name]["unit"]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratios = [c / p for p, c in zip(parent, change)]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gain = wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1
        within = sign * (cm - pm) >= -bound * abs(pm)
        lines += [
            f"{name} ({unit}, {better} is better, bound {bound}), {len(pairs)} pairs",
            "  ratios change/parent: " + " ".join(f"{r:.3f}" for r in ratios),
            f"  parent median {pm:.6g}, quartiles {p1:.6g} to {p3:.6g}, IQR {p3 - p1:.6g}",
            f"  change median {cm:.6g}, quartiles {c1:.6g} to {c3:.6g}, IQR {c3 - c1:.6g}",
            f"  change better in {wins} of {len(pairs)} pairs; median ratio "
            f"{statistics.median(ratios):.3f}; medians differ by {cm - pm:+.6g}",
            f"  gain rule met: {'yes' if gain else 'no'}; within bound: "
            f"{'yes' if within else 'no'}",
        ]
    return lines


def main(argv):
    args = parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            result[side] = run_once(getattr(args, side), args.workload, args.seed)
        pairs.append((result["parent"], result["change"]))
    print(f"# workload {args.workload}, seed {args.seed}, parent {args.parent}, "
          f"change {args.change}")
    for line in summarize(pairs, metrics):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
