"""tools/bench_pairs.py: reading a run's result and summarising pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(setup, frames, rss, failed=0):
    """A run's result object as perfbench/run.py prints it."""
    values = {"setup_s": (setup, "s"), "frames_per_s": (frames, "frame/s"),
              "peak_rss_mb": (rss, "MB")}
    return {"correct": not failed, "attempted": 36, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def report(lines, name):
    """The lines of one metric's block in a summary."""
    start = next(i for i, line in enumerate(lines) if line.startswith(name + " "))
    return lines[start:start + 6]


def test_last_json_reads_the_result_line_of_a_run():
    run = "\n".join([
        "# gkw benchmark: workload train-psc, seed 17, 30 s, trace 0",
        "setup_s                                    1.02 s        n=1  lower is better",
        "# checks: 36 attempted, 0 failed",
        json.dumps(result(1.02, 98900.0, 193.4), separators=(",", ":")),
        "",
    ])
    assert bench_pairs.last_json(run) == result(1.02, 98900.0, 193.4)
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n\n")


def test_summary_counts_wins_per_pair_and_applies_the_gain_rule():
    # peak RSS lower in 9 of 10 pairs and far beyond the parent's spread;
    # frames/s tied in every pair; setup 40% slower in every pair
    rss = [195.0, 194.5, 196.2, 195.5, 195.1, 194.8, 195.9, 195.3, 194.9, 195.6]
    pairs = [(result(1.0, 1000.0, r), result(1.4, 1000.0, r - 23.0 if i else r + 0.5))
             for i, r in enumerate(rss)]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines[:2] == ["parent: 0 of 360 checks failed, in 0 of 10 runs",
                         "change: 0 of 360 checks failed, in 0 of 10 runs"]
    block = report(lines, "peak_rss_mb")
    assert block[0] == "peak_rss_mb (MB, lower is better, bound 0.25), 10 pairs"
    assert block[1].split()[2:4] == ["1.003", "0.882"]
    assert "change better in 9 of 10 pairs" in block[4]
    assert block[5] == "  gain rule met: yes; within bound: yes"
    block = report(lines, "frames_per_s")
    assert "change better in 0 of 10 pairs" in block[4]  # ties count for neither side
    assert block[5] == "  gain rule met: no; within bound: yes"
    block = report(lines, "setup_s")
    assert block[1] == "  ratios change/parent: " + " ".join(["1.400"] * 10)
    assert block[5] == "  gain rule met: no; within bound: no"


def test_per_pair_ratios_show_a_gain_that_a_host_speed_jump_hides_in_the_quartiles():
    # the host doubles its speed half way through the series; every pair
    # still reads the change 1.4 times faster
    parent = [60e3, 62e3, 64e3, 66e3, 68e3, 120e3, 121e3, 122e3, 123e3, 124e3]
    pairs = [(result(1.0, f, 150.0), result(1.0, 1.4 * f, 150.0)) for f in parent]
    block = report(bench_pairs.summarize(pairs, METRICS), "frames_per_s")
    assert block[1] == "  ratios change/parent: " + " ".join(["1.400"] * 10)
    assert "change better in 10 of 10 pairs; median ratio 1.400" in block[4]
    assert block[5] == "  gain rule met: no; within bound: yes"


def test_summary_counts_failed_checks_and_takes_a_single_pair():
    pairs = [(result(1.0, 1000.0, 150.0), result(1.0, 1100.0, 150.0, failed=2))]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines[:2] == ["parent: 0 of 36 checks failed, in 0 of 1 runs",
                         "change: 2 of 36 checks failed, in 1 of 1 runs"]
    block = report(lines, "frames_per_s")
    assert block[2] == "  parent median 1000, quartiles 1000 to 1000, IQR 0"
    assert block[5] == "  gain rule met: yes; within bound: yes"
