"""Run a small end-to-end gkw pipeline and print a sha256 of every file it writes.

Usage: python3 tools/pipeline_digest.py OUT_DIR

OUT_DIR must be new or empty. Each step runs as its own process on the
package in this checkout's src/, with --strict-determinism (one BLAS
thread) at the default f32 precision and the default seed:

  generate   train 200, dev 40, test 40 utterances
  train      cnn and psc, 2 epochs each, on the vision targets
  score      the test split with each model; psc also --emit-localization
  eval       each score table in bow, kws and semantic-kws mode

Every path given to gkw is relative to OUT_DIR, so no output depends on
where OUT_DIR is. The script then prints "<sha256>  <path>" for every file
under OUT_DIR, sorted by path. Two checkouts whose outputs are
byte-identical print the same lines: diff the output of each to check that
a change keeps every bit of the pipeline's results.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = {"generate": {"train_size": 200, "dev_size": 40, "test_size": 40}}

STEPS = [
    ["generate", "--out", "corpus"],
    *(["train", "corpus/manifest.jsonl", "--arch", arch, "--epochs", "2",
       "--out", f"{arch}.gkwm"] for arch in ("cnn", "psc")),
    ["score", "cnn.gkwm", "corpus/manifest.jsonl", "--out", "cnn.scores.tsv"],
    ["score", "psc.gkwm", "corpus/manifest.jsonl", "--out", "psc.scores.tsv",
     "--emit-localization"],
    *(["eval", f"{arch}.scores.tsv", "corpus/manifest.jsonl", "--mode", mode,
       "--out", f"{arch}.{mode}.json"]
      for arch in ("cnn", "psc") for mode in ("bow", "kws", "semantic-kws")),
]


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/pipeline_digest.py OUT_DIR", file=sys.stderr)
        return 1
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for step in STEPS:
        command = [sys.executable, "-m", "gkw.cli", "--config", "config.json",
                   "--strict-determinism", *step]
        run = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True)
        if run.returncode:
            print(f"gkw {' '.join(step)} exited {run.returncode}:\n{run.stderr}",
                  file=sys.stderr)
            return run.returncode
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
