"""Command-line pipeline driver.

One binary, six subcommands: generate, features, train, score, eval,
gradcheck. The pipeline is linear, so they share the config machinery: an
optional JSON config file with one section per subcommand. The argparse
parser is the only schema: section "common" takes the global options but
--config, each subcommand's section takes that subcommand's options (by
their dest names), and "generate" also takes the fields of SynthConfig and
VisionChannelConfig. File values become the parser's defaults, so a flag
beats a file value and a file value beats a built-in default. Every report
carries the config the run used and the checksums of its inputs; none
carries a timestamp, so strict-determinism runs are byte-reproducible.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.

numpy is imported lazily inside main() so that `--threads` and
`--strict-determinism` can pin the BLAS thread pools first; once numpy is
up, the knobs are inert.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataError, GkwError, NumericError

log = logging.getLogger("gkw")

# options that set where a run writes or how many threads it takes, not
# what it computes: left out of the config a report records
_UNREPORTED = {"threads", "out", "loss_log"}

# --precision name -> numpy dtype name
_DTYPES = {"f32": "float32", "f64": "float64"}


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


class _AppendOverDefault(argparse._AppendAction):
    """action="append" whose flags replace a default list, such as a config
    file's, rather than extend it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkw",
        description="Train and evaluate word-prediction speech models "
        "supervised by soft visual tags.",
    )
    parser.add_argument("--config", help="JSON config file with per-subcommand sections")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--threads", type=_positive_int,
                        help="BLAS/OpenMP thread cap (set before numpy loads)")
    parser.add_argument("--strict-determinism", action="store_true",
                        help="single-threaded BLAS; byte-reproducible outputs")
    parser.add_argument("--precision", choices=tuple(_DTYPES), default="f32",
                        help="model arithmetic precision (default %(default)s)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="write a synthetic grounded corpus")
    p.add_argument("--out", default="corpus", help="output directory (default %(default)s)")

    p = sub.add_parser("features", help="extract MFCC matrices from WAV files")
    p.add_argument("wavs", nargs="+", help="input .wav files")
    p.add_argument("--out", help="output directory (default alongside inputs)")

    p = sub.add_parser("train", help="train a model on a corpus manifest")
    p.add_argument("manifest", help="corpus manifest.jsonl")
    p.add_argument("--arch", choices=("cnn", "psc"), default="cnn",
                   help="architecture (default %(default)s)")
    p.add_argument("--targets", choices=("oracle", "vision", "file"), default="vision",
                   help="supervision source (default %(default)s)")
    p.add_argument("--target-file", dest="target_file",
                   help="vision-target file for --targets file")
    p.add_argument("--out", default="model.gkwm", help="checkpoint path (default %(default)s)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=_positive_int)
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--patience", type=_positive_int)
    p.add_argument("--loss-log", dest="loss_log",
                   help="per-epoch loss CSV path (default <out>.losses.csv)")

    p = sub.add_parser("score", help="score a split with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("manifest")
    p.add_argument("--split", choices=("train", "dev", "test"), default="test",
                   help="split to score (default %(default)s)")
    p.add_argument("--out", default="scores.tsv", help="score table path (default %(default)s)")
    p.add_argument("--emit-localization", dest="emit_localization", action="store_true",
                   help="also write per-utterance activation matrices (psc only)")

    p = sub.add_parser("eval", help="evaluate a score table against a manifest")
    p.add_argument("scores", help="score table .tsv")
    p.add_argument("manifest")
    p.add_argument("--mode", choices=("bow", "kws", "semantic-kws"), default="bow",
                   help="evaluation (default %(default)s)")
    p.add_argument("--split", choices=("train", "dev", "test"), default="test",
                   help="split the score table covers (default %(default)s)")
    p.add_argument("--alpha", action=_AppendOverDefault, type=float, default=[0.4, 0.7],
                   help="BoW decision threshold, repeatable (default %(default)s)")
    p.add_argument("--keywords", type=_positive_int,
                   help="number of keywords to draw for spotting")
    p.add_argument("--min-occurrences", dest="min_occurrences", type=_positive_int,
                   help="minimum test-split occurrences for a keyword")
    p.add_argument("--semantic-map", dest="semantic_map",
                   help="JSON keyword relabelling map (semantic-kws mode)")
    p.add_argument("--confusion", action="store_true",
                   help="append a false-alarm co-occurrence report (bow mode)")
    p.add_argument("--out", help="report path (default stdout)")

    p = sub.add_parser("gradcheck", help="finite-difference check of both backward passes")
    p.add_argument("--arch", choices=("cnn", "psc", "both"), default="both",
                   help="architecture (default %(default)s)")
    p.add_argument("--step", type=float)

    return parser


def _subparsers(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _sections(parser):
    """Config-file sections, each a map from option name (dest) to its
    argparse action: "common" holds the parser's own options but --config,
    and each subcommand's section holds its subparser's options."""
    return {
        name: {a.dest: a for a in p._actions
               if a.option_strings and a.dest not in ("help", "config")}
        for name, p in {"common": parser, **_subparsers(parser)}.items()
    }


def _load_config_file(path, sections):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except ValueError as err:  # undecodable UTF-8 or JSON
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must be a JSON object of sections")
    for section, values in data.items():
        if section not in sections:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
    return data


def _config_fields(cls):
    """Fields of a config dataclass that a config file may set: all but the
    seed, which comes from --seed, and the nested channel config."""
    return {f.name for f in dataclasses.fields(cls)} - {"seed", "channel"}


def _bad_value(section, key, value, expected):
    return ConfigError(
        f"config key {key!r} in section {section!r} must be {expected}, got {value!r}"
    )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_options(sections, file_config):
    """Refuse a config value that its command-line option would refuse: a
    JSON value of the wrong type, a count below 1, or a value outside the
    option's choices."""
    for section, values in file_config.items():
        for key, value in values.items():
            action = sections[section].get(key)
            if action is None:
                continue  # a dataclass field or an unknown key: `_check_keys`
            if action.nargs == 0:
                expected, ok = "true or false", lambda v: isinstance(v, bool)
            elif action.choices is not None:
                expected, ok = f"one of {list(action.choices)}", action.choices.__contains__
            elif action.type is _positive_int:
                expected, ok = "an integer >= 1", lambda v: _is_int(v) and v >= 1
            elif action.type is int:
                expected, ok = "an integer", _is_int
            elif action.type is float:
                expected, ok = "a number", _is_number
            else:
                expected, ok = "a string", lambda v: isinstance(v, str)
            if isinstance(action, argparse._AppendAction):
                expected = f"a list, each item {expected}"
                ok = lambda v, item_ok=ok: isinstance(v, list) and all(map(item_ok, v))
            if not ok(value):
                raise _bad_value(section, key, value, expected)


def _field_check(default):
    """(description, predicate) for a config-file value of a config
    dataclass field, by the type of the field's default."""
    if isinstance(default, int):
        return "an integer", _is_int
    if isinstance(default, float):
        return "a number", _is_number
    if isinstance(default, tuple):  # an inclusive (lo, hi) range
        return "a list of 2 integers", lambda v: (
            isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)))
    return "an object of word: [[word, probability], ...]", lambda v: (
        isinstance(v, dict) and all(
            isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2
                and isinstance(e[0], str) and _is_number(e[1])
                for e in edges)
            for edges in v.values()))


def _check_keys(sections, file_config):
    """Refuse unknown keys, and `generate` values whose type does not fit
    their config dataclass field. Imports the config dataclasses, and so
    numpy: call it only once the thread count is pinned."""
    from .synth import SynthConfig
    from .targets import VisionChannelConfig

    generate = {
        f.name: _field_check(
            f.default if f.default is not dataclasses.MISSING else f.default_factory())
        for cls in (SynthConfig, VisionChannelConfig)
        for f in dataclasses.fields(cls)
        if f.name in _config_fields(cls)
    }
    for section, values in file_config.items():
        fields = generate if section == "generate" else {}
        for key, value in values.items():
            if key in fields:
                expected, ok = fields[key]
                if not ok(value):
                    raise _bad_value(section, key, value, expected)
            elif key not in sections[section]:
                raise ConfigError(f"unknown key {key!r} in config section {section!r}")


def _given(args, *keys, **renamed):
    """Keyword arguments for the options that are set, so that unset ones
    take the defaults of the function or dataclass they are passed to.
    `renamed` maps a parameter name to the option that sets it."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {
        param: getattr(args, option)
        for param, option in pairs
        if getattr(args, option, None) is not None
    }


def _resolved_config(args, sections):
    """The options of this run's command and the common ones, with the
    values the run used."""
    keys = (sections["common"].keys() | sections[args.command].keys()) - _UNREPORTED
    return {"command": args.command, **{key: getattr(args, key) for key in sorted(keys)}}


def _checksum(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_report(out, report):
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        sys.stdout.write(text)


def _corpus(manifest_path):
    from .synth import CorpusManifest
    from .targets import Vocabulary

    manifest = CorpusManifest.load(manifest_path)
    vocab_path = manifest.root / "vocabulary.txt"
    if not vocab_path.exists():
        raise DataError(f"no vocabulary.txt next to {manifest_path}")
    return manifest, Vocabulary.load(vocab_path)


# -- subcommands --------------------------------------------------------------

def cmd_generate(args, sections):
    from .synth import SynthConfig, corpus_stats, generate_corpus
    from .targets import VisionChannelConfig

    synth_kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in _given(args, "seed", *_config_fields(SynthConfig)).items()
    }
    channel_kwargs = _given(args, *_config_fields(VisionChannelConfig))
    if "confusion_map" in channel_kwargs:
        channel_kwargs["confusion_map"] = {
            word: [(str(n), float(p)) for n, p in edges]
            for word, edges in channel_kwargs["confusion_map"].items()
        }
    config = SynthConfig(**synth_kwargs)
    config = dataclasses.replace(
        config, channel=dataclasses.replace(config.channel, **channel_kwargs)
    )
    out_dir = Path(args.out)
    manifest = generate_corpus(config, out_dir)
    stats = corpus_stats(manifest)
    manifest_path = out_dir / "manifest.jsonl"
    print(manifest_path)
    print(f"checksum {_checksum(manifest_path)}")
    print(f"utterances {stats['utterances']}  types {stats['type_count']}  "
          f"tokens {stats['token_count']}")
    zipf = stats["zipf_exponent"]
    if zipf is not None:
        print(f"zipf fit {zipf:.3f}")
    return 0


def cmd_features(args, sections):
    from .features import FeatureConfig, extract_mfcc, load_wav, write_features

    config = FeatureConfig()
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for wav in args.wavs:
        wav = Path(wav)
        signal, rate = load_wav(wav)
        if rate != config.sample_rate:
            raise DataError(
                f"{wav}: sample rate {rate} != expected {config.sample_rate}"
            )
        feats = extract_mfcc(signal, config)
        target = (out_dir or wav.parent) / (wav.stem + ".gkwf")
        write_features(target, feats)
        print(f"{target} {feats.shape[0]}x{feats.shape[1]}")
    return 0


def _training_targets(args, manifest, vocab):
    from .targets import load_vision_targets, oracle_bow

    if args.targets == "oracle":
        return {
            utt_id: oracle_bow(tokens, vocab)
            for utt_id, tokens in manifest.transcriptions().items()
        }
    if args.targets == "file":
        if not args.target_file:
            raise ConfigError("--targets file needs --target-file PATH")
        return load_vision_targets(args.target_file, vocab)
    paths = manifest.target_paths()
    if not paths:
        raise DataError("manifest references no vision-target files; "
                        "use --targets oracle or --targets file")
    targets = {}
    for rel in paths:
        targets.update(load_vision_targets(manifest.root / rel, vocab))
    return targets


def cmd_train(args, sections):
    import numpy as np

    from .models import TrainConfig, cnn_pool, psc, save_checkpoint, train

    manifest, vocab = _corpus(args.manifest)
    targets = _training_targets(args, manifest, vocab)
    spec = (psc if args.arch == "psc" else cnn_pool)(len(vocab))

    train_ids = manifest.ids("train")
    dev_ids = manifest.ids("dev")
    features = manifest.load_features(train_ids + dev_ids)

    config = TrainConfig(
        **_given(args, "learning_rate", "batch_size", "epochs", "seed", "patience")
    )

    out = Path(args.out)
    loss_log = Path(args.loss_log or str(out) + ".losses.csv")

    def progress(epoch, train_loss, dev_loss):
        log.info("epoch %d: train %.6f dev %.6f", epoch, train_loss, dev_loss)

    model, metadata = train(
        features, targets, train_ids, dev_ids, spec, config,
        progress=progress, dtype=getattr(np, _DTYPES[args.precision]),
    )

    with open(loss_log, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,dev_loss\n")
        losses = zip(metadata["train_loss"], metadata["dev_loss"])
        for epoch, (train_loss, dev_loss) in enumerate(losses, 1):
            fh.write(f"{epoch},{train_loss:.6f},{dev_loss:.6f}\n")

    metadata = dict(metadata)
    metadata["config"] = _resolved_config(args, sections)
    metadata["inputs"] = {"manifest": _checksum(Path(args.manifest))}
    save_checkpoint(out, model, vocab.fingerprint(), metadata)
    best_dev = metadata["dev_loss"][metadata["best_epoch"] - 1]
    print(out)
    print(f"best epoch {metadata['best_epoch']}  dev loss {best_dev:.6f}")
    return 0


def cmd_score(args, sections):
    import numpy as np

    from .evaluation import ScoreTable
    from .features import write_features
    from .models import PSC, load_checkpoint, score_utterances

    manifest, vocab = _corpus(args.manifest)
    model, fingerprint, _ = load_checkpoint(
        args.checkpoint, vocab=vocab, dtype=getattr(np, _DTYPES[args.precision])
    )
    localize = args.emit_localization
    if localize and model.spec.variant != PSC:
        raise ConfigError("--emit-localization needs a psc checkpoint")
    ids = manifest.ids(args.split)
    if not ids:
        raise DataError(f"manifest has no {args.split!r} utterances")
    features = manifest.load_features(ids)
    out = Path(args.out)
    on_map = None
    if localize:
        loc_dir = out.parent / (out.stem + ".localization")
        loc_dir.mkdir(parents=True, exist_ok=True)

        def on_map(utt_id, h):
            write_features(loc_dir / f"{utt_id}.gkwf", h)

    scores = score_utterances(model, features, ids, on_map=on_map)
    ScoreTable(ids, scores, vocab).save(out)
    print(out)
    if localize:
        print(loc_dir)
    return 0


def cmd_eval(args, sections):
    from .evaluation import (
        ScoreTable,
        average_precision,
        bow_metrics,
        bow_predict,
        build_reference,
        confusion_report,
        keyword_spot,
        load_semantic_map,
        select_keywords,
    )

    manifest, vocab = _corpus(args.manifest)
    table = ScoreTable.load(args.scores, vocab=vocab)
    transcriptions = manifest.transcriptions(args.split)
    missing = [u for u in table.utt_ids if u not in transcriptions]
    if missing:
        raise DataError(
            f"score table utterance {missing[0]!r} is not in the {args.split!r} split"
        )
    reference = build_reference({u: transcriptions[u] for u in table.utt_ids})

    mode = args.mode
    report = {
        "mode": mode,
        "config": _resolved_config(args, sections),
        "inputs": {
            "scores": _checksum(Path(args.scores)),
            "manifest": _checksum(Path(args.manifest)),
        },
    }

    if mode == "bow":
        report["alpha"] = {
            f"{alpha:g}": bow_metrics(bow_predict(table, alpha), reference)
            for alpha in args.alpha
        }
        report["average_precision"] = average_precision(table, reference)
        if args.confusion:
            rows = confusion_report(table, reference, min(args.alpha))
            report["confusion"] = [list(r) for r in rows[:50]]
    else:
        keywords = select_keywords(
            reference, vocab, **_given(args, "min_occurrences", "seed", count="keywords")
        )
        semantic_map = None
        if mode == "semantic-kws":
            path = args.semantic_map
            if not path:
                default = manifest.root / "semantic_map.json"
                if not default.exists():
                    raise ConfigError(
                        "semantic-kws mode needs --semantic-map PATH "
                        "(no semantic_map.json beside the manifest)"
                    )
                path = default
            semantic_map = load_semantic_map(path)
        report.update(keyword_spot(table, keywords, reference, semantic_map=semantic_map))

    _write_report(args.out, report)
    return 0


def cmd_gradcheck(args, sections):
    from .models import CNN_POOL, PSC, gradient_check, toy_spec

    variants = {"cnn": (CNN_POOL,), "psc": (PSC,), "both": (CNN_POOL, PSC)}[args.arch]
    tolerance = 1e-6
    worst = 0.0
    for variant in variants:
        max_rel, name = gradient_check(toy_spec(variant), **_given(args, "seed", "step"))
        status = "ok" if max_rel <= tolerance else "FAIL"
        print(f"{variant}: max relative error {max_rel:.3e} ({name}) {status}")
        worst = max(worst, max_rel)
    if worst > tolerance:
        raise NumericError(f"gradient check failed: max relative error {worst:.3e}")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "features": cmd_features,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def _pin_threads(count):
    # effective only before the first numpy import in this process
    if "numpy" in sys.modules:
        log.warning(
            "numpy was loaded before gkw started, so BLAS threads cannot be "
            "pinned to %d; --threads and --strict-determinism have no effect "
            "in this process", count,
        )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


def main(argv=None):
    logging.basicConfig(
        level=getattr(logging, os.environ.get("GKW_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; usage errors are exit 1 here
        return 0 if err.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    sections = _sections(parser)
    try:
        file_config = _load_config_file(args.config, sections) if args.config else {}
        _check_options(sections, file_config)
        if file_config:
            # file values become defaults; parsing again puts the flags over them
            parser.set_defaults(**file_config.get("common", {}))
            _subparsers(parser)[args.command].set_defaults(**file_config.get(args.command, {}))
            args = parser.parse_args(argv)
        if args.strict_determinism:
            _pin_threads(1)
        elif args.threads:
            _pin_threads(args.threads)
        _check_keys(sections, file_config)
        return _HANDLERS[args.command](args, sections)
    except ConfigError as err:
        print(f"gkw: configuration error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"gkw: data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"gkw: numeric failure: {err}", file=sys.stderr)
        return 3
    except GkwError as err:
        print(f"gkw: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"gkw: data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
