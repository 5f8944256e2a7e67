"""Command-line entry point for reproducible training, evaluation, and queries.

Every run resolves its flags against built-in defaults and an optional
key=value config file (flags win), then echoes the resolved settings to a
manifest before doing any work; re-running that manifest reproduces all
outputs byte for byte. Exit codes: 0 success, 1 user or configuration
error, 2 internal error.
"""

import argparse
import dataclasses
import functools
import os
import sys
import traceback

from .corpus import (
    DocumentCorpus,
    ParallelCorpus,
    iter_document_token_sentences,
    iter_token_sentences,
    load_document_pairs,
    load_documents,
    load_parallel,
)
from .embeddings import ModelBundle, Vocabulary, derive_seed, export_table, init_table, nearest_neighbors
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DivergenceError,
    FileFormatError,
    JointvecError,
    RepresentationError,
    SamplingError,
    TokenLookupError,
)
from .evaluation import cldc_run, transfer_matrix
from .training import (
    AdaGradState,
    TrainConfig,
    checkpoint,
    format_setting,
    parse_setting,
    resume,
    train_joint,
)

MANIFEST_NAME = "manifest.txt"
_USER_ERRORS = (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DivergenceError,
    FileFormatError,
    RepresentationError,
    SamplingError,
    TokenLookupError,
)

_REPEATABLE = ("pair", "docs", "lang")
_BOOL_KEYS = ("doc_signal", "force")

REGIME = "[reference regime]"
TOOLING = "[tooling choice]"
_EPILOG = (
    "Defaults marked [reference regime] follow the original experimental setup; "
    "[tooling choice] marks defaults of this toolkit."
)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for internal errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _to_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def load_config_file(path) -> dict:
    """key=value lines; keys that repeat on the command line may repeat here."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _REPEATABLE:
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
    return values


def write_manifest(path, subcommand: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"subcommand={subcommand}\n")
        for key, value in values.items():
            if value is None:
                continue
            for item in value if isinstance(value, list) else [value]:
                fh.write(f"{key}={format_setting(item)}\n")


def _resolve(args, spec: dict):
    """Fill unset flags from the config file, then from built-in defaults."""
    cfg = load_config_file(args.config) if args.config else {}
    known = set(spec) | {"subcommand", "config"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for this subcommand")
    for key, (convert, default) in spec.items():
        current = getattr(args, key)
        if key in _BOOL_KEYS:
            setattr(args, key, bool(current) or (key in cfg and _to_bool(cfg[key])))
            continue
        if current is not None:
            continue
        if key in cfg:
            raw = cfg[key]
            if key in _REPEATABLE:
                setattr(args, key, list(raw))
            else:
                try:
                    setattr(args, key, convert(raw))
                except ValueError as exc:
                    raise ConfigError(f"config key {key}: {exc}") from None
        else:
            setattr(args, key, default)


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) in (None, []):
            raise ConfigError(f"--{key.replace('_', '-')} is required")


def _split_pair_flag(value: str) -> tuple:
    parts = value.split(":")
    if len(parts) != 4 or not all(parts):
        raise ConfigError(
            f"--pair takes LANG1:LANG2:FILE1:FILE2 (paths without colons), got {value!r}"
        )
    return tuple(parts)


def _split_lang_file(flag: str, value: str) -> tuple:
    lang, sep, path = value.partition(":")
    if not sep or not lang or not path:
        raise ConfigError(f"--{flag} takes LANG:FILE, got {value!r}")
    return lang, path


def _prepare_out(path, force: bool) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise ConfigError(f"{path} exists and is not empty; pass --force to write anyway")
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# train

# train flag -> TrainConfig field, in manifest order; epsilon has no flag
_TRAIN_FLAGS = {
    "dim": "d",
    "margin": "margin",
    "noise": "k",
    "lambda": "lam",
    "step": "step",
    "batch": "batch",
    "epochs": "epochs",
    "cvm": "kind",
    "doc_signal": "doc_signal",
    "mode": "mode",
    "seed": "seed",
}
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_TRAIN_SPEC = {
    "pair": (str, None),
    **{
        flag: (functools.partial(parse_setting, name), _TRAIN_DEFAULTS[name])
        for flag, name in _TRAIN_FLAGS.items()
    },
    "out": (str, None),
    "force": (_to_bool, False),
}


def cmd_train(args) -> int:
    _resolve(args, _TRAIN_SPEC)
    _require(args, "pair", "out")
    pairs = [_split_pair_flag(p) for p in args.pair]
    config = TrainConfig(**{name: getattr(args, flag) for flag, name in _TRAIN_FLAGS.items()})
    if config.mode == "single" and len(pairs) != 1:
        raise ConfigError("--mode single takes exactly one --pair; use --mode joint")

    _prepare_out(args.out, args.force)
    write_manifest(
        os.path.join(args.out, MANIFEST_NAME),
        "train",
        {
            "pair": list(args.pair),
            **{flag: getattr(config, name) for flag, name in _TRAIN_FLAGS.items()},
            "out": args.out,
            "force": args.force,
        },
    )

    vocabs = {}
    for l1, l2, f1, f2 in pairs:
        for lang, path in ((l1, f1), (l2, f2)):
            vocab = vocabs.setdefault(lang, Vocabulary())
            sents = (
                iter_document_token_sentences(path)
                if config.doc_signal
                else iter_token_sentences(path)
            )
            for sent in sents:
                for tok in sent:
                    vocab.add(tok)
    for lang, vocab in vocabs.items():
        if not len(vocab):
            raise ConfigError(f"no tokens found for language {lang!r}")

    corpora = []
    for l1, l2, f1, f2 in pairs:
        if config.doc_signal:
            loaded = load_document_pairs(f1, f2, vocabs[l1], vocabs[l2])
            corpora.append(DocumentCorpus(l1, l2, loaded))
        else:
            loaded = load_parallel(f1, f2, vocabs[l1], vocabs[l2])
            corpora.append(ParallelCorpus(l1, l2, loaded))
        if len(loaded) < 2:
            raise ConfigError(f"{f1}/{f2}: fewer than 2 usable pairs, cannot sample noise")

    langs = sorted(vocabs)
    tables = {
        lang: init_table(len(vocabs[lang]), config.d, derive_seed(config.seed, li), lang)
        for li, lang in enumerate(langs)
    }
    bundle = ModelBundle(vocabs, tables, config.kind)
    state = AdaGradState(bundle)

    report = train_joint(corpora, bundle, config, state)

    checkpoint(bundle, state, args.out, config, config.epochs)
    with open(os.path.join(args.out, "loss_log.tsv"), "w", encoding="utf-8") as fh:
        fh.write("epoch\tloss\tactive_fraction\n")
        for epoch, (loss, frac) in enumerate(zip(report.epoch_losses, report.active_fractions)):
            fh.write(f"{epoch}\t{loss:.6f}\t{frac:.6f}\n")
    print(
        f"trained {len(report.epoch_losses)} epochs "
        f"({sum(report.epoch_seconds):.1f}s), checkpoint in {args.out}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# eval

_CLDC_SPEC = {
    "model": (str, None),
    "train": (str, None),
    "test": (str, None),
    "level": (str, "auto"),
    "task": (str, "auto"),
    "epochs": (int, 10),
    "seed": (int, 1),
    "top_labels": (int, None),
    "out": (str, None),
}

_TRANSFER_SPEC = {
    "model": (str, None),
    "langs": (str, None),
    "docs": (str, None),
    "level": (str, "auto"),
    "task": (str, "auto"),
    "epochs": (int, 10),
    "seed": (int, 1),
    "top_labels": (int, None),
    "out": (str, None),
}


def _resolve_level_task(level: str, task: str, ckpt_config, doc_groups) -> tuple:
    """Auto task: single-label iff every document carries exactly one label.

    Auto level: models trained with the document signal represent documents
    with the document-level composition on multi-label tasks, and with the
    sentence average otherwise.
    """
    if task == "auto":
        task = (
            "single"
            if all(len(d.labels) == 1 for docs in doc_groups for d in docs)
            else "multi"
        )
    if level == "auto":
        level = (
            "doc-cvm" if (ckpt_config.doc_signal and task == "multi") else "sentence-average"
        )
    return level, task


def _write_eval_outputs(args, subcommand: str, manifest: dict, report) -> None:
    sys.stdout.write(report.headline().to_tsv())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(os.path.join(args.out, MANIFEST_NAME), subcommand, manifest)
        report.headline().write(os.path.join(args.out, "report.tsv"))
        report.write(os.path.join(args.out, "report_all.tsv"))


def cmd_eval_cldc(args) -> int:
    _resolve(args, _CLDC_SPEC)
    _require(args, "model", "train", "test")
    train_lang, train_path = _split_lang_file("train", args.train)
    test_lang, test_path = _split_lang_file("test", args.test)
    bundle, _, ckpt_config, _ = resume(args.model)
    train_docs = load_documents(train_path, bundle.vocab(train_lang))
    test_docs = load_documents(test_path, bundle.vocab(test_lang))
    level, task = _resolve_level_task(
        args.level, args.task, ckpt_config, [train_docs, test_docs]
    )
    report = cldc_run(
        train_lang,
        train_docs,
        test_lang,
        test_docs,
        bundle,
        level=level,
        task=task,
        clf_epochs=args.epochs,
        seed=args.seed,
        top_labels=args.top_labels,
    )
    manifest = {
        "model": args.model,
        "train": args.train,
        "test": args.test,
        "level": level,
        "task": task,
        "epochs": args.epochs,
        "seed": args.seed,
        "top_labels": args.top_labels,
        "out": args.out,
    }
    _write_eval_outputs(args, "eval cldc", manifest, report)
    return 0


def cmd_eval_transfer(args) -> int:
    _resolve(args, _TRANSFER_SPEC)
    _require(args, "model", "langs", "docs")
    langs = [l for l in args.langs.split(",") if l]
    if len(langs) < 2:
        raise ConfigError(f"--langs needs at least 2 comma-separated codes, got {args.langs!r}")
    doc_paths = dict(_split_lang_file("docs", d) for d in args.docs)
    missing = [l for l in langs if l not in doc_paths]
    if missing:
        raise ConfigError(f"--docs missing for languages: {','.join(missing)}")
    bundle, _, ckpt_config, _ = resume(args.model)
    docs_by_lang = {l: load_documents(doc_paths[l], bundle.vocab(l)) for l in langs}
    level, task = _resolve_level_task(
        args.level, args.task, ckpt_config, list(docs_by_lang.values())
    )
    report = transfer_matrix(
        langs,
        docs_by_lang,
        bundle,
        level=level,
        task=task,
        clf_epochs=args.epochs,
        seed=args.seed,
        top_labels=args.top_labels,
    )
    manifest = {
        "model": args.model,
        "langs": args.langs,
        "docs": list(args.docs),
        "level": level,
        "task": task,
        "epochs": args.epochs,
        "seed": args.seed,
        "top_labels": args.top_labels,
        "out": args.out,
    }
    _write_eval_outputs(args, "eval transfer", manifest, report)
    return 0


# ---------------------------------------------------------------------------
# query / export

_QUERY_SPEC = {
    "model": (str, None),
    "word": (str, None),
    "n": (int, 5),
    "target": (str, "all"),
    "metric": (str, "cosine"),
    "out": (str, None),
}


def cmd_query(args) -> int:
    _resolve(args, _QUERY_SPEC)
    _require(args, "model", "word")
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    lang, token = _split_lang_file("word", args.word)
    bundle, _, _, _ = resume(args.model)
    neighbors = nearest_neighbors(bundle, (lang, token), args.n, args.target, args.metric)
    lines = "".join(f"{nl}\t{nt}\t{score:.6f}\n" for nl, nt, score in neighbors)
    sys.stdout.write(lines)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(
            os.path.join(args.out, MANIFEST_NAME),
            "query",
            {
                "model": args.model,
                "word": args.word,
                "n": args.n,
                "target": args.target,
                "metric": args.metric,
                "out": args.out,
            },
        )
        with open(os.path.join(args.out, "neighbors.tsv"), "w", encoding="utf-8") as fh:
            fh.write(lines)
    return 0


_EXPORT_SPEC = {
    "model": (str, None),
    "lang": (str, None),
    "out": (str, None),
    "force": (_to_bool, False),
}


def cmd_export(args) -> int:
    _resolve(args, _EXPORT_SPEC)
    _require(args, "model", "out")
    bundle, _, _, _ = resume(args.model)
    langs = args.lang if args.lang else bundle.languages
    for lang in langs:
        bundle.table(lang)  # unknown language fails before any file is written
    _prepare_out(args.out, args.force)
    write_manifest(
        os.path.join(args.out, MANIFEST_NAME),
        "export",
        {"model": args.model, "lang": list(langs), "out": args.out, "force": args.force},
    )
    for lang in langs:
        export_table(bundle.table(lang), bundle.vocab(lang), os.path.join(args.out, f"{lang}.emb"))
    print(f"exported {len(langs)} language(s) to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_config_flag(parser):
    parser.add_argument(
        "--config",
        metavar="FILE",
        help=f"key=value file supplying defaults; explicit flags win {TOOLING}",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="jointvec", description=__doc__, epilog=_EPILOG)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p_train = sub.add_parser(
        "train",
        help="learn joint-space embeddings from aligned corpora",
        epilog=_EPILOG,
    )
    p_train.add_argument(
        "--pair",
        action="append",
        metavar="L1:L2:FILE1:FILE2",
        help="aligned corpus files for a language pair; repeatable, first code is the pivot",
    )
    p_train.add_argument("--dim", type=int, help=f"embedding dimensionality d (default 128) {REGIME}")
    p_train.add_argument("--margin", type=float, help=f"hinge margin m (default: equal to --dim) {REGIME}")
    p_train.add_argument("--noise", type=int, help=f"noise samples k per pair (default 50) {REGIME}")
    p_train.add_argument("--lambda", type=float, help=f"L2 coefficient (default 1.0) {REGIME}")
    p_train.add_argument("--step", type=float, help=f"base step size (default 0.05) {REGIME}")
    p_train.add_argument("--batch", type=int, help=f"minibatch size (default 50) {REGIME}")
    p_train.add_argument("--epochs", type=int, help=f"passes over each corpus (default 5) {TOOLING}")
    p_train.add_argument("--cvm", choices=("add", "bi"), help=f"composition model (default add) {REGIME}")
    p_train.add_argument(
        "--doc-signal",
        dest="doc_signal",
        action="store_true",
        default=None,
        help=f"inputs are document files; train at document level plus sentence signal {REGIME}",
    )
    p_train.add_argument("--mode", choices=("single", "joint"), help=f"one pair, or several sharing a pivot (default single) {TOOLING}")
    p_train.add_argument("--seed", type=int, help=f"master seed for all randomness (default 1) {TOOLING}")
    p_train.add_argument("--out", metavar="DIR", help="output directory (checkpoint, manifest, loss log)")
    p_train.add_argument("--force", action="store_true", default=None, help="write into a non-empty output directory")
    _add_config_flag(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="cross-lingual document classification")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True, metavar="PROTOCOL")

    p_cldc = eval_sub.add_parser("cldc", help="train a classifier in one language, test in another")
    p_cldc.add_argument("--model", metavar="DIR", help="checkpoint directory")
    p_cldc.add_argument("--train", metavar="LANG:FILE", help="training documents")
    p_cldc.add_argument("--test", metavar="LANG:FILE", help="test documents")

    p_transfer = eval_sub.add_parser("transfer", help="all ordered language pairs, diagonal omitted")
    p_transfer.add_argument("--model", metavar="DIR", help="checkpoint directory")
    p_transfer.add_argument("--langs", metavar="L1,L2,...", help="comma-separated language codes")
    p_transfer.add_argument(
        "--docs", action="append", metavar="LANG:FILE", help="documents per language; repeatable"
    )

    for p in (p_cldc, p_transfer):
        p.add_argument(
            "--level",
            choices=("auto", "sentence-average", "doc-cvm"),
            help=f"document representation (default auto) {TOOLING}",
        )
        p.add_argument(
            "--task",
            choices=("auto", "single", "multi"),
            help=f"single-label accuracy or multi-label micro-F1 (default auto) {TOOLING}",
        )
        p.add_argument("--epochs", type=int, help=f"perceptron epochs (default 10) {TOOLING}")
        p.add_argument("--seed", type=int, help=f"classifier shuffle seed (default 1) {TOOLING}")
        p.add_argument(
            "--top-labels",
            dest="top_labels",
            type=int,
            help=f"keep only the N most document-frequent training labels {TOOLING}",
        )
        p.add_argument("--out", metavar="DIR", help="also write report.tsv, report_all.tsv, manifest")
        _add_config_flag(p)
    p_cldc.set_defaults(func=cmd_eval_cldc)
    p_transfer.set_defaults(func=cmd_eval_transfer)

    p_query = sub.add_parser("query", help="nearest neighbors of a word across languages")
    p_query.add_argument("--model", metavar="DIR", help="checkpoint directory")
    p_query.add_argument("--word", metavar="LANG:TOKEN", help="query word")
    p_query.add_argument("--n", type=int, help=f"neighbor count (default 5) {TOOLING}")
    p_query.add_argument("--target", metavar="LANG|all", help=f"restrict neighbors to one language (default all) {TOOLING}")
    p_query.add_argument(
        "--metric",
        choices=("cosine", "euclidean"),
        help=f"similarity: cosine, or negated Euclidean distance (default cosine) {TOOLING}",
    )
    p_query.add_argument("--out", metavar="DIR", help="also write neighbors.tsv and manifest")
    _add_config_flag(p_query)
    p_query.set_defaults(func=cmd_query)

    p_export = sub.add_parser("export", help="write embeddings in the text format")
    p_export.add_argument("--model", metavar="DIR", help="checkpoint directory")
    p_export.add_argument(
        "--lang", action="append", metavar="LANG", help="export only these languages; repeatable"
    )
    p_export.add_argument("--out", metavar="DIR", help="output directory")
    p_export.add_argument("--force", action="store_true", default=None, help="write into a non-empty output directory")
    _add_config_flag(p_export)
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"jointvec: error: {exc}", file=sys.stderr)
        return 1
    except JointvecError as exc:
        print(f"jointvec: internal error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
