"""Command-line entry point for reproducible training, evaluation, and queries.

Every run resolves its flags against built-in defaults and an optional
key=value config file (flags win), then echoes the resolved settings to a
manifest before doing any work; re-running that manifest reproduces all
outputs byte for byte. Exit codes: 0 success, 1 user or configuration
error, 2 internal error.
"""

import argparse
import dataclasses
import os
import sys
import traceback
import typing
from itertools import chain

from .composition import CompositionKind
from .corpus import (
    DocumentCorpus,
    ParallelCorpus,
    iter_document_token_sentences,
    iter_token_sentences,
    load_document_pairs,
    load_documents,
    load_parallel,
)
from .embeddings import (
    ModelBundle,
    build_vocab,
    derive_seed,
    export_table,
    init_table,
    nearest_neighbors,
)
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
from .evaluation import LEVELS, cldc_run, resolve_task, transfer_matrix
from .training import (
    AdaGradState,
    TrainConfig,
    checkpoint,
    format_setting,
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


class Flag(typing.NamedTuple):
    """One setting of a subcommand: its --flag, config-file key and manifest key.

    A bool type makes a switch. A repeatable setting collects a list; a
    required one must be set by a flag or the config file. For train,
    `field` names the TrainConfig field the setting fills.
    """

    name: str
    help: str
    type: typing.Callable = str
    default: object = None
    tag: str = ""
    metavar: str | None = None
    choices: tuple | None = None
    repeat: bool = False
    required: bool = False
    field: str | None = None


def _help(flag: Flag) -> str:
    """The help text, then "(default X)" unless a switch or unset, then the tag."""
    text = flag.help
    if flag.default is not None and flag.type is not bool:
        text += f" (default {format_setting(flag.default)})"
    return f"{text} {flag.tag}" if flag.tag else text


_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def _train_flag(name, field, help, type, tag, **kw) -> Flag:
    """A setting that fills TrainConfig.`field` and shares its default."""
    return Flag(name, help, type, _TRAIN_DEFAULTS[field], tag, field=field, **kw)


_MODEL = Flag("model", "checkpoint directory", metavar="DIR", required=True)
_FORCE = Flag("force", "write into a non-empty output directory", bool, False)
_CONFIG = Flag("config", "key=value file supplying defaults; explicit flags win", tag=TOOLING,
               metavar="FILE")

# epsilon has no flag
_TRAIN = (
    Flag("pair", "aligned corpus files for a language pair; repeatable, first code is the pivot",
         metavar="L1:L2:FILE1:FILE2", repeat=True, required=True),
    _train_flag("dim", "d", "embedding dimensionality d", int, REGIME),
    _train_flag("margin", "margin", "hinge margin m (default: equal to --dim)", float, REGIME),
    _train_flag("noise", "k", "noise samples k per pair", int, REGIME),
    _train_flag("lambda", "lam", "L2 coefficient", float, REGIME),
    _train_flag("step", "step", "base step size", float, REGIME),
    _train_flag("batch", "batch", "minibatch size", int, REGIME),
    _train_flag("epochs", "epochs", "passes over each corpus", int, TOOLING),
    _train_flag("cvm", "kind", "composition model", str, REGIME,
                choices=tuple(k.value for k in CompositionKind)),
    _train_flag("doc_signal", "doc_signal",
                "inputs are document files; train at document level plus sentence signal",
                bool, REGIME),
    _train_flag("mode", "mode", "one pair, or several sharing a pivot", str, TOOLING,
                choices=("single", "joint")),
    _train_flag("seed", "seed", "master seed for all randomness", int, TOOLING),
    Flag("out", "output directory (checkpoint, manifest, loss log)", metavar="DIR", required=True),
    _FORCE,
)

_EVAL = (
    Flag("level", "document representation", default="auto", tag=TOOLING,
         choices=("auto", *LEVELS)),
    Flag("task", "single-label accuracy or multi-label micro-F1", default="auto", tag=TOOLING,
         choices=("auto", "single", "multi")),
    Flag("epochs", "perceptron epochs", int, 10, TOOLING),
    Flag("seed", "classifier shuffle seed", int, 1, TOOLING),
    Flag("top_labels", "keep only the N most document-frequent training labels", int,
         tag=TOOLING),
    Flag("out", "also write report.tsv, report_all.tsv, manifest", metavar="DIR"),
)
_CLDC = (
    _MODEL,
    Flag("train", "training documents", metavar="LANG:FILE", required=True),
    Flag("test", "test documents", metavar="LANG:FILE", required=True),
    *_EVAL,
)
_TRANSFER = (
    _MODEL,
    Flag("langs", "comma-separated language codes", metavar="L1,L2,...", required=True),
    Flag("docs", "documents per language; repeatable", metavar="LANG:FILE", repeat=True,
         required=True),
    *_EVAL,
)

_QUERY = (
    _MODEL,
    Flag("word", "query word", metavar="LANG:TOKEN", required=True),
    Flag("n", "neighbor count", int, 5, TOOLING),
    Flag("target", "restrict neighbors to one language", default="all", tag=TOOLING,
         metavar="LANG|all"),
    Flag("metric", "similarity: cosine, or negated Euclidean distance", default="cosine",
         tag=TOOLING, choices=("cosine", "euclidean")),
    Flag("out", "also write neighbors.tsv and manifest", metavar="DIR"),
)
_EXPORT = (
    _MODEL,
    Flag("lang", "export only these languages; repeatable", metavar="LANG", repeat=True),
    Flag("out", "output directory", metavar="DIR", required=True),
    _FORCE,
)


def _to_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def load_config_file(path, flags) -> dict:
    """key=value lines, converted and checked as the flags are.

    Repeatable settings may repeat. The keys `subcommand` and `config` are
    skipped, so a manifest loads as a config file.
    """
    by_name = {f.name: f for f in flags}
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
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key in ("subcommand", "config"):
            continue
        flag = by_name.get(key)
        if flag is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r} for this subcommand")
        try:
            value = _to_bool(text) if flag.type is bool else flag.type(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: config key {key}: {exc}") from None
        if flag.choices and value not in flag.choices:
            raise ConfigError(
                f"{path}:{lineno}: config key {key} must be one of "
                f"{', '.join(flag.choices)}, got {value!r}"
            )
        if flag.repeat:
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
    return values


def _resolve(args) -> None:
    """Fill unset settings from the config file, then from built-in defaults."""
    cfg = load_config_file(args.config, args.settings) if args.config else {}
    for flag in args.settings:
        if getattr(args, flag.name) is None:
            setattr(args, flag.name, cfg.get(flag.name, flag.default))
        if flag.required and getattr(args, flag.name) is None:
            raise ConfigError(f"--{flag.name.replace('_', '-')} is required")


def _write_manifest(args) -> None:
    """Echo every set setting of the run into its --out, in table order."""
    with open(os.path.join(args.out, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(f"subcommand={args.command}\n")
        for flag in args.settings:
            value = getattr(args, flag.name)
            if value is None:
                continue
            for item in value if flag.repeat else [value]:
                fh.write(f"{flag.name}={format_setting(item)}\n")


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

def cmd_train(args) -> int:
    pairs = [_split_pair_flag(p) for p in args.pair]
    fields = [f for f in _TRAIN if f.field]
    config = TrainConfig(**{f.field: getattr(args, f.name) for f in fields})
    if config.mode == "single" and len(pairs) != 1:
        raise ConfigError("--mode single takes exactly one --pair; use --mode joint")
    for f in fields:  # the manifest echoes the config as resolved, margin included
        setattr(args, f.name, getattr(config, f.field))

    _prepare_out(args.out, args.force)
    _write_manifest(args)

    read = iter_document_token_sentences if config.doc_signal else iter_token_sentences
    paths = {}
    for l1, l2, f1, f2 in pairs:
        paths.setdefault(l1, []).append(f1)
        paths.setdefault(l2, []).append(f2)
    vocabs = {lang: build_vocab(chain.from_iterable(map(read, p))) for lang, p in paths.items()}
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

def _classifier_settings(args, ckpt_config, *doc_groups) -> dict:
    """The classifier keywords of cldc_run, with task and level resolved onto args.

    Auto level: models trained with the document signal represent documents
    with the document-level composition on multi-label tasks, and with the
    sentence average otherwise.
    """
    args.task = resolve_task(args.task, *doc_groups)
    if args.level == "auto":
        multi_doc = ckpt_config.doc_signal and args.task == "multi"
        args.level = "doc-cvm" if multi_doc else "sentence-average"
    return dict(
        level=args.level,
        task=args.task,
        clf_epochs=args.epochs,
        seed=args.seed,
        top_labels=args.top_labels,
    )


def _write_eval_outputs(args, report) -> None:
    sys.stdout.write(report.headline().to_tsv())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args)
        report.headline().write(os.path.join(args.out, "report.tsv"))
        report.write(os.path.join(args.out, "report_all.tsv"))


def cmd_eval_cldc(args) -> int:
    train_lang, train_path = _split_lang_file("train", args.train)
    test_lang, test_path = _split_lang_file("test", args.test)
    bundle, _, ckpt_config, _ = resume(args.model)
    train_docs = load_documents(train_path, bundle.vocab(train_lang))
    test_docs = load_documents(test_path, bundle.vocab(test_lang))
    settings = _classifier_settings(args, ckpt_config, train_docs, test_docs)
    report = cldc_run(train_lang, train_docs, test_lang, test_docs, bundle, **settings)
    _write_eval_outputs(args, report)
    return 0


def cmd_eval_transfer(args) -> int:
    langs = [l for l in args.langs.split(",") if l]
    if len(langs) < 2:
        raise ConfigError(f"--langs needs at least 2 comma-separated codes, got {args.langs!r}")
    doc_paths = dict(_split_lang_file("docs", d) for d in args.docs)
    missing = [l for l in langs if l not in doc_paths]
    if missing:
        raise ConfigError(f"--docs missing for languages: {','.join(missing)}")
    bundle, _, ckpt_config, _ = resume(args.model)
    docs_by_lang = {l: load_documents(doc_paths[l], bundle.vocab(l)) for l in langs}
    settings = _classifier_settings(args, ckpt_config, *docs_by_lang.values())
    report = transfer_matrix(langs, docs_by_lang, bundle, **settings)
    _write_eval_outputs(args, report)
    return 0


# ---------------------------------------------------------------------------
# query / export

def cmd_query(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    lang, token = _split_lang_file("word", args.word)
    bundle, _, _, _ = resume(args.model)
    neighbors = nearest_neighbors(bundle, (lang, token), args.n, args.target, args.metric)
    lines = "".join(f"{nl}\t{nt}\t{score:.6f}\n" for nl, nt, score in neighbors)
    sys.stdout.write(lines)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args)
        with open(os.path.join(args.out, "neighbors.tsv"), "w", encoding="utf-8") as fh:
            fh.write(lines)
    return 0


def cmd_export(args) -> int:
    bundle, _, _, _ = resume(args.model)
    args.lang = args.lang or list(bundle.languages)
    for lang in args.lang:
        bundle.table(lang)  # unknown language fails before any file is written
    _prepare_out(args.out, args.force)
    _write_manifest(args)
    for lang in args.lang:
        export_table(bundle.table(lang), bundle.vocab(lang), os.path.join(args.out, f"{lang}.emb"))
    print(f"exported {len(args.lang)} language(s) to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_command(subparsers, command: str, settings: tuple, func, **parser_kw) -> None:
    """The parser of `command`: one --flag per setting, plus --config."""
    parser = subparsers.add_parser(command.split()[-1], **parser_kw)
    for flag in (*settings, _CONFIG):
        if flag.type is bool:
            kw = {"action": "store_true", "default": None}
        else:
            kw = {"type": flag.type, "metavar": flag.metavar, "choices": flag.choices}
            if flag.repeat:
                kw["action"] = "append"
        parser.add_argument(
            "--" + flag.name.replace("_", "-"), dest=flag.name, help=_help(flag), **kw
        )
    parser.set_defaults(func=func, command=command, settings=settings)


def build_parser() -> _Parser:
    parser = _Parser(prog="jointvec", description=__doc__, epilog=_EPILOG)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")
    _add_command(sub, "train", _TRAIN, cmd_train, epilog=_EPILOG,
                 help="learn joint-space embeddings from aligned corpora")
    p_eval = sub.add_parser("eval", help="cross-lingual document classification")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True, metavar="PROTOCOL")
    _add_command(eval_sub, "eval cldc", _CLDC, cmd_eval_cldc,
                 help="train a classifier in one language, test in another")
    _add_command(eval_sub, "eval transfer", _TRANSFER, cmd_eval_transfer,
                 help="all ordered language pairs, diagonal omitted")
    _add_command(sub, "query", _QUERY, cmd_query,
                 help="nearest neighbors of a word across languages")
    _add_command(sub, "export", _EXPORT, cmd_export, help="write embeddings in the text format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
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
