"""Command-line entry point for reproducible training, evaluation, and queries.

Every run resolves its flags against built-in defaults and an optional
key=value config file (flags win). --out must be absent and creatable, or
an empty directory; an absent one is created before any work. Once the
work has succeeded, the run echoes the resolved settings, with the
platform facts the bits depend on, to a manifest there. A run that fails,
in its work or in a write, removes what it wrote, so it leaves --out as
it found it, absent or empty.
Re-running that manifest into a fresh --out reproduces all outputs byte
for byte on the same platform. train runs jointly when given more than
one --pair, each starting with the pivot's code. Exit codes: 0 success,
1 user or configuration error, 2 internal error.
"""

import argparse
import contextlib
import dataclasses
import os
import shutil
import sys
import traceback
import typing
import warnings

from .composition import CompositionKind
from .corpus import (
    DocumentCorpus,
    ParallelCorpus,
    load_document_pairs,
    load_documents,
    load_parallel,
    tokenize,
    writing,
)
from .embeddings import (
    ModelBundle,
    Vocabulary,
    derive_seed,
    export_table,
    init_table,
    nearest_neighbors,
)
from .errors import ContractError, UserError
from .evaluation import LEVELS, check_classifier_settings, cldc_run, resolve_task, transfer_matrix
from .native import platform_facts
from .training import (
    FIELD_TYPES,
    AdaGradState,
    TrainConfig,
    check_language_code,
    checkpoint,
    format_setting,
    load_model,
    parse_setting,
    read_settings,
    tables_do_not_fit,
    train_joint,
)

MANIFEST_NAME = "manifest.txt"

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
    required one must be set by a flag or the config file. `field` names
    the TrainConfig field a train setting fills, or the library keyword
    an eval setting fills where it is not `name`.
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

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")


def _help(flag: Flag) -> str:
    """The help text, then "(default X)" unless a switch or unset, then the tag."""
    text = flag.help
    if flag.default is not None and flag.type is not bool:
        text += f" (default {format_setting(flag.default)})"
    return f"{text} {flag.tag}" if flag.tag else text


_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def _train_flag(name, field, help, tag, type=None, **kw) -> Flag:
    """A setting that fills TrainConfig.`field`, with its default and, unless given, its type."""
    typ = type or FIELD_TYPES[field]
    return Flag(name, help, typ, _TRAIN_DEFAULTS[field], tag, field=field, **kw)


_MODEL = Flag("model", "checkpoint directory", metavar="DIR", required=True)
_CONFIG = Flag("config", "key=value file supplying defaults; explicit flags win", tag=TOOLING,
               metavar="FILE")

_TRAIN = (
    Flag("pair", "aligned corpus files for a language pair; repeat to train jointly, first "
         "code the pivot", metavar="L1:L2:FILE1:FILE2", repeat=True, required=True),
    _train_flag("dim", "d", "embedding dimensionality d", REGIME),
    _train_flag("margin", "margin", "hinge margin m (default: equal to --dim)", REGIME),
    _train_flag("noise", "k", "noise samples k per pair", REGIME),
    _train_flag("lambda", "lam", "L2 coefficient", REGIME),
    _train_flag("step", "step", "base step size", REGIME),
    _train_flag("batch", "batch", "minibatch size", REGIME),
    _train_flag("epochs", "epochs", "passes over each corpus", TOOLING),
    _train_flag("cvm", "kind", "composition model", REGIME,
                choices=tuple(k.value for k in CompositionKind)),
    _train_flag("doc_signal", "doc_signal",
                "inputs are document files; train at document level plus sentence signal",
                REGIME),
    _train_flag("seed", "seed", "master seed for all randomness", TOOLING),
    Flag("out", "output directory (checkpoint, manifest, loss log)", metavar="DIR", required=True),
)

_EVAL = (
    Flag("level", "document representation", default="auto", tag=TOOLING,
         choices=("auto", *LEVELS)),
    Flag("task", "single-label accuracy or multi-label micro-F1", default="auto", tag=TOOLING,
         choices=("auto", "single", "multi")),
    Flag("epochs", "perceptron epochs", int, 10, TOOLING, field="clf_epochs"),
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
    Flag("docs", "documents of one language; give once per language, at least 2",
         metavar="LANG:FILE", repeat=True, required=True),
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
)


def load_config_file(path, flags) -> tuple:
    """key=value lines, converted and checked as the flags are.

    Returns ({key: value}, {key: number of the line that set it last}).
    Repeatable settings may repeat. The keys `subcommand` and `config`, and
    the platform facts, are skipped, so a manifest loads as a config file.
    """
    by_name = {f.name: f for f in flags}
    skip = {"subcommand", "config", *dict(platform_facts())}
    values, lines = {}, {}
    for lineno, key, text in read_settings(path):
        if key in skip:
            continue
        flag = by_name.get(key)
        if flag is None:
            raise UserError(f"{path}:{lineno}: unknown config key {key!r} for this subcommand")
        try:
            value = parse_setting(flag.type, text)
        except ValueError as exc:
            raise UserError(f"{path}:{lineno}: config key {key}: {exc}") from None
        if flag.choices and value not in flag.choices:
            raise UserError(
                f"{path}:{lineno}: config key {key} must be one of "
                f"{', '.join(flag.choices)}, got {value!r}"
            )
        if flag.repeat:
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
        lines[key] = lineno
    return values, lines


def _resolve(args) -> None:
    """Fill unset settings from the config file, then from built-in defaults.

    --out must be absent or an empty directory, so no run replaces or sits
    beside another's files, and an absent one must be creatable, with a
    directory we may write in as its nearest existing parent; anything
    else fails here, before any work. An absent --out is created here,
    and args.out_root records the outermost directory that made, or None
    if --out existed.
    """
    cfg, lines = load_config_file(args.config, args.settings) if args.config else ({}, {})
    # the config-file line of each setting that no flag overrides
    args.config_lines = {key: n for key, n in lines.items() if getattr(args, key) is None}
    for flag in args.settings:
        if getattr(args, flag.name) is None:
            setattr(args, flag.name, cfg.get(flag.name, flag.default))
        if flag.required and getattr(args, flag.name) is None:
            raise UserError(f"{flag.option} is required")
    if args.out == "":
        raise UserError("--out is empty; give a directory")
    args.out_root = None
    if args.out and os.path.exists(args.out):
        if not os.path.isdir(args.out):
            raise UserError(f"{args.out} exists and is not a directory")
        if os.listdir(args.out):
            raise UserError(f"{args.out} exists and is not empty")
    elif args.out:  # made here, inside its nearest existing parent
        root = os.path.abspath(args.out)
        while not os.path.exists(os.path.dirname(root)):
            root = os.path.dirname(root)
        parent = os.path.dirname(root)
        if not os.path.isdir(parent):
            raise UserError(f"{args.out} cannot be created: {parent} is not a directory")
        if not os.access(parent, os.W_OK | os.X_OK):
            raise UserError(f"--out {args.out} cannot be created: {parent} is not writable")
        try:
            os.makedirs(args.out)
        except OSError as exc:  # such as a name too long for the file system
            _remove_parents(args.out, root)
            raise UserError(f"--out {args.out} cannot be created: {exc.strerror}") from None
        args.out_root = root


def _discard_out(args) -> None:
    """Remove what a failed run wrote: --out and each parent `_resolve` made for it
    that nothing else has since been put in, or else the files in the empty --out
    it was given."""
    if args.out_root is not None:
        shutil.rmtree(args.out, ignore_errors=True)
        _remove_parents(args.out, args.out_root)
    elif args.out:  # every output is a file directly in --out
        names = []
        with contextlib.suppress(OSError):
            names = os.listdir(args.out)
        for name in names:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(args.out, name))


def _remove_parents(out: str, root: str) -> None:
    """Remove the parents of `out` up to `root`, the outermost one `_resolve` made,
    stopping at the first that is not empty."""
    path = os.path.abspath(out)
    while path != root:
        path = os.path.dirname(path)
        try:
            os.rmdir(path)
        except OSError:  # something else has been put there
            return


def _write_manifest(args) -> None:
    """Echo the run into --out: its platform facts, then every set setting.

    Settings come in table order; the facts (native.platform_facts) are
    what the output's bits depend on beyond the settings and inputs.
    """
    with writing(os.path.join(args.out, MANIFEST_NAME)) as fh:
        fh.write(f"subcommand={args.command}\n")
        fh.write("".join(f"{key}={value}\n" for key, value in platform_facts()))
        for flag in args.settings:
            value = getattr(args, flag.name)
            if value is None:
                continue
            for item in value if flag.repeat else [value]:
                fh.write(f"{flag.name}={format_setting(item)}\n")


def _split_pair_flag(value: str) -> tuple:
    parts = value.split(":")
    if len(parts) != 4 or not all(parts):
        raise UserError(
            f"--pair takes LANG1:LANG2:FILE1:FILE2 (paths without colons), got {value!r}"
        )
    for lang in parts[:2]:
        check_language_code(lang, f"--pair {value!r}")
    return tuple(parts)


def _split_lang_file(flag: str, value: str, rest: str = "FILE") -> tuple:
    lang, sep, path = value.partition(":")
    if not sep or not lang or not path:
        raise UserError(f"--{flag} takes LANG:{rest}, got {value!r}")
    return lang, path


def _refuse_repeats(flag: str, langs: list) -> None:
    repeated = [lang for lang in langs if langs.count(lang) > 1]
    if repeated:
        raise UserError(f"--{flag} {repeated[0]!r} is listed more than once")


def _check_language(bundle, flag: str, value: str, lang: str) -> None:
    """Refuse `lang`, read from `value` of --`flag`, unless the model has it."""
    if lang not in bundle.languages:
        raise UserError(f"--{flag} {value!r}: model has no language {lang!r}; "
                        f"it has {', '.join(bundle.languages)}")


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    pairs = [_split_pair_flag(p) for p in args.pair]
    pivot = pairs[0][0]
    for value, (lang, *_) in zip(args.pair, pairs):
        if lang != pivot:
            raise UserError(f"--pair {value!r} starts with {lang!r}, but every --pair starts "
                            f"with the pivot {pivot!r}, the first --pair's first code")
    fields = [f for f in _TRAIN if f.field]
    config = TrainConfig(mode="single" if len(pairs) == 1 else "joint",
                         **{f.field: getattr(args, f.name) for f in fields})
    for f in fields:  # the manifest echoes the config as resolved, margin included
        setattr(args, f.name, getattr(config, f.field))

    if config.doc_signal:
        load, make_corpus = load_document_pairs, DocumentCorpus
    else:
        load, make_corpus = load_parallel, ParallelCorpus
    vocabs, corpora = {}, []
    for l1, l2, f1, f2 in pairs:
        vocab_1, vocab_2 = (vocabs.setdefault(lang, Vocabulary()) for lang in (l1, l2))
        loaded = load(f1, f2, vocab_1, vocab_2)
        if len(loaded) < 2:
            raise UserError(f"{f1}/{f2}: fewer than 2 usable pairs, cannot sample noise")
        corpora.append(make_corpus(l1, l2, loaded))

    try:
        tables = {
            lang: init_table(len(vocabs[lang]), config.d, derive_seed(config.seed, li), lang)
            for li, lang in enumerate(sorted(vocabs))
        }
        bundle = ModelBundle(vocabs, tables, config.kind)
        state = AdaGradState(bundle)
    except (MemoryError, ValueError):  # numpy refuses an array beyond memory or its size limit
        raise tables_do_not_fit(config.d) from None

    report = train_joint(corpora, bundle, config, state)

    _write_manifest(args)
    checkpoint(bundle, state, args.out, config, config.epochs)
    with writing(os.path.join(args.out, "loss_log.tsv")) as fh:
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

def _eval(args, read_flags, evaluate) -> int:
    """Both eval subcommands; the classifier settings are checked before `read_flags()`.

    `read_flags()` gives (flag, language, document file) triples, and `evaluate(groups,
    bundle, **settings)` reports on (language, documents) groups. Every language is
    checked against the model before any document is read. The auto level is
    doc-cvm for multi-label tasks on a document-signal model, else sentence-average.
    """
    check_classifier_settings(args.epochs, args.seed, args.top_labels)
    files = read_flags()
    bundle, ckpt_config, _ = load_model(args.model)
    for flag, lang, path in files:
        _check_language(bundle, flag, f"{lang}:{path}", lang)
    groups = []
    for _, lang, path in files:
        docs = load_documents(path, bundle.vocab(lang))
        if not docs:
            raise UserError(f"{path}: no document has a token in the model's vocabulary")
        groups.append((lang, docs))
    args.task = resolve_task(args.task, *(docs for _, docs in groups))
    if args.level == "auto":
        multi_doc = ckpt_config.doc_signal and args.task == "multi"
        args.level = "doc-cvm" if multi_doc else "sentence-average"
    report = evaluate(groups, bundle, level=args.level, task=args.task, clf_epochs=args.epochs,
                      seed=args.seed, top_labels=args.top_labels)
    sys.stdout.write(report.headline().to_tsv())
    if args.out:
        _write_manifest(args)
        report.headline().write(os.path.join(args.out, "report.tsv"))
        report.write(os.path.join(args.out, "report_all.tsv"))
    return 0


def cmd_eval_cldc(args) -> int:
    def read_flags():
        return [(flag, *_split_lang_file(flag, getattr(args, flag))) for flag in ("train", "test")]

    def evaluate(groups, bundle, **settings):
        return cldc_run(*groups[0], *groups[1], bundle, **settings)

    return _eval(args, read_flags, evaluate)


def cmd_eval_transfer(args) -> int:
    def read_flags():
        files = [("docs", *_split_lang_file("docs", d)) for d in args.docs]
        _refuse_repeats("docs", [lang for _, lang, _ in files])
        if len(files) < 2:
            raise UserError(f"--docs needs at least 2 languages, got {len(files)}")
        return files

    def evaluate(groups, bundle, **settings):
        return transfer_matrix([lang for lang, _ in groups], dict(groups), bundle, **settings)

    return _eval(args, read_flags, evaluate)


# ---------------------------------------------------------------------------
# query / export

def cmd_query(args) -> int:
    if args.n < 1:
        rule = f"must be >= 1, got {args.n}"
        raise UserError(f"n {rule}", "n", rule)
    lang, text = _split_lang_file("word", args.word, "TOKEN")
    tokens = tokenize(text)  # the corpus readers' case folding
    if len(tokens) != 1:
        raise UserError(f"--word takes LANG:TOKEN with one token, got {args.word!r}")
    bundle, _, _ = load_model(args.model)
    _check_language(bundle, "word", args.word, lang)
    if args.target != "all":
        _check_language(bundle, "target", args.target, args.target)
    if tokens[0] not in bundle.vocab(lang):
        raise UserError(f"--word {args.word!r}: language {lang!r} has no token {tokens[0]!r}")
    neighbors = nearest_neighbors(bundle, (lang, tokens[0]), args.n, args.target, args.metric)
    lines = "".join(f"{nl}\t{nt}\t{score:.6f}\n" for nl, nt, score in neighbors)
    sys.stdout.write(lines)
    if args.out:
        _write_manifest(args)
        with writing(os.path.join(args.out, "neighbors.tsv")) as fh:
            fh.write(lines)
    return 0


def cmd_export(args) -> int:
    _refuse_repeats("lang", args.lang or [])
    bundle, _, _ = load_model(args.model)
    args.lang = args.lang or list(bundle.languages)
    for lang in args.lang:  # an unknown language fails before anything is written
        _check_language(bundle, "lang", lang, lang)
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
        parser.add_argument(flag.option, dest=flag.name, help=_help(flag), **kw)
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


def _run(args) -> int:
    """args.func(args), naming a setting out of range by its --flag or config-file line."""
    try:
        return args.func(args)
    except UserError as exc:
        flag = next((f for f in args.settings if (f.field or f.name) == exc.setting), None)
        if flag is None:
            raise
        line = args.config_lines.get(flag.name)
        where = f"{args.config}:{line}: config key {flag.name}" if line else flag.option
        raise UserError(f"{where} {exc.rule}") from None


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"jointvec: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one line, without the library's source
            args = parser.parse_args(argv)
            _resolve(args)
            try:
                return _run(args)
            except BaseException:
                _discard_out(args)
                raise
    except UserError as exc:
        print(f"jointvec: error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"jointvec: internal error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
