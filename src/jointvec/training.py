"""Minibatch AdaGrad over the contrastive objective.

Single mode trains on one parallel corpus; joint mode interleaves
minibatches from several sub-corpora that share a pivot language, so the
pivot table receives updates from every sub-corpus and all languages land
in one vector space. Runs are bitwise deterministic given (config,
corpus, seed): shuffling uses one generator per (epoch, sub-corpus), and
noise comes from that same generator in schedule order, one draw per
batch for its pairs plus, for documents, one for its sentence positions.
Each minibatch is evaluated as a whole and the tables change only
between batches.
"""

import contextlib
import dataclasses
import math
import os
import re
import time
import typing
import warnings
from dataclasses import dataclass, field

import numpy as np

from .composition import CompositionKind, _block_rows
from .corpus import (
    DocumentCorpus,
    gather_ranges,
    pack_corpus,
    read_lines,
    sample_indices_excluding,
    writing,
)
from .embeddings import EmbeddingTable, ModelBundle, Vocabulary, _reject_rows
from .errors import ContractError, UserError
from .native import keep_freed_pages, platform_facts
from .objective import batch_loss_and_grads

CHECKPOINT_META = "meta.txt"
EPSILON = 1e-6  # AdaGrad's denominator floor
MODES = ("single", "joint")


def tables_do_not_fit(d: int) -> UserError:
    """The error for a d whose tables and AdaGrad accumulators numpy cannot allocate."""
    rule = f"must let the tables and their accumulators fit in memory, got {d}"
    return UserError(f"d {rule}", "d", rule)


@dataclass
class TrainConfig:
    d: int = 128
    margin: float | None = None  # None resolves to d
    k: int = 50
    lam: float = 1.0
    step: float = 0.05
    batch: int = 50
    epochs: int = 5
    kind: CompositionKind = CompositionKind.ADD
    doc_signal: bool = False
    mode: str = "single"
    seed: int = 1

    def __post_init__(self):
        if self.d > np.iinfo(np.intp).max:  # no array is this wide; float(d) may overflow
            raise tables_do_not_fit(self.d)
        if self.margin is None:
            self.margin = float(self.d)
        try:
            self.kind = CompositionKind(self.kind)
        except ValueError:
            rule = f"must be add or bi, got {self.kind!r}"
            raise UserError(f"kind {rule}", "kind", rule) from None
        names = {"k": "k (noise count)", "lam": "lambda"}  # where messages differ from fields
        checks = [
            ("d", self.d >= 1, f"must be >= 1, got {self.d}"),
            ("margin", self.margin > 0, f"must be > 0, got {self.margin}"),
            ("margin", self.margin < math.inf, f"must be finite and > 0, got {self.margin}"),
            ("k", self.k >= 1, f"must be >= 1, got {self.k}"),
            ("lam", self.lam >= 0, f"must be >= 0, got {self.lam}"),
            ("lam", self.lam < math.inf, f"must be finite and >= 0, got {self.lam}"),
            ("step", self.step > 0, f"must be > 0, got {self.step}"),
            ("step", self.step < math.inf, f"must be finite and > 0, got {self.step}"),
            ("batch", self.batch >= 1, f"must be >= 1, got {self.batch}"),
            ("epochs", self.epochs >= 1, f"must be >= 1, got {self.epochs}"),
            ("mode", self.mode in MODES, f"must be {' or '.join(MODES)}, got {self.mode!r}"),
            ("seed", self.seed >= 0, f"must be >= 0, got {self.seed}"),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise UserError(f"{names.get(name, name)} {rule}", name, rule)


class AdaGradState:
    """Per-language accumulated squared gradients, same shape as the tables."""

    def __init__(self, bundle: ModelBundle = None, acc: dict = None):
        if acc is not None:
            self.acc = acc
        elif bundle is not None:
            self.acc = {lang: np.zeros_like(t.matrix) for lang, t in bundle.tables.items()}
        else:
            raise ContractError("AdaGradState needs a bundle or explicit accumulators")


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    active_fractions: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)

    def log_epoch(self, loss: float, active_fraction: float, seconds: float) -> None:
        self.epoch_losses.append(loss)
        self.active_fractions.append(active_fraction)
        self.epoch_seconds.append(seconds)


def adagrad_apply(tables: ModelBundle, grads: dict, state: AdaGradState, config: TrainConfig) -> bool:
    """One update: accumulate squared (regularized) gradients, scale the step.

    `grads` maps a language to (unique row ids, gradient rows). For each
    touched row w with raw gradient g: g += lambda * w, then G += g^2 and
    w -= step * g / sqrt(G + EPSILON). Untouched rows see neither update
    nor regularizer. All new rows and accumulators are computed first and
    written only if every one is finite; else, as after any NaN or infinite
    gradient, nothing changes and the result is False. Overflow warnings
    are the caller's to silence (train_joint does). `grads` is not modified.

    The touched rows of a language are gathered once, then updated in
    blocks of 16,384 // d rows (128 KB per array), so the chain of
    elementwise passes reads and writes blocks that stay in L2 rather
    than whole (rows, d) arrays, which at a few thousand rows are
    streamed from memory on every pass. Each element still sees the same
    IEEE operations in the same order, so the bits do not depend on the
    block size.
    """
    block = _block_rows(tables.d)
    u_buf, s_buf = np.empty((block, tables.d)), np.empty((block, tables.d))
    updates = []
    for lang, (ids, g) in grads.items():
        w_rows = tables.table(lang).matrix.take(ids, axis=0)
        acc_rows = state.acc[lang].take(ids, axis=0)
        for lo in range(0, len(ids), block):
            hi = min(lo + block, len(ids))
            w, acc, u, s = w_rows[lo:hi], acc_rows[lo:hi], u_buf[: hi - lo], s_buf[: hi - lo]
            np.multiply(config.lam, w, out=u)
            u += g[lo:hi]
            acc += np.multiply(u, u, out=s)
            u *= config.step
            u /= np.sqrt(np.add(acc, EPSILON, out=s), out=s)
            w -= u
            if not (np.isfinite(w).all() and np.isfinite(acc).all()):
                return False
        updates.append((lang, ids, w_rows, acc_rows))
    for lang, ids, w_rows, acc_rows in updates:
        state.acc[lang][ids] = acc_rows
        tables.table(lang).matrix[ids] = w_rows
    return True


def _epoch_schedule(corpora: list, config: TrainConfig, epoch: int):
    """Shuffle each sub-corpus, cut into minibatches, interleave round-robin.

    Returns per-corpus generators (reused afterwards for that corpus's noise
    draws) and the batch list as (corpus index, index array) in execution
    order.
    """
    rngs = []
    chunked = []
    for ci, corpus in enumerate(corpora):
        rng = np.random.default_rng([config.seed + epoch, ci])
        order = rng.permutation(len(corpus.pairs))
        rngs.append(rng)
        chunked.append([order[i : i + config.batch] for i in range(0, len(order), config.batch)])
    batches = []
    for round_i in range(max(len(c) for c in chunked)):
        for ci, chunks in enumerate(chunked):
            if round_i < len(chunks):
                batches.append((ci, chunks[round_i]))
    return rngs, batches


def train_joint(
    corpora: list,
    tables: ModelBundle,
    config: TrainConfig,
    state: AdaGradState = None,
    start_epoch: int = 0,
    on_epoch=None,
) -> TrainReport:
    """Run epochs [start_epoch, config.epochs) of minibatch AdaGrad in place.

    All sub-corpora must name the same source-side (pivot) language; its
    table is one shared object, so an update triggered by any sub-corpus is
    visible to every later batch. `on_epoch(epoch, report)` fires after each
    completed epoch, e.g. for checkpointing. The model's kind and width
    must be config's kind and d. Every sub-corpus is packed and
    checked before the first update (see corpus.pack_corpus). A batch whose
    loss or update is not finite raises UserError and writes nothing:
    tables and accumulators stay as the last good batch left them. The
    first call pins the process's glibc malloc thresholds (native.keep_freed_pages).
    The model's tables are made writable (EmbeddingTable.make_writable)
    after those checks, so a model from load_model or resume trains.
    """
    if not corpora:
        raise UserError("need at least one sub-corpus")
    pivots = {c.src_lang for c in corpora}
    if len(pivots) != 1:
        raise UserError(f"sub-corpora must share one pivot language, got {sorted(pivots)}")
    if not 0 <= start_epoch <= config.epochs:
        raise UserError(f"start_epoch {start_epoch} outside [0, {config.epochs}]")
    for name, want, got in (("kind", config.kind, tables.kind), ("d", config.d, tables.d)):
        if want != got:  # else training and the model's readers would disagree
            raise UserError(f"config has {name}={format_setting(want)}, "
                            f"but the model has {name}={format_setting(got)}")
    for c in corpora:
        if config.doc_signal != isinstance(c, DocumentCorpus):
            raise UserError(
                "doc_signal takes document corpora; plain parallel corpora need it off"
            )
        tables.table(c.src_lang), tables.table(c.tgt_lang)  # fail fast on missing languages
    if state is None:
        state = AdaGradState(tables)
    packed = [pack_corpus(c) for c in corpora]
    for table in tables.tables.values():  # a loaded model's tables are read-only
        table.make_writable()
    keep_freed_pages()

    report = TrainReport()
    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        total_terms = 0
        active_terms = 0
        rngs, batches = _epoch_schedule(corpora, config, epoch)
        for batch_no, (ci, chunk) in enumerate(batches):
            corpus, (src, tgt) = corpora[ci], packed[ci]
            noise = sample_indices_excluding(len(corpus.pairs), chunk, config.k, rngs[ci])
            sentence_noise = None
            if tgt.doc_starts is not None:
                positions, _ = gather_ranges(tgt.doc_starts, chunk)
                sentence_noise = sample_indices_excluding(
                    tgt.n_sentences, positions, config.k, rngs[ci]
                )
                total_terms += sentence_noise.size
            with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
                breakdown, grads = batch_loss_and_grads(
                    src, tgt, chunk, noise, tables, config.kind, config.margin,
                    (corpus.src_lang, corpus.tgt_lang), sentence_noise,
                )
                loss = breakdown.hinge_total
                if not (np.isfinite(loss) and adagrad_apply(tables, grads, state, config)):
                    raise UserError(
                        f"training diverged in epoch {epoch}, batch {batch_no}: loss {loss!r}, "
                        f"step={config.step!r}, lambda={config.lam!r}; the loss, embeddings or "
                        f"AdaGrad accumulators are not finite; lower the step size or lambda"
                    )
            epoch_loss += loss
            active_terms += breakdown.active_noise_count
            total_terms += noise.size
        report.log_epoch(
            epoch_loss, active_terms / max(total_terms, 1), time.perf_counter() - t0
        )
        if on_epoch is not None:
            on_epoch(epoch, report)
    return report


def format_setting(v) -> str:
    """Text form of a setting value, as meta.txt and manifests write it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, CompositionKind):
        return v.value
    return str(v)


# TrainConfig field -> the type its text parses to: `X | None` reads as X,
# and the kind stays text, which TrainConfig checks
FIELD_TYPES = {
    f.name: str if f.type is CompositionKind else (typing.get_args(f.type) or (f.type,))[0]
    for f in dataclasses.fields(TrainConfig)
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_setting(typ, text: str):
    """Inverse of format_setting for a value of type `typ`.

    Bools also accept 1/0 and yes/no, in any case. A bad value raises ValueError.
    """
    if typ is bool:
        try:
            return _BOOLS[text.lower()]
        except KeyError:
            raise ValueError(f"expected a boolean, got {text!r}") from None
    return typ(text)


def read_settings(path):
    """(line number, key, value) for each key=value line of a settings file.

    Config files, manifests and meta.txt share this grammar: blank and `#`
    lines are skipped, and key and value are stripped at the first `=`. A
    line without `=` raises UserError naming path:line.
    """
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UserError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _meta_key(name: str) -> str:
    return "lambda" if name == "lam" else name


_LANGUAGE_CODE = re.compile(r"[A-Za-z0-9_-]+")


def check_language_code(lang: str, where: str) -> None:
    """Refuse `lang`, named at `where`, unless a checkpoint can store it.

    A language code is one or more ASCII letters, digits, `-` or `_` (en,
    pt-br, zh_Hant): a checkpoint's file names start with it, and meta.txt
    lists the codes joined by commas.
    """
    if not _LANGUAGE_CODE.fullmatch(lang):
        raise UserError(f"{where}: language code {lang!r} is not ASCII letters, digits, - or _")


def checkpoint(
    tables: ModelBundle,
    state: AdaGradState,
    path,
    config: TrainConfig,
    epoch: int,
) -> None:
    """Write a checkpoint directory: per language, its table, accumulators and vocabulary.

    <lang>.npy holds the table and <lang>.adagrad.npy the AdaGrad
    accumulators, as .npy files without pickles; <lang>.vocab holds one
    token per line, row i of both arrays belonging to line i + 1. meta.txt
    is key=value with the config echo, epoch counter, and seed, plus the
    platform facts the bits depend on (native.platform_facts), which
    load_model does not read. Writing is deterministic: same inputs, same
    bytes.

    The write is safe against a killed process: meta.txt is removed first,
    every file is written under a .tmp name and renamed into place, and
    meta.txt comes last, so resume() accepts only a complete checkpoint.
    A failed write (a full disk, say) removes its .tmp file and raises
    UserError naming the file, and meta.txt stays absent. Nothing is
    synced to disk, so a power loss is not covered. The text form of a
    table comes from export_table (`jointvec export`).
    """
    meta_path = os.path.join(path, CHECKPOINT_META)
    for lang in tables.languages:
        check_language_code(lang, f"cannot write {path}")
    try:
        os.makedirs(path, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(meta_path)
    except OSError as exc:
        raise UserError(f"cannot write {path}: {exc}") from exc
    for lang in tables.languages:
        tokens = tables.vocab(lang).tokens
        with writing(os.path.join(path, f"{lang}.vocab"), "wb") as fh:
            fh.write(("\n".join(tokens) + "\n" if tokens else "").encode("utf-8"))
        arrays = {f"{lang}.npy": tables.table(lang).matrix, f"{lang}.adagrad.npy": state.acc[lang]}
        for name, matrix in arrays.items():
            with writing(os.path.join(path, name), "wb") as fh:
                np.save(fh, matrix, allow_pickle=False)
    meta = {"languages": ",".join(tables.languages), "epoch": epoch, **dict(platform_facts())}
    for f in dataclasses.fields(TrainConfig):
        meta[_meta_key(f.name)] = getattr(config, f.name)
    with writing(meta_path, "wb") as fh:
        fh.write("".join(f"{k}={format_setting(meta[k])}\n" for k in sorted(meta)).encode("utf-8"))


def _read_vocab(path) -> Vocabulary:
    """The vocabulary of a .vocab file, one token per line; a repeated token fails."""
    tokens = read_lines(path)
    vocab = Vocabulary(tokens)
    if len(vocab) != len(tokens):  # find the first repeat only to name its line
        seen = set()
        for lineno, token in enumerate(tokens, start=1):
            if token in seen:
                raise UserError(f"{path}:{lineno}: duplicate token {token!r}")
            seen.add(token)
    return vocab


def _read_matrix(path, vocab_path, vocab: Vocabulary, reference=None) -> np.ndarray:
    """The 2-D float64 array of the .npy file `path`, one row per token of `vocab`.

    `vocab` was read from `vocab_path`. `reference`, if given, is (path,
    width) of an array whose width this one must share. Its entries are
    not checked: each caller makes the one finiteness pass. Pickled data
    is never loaded, and numpy's warnings about the file are not shown.
    """
    try:
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            matrix = np.load(fh, allow_pickle=False)
    except Exception as exc:  # a damaged header can fail in numpy's parser with any type
        raise UserError(f"cannot read {path}: {exc}") from exc
    if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64 and matrix.ndim == 2):
        got = f"{matrix.dtype} {matrix.shape}" if isinstance(matrix, np.ndarray) else "an archive"
        raise UserError(f"{path}: expected a 2-D float64 array, got {got}")
    if len(matrix) != len(vocab):
        raise UserError(
            f"{path} has {len(matrix)} rows for {len(vocab)} vocabulary tokens in {vocab_path}"
        )
    if reference is not None and matrix.shape[1] != reference[1]:
        raise UserError(
            f"{path} has width {matrix.shape[1]}, but {reference[0]} has width {reference[1]}"
        )
    return matrix


def load_model(path):
    """Load a checkpoint directory's model, without its AdaGrad accumulators.

    Returns (ModelBundle, TrainConfig, epoch). The tables' matrices are
    read-only, so queries keep their row norms; train_joint makes them
    writable when it takes the model. meta.txt is read first,
    then each language's .vocab and .npy. Every fault is a UserError
    naming the file, plus the line, key, row or token where one applies:
    a missing or unreadable file, a missing metadata key, a metadata value
    that does not parse or breaks TrainConfig's rule for it, a language
    code that checkpoint would refuse, an epoch outside [0, epochs], a
    repeated token, an array that is not 2-D float64, whose row
    count is not its vocabulary's size, whose width differs from another
    language's or from d, or that holds a non-finite value. Keys that no
    TrainConfig field reads are ignored, so a checkpoint that still names
    a since-removed setting loads.
    """
    meta_path = os.path.join(path, CHECKPOINT_META)
    meta = {key: (lineno, value) for lineno, key, value in read_settings(meta_path)}
    for key in ["languages", "epoch", *map(_meta_key, FIELD_TYPES)]:
        if key not in meta:
            raise UserError(f"{meta_path}: checkpoint metadata missing {key!r}")

    def where(key: str) -> str:
        return f"{meta_path}:{meta[key][0]}: invalid checkpoint metadata {key}"

    values = {}
    for name, typ in [*FIELD_TYPES.items(), ("epoch", int)]:
        try:
            values[name] = parse_setting(typ, meta[_meta_key(name)][1])
        except ValueError as exc:
            raise UserError(f"{where(_meta_key(name))}: {exc}") from None
    epoch = values.pop("epoch")
    try:
        config = TrainConfig(**values)
    except UserError as exc:
        raise UserError(f"{where(_meta_key(exc.setting))}: {exc.rule}") from None
    languages = meta["languages"][1].split(",")
    for lang in languages:
        check_language_code(lang, where("languages"))
    if not 0 <= epoch <= config.epochs:
        raise UserError(f"{where('epoch')}: {epoch} outside [0, {config.epochs}]")
    vocabs, tables = {}, {}
    reference = None
    for lang in languages:
        vocab_path = os.path.join(path, f"{lang}.vocab")
        if not os.path.exists(vocab_path):
            raise UserError(f"{meta_path} lists language {lang!r}, but {vocab_path} does not exist")
        vocabs[lang] = _read_vocab(vocab_path)
        table_path = os.path.join(path, f"{lang}.npy")
        matrix = _read_matrix(table_path, vocab_path, vocabs[lang], reference)
        reference = reference or (table_path, matrix.shape[1])
        matrix.flags.writeable = False
        try:  # the table's own finiteness check is the one pass over its entries
            tables[lang] = EmbeddingTable(lang, matrix)
        except ContractError:
            bad = ~np.isfinite(matrix).all(axis=1)
            _reject_rows(table_path, vocabs[lang], bad, "non-finite values")
    if reference[1] != config.d:
        raise UserError(f"{where(_meta_key('d'))}: {config.d}, but {reference[0]} "
                        f"has width {reference[1]}")
    return ModelBundle(vocabs, tables, config.kind), config, epoch


def resume(path):
    """Load a checkpoint directory back into memory, accumulators included.

    Returns (ModelBundle, AdaGradState, TrainConfig, epoch). The model
    comes from load_model, with its checks; each <lang>.adagrad.npy must
    then match its table's shape, be finite and have no negative entry.
    Every fault is a UserError naming the file.
    """
    bundle, config, epoch = load_model(path)
    acc = {}
    for lang in bundle.languages:
        vocab = bundle.vocab(lang)
        acc_path = os.path.join(path, f"{lang}.adagrad.npy")
        reference = (os.path.join(path, f"{lang}.npy"), bundle.d)
        acc[lang] = _read_matrix(acc_path, os.path.join(path, f"{lang}.vocab"), vocab, reference)
        if not np.isfinite(acc[lang]).all():
            bad = ~np.isfinite(acc[lang]).all(axis=1)
            _reject_rows(acc_path, vocab, bad, "non-finite values")
        if acc[lang].min(initial=0.0) < 0:
            negative = (acc[lang] < 0).any(axis=1)
            _reject_rows(acc_path, vocab, negative, "negative accumulator entries")
    return bundle, AdaGradState(acc=acc), config, epoch
