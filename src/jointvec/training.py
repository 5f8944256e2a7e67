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

import dataclasses
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .composition import CompositionKind
from .corpus import DocumentCorpus, gather_ranges, pack_corpus, sample_indices_excluding
from .embeddings import EmbeddingTable, ModelBundle, export_table, import_table
from .errors import CheckpointError, ConfigError, ContractError, DivergenceError
from .objective import batch_loss_and_grads

CHECKPOINT_META = "meta.txt"


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
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.margin is None:
            self.margin = float(self.d)
        try:
            self.kind = CompositionKind(self.kind)
        except ValueError:
            raise ConfigError(f"kind must be add or bi, got {self.kind!r}") from None
        checks = [
            (self.d >= 1, f"d must be >= 1, got {self.d}"),
            (self.margin > 0, f"margin must be > 0, got {self.margin}"),
            (self.k >= 1, f"k (noise count) must be >= 1, got {self.k}"),
            (self.lam >= 0, f"lambda must be >= 0, got {self.lam}"),
            (self.step > 0, f"step must be > 0, got {self.step}"),
            (self.batch >= 1, f"batch must be >= 1, got {self.batch}"),
            (self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}"),
            (self.epsilon > 0, f"epsilon must be > 0, got {self.epsilon}"),
            (self.mode in ("single", "joint"), f"mode must be single or joint, got {self.mode!r}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


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
    w -= step * g / sqrt(G + epsilon). Untouched rows see neither update
    nor regularizer. A non-finite gradient rejects the whole update before
    anything mutates. Returns whether every updated row, in the tables and
    the accumulators, is still finite.
    """
    for lang, (ids, g) in grads.items():
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            raise ContractError(f"non-finite gradient for ({lang!r}, {int(ids[bad][0])})")
    finite = True
    for lang, (ids, g) in grads.items():
        w = tables.table(lang).matrix
        acc = state.acc[lang]
        w_rows, acc_rows = w[ids], acc[ids]
        # overflow shows up as non-finite rows, which the caller reports
        with np.errstate(over="ignore", invalid="ignore"):
            g_eff = config.lam * w_rows
            g_eff += g
            scratch = np.multiply(g_eff, g_eff)
            acc_rows += scratch
            g_eff *= config.step
            g_eff /= np.sqrt(np.add(acc_rows, config.epsilon, out=scratch), out=scratch)
            w_rows -= g_eff
        acc[ids] = acc_rows
        w[ids] = w_rows
        finite = finite and bool(np.isfinite(acc_rows).all() and np.isfinite(w_rows).all())
    return finite


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
    completed epoch, e.g. for checkpointing. Every sub-corpus is packed and
    checked before the first update (see corpus.pack_corpus). An update
    that leaves a row non-finite raises DivergenceError; the tables are
    then unusable.
    """
    if not corpora:
        raise ConfigError("need at least one sub-corpus")
    pivots = {c.src_lang for c in corpora}
    if len(pivots) != 1:
        raise ConfigError(f"sub-corpora must share one pivot language, got {sorted(pivots)}")
    if not 0 <= start_epoch <= config.epochs:
        raise ConfigError(f"start_epoch {start_epoch} outside [0, {config.epochs}]")
    for c in corpora:
        if config.doc_signal != isinstance(c, DocumentCorpus):
            raise ConfigError(
                "doc_signal takes document corpora; plain parallel corpora need it off"
            )
        tables.table(c.src_lang), tables.table(c.tgt_lang)  # fail fast on missing languages
    if state is None:
        state = AdaGradState(tables)
    packed = [pack_corpus(c) for c in corpora]

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
            breakdown, grads = batch_loss_and_grads(
                src, tgt, chunk, noise, tables, config.kind, config.margin,
                (corpus.src_lang, corpus.tgt_lang), sentence_noise,
            )
            epoch_loss += breakdown.hinge_total
            active_terms += breakdown.active_noise_count
            total_terms += noise.size
            if not adagrad_apply(tables, grads, state, config):
                raise DivergenceError(
                    f"training diverged in epoch {epoch}, batch {batch_no}: embeddings "
                    f"or AdaGrad accumulators became non-finite with step={config.step!r} "
                    f"and lambda={config.lam!r}; lower the step size or lambda"
                )
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


# TrainConfig field -> its type, with `X | None` read as X
_FIELD_TYPES = {
    f.name: (typing.get_args(f.type) or (f.type,))[0] for f in dataclasses.fields(TrainConfig)
}


def parse_setting(name: str, text: str):
    """Inverse of format_setting for the TrainConfig field `name`."""
    typ = _FIELD_TYPES[name]
    if typ is bool:
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return typ(text)


def _meta_key(name: str) -> str:
    return "lambda" if name == "lam" else name


def checkpoint(
    tables: ModelBundle,
    state: AdaGradState,
    path,
    config: TrainConfig,
    epoch: int,
) -> None:
    """Write <lang>.emb and <lang>.adagrad per language plus meta.txt.

    Both matrices use the embedding text format, so a checkpoint doubles as
    an export; meta.txt is key=value with the config echo, epoch counter,
    and seed. Writing is deterministic: same inputs, same bytes.
    """
    os.makedirs(path, exist_ok=True)
    for lang in tables.languages:
        vocab = tables.vocab(lang)
        export_table(tables.table(lang), vocab, os.path.join(path, f"{lang}.emb"))
        export_table(
            EmbeddingTable(lang, state.acc[lang]), vocab, os.path.join(path, f"{lang}.adagrad")
        )
    meta = {"languages": ",".join(tables.languages), "epoch": epoch}
    for f in dataclasses.fields(TrainConfig):
        meta[_meta_key(f.name)] = getattr(config, f.name)
    with open(os.path.join(path, CHECKPOINT_META), "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"{key}={format_setting(meta[key])}\n")


def _parse_meta(path) -> dict:
    meta = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CheckpointError(f"{path}: malformed line {line!r}")
                key, _, value = line.partition("=")
                meta[key] = value
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint metadata: {exc}") from exc
    return meta


def resume(path):
    """Load a checkpoint directory back into memory.

    Returns (ModelBundle, AdaGradState, TrainConfig, epoch). Missing files,
    vocabulary disagreements between the embedding and accumulator files,
    or negative accumulator entries all fail loudly. Keys that no
    TrainConfig field reads are ignored, so a checkpoint that still names a
    since-removed setting loads.
    """
    meta = _parse_meta(os.path.join(path, CHECKPOINT_META))
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    for key in ["languages", "epoch"] + [_meta_key(n) for n in names]:
        if key not in meta:
            raise CheckpointError(f"checkpoint metadata missing {key!r}")
    languages = meta["languages"].split(",")
    vocabs = {}
    tables = {}
    acc = {}
    for lang in languages:
        emb_path = os.path.join(path, f"{lang}.emb")
        ada_path = os.path.join(path, f"{lang}.adagrad")
        for p in (emb_path, ada_path):
            if not os.path.exists(p):
                raise CheckpointError(f"checkpoint is missing {p}")
        vocab, table = import_table(emb_path, lang)
        ada_vocab, ada_table = import_table(ada_path, lang)
        if ada_vocab.tokens != vocab.tokens:
            raise CheckpointError(f"{lang}: accumulator vocabulary disagrees with embeddings")
        if (ada_table.matrix < 0).any():
            raise CheckpointError(f"{lang}: negative AdaGrad accumulator entries")
        vocabs[lang] = vocab
        tables[lang] = table
        acc[lang] = ada_table.matrix
    try:
        config = TrainConfig(**{n: parse_setting(n, meta[_meta_key(n)]) for n in names})
        epoch = int(meta["epoch"])
    except (ValueError, ConfigError) as exc:
        raise CheckpointError(f"invalid checkpoint metadata: {exc}") from exc
    bundle = ModelBundle(vocabs, tables, config.kind)
    return bundle, AdaGradState(acc=acc), config, epoch
