"""Noise-contrastive margin objective over composed representations.

For an aligned pair (a, b) and k sampled noise sentences n_i, the loss is

    sum_i max(margin + E(a, b) - E(a, n_i), 0),   E(u, v) = ||f(u) - g(v)||^2

which pulls the aligned pair's distance below every noise distance by at
least the margin. Hinge terms at exactly zero are inactive. Gradients come
back sparsely as a map from (language, word_id) to a d-vector covering only
rows that received signal; a pair whose hinges are all inactive contributes
an empty map. The L2 regularizer is owned by the optimizer, which applies
it to touched rows per update, so LossBreakdown.regularizer stays 0 here.

Document-level training composes twice (words -> sentence vectors ->
document vector) and applies the same hinge between aligned documents,
optionally combined with the sentence-level loss over their aligned
sentences.
"""

from dataclasses import dataclass

import numpy as np

from .composition import CompositionKind, CompositionResult, backprop, compose
from .corpus import DocumentPair, LabeledDocument, ParallelPair, Sentence
from .embeddings import EmbeddingTable, ModelBundle
from .errors import AlignmentError, ContractError

# (language, word_id) -> accumulated d-vector
GradMap = dict


@dataclass
class LossBreakdown:
    hinge_total: float = 0.0
    active_noise_count: int = 0
    regularizer: float = 0.0

    def add(self, hinge_value: float) -> None:
        self.hinge_total += hinge_value
        self.active_noise_count += 1


def energy(u: np.ndarray, v: np.ndarray) -> float:
    """Squared Euclidean distance between two composed representations."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ContractError(f"energy over mismatched shapes {u.shape} vs {v.shape}")
    diff = u - v
    return float(diff @ diff)


def hinge(margin: float, e_pos: float, e_neg: float) -> float:
    return max(margin + e_pos - e_neg, 0.0)


def merge_grads(into: GradMap, other: GradMap) -> None:
    """Add `other` into `into` in place; used to sum gradients over a minibatch."""
    for key, g in other.items():
        acc = into.get(key)
        if acc is None:
            into[key] = g.copy()
        else:
            acc += g


def _accumulate(grads: GradMap, lang: str, sentence: Sentence, result: CompositionResult, grad_out: np.ndarray) -> None:
    word_grads = backprop(grad_out, result)
    for wid, g in zip(sentence.ids, word_grads):
        key = (lang, wid)
        acc = grads.get(key)
        if acc is None:
            grads[key] = g.copy()
        else:
            acc += g


def _compose_sentence(table: EmbeddingTable, sentence: Sentence, kind: CompositionKind) -> CompositionResult:
    return compose(table.matrix[list(sentence.ids)], kind)


def _hinge_terms(
    forward,
    accumulate,
    tables: ModelBundle,
    languages: tuple,
    source,
    target,
    noise_items: list,
    margin: float,
    kind: CompositionKind,
    breakdown: LossBreakdown,
    grads: GradMap,
) -> None:
    """Hinge terms for one aligned pair, accumulated in place.

    `forward(table, item, kind)` composes a sentence or a document and
    `accumulate(grads, lang, item, fwd, grad_out)` backpropagates into word
    rows. The aligned representations each receive one gradient
    contribution per active hinge; every active noise item receives its own.
    """
    lang_src, lang_tgt = languages
    table_tgt = tables.table(lang_tgt)
    fwd_src = forward(tables.table(lang_src), source, kind)
    fwd_tgt = forward(table_tgt, target, kind)
    diff_pos = fwd_src.output - fwd_tgt.output
    e_pos = float(diff_pos @ diff_pos)

    grad_src = np.zeros_like(diff_pos)
    grad_tgt = np.zeros_like(diff_pos)
    n_active = 0
    for noise in noise_items:
        fwd_noise = forward(table_tgt, noise, kind)
        diff_neg = fwd_src.output - fwd_noise.output
        h = margin + e_pos - float(diff_neg @ diff_neg)
        if h > 0.0:
            breakdown.add(h)
            n_active += 1
            grad_src += 2.0 * (diff_pos - diff_neg)
            grad_tgt -= 2.0 * diff_pos
            accumulate(grads, lang_tgt, noise, fwd_noise, 2.0 * diff_neg)
    if n_active:
        accumulate(grads, lang_src, source, fwd_src, grad_src)
        accumulate(grads, lang_tgt, target, fwd_tgt, grad_tgt)


def pair_loss_and_grads(
    pair: ParallelPair,
    noise: list,
    tables: ModelBundle,
    kind: CompositionKind,
    margin: float,
    languages: tuple,
) -> tuple:
    """Hinge terms of one sentence pair against its noise set.

    `languages` is (source language, target language); `noise` holds
    target-side Sentences. Returns (LossBreakdown, gradient map).
    """
    breakdown = LossBreakdown()
    grads: GradMap = {}
    _hinge_terms(
        _compose_sentence, _accumulate, tables, languages,
        pair.source, pair.target, noise, margin, kind, breakdown, grads,
    )
    return breakdown, grads


@dataclass
class DocForward:
    """Saved two-stage forward pass: one result per sentence plus the document result."""

    sent_results: list
    doc_result: CompositionResult

    @property
    def output(self) -> np.ndarray:
        return self.doc_result.output


def compose_doc_forward(table: EmbeddingTable, doc: LabeledDocument, kind: CompositionKind) -> DocForward:
    sent_results = [_compose_sentence(table, s, kind) for s in doc.sentences]
    doc_result = compose(np.stack([r.output for r in sent_results]), kind)
    return DocForward(sent_results, doc_result)


def _accumulate_doc(grads: GradMap, lang: str, doc: LabeledDocument, fwd: DocForward, grad_out: np.ndarray) -> None:
    sent_grads = backprop(grad_out, fwd.doc_result)
    for sent, res, g in zip(doc.sentences, fwd.sent_results, sent_grads):
        _accumulate(grads, lang, sent, res, g)


def doc_loss_and_grads(
    doc_pair: DocumentPair,
    noise_docs: list,
    tables: ModelBundle,
    kind: CompositionKind,
    margin: float,
    combine_sentence_signal: bool,
    languages: tuple,
    sentence_noise: list | None = None,
) -> tuple:
    """Document-level hinge terms, optionally combined with the sentence signal.

    `noise_docs` are target-language documents standing in for noise. With
    combine_sentence_signal set, the two sides must have equal sentence
    counts and `sentence_noise` must hold one target-side noise list per
    aligned sentence position; those pair losses add into the same maps.
    """
    breakdown = LossBreakdown()
    grads: GradMap = {}
    _hinge_terms(
        compose_doc_forward, _accumulate_doc, tables, languages,
        doc_pair.source, doc_pair.target, noise_docs, margin, kind, breakdown, grads,
    )

    if combine_sentence_signal:
        src_sents = doc_pair.source.sentences
        tgt_sents = doc_pair.target.sentences
        if len(src_sents) != len(tgt_sents):
            raise AlignmentError(
                f"combined signal needs sentence-aligned documents, got "
                f"{len(src_sents)} vs {len(tgt_sents)} sentences"
            )
        if sentence_noise is None or len(sentence_noise) != len(src_sents):
            raise ContractError(
                "combined signal needs one noise list per aligned sentence"
            )
        for s_src, s_tgt, noise_i in zip(src_sents, tgt_sents, sentence_noise):
            _hinge_terms(
                _compose_sentence, _accumulate, tables, languages,
                s_src, s_tgt, noise_i, margin, kind, breakdown, grads,
            )
    return breakdown, grads
