"""Noise-contrastive margin objective over composed representations.

For an aligned pair (a, b) and k sampled noise sentences n_i, the loss is

    sum_i max(margin + E(a, b) - E(a, n_i), 0),   E(u, v) = ||f(u) - g(v)||^2

which pulls the aligned pair's distance below every noise distance by at
least the margin. Hinge terms at exactly zero are inactive. The L2
regularizer is owned by the optimizer, which applies it to touched rows
per update, so the loss here is the hinge total alone.

A minibatch is evaluated as a whole: tables are fixed until its update,
so every distinct sentence it needs is composed once, the (B, k) hinge
matrix is formed at once, and gradients are summed per distinct sentence
before one scatter into word rows. Gradients cover exactly the
words of every sentence that takes part in at least one active hinge
term; a batch with no active term touches no row.

Document-level training composes twice (words -> sentence vectors ->
document vector) and applies the same hinge between aligned documents,
optionally combined with the sentence-level loss over their aligned
sentences.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .composition import CompositionKind, backprop, compose
from .corpus import DocumentPair, PackedSide, ParallelPair, gather_ranges, sentence_tokens
from .embeddings import ModelBundle
from .errors import AlignmentError, ContractError

_FIRST = np.zeros(1, dtype=np.intp)


@dataclass
class LossBreakdown:
    hinge_total: float = 0.0
    active_noise_count: int = 0


def energy(u: np.ndarray, v: np.ndarray) -> float:
    """Squared Euclidean distance between two composed representations."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ContractError(f"energy over mismatched shapes {u.shape} vs {v.shape}")
    diff = u - v
    return float(diff @ diff)


class _Sentences:
    """Every sentence a batch needs, composed in one call, source side first.

    Built from (token ids, lengths) of the source sentences and of the
    target sentences. Collects each sentence's gradient and whether it
    takes part in an active hinge term; the first n_src are source
    sentences.
    """

    def __init__(self, tables: ModelBundle, languages: tuple, src: tuple, tgt: tuple, kind):
        (self.src_ids, src_len), (self.tgt_ids, tgt_len) = src, tgt
        self.n_src = len(src_len)
        self.lengths = np.concatenate([src_len, tgt_len])
        src_rows, tgt_rows = tables.table(languages[0]).matrix, tables.table(languages[1]).matrix
        rows = np.empty((len(self.src_ids) + len(self.tgt_ids), src_rows.shape[1]))
        rows[: len(self.src_ids)] = src_rows[self.src_ids]
        rows[len(self.src_ids) :] = tgt_rows[self.tgt_ids]
        self.result = compose(rows, kind, self.lengths)
        self.grad = np.zeros(self.result.output.shape)
        self.touched = np.zeros(len(self.lengths), dtype=bool)

    def word_grads(self, languages: tuple, n_src_rows: int) -> dict:
        """{language: (unique word ids, summed gradient rows)} of touched sentences' words.

        Both languages share one scatter: target word ids are shifted past
        the source table's n_src_rows rows unless the languages coincide.
        """
        if not self.touched.any():
            return {}
        shift = 0 if languages[0] == languages[1] else n_src_rows
        rows, inv = np.unique(
            np.concatenate([self.src_ids, self.tgt_ids + shift]), return_inverse=True
        )
        # words of untouched sentences get exact zeros, then drop out
        keep = np.zeros(len(rows), dtype=bool)
        keep[inv[self.touched.repeat(self.lengths)]] = True
        grads = backprop(self.grad, self.result)
        self.result = None  # free the BI activations before the scatter's temporaries
        d = grads.shape[1]
        flat = (inv[:, None] * d + np.arange(d)).ravel()
        summed = np.bincount(flat, weights=grads.ravel(), minlength=len(rows) * d)
        del flat, grads  # before the copy below, to bound the batch's memory
        rows, summed = rows[keep], summed.reshape(len(rows), d)[keep]
        cut = np.searchsorted(rows, shift) if shift else len(rows)
        parts = (
            (languages[0], rows[:cut], summed[:cut]),
            (languages[1], rows[cut:] - shift, summed[cut:]),
        )
        return {lang: (ids, g) for lang, ids, g in parts if len(ids)}


def _hinge_matrix(reps, n_b, pos, neg, margin, breakdown):
    """The (B, k) hinge matrix of the first n_b representations against the rest.

    The rest are candidates: anchor b's aligned representation is candidate
    pos[b], with pos free of repeats, and its noise the candidates neg[b],
    never pos[b] itself. Adds to `breakdown`; returns the gradient of the
    hinge total with respect to every representation, and which of them
    took part in an active term.
    """
    anchors, cands = reps[:n_b], reps[n_b:]
    n_c = cands.shape[0]
    rows = np.arange(n_b)
    col = rows[:, None]
    # margin + ||a - g||^2 - ||a - n||^2 = margin + q[g] - q[n] with
    # q[c] = ||c||^2 - 2 a.c, so no (B, k, d) difference tensor is formed;
    # products go through einsum's own loops, not a threaded BLAS, whose
    # summation order (and so the last bits) changes with its thread count
    q = np.einsum("ij,ij->i", cands, cands) - 2.0 * np.einsum("bi,ci->bc", anchors, cands)
    h = (margin + q[rows, pos])[:, None] - q[col, neg]
    active = h > 0.0
    h_active = h[active]
    breakdown.hinge_total += float(np.add.reduce(h_active))
    breakdown.active_noise_count += len(h_active)
    per_anchor = np.add.reduce(active, axis=1)
    # an active term has gradient 2(n - g) in the anchor a, 2(g - a) in its
    # aligned g and 2(a - n) in its noise n: weight[b, c] is 2 per active
    # term of anchor b with noise c, minus 2 per active term of b at c = g
    cells = np.concatenate([(col * n_c + neg)[active], rows * n_c + pos])
    terms = np.concatenate([np.full(len(h_active), 2.0), -2.0 * per_anchor])
    weight = np.bincount(cells, terms, n_b * n_c).reshape(n_b, n_c)
    grad = np.empty_like(reps)
    np.einsum("bc,ci->bi", weight, cands, out=grad[:n_b])
    np.einsum("bc,bi->ci", weight, anchors, out=grad[n_b:])
    grad[n_b:] -= np.add.reduce(weight)[:, None] * cands
    # noise never equals its anchor's aligned candidate, so no weight cancels
    return grad, np.concatenate([per_anchor > 0, weight.any(axis=0)])


def _evaluate(tables, kind, margin, languages, src, tgt, sent_terms, doc_terms=None) -> tuple:
    """Hinge terms over the source sentences `src` and target sentences `tgt`.

    Both are (token ids, lengths). `sent_terms` is None or (pos, neg):
    source sentence b is aligned with target sentence pos[b] and its noise
    is the target sentences neg[b]. `doc_terms` is None or (rows, lengths,
    pos, neg): documents composed from the sentences at `rows` (which do
    not repeat), cut into documents by `lengths`, source documents first,
    with (pos, neg) naming target documents. Returns (LossBreakdown,
    {language: (unique word ids, gradient rows)}).
    """
    breakdown = LossBreakdown()
    sents = _Sentences(tables, languages, src, tgt, kind)
    if doc_terms is not None:
        rows, lengths, pos, neg = doc_terms
        docs = compose(sents.result.output[rows], kind, lengths)
        grad, touched = _hinge_matrix(docs.output, len(pos), pos, neg, margin, breakdown)
        sents.grad[rows] += backprop(grad, docs)
        sents.touched[rows] |= touched.repeat(lengths)
    if sent_terms is not None:
        pos, neg = sent_terms
        grad, touched = _hinge_matrix(sents.result.output, sents.n_src, pos, neg, margin, breakdown)
        sents.grad += grad
        sents.touched |= touched
    return breakdown, sents.word_grads(languages, tables.table(languages[0]).vocab_size)


def _tokens(side: PackedSide, sentences: np.ndarray) -> tuple:
    """(token ids, lengths) of the given sentences of a packed side."""
    positions, lengths = gather_ranges(side.sent_starts, sentences)
    return side.ids[positions], lengths


def batch_loss_and_grads(
    src: PackedSide,
    tgt: PackedSide,
    pairs: np.ndarray,
    noise: np.ndarray,
    tables: ModelBundle,
    kind: CompositionKind,
    margin: float,
    languages: tuple,
    sentence_noise: np.ndarray | None = None,
) -> tuple:
    """Hinge terms of a minibatch of aligned pairs against their noise.

    `src` and `tgt` are the packed sides of a corpus in the languages
    (source, target); `pairs` holds B distinct item indices (sentences, or
    documents when the sides have doc_starts) and `noise` a (B, k) matrix
    of target item indices, none naming its own pair. For documents,
    `sentence_noise` adds the sentence signal: one row of target sentence
    indices per aligned sentence position of the batch's documents, in
    order, none naming its own position; those documents must be
    sentence-aligned. Every distinct sentence is composed once. Returns
    (LossBreakdown, {language: (unique word ids, gradient rows)}).
    """
    n_b = len(pairs)
    items, inv = np.unique(np.concatenate([pairs, noise.ravel()]), return_inverse=True)
    pos, neg = inv[:n_b], inv[n_b:].reshape(noise.shape)
    if src.doc_starts is None:
        return _evaluate(
            tables, kind, margin, languages, _tokens(src, pairs), _tokens(tgt, items), (pos, neg)
        )
    src_sents, src_len = gather_ranges(src.doc_starts, pairs)
    tgt_sents, tgt_len = gather_ranges(tgt.doc_starts, items)
    extra = () if sentence_noise is None else (sentence_noise.ravel(),)
    pool, inv = np.unique(np.concatenate([tgt_sents, *extra]), return_inverse=True)
    # a sentence belongs to one document, so no row repeats
    rows = np.concatenate([np.arange(len(src_sents)), len(src_sents) + inv[: len(tgt_sents)]])
    doc_terms = (rows, np.concatenate([src_len, tgt_len]), pos, neg)
    sent_terms = None
    if sentence_noise is not None:
        aligned, _ = gather_ranges(tgt.doc_starts, pairs)
        sent_terms = (
            np.searchsorted(pool, aligned),
            inv[len(tgt_sents) :].reshape(sentence_noise.shape),
        )
    return _evaluate(
        tables, kind, margin, languages,
        _tokens(src, src_sents), _tokens(tgt, pool), sent_terms, doc_terms,
    )


def _as_row_map(grads: dict) -> dict:
    return {
        (lang, w): row for lang, (ids, rows) in grads.items() for w, row in zip(ids.tolist(), rows)
    }


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
    target-side Sentences. Returns (LossBreakdown, gradient map from
    (language, word id) to a d-vector); the one-pair case of
    batch_loss_and_grads, without its packing and deduplication.
    """
    breakdown, grads = _evaluate(
        tables, kind, margin, languages,
        sentence_tokens([pair.source]),
        sentence_tokens([pair.target, *noise]),
        (_FIRST, np.arange(1, len(noise) + 1)[None, :]),
    )
    return breakdown, _as_row_map(grads)


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
    aligned sentence position, all of one length; those pair losses add
    into the same gradients. The one-pair case of batch_loss_and_grads,
    without its packing and deduplication.
    """
    src_sents = doc_pair.source.sentences
    target_docs = [doc_pair.target.sentences] + [d.sentences for d in noise_docs]
    target = list(chain.from_iterable(target_docs))
    lengths = np.array([len(src_sents)] + [len(d) for d in target_docs])
    doc_terms = (
        np.arange(len(src_sents) + len(target)), lengths,
        _FIRST, np.arange(1, len(noise_docs) + 1)[None, :],
    )
    sent_terms = None
    if combine_sentence_signal:
        if len(src_sents) != len(doc_pair.target.sentences):
            raise AlignmentError(
                f"combined signal needs sentence-aligned documents, got "
                f"{len(src_sents)} vs {len(doc_pair.target.sentences)} sentences"
            )
        if sentence_noise is None or len(sentence_noise) != len(src_sents):
            raise ContractError(
                "combined signal needs one noise list per aligned sentence"
            )
        k = len(sentence_noise[0])
        if any(len(n) != k for n in sentence_noise):
            raise ContractError("combined signal needs equally long sentence noise lists")
        # noise sentences follow the documents' sentences, outside every document
        noise_at = len(target) + np.arange(len(src_sents) * k).reshape(len(src_sents), k)
        sent_terms = (np.arange(len(src_sents)), noise_at)
        target.extend(chain.from_iterable(sentence_noise))
    breakdown, grads = _evaluate(
        tables, kind, margin, languages,
        sentence_tokens(src_sents), sentence_tokens(target), sent_terms, doc_terms,
    )
    return breakdown, _as_row_map(grads)
