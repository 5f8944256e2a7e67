"""Noise-contrastive margin objective over composed representations.

For an aligned pair (a, b) and k sampled noise sentences n_i, the loss is

    sum_i max(margin + E(a, b) - E(a, n_i), 0),   E(u, v) = ||f(u) - g(v)||^2

which pulls the aligned pair's distance below every noise distance by at
least the margin. Hinge terms at exactly zero are inactive; NaN terms,
left by overflow, are active, so they make the hinge total NaN. The L2
regularizer is owned by the optimizer, which applies it to touched rows
per update, so the loss here is the hinge total alone.

A minibatch is evaluated as a whole: tables are fixed until its update,
so every distinct sentence it needs is composed once, from the tables
by `compose_rows`, the (B, k) hinge matrix is formed at once, and
gradients are summed per distinct sentence, then per word: `segment_sums`
adds each word's gradient rows in token order, and the sum reads as if
it had started from +0.0. ADD reads each token's gradient from its
sentence's row, so it forms no (tokens, d) array. Only sentences in an
active hinge term are backpropagated and summed into words, so gradients
cover exactly their words; a batch with no active term touches no row.

Document-level training composes twice (words -> sentence vectors ->
document vector), both times by `compose_rows`, and applies the same hinge between aligned documents,
optionally combined with the sentence-level loss over their aligned
sentences.
"""

from dataclasses import dataclass

import numpy as np

from .composition import CompositionKind, backprop, compose_rows, segment_sums
from .corpus import PackedSide, gather_ranges
from .embeddings import ModelBundle
from .errors import ContractError
from .native import one_blas_thread


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
        src_rows, tgt_rows = (tables.table(lang).matrix for lang in languages)
        parts = ((src_rows, self.src_ids, src_len), (tgt_rows, self.tgt_ids, tgt_len))
        self.result = compose_rows(parts, kind)
        self.grad = np.zeros(self.result.output.shape)
        self.touched = np.zeros(len(self.result.lengths), dtype=bool)

    def word_grads(self, languages: tuple, n_src_rows: int) -> dict:
        """{language: (unique word ids, summed gradient rows)} of touched sentences' words.

        Each word's gradient rows are summed in token order by `segment_sums`,
        read by index: under ADD its sentences' gradient rows, under BI
        backprop's token rows. Adding +0.0 to the sums turns a -0.0 into
        +0.0, so they are those of a sum from +0.0. Only touched sentences
        are backpropagated and summed: an untouched one's finite rows are
        +-0.0, so no sum from +0.0 changes by a bit, and its 0 * inf rows,
        where its representation overflowed, no longer reach the words it
        shares with touched ones. Both languages share one sort: target word
        ids are shifted past the source table's n_src_rows rows unless the
        languages coincide.
        """
        touched, lengths = self.touched, self.result.lengths
        if not touched.any():
            return {}
        shift = 0 if languages[0] == languages[1] else n_src_rows
        ids = np.concatenate([self.src_ids, self.tgt_ids + shift])[touched.repeat(lengths)]
        order = ids.argsort(kind="stable")  # each word's tokens stay in token order
        ids = ids.take(order)
        new = np.empty(len(ids), dtype=bool)
        new[0] = True
        np.not_equal(ids[1:], ids[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        rows = ids.take(starts)
        if self.result.activations is None:  # ADD: a token's gradient is its sentence's
            grads = self.grad
            order = np.flatnonzero(touched).repeat(lengths[touched]).take(order)
        else:
            result = self.result.select(touched)
            self.result = None  # untouched sentences' activations go before backprop's temporaries
            grads = backprop(self.grad.compress(touched, axis=0), result)
            del result  # and touched ones before the sums'
        summed = segment_sums(grads, np.diff(starts, append=len(ids)), rows=order)
        summed += 0.0
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
    # the products run on one BLAS thread, because a threaded BLAS splits
    # their sums, and so changes their last bits, by its thread count
    with one_blas_thread():
        q = np.einsum("ij,ij->i", cands, cands) - 2.0 * (anchors @ cands.T)
        h = (margin + q[rows, pos])[:, None] - q[col, neg]
        active = ~(h <= 0.0)  # h > 0, but NaN counts too
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
        np.matmul(weight, cands, out=grad[:n_b])
        np.matmul(weight.T, anchors, out=grad[n_b:])
    grad[n_b:] -= np.add.reduce(weight)[:, None] * cands
    # noise never equals its anchor's aligned candidate, so no weight cancels
    return grad, np.concatenate([per_anchor > 0, weight.any(axis=0)])


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
    # documents compose from the sentence vectors at `rows`, cut by
    # `lengths`, source documents first; sent_terms (pos, neg) align source
    # sentence b with target sentence pos[b] against the noise neg[b]
    rows = sent_terms = None
    if src.doc_starts is None:
        src_sents, tgt_sents, sent_terms = pairs, items, (pos, neg)
    else:
        src_sents, src_len = gather_ranges(src.doc_starts, pairs)
        doc_sents, tgt_len = gather_ranges(tgt.doc_starts, items)
        lengths = np.concatenate([src_len, tgt_len])
        extra = () if sentence_noise is None else (sentence_noise.ravel(),)
        tgt_sents, inv = np.unique(np.concatenate([doc_sents, *extra]), return_inverse=True)
        # a sentence belongs to one document, so no row repeats
        rows = np.concatenate([np.arange(len(src_sents)), len(src_sents) + inv[: len(doc_sents)]])
        if sentence_noise is not None:
            aligned, _ = gather_ranges(tgt.doc_starts, pairs)
            sent_terms = (
                np.searchsorted(tgt_sents, aligned),
                inv[len(doc_sents) :].reshape(sentence_noise.shape),
            )
    breakdown = LossBreakdown()
    sents = _Sentences(tables, languages, _tokens(src, src_sents), _tokens(tgt, tgt_sents), kind)
    if rows is not None:
        docs = compose_rows(((sents.result.output, rows, lengths),), kind)
        grad, touched = _hinge_matrix(docs.output, n_b, pos, neg, margin, breakdown)
        sents.grad[rows] += backprop(grad, docs)
        sents.touched[rows] |= touched.repeat(lengths)
    if sent_terms is not None:
        pos, neg = sent_terms
        grad, touched = _hinge_matrix(sents.result.output, sents.n_src, pos, neg, margin, breakdown)
        sents.grad += grad
        sents.touched |= touched
    return breakdown, sents.word_grads(languages, tables.table(languages[0]).vocab_size)
