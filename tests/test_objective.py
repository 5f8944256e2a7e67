import os
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_model as ref
from jointvec import native, objective
from jointvec.composition import CompositionKind, backprop
from jointvec.corpus import (
    DocumentPair,
    LabeledDocument,
    ParallelPair,
    Sentence,
    pack_documents,
    pack_sentences,
)
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary
from jointvec.errors import ContractError
from jointvec.objective import batch_loss_and_grads, energy

from conftest import (
    densify_grads,
    doc_hinges,
    make_bundle,
    max_rel_err,
    numerical_grads,
    one_pair_loss,
    pair_hinges,
    rand_sentence,
    random_doc_instance,
    random_pair_instance,
)

KINDS = [CompositionKind.ADD, CompositionKind.BI]


def test_energy_hand_values_and_symmetry():
    assert energy(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)
    v = np.array([3.0, -1.0])
    assert energy(v, v) == 0.0
    with pytest.raises(ContractError):
        energy(np.zeros(2), np.zeros(3))


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=4))
@settings(max_examples=200, deadline=None)
def test_energy_symmetric_nonnegative(values):
    u = np.array(values)
    v = u[::-1].copy()
    assert energy(u, v) >= 0.0
    assert energy(u, v) == pytest.approx(energy(v, u), abs=1e-12)


def _zero_source_hinges(margin, target, noise):
    """LossBreakdown of a zero source vector against a target and noise vectors.

    With a zero source, each energy is the squared norm of the other side.
    """
    rows = np.array([target, *noise], dtype=float)
    bundle = ModelBundle(
        {"a": Vocabulary(["x"]), "b": Vocabulary(f"y{i}" for i in range(len(rows)))},
        {"a": EmbeddingTable("a", np.zeros((1, rows.shape[1]))), "b": EmbeddingTable("b", rows)},
        CompositionKind.ADD,
    )
    pair = ParallelPair(Sentence((0,)), Sentence((0,)))
    noise_sents = [Sentence((i,)) for i in range(1, len(rows))]
    breakdown, _ = one_pair_loss(pair, noise_sents, bundle, CompositionKind.ADD, margin)
    return breakdown


@given(
    st.floats(0.01, 10),
    st.floats(0, 10),
    st.floats(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_hinge_matches_max_form(m, target, noise):
    h = _zero_source_hinges(m, [target], [[noise]]).hinge_total
    e_pos, e_neg = target * target, noise * noise
    assert h >= 0.0
    assert h == max(m + e_pos - e_neg, 0.0)


def test_hinge_hand_values():
    # squared norms: (0.5, 0.5) -> 0.5, (1, 1) -> 2, (1, 0) -> 1
    assert _zero_source_hinges(1.0, [0.5, 0.5], [[1.0, 1.0]]).hinge_total == 0.0
    assert _zero_source_hinges(1.0, [0.5, 0.5], [[1.0, 0.0]]).hinge_total == 0.5
    assert _zero_source_hinges(1.0, [0.0, 0.0], [[0.0, 0.0]]).hinge_total == 1.0


def _hand_bundle():
    vocabs = {"a": Vocabulary(["x"]), "b": Vocabulary(["y", "z"])}
    tables = {
        "a": EmbeddingTable("a", np.array([[0.0]])),
        "b": EmbeddingTable("b", np.array([[1.0], [0.0]])),
    }
    return ModelBundle(vocabs, tables, CompositionKind.ADD)


def test_pair_loss_hand_example():
    # one-word sentences, d=1: x=0, y=1, noise z=0, margin 1
    bundle = _hand_bundle()
    pair = ParallelPair(Sentence((0,)), Sentence((0,)))
    noise = [Sentence((1,))]
    breakdown, grads = one_pair_loss(pair, noise, bundle, CompositionKind.ADD, 1.0)
    assert breakdown.hinge_total == pytest.approx(2.0)
    assert breakdown.active_noise_count == 1
    assert {lang: ids.tolist() for lang, (ids, _) in grads.items()} == {"a": [0], "b": [0, 1]}
    assert grads["a"][1][0, 0] == pytest.approx(-2.0)
    assert grads["b"][1][0, 0] == pytest.approx(2.0)
    assert grads["b"][1][1, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_loss_matches_reference_model(kind):
    rng = np.random.default_rng(101)
    for _ in range(30):
        bundle, pair, noise, margin = random_pair_instance(rng, kind)
        breakdown, _ = one_pair_loss(pair, noise, bundle, kind, margin)
        want_total, want_active = ref.pair_loss(
            bundle.table("a").matrix,
            bundle.table("b").matrix,
            list(pair.source.ids),
            list(pair.target.ids),
            [list(s.ids) for s in noise],
            margin,
            kind.value,
        )
        assert breakdown.hinge_total == pytest.approx(want_total, rel=1e-12)
        assert breakdown.active_noise_count == want_active


@pytest.mark.parametrize("kind", KINDS)
def test_pair_grads_match_finite_differences(kind):
    rng = np.random.default_rng(55)
    for _ in range(5):
        bundle, pair, noise, margin = random_pair_instance(rng, kind)
        _, grads = one_pair_loss(pair, noise, bundle, kind, margin)
        numeric = numerical_grads(
            lambda: one_pair_loss(pair, noise, bundle, kind, margin)[0].hinge_total, bundle
        )
        assert max_rel_err(densify_grads(grads, bundle), numeric) < 1e-6


def _inactive_instance(rng, kind):
    """Random pair whose hinges all sit at least 0.2 below zero."""
    while True:
        bundle, pair, noise, _ = random_pair_instance(rng, kind)
        hs = pair_hinges(bundle, pair, noise, 0.0, kind)  # = e_pos - e_neg per noise
        margin = -max(hs) - 0.2
        if 0.05 < margin < 5.0:
            return bundle, pair, noise, margin


@pytest.mark.parametrize("kind", KINDS)
def test_all_hinges_inactive_gives_empty_map(kind):
    rng = np.random.default_rng(77)
    for _ in range(20):
        bundle, pair, noise, margin = _inactive_instance(rng, kind)
        breakdown, grads = one_pair_loss(pair, noise, bundle, kind, margin)
        assert breakdown.hinge_total == 0.0
        assert breakdown.active_noise_count == 0
        assert grads == {}


def test_empty_map_iff_no_active_terms():
    rng = np.random.default_rng(88)
    for _ in range(100):
        kind = KINDS[int(rng.integers(0, 2))]
        bundle, pair, noise, margin = random_pair_instance(rng, kind)
        breakdown, grads = one_pair_loss(pair, noise, bundle, kind, margin)
        assert (breakdown.active_noise_count == 0) == (grads == {})


def test_scaling_within_slack_keeps_inactive_pair_at_zero():
    # inactivity is an open region: small uniform rescaling of every touched
    # embedding must leave loss 0 and the gradient map empty
    rng = np.random.default_rng(99)
    for _ in range(10):
        bundle, pair, noise, margin = _inactive_instance(rng, CompositionKind.ADD)
        for scale in (0.99, 1.01):
            scaled = ModelBundle(
                bundle.vocabs,
                {
                    lang: EmbeddingTable(lang, bundle.table(lang).matrix * scale)
                    for lang in bundle.languages
                },
                bundle.kind,
            )
            breakdown, grads = one_pair_loss(pair, noise, scaled, CompositionKind.ADD, margin)
            assert breakdown.hinge_total == 0.0
            assert grads == {}


def test_loss_breakdown_accumulates():
    # hinges 1 + 0.5 - 0 = 1.5 and 1 + 0.5 - 1 = 0.5; the third, 1 + 0.5 - 2, is inactive
    b = _zero_source_hinges(1.0, [0.5, 0.5], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert b.hinge_total == 2.0
    assert b.active_noise_count == 2


def _single_sentence_doc(lang, sentence, idx=0):
    return LabeledDocument(f"{lang}{idx}", lang, set(), [sentence])


def test_doc_reduces_to_pair_on_single_sentences():
    rng = np.random.default_rng(42)
    bundle, pair, noise, margin = random_pair_instance(rng, CompositionKind.ADD)
    doc_pair = DocumentPair(
        _single_sentence_doc("a", pair.source), _single_sentence_doc("b", pair.target)
    )
    noise_docs = [_single_sentence_doc("b", s, i + 1) for i, s in enumerate(noise)]
    b_doc, g_doc = one_pair_loss(doc_pair, noise_docs, bundle, CompositionKind.ADD, margin)
    b_pair, g_pair = one_pair_loss(pair, noise, bundle, CompositionKind.ADD, margin)
    assert b_doc.hinge_total == pytest.approx(b_pair.hinge_total, abs=1e-12)
    assert g_doc.keys() == g_pair.keys()
    for lang, (ids, rows) in g_pair.items():
        assert np.array_equal(g_doc[lang][0], ids)
        assert np.allclose(g_doc[lang][1], rows, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_doc_grads_match_finite_differences(kind):
    rng = np.random.default_rng(66)
    for _ in range(3):
        bundle, doc_pair, noise_docs, sentence_noise, margin = random_doc_instance(rng, kind)
        _, grads = one_pair_loss(doc_pair, noise_docs, bundle, kind, margin, sentence_noise)
        numeric = numerical_grads(
            lambda: one_pair_loss(
                doc_pair, noise_docs, bundle, kind, margin, sentence_noise
            )[0].hinge_total,
            bundle,
        )
        assert max_rel_err(densify_grads(grads, bundle), numeric) < 1e-6


def test_doc_loss_matches_reference_at_doc_level():
    rng = np.random.default_rng(13)
    bundle, doc_pair, noise_docs, _, margin = random_doc_instance(rng, CompositionKind.ADD)
    breakdown, _ = one_pair_loss(doc_pair, noise_docs, bundle, CompositionKind.ADD, margin)
    want = ref.doc_loss(
        bundle.table("a").matrix,
        bundle.table("b").matrix,
        [list(s.ids) for s in doc_pair.source.sentences],
        [list(s.ids) for s in doc_pair.target.sentences],
        [[list(s.ids) for s in nd.sentences] for nd in noise_docs],
        margin,
        "add",
    )
    assert breakdown.hinge_total == pytest.approx(want, rel=1e-12)


def test_doc_signal_alone_takes_unaligned_sentence_counts():
    rng = np.random.default_rng(7)
    bundle, doc_pair, noise_docs, _, margin = random_doc_instance(rng, CompositionKind.ADD)
    lopsided = DocumentPair(
        doc_pair.source,
        LabeledDocument("b-short", "b", set(), doc_pair.target.sentences[:1]),
    )
    breakdown, _ = one_pair_loss(lopsided, noise_docs, bundle, CompositionKind.ADD, margin)
    assert breakdown.hinge_total >= 0.0


def test_combine_adds_sentence_terms():
    rng = np.random.default_rng(31)
    bundle, doc_pair, noise_docs, sentence_noise, margin = random_doc_instance(
        rng, CompositionKind.ADD
    )
    doc_only, _ = one_pair_loss(doc_pair, noise_docs, bundle, CompositionKind.ADD, margin)
    combined, _ = one_pair_loss(
        doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, sentence_noise
    )
    sentence_total = 0.0
    for s_src, s_tgt, noise_i in zip(
        doc_pair.source.sentences, doc_pair.target.sentences, sentence_noise
    ):
        total, _ = ref.pair_loss(
            bundle.table("a").matrix,
            bundle.table("b").matrix,
            list(s_src.ids),
            list(s_tgt.ids),
            [list(s.ids) for s in noise_i],
            margin,
            "add",
        )
        sentence_total += total
    assert combined.hinge_total == pytest.approx(
        doc_only.hinge_total + sentence_total, rel=1e-12
    )


# ---------------------------------------------------------------------------
# whole minibatches against the reference model


class _Batch(NamedTuple):
    """A minibatch over a corpus of len(sentences) aligned items.

    Item i is a document of sentences[i] sentences on both sides, or in
    sentence mode its first sentence alone. Each pair b aligns item
    pairs[b] against the target items noise[b], and for documents
    sentence_noise holds one row of flat target sentence indices per
    aligned sentence position of the batch, in order. Word ids, sentence
    lengths (1 to max_len) and tables follow from seed.

    With at_zero set, tables are rounded to integers and the margin is
    moved, to 0 or below if need be, so that the hinge term of rank
    at_zero (mod the term count, largest first) is 0: rank 0 leaves no
    term active. Under ADD every term is then an exact integer and that
    term exactly 0.0; under BI, whose tanh rounds, the margin moves 0.5
    further, below the kink.
    """

    languages: tuple
    vocab_sizes: tuple
    d: int
    max_len: int
    sentences: tuple
    pairs: tuple
    noise: tuple
    sentence_noise: tuple | None
    margin: float
    seed: int
    at_zero: int | None = None


def _excluding(draw, n: int, own: list, k: int) -> tuple:
    """One row of k draws from range(n) per entry of own, none naming that entry."""
    rows = st.lists(st.lists(st.integers(0, n - 2), min_size=k, max_size=k),
                    min_size=len(own), max_size=len(own))
    return tuple(tuple(x + (x >= o) for x in row) for o, row in zip(own, draw(rows)))


@st.composite
def _batches(draw):
    """B 1-8 and k 1-6, over corpora small enough that noise repeats and hits other pairs."""
    n_b = draw(st.integers(1, 8))
    n = draw(st.integers(max(2, n_b), n_b + 3))
    pairs = tuple(draw(st.permutations(range(n)))[:n_b])
    sentences = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    sentence_noise = None
    if draw(st.booleans()):
        starts = np.cumsum([0, *sentences])
        own = [starts[p] + j for p in pairs for j in range(sentences[p])]
        sentence_noise = _excluding(draw, starts[-1], own, draw(st.integers(1, 6)))
    return _Batch(
        draw(st.sampled_from([("a", "b"), ("a", "a")])),
        tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=2))),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 12)),
        sentences,
        pairs,
        _excluding(draw, n, pairs, draw(st.integers(1, 6))),
        sentence_noise,
        draw(st.floats(0.1, 3.0)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.none() | st.integers(0, 30)),
    )


def _batch_items(batch: _Batch, kind, docs) -> tuple:
    """(bundle, source items, target items): items are word-id lists, or lists of them."""
    languages = dict.fromkeys(batch.languages)
    sizes = dict(zip(languages, batch.vocab_sizes))
    bundle = make_bundle(sizes, batch.d, batch.seed, kind)
    if batch.at_zero is not None:
        for table in bundle.tables.values():
            np.rint(2.0 * table.matrix, out=table.matrix)
    rng = np.random.default_rng(batch.seed)

    def item(lang, n_sents):
        sents = [
            rng.integers(0, sizes[lang], rng.integers(1, batch.max_len + 1)).tolist()
            for _ in range(n_sents)
        ]
        return sents if docs else sents[0]

    src, tgt = ([item(lang, n) for n in batch.sentences] for lang in batch.languages)
    return bundle, src, tgt


def _pack(items, docs):
    if docs:
        return pack_documents([[Sentence(tuple(s)) for s in d] for d in items])
    return pack_sentences([Sentence(tuple(s)) for s in items])


def _hinges(emb_s, emb_t, anchors, cands, pos, noise, margin, rep, words) -> list:
    """(value, source words, target words) of each hinge term, by reference arithmetic.

    Anchor b aligns with cands[pos[b]] against cands[n] for each n in noise[b].
    """
    vecs = [rep(emb_t, c) for c in cands]
    terms = []
    for a, g, row in zip(anchors, pos, noise):
        fa = rep(emb_s, a)
        e_pos = ref.energy(fa, vecs[g])
        for n in row:
            value = margin + e_pos - ref.energy(fa, vecs[n])
            terms.append((value, words(a), words(cands[g]) | words(cands[n])))
    return terms


def _reference_terms(bundle, batch: _Batch, src, tgt, kind, docs) -> list:
    """Every hinge term of the batch, document terms first."""
    emb_s, emb_t = (bundle.table(lang).matrix for lang in batch.languages)

    def sentence(emb, s):
        return ref.compose(emb, s, kind.value)

    def document(emb, d):
        return ref.compose_doc(emb, d, kind.value)

    rep, words = (document, lambda d: {w for s in d for w in s}) if docs else (sentence, set)
    anchors = [src[p] for p in batch.pairs]
    terms = _hinges(emb_s, emb_t, anchors, tgt, batch.pairs, batch.noise, batch.margin, rep, words)
    if docs and batch.sentence_noise is not None:
        starts = np.cumsum([0, *batch.sentences])
        pos = [starts[p] + j for p in batch.pairs for j in range(batch.sentences[p])]
        pool = [s for d in tgt for s in d]
        terms += _hinges(emb_s, emb_t, [s for d in anchors for s in d], pool, pos,
                         batch.sentence_noise, batch.margin, sentence, set)
    return terms


# a fixed batch: pairs 0-2 of a 5-pair corpus of two-sentence documents;
# noise repeats picks and names other pairs' aligned targets. With the
# examples' margins and seeds, some terms are active and some not, each at
# least 1e-2 from its kink, under ADD and BI, for sentences and documents
_FIXED = dict(
    languages=("a", "b"), vocab_sizes=(4, 5), d=3, max_len=3, sentences=(2,) * 5,
    pairs=(0, 1, 2), noise=((1, 1, 3, 2), (0, 4, 4, 2), (3, 0, 1, 1)),
    sentence_noise=((1, 1, 2), (0, 3, 3), (3, 9, 0), (2, 2, 4), (5, 1, 5), (4, 0, 8)),
)


@pytest.mark.parametrize("docs", [False, True], ids=["sentences", "documents"])
@pytest.mark.parametrize("kind", KINDS)
@given(batch=_batches())
@example(batch=_Batch(**_FIXED, margin=1.0, seed=2))
@example(batch=_Batch(**_FIXED, margin=1.5, seed=1))
@example(batch=_Batch(**_FIXED, margin=2.0, seed=4))
@example(batch=_Batch(**_FIXED, margin=1.0, seed=2, at_zero=0))
@example(batch=_Batch(**_FIXED, margin=1.0, seed=2, at_zero=5))
@settings(max_examples=40, deadline=None)
def test_batch_matches_reference_model(kind, docs, batch):
    bundle, src, tgt = _batch_items(batch, kind, docs)
    terms = _reference_terms(bundle, batch, src, tgt, kind, docs)
    hs = np.array([h for h, _, _ in terms])
    exact = batch.at_zero is not None and kind is CompositionKind.ADD
    if batch.at_zero is not None:
        top = np.sort(hs)[::-1][batch.at_zero % len(hs)]
        margin = np.rint(batch.margin - top) if exact else batch.margin - top - 0.5
        batch = batch._replace(margin=float(margin))
        terms = _reference_terms(bundle, batch, src, tgt, kind, docs)
        hs = np.array([h for h, _, _ in terms])
    at_kink = hs == 0.0 if exact else np.zeros(len(hs), dtype=bool)
    # the active set is not decided by rounding: terms are 0.0 exactly or far from it
    assume(np.abs(hs[~at_kink]).min(initial=np.inf) > 1e-9)
    sentence_noise = batch.sentence_noise if docs else None
    breakdown, grads = batch_loss_and_grads(
        _pack(src, docs), _pack(tgt, docs), np.array(batch.pairs), np.array(batch.noise),
        bundle, kind, batch.margin, batch.languages,
        None if sentence_noise is None else np.array(sentence_noise),
    )
    assert breakdown.hinge_total == pytest.approx(sum(hs[hs > 0]), rel=1e-12)
    assert breakdown.active_noise_count == int((hs > 0).sum())
    want = {}
    for h, src_words, tgt_words in terms:
        if h > 0:
            want.setdefault(batch.languages[0], set()).update(src_words)
            want.setdefault(batch.languages[1], set()).update(tgt_words)
    assert {lang: ids.tolist() for lang, (ids, _) in grads.items()} == {
        lang: sorted(words) for lang, words in want.items()
    }

    patterns = set()

    def loss():
        # a term at exactly 0.0 is inactive, so it adds no slope on either side
        hs = np.array([h for h, _, _ in _reference_terms(bundle, batch, src, tgt, kind, docs)])
        patterns.add((hs > 0)[~at_kink].tobytes())
        return sum(hs[(hs > 0) & ~at_kink])

    numeric = numerical_grads(loss, bundle)
    assume(len(patterns) == 1)  # no finite-difference step crossed a kink
    assert max_rel_err(densify_grads(grads, bundle), numeric) < 1e-6


def _scatter_every_sentence(sents, shift: int) -> tuple:
    """(word ids, summed gradient rows) over every word of every sentence of `sents`.

    The whole-batch scatter that word_grads narrows to touched sentences:
    backprop every sentence, then one bincount over all tokens, target ids
    shifted by `shift`.
    """
    rows, inv = np.unique(np.concatenate([sents.src_ids, sents.tgt_ids + shift]),
                          return_inverse=True)
    grads = backprop(sents.grad, sents.result)
    d = grads.shape[1]
    flat = (inv[:, None] * d + np.arange(d)).ravel()
    summed = np.bincount(flat, weights=grads.ravel(), minlength=len(rows) * d)
    return rows, summed.reshape(len(rows), d)


# _FIXED with one source word among long sentences, against 40 target words
_ONE_WORD_SOURCE = {**_FIXED, "vocab_sizes": (1, 40), "max_len": 12}


@pytest.mark.parametrize("docs", [False, True], ids=["sentences", "documents"])
@pytest.mark.parametrize("kind", KINDS)
@given(batch=_batches(), share=st.floats(0.0, 1.0))
@example(batch=_Batch(**_FIXED, margin=0.0, seed=2), share=0.0)
@example(batch=_Batch(**_FIXED, margin=0.0, seed=2), share=0.3)
@example(batch=_Batch(**_FIXED, margin=0.0, seed=2), share=0.7)
@example(batch=_Batch(**_FIXED, margin=0.0, seed=2), share=1.0)
@example(batch=_Batch(**_ONE_WORD_SOURCE, margin=0.0, seed=2), share=1.0)
@example(batch=_Batch(**_ONE_WORD_SOURCE, margin=0.0, seed=5), share=0.5)
@settings(max_examples=40, deadline=None)
def test_word_grads_equal_the_whole_batch_scatter_kept_to_touched_words(kind, docs, batch, share):
    """Bit for bit, the touched-only scatter equals scattering every sentence, then keeping.

    The margin is set between two distinct hinge values, so that about
    `share` of the distinct values are active: from no term to every term.
    The kept words are those of the reference model's active terms, so a
    sentence lost from the touched set, at either level, changes the ids.
    With one source word, that word fills most of the batch's tokens and
    outnumbers the distinct words, so its sum finishes alone after the
    loop over occurrences stops.
    """
    batch = batch._replace(margin=0.0, at_zero=None)
    bundle, src, tgt = _batch_items(batch, kind, docs)
    # at margin 0 each term is E(a, g) - E(a, n); a margin m adds m to every one
    levels = np.unique([h for h, _, _ in _reference_terms(bundle, batch, src, tgt, kind, docs)])
    cut = round(share * len(levels))
    above = levels[cut] if cut < len(levels) else levels[-1] + 2.0
    below = levels[cut - 1] if cut else levels[0] - 2.0
    # the active set is not decided by rounding
    assume(above - below > 1e-9 * (1.0 + np.abs(levels).max()))
    batch = batch._replace(margin=float(-(above + below) / 2))
    want = {}
    for h, src_words, tgt_words in _reference_terms(bundle, batch, src, tgt, kind, docs):
        if h > 0:
            want.setdefault(batch.languages[0], set()).update(src_words)
            want.setdefault(batch.languages[1], set()).update(tgt_words)

    scattered = []
    word_grads = objective._Sentences.word_grads

    def spy(sents, languages, n_src_rows):
        shift = 0 if languages[0] == languages[1] else n_src_rows
        scattered.append((shift, *_scatter_every_sentence(sents, shift)))
        return word_grads(sents, languages, n_src_rows)

    sentence_noise = batch.sentence_noise if docs else None
    with mock.patch.object(objective._Sentences, "word_grads", spy):
        _, grads = batch_loss_and_grads(
            _pack(src, docs), _pack(tgt, docs), np.array(batch.pairs), np.array(batch.noise),
            bundle, kind, batch.margin, batch.languages,
            None if sentence_noise is None else np.array(sentence_noise),
        )
    (shift, rows, summed), = scattered
    assert {lang: ids.tolist() for lang, (ids, _) in grads.items()} == {
        lang: sorted(words) for lang, words in want.items()
    }
    for lang, (ids, got) in grads.items():
        at = np.searchsorted(rows, ids + (shift if lang == batch.languages[1] else 0))
        assert got.tobytes() == summed[at].tobytes()


def test_untouched_sentence_with_non_finite_gradient_stays_out_of_the_scatter():
    """A sentence in no active term adds nothing to any word, even as NaN rows.

    Its representation overflows to inf, so the hinge's 0 * inf leaves NaN
    in its gradient; the word it shares with a touched sentence keeps the
    touched sentence's finite gradient, and its other word gets none.
    """
    vocabs = {"a": Vocabulary(["x"]), "b": Vocabulary(["y", "z"])}
    tables = {
        "a": EmbeddingTable("a", np.array([[1.0, 0.0]])),
        "b": EmbeddingTable("b", np.array([[1.0, 1.0], [1e308, 0.0]])),
    }
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    src, tgt = (np.array([0]), np.array([1])), (np.array([0, 0, 1, 1]), np.array([1, 3]))
    with np.errstate(over="ignore", invalid="ignore"):
        sents = objective._Sentences(bundle, ("a", "b"), src, tgt, CompositionKind.ADD)
        untouched = sents.result.output[2]  # target sentence y z z
        assert np.isinf(untouched).any()
        sents.grad[:2] = [[1.0, 2.0], [3.0, 4.0]]
        sents.grad[2] = 0.0 * untouched
        sents.touched[:2] = True
        grads = sents.word_grads(("a", "b"), 1)
    assert np.isnan(sents.grad[2]).any()
    assert {lang: (ids.tolist(), rows.tolist()) for lang, (ids, rows) in grads.items()} == {
        "a": ([0], [[1.0, 2.0]]), "b": ([0], [[3.0, 4.0]])}


@pytest.mark.parametrize("kind", KINDS)
def test_word_gradient_of_negative_zero_rows_is_positive_zero(kind):
    """Bit for bit the whole-batch scatter, whose sums start from +0.0, where rows are -0.0.

    Each word adds its rows from the first one; a sum of -0.0 rows alone
    would stay -0.0, where the scatter's sum reads +0.0.
    """
    vocabs = {"a": Vocabulary(["x", "w"]), "b": Vocabulary(["y"])}
    tables = {
        "a": EmbeddingTable("a", np.array([[1.0, 0.5], [0.25, 2.0]])),
        "b": EmbeddingTable("b", np.array([[1.0, 1.0]])),
    }
    bundle = ModelBundle(vocabs, tables, kind)
    src, tgt = (np.array([0, 1, 0]), np.array([3])), (np.array([0, 0]), np.array([2]))
    sents = objective._Sentences(bundle, ("a", "b"), src, tgt, kind)
    sents.grad[:] = [[-0.0, 1.0], [-0.0, -0.0]]  # source x w x, target y y
    sents.touched[:] = True
    rows, summed = _scatter_every_sentence(sents, 2)
    grads = sents.word_grads(("a", "b"), 2)
    assert not np.signbit(summed[summed == 0.0]).any()
    assert grads["a"][0].tolist() == [0, 1] and grads["b"][0].tolist() == [0]
    got = np.concatenate([grads["a"][1], grads["b"][1]])
    assert got.tobytes() == summed.tobytes()


_ONE_BATCH = """
import hashlib
import numpy as np
from jointvec import synth
from jointvec.composition import CompositionKind
from jointvec.corpus import Sentence, pack_sentences, sample_indices_excluding
from jointvec.embeddings import ModelBundle, Vocabulary, init_table
from jointvec.objective import batch_loss_and_grads

tw = synth.make_twin_corpus("la", "lb", 500, seed=3)
sides, tables, vocabs = [], {}, {}
for seed, (lang, sents) in enumerate([("la", tw.sents_a), ("lb", tw.sents_b)]):
    vocabs[lang] = Vocabulary(t for s in sents for t in s)
    tables[lang] = init_table(len(vocabs[lang]), 128, seed, lang)
    sides.append(pack_sentences([Sentence(tuple(vocabs[lang][t] for t in s)) for s in sents]))
rng = np.random.default_rng(5)
pairs = rng.permutation(500)[:50]
noise = sample_indices_excluding(500, pairs, 50, rng)
for kind in CompositionKind:
    bundle = ModelBundle(vocabs, tables, kind)
    loss, grads = batch_loss_and_grads(*sides, pairs, noise, bundle, kind, 128.0, ("la", "lb"))
    print(kind.value, repr(loss.hinge_total), loss.active_noise_count)
    for lang, (ids, rows) in grads.items():
        print(lang, len(ids), hashlib.sha256(ids.tobytes() + rows.tobytes()).hexdigest())
"""


def test_batch_bytes_do_not_depend_on_blas_threads():
    """One reference-sized batch (d=128, B=50, k=50) under 1 and 2 BLAS threads and the default.

    Its 500-pair corpus gives products that OpenBLAS splits over 2 threads,
    so the test fails where the hinge's products are not pinned to one.
    """
    outputs = []
    for threads in ("1", "2", None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _ONE_BATCH], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    # both kinds give rows for both languages, so the batch has active terms
    assert [line.split()[0] for line in outputs[0].splitlines()] == [
        "add", "la", "lb", "bi", "la", "lb"]


@pytest.mark.skipif(native._openblas_threads() is None, reason="numpy's OpenBLAS not found")
def test_blas_pin_restores_the_callers_thread_count():
    get, set_ = native._openblas_threads()
    before = get()
    rng = np.random.default_rng(0)
    sides = [pack_sentences([rand_sentence(rng, 10) for _ in range(6)]) for _ in "ab"]
    try:
        set_(2)
        breakdown, _ = batch_loss_and_grads(
            *sides, np.arange(3), np.array([[3, 4], [5, 0], [1, 2]]),
            make_bundle({"a": 10, "b": 10}, 8, seed=1), CompositionKind.ADD, 8.0, ("a", "b"),
        )
        assert breakdown.active_noise_count > 0
        assert get() == 2
        with pytest.raises(RuntimeError, match="inside the pin"):
            with native.one_blas_thread():
                assert get() == 1
                raise RuntimeError("inside the pin")
        assert get() == 2
    finally:
        set_(before)
