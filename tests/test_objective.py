import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model as ref
from jointvec.composition import CompositionKind
from jointvec.corpus import (
    DocumentPair,
    LabeledDocument,
    ParallelPair,
    Sentence,
    pack_documents,
    pack_sentences,
)
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary
from jointvec.errors import AlignmentError, ContractError
from jointvec.objective import (
    batch_loss_and_grads,
    doc_loss_and_grads,
    energy,
    pair_loss_and_grads,
)

from conftest import (
    densify_grads,
    doc_hinges,
    make_bundle,
    max_rel_err,
    numerical_grads,
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
    pair = ParallelPair(Sentence((0,)), Sentence((0,)), 0)
    noise_sents = [Sentence((i,)) for i in range(1, len(rows))]
    breakdown, _ = pair_loss_and_grads(
        pair, noise_sents, bundle, CompositionKind.ADD, margin, ("a", "b")
    )
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
    pair = ParallelPair(Sentence((0,)), Sentence((0,)), 0)
    noise = [Sentence((1,))]
    breakdown, grads = pair_loss_and_grads(
        pair, noise, bundle, CompositionKind.ADD, 1.0, ("a", "b")
    )
    assert breakdown.hinge_total == pytest.approx(2.0)
    assert breakdown.active_noise_count == 1
    assert set(grads) == {("a", 0), ("b", 0), ("b", 1)}
    assert grads[("a", 0)][0] == pytest.approx(-2.0)
    assert grads[("b", 0)][0] == pytest.approx(2.0)
    assert grads[("b", 1)][0] == pytest.approx(0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_loss_matches_reference_model(kind):
    rng = np.random.default_rng(101)
    for _ in range(30):
        bundle, pair, noise, margin = random_pair_instance(rng, kind)
        breakdown, _ = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
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
        _, grads = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
        numeric = numerical_grads(
            lambda: pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))[
                0
            ].hinge_total,
            bundle,
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
        breakdown, grads = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
        assert breakdown.hinge_total == 0.0
        assert breakdown.active_noise_count == 0
        assert grads == {}


def test_empty_map_iff_no_active_terms():
    rng = np.random.default_rng(88)
    for _ in range(100):
        kind = KINDS[int(rng.integers(0, 2))]
        bundle, pair, noise, margin = random_pair_instance(rng, kind)
        breakdown, grads = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
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
            breakdown, grads = pair_loss_and_grads(
                pair, noise, scaled, CompositionKind.ADD, margin, ("a", "b")
            )
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
        _single_sentence_doc("a", pair.source), _single_sentence_doc("b", pair.target), 0
    )
    noise_docs = [_single_sentence_doc("b", s, i + 1) for i, s in enumerate(noise)]
    b_doc, g_doc = doc_loss_and_grads(
        doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, False, ("a", "b")
    )
    b_pair, g_pair = pair_loss_and_grads(pair, noise, bundle, CompositionKind.ADD, margin, ("a", "b"))
    assert b_doc.hinge_total == pytest.approx(b_pair.hinge_total, abs=1e-12)
    assert set(g_doc) == set(g_pair)
    for key in g_pair:
        assert np.allclose(g_doc[key], g_pair[key], atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_doc_grads_match_finite_differences(kind):
    rng = np.random.default_rng(66)
    for _ in range(3):
        bundle, doc_pair, noise_docs, sentence_noise, margin = random_doc_instance(rng, kind)
        _, grads = doc_loss_and_grads(
            doc_pair, noise_docs, bundle, kind, margin, True, ("a", "b"), sentence_noise
        )
        numeric = numerical_grads(
            lambda: doc_loss_and_grads(
                doc_pair, noise_docs, bundle, kind, margin, True, ("a", "b"), sentence_noise
            )[0].hinge_total,
            bundle,
        )
        assert max_rel_err(densify_grads(grads, bundle), numeric) < 1e-6


def test_doc_loss_matches_reference_at_doc_level():
    rng = np.random.default_rng(13)
    bundle, doc_pair, noise_docs, _, margin = random_doc_instance(rng, CompositionKind.ADD)
    breakdown, _ = doc_loss_and_grads(
        doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, False, ("a", "b")
    )
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


def test_combine_requires_aligned_sentence_counts():
    rng = np.random.default_rng(7)
    bundle, doc_pair, noise_docs, sentence_noise, margin = random_doc_instance(
        rng, CompositionKind.ADD
    )
    lopsided = DocumentPair(
        doc_pair.source,
        LabeledDocument(
            "b-short", "b", set(), doc_pair.target.sentences[:1]
        ),
        0,
    )
    with pytest.raises(AlignmentError):
        doc_loss_and_grads(
            lopsided, noise_docs, bundle, CompositionKind.ADD, margin, True,
            ("a", "b"), sentence_noise,
        )
    with pytest.raises(ContractError):
        doc_loss_and_grads(
            doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, True, ("a", "b"), None
        )
    with pytest.raises(ContractError):
        doc_loss_and_grads(
            doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, True,
            ("a", "b"), sentence_noise[:1],
        )
    # combine off ignores sentence noise entirely
    breakdown, _ = doc_loss_and_grads(
        lopsided, noise_docs, bundle, CompositionKind.ADD, margin, False, ("a", "b")
    )
    assert breakdown.hinge_total >= 0.0


def test_combine_adds_sentence_terms():
    rng = np.random.default_rng(31)
    bundle, doc_pair, noise_docs, sentence_noise, margin = random_doc_instance(
        rng, CompositionKind.ADD
    )
    doc_only, _ = doc_loss_and_grads(
        doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, False, ("a", "b")
    )
    combined, _ = doc_loss_and_grads(
        doc_pair, noise_docs, bundle, CompositionKind.ADD, margin, True, ("a", "b"), sentence_noise
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
# one whole minibatch against the reference model

# pairs 0-2 of a 5-pair corpus; noise repeats picks and names other pairs'
# aligned targets, never a pair's own
BATCH = np.array([0, 1, 2])
BATCH_NOISE = np.array([[1, 1, 3, 2], [0, 4, 4, 2], [3, 0, 1, 1]])
# target sentence j of document i is flat sentence 2i + j; one row per
# aligned sentence position of the batch, never naming that position
SENTENCE_NOISE = np.array([[1, 1, 2], [0, 3, 3], [3, 9, 0], [2, 2, 4], [5, 1, 5], [4, 0, 8]])


def _ids(sentences):
    return [list(s.ids) for s in sentences]


def _batch_instance(rng, kind, docs, max_tries=200):
    """(bundle, source items, target items, margin, hinge values), kink-guarded.

    Every hinge sits at least 1e-3 from its kink, and some are active and
    some not. Vocabularies of 4 and 5 words make the pairs share words; an
    item is a sentence, or a two-sentence document.
    """

    def item(lang, v, i):
        if not docs:
            return rand_sentence(rng, v, 3)
        sents = [rand_sentence(rng, v, 3) for _ in range(2)]
        return LabeledDocument(f"{lang}{i}", lang, set(), sents)

    for _ in range(max_tries):
        bundle = make_bundle({"a": 4, "b": 5}, 3, int(rng.integers(1 << 30)), kind)
        src = [item("a", 4, i) for i in range(5)]
        tgt = [item("b", 5, i) for i in range(5)]
        margin = float(rng.uniform(0.5, 3.0))
        hs = np.concatenate([_batch_hinges(bundle, src, tgt, margin, kind, docs, b) for b in BATCH])
        if np.abs(hs).min() > 1e-3 and (hs > 0).any() and (hs < 0).any():
            return bundle, src, tgt, margin, hs
    raise AssertionError("could not draw a kink-free batch instance")


def _batch_hinges(bundle, src, tgt, margin, kind, docs, b):
    noise = [tgt[n] for n in BATCH_NOISE[b]]
    if not docs:
        return pair_hinges(bundle, ParallelPair(src[b], tgt[b], b), noise, margin, kind)
    pool = [s for d in tgt for s in d.sentences]
    sentence_noise = [[pool[n] for n in row] for row in SENTENCE_NOISE[2 * b : 2 * b + 2]]
    return doc_hinges(bundle, DocumentPair(src[b], tgt[b], b), noise, sentence_noise, margin, kind)


def _reference_total(bundle, src, tgt, margin, kind, docs) -> float:
    emb_a, emb_b = bundle.table("a").matrix, bundle.table("b").matrix
    total = 0.0
    for b in BATCH:
        noise = [tgt[n] for n in BATCH_NOISE[b]]
        if not docs:
            total += ref.pair_loss(
                emb_a, emb_b, list(src[b].ids), list(tgt[b].ids), _ids(noise), margin, kind.value
            )[0]
            continue
        total += ref.doc_loss(
            emb_a, emb_b, _ids(src[b].sentences), _ids(tgt[b].sentences),
            [_ids(d.sentences) for d in noise], margin, kind.value,
        )
        pool = [s for d in tgt for s in d.sentences]
        for j, (s_src, s_tgt) in enumerate(zip(src[b].sentences, tgt[b].sentences)):
            total += ref.pair_loss(
                emb_a, emb_b, list(s_src.ids), list(s_tgt.ids),
                _ids(pool[n] for n in SENTENCE_NOISE[2 * b + j]), margin, kind.value,
            )[0]
    return total


@pytest.mark.parametrize("docs", [False, True], ids=["sentences", "documents"])
@pytest.mark.parametrize("kind", KINDS)
def test_batch_matches_reference_model(kind, docs):
    rng = np.random.default_rng(404)
    for _ in range(3):
        bundle, src, tgt, margin, hs = _batch_instance(rng, kind, docs)
        if docs:
            packed = (
                pack_documents([d.sentences for d in src]),
                pack_documents([d.sentences for d in tgt]),
            )
        else:
            packed = pack_sentences(src), pack_sentences(tgt)
        breakdown, grads = batch_loss_and_grads(
            *packed, BATCH, BATCH_NOISE, bundle, kind, margin, ("a", "b"),
            SENTENCE_NOISE if docs else None,
        )
        want = _reference_total(bundle, src, tgt, margin, kind, docs)
        assert breakdown.hinge_total == pytest.approx(want, rel=1e-12)
        assert breakdown.active_noise_count == int((hs > 0).sum())
        analytic = {lang: np.zeros_like(bundle.table(lang).matrix) for lang in bundle.languages}
        for lang, (ids, rows) in grads.items():
            analytic[lang][ids] = rows
        numeric = numerical_grads(
            lambda: _reference_total(bundle, src, tgt, margin, kind, docs), bundle
        )
        assert max_rel_err(analytic, numeric) < 1e-6
