import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model as ref
from jointvec.composition import CompositionKind
from jointvec.corpus import DocumentPair, LabeledDocument, ParallelPair, Sentence
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary
from jointvec.errors import AlignmentError, ContractError
from jointvec.objective import (
    LossBreakdown,
    doc_loss_and_grads,
    energy,
    hinge,
    merge_grads,
    pair_loss_and_grads,
)

from conftest import (
    densify_grads,
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


@given(
    st.floats(0.01, 10),
    st.floats(0, 100),
    st.floats(0, 100),
)
@settings(max_examples=200, deadline=None)
def test_hinge_matches_max_form(m, e_pos, e_neg):
    h = hinge(m, e_pos, e_neg)
    assert h >= 0.0
    assert h == max(m + e_pos - e_neg, 0.0)


def test_hinge_hand_values():
    assert hinge(1.0, 0.5, 2.0) == 0.0
    assert hinge(1.0, 0.5, 1.0) == 0.5
    assert hinge(1.0, 0.0, 0.0) == 1.0


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
    assert breakdown.regularizer == 0.0
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


def test_merge_grads_sums_and_copies():
    a = {("a", 0): np.array([1.0, 2.0])}
    source = np.array([3.0, 4.0])
    b = {("a", 0): np.array([10.0, 10.0]), ("b", 1): source}
    merge_grads(a, b)
    assert np.array_equal(a[("a", 0)], [11.0, 12.0])
    assert np.array_equal(a[("b", 1)], [3.0, 4.0])
    source += 1.0  # merged map must not alias the input
    assert np.array_equal(a[("b", 1)], [3.0, 4.0])


def test_loss_breakdown_accumulates():
    b = LossBreakdown()
    b.add(1.5)
    b.add(0.5)
    assert b.hinge_total == 2.0
    assert b.active_noise_count == 2
    assert b.regularizer == 0.0


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
