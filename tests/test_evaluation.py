import ctypes
import os
import re
import types
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_model as ref
from jointvec import evaluation, native
from jointvec.composition import CompositionKind
from jointvec.corpus import LabeledDocument, Sentence
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary, derive_seed
from jointvec.errors import ContractError, UserError
from jointvec.evaluation import (
    EvalReport,
    EvalRow,
    PerceptronModel,
    TSV_HEADER,
    _ROWS_PER_CALL,
    _averaged_perceptrons,
    cldc_run,
    macro_f1,
    micro_f1,
    represent_documents,
    resolve_task,
    select_top_labels,
    train_multiclass,
    train_multilabel,
    transfer_matrix,
)

ADD = CompositionKind.ADD


# ---------------------------------------------------------------------------
# document representations

def _two_word_table():
    vocab = Vocabulary(["u", "v"])
    table = EmbeddingTable("x", np.array([[1.0, 1.0], [3.0, 3.0]]))
    return vocab, table


def test_represent_documents_hand_values():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", {"l"}, [Sentence((0,)), Sentence((1,))])
    avg = represent_documents([doc], table, ADD, "sentence-average")
    assert np.array_equal(avg, [[2.0, 2.0]])
    assert avg.dtype == np.float64
    cvm = represent_documents([doc], table, ADD, "doc-cvm")
    assert np.array_equal(cvm, [[4.0, 4.0]])


def test_represent_documents_single_sentence_modes_agree():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", set(), [Sentence((0, 1))])
    avg = represent_documents([doc], table, ADD, "sentence-average")[0]
    cvm = represent_documents([doc], table, ADD, "doc-cvm")[0]
    assert np.array_equal(avg, cvm)


def test_represent_documents_errors():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", set(), [Sentence((0,))])
    with pytest.raises(UserError, match="unknown representation level 'paragraph'"):
        represent_documents([doc], table, ADD, "paragraph")
    with pytest.raises(UserError, match="document 'e' has no representable sentence"):
        represent_documents([LabeledDocument("e", "x", set(), [])], table, ADD)


def test_sentence_average_order_invariant_bi_doc_cvm_not():
    rng = np.random.default_rng(4)
    table = EmbeddingTable("x", rng.normal(size=(6, 3)))
    sents = [Sentence((0, 1)), Sentence((2, 3)), Sentence((4, 5))]
    fwd = LabeledDocument("d", "x", set(), sents)
    rev = LabeledDocument("d", "x", set(), sents[::-1])
    assert np.allclose(
        represent_documents([fwd], table, CompositionKind.BI, "sentence-average")[0],
        represent_documents([rev], table, CompositionKind.BI, "sentence-average")[0],
        atol=1e-12,
    )
    assert not np.allclose(
        represent_documents([fwd], table, CompositionKind.BI, "doc-cvm")[0],
        represent_documents([rev], table, CompositionKind.BI, "doc-cvm")[0],
    )


def _loop_representation(doc, table, kind, level):
    """Reference: one document at a time, each sum in row order (x.sum(axis=0))."""

    def compose_rows(x):
        if kind is CompositionKind.BI:
            x = np.tanh(x + np.vstack([np.zeros((1, x.shape[1])), x[:-1]]))
        return x.sum(axis=0)

    sent_vectors = np.stack([compose_rows(table.matrix[list(s.ids)]) for s in doc.sentences])
    if level == "sentence-average":
        return sent_vectors.mean(axis=0)
    return compose_rows(sent_vectors)


def _random_documents(rng, n_docs, vocab_size, lang="x"):
    """Documents of 1-12 sentences of 1-15 tokens, so segments pass the 8 rows where numpy's
    pairwise sums start."""
    return [
        LabeledDocument(
            f"{lang}-{i}", lang, {f"t{i % 3}"},
            [
                Sentence(tuple(int(t) for t in rng.integers(0, vocab_size, rng.integers(1, 16))))
                for _ in range(rng.integers(1, 13))
            ],
        )
        for i in range(n_docs)
    ]


@pytest.mark.parametrize("kind", list(CompositionKind))
@pytest.mark.parametrize("level", ["sentence-average", "doc-cvm"])
def test_represent_documents_row_does_not_depend_on_other_documents(kind, level):
    rng = np.random.default_rng(13)
    table = EmbeddingTable("x", rng.normal(size=(40, 16)))
    docs = _random_documents(rng, 60, 40)
    together = represent_documents(docs, table, kind, level)
    assert together.shape == (len(docs), 16)
    for doc, vec in zip(docs, together):
        alone = represent_documents([doc], table, kind, level)[0]
        assert np.array_equal(alone, vec)
    reversed_rows = represent_documents(docs[::-1], table, kind, level)[::-1]
    for a, b in zip(together, reversed_rows):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", list(CompositionKind))
@pytest.mark.parametrize("level", ["sentence-average", "doc-cvm"])
def test_represent_documents_matches_per_sentence_loop(kind, level):
    rng = np.random.default_rng(17)
    table = EmbeddingTable("x", rng.normal(size=(40, 16)))
    docs = _random_documents(rng, 60, 40)
    for doc, vec in zip(docs, represent_documents(docs, table, kind, level)):
        want = _loop_representation(doc, table, kind, level)
        assert np.array_equal(vec, want)


@pytest.mark.parametrize("kind", list(CompositionKind))
@pytest.mark.parametrize("level", ["sentence-average", "doc-cvm"])
def test_represent_documents_matches_per_sentence_loop_across_blocks(kind, level):
    # ADD cuts its blocks by sentences, BI by tokens: both pass several blocks here
    rng = np.random.default_rng(19)
    table = EmbeddingTable("x", rng.normal(size=(300, 16)))
    docs = _random_documents(rng, 450, 300)
    assert sum(len(doc.sentences) for doc in docs) > 2 * _ROWS_PER_CALL
    vecs = represent_documents(docs, table, kind, level)
    for doc, vec in zip(docs, vecs, strict=True):
        assert np.array_equal(vec, _loop_representation(doc, table, kind, level))


def test_represent_documents_names_first_faulty_document():
    _, table = _two_word_table()
    good = LabeledDocument("ok", "x", set(), [Sentence((0,))])
    empty = [LabeledDocument(name, "x", set(), []) for name in ("e1", "e2")]
    with pytest.raises(UserError, match="document 'e1' has no representable sentence"):
        represent_documents([good, empty[0], good, empty[1]], table, ADD)
    table.matrix[1, 0] = np.inf
    docs = [
        LabeledDocument("finite", "x", set(), [Sentence((0,))]),
        LabeledDocument("inf1", "x", set(), [Sentence((0,)), Sentence((0, 1))]),
        LabeledDocument("inf2", "x", set(), [Sentence((1,))]),
    ]
    for level in ("sentence-average", "doc-cvm"):
        with pytest.raises(UserError, match="'inf1' produced non-finite"):
            represent_documents(docs, table, ADD, level)
    assert represent_documents([], table, ADD).shape == (0, 2)


# ---------------------------------------------------------------------------
# averaged perceptron

def test_multiclass_hand_trace_two_examples_one_epoch():
    # seed 0 visits the examples in given order; the trace below is manual
    assert list(np.random.default_rng(0).permutation(2)) == [0, 1]
    model = train_multiclass(np.array([[1.0, 0.0], [0.0, 1.0]]), [1, 0], epochs=1, seed=0)
    # e0 x=(1,0,1) y=1: scores 0, pred 0, update -> w = [[-1,0,-1],[1,0,1]]
    # e1 x=(0,1,1) y=0: scores (-1, 1), pred 1, update -> w = [[-1,1,0],[1,-1,0]]
    assert model.updates == 2
    assert np.array_equal(model.weights, [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    want_avg = (np.array([[-1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])
                + np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])) / 2.0
    assert np.array_equal(model.averaged, want_avg)


def test_multiclass_separable_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(8)
    xs, ys = [], []
    for c in range(4):
        center = np.zeros(4)
        center[c] = 5.0
        for _ in range(10):
            xs.append(center + rng.normal(scale=0.1, size=4))
            ys.append(c)
    model = train_multiclass(np.array(xs), ys, epochs=10, seed=0)
    assert all(model.predict(np.array(xs)) == ys)


def test_multiclass_tie_breaks_to_lowest_class():
    model = PerceptronModel(np.zeros((3, 3)), np.zeros((3, 3)), 0)
    assert model.predict(np.array([[1.0, -2.0]]))[0] == 0


def test_multiclass_prediction_invariant_to_positive_scaling():
    rng = np.random.default_rng(9)
    xs, ys = [], []
    for _ in range(30):
        xs.append(rng.normal(size=3))
        ys.append(int(rng.integers(0, 3)))
    model = train_multiclass(np.array(xs), ys, epochs=3, seed=1)
    scaled = PerceptronModel(model.weights, 7.25 * model.averaged, model.updates)
    probes = rng.normal(size=(50, 3))
    assert list(model.predict(probes)) == list(scaled.predict(probes))


def test_multiclass_degenerate_inputs():
    with pytest.raises(UserError, match="no training examples"):
        train_multiclass(np.empty((0, 1)), [])
    with pytest.raises(UserError, match=re.escape("need at least 2 classes, got [0]")):
        train_multiclass(np.array([[1.0], [2.0]]), [0, 0])


FEATURES = st.sampled_from(["gaussian", "ternary", "two-scale"])


def _features(rng, n, d, kind):
    """An (n, d) feature matrix for the perceptron oracles.

    Gaussian; or in {-1, 0, 1}, so that exact score ties occur; or that
    with some columns scaled by 2**30: their products cancel exactly, and
    what is left of the small ones depends on the order of the adds, so a
    score that rounds unlike the reference's flips decisions.
    """
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    xs = rng.integers(-1, 2, size=(n, d)).astype(float)
    return xs if kind == "ternary" else xs * 2.0 ** (30 * rng.integers(0, 2, size=d))


@given(n=st.integers(2, 40), d=st.integers(1, 12), n_classes=st.integers(2, 6),
       epochs=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), features=FEATURES,
       separable=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_train_multiclass_matches_reference_perceptron(n, d, n_classes, epochs, seed, features,
                                                        separable, data_seed):
    """Averaged weights equal the reference perceptron's bit for bit.

    Labels are random, or the argmax of a drawn linear map: separable
    labels make runs without a mistake that span several scored blocks and
    cross epochs.
    """
    rng = np.random.default_rng(data_seed)
    xs = _features(rng, n, d, features)
    if separable:
        ys = np.argmax(xs @ rng.normal(size=(d, n_classes)), axis=1)
        assume(len(np.unique(ys)) > 1)
    else:
        ys = rng.permutation(np.r_[0, 1, rng.integers(0, n_classes, size=n - 2)])
    model = train_multiclass(xs, ys, epochs, seed)
    want = ref.train_perceptron(xs, ys, int(ys.max()) + 1, epochs, seed)
    assert np.array_equal(model.averaged, want)


def _per_row_multiclass(averaged, xs):
    return [int(np.argmax(averaged @ np.append(x, 1.0))) for x in xs]


def _per_row_binary(averaged, xs):
    return [float(averaged @ np.append(x, 1.0)) > 0.0 for x in xs]


@pytest.mark.parametrize("d", [2, 16, 128])
def test_batched_predict_matches_per_row_products(d):
    rng = np.random.default_rng(d)
    random_xs = rng.normal(size=(200, d))
    random_w = rng.normal(size=(5, d + 1))
    # integer rows and weights: classes 0-2 and 3-5 score exactly alike
    tie_xs = rng.integers(-2, 3, size=(200, d)).astype(float)
    tie_w = np.repeat(rng.integers(-1, 2, size=(2, d + 1)).astype(float), 3, axis=0)
    # rows whose score is 0 in exact arithmetic, so its sign is the rounding
    # of the sum: any other summation order flips some predictions
    half = rng.normal(size=(200, d // 2)) * 10.0 ** rng.uniform(-3, 3, size=(200, d // 2))
    cancel_xs = np.hstack([half, half[:, rng.permutation(d // 2)]])
    cancel_w = np.vstack([np.r_[np.ones(d // 2), -np.ones(d // 2), 0.0], np.zeros(d + 1)])
    for xs, averaged in ((random_xs, random_w), (tie_xs, tie_w), (cancel_xs, cancel_w)):
        multi = PerceptronModel(np.zeros_like(averaged), averaged, 0).predict(xs)
        assert multi.tolist() == _per_row_multiclass(averaged, xs)
        for w in averaged:
            binary = PerceptronModel(w, w, 0).predict(xs)
            assert binary.tolist() == _per_row_binary(w, xs)
    # every tie row scores classes 0-2 alike and 3-5 alike: the lowest id wins
    assert set(PerceptronModel(tie_w, tie_w, 0).predict(tie_xs)) <= {0, 3}


def _one_vs_rest_loop(xs, ys, epochs, seed):
    """One label's averaged perceptron, scoring one example at a time."""
    xs = np.column_stack([xs, np.ones(len(xs))])
    w = np.zeros(xs.shape[1])
    acc = np.zeros_like(w)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(xs)):
            x, y = xs[i], ys[i]
            if (float(w @ x) > 0.0) != y:
                w += x if y else -x
            acc += w
    return acc / (epochs * len(xs))


@given(n=st.integers(1, 60), d=st.integers(1, 12), n_labels=st.integers(1, 4),
       epochs=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), features=FEATURES,
       separable=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_train_multilabel_matches_per_example_loop(n, d, n_labels, epochs, seed, features,
                                                    separable, data_seed):
    """Each label's averaged weights equal a loop over single examples, bit for bit.

    A label is random, or the sign of a drawn linear map, so that runs
    without a mistake span several scored blocks and cross epochs.
    """
    rng = np.random.default_rng(data_seed)
    xs = _features(rng, n, d, features)
    if separable:
        member = xs @ rng.normal(size=(d, n_labels)) > 0.0
    else:
        member = rng.random((n, n_labels)) < 0.5
    labels = [f"l{j}" for j in range(n_labels)]
    label_sets = [{lab for lab, m in zip(labels, row) if m} for row in member]
    models = train_multilabel(xs, label_sets, set(labels), epochs, seed)
    for li, label in enumerate(labels):
        want = _one_vs_rest_loop(xs, member[:, li], epochs, derive_seed(seed, li))
        assert np.array_equal(models[label].averaged, want)


def _per_example_state(xs, ys, w, epochs, seed):
    """The final weights and update count of a loop that scores one example at a
    time from the zero weights `w`: (C, d+1) multiclass, or (d+1,) one-vs-rest."""
    xs = np.column_stack([xs, np.ones(len(xs))])
    updates = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(xs)):
            x, y = xs[i], ys[i]
            if w.ndim == 2:
                c = int(np.argmax(w @ x))
                if c != y:
                    w[y] += x
                    w[c] -= x
                    updates += 1
            elif (float(w @ x) > 0.0) != y:
                w += x if y else -x
                updates += 1
    return w, updates


@given(shapes=st.lists(st.tuples(st.integers(1, 30), st.integers(2, 6)), min_size=1, max_size=6),
       one_vs_rest=st.booleans(), d=st.integers(1, 8), epochs=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1), features=FEATURES, data_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_shared_snapshot_sum_matches_per_classifier_loops(shapes, one_vs_rest, d, epochs, seed,
                                                          features, data_seed):
    """Classifiers trained in one call keep the bits of each trained alone, one example at a time.

    Each (examples, classes) shape is one problem. Unequal example counts
    make the classifiers still visiting fewer mid-run; unequal class
    counts leave padded class rows in the stacked weights.
    """
    rng = np.random.default_rng(data_seed)
    problems = []
    for r, (n, n_classes) in enumerate(shapes):
        xs = _features(rng, n, d, features)
        if one_vs_rest:
            ys, w = rng.random(n) < 0.5, np.zeros(d + 1)
        else:
            ys, w = rng.integers(0, n_classes, size=n), np.zeros((n_classes, d + 1))
        problems.append((np.column_stack([xs, np.ones(n)]), ys, w, derive_seed(seed, r)))
    models = _averaged_perceptrons(problems, epochs)
    assert len(models) == len(problems)
    for (xs, ys, w, problem_seed), model in zip(problems, models):
        xs = xs[:, :-1]
        if one_vs_rest:
            want = _one_vs_rest_loop(xs, ys, epochs, problem_seed)
        else:
            want = ref.train_perceptron(xs, ys, len(w), epochs, problem_seed)
        weights, updates = _per_example_state(xs, ys, np.zeros_like(w), epochs, problem_seed)
        assert np.array_equal(model.averaged, want)
        assert np.array_equal(model.weights, weights)
        assert model.updates == updates


@pytest.mark.parametrize("one_vs_rest, data_seed", [(False, 0), (True, 1)])
def test_walk_scores_nothing_after_a_clean_epoch(monkeypatch, one_vs_rest, data_seed):
    """A walk makes no `_predict` call after its first epoch without an update,
    and one that still updates in its last epoch scores through all of them.

    The replay keeps the bits whether or not a walk stops, so only the
    count of scoring calls shows the stop. A walk cut after its first
    clean epoch must make the calls, and log the updates, of the full one.
    """
    calls = []
    predict = evaluation._predict

    def counted(w, xs):
        calls.append(len(xs))
        return predict(w, xs)

    monkeypatch.setattr(evaluation, "_predict", counted)

    def walk(ys, epochs):
        calls.clear()
        w = np.zeros(xs.shape[1]) if one_vs_rest else np.zeros((3, xs.shape[1]))
        log = evaluation._walk(xs, ys, w, epochs, 1)
        return log, len(calls)

    n, d = 60, 6
    rng = np.random.default_rng(data_seed)
    xs = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
    if one_vs_rest:
        separable, noisy = xs @ rng.normal(size=d + 1) > 0.0, rng.random(n) < 0.5
    else:
        separable = np.argmax(xs @ rng.normal(size=(d + 1, 3)), axis=1)
        noisy = rng.integers(0, 3, size=n)

    log, scored = walk(separable, 10)
    updating = {t // n for t, *_ in log}
    clean = min(set(range(10)) - updating)
    assert 1 < clean < 9 and updating == set(range(clean))
    assert (log, scored) == walk(separable, clean + 1)

    log, scored = walk(noisy, 10)
    assert log[-1][0] >= 9 * n  # an update in the last epoch
    assert scored > walk(noisy, 9)[1]


def test_multilabel_models_are_label_independent():
    rng = np.random.default_rng(10)
    xs, label_sets = [], []
    for i in range(12):
        labels = {"p"} if i % 2 else {"q"}
        xs.append(rng.normal(size=3))
        label_sets.append(labels)
    xs = np.array(xs)
    both = train_multilabel(xs, label_sets, {"p", "q"}, epochs=5, seed=3)
    only_p = train_multilabel(xs, label_sets, {"p"}, epochs=5, seed=3)
    assert np.array_equal(both["p"].averaged, only_p["p"].averaged)

    flipped = [labels | {"q"} for labels in label_sets]
    both2 = train_multilabel(xs, flipped, {"p", "q"}, epochs=5, seed=3)
    assert np.array_equal(both["p"].averaged, both2["p"].averaged)
    assert not np.array_equal(both["q"].averaged, both2["q"].averaged)


def test_multilabel_label_without_positives_keeps_zero_weights():
    xs = np.array([[1.0, 0.0]] * 4)
    label_sets = [{"seen"}] * 4
    models = train_multilabel(xs, label_sets, {"seen", "ghost"}, epochs=3, seed=0)
    assert np.all(models["ghost"].averaged == 0.0)
    assert not models["ghost"].predict(np.array([[100.0, 100.0]]))[0]
    with pytest.raises(UserError, match="empty label universe"):
        train_multilabel(xs, label_sets, set(), epochs=3, seed=0)
    with pytest.raises(UserError, match="no training examples"):
        train_multilabel(np.empty((0, 2)), [], {"seen"}, epochs=3, seed=0)


def test_multilabel_separable_training_micro_f1():
    rng = np.random.default_rng(11)
    xs, label_sets = [], []
    for i in range(20):
        positive = i % 2 == 0
        vec = np.array([3.0, 0.0]) if positive else np.array([-3.0, 0.0])
        labels = {"on"} if positive else set()
        xs.append(vec + rng.normal(scale=0.05, size=2))
        label_sets.append(labels)
    xs = np.array(xs)
    models = train_multilabel(xs, label_sets, {"on"}, epochs=10, seed=0)
    positive = {l: m.predict(xs) for l, m in models.items()}
    preds = [{l for l, pos in positive.items() if pos[i]} for i in range(len(xs))]
    assert micro_f1(preds, label_sets) == 1.0


# ---------------------------------------------------------------------------
# metrics

def test_micro_f1_fixtures():
    assert micro_f1([{"a"}], [{"a"}]) == 1.0
    assert micro_f1([set()], [{"a"}]) == 0.0
    assert micro_f1([{"a", "b"}], [{"a", "c"}]) == 0.5  # TP=1, FP=1, FN=1
    with pytest.raises(ContractError):
        micro_f1([{"a"}], [])


def test_micro_f1_permutation_invariant():
    preds = [{"a"}, {"b"}, set(), {"a", "b"}]
    gold = [{"a"}, {"a"}, {"b"}, {"b"}]
    base = micro_f1(preds, gold)
    order = [2, 0, 3, 1]
    assert micro_f1([preds[i] for i in order], [gold[i] for i in order]) == base


def test_macro_f1_hand_value():
    # label a scores 1.0, label b scores 0.0
    assert macro_f1([{"a", "b"}], [{"a"}], {"a", "b"}) == pytest.approx(0.5)
    with pytest.raises(ContractError):
        macro_f1([{"a"}], [], {"a"})
    with pytest.raises(ContractError):
        macro_f1([{"a"}], [{"a"}], set())


def test_eval_report_serialization(tmp_path):
    report = EvalReport(
        [
            EvalRow("en", "de", "accuracy", 0.5, 10),
            EvalRow("en", "de", "majority_baseline", 0.25, 10),
            EvalRow("en", "de", "micro_f1", 1 / 3, 10),
        ]
    )
    text = report.to_tsv()
    lines = text.splitlines()
    assert lines[0] == TSV_HEADER == "train_lang\ttest_lang\tmetric\tvalue\tsupport"
    assert lines[1] == "en\tde\taccuracy\t0.500000\t10"
    assert lines[3] == "en\tde\tmicro_f1\t0.333333\t10"
    head = report.headline()
    assert [r.metric for r in head.rows] == ["accuracy", "micro_f1"]
    path = tmp_path / "r.tsv"
    report.write(path)
    assert path.read_text(encoding="utf-8") == text


# ---------------------------------------------------------------------------
# cldc / transfer

def _topic_bundle(langs):
    """Per language: 8 words, two per topic, vectors 5 * e_topic + jitter."""
    vocabs = {}
    tables = {}
    for lang in langs:
        vocabs[lang] = Vocabulary(f"{lang}w{i}" for i in range(8))
        mat = np.zeros((8, 4))
        for i in range(8):
            mat[i, i // 2] = 5.0
            mat[i, (i + 1) % 4] += 0.01 * (i + 1)
        tables[lang] = EmbeddingTable(lang, mat)
    return ModelBundle(vocabs, tables, ADD)


def _topic_docs(lang, n_per_class=4, labels_fn=None):
    docs = []
    for c in range(4):
        for j in range(n_per_class):
            labels = labels_fn(c) if labels_fn else {f"t{c}"}
            docs.append(
                LabeledDocument(
                    f"{lang}-{c}-{j}", lang, labels,
                    [Sentence((2 * c,)), Sentence((2 * c + 1,))],
                )
            )
    return docs


def test_evaluation_alone_pins_the_malloc_thresholds(monkeypatch):
    """A process that only evaluates composes documents with glibc's thresholds pinned, as
    training does: M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    pinned = native.keep_freed_pages.cache_info().currsize
    native.keep_freed_pages.cache_clear()  # as in a process that has not trained
    try:
        transfer_matrix(["a", "b"], {l: _topic_docs(l) for l in "ab"}, _topic_bundle("ab"))
    finally:
        if not pinned:  # so that the next call in this process pins for real
            native.keep_freed_pages.cache_clear()
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def test_cldc_identity_run_is_perfect():
    bundle = _topic_bundle(["x"])
    docs = _topic_docs("x")
    report = cldc_run("x", docs, "x", docs, bundle, seed=0)
    by_metric = {r.metric: r for r in report.rows}
    assert by_metric["accuracy"].value == 1.0
    assert by_metric["accuracy"].support == len(docs)
    assert by_metric["majority_baseline"].value == pytest.approx(0.25)
    assert by_metric["accuracy"].train_lang == "x"


def test_cldc_cross_lingual_run():
    bundle = _topic_bundle(["x", "y"])
    report = cldc_run("x", _topic_docs("x"), "y", _topic_docs("y"), bundle, seed=0)
    assert {r.metric for r in report.rows} == {"accuracy", "majority_baseline"}
    assert report.rows[0].value == 1.0


def test_cldc_majority_tie_breaks_lexicographically():
    bundle = _topic_bundle(["x"])
    train = _topic_docs("x", n_per_class=2)  # all four labels equally frequent
    report = cldc_run("x", train, "x", train, bundle, seed=0)
    base = [r for r in report.rows if r.metric == "majority_baseline"][0]
    assert base.value == pytest.approx(0.25)  # predicting "t0" everywhere


def test_cldc_multilabel_rows_and_top_labels():
    bundle = _topic_bundle(["x"])
    docs = _topic_docs("x", labels_fn=lambda c: {f"t{c}", "common"})
    report = cldc_run("x", docs, "x", docs, bundle, seed=0, top_labels=2)
    metrics = [r.metric for r in report.rows]
    assert metrics == ["micro_f1", "macro_f1", "majority_baseline"]
    # top-2 by document frequency: "common" (16 docs) and "t0" (lexicographic tie-break)
    assert report.rows[0].value > 0.5
    # the baseline predicts {"common"}: all 16 of its gold labels, none of t0's 4
    assert report.rows[2].value == pytest.approx(2 * 1.0 * 0.8 / 1.8)
    # "a" and "b" tie at 8 documents each; the universe and the baseline both take "a"
    tied = _topic_docs("x", labels_fn=lambda c: [{"a", "b"}, {"a"}, {"b"}, {"c"}][c])
    report = cldc_run("x", tied, "x", tied, bundle, seed=0, top_labels=1)
    gold = [doc.labels & {"a"} for doc in tied]
    assert report.rows[2].metric == "majority_baseline"
    assert report.rows[2].value == micro_f1([{"a"}] * len(tied), gold) == pytest.approx(2 / 3)


def _docs_with_labels(label_lists):
    return [
        LabeledDocument(f"d{i}", "en", set(labs), [Sentence((0,))])
        for i, labs in enumerate(label_lists)
    ]


def test_select_top_labels_frequency_then_lexicographic():
    docs = _docs_with_labels([["a"], ["a", "b"], ["a", "c"], ["b"]])
    assert select_top_labels(docs, 2) == {"a", "b"}
    tied = _docs_with_labels([["a", "b"], ["a", "b"]])
    assert select_top_labels(tied, 1) == {"a"}


def test_select_top_labels_underfull_warns():
    docs = _docs_with_labels([["a"]])
    with pytest.warns(UserWarning):
        assert select_top_labels(docs, 15) == {"a"}
    with pytest.raises(ValueError):
        select_top_labels(docs, 0)


def test_cldc_auto_task_detection():
    bundle = _topic_bundle(["x"])
    single = _topic_docs("x")
    multi = _topic_docs("x", labels_fn=lambda c: {f"t{c}", "extra"})
    assert {r.metric for r in cldc_run("x", single, "x", single, bundle).rows} == {
        "accuracy",
        "majority_baseline",
    }
    assert "micro_f1" in {r.metric for r in cldc_run("x", multi, "x", multi, bundle).rows}
    assert resolve_task("auto", single, single) == "single"
    assert resolve_task("auto", single, multi) == "multi"
    assert resolve_task("single", multi) == "single"
    forced = cldc_run("x", single, "x", single, bundle, task="multi")
    assert "micro_f1" in {r.metric for r in forced.rows}
    with pytest.raises(UserError, match="no documents supplied for 'x'"):
        cldc_run("x", [], "x", single, bundle)
    with pytest.raises(UserError, match="task must be auto, single, or multi, got 'triple'"):
        cldc_run("x", single, "x", single, bundle, task="triple")


def test_transfer_matrix_counts_and_order_independence():
    langs = ["x", "y", "z"]
    bundle = _topic_bundle(langs)
    docs = {lang: _topic_docs(lang) for lang in langs}
    report = transfer_matrix(langs, docs, bundle, seed=5)
    acc_rows = [r for r in report.rows if r.metric == "accuracy"]
    assert len(acc_rows) == 6
    assert {(r.train_lang, r.test_lang) for r in acc_rows} == {
        (a, b) for a in langs for b in langs if a != b
    }
    shuffled = transfer_matrix(["z", "x", "y"], docs, bundle, seed=5)
    key = lambda r: (r.train_lang, r.test_lang, r.metric)
    assert sorted(map(key, shuffled.rows)) == sorted(map(key, report.rows))
    assert [r.value for r in sorted(shuffled.rows, key=key)] == [
        r.value for r in sorted(report.rows, key=key)
    ]


def _random_docs(lang, n, rng, task):
    """n documents of two random sentences over `_topic_bundle`'s 8 words, with
    one random topic label each (single) or a random subset of the topics (multi)."""
    docs = []
    for i in range(n):
        if task == "single":
            labels = {f"t{rng.integers(4)}"}
        else:
            labels = {f"t{c}" for c in range(4) if rng.random() < 0.4}
        sentences = [Sentence(tuple(rng.integers(0, 8, size=rng.integers(1, 4)).tolist()))
                     for _ in range(2)]
        docs.append(LabeledDocument(f"{lang}{i}", lang, labels, sentences))
    return docs


@pytest.mark.parametrize("task", ["single", "multi"])
def test_transfer_matrix_pairs_equal_their_own_cldc_runs(task):
    """All pairs' classifiers train in one call, yet each pair's rows are those of
    its own run; unequal document counts make classifiers of unequal size."""
    langs = ["x", "y", "z"]
    bundle = _topic_bundle(langs)
    rng = np.random.default_rng(12)
    docs = {lang: _random_docs(lang, n, rng, task) for lang, n in zip(langs, (40, 55, 70))}
    report = transfer_matrix(langs, docs, bundle, task=task, seed=5)
    per_pair = 2 if task == "single" else 3
    assert len(report.rows) == 6 * per_pair
    for p, (i, j) in enumerate(permutations(range(3), 2)):
        want = cldc_run(langs[i], docs[langs[i]], langs[j], docs[langs[j]], bundle, task=task,
                        seed=derive_seed(5, i, j))
        assert report.rows[p * per_pair : (p + 1) * per_pair] == want.rows


def test_transfer_matrix_raises_the_first_faulty_pairs_error():
    """Pairs are checked in order: (x, z) tests on an unlabelled document before
    (y, x) would train on documents that all carry one label."""
    langs = ["x", "y", "z"]
    bundle = _topic_bundle(langs)
    docs = {"x": _topic_docs("x"), "y": _topic_docs("y", labels_fn=lambda c: {"only"}),
            "z": _topic_docs("z")}
    docs["z"][3] = LabeledDocument("z-none", "z", set(), docs["z"][3].sentences)
    message = "document 'z-none' in 'z' has no label to classify"
    with pytest.raises(UserError, match=f"^{re.escape(message)}$"):
        transfer_matrix(langs, docs, bundle, task="single")


def test_transfer_matrix_represents_each_language_once(monkeypatch):
    langs = ["x", "y", "z"]
    bundle = _topic_bundle(langs)
    docs = {lang: _topic_docs(lang) for lang in langs}
    want = transfer_matrix(langs, docs, bundle, seed=5).to_tsv()
    calls = []

    def spy(docs, table, kind, level):
        calls.append(table.language)
        return represent_documents(docs, table, kind, level)

    monkeypatch.setattr("jointvec.evaluation.represent_documents", spy)
    assert transfer_matrix(langs, docs, bundle, seed=5).to_tsv() == want
    assert sorted(calls) == langs


def test_transfer_matrix_repeated_or_empty_language_is_named():
    bundle = _topic_bundle(["x", "y"])
    docs = {"x": _topic_docs("x"), "y": _topic_docs("y")}
    with pytest.raises(UserError, match="language 'x' is listed more than once"):
        transfer_matrix(["x", "x"], docs, bundle)
    with pytest.raises(UserError, match="language 'y' is listed more than once"):
        transfer_matrix(["x", "y", "y"], docs, bundle)
    with pytest.raises(UserError, match=re.escape("no documents supplied for ['y']")):
        transfer_matrix(["x", "y"], {"x": docs["x"], "y": []}, bundle)
    with pytest.raises(UserError, match="no documents supplied for 'y'"):
        cldc_run("x", docs["x"], "y", [], bundle)


def test_transfer_matrix_validation(monkeypatch):
    bundle = _topic_bundle(["x", "y"])
    docs = {"x": _topic_docs("x"), "y": _topic_docs("y")}
    with pytest.raises(UserError, match="needs at least 2 languages"):
        transfer_matrix(["x"], docs, bundle)
    with pytest.raises(UserError, match=re.escape("no documents supplied for ['missing']")):
        transfer_matrix(["x", "missing"], docs, bundle)

    def no_representation(*args):
        raise AssertionError("a document was represented before the settings were checked")

    monkeypatch.setattr("jointvec.evaluation.represent_documents", no_representation)
    for name, bad in (("clf_epochs", 0), ("top_labels", 0), ("seed", -1)):
        with pytest.raises(UserError, match=name):
            transfer_matrix(["x", "y"], docs, bundle, **{name: bad})
        with pytest.raises(UserError, match=name):
            cldc_run("x", docs["x"], "y", docs["y"], bundle, **{name: bad})


@pytest.mark.parametrize("task", ["single", "auto"])
def test_top_labels_on_single_label_task_is_user_error(task, monkeypatch):
    bundle = _topic_bundle(["x", "y"])
    docs = {"x": _topic_docs("x"), "y": _topic_docs("y")}

    def no_representation(*args):
        raise AssertionError("a document was represented before the task was checked")

    monkeypatch.setattr("jointvec.evaluation.represent_documents", no_representation)
    for run in (lambda **kw: cldc_run("x", docs["x"], "y", docs["y"], bundle, **kw),
                lambda **kw: transfer_matrix(["x", "y"], docs, bundle, **kw)):
        with pytest.raises(UserError, match="top_labels applies to multi-label") as info:
            run(task=task, top_labels=1)
        assert info.value.setting == "top_labels"


def test_transfer_matrix_resolves_auto_task_once_over_all_languages():
    langs = ["x", "y", "z"]
    bundle = _topic_bundle(langs)
    docs = {lang: _topic_docs(lang) for lang in ("x", "y")}
    docs["z"] = _topic_docs("z", labels_fn=lambda c: {f"t{c}", "extra"})
    report = transfer_matrix(langs, docs, bundle, task="auto", seed=5)
    headline = {(r.train_lang, r.test_lang): r.metric for r in report.headline().rows}
    assert headline == {(a, b): "micro_f1" for a in langs for b in langs if a != b}
    forced = transfer_matrix(langs, docs, bundle, task="multi", seed=5)
    assert forced.to_tsv() == report.to_tsv()


def test_classify_errors_name_the_training_language():
    bundle = _topic_bundle(["x", "y"])
    one_label = _topic_docs("x", labels_fn=lambda c: {"only"})
    with pytest.raises(UserError, match="'x'.*'only'"):
        cldc_run("x", one_label, "y", _topic_docs("y"), bundle, task="single")
    unlabelled = _topic_docs("x", labels_fn=lambda c: set())
    with pytest.raises(UserError, match="training documents in 'x' carry no labels"):
        cldc_run("x", unlabelled, "y", _topic_docs("y"), bundle, task="multi")


def test_cldc_single_label_task_uses_each_documents_one_label():
    """Single-label documents take their smallest label; the majority baseline counts those."""
    bundle = _topic_bundle(["x", "y"])

    def docs(lang, label_sets):
        return [LabeledDocument(f"{lang}{i}", lang, labels, [Sentence((i,))])
                for i, labels in enumerate(label_sets)]

    train = docs("x", [{"a", "z"}, {"a", "z"}, {"z", "b"}, {"b"}])
    test = docs("y", [{"a"}, {"a", "y"}, {"b"}])
    report = cldc_run("x", train, "y", test, bundle, task="single", seed=0)
    base = {r.metric: r.value for r in report.rows}["majority_baseline"]
    assert base == pytest.approx(2 / 3)  # "a"; "z" is no document's single label
    unlabelled = docs("y", [{"a"}, set(), {"b"}])
    with pytest.raises(UserError, match="document 'y1' in 'y' has no label"):
        cldc_run("x", train, "y", unlabelled, bundle, task="single")
