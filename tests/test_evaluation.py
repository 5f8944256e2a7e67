import numpy as np
import pytest

from jointvec.composition import CompositionKind
from jointvec.corpus import LabeledDocument, Sentence
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary
from jointvec.errors import ConfigError, ContractError, RepresentationError
from jointvec.evaluation import (
    DocVector,
    EvalReport,
    EvalRow,
    PerceptronModel,
    TSV_HEADER,
    cldc_run,
    doc_representation,
    macro_f1,
    micro_f1,
    resolve_task,
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


def test_doc_representation_hand_values():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", {"l"}, [Sentence((0,)), Sentence((1,))])
    avg = doc_representation(doc, table, ADD, "sentence-average")
    assert np.array_equal(avg.vector, [2.0, 2.0])
    assert avg.doc_id == "d" and avg.labels == {"l"}
    cvm = doc_representation(doc, table, ADD, "doc-cvm")
    assert np.array_equal(cvm.vector, [4.0, 4.0])


def test_doc_representation_single_sentence_modes_agree():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", set(), [Sentence((0, 1))])
    avg = doc_representation(doc, table, ADD, "sentence-average").vector
    cvm = doc_representation(doc, table, ADD, "doc-cvm").vector
    assert np.array_equal(avg, cvm)


def test_doc_representation_errors():
    _, table = _two_word_table()
    doc = LabeledDocument("d", "x", set(), [Sentence((0,))])
    with pytest.raises(ConfigError):
        doc_representation(doc, table, ADD, "paragraph")
    with pytest.raises(RepresentationError):
        doc_representation(LabeledDocument("e", "x", set(), []), table, ADD)


def test_sentence_average_order_invariant_bi_doc_cvm_not():
    rng = np.random.default_rng(4)
    table = EmbeddingTable("x", rng.normal(size=(6, 3)))
    sents = [Sentence((0, 1)), Sentence((2, 3)), Sentence((4, 5))]
    fwd = LabeledDocument("d", "x", set(), sents)
    rev = LabeledDocument("d", "x", set(), sents[::-1])
    assert np.allclose(
        doc_representation(fwd, table, CompositionKind.BI, "sentence-average").vector,
        doc_representation(rev, table, CompositionKind.BI, "sentence-average").vector,
        atol=1e-12,
    )
    assert not np.allclose(
        doc_representation(fwd, table, CompositionKind.BI, "doc-cvm").vector,
        doc_representation(rev, table, CompositionKind.BI, "doc-cvm").vector,
    )


# ---------------------------------------------------------------------------
# averaged perceptron

def _dv(vec, labels=frozenset()):
    return DocVector(np.asarray(vec, dtype=float), "d", set(labels))


def test_multiclass_hand_trace_two_examples_one_epoch():
    # seed 0 visits the examples in given order; the trace below is manual
    assert list(np.random.default_rng(0).permutation(2)) == [0, 1]
    examples = [(_dv([1.0, 0.0]), 1), (_dv([0.0, 1.0]), 0)]
    model = train_multiclass(examples, epochs=1, seed=0)
    # e0 x=(1,0,1) y=1: scores 0, pred 0, update -> w = [[-1,0,-1],[1,0,1]]
    # e1 x=(0,1,1) y=0: scores (-1, 1), pred 1, update -> w = [[-1,1,0],[1,-1,0]]
    assert model.updates == 2
    assert np.array_equal(model.weights, [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    want_avg = (np.array([[-1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])
                + np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])) / 2.0
    assert np.array_equal(model.averaged, want_avg)


def test_multiclass_separable_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(8)
    examples = []
    for c in range(4):
        center = np.zeros(4)
        center[c] = 5.0
        for _ in range(10):
            examples.append((_dv(center + rng.normal(scale=0.1, size=4)), c))
    model = train_multiclass(examples, epochs=10, seed=0)
    assert all(model.predict(dv.vector) == c for dv, c in examples)


def test_multiclass_tie_breaks_to_lowest_class():
    model = PerceptronModel(np.zeros((3, 3)), np.zeros((3, 3)), 0)
    assert model.predict(np.array([1.0, -2.0])) == 0


def test_multiclass_prediction_invariant_to_positive_scaling():
    rng = np.random.default_rng(9)
    examples = [(_dv(rng.normal(size=3)), int(rng.integers(0, 3))) for _ in range(30)]
    model = train_multiclass(examples, epochs=3, seed=1)
    scaled = PerceptronModel(model.weights, 7.25 * model.averaged, model.updates)
    probes = rng.normal(size=(50, 3))
    assert [model.predict(x) for x in probes] == [scaled.predict(x) for x in probes]


def test_multiclass_degenerate_inputs():
    with pytest.raises(ConfigError):
        train_multiclass([])
    with pytest.raises(ConfigError):
        train_multiclass([(_dv([1.0]), 0), (_dv([2.0]), 0)])


def test_multilabel_models_are_label_independent():
    rng = np.random.default_rng(10)
    examples = []
    for i in range(12):
        labels = {"p"} if i % 2 else {"q"}
        examples.append((_dv(rng.normal(size=3), labels), labels))
    both = train_multilabel(examples, {"p", "q"}, epochs=5, seed=3)
    only_p = train_multilabel(examples, {"p"}, epochs=5, seed=3)
    assert np.array_equal(both["p"].averaged, only_p["p"].averaged)

    flipped = [(dv, labels | {"q"}) for dv, labels in examples]
    both2 = train_multilabel(flipped, {"p", "q"}, epochs=5, seed=3)
    assert np.array_equal(both["p"].averaged, both2["p"].averaged)
    assert not np.array_equal(both["q"].averaged, both2["q"].averaged)


def test_multilabel_no_positives_flag():
    examples = [(_dv([1.0, 0.0], {"seen"}), {"seen"}) for _ in range(4)]
    models = train_multilabel(examples, {"seen", "ghost"}, epochs=3, seed=0)
    assert not models["seen"].no_positives
    assert models["ghost"].no_positives
    assert np.all(models["ghost"].averaged == 0.0)
    assert not models["ghost"].predict(np.array([100.0, 100.0]))
    with pytest.raises(ConfigError):
        train_multilabel(examples, set(), epochs=3, seed=0)
    with pytest.raises(ConfigError):
        train_multilabel([], {"seen"}, epochs=3, seed=0)


def test_multilabel_separable_training_micro_f1():
    rng = np.random.default_rng(11)
    examples = []
    for i in range(20):
        positive = i % 2 == 0
        vec = np.array([3.0, 0.0]) if positive else np.array([-3.0, 0.0])
        labels = {"on"} if positive else set()
        examples.append((_dv(vec + rng.normal(scale=0.05, size=2), labels), labels))
    models = train_multilabel(examples, {"on"}, epochs=10, seed=0)
    preds = [{l for l, m in models.items() if m.predict(dv.vector)} for dv, _ in examples]
    assert micro_f1(preds, [labels for _, labels in examples]) == 1.0


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
    assert metrics == ["micro_f1", "macro_f1", "majority_baseline", "no_positive_labels_frac"]
    # top-2 by document frequency: "common" (16 docs) and "t0" (lexicographic tie-break)
    assert report.rows[0].value > 0.5
    assert report.rows[3].value == 0.0


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
    with pytest.raises(ConfigError):
        cldc_run("x", [], "x", single, bundle)
    with pytest.raises(ConfigError):
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


def test_transfer_matrix_validation(monkeypatch):
    bundle = _topic_bundle(["x", "y"])
    docs = {"x": _topic_docs("x"), "y": _topic_docs("y")}
    with pytest.raises(ConfigError):
        transfer_matrix(["x"], docs, bundle)
    with pytest.raises(ConfigError):
        transfer_matrix(["x", "missing"], docs, bundle)

    def no_representation(*args):
        raise AssertionError("a document was represented before the settings were checked")

    monkeypatch.setattr("jointvec.evaluation._doc_vectors", no_representation)
    for name, bad in (("clf_epochs", 0), ("top_labels", 0), ("seed", -1)):
        with pytest.raises(ConfigError, match=name):
            transfer_matrix(["x", "y"], docs, bundle, **{name: bad})
        with pytest.raises(ConfigError, match=name):
            cldc_run("x", docs["x"], "y", docs["y"], bundle, **{name: bad})
