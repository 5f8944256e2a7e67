"""Cross-lingual document classification on top of trained embeddings.

Documents become vectors (sentence-average or the two-stage compositional
form), an averaged perceptron trains on one language's documents, and the
resulting classifier is scored on another language's documents with no
target-language supervision. Single-label tasks report accuracy,
multi-label tasks micro-F1 (macro-F1 emitted alongside); a majority-class
baseline row accompanies every run.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .composition import CompositionKind, compose
from .corpus import LabeledDocument, select_top_labels
from .embeddings import EmbeddingTable, ModelBundle, derive_seed
from .errors import ConfigError, ContractError, RepresentationError

LEVELS = ("sentence-average", "doc-cvm")


@dataclass
class DocVector:
    vector: np.ndarray
    doc_id: str
    labels: set


def doc_representation(
    doc: LabeledDocument,
    table: EmbeddingTable,
    kind: CompositionKind,
    level: str = "sentence-average",
) -> DocVector:
    """Map a document to one d-vector.

    sentence-average: mean of the per-sentence composed vectors; doc-cvm:
    the document-level composition over them. Loading already dropped
    out-of-vocabulary tokens, so an empty document means nothing here was
    representable.
    """
    if level not in LEVELS:
        raise ConfigError(f"unknown representation level {level!r}")
    if not doc.sentences:
        raise RepresentationError(f"document {doc.doc_id!r} has no representable sentence")
    sent_vectors = np.stack(
        [compose(table.matrix[list(s.ids)], kind).output for s in doc.sentences]
    )
    if level == "sentence-average":
        vec = sent_vectors.mean(axis=0)
    else:
        vec = compose(sent_vectors, kind).output
    if not np.isfinite(vec).all():
        raise RepresentationError(f"document {doc.doc_id!r} produced non-finite entries")
    return DocVector(vec, doc.doc_id, set(doc.labels))


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.append(x, 1.0)


@dataclass
class PerceptronModel:
    """Multiclass averaged perceptron: (C, d+1) weights, bias in the last column."""

    weights: np.ndarray
    averaged: np.ndarray
    updates: int

    def predict(self, x: np.ndarray) -> int:
        """Argmax over averaged scores; exact ties go to the lowest class id."""
        return int(np.argmax(self.averaged @ _with_bias(x)))


def train_multiclass(examples: list, epochs: int = 10, seed: int = 0) -> PerceptronModel:
    """Averaged perceptron over (DocVector, class id) pairs.

    Learning rate 1; on a mistake the true class gains the example and the
    predicted class loses it. The weight matrix is snapshotted after every
    example (updated or not) and the snapshot mean is what predicts.
    """
    if not examples:
        raise ConfigError("no training examples")
    classes = {c for _, c in examples}
    if len(classes) < 2:
        raise ConfigError(f"need at least 2 classes, got {sorted(classes)}")
    n_classes = max(classes) + 1
    d = len(examples[0][0].vector)
    xs = np.stack([_with_bias(dv.vector) for dv, _ in examples])
    ys = np.array([c for _, c in examples])

    w = np.zeros((n_classes, d + 1))
    acc = np.zeros_like(w)
    updates = 0
    snapshots = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(xs)):
            x, y = xs[i], ys[i]
            pred = int(np.argmax(w @ x))
            if pred != y:
                w[y] += x
                w[pred] -= x
                updates += 1
            acc += w
            snapshots += 1
    return PerceptronModel(w, acc / snapshots, updates)


@dataclass
class BinaryPerceptron:
    """One-vs-rest member: positive iff the averaged score is > 0."""

    averaged: np.ndarray
    updates: int
    no_positives: bool

    def predict(self, x: np.ndarray) -> bool:
        return float(self.averaged @ _with_bias(x)) > 0.0


def _train_binary(xs: np.ndarray, ys: np.ndarray, epochs: int, seed: int) -> BinaryPerceptron:
    w = np.zeros(xs.shape[1])
    acc = np.zeros_like(w)
    updates = 0
    snapshots = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(xs)):
            x, y = xs[i], ys[i]
            pred = float(w @ x) > 0.0
            if pred != y:
                w += x if y else -x
                updates += 1
            acc += w
            snapshots += 1
    return BinaryPerceptron(acc / snapshots, updates, not ys.any())


def train_multilabel(
    examples: list,
    label_universe: set,
    epochs: int = 10,
    seed: int = 0,
) -> dict:
    """One-vs-rest binary averaged perceptrons over (DocVector, label set) pairs.

    Labels train independently with per-label derived seeds. A label with no
    positive examples keeps zero weights (predicting always-negative) and is
    flagged via its model's no_positives field.
    """
    if not label_universe:
        raise ConfigError("empty label universe")
    if not examples:
        raise ConfigError("no training examples")
    xs = np.stack([_with_bias(dv.vector) for dv, _ in examples])
    models = {}
    for li, label in enumerate(sorted(label_universe)):
        ys = np.array([label in labels for _, labels in examples])
        models[label] = _train_binary(xs, ys, epochs, derive_seed(seed, li))
    return models


def _prf_counts(predictions: list, gold: list) -> tuple:
    if len(predictions) != len(gold):
        raise ContractError(f"{len(predictions)} predictions for {len(gold)} gold sets")
    tp = fp = fn = 0
    for pred, ref in zip(predictions, gold):
        tp += len(pred & ref)
        fp += len(pred - ref)
        fn += len(ref - pred)
    return tp, fp, fn


def _f1(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def micro_f1(predictions: list, gold: list) -> float:
    """F1 over (document, label) decisions pooled across the whole set."""
    return _f1(*_prf_counts(predictions, gold))


def macro_f1(predictions: list, gold: list, labels) -> float:
    """Unweighted mean of per-label F1 over `labels`."""
    if len(predictions) != len(gold):
        raise ContractError(f"{len(predictions)} predictions for {len(gold)} gold sets")
    scores = []
    for label in sorted(labels):
        tp, fp, fn = _prf_counts(
            [pred & {label} for pred in predictions], [ref & {label} for ref in gold]
        )
        scores.append(_f1(tp, fp, fn))
    if not scores:
        raise ContractError("macro_f1 needs at least one label")
    return float(np.mean(scores))


@dataclass
class EvalRow:
    train_lang: str
    test_lang: str
    metric: str
    value: float
    support: int


HEADLINE_METRICS = ("accuracy", "micro_f1")
TSV_HEADER = "train_lang\ttest_lang\tmetric\tvalue\tsupport"


@dataclass
class EvalReport:
    rows: list

    def headline(self) -> "EvalReport":
        return EvalReport([r for r in self.rows if r.metric in HEADLINE_METRICS])

    def to_tsv(self) -> str:
        lines = [TSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.train_lang}\t{r.test_lang}\t{r.metric}\t{r.value:.6f}\t{r.support}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_tsv())


def _doc_vectors(docs, table, kind, level):
    return [doc_representation(doc, table, kind, level) for doc in docs]


def _single_label(doc: LabeledDocument) -> str:
    return min(doc.labels)


def resolve_task(task: str, *doc_groups) -> str:
    """Resolve task "auto" over the given lists of documents.

    Auto is single-label iff every document carries exactly one label.
    """
    if task in ("single", "multi"):
        return task
    if task != "auto":
        raise ConfigError(f"task must be auto, single, or multi, got {task!r}")
    single = all(len(d.labels) == 1 for docs in doc_groups for d in docs)
    return "single" if single else "multi"


def _check_classifier_settings(clf_epochs: int, seed: int, top_labels) -> None:
    if clf_epochs < 1:
        raise ConfigError(f"clf_epochs (classifier epochs) must be >= 1, got {clf_epochs}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if top_labels is not None and top_labels < 1:
        raise ConfigError(f"top_labels must be >= 1, got {top_labels}")


def cldc_run(
    train_lang: str,
    train_docs: list,
    test_lang: str,
    test_docs: list,
    bundle: ModelBundle,
    level: str = "sentence-average",
    task: str = "auto",
    clf_epochs: int = 10,
    seed: int = 0,
    top_labels: int = None,
) -> EvalReport:
    """Train a classifier on one language's documents, score another's.

    With task="auto", documents that all carry exactly one label run as a
    single-label problem (accuracy); anything else runs one-vs-rest
    multi-label (micro-F1, with macro-F1 and the fraction of labels lacking
    positive examples reported alongside). The majority baseline predicts
    the most document-frequent training label everywhere.
    """
    if not train_docs or not test_docs:
        raise ConfigError("need non-empty train and test document sets")
    _check_classifier_settings(clf_epochs, seed, top_labels)
    train_vecs = _doc_vectors(train_docs, bundle.table(train_lang), bundle.kind, level)
    test_vecs = _doc_vectors(test_docs, bundle.table(test_lang), bundle.kind, level)
    mode = resolve_task(task, train_docs, test_docs)
    n_test = len(test_docs)
    rows = []

    if mode == "single":
        labels = sorted({_single_label(d) for d in train_docs})
        label_id = {lab: i for i, lab in enumerate(labels)}
        examples = [(dv, label_id[_single_label(d)]) for dv, d in zip(train_vecs, train_docs)]
        model = train_multiclass(examples, clf_epochs, seed)
        correct = sum(
            1
            for dv, d in zip(test_vecs, test_docs)
            if labels[model.predict(dv.vector)] == _single_label(d)
        )
        rows.append(EvalRow(train_lang, test_lang, "accuracy", correct / n_test, n_test))
        majority = _majority_label(train_docs)
        base = sum(1 for d in test_docs if _single_label(d) == majority) / n_test
        rows.append(EvalRow(train_lang, test_lang, "majority_baseline", base, n_test))
        return EvalReport(rows)

    if top_labels is not None:
        universe = select_top_labels(train_docs, top_labels)
    else:
        universe = {lab for d in train_docs for lab in d.labels}
    if not universe:
        raise ConfigError("training documents carry no labels")
    examples = [(dv, d.labels) for dv, d in zip(train_vecs, train_docs)]
    models = train_multilabel(examples, universe, clf_epochs, seed)
    predictions = [
        {lab for lab, m in models.items() if m.predict(dv.vector)} for dv in test_vecs
    ]
    gold = [d.labels & universe for d in test_docs]
    rows.append(EvalRow(train_lang, test_lang, "micro_f1", micro_f1(predictions, gold), n_test))
    rows.append(
        EvalRow(train_lang, test_lang, "macro_f1", macro_f1(predictions, gold, universe), n_test)
    )
    majority = _majority_label(train_docs)
    base_preds = [{majority} & universe for _ in test_docs]
    rows.append(
        EvalRow(
            train_lang, test_lang, "majority_baseline", micro_f1(base_preds, gold), n_test
        )
    )
    flagged = sum(1 for m in models.values() if m.no_positives)
    rows.append(
        EvalRow(
            train_lang, test_lang, "no_positive_labels_frac", flagged / len(models), len(models)
        )
    )
    return EvalReport(rows)


def _majority_label(docs) -> str:
    freq = Counter(lab for d in docs for lab in d.labels)
    # ties favor the lexicographically smaller label
    return min(freq, key=lambda lab: (-freq[lab], lab))


def transfer_matrix(
    languages: list,
    docs_by_lang: dict,
    bundle: ModelBundle,
    level: str = "sentence-average",
    task: str = "auto",
    clf_epochs: int = 10,
    seed: int = 0,
    top_labels: int = None,
) -> EvalReport:
    """cldc_run over every ordered language pair, diagonal omitted.

    Each pair gets a seed derived from (seed, train index, test index) in
    the sorted language order, so entries do not depend on iteration order.
    """
    langs = sorted(languages)
    if len(langs) < 2:
        raise ConfigError("transfer matrix needs at least 2 languages")
    missing = [l for l in langs if l not in docs_by_lang]
    if missing:
        raise ConfigError(f"no documents supplied for {missing}")
    _check_classifier_settings(clf_epochs, seed, top_labels)
    rows = []
    for i, train_lang in enumerate(langs):
        for j, test_lang in enumerate(langs):
            if i == j:
                continue
            report = cldc_run(
                train_lang,
                docs_by_lang[train_lang],
                test_lang,
                docs_by_lang[test_lang],
                bundle,
                level=level,
                task=task,
                clf_epochs=clf_epochs,
                seed=derive_seed(seed, i, j),
                top_labels=top_labels,
            )
            rows.extend(report.rows)
    return EvalReport(rows)
