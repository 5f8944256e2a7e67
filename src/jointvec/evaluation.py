"""Cross-lingual document classification on top of trained embeddings.

Documents become vectors (sentence-average or the two-stage compositional
form), an averaged perceptron trains on one language's documents, and the
resulting classifier is scored on another language's documents with no
target-language supervision. A language's sentences compose from its
table through training's `compose_rows`, and its documents from them,
into one (n, d) matrix that the perceptrons train on and predict from.
`cldc_run` and `transfer_matrix` share one pipeline, which composes
each language once for all its pairs.
Single-label tasks report accuracy, multi-label tasks micro-F1 (macro-F1
alongside); a majority-class baseline row accompanies every run.

One perceptron type serves both tasks: (C, d+1) weights make a multiclass
classifier, (d+1,) weights one one-vs-rest member. Each classifier walks
its own mistakes: it scores a block of the examples ahead against the
current weights and jumps to the block's first mistake, so numpy is
called per block and per mistake, not per example, and the walk records
its updates. Then one snapshot sum serves every classifier of a report:
a replay over stacked weights re-applies the recorded updates and adds
all classifiers still visiting with one `acc += w` per visit. Training
and prediction form every score through `_predict`, whose stacked
products round as per-example products do, and the replay's adds and
updates are the per-example loop's, in its order, so the classifiers
keep the bits of a loop that trains one classifier and scores one
example at a time.

A walk stops after its first epoch without an update. That epoch
scored every row against weights it did not change, so every later
epoch, in any order, would score the same rows against the same weights
and update nothing either (the perceptron convergence argument). The
replay takes each classifier's visit count from the epochs asked for,
not from its walk, so it still adds a snapshot for every visit of
them, and the bits stay those of a walk through all the epochs.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

import numpy as np

from .composition import CompositionKind, compose, compose_rows, segment_sums
from .corpus import pack_documents, writing
from .embeddings import EmbeddingTable, ModelBundle, derive_seed
from .errors import ContractError, UserError
from .native import keep_freed_pages

LEVELS = ("sentence-average", "doc-cvm")


# Rows per block of documents: sentences under ADD, whose arrays are
# (sentences, d), and tokens under BI, whose are (tokens, d). Keeps each
# block's temporaries near 1 MB at d = 128, and is no slower than one
# call for all documents, whose temporaries grow with their number.
_ROWS_PER_CALL = 1024


def represent_documents(
    docs: list,
    table: EmbeddingTable,
    kind: CompositionKind,
    level: str = "sentence-average",
) -> np.ndarray:
    """Map the documents to an (n, d) float64 matrix, row i for `docs[i]`.

    Documents are packed once and composed in blocks of whole documents.
    A block's sentences are composed from the table in one `compose_rows`
    call, then one `segment_sums` mean (sentence-average) or one more
    `compose` (doc-cvm) runs over their vectors. Every sum adds its
    rows in row order, as in training, so a document's vector does not
    depend on the others passed with it. Errors name the first faulty
    document. The first call pins the process's glibc malloc thresholds
    (native.keep_freed_pages), as training's does.
    """
    if level not in LEVELS:
        raise UserError(f"unknown representation level {level!r}")
    empty = [doc.doc_id for doc in docs if not doc.sentences]
    if empty:
        raise UserError(f"document {empty[0]!r} has no representable sentence")
    packed = pack_documents([doc.sentences for doc in docs])
    keep_freed_pages()
    doc_starts, sent_starts = packed.doc_starts, packed.sent_starts
    first_row = doc_starts if kind is CompositionKind.ADD else sent_starts[doc_starts]
    # a block starts at each document that holds a multiple of _ROWS_PER_CALL
    cuts = np.searchsorted(first_row, np.arange(0, first_row[-1], _ROWS_PER_CALL), "right") - 1
    cuts = np.append(np.unique(cuts), len(docs))
    vecs = np.empty((len(docs), table.d))
    for a, b in zip(cuts[:-1], cuts[1:]):
        s, e = doc_starts[a], doc_starts[b]
        ids = packed.ids[sent_starts[s] : sent_starts[e]]
        sents = compose_rows(((table.matrix, ids, np.diff(sent_starts[s : e + 1])),), kind).output
        n_sents = np.diff(doc_starts[a : b + 1])
        if level == "sentence-average":
            vecs[a:b] = segment_sums(sents, n_sents) / n_sents[:, None]
        else:
            vecs[a:b] = compose(sents, kind, n_sents).output
    bad = ~np.isfinite(vecs).all(axis=1)
    if bad.any():
        doc_id = docs[int(bad.argmax())].doc_id
        raise UserError(f"document {doc_id!r} produced non-finite entries")
    return vecs


def _add_bias(xs) -> np.ndarray:
    """The (n, d) matrix `xs` with a column of ones appended: the bias input."""
    return np.column_stack([np.asarray(xs, dtype=float), np.ones(len(xs))])


def _predict(w, xs) -> np.ndarray:
    """Per row of `xs`, bias column included: the class id for (C, d+1) weights `w`,
    exact ties to the lowest id, or whether the score is > 0 for (d+1,) weights `w`.

    Training and prediction form every perceptron score here, as stacked
    products that round as one example's product does: `w @ xs[:, :, None]`
    is one gemv per row, as `w @ x`, and `xs[:, None, :] @ w` one dot per
    row, as `float(w @ x)`. One gemm over all rows would round otherwise,
    and could split over BLAS threads.
    """
    if w.ndim == 2:
        return (w @ xs[:, :, None]).argmax(axis=1)[:, 0]
    return (xs[:, None, :] @ w)[:, 0] > 0.0


@dataclass
class PerceptronModel:
    """Averaged perceptron, bias in the last weight column: (C, d+1) weights
    predict a class id, (d+1,) weights whether a one-vs-rest label applies."""

    weights: np.ndarray
    averaged: np.ndarray
    updates: int

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """The prediction per row of the (n, d) matrix `xs` (see `_predict`)."""
        return _predict(self.averaged, _add_bias(xs))


def train_multiclass(xs, ys, epochs: int = 10, seed: int = 0) -> PerceptronModel:
    """Averaged perceptron over the rows of the (n, d) matrix `xs`, row i of class `ys[i]`.

    Learning rate 1; on a mistake the true class gains the example and the
    predicted class loses it. The weight matrix is snapshotted after every
    example (updated or not) and the snapshot mean is what predicts.
    """
    return _averaged_perceptrons([_multiclass_problem(_add_bias(xs), ys, seed)], epochs)[0]


def _multiclass_problem(xs, ys, seed: int) -> tuple:
    """The checked (rows, labels, zero weights, seed) of one multiclass perceptron;
    `xs` holds the bias column, and the weights have a row per class id up to the largest."""
    ys = np.asarray(ys, dtype=int)
    if not len(xs):
        raise UserError("no training examples")
    classes = np.unique(ys)
    if len(classes) < 2:
        raise UserError(f"need at least 2 classes, got {classes.tolist()}")
    return xs, ys, np.zeros((int(classes[-1]) + 1, xs.shape[1])), seed


def train_multilabel(xs, label_sets: list, universe: set, epochs: int = 10, seed: int = 0) -> dict:
    """One-vs-rest averaged perceptrons over the (n, d) matrix `xs`, row i labelled `label_sets[i]`.

    Labels train independently with per-label derived seeds, each into a
    `PerceptronModel` with (d+1,) weights. A label with no positive
    examples keeps zero weights, so it is never predicted; CLDC's universe
    holds only labels of its training documents, so it has none.
    """
    if not universe:
        raise UserError("empty label universe")
    problems = _multilabel_problems(_add_bias(xs), label_sets, universe, seed)
    return dict(zip(sorted(universe), _averaged_perceptrons(problems, epochs)))


def _multilabel_problems(xs, label_sets: list, universe: set, seed: int) -> list:
    """The checked (rows, labels, zero weights, seed) of each one-vs-rest perceptron,
    one per label of `universe` in sorted order; `xs` holds the bias column."""
    if not len(xs):
        raise UserError("no training examples")
    return [(xs, np.array([label in labels for labels in label_sets]), np.zeros(xs.shape[1]),
             derive_seed(seed, li)) for li, label in enumerate(sorted(universe))]


# Rows scored ahead in a classifier's first block, and at most: a clean
# block doubles the next one, a mistake halves it, down to one row.
_FIRST_BLOCK, _LAST_BLOCK = 8, 512


def _update(w, x, y, c) -> None:
    """The perceptron update of weights `w` in place, on a mistake at row `x` of
    label `y` predicted as `c`: class `y` gains `x` and class `c` loses it for
    (C, d+1) weights; (d+1,) weights gain `x` if `y` holds, else lose it."""
    if w.ndim == 2:
        w[y] += x
        w[c] -= x
    else:
        w += x if y else -x


def _walk(xs, ys, w, epochs: int, seed: int) -> list:
    """Train the weights `w` in place from the rows of `xs` (bias column included),
    and return each update as (visit index, row of `xs`, label, predicted class).

    Each epoch visits the rows of `xs` in one `permutation` of
    `default_rng(seed)`, gathered once. The rows ahead are scored as one
    block against the current weights (`_predict`), and the walk jumps to
    the block's first mistake; after an update, the next block starts at
    the row behind it. So numpy is called per block and per mistake, and
    the weights after each visit are those of a loop that scores one
    example at a time. The snapshot sum is left to `_averaged_perceptrons`.

    The walk stops after the first epoch that logs no update. That epoch
    scored every row against weights it left unchanged, so every later
    epoch, whatever its order, scores the same rows against the same
    weights and updates nothing either. Stopping skips only `permutation`
    draws of the walk's own generator, and the replay takes its visit
    count from `epochs`, not from the log, so the bits are those of a walk
    through all `epochs`.
    """
    n = len(xs)
    log, size = [], _FIRST_BLOCK
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        if epoch and (not log or log[-1][0] < (epoch - 1) * n):
            break  # the previous epoch was clean, so every later one is
        order = rng.permutation(n)
        rows, labels = xs[order], ys[order]
        p = 0
        while p < n:
            pred = _predict(w, rows[p : p + size])
            wrong = pred != labels[p : p + size]
            if not wrong.any():
                p += len(pred)
                size = min(2 * size, _LAST_BLOCK)
                continue
            k = int(wrong.argmax())
            p += k
            _update(w, rows[p], labels[p], pred[k])
            log.append((epoch * n + p, order[p], labels[p], pred[k]))
            p += 1
            size = max(size // 2, 1)
    return log


def _averaged_perceptrons(problems: list, epochs: int) -> list:
    """One `PerceptronModel` per (rows, labels, zero weights, seed) of `problems`.

    Every problem's weights are all (C, d+1), or all (d+1,). Each
    classifier first walks its own mistakes (`_walk`). Then one replay
    forms every snapshot sum: stacked (R, C_max, d+1) weights, or (R, d+1),
    start from zero, with classifiers ranked by visit count, largest first,
    so those still visiting form a prefix. Per visit, that visit's
    recorded updates are applied to their classifiers' rows with the
    walk's expressions, then one `acc[:a] += w[:a]` adds the snapshot of
    all `a` classifiers still visiting. Per element these are the adds
    and updates of a loop that trains one classifier and scores one
    example at a time, in its order, so every classifier keeps its bits.
    Padded class rows stay zero and are sliced off.
    """
    visits = [epochs * len(xs) for xs, _, _, _ in problems]
    ranked = sorted(range(len(problems)), key=lambda r: -visits[r])
    walked = [problems[r] for r in ranked]
    logs = [_walk(xs, ys, w, epochs, seed) for xs, ys, w, seed in walked]
    # every classifier's updates in visit order, then an end mark no visit has
    events = sorted(((t, s, row, y, c) for s, log in enumerate(logs) for t, row, y, c in log),
                    key=itemgetter(0))
    at = [t for t, *_ in events] + [-1]
    w = np.zeros((len(walked),) + max(weights.shape for _, _, weights, _ in walked))
    acc = np.zeros_like(w)
    stops = [visits[r] for r in ranked] + [0]
    e = 0
    # visits stops[a] up to stops[a - 1] are made by the first a classifiers only
    for a in range(len(walked), 0, -1):
        acc_a, w_a = acc[:a], w[:a]
        for t in range(stops[a], stops[a - 1]):
            while at[e] == t:
                _, s, row, y, c = events[e]
                _update(w[s], walked[s][0][row], y, c)
                e += 1
            acc_a += w_a
    models = [None] * len(problems)
    for s, (r, log) in enumerate(zip(ranked, logs)):
        weights = walked[s][2]
        models[r] = PerceptronModel(weights, acc[s, : len(weights)] / stops[s], len(log))
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
        with writing(path) as fh:
            fh.write(self.to_tsv())


def _ranked_labels(labels) -> list:
    """Distinct `labels`, most frequent first; ties favor the lexicographically smaller."""
    freq = Counter(labels)
    return sorted(freq, key=lambda lab: (-freq[lab], lab))


def select_top_labels(docs: list, n: int) -> set[str]:
    """The n labels present in the most documents; ties favor the lexicographically smaller."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranked = _ranked_labels(lab for doc in docs for lab in doc.labels)
    if len(ranked) < n:
        warnings.warn(f"requested {n} labels but only {len(ranked)} distinct labels occur",
                      stacklevel=2)
    return set(ranked[:n])


def _single_labels(lang: str, docs) -> list:
    """Each document's label on a single-label task: the smallest of its labels."""
    for doc in docs:
        if not doc.labels:
            raise UserError(f"document {doc.doc_id!r} in {lang!r} has no label to classify")
    return [min(doc.labels) for doc in docs]


def resolve_task(task: str, *doc_groups) -> str:
    """Resolve task "auto" once over all the given lists of documents.

    Auto is single-label iff every document of every list carries exactly one label.
    """
    if task in ("single", "multi"):
        return task
    if task != "auto":
        raise UserError(f"task must be auto, single, or multi, got {task!r}")
    single = all(len(d.labels) == 1 for docs in doc_groups for d in docs)
    return "single" if single else "multi"


def check_classifier_settings(clf_epochs: int, seed: int, top_labels) -> None:
    checks = [
        ("clf_epochs", clf_epochs >= 1, f"must be >= 1, got {clf_epochs}"),
        ("seed", seed >= 0, f"must be >= 0, got {seed}"),
        ("top_labels", top_labels is None or top_labels >= 1, f"must be >= 1, got {top_labels}"),
    ]
    for name, ok, rule in checks:
        if not ok:
            label = "clf_epochs (classifier epochs)" if name == "clf_epochs" else name
            raise UserError(f"{label} {rule}", name, rule)


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
    multi-label (micro-F1, with macro-F1 alongside). A single-label
    document's label is the smallest of its set; the majority baseline
    predicts the most frequent training label everywhere.
    """
    groups = [(train_lang, train_docs), (test_lang, test_docs)]
    return _evaluate(groups, [(0, 1, seed)], bundle, level, task, clf_epochs, seed, top_labels)


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
    repeated = [lang for lang, n in Counter(langs).items() if n > 1]
    if repeated:
        raise UserError(f"language {repeated[0]!r} is listed more than once")
    if len(langs) < 2:
        raise UserError("transfer matrix needs at least 2 languages")
    missing = [l for l in langs if not docs_by_lang.get(l)]
    if missing:
        raise UserError(f"no documents supplied for {missing}")
    groups = [(lang, docs_by_lang[lang]) for lang in langs]
    pairs = ((i, j, derive_seed(seed, i, j)) for i, j in permutations(range(len(langs)), 2))
    return _evaluate(groups, pairs, bundle, level, task, clf_epochs, seed, top_labels)


def _evaluate(groups, pairs, bundle, level, task, clf_epochs, seed, top_labels) -> EvalReport:
    """Rows of each (train index, test index, seed) of `pairs` over (language, documents) `groups`.

    `pairs` is read once the documents and settings are checked. The task
    is resolved and each group represented once, for every pair it is in;
    top_labels is refused on a single-label task, which would ignore it.
    Every pair is checked, in pair order, before any classifier trains, so
    the first faulty pair names the error. Then one `_averaged_perceptrons`
    call trains every pair's classifiers, and each pair predicts.
    """
    for lang, docs in groups:
        if not docs:
            raise UserError(f"no documents supplied for {lang!r}")
    check_classifier_settings(clf_epochs, seed, top_labels)
    task = resolve_task(task, *(docs for _, docs in groups))
    if task == "single" and top_labels is not None:
        rule = "applies to multi-label tasks only; this task is single-label"
        raise UserError(f"top_labels {rule}", "top_labels", rule)
    kind = bundle.kind
    groups = [(lang, docs, _add_bias(represent_documents(docs, bundle.table(lang), kind, level)))
              for lang, docs in groups]
    plans = [_classify(groups[i], groups[j], task, pair_seed, top_labels)
             for i, j, pair_seed in pairs]
    problems = [problem for pair_problems, _ in plans for problem in pair_problems]
    models = iter(_averaged_perceptrons(problems, clf_epochs))
    rows = []
    for pair_problems, score in plans:
        rows += score([next(models) for _ in pair_problems])
    return EvalReport(rows)


def _classify(train, test, task, seed, top_labels) -> tuple:
    """One pair's checked perceptron problems, and the function from their
    trained models to the pair's report rows, for a resolved task and two
    (language, documents, matrix with the bias column)."""
    (train_lang, train_docs, train_x), (test_lang, test_docs, test_x) = train, test
    n_test = len(test_docs)

    def row(metric, value):
        return EvalRow(train_lang, test_lang, metric, value, n_test)

    if task == "single":
        train_y = _single_labels(train_lang, train_docs)
        test_y = _single_labels(test_lang, test_docs)
        labels = sorted(set(train_y))
        if len(labels) < 2:
            raise UserError(f"all training documents in {train_lang!r} carry the one label "
                            f"{labels[0]!r}; a single-label task needs at least 2")
        label_id = {lab: i for i, lab in enumerate(labels)}

        def score(models):
            predicted = _predict(models[0].averaged, test_x)
            correct = sum(labels[c] == y for c, y in zip(predicted, test_y))
            majority = _ranked_labels(train_y)[0]
            base = sum(y == majority for y in test_y) / n_test
            return [row("accuracy", correct / n_test), row("majority_baseline", base)]

        return [_multiclass_problem(train_x, [label_id[y] for y in train_y], seed)], score

    # every label of the universe has a positive training document, and the
    # majority label is the first of the ranking the universe is cut from
    if top_labels is not None:
        universe = select_top_labels(train_docs, top_labels)
    else:
        universe = {lab for doc in train_docs for lab in doc.labels}
    if not universe:
        raise UserError(f"training documents in {train_lang!r} carry no labels")

    def score(models):
        positive = {lab: _predict(m.averaged, test_x) for lab, m in zip(sorted(universe), models)}
        predictions = [{lab for lab, pos in positive.items() if pos[i]} for i in range(n_test)]
        gold = [doc.labels & universe for doc in test_docs]
        majority = _ranked_labels(lab for doc in train_docs for lab in doc.labels)[0]
        return [
            row("micro_f1", micro_f1(predictions, gold)),
            row("macro_f1", macro_f1(predictions, gold, universe)),
            row("majority_baseline", micro_f1([{majority}] * n_test, gold)),
        ]

    return _multilabel_problems(train_x, [d.labels for d in train_docs], universe, seed), score

