"""Workload jobs: set-up, train, checkpoint, resume, CLDC and queries, with checks.

A job makes the same public calls, in the same order, as ``jointvec
train`` followed by ``jointvec eval transfer`` and ``jointvec query``.
Every call goes through a module attribute (``training.train_joint``,
``embeddings.nearest_neighbors``, ...) so that the traced run's rebinding
in ``spans.py`` sees it.
"""

import dataclasses
import hashlib
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from jointvec import corpus, embeddings, evaluation, training
from jointvec.composition import CompositionKind, compose

SETUP_REPS = 3
QUERY_N = 10
# queries timed between two calibrations; a multiple of the stream's
# 3-query (all / one / one) and 2-query (cosine / euclidean) cycles
QUERY_BLOCK = 12

# Duration of Clock's calibration loop on the reference machine (2 vCPU,
# Python 3.11.7, numpy 2.4.6) when no other tenant competes for the core.
REFERENCE_CALIBRATION_S = 0.025


@dataclass
class Workload:
    name: str
    kind: str  # "add" | "bi"
    doc_signal: bool
    epochs: int
    make_inputs: str  # function name in inputs.py
    sizes: dict  # scale -> keyword arguments of make_inputs
    queries: dict  # scale -> queries per job
    p1_floor: float  # alignment P@1 floor at the reference scale


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sent-add", "add", False, 3, "sentence_inputs",
            {
                "ref": dict(pairs=400, vocab_size=3000, eval_docs=300),
                "toy": dict(pairs=120, vocab_size=400, eval_docs=24),
            },
            {"ref": 120, "toy": 8},
            0.5,
        ),
        Workload(
            "joint-doc-bi", "bi", True, 2, "document_inputs",
            {
                "ref": dict(doc_pairs=30, sentences_per_doc=4, vocab_size=2000, eval_docs=200),
                "toy": dict(doc_pairs=16, sentences_per_doc=4, vocab_size=80, eval_docs=24),
            },
            {"ref": 120, "toy": 8},
            0.3,
        ),
        Workload(
            "serve", "add", False, 1, "planted_inputs",
            {
                "ref": dict(rows=2000, d=128, update_pairs=150, eval_docs=200, noise_scale=0.1),
                "toy": dict(rows=400, d=16, update_pairs=40, eval_docs=24, noise_scale=0.1),
            },
            {"ref": 120, "toy": 8},
            0.9,
        ),
    )
}


class Clock:
    """Converts measured seconds into reference seconds.

    A shared host's speed can drift by up to 2x over seconds to minutes
    (seen on a 2-vCPU cloud VM with co-tenants). A fixed calibration loop (Python-level loops,
    small numpy gathers and float formatting, the mix the package spends
    its time on) runs before and after each timed block; a block's
    reference time is its measured time scaled by
    REFERENCE_CALIBRATION_S / (mean of the two calibration times). The
    loop shares no code with jointvec, so a change to the package moves
    the block and not the calibration.
    """

    def __init__(self):
        self._matrix = np.random.default_rng(0).normal(size=(2000, 128))
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        m = self._matrix
        t0 = time.perf_counter()
        acc = {}
        for i in range(3000):
            ids = [(i * 7 + j) % 2000 for j in range(7)]
            v = m[ids].sum(axis=0)
            if ids[0] in acc:
                acc[ids[0]] += v
            else:
                acc[ids[0]] = v.copy()
        " ".join(repr(float(x)) for x in m[:40].ravel())
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Reference seconds per measured second for the block since the last call."""
        now = self._calibrate()
        factor = REFERENCE_CALIBRATION_S / ((self._last + now) / 2.0)
        self._last = now
        return factor


class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{op}: {p}" for p in problems)


@dataclass
class Samples:
    """Measurements across the jobs of one run, in reference seconds unless raw_."""

    setup_s: list = field(default_factory=list)
    train_pairs_per_s: list = field(default_factory=list)
    checkpoint_write_s: list = field(default_factory=list)
    checkpoint_read_s: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    cldc_docs_per_s: list = field(default_factory=list)
    raw_train_pairs_per_s: list = field(default_factory=list)
    raw_checkpoint_write_s: list = field(default_factory=list)
    raw_query_ms: list = field(default_factory=list)
    speed_factors: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)
    active_fractions: list = field(default_factory=list)
    pairs_per_epoch: int = 0
    align_p_at_1: list = field(default_factory=list)
    cldc: list = field(default_factory=list)
    digests: list = field(default_factory=list)


class Job:
    """One workload job over fixed inputs."""

    def __init__(self, workload: Workload, inputs, seed: int, scale: str, work_dir: str):
        self.w = workload
        self.inputs = inputs
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.n_queries = workload.queries[scale]
        d = inputs.planted[inputs.pivot][1].shape[1] if inputs.planted else 128
        self.config = training.TrainConfig(
            d=d, k=50, batch=50, epochs=workload.epochs,
            kind=CompositionKind(workload.kind), doc_signal=workload.doc_signal,
            mode="joint" if len(inputs.parallel) > 1 else "single", seed=seed,
        )

    def setup(self):
        """Vocabularies, corpora, evaluation documents, tables and accumulators."""
        inp, config = self.inputs, self.config
        if inp.planted:
            vocabs = {lang: embeddings.Vocabulary(tok) for lang, (tok, _, _) in inp.planted.items()}
        else:
            vocabs = {}
            reader = (
                corpus.iter_document_token_sentences
                if config.doc_signal
                else corpus.iter_token_sentences
            )
            for l1, l2, f1, f2 in inp.parallel:
                for lang, path in ((l1, f1), (l2, f2)):
                    vocab = vocabs.setdefault(lang, embeddings.Vocabulary())
                    for sent in reader(path):
                        for tok in sent:
                            vocab.add(tok)
        corpora = []
        for l1, l2, f1, f2 in inp.parallel:
            if config.doc_signal:
                loaded = corpus.load_document_pairs(f1, f2, vocabs[l1], vocabs[l2])
                corpora.append(corpus.DocumentCorpus(l1, l2, loaded))
            else:
                loaded = corpus.load_parallel(f1, f2, vocabs[l1], vocabs[l2])
                corpora.append(corpus.ParallelCorpus(l1, l2, loaded))
        docs = {lang: corpus.load_documents(path, vocabs[lang]) for lang, path in inp.eval_docs.items()}
        if inp.planted:
            tables = {
                lang: embeddings.EmbeddingTable(lang, m.copy())
                for lang, (_, m, _) in inp.planted.items()
            }
            bundle = embeddings.ModelBundle(vocabs, tables, config.kind)
            state = training.AdaGradState(acc={l: a.copy() for l, (_, _, a) in inp.planted.items()})
        else:
            tables = {
                lang: embeddings.init_table(
                    len(vocabs[lang]), config.d, embeddings.derive_seed(config.seed, li), lang
                )
                for li, lang in enumerate(sorted(vocabs))
            }
            bundle = embeddings.ModelBundle(vocabs, tables, config.kind)
            state = training.AdaGradState(bundle)
        return corpora, docs, bundle, state

    def run(self, ledger: Ledger, samples: Samples, clock: Clock,
            setup_reps: int = SETUP_REPS, train_only: bool = False) -> bool:
        """One job; returns False if an operation raised (the job stops there)."""
        op = "setup"
        try:
            clock.factor()
            raw = []
            for _ in range(setup_reps):
                t0 = time.perf_counter()
                corpora, docs, bundle, state = self.setup()
                raw.append(time.perf_counter() - t0)
                ledger.record(op, [])
            f = clock.factor()
            samples.setup_s.extend(r * f for r in raw)

            op = "train"
            epochs = []  # (measured, reference) seconds per epoch
            epoch_start = time.perf_counter()

            def on_epoch(epoch, report):
                # calibrate at every epoch boundary; the calibration is not training time
                nonlocal epoch_start
                seconds = time.perf_counter() - epoch_start
                f = clock.factor()
                samples.speed_factors.append(f)
                epochs.append((seconds, seconds * f))
                epoch_start = time.perf_counter()

            report = training.train_joint(corpora, bundle, self.config, state, on_epoch=on_epoch)
            pairs = sum(len(c.pairs) for c in corpora)
            samples.pairs_per_epoch = pairs
            done = pairs * len(report.epoch_losses)
            samples.raw_train_pairs_per_s.append(done / sum(m for m, _ in epochs))
            samples.train_pairs_per_s.append(done / sum(r for _, r in epochs))
            ledger.record(op, self._check_training(report, corpora, bundle, state, samples))
            if train_only:
                return True

            op = "checkpoint"
            path = os.path.join(self.work_dir, "checkpoint")
            clock.factor()  # fresh calibration: the training checks ran since the last one
            t0 = time.perf_counter()
            training.checkpoint(bundle, state, path, self.config, self.config.epochs)
            dt = time.perf_counter() - t0
            samples.raw_checkpoint_write_s.append(dt)
            samples.checkpoint_write_s.append(dt * clock.factor())
            ledger.record(op, [])

            op = "resume"
            t0 = time.perf_counter()
            resumed = training.resume(path)
            samples.checkpoint_read_s.append((time.perf_counter() - t0) * clock.factor())
            ledger.record(op, self._check_resume(resumed, bundle, state))
            shutil.rmtree(path)
            bundle = resumed[0]

            op = "cldc"
            langs = sorted(docs)
            t0 = time.perf_counter()
            matrix = evaluation.transfer_matrix(
                langs, docs, bundle, level="sentence-average", task="single", seed=self.seed
            )
            dt = time.perf_counter() - t0
            n_docs = sum(len(docs[a]) + len(docs[b]) for a in langs for b in langs if a != b)
            samples.cldc_docs_per_s.append(n_docs / (dt * clock.factor()))
            for pair, problems in self._check_cldc(matrix, langs, samples):
                ledger.record(f"cldc {pair}", problems)

            op = "query"
            stream = list(self._query_stream(bundle, len(samples.digests)))
            checks = []
            for start in range(0, len(stream), QUERY_BLOCK):
                raw = []
                for lang, token, target, metric in stream[start:start + QUERY_BLOCK]:
                    t0 = time.perf_counter()
                    found = embeddings.nearest_neighbors(
                        bundle, (lang, token), QUERY_N, target, metric
                    )
                    raw.append((time.perf_counter() - t0) * 1e3)
                    checks.append((lang, token, target, metric, found))
                f = clock.factor()
                samples.raw_query_ms.extend(raw)
                samples.query_ms.extend(r * f for r in raw)
            for lang, token, target, metric, found in checks:
                ledger.record(op, self._check_query(bundle, lang, token, target, metric, found))
            return True
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ledger.record(op, [f"raised {exc!r}"])
            return False

    def _query_stream(self, bundle, job_index: int):
        """Queries in groups of three from one language: one against all
        languages, two against a single other language; metrics alternate
        cosine / euclidean.

        All-language queries scan several tables and form a slower latency
        mode. Keeping them a third of the stream puts the median inside the
        single-language mode and p95 inside the all-language one, rather
        than on the gap between the two.
        """
        rng = np.random.default_rng([self.seed, 0x51, job_index])
        langs = bundle.languages
        for q in range(self.n_queries):
            group, slot = divmod(q, 3)
            lang = langs[group % len(langs)]
            vocab = bundle.vocab(lang)
            token = vocab.token(int(rng.integers(0, len(vocab))))
            others = [l for l in langs if l != lang]
            target = "all" if slot == 0 else others[(slot - 1) % len(others)]
            metric = "cosine" if q % 2 == 0 else "euclidean"
            yield lang, token, target, metric

    # -- correctness checks ---------------------------------------------------

    def _check_training(self, report, corpora, bundle, state, samples) -> list:
        problems = []
        losses = list(report.epoch_losses)
        samples.epoch_losses = losses
        samples.active_fractions = list(report.active_fractions)
        if len(losses) != self.config.epochs:
            problems.append(f"{len(losses)} epoch losses for {self.config.epochs} epochs")
        if not all(np.isfinite(losses)):
            problems.append(f"non-finite epoch loss in {losses}")
        elif len(losses) > 1 and not losses[-1] < losses[0]:
            problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
        p1 = self._align_p_at_1(corpora, bundle)
        samples.align_p_at_1.append(p1)
        floor = self.w.p1_floor if self.scale == "ref" else 0.0
        if not p1 > floor:
            problems.append(f"alignment P@1 {p1:.3f} not above floor {floor}")
        h = hashlib.sha256(repr((losses, list(report.active_fractions))).encode())
        for lang in bundle.languages:
            h.update(bundle.table(lang).matrix.tobytes())
            h.update(state.acc[lang].tobytes())
        samples.digests.append(h.hexdigest())
        if len(set(samples.digests)) > 1:
            problems.append("loss sequence or table digest differs between jobs of this run")
        return problems

    def _align_p_at_1(self, corpora, bundle, limit: int = 500) -> float:
        """Share of held-out items whose nearest other-language item is their translation.

        Items are sentences or, on document workloads, whole documents
        composed twice, the level the document signal trains. On
        ``joint-doc-bi`` the two languages (de, fr) never share a corpus.
        """
        kind = self.config.kind
        la, lb = self.inputs.align_langs
        if self.config.doc_signal:
            # each language sits on the target side of its own pivot corpus
            by_lang = {c.tgt_lang: c for c in corpora}
            side_a = [p.target for p in by_lang[la].pairs]
            side_b = [p.target for p in by_lang[lb].pairs]
        else:
            c = next(c for c in corpora if (c.src_lang, c.tgt_lang) == (la, lb))
            side_a = [p.source for p in c.pairs]
            side_b = [p.target for p in c.pairs]
        n = min(limit, len(side_a), len(side_b))

        def vec(matrix, item):
            if self.config.doc_signal:
                sents = np.stack([compose(matrix[list(s.ids)], kind).output for s in item.sentences])
                return compose(sents, kind).output
            return compose(matrix[list(item.ids)], kind).output

        a = np.stack([vec(bundle.table(la).matrix, x) for x in side_a[:n]])
        b = np.stack([vec(bundle.table(lb).matrix, x) for x in side_b[:n]])
        d2 = (a * a).sum(1)[:, None] - 2.0 * a @ b.T + (b * b).sum(1)[None, :]
        return float(np.mean(np.argmin(d2, axis=1) == np.arange(n)))

    def _check_resume(self, resumed, bundle, state) -> list:
        r_bundle, r_state, r_config, r_epoch = resumed
        if r_bundle.languages != bundle.languages:
            return [f"languages {r_bundle.languages} != {bundle.languages}"]
        problems = []
        for lang in bundle.languages:
            if r_bundle.vocab(lang).tokens != bundle.vocab(lang).tokens:
                problems.append(f"{lang}: vocabulary differs")
            if not np.array_equal(r_bundle.table(lang).matrix, bundle.table(lang).matrix):
                problems.append(f"{lang}: table differs")
            if not np.array_equal(r_state.acc[lang], state.acc[lang]):
                problems.append(f"{lang}: accumulators differ")
        if dataclasses.asdict(r_config) != dataclasses.asdict(self.config):
            problems.append("config differs")
        if r_epoch != self.config.epochs or r_bundle.kind != bundle.kind:
            problems.append(f"epoch {r_epoch} / kind {r_bundle.kind} differ")
        return problems

    def _check_cldc(self, matrix, langs, samples):
        """Per ordered pair: accuracy must beat the majority baseline."""
        rows = {(r.train_lang, r.test_lang, r.metric): r.value for r in matrix.rows}
        for tr in langs:
            for te in langs:
                if tr == te:
                    continue
                acc = rows.get((tr, te, "accuracy"))
                base = rows.get((tr, te, "majority_baseline"))
                if acc is None or base is None:
                    yield f"{tr}->{te}", ["no accuracy or baseline row"]
                    continue
                samples.cldc.append((tr, te, acc, base))
                ok = acc > base
                yield f"{tr}->{te}", [] if ok else [f"accuracy {acc:.3f} not above majority {base:.3f}"]

    def _check_query(self, bundle, lang, token, target, metric, found) -> list:
        """Top-1 score against a brute-force recomputation; planted translations on serve."""
        if not found:
            return ["no neighbours returned"]
        vq = bundle.table(lang).matrix[bundle.vocab(lang)[token]]
        best = -np.inf
        for tl in bundle.languages if target == "all" else [target]:
            mat = bundle.table(tl).matrix
            if metric == "cosine":
                norms = np.linalg.norm(mat, axis=1) * np.linalg.norm(vq)
                scores = (mat @ vq) / np.maximum(norms, 1e-300)
            else:
                scores = -np.linalg.norm(mat - vq, axis=1)
            if tl == lang:
                scores[bundle.vocab(lang)[token]] = -np.inf
            best = max(best, float(scores.max()))
        top_lang, top_token, top_score = found[0]
        problems = []
        if not np.isclose(top_score, best, rtol=1e-9, atol=1e-12):
            problems.append(f"top-1 score {top_score!r} != recomputed best {best!r}")
        if self.inputs.planted and target != "all":
            want = target + token[len(lang):]
            if (top_lang, top_token) != (target, want):
                problems.append(f"top-1 of {lang}:{token} is {top_lang}:{top_token}, planted {want}")
        return problems
