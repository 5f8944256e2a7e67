"""End-to-end acceptance checks.

Each test measures one release gate, prints a `[criterion N] PASS/FAIL`
line with the observed numbers, and then asserts the gate, including its
runtime budget. The suite doubles as a scorecard: a full run echoes all
eight lines in the terminal summary.
"""

import time

import numpy as np

from conftest import (
    densify_grads,
    make_bundle,
    max_rel_err,
    numerical_grads,
    rand_sentence,
    random_doc_instance,
    random_pair_instance,
)
from jointvec import synth
from jointvec.cli import main as cli_main
from jointvec.composition import CompositionKind
from jointvec.corpus import (
    DocumentPair,
    LabeledDocument,
    ParallelCorpus,
    ParallelPair,
    Sentence,
    iter_token_sentences,
    load_documents,
    load_parallel,
)
from jointvec.embeddings import (
    ModelBundle,
    Vocabulary,
    build_vocab,
    derive_seed,
    export_table,
    import_table,
    init_table,
)
from jointvec.evaluation import DocVector, cldc_run, micro_f1, train_multiclass, transfer_matrix
from jointvec.objective import doc_loss_and_grads, energy, pair_loss_and_grads
from jointvec.training import (
    AdaGradState,
    TrainConfig,
    adagrad_apply,
    checkpoint,
    resume,
    train_joint,
)

ADD = CompositionKind.ADD
BI = CompositionKind.BI


def _build_model(vocabs: dict, config: TrainConfig) -> tuple:
    langs = sorted(vocabs)
    tables = {
        lang: init_table(len(vocabs[lang]), config.d, derive_seed(config.seed, li), lang)
        for li, lang in enumerate(langs)
    }
    bundle = ModelBundle(vocabs, tables, config.kind)
    return bundle, AdaGradState(bundle)


def _metric_values(report) -> dict:
    return {(r.train_lang, r.test_lang, r.metric): r.value for r in report.rows}


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


def test_gradients_match_finite_differences(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    per_case = 100
    for kind in (ADD, BI):
        for _ in range(per_case):
            bundle, pair, noise, margin = random_pair_instance(rng, kind)
            _, grads = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))

            def loss():
                b, _ = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
                return b.hinge_total

            worst = max(worst, max_rel_err(densify_grads(grads, bundle), numerical_grads(loss, bundle)))
        for _ in range(per_case):
            bundle, doc_pair, noise_docs, sent_noise, margin = random_doc_instance(rng, kind)
            _, grads = doc_loss_and_grads(
                doc_pair, noise_docs, bundle, kind, margin, True, ("a", "b"),
                sentence_noise=sent_noise,
            )

            def loss():
                b, _ = doc_loss_and_grads(
                    doc_pair, noise_docs, bundle, kind, margin, True, ("a", "b"),
                    sentence_noise=sent_noise,
                )
                return b.hinge_total

            worst = max(worst, max_rel_err(densify_grads(grads, bundle), numerical_grads(loss, bundle)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    criterion(1, ok, f"max rel grad err {worst:.2e} over {4 * per_case} instances ({elapsed:.1f}s)")
    assert worst < 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. objective and optimizer invariants


def test_objective_and_optimizer_invariants(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    cases = 1000

    active_seen = inactive_seen = 0
    for _ in range(cases):
        kind = ADD if rng.random() < 0.5 else BI
        d = int(rng.integers(2, 5))
        bundle = make_bundle({"a": 4, "b": 5}, d, int(rng.integers(1 << 30)), kind)
        pair = ParallelPair(rand_sentence(rng, 4), rand_sentence(rng, 5), 0)
        noise = [rand_sentence(rng, 5) for _ in range(int(rng.integers(1, 4)))]
        margin = float(rng.uniform(0.01, 1.0))
        breakdown, grads = pair_loss_and_grads(pair, noise, bundle, kind, margin, ("a", "b"))
        assert breakdown.hinge_total >= 0.0
        assert (breakdown.hinge_total == 0.0) == (grads == {})
        assert (breakdown.active_noise_count == 0) == (grads == {})
        if grads:
            active_seen += 1
        else:
            inactive_seen += 1
    assert active_seen and inactive_seen  # both branches actually exercised

    for _ in range(cases):
        d = int(rng.integers(1, 9))
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        assert energy(u, v) >= 0.0
        assert energy(u, v) == energy(v, u)
        assert energy(u, u) == 0.0

    bundle = make_bundle({"a": 6}, 4, 7)
    state = AdaGradState(bundle)
    config = TrainConfig(d=4, margin=1.0, k=1, lam=0.5, step=0.1, batch=1, epochs=1, seed=0)
    for _ in range(cases):
        grads = {"a": (np.array([rng.integers(6)]), rng.normal(size=(1, 4)))}
        before = state.acc["a"].copy()
        adagrad_apply(bundle, grads, state, config)
        assert np.all(state.acc["a"] >= before)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    criterion(2, ok, f"{3 * cases} randomized invariant cases hold ({elapsed:.1f}s)")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. synthetic bilingual corpus: train, then cross-lingual classification


def test_bilingual_synthetic_cldc_accuracy(criterion, tmp_path):
    t0 = time.perf_counter()
    tw = synth.make_twin_corpus("la", "lb", 500, seed=11)
    synth.write_parallel_files(tw, tmp_path / "la.txt", tmp_path / "lb.txt")
    vocabs = {
        lang: build_vocab(iter_token_sentences(tmp_path / f"{lang}.txt"))
        for lang in ("la", "lb")
    }
    pairs = load_parallel(tmp_path / "la.txt", tmp_path / "lb.txt", vocabs["la"], vocabs["lb"])
    corpus = ParallelCorpus("la", "lb", pairs)

    config = TrainConfig(
        d=16, margin=16.0, k=10, lam=1.0, step=0.05, batch=10, epochs=100, kind=ADD, seed=3
    )
    bundle, state = _build_model(vocabs, config)
    report = train_joint([corpus], bundle, config, state)
    assert report.epoch_losses[-1] < report.epoch_losses[0]

    synth.write_document_file(synth.make_topic_documents("la", 96, seed=101), tmp_path / "la.docs")
    synth.write_document_file(synth.make_topic_documents("lb", 96, seed=202), tmp_path / "lb.docs")
    docs_la = load_documents(tmp_path / "la.docs", vocabs["la"])
    docs_lb = load_documents(tmp_path / "lb.docs", vocabs["lb"])
    values = _metric_values(cldc_run("la", docs_la, "lb", docs_lb, bundle, seed=0))
    accuracy = values[("la", "lb", "accuracy")]
    majority = values[("la", "lb", "majority_baseline")]

    elapsed = time.perf_counter() - t0
    ok = accuracy >= 0.90 and majority <= 0.35 and elapsed < 120.0
    criterion(3, ok, f"la->lb accuracy {accuracy:.3f} vs majority {majority:.3f} ({elapsed:.1f}s)")
    assert accuracy >= 0.90
    assert majority <= 0.35
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. pivot: languages that never co-occur still align


def test_pivot_aligns_unpaired_languages(criterion, tmp_path):
    t0 = time.perf_counter()
    twin_corpora = synth.make_pivot_corpora("en", ("de", "fr"), 500, seed=21)
    for lang, tw in twin_corpora.items():
        synth.write_parallel_files(tw, tmp_path / f"en_{lang}.src", tmp_path / f"{lang}.tgt")

    vocabs = {"en": Vocabulary()}
    for lang in ("de", "fr"):
        for sent in iter_token_sentences(tmp_path / f"en_{lang}.src"):
            for tok in sent:
                vocabs["en"].add(tok)
        vocabs[lang] = build_vocab(iter_token_sentences(tmp_path / f"{lang}.tgt"))
    corpora = [
        ParallelCorpus(
            "en", lang,
            load_parallel(
                tmp_path / f"en_{lang}.src", tmp_path / f"{lang}.tgt",
                vocabs["en"], vocabs[lang],
            ),
        )
        for lang in ("de", "fr")
    ]

    config = TrainConfig(
        d=32, margin=32.0, k=10, lam=1.0, step=0.1, batch=10, epochs=200,
        kind=ADD, mode="joint", seed=9,
    )
    bundle, state = _build_model(vocabs, config)
    train_joint(corpora, bundle, config, state)

    # de-fr translation pairs exist only through the latent ids; neither
    # language ever appeared in the same training pair.
    def unit_rows(lang):
        m = bundle.table(lang).matrix
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return m / norms

    nde, nfr = unit_rows("de"), unit_rows("fr")
    ids_de = {int(t[2:]) for t in vocabs["de"].tokens}
    ids_fr = {int(t[2:]) for t in vocabs["fr"].tokens}
    shared = sorted(ids_de & ids_fr)
    trans = np.array(
        [nde[vocabs["de"][f"de{i:03d}"]] @ nfr[vocabs["fr"][f"fr{i:03d}"]] for i in shared]
    )
    rng = np.random.default_rng(0)
    ii = rng.integers(0, nde.shape[0], size=2000)
    jj = rng.integers(0, nfr.shape[0], size=2000)
    rand = np.einsum("ij,ij->i", nde[ii], nfr[jj])
    gap = (trans.mean() - rand.mean()) / rand.std(ddof=1)

    synth.write_document_file(synth.make_topic_documents("de", 96, seed=101), tmp_path / "de.docs")
    synth.write_document_file(synth.make_topic_documents("fr", 96, seed=202), tmp_path / "fr.docs")
    docs = {
        lang: load_documents(tmp_path / f"{lang}.docs", vocabs[lang]) for lang in ("de", "fr")
    }
    values = _metric_values(transfer_matrix(["de", "fr"], docs, bundle, seed=0))
    accuracy = values[("de", "fr", "accuracy")]
    majority = values[("de", "fr", "majority_baseline")]

    elapsed = time.perf_counter() - t0
    ok = gap >= 3.0 and accuracy > majority and elapsed < 180.0
    criterion(
        4, ok,
        f"de-fr cosine gap {gap:.2f} sd over {len(shared)} pairs; "
        f"de->fr accuracy {accuracy:.3f} vs majority {majority:.3f} ({elapsed:.1f}s)",
    )
    assert gap >= 3.0
    assert accuracy > majority
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 5. joint mode: the pivot table is one shared object


def _pairs_from_twin(tw, vocab_a, vocab_b):
    return [
        ParallelPair(
            Sentence(tuple(vocab_a.add(t) for t in sa)),
            Sentence(tuple(vocab_b.add(t) for t in sb)),
            i,
        )
        for i, (sa, sb) in enumerate(zip(tw.sents_a, tw.sents_b))
    ]


def test_joint_mode_shares_pivot_parameters(criterion, monkeypatch):
    t0 = time.perf_counter()
    twins = synth.make_pivot_corpora("en", ("de", "fr"), 40, seed=3)
    vocabs = {"en": Vocabulary(), "de": Vocabulary(), "fr": Vocabulary()}
    corpora = [
        ParallelCorpus("en", lang, _pairs_from_twin(twins[lang], vocabs["en"], vocabs[lang]))
        for lang in ("de", "fr")
    ]
    config = TrainConfig(
        d=4, margin=4.0, k=2, lam=1.0, step=0.1, batch=10, epochs=1,
        kind=ADD, mode="joint", seed=5,
    )
    bundle, state = _build_model(vocabs, config)
    en_initial = bundle.table("en").matrix.copy()

    import jointvec.training as training_mod

    real = training_mod.batch_loss_and_grads
    en_at_first_fr_eval = []

    def spy(src, tgt, pairs, noise, tables, kind, margin, languages, sentence_noise=None):
        if languages == ("en", "fr") and not en_at_first_fr_eval:
            en_at_first_fr_eval.append(tables.table("en").matrix.copy())
        return real(src, tgt, pairs, noise, tables, kind, margin, languages, sentence_noise)

    monkeypatch.setattr(training_mod, "batch_loss_and_grads", spy)
    train_joint(corpora, bundle, config, state)
    monkeypatch.undo()

    assert en_at_first_fr_eval, "the second sub-corpus never evaluated a pair"
    shared_visible = not np.array_equal(en_at_first_fr_eval[0], en_initial)

    # one sub-corpus: joint and single are the same computation, bit for bit
    tw = synth.make_twin_corpus("xa", "xb", 30, seed=6)
    runs = []
    for mode in ("single", "joint"):
        va, vb = Vocabulary(), Vocabulary()
        pairs = _pairs_from_twin(tw, va, vb)
        corpus = ParallelCorpus("xa", "xb", pairs)
        cfg = TrainConfig(
            d=4, margin=4.0, k=2, lam=1.0, step=0.05, batch=5, epochs=2,
            kind=ADD, mode=mode, seed=8,
        )
        b, s = _build_model({"xa": va, "xb": vb}, cfg)
        train_joint([corpus], b, cfg, s)
        runs.append((b, s))
    (b1, s1), (b2, s2) = runs
    identical = all(
        np.array_equal(b1.table(l).matrix, b2.table(l).matrix)
        and np.array_equal(s1.acc[l], s2.acc[l])
        for l in ("xa", "xb")
    )

    elapsed = time.perf_counter() - t0
    ok = shared_visible and identical and elapsed < 5.0
    criterion(
        5, ok,
        f"pivot update from sub-corpus 1 visible to sub-corpus 2: {shared_visible}; "
        f"joint([c]) == single(c): {identical} ({elapsed:.1f}s)",
    )
    assert shared_visible
    assert identical
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 6. single-sentence documents reduce to the sentence objective


def test_single_sentence_documents_reduce_to_pairs(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    cases = 100
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        bundle = make_bundle({"a": 4, "b": 5}, d, int(rng.integers(1 << 30)), ADD)
        sa, sb = rand_sentence(rng, 4), rand_sentence(rng, 5)
        noise = [rand_sentence(rng, 5) for _ in range(k)]
        margin = float(rng.uniform(0.1, 3.0))

        lb_pair, g_pair = pair_loss_and_grads(
            ParallelPair(sa, sb, 0), noise, bundle, ADD, margin, ("a", "b")
        )
        doc_pair = DocumentPair(
            LabeledDocument("a0", "a", set(), [sa]),
            LabeledDocument("b0", "b", set(), [sb]),
            0,
        )
        noise_docs = [
            LabeledDocument(f"n{i}", "b", set(), [ns]) for i, ns in enumerate(noise)
        ]
        lb_doc, g_doc = doc_loss_and_grads(
            doc_pair, noise_docs, bundle, ADD, margin, False, ("a", "b")
        )

        worst = max(worst, abs(lb_doc.hinge_total - lb_pair.hinge_total))
        assert lb_doc.active_noise_count == lb_pair.active_noise_count
        assert set(g_doc) == set(g_pair)
        for key, g in g_pair.items():
            worst = max(worst, float(np.abs(g_doc[key] - g).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    criterion(6, ok, f"doc vs pair max abs deviation {worst:.1e} over {cases} cases ({elapsed:.1f}s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 7. reproducibility and persistence


def test_reproducibility_and_persistence(criterion, tmp_path):
    t0 = time.perf_counter()

    # (a) re-running a manifest reproduces every output byte for byte
    data = tmp_path / "data"
    data.mkdir()
    tw = synth.make_twin_corpus("la", "lb", 40, seed=2)
    synth.write_parallel_files(tw, data / "la.txt", data / "lb.txt")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv = [
        "train",
        "--pair", f"la:lb:{data / 'la.txt'}:{data / 'lb.txt'}",
        "--dim", "8", "--noise", "3", "--batch", "10", "--epochs", "3",
        "--seed", "4", "--out", str(out1),
    ]
    assert cli_main(argv) == 0
    replay = []
    for line in (out1 / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key in ("subcommand", "out"):
            continue
        if key in ("doc_signal", "force"):
            if value == "true":
                replay.append(f"--{key.replace('_', '-')}")
            continue
        replay.extend([f"--{key.replace('_', '-')}", value])
    assert cli_main(["train", *replay, "--out", str(out2)]) == 0
    artifacts = ("la.emb", "lb.emb", "la.adagrad", "lb.adagrad", "meta.txt", "loss_log.tsv")
    replay_identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in artifacts
    )

    # (b) checkpoint at an epoch boundary, resume, end up bit-identical
    va, vb = Vocabulary(), Vocabulary()
    pairs = _pairs_from_twin(tw, va, vb)
    config = TrainConfig(
        d=4, margin=4.0, k=2, lam=1.0, step=0.05, batch=5, epochs=4, kind=ADD, seed=9
    )
    full_bundle, full_state = _build_model({"la": va, "lb": vb}, config)
    train_joint([ParallelCorpus("la", "lb", pairs)], full_bundle, config, full_state)

    ckpt_dir = tmp_path / "ckpt"
    part_bundle, part_state = _build_model({"la": va, "lb": vb}, config)

    def snapshot(epoch, report):
        if epoch == 1:
            checkpoint(part_bundle, part_state, ckpt_dir, config, epoch + 1)

    train_joint(
        [ParallelCorpus("la", "lb", pairs)], part_bundle, config, part_state, on_epoch=snapshot
    )
    res_bundle, res_state, res_config, res_epoch = resume(ckpt_dir)
    assert res_epoch == 2
    res_pairs = [
        ParallelPair(
            Sentence(tuple(res_bundle.vocab("la")[t] for t in sa)),
            Sentence(tuple(res_bundle.vocab("lb")[t] for t in sb)),
            i,
        )
        for i, (sa, sb) in enumerate(zip(tw.sents_a, tw.sents_b))
    ]
    train_joint(
        [ParallelCorpus("la", "lb", res_pairs)], res_bundle, res_config, res_state,
        start_epoch=res_epoch,
    )
    resume_identical = all(
        np.array_equal(full_bundle.table(l).matrix, res_bundle.table(l).matrix)
        and np.array_equal(full_state.acc[l], res_state.acc[l])
        for l in ("la", "lb")
    )

    # (c) export -> import -> export is a fixed point of the text format
    exp1, exp2 = tmp_path / "a.emb", tmp_path / "b.emb"
    export_table(full_bundle.table("la"), full_bundle.vocab("la"), exp1)
    vocab_im, table_im = import_table(exp1, "la")
    export_table(table_im, vocab_im, exp2)
    export_identical = exp1.read_bytes() == exp2.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = replay_identical and resume_identical and export_identical and elapsed < 30.0
    criterion(
        7, ok,
        f"manifest replay identical: {replay_identical}; resumed == uninterrupted: "
        f"{resume_identical}; export round trip identical: {export_identical} ({elapsed:.1f}s)",
    )
    assert replay_identical
    assert resume_identical
    assert export_identical
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 8. classifier correctness


def test_classifier_correctness(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    examples = []
    for i in range(40):
        c = i % 4
        x = 6.0 * np.eye(4)[c] + 0.3 * rng.normal(size=4)
        examples.append((DocVector(x, f"doc{i}", {str(c)}), c))
    model = train_multiclass(examples, epochs=10, seed=0)
    train_acc = float(
        np.mean([model.predict(dv.vector) == c for dv, c in examples])
    )

    fixtures_exact = (
        micro_f1([{"a", "c"}], [{"a", "b"}]) == 0.5  # TP=1, FP=1, FN=1
        and micro_f1([{"a"}, {"b"}], [{"a"}, {"b"}]) == 1.0
        and micro_f1([set()], [{"a"}]) == 0.0
        and micro_f1([{"b"}], [{"a"}]) == 0.0
    )

    elapsed = time.perf_counter() - t0
    ok = train_acc == 1.0 and fixtures_exact and elapsed < 5.0
    criterion(
        8, ok,
        f"separable training accuracy {train_acc:.2f} within 10 epochs; "
        f"micro-F1 fixtures exact: {fixtures_exact} ({elapsed:.1f}s)",
    )
    assert train_acc == 1.0
    assert fixtures_exact
    assert elapsed < 5.0
