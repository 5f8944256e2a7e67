import dataclasses
import shutil

import mpmath as mp
import numpy as np
import pytest

from jointvec import synth
from jointvec.composition import CompositionKind, compose
from jointvec.corpus import (
    DocumentCorpus,
    DocumentPair,
    LabeledDocument,
    ParallelCorpus,
    ParallelPair,
    Sentence,
    sample_indices_excluding,
)
from jointvec.embeddings import ModelBundle, Vocabulary, build_vocab, derive_seed, init_table
from jointvec.errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    ContractError,
    SamplingError,
)
from jointvec.objective import energy
from jointvec.training import (
    AdaGradState,
    TrainConfig,
    adagrad_apply,
    checkpoint,
    resume,
    train_joint,
)

from conftest import make_bundle

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# config

def test_train_config_margin_defaults_to_d():
    assert TrainConfig(d=16).margin == 16.0
    assert TrainConfig(d=16, margin=2.5).margin == 2.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d": 0},
        {"margin": 0.0},
        {"margin": -1.0},
        {"k": 0},
        {"lam": -0.1},
        {"step": 0.0},
        {"batch": 0},
        {"epochs": 0},
        {"epsilon": 0.0},
        {"mode": "parallel"},
        {"kind": "tri"},
        {"seed": -1},
    ],
)
def test_train_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# adagrad

def _scalar_setup(w0=1.0, lam=0.0, step=0.1):
    bundle = make_bundle({"a": 1}, 1, seed=0)
    bundle.table("a").matrix[0, 0] = w0
    state = AdaGradState(bundle)
    config = TrainConfig(d=1, margin=1.0, lam=lam, step=step)
    return bundle, state, config


def test_adagrad_hand_value_against_mpmath():
    bundle, state, config = _scalar_setup()
    adagrad_apply(bundle, {"a": (np.array([0]), np.array([[2.0]]))}, state, config)
    assert state.acc["a"][0, 0] == 4.0
    delta = bundle.table("a").matrix[0, 0] - 1.0
    want = -float(mp.mpf("0.1") * 2 / mp.sqrt(4 + mp.mpf("1e-6")))
    assert delta == pytest.approx(want, abs=1e-15)
    assert delta == pytest.approx(-0.09999999, abs=1e-8)


def test_adagrad_zero_gradient_touched_row_is_noop():
    bundle, state, config = _scalar_setup()
    adagrad_apply(bundle, {"a": (np.array([0]), np.array([[0.0]]))}, state, config)
    assert bundle.table("a").matrix[0, 0] == 1.0
    assert state.acc["a"][0, 0] == 0.0


def test_adagrad_second_identical_step_is_smaller():
    bundle, state, config = _scalar_setup()
    w = bundle.table("a").matrix
    adagrad_apply(bundle, {"a": (np.array([0]), np.array([[2.0]]))}, state, config)
    first = abs(w[0, 0] - 1.0)
    before = w[0, 0]
    adagrad_apply(bundle, {"a": (np.array([0]), np.array([[2.0]]))}, state, config)
    assert abs(w[0, 0] - before) < first


def test_adagrad_regularizes_only_touched_rows():
    bundle = make_bundle({"a": 3}, 2, seed=1)
    before = bundle.table("a").matrix.copy()
    state = AdaGradState(bundle)
    config = TrainConfig(d=2, margin=1.0, lam=1.0)
    adagrad_apply(bundle, {"a": (np.array([0]), np.zeros((1, 2)))}, state, config)
    mat = bundle.table("a").matrix
    assert not np.array_equal(mat[0], before[0])  # lambda*w moves a touched row
    assert np.array_equal(mat[1:], before[1:])
    assert np.all(state.acc["a"][1:] == 0.0)


def test_adagrad_rejects_non_finite_without_mutating():
    bundle, state, config = _scalar_setup()
    bundle2 = make_bundle({"a": 2}, 1, seed=3)
    state2 = AdaGradState(bundle2)
    before = bundle2.table("a").matrix.copy()
    grads = {"a": (np.array([0, 1]), np.array([[1.0], [np.nan]]))}
    with pytest.raises(ContractError):
        adagrad_apply(bundle2, grads, state2, config)
    assert np.array_equal(bundle2.table("a").matrix, before)
    assert np.all(state2.acc["a"] == 0.0)


def test_adagrad_fixed_point_with_zero_lambda_and_grads():
    bundle, state, config = _scalar_setup(lam=0.0)
    before = bundle.table("a").matrix.copy()
    adagrad_apply(bundle, {}, state, config)
    adagrad_apply(bundle, {"a": (np.array([0]), np.zeros((1, 1)))}, state, config)
    assert np.array_equal(bundle.table("a").matrix, before)


def test_adagrad_accumulator_monotone():
    rng = np.random.default_rng(5)
    bundle = make_bundle({"a": 4}, 3, seed=2)
    state = AdaGradState(bundle)
    config = TrainConfig(d=3, margin=1.0, lam=0.5, step=0.05)
    prev = {l: a.copy() for l, a in state.acc.items()}
    for _ in range(50):
        grads = {"a": (np.array([rng.integers(0, 4)]), rng.normal(size=(1, 3)))}
        adagrad_apply(bundle, grads, state, config)
        for lang, acc in state.acc.items():
            assert np.all(acc >= prev[lang])
            prev[lang] = acc.copy()


def test_adagrad_state_requires_source():
    with pytest.raises(ContractError):
        AdaGradState()


# ---------------------------------------------------------------------------
# corpus helpers

def corpus_from_twin(tw):
    va = build_vocab(tw.sents_a)
    vb = build_vocab(tw.sents_b)
    pairs = [
        ParallelPair(
            Sentence(tuple(va[t] for t in sa)),
            Sentence(tuple(vb[t] for t in sb)),
            i,
        )
        for i, (sa, sb) in enumerate(zip(tw.sents_a, tw.sents_b))
    ]
    return va, vb, ParallelCorpus(tw.lang_a, tw.lang_b, pairs)


def build_model(vocabs, config):
    tables = {
        lang: init_table(len(vocabs[lang]), config.d, derive_seed(config.seed, li), lang)
        for li, lang in enumerate(sorted(vocabs))
    }
    return ModelBundle(vocabs, tables, config.kind)


def _toy_setup(n=20, corpus_seed=5, **overrides):
    tw = synth.make_twin_corpus("la", "lb", n, seed=corpus_seed)
    va, vb, corpus = corpus_from_twin(tw)
    kwargs = dict(d=4, margin=4.0, k=2, lam=1.0, step=0.05, batch=5, epochs=2, seed=7)
    kwargs.update(overrides)
    config = TrainConfig(**kwargs)
    bundle = build_model({"la": va, "lb": vb}, config)
    return corpus, bundle, config


# ---------------------------------------------------------------------------
# training behavior

def test_toy_training_drives_loss_down():
    corpus, bundle, config = _toy_setup(
        n=50, d=8, margin=8.0, k=5, batch=10, epochs=50
    )
    report = train_joint([corpus], bundle, config)
    assert len(report.epoch_losses) == 50
    assert report.epoch_losses[-1] < 0.1 * report.epoch_losses[0]
    assert all(0.0 <= f <= 1.0 for f in report.active_fractions)

    # aligned pairs should now sit closer than any of 10 fresh noise draws
    rng = np.random.default_rng(123)
    emb_a = bundle.table("la").matrix
    emb_b = bundle.table("lb").matrix
    kind = config.kind
    ranked = 0
    for pair in corpus.pairs:
        fa = compose(emb_a[list(pair.source.ids)], kind).output
        gb = compose(emb_b[list(pair.target.ids)], kind).output
        e_pos = energy(fa, gb)
        draws = sample_indices_excluding(len(corpus.pairs), pair.index, 10, rng)
        e_neg = min(
            energy(fa, compose(emb_b[list(corpus.pairs[i].target.ids)], kind).output)
            for i in draws
        )
        if e_pos < e_neg:
            ranked += 1
    assert ranked / len(corpus.pairs) >= 0.9


def test_one_update_per_epoch_when_batch_covers_corpus(monkeypatch):
    corpus, bundle, config = _toy_setup(n=12, batch=12, epochs=3)
    calls = []
    real = adagrad_apply
    monkeypatch.setattr(
        "jointvec.training.adagrad_apply",
        lambda *args, **kw: (calls.append(1), real(*args, **kw))[1],
    )
    train_joint([corpus], bundle, config)
    assert len(calls) == 3


def test_update_count_follows_batching(monkeypatch):
    corpus, bundle, config = _toy_setup(n=12, batch=5, epochs=2)
    calls = []
    real = adagrad_apply
    monkeypatch.setattr(
        "jointvec.training.adagrad_apply",
        lambda *args, **kw: (calls.append(1), real(*args, **kw))[1],
    )
    train_joint([corpus], bundle, config)
    assert len(calls) == 2 * 3  # ceil(12 / 5) batches per epoch


def test_training_bitwise_deterministic():
    runs = []
    for _ in range(2):
        corpus, bundle, config = _toy_setup()
        state = AdaGradState(bundle)
        train_joint([corpus], bundle, config, state)
        runs.append((bundle, state))
    for lang in ("la", "lb"):
        assert np.array_equal(
            runs[0][0].table(lang).matrix, runs[1][0].table(lang).matrix
        )
        assert np.array_equal(runs[0][1].acc[lang], runs[1][1].acc[lang])


def test_joint_mode_single_corpus_equals_single_mode():
    corpus, bundle1, config = _toy_setup()
    train_joint([corpus], bundle1, config)
    corpus2, bundle2, config2 = _toy_setup(mode="joint")
    train_joint([corpus2], bundle2, config2)
    for lang in ("la", "lb"):
        assert np.array_equal(bundle1.table(lang).matrix, bundle2.table(lang).matrix)


def test_train_single_runs_with_bi_composition():
    corpus, bundle, config = _toy_setup(kind=CompositionKind.BI)
    before = bundle.table("la").matrix.copy()
    report = train_joint([corpus], bundle, config)
    assert len(report.epoch_losses) == config.epochs
    assert not np.array_equal(bundle.table("la").matrix, before)


def test_train_joint_validation_errors():
    corpus, bundle, config = _toy_setup()
    with pytest.raises(ConfigError):
        train_joint([], bundle, config)
    other = ParallelCorpus("xx", "lb", corpus.pairs)
    with pytest.raises(ConfigError):
        train_joint([corpus, other], bundle, config)
    with pytest.raises(ConfigError):
        train_joint([ParallelCorpus("la", "zz", corpus.pairs)], bundle, config)
    with pytest.raises(ConfigError):
        train_joint([corpus], bundle, config, start_epoch=3)
    doc_config = TrainConfig(d=4, margin=4.0, doc_signal=True)
    with pytest.raises(ConfigError):
        train_joint([corpus], bundle, doc_config)


def _doc_corpus(vocab_size=10, n_pairs=6, n_sents=2, seed=0):
    rng = np.random.default_rng(seed)

    def doc(lang, idx, n):
        sents = [
            Sentence(tuple(int(rng.integers(0, vocab_size)) for _ in range(2)))
            for _ in range(n)
        ]
        return LabeledDocument(f"{lang}{idx}", lang, set(), sents)

    pairs = [
        DocumentPair(doc("a", i, n_sents), doc("b", i, n_sents), i) for i in range(n_pairs)
    ]
    return DocumentCorpus("a", "b", pairs)


def test_doc_signal_training_runs():
    corpus = _doc_corpus()
    config = TrainConfig(d=4, margin=4.0, k=2, batch=3, epochs=2, doc_signal=True, seed=3)
    bundle = make_bundle({"a": 10, "b": 10}, 4, seed=1)
    before = bundle.table("a").matrix.copy()
    report = train_joint([corpus], bundle, config)
    assert len(report.epoch_losses) == 2
    assert not np.array_equal(bundle.table("a").matrix, before)


def test_doc_signal_rejects_unaligned_pair():
    corpus = _doc_corpus()
    bad = _doc_corpus(n_sents=2)
    src = bad.pairs[0].source
    tgt = LabeledDocument("b0", "b", set(), bad.pairs[0].target.sentences[:1])
    bad.pairs[0] = DocumentPair(src, tgt, 0)
    config = TrainConfig(d=4, margin=4.0, k=2, batch=3, epochs=1, doc_signal=True, seed=3)
    bundle = make_bundle({"a": 10, "b": 10}, 4, seed=1)
    with pytest.raises(AlignmentError, match="pair 0"):
        train_joint([bad], bundle, config)


@pytest.mark.parametrize("case", ["unaligned", "one_pair", "empty"])
def test_joint_run_checks_every_sub_corpus_before_first_update(case):
    # the faulty sub-corpus comes second, so its first batch would run only
    # after the first sub-corpus has updated the pivot table
    pairs = _doc_corpus(seed=1).pairs
    if case == "unaligned":
        p = pairs[1]
        short = LabeledDocument("c1", "c", set(), p.target.sentences[:1])
        pairs[1] = DocumentPair(p.source, short, 1)
        error, match = AlignmentError, "document pair 1 has 2 vs 1"
    elif case == "one_pair":
        del pairs[1:]
        error, match = SamplingError, "need at least 2"
    else:
        empty = LabeledDocument("e", "a", set(), [])
        pairs[1] = DocumentPair(empty, empty, 1)
        error, match = ContractError, "document pair 1 has no sentences"
    corpora = [_doc_corpus(), DocumentCorpus("a", "c", pairs)]
    config = TrainConfig(
        d=4, margin=4.0, k=2, batch=3, epochs=1, doc_signal=True, mode="joint", seed=3
    )
    bundle = make_bundle({"a": 10, "b": 10, "c": 10}, 4, seed=1)
    state = AdaGradState(bundle)
    before = {l: (bundle.table(l).matrix.tobytes(), state.acc[l].tobytes()) for l in "abc"}
    with pytest.raises(error, match=match):
        train_joint(corpora, bundle, config, state)
    for lang, (table, acc) in before.items():
        assert bundle.table(lang).matrix.tobytes() == table
        assert state.acc[lang].tobytes() == acc


# ---------------------------------------------------------------------------
# checkpoint / resume

def test_checkpoint_resume_round_trip(tmp_path):
    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    train_joint([corpus], bundle, config, state)
    checkpoint(bundle, state, tmp_path, config, epoch=2)
    bundle2, state2, config2, epoch = resume(tmp_path)
    assert epoch == 2
    assert config2 == config
    assert bundle2.languages == bundle.languages
    for lang in bundle.languages:
        assert bundle2.vocab(lang).tokens == bundle.vocab(lang).tokens
        assert np.array_equal(bundle2.table(lang).matrix, bundle.table(lang).matrix)
        assert np.array_equal(state2.acc[lang], state.acc[lang])


def test_every_config_field_round_trips_through_checkpoint(tmp_path):
    non_default = dict(
        d=3, margin=2.5, k=4, lam=0.25, step=0.5, batch=9, epochs=6,
        kind=CompositionKind.BI, doc_signal=True, mode="joint", seed=11, epsilon=1e-8,
    )
    fields = dataclasses.fields(TrainConfig)
    assert set(non_default) == {f.name for f in fields}
    assert all(non_default[f.name] != f.default for f in fields)
    config = TrainConfig(**non_default)
    bundle = make_bundle({"la": 2, "lb": 3}, 3, seed=0)
    checkpoint(bundle, AdaGradState(bundle), tmp_path, config, epoch=1)
    assert resume(tmp_path)[2] == config

    # a checkpoint written while TrainConfig still had a threads field
    with open(tmp_path / "meta.txt", "a", encoding="utf-8") as fh:
        fh.write("threads=1\n")
    assert resume(tmp_path)[2] == config


def test_checkpoint_twice_identical_bytes(tmp_path):
    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    one = tmp_path / "one"
    two = tmp_path / "two"
    checkpoint(bundle, state, one, config, epoch=0)
    checkpoint(bundle, state, two, config, epoch=0)
    for name in sorted(p.name for p in one.iterdir()):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_resume_continue_matches_uninterrupted(tmp_path):
    full_corpus, full_bundle, full_config = _toy_setup(n=12, epochs=4)
    train_joint([full_corpus], full_bundle, full_config)

    corpus, bundle, config = _toy_setup(n=12, epochs=4)
    state = AdaGradState(bundle)

    def snap(epoch, report):
        if epoch == 1:
            checkpoint(bundle, state, tmp_path, config, epoch + 1)

    train_joint([corpus], bundle, config, state, on_epoch=snap)

    bundle2, state2, config2, epoch2 = resume(tmp_path)
    assert epoch2 == 2
    corpus2, _, _ = _toy_setup(n=12, epochs=4)
    train_joint([corpus2], bundle2, config2, state2, start_epoch=epoch2)
    for lang in ("la", "lb"):
        assert np.array_equal(
            bundle2.table(lang).matrix, full_bundle.table(lang).matrix
        )


def test_resume_errors(tmp_path):
    with pytest.raises(CheckpointError):
        resume(tmp_path / "missing")

    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    good = tmp_path / "good"
    checkpoint(bundle, state, good, config, epoch=1)

    broken = tmp_path / "no_emb"
    shutil.copytree(good, broken)
    (broken / "lb.emb").unlink()
    with pytest.raises(CheckpointError):
        resume(broken)

    negacc = tmp_path / "negacc"
    shutil.copytree(good, negacc)
    lines = (negacc / "la.adagrad").read_text(encoding="utf-8").splitlines()
    word, _, _ = lines[1].partition(" ")
    lines[1] = word + " " + " ".join(["-1.0"] * config.d)
    (negacc / "la.adagrad").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="negative"):
        resume(negacc)

    badvocab = tmp_path / "badvocab"
    shutil.copytree(good, badvocab)
    lines = (badvocab / "la.adagrad").read_text(encoding="utf-8").splitlines()
    _, _, rest = lines[1].partition(" ")
    lines[1] = "imposter " + rest
    (badvocab / "la.adagrad").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="vocabulary"):
        resume(badvocab)

    badmeta = tmp_path / "badmeta"
    shutil.copytree(good, badmeta)
    (badmeta / "meta.txt").write_text("no equals sign here\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        resume(badmeta)

    missingkey = tmp_path / "missingkey"
    shutil.copytree(good, missingkey)
    meta = (missingkey / "meta.txt").read_text(encoding="utf-8").splitlines()
    meta = [ln for ln in meta if not ln.startswith("languages=")]
    (missingkey / "meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="languages"):
        resume(missingkey)
