import ctypes
import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_model as ref

from jointvec import native, synth, training
from jointvec.composition import CompositionKind, compose
from jointvec.corpus import (
    DocumentCorpus,
    DocumentPair,
    LabeledDocument,
    ParallelCorpus,
    ParallelPair,
    Sentence,
    pack_sentences,
    sample_indices_excluding,
)
from jointvec.embeddings import (
    ModelBundle,
    Vocabulary,
    derive_seed,
    export_table,
    init_table,
    nearest_neighbors,
)
from jointvec.errors import ContractError, UserError
from jointvec.objective import batch_loss_and_grads, energy
from jointvec.training import (
    AdaGradState,
    TrainConfig,
    adagrad_apply,
    checkpoint,
    load_model,
    resume,
    train_joint,
)

from conftest import HOSTILE_CHECKPOINTS, damage_checkpoint, make_bundle
from test_embeddings import _brute_force_neighbors

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
        {"mode": "parallel"},
        {"kind": "tri"},
        {"seed": -1},
        {"margin": math.inf},
        {"lam": math.inf},
        {"step": math.inf},
    ],
)
def test_train_config_rejects_invalid_values(kwargs):
    (name,) = kwargs
    label = {"lam": "lambda", "k": r"k \(noise count\)"}.get(name, name)
    with pytest.raises(UserError, match=f"^{label} must be"):
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
    assert adagrad_apply(bundle2, grads, state2, config) is False
    assert np.array_equal(bundle2.table("a").matrix, before)
    assert np.all(state2.acc["a"] == 0.0)


def test_adagrad_overflow_in_one_language_writes_no_language():
    """Language a's update is finite, b's overflows from finite gradients: neither is written.

    In the second input b's overflowing row is at index 129 of 2 * 128 + 3 touched
    rows at d = 128: in the second block, after a whole block computed finite
    and before a third that is finite again.
    """
    for d, n_b in [(2, 1), (128, 2 * 128 + 3)]:
        bundle = make_bundle({"a": 3, "b": n_b + 2}, d, seed=4)
        state = AdaGradState(bundle)
        state.acc["b"][:] = 1.0
        config = TrainConfig(d=d, margin=1.0, lam=1.0)
        before = {lang: (bundle.table(lang).matrix.copy(), state.acc[lang].copy()) for lang in "ab"}
        g_b = np.full((n_b, d), 0.5)
        g_b[n_b // 2, :2] = [1e200, -1e200]  # its square overflows b's G
        grads = {
            "a": (np.array([0, 2]), np.full((2, d), 0.5)),
            "b": (np.arange(1, n_b + 1), g_b),
        }
        with np.errstate(over="ignore", invalid="ignore"):  # as train_joint runs it
            assert adagrad_apply(bundle, grads, state, config) is False
        for lang, (table, acc) in before.items():
            assert np.array_equal(bundle.table(lang).matrix, table)
            assert np.array_equal(state.acc[lang], acc)
        # language a alone updates: its rows were finite all along
        assert adagrad_apply(bundle, {"a": grads["a"]}, state, config) is True
        assert not np.array_equal(bundle.table("a").matrix, before["a"][0])


def _adagrad_unblocked(w, acc, g, lam, step):
    """New (rows, accumulators) of one language, by whole-array passes in adagrad_apply's order."""
    w, acc = w.copy(), acc.copy()
    g_eff = lam * w
    g_eff += g
    scratch = np.multiply(g_eff, g_eff)
    acc += scratch
    g_eff *= step
    g_eff /= np.sqrt(np.add(acc, 1e-6, out=scratch), out=scratch)
    w -= g_eff
    return w, acc


@st.composite
def _adagrad_block_edges(draw):
    """(d, touched rows, lam, step, seed), with the rows at an edge of 16,384 // d row blocks."""
    d = draw(st.sampled_from([1, 3, 128, 200]))
    b = max(1, 16384 // d)
    n = draw(st.sampled_from([1, b - 1, b, b + 1, 2 * b + 3]))
    lam = draw(st.sampled_from([0.0, 0.3, 1.0]))
    step = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return d, n, lam, step, draw(st.integers(0, 2**32 - 1))


@given(case=_adagrad_block_edges())
@settings(max_examples=60, deadline=None)
def test_adagrad_blocks_equal_whole_array_passes_bit_for_bit(case):
    d, n, lam, step, seed = case
    rng = np.random.default_rng(seed)
    v = n + 5
    bundle = make_bundle({"a": v}, d, seed=seed)
    bundle.table("a").matrix *= rng.choice([1e-3, 1.0, 1e3])
    state = AdaGradState(acc={"a": rng.exponential(size=(v, d))})
    ids = rng.permutation(v)[:n]  # unique, in no particular order
    g = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
    g_copy = g.copy()
    want_w, want_acc = bundle.table("a").matrix.copy(), state.acc["a"].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        rows, accs = _adagrad_unblocked(want_w[ids], want_acc[ids], g, lam, step)
        finite = bool(np.isfinite(rows).all() and np.isfinite(accs).all())
        if finite:
            want_w[ids], want_acc[ids] = rows, accs
        config = TrainConfig(d=d, margin=1.0, lam=lam, step=step)
        assert adagrad_apply(bundle, {"a": (ids, g)}, state, config) is finite
    assert np.array_equal(bundle.table("a").matrix, want_w)
    assert np.array_equal(state.acc["a"], want_acc)
    assert np.array_equal(g, g_copy)


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
    va = Vocabulary(t for s in tw.sents_a for t in s)
    vb = Vocabulary(t for s in tw.sents_b for t in s)
    pairs = [
        ParallelPair(Sentence(tuple(va[t] for t in sa)), Sentence(tuple(vb[t] for t in sb)))
        for sa, sb in zip(tw.sents_a, tw.sents_b)
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
    for i, pair in enumerate(corpus.pairs):
        fa = compose(emb_a[list(pair.source.ids)], kind).output
        gb = compose(emb_b[list(pair.target.ids)], kind).output
        e_pos = energy(fa, gb)
        draws = sample_indices_excluding(len(corpus.pairs), i, 10, rng)
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


def test_overflowing_hinge_ends_training_before_its_update(monkeypatch):
    """A NaN hinge total raises UserError; tables stay as the last update left them."""
    corpus, bundle, config = _toy_setup(step=1e200)
    state = AdaGradState(bundle)
    snapshots = []
    real = adagrad_apply

    def recording(*args):
        assert real(*args)
        snapshots.append({lang: (bundle.table(lang).matrix.copy(), state.acc[lang].copy())
                          for lang in ("la", "lb")})
        return True

    monkeypatch.setattr("jointvec.training.adagrad_apply", recording)
    with pytest.raises(UserError, match=r"epoch 0, batch (\d+): loss nan") as exc:
        train_joint([corpus], bundle, config, state)
    assert re.search(r"batch (\d+)", str(exc.value)).group(1) == str(len(snapshots))
    for lang, (table, acc) in snapshots[-1].items():
        assert np.array_equal(bundle.table(lang).matrix, table)
        assert np.array_equal(state.acc[lang], acc)


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


# ---------------------------------------------------------------------------
# whole ADD epochs against reference_model.train_add

# Gaps measured over 1,200 random runs of the strategy below, widened to
# d <= 8, up to 39 pairs and 7 words: epoch losses within 2.9e-14 of their
# active terms' scale, the sum of margin + E(a, g) + E(a, n) over them, and
# tables within 6.9e-13. The table gap peaks where a gradient cancels to
# rounding noise and AdaGrad's first step scales it by step / sqrt(EPSILON).
_LOSS_TOL = 1e-12  # of an epoch's active terms' scale
_TABLE_TOL = 1e-11
_KINK = 1e-9  # a term within this share of its scale of 0 may take either side


@st.composite
def _add_runs(draw):
    n = draw(st.integers(2, 24))
    return dict(
        n=n, va=draw(st.integers(1, 10)), vb=draw(st.integers(1, 10)), d=draw(st.integers(1, 6)),
        max_len=draw(st.integers(1, 5)), k=draw(st.integers(1, 5)),
        batch=draw(st.integers(1, n)), epochs=draw(st.integers(1, 3)),
        margin=draw(st.floats(0.1, 4.0)), step=draw(st.floats(0.01, 0.3)),
        lam=draw(st.just(0.0) | st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**32 - 1)),
    )


def _train_add_noise(erng, n: int, pairs, k: int) -> np.ndarray:
    """train_add's noise draws: k per pair in batch order, each redrawn while it names the pair."""
    noise = np.empty((len(pairs), k), dtype=np.int64)
    for row, pi in zip(noise, pairs):
        for j in range(k):
            row[j] = erng.integers(0, n)
            while row[j] == pi:
                row[j] = erng.integers(0, n)
    return noise


def _hinge_scales(tables, corpora, pairs, noise, margin) -> list:
    """(hinge, margin + E(a, g) + E(a, n)) of each term, by reference arithmetic."""
    (emb_a, emb_b), (ca, cb) = tables, corpora
    terms = []
    for pi, row in zip(pairs, noise):
        fa = ref.compose(emb_a, ca[pi], "add")
        e_pos = ref.energy(fa, ref.compose(emb_b, cb[pi], "add"))
        for ni in row:
            e_neg = ref.energy(fa, ref.compose(emb_b, cb[ni], "add"))
            terms.append((margin + e_pos - e_neg, margin + e_pos + e_neg))
    return terms


@given(run=_add_runs())
@settings(max_examples=50, deadline=None)
def test_add_epochs_match_reference_trainer(run):
    """batch_loss_and_grads and adagrad_apply, fed train_add's draws, follow its trajectory.

    train_add's tables are make_bundle's draws from the same seed; each
    epoch replays its permutation and rejection-sampled noise from
    default_rng(seed + 7919 * (epoch + 1)). Covers the hinge, the scatter
    into word rows and the AdaGrad update over whole epochs.
    """
    rng = np.random.default_rng(run["seed"])
    corpora = tuple(
        [rng.integers(0, v, rng.integers(1, run["max_len"] + 1)).tolist() for _ in range(run["n"])]
        for v in (run["va"], run["vb"])
    )
    bundle = make_bundle({"a": run["va"], "b": run["vb"]}, run["d"], run["seed"])
    config = TrainConfig(**{key: run[key] for key in
                            ("d", "margin", "k", "lam", "step", "batch", "epochs", "seed")})
    state = AdaGradState(bundle)
    src, tgt = (pack_sentences([Sentence(tuple(s)) for s in c]) for c in corpora)
    losses, scales = [], []
    for epoch in range(config.epochs):
        erng = np.random.default_rng(config.seed + 7919 * (epoch + 1))
        order = erng.permutation(run["n"])
        losses.append(0.0)
        scales.append(0.0)
        for start in range(0, run["n"], config.batch):
            pairs = order[start:start + config.batch]
            noise = _train_add_noise(erng, run["n"], pairs, config.k)
            tables = (bundle.table("a").matrix, bundle.table("b").matrix)
            for h, scale in _hinge_scales(tables, corpora, pairs, noise, config.margin):
                assume(abs(h) > _KINK * scale)
                scales[-1] += scale if h > 0 else 0.0
            breakdown, grads = batch_loss_and_grads(
                src, tgt, pairs, noise, bundle, CompositionKind.ADD, config.margin, ("a", "b")
            )
            assert adagrad_apply(bundle, grads, state, config)
            losses[-1] += breakdown.hinge_total
    want_a, want_b, want_losses = ref.train_add(
        *corpora, run["va"], run["vb"], config.d, config.margin, config.k, config.step,
        config.lam, config.batch, config.epochs, config.seed,
    )
    for got, want, scale in zip(losses, want_losses, scales):
        assert abs(got - want) <= _LOSS_TOL * scale
    assert np.abs(bundle.table("a").matrix - want_a).max() <= _TABLE_TOL
    assert np.abs(bundle.table("b").matrix - want_b).max() <= _TABLE_TOL


# ---------------------------------------------------------------------------
# whole joint ADD epochs over sub-corpora that share a pivot, replayed term by term

@st.composite
def _joint_runs(draw):
    counts = draw(st.lists(st.integers(2, 12), min_size=2, max_size=3))
    return dict(
        counts=counts, vocab=draw(st.lists(st.integers(1, 8), min_size=4, max_size=4)),
        d=draw(st.integers(1, 4)), max_len=draw(st.integers(1, 4)), k=draw(st.integers(1, 3)),
        batch=draw(st.integers(1, max(counts))), epochs=draw(st.integers(1, 2)),
        margin=draw(st.floats(0.1, 4.0)), step=draw(st.floats(0.01, 0.3)),
        lam=draw(st.just(0.0) | st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**32 - 1)),
    )


def _joint_replay(tables: dict, corpora: list, config: TrainConfig) -> tuple:
    """train_joint's epochs over ADD sentence sub-corpora, spelled out term by term.

    `corpora` holds (target language, pivot sentences, target sentences)
    per sub-corpus; `tables` maps each language, the pivot "p" included, to
    one matrix, updated in place. Per epoch, sub-corpus ci owns one
    generator, default_rng([seed + epoch, ci]): its permutation first, then
    its batches' noise, k draws per pair that skip the pair itself. Batches
    take turns round-robin, sub-corpus order within a turn. Returns the
    per-epoch hinge totals and their active terms' scales.
    """
    acc = {lang: np.zeros_like(m) for lang, m in tables.items()}
    losses, scales = [], []
    for epoch in range(config.epochs):
        rngs, chunks = [], []
        for ci, (_, src, _) in enumerate(corpora):
            rngs.append(np.random.default_rng([config.seed + epoch, ci]))
            order = rngs[-1].permutation(len(src))
            chunks.append([order[i:i + config.batch] for i in range(0, len(src), config.batch)])
        losses.append(0.0)
        scales.append(0.0)
        for turn in range(max(len(c) for c in chunks)):
            for ci, (lang, src, tgt) in enumerate(corpora):
                if turn >= len(chunks[ci]):
                    continue
                pairs = chunks[ci][turn]
                noise = rngs[ci].integers(0, len(src) - 1, size=(len(pairs), config.k))
                noise += noise >= pairs[:, None]
                emb_p, emb_t = tables["p"], tables[lang]
                grads = {"p": {}, lang: {}}
                for pi, row in zip(pairs, noise):
                    fa = ref.compose(emb_p, src[pi], "add")
                    diff_pos = fa - ref.compose(emb_t, tgt[pi], "add")
                    for ni in row:
                        diff_neg = fa - ref.compose(emb_t, tgt[ni], "add")
                        e_pos, e_neg = float(diff_pos @ diff_pos), float(diff_neg @ diff_neg)
                        h, scale = config.margin + e_pos - e_neg, config.margin + e_pos + e_neg
                        assume(abs(h) > _KINK * scale)
                        if h <= 0.0:
                            continue
                        losses[-1] += h
                        scales[-1] += scale
                        for i in src[pi]:
                            grads["p"][i] = grads["p"].get(i, 0.0) + 2.0 * diff_pos - 2.0 * diff_neg
                        for i in tgt[pi]:
                            grads[lang][i] = grads[lang].get(i, 0.0) - 2.0 * diff_pos
                        for i in tgt[ni]:
                            grads[lang][i] = grads[lang].get(i, 0.0) + 2.0 * diff_neg
                for name, word_grads in grads.items():
                    emb, a = tables[name], acc[name]
                    for i, g in word_grads.items():
                        g = g + config.lam * emb[i]
                        a[i] += g * g
                        emb[i] -= config.step * g / np.sqrt(a[i] + training.EPSILON)
    return losses, scales


@given(run=_joint_runs())
@settings(max_examples=40, deadline=None)
def test_joint_epochs_match_round_robin_replay(run):
    """train_joint over 2-3 ADD sub-corpora that share the pivot follows _joint_replay.

    Covers what is particular to joint training: the round-robin over
    sub-corpora with unequal batch counts, one generator per (epoch,
    sub-corpus) for its shuffle and then its noise, and the one pivot
    table that every sub-corpus updates.
    """
    rng = np.random.default_rng(run["seed"])
    langs = ["a", "b", "c"][: len(run["counts"])]
    sizes = dict(zip(["p", "a", "b", "c"], run["vocab"]))

    def sentences(lang, n):
        return [rng.integers(0, sizes[lang], rng.integers(1, run["max_len"] + 1)).tolist()
                for _ in range(n)]

    corpora = [(lang, sentences("p", n), sentences(lang, n)) for lang, n in zip(langs, run["counts"])]
    bundle = make_bundle({lang: sizes[lang] for lang in ["p", *langs]}, run["d"], run["seed"])
    config = TrainConfig(mode="joint", **{key: run[key] for key in
                         ("d", "margin", "k", "lam", "step", "batch", "epochs", "seed")})
    tables = {lang: t.matrix.copy() for lang, t in bundle.tables.items()}
    want_losses, scales = _joint_replay(tables, corpora, config)
    report = train_joint([
        ParallelCorpus("p", lang, [ParallelPair(Sentence(tuple(s)), Sentence(tuple(t)))
                                   for s, t in zip(src, tgt)])
        for lang, src, tgt in corpora
    ], bundle, config)
    for got, want, scale in zip(report.epoch_losses, want_losses, scales):
        assert abs(got - want) <= _LOSS_TOL * scale
    for lang, want in tables.items():
        assert np.abs(bundle.table(lang).matrix - want).max() <= _TABLE_TOL


def test_train_joint_validation_errors():
    corpus, bundle, config = _toy_setup()
    with pytest.raises(UserError, match="need at least one sub-corpus"):
        train_joint([], bundle, config)
    other = ParallelCorpus("xx", "lb", corpus.pairs)
    with pytest.raises(UserError, match=re.escape("one pivot language, got ['la', 'xx']")):
        train_joint([corpus, other], bundle, config)
    with pytest.raises(UserError, match="model has no language 'zz'"):
        train_joint([ParallelCorpus("la", "zz", corpus.pairs)], bundle, config)
    with pytest.raises(UserError, match=re.escape("start_epoch 3 outside [0, 2]")):
        train_joint([corpus], bundle, config, start_epoch=3)
    doc_config = TrainConfig(d=4, margin=4.0, doc_signal=True)
    with pytest.raises(UserError, match="doc_signal takes document corpora"):
        train_joint([corpus], bundle, doc_config)


def _refused_before_any_update(corpus, bundle, config, message):
    before = {lang: t.matrix.copy() for lang, t in bundle.tables.items()}
    with pytest.raises(UserError, match=re.escape(message)):
        train_joint([corpus], bundle, config)
    for lang, matrix in before.items():
        assert np.array_equal(bundle.table(lang).matrix, matrix)


def test_train_joint_refuses_a_model_of_another_kind():
    """Else a BI config trains an ADD model by BI, whose readers then compose it by ADD."""
    corpus, bundle, config = _toy_setup()
    bi = dataclasses.replace(config, kind=CompositionKind.BI)
    _refused_before_any_update(corpus, bundle, bi, "config has kind=bi, but the model has kind=add")


def test_train_joint_refuses_a_model_of_another_width():
    """Else d=8 trains 4-wide tables and writes a checkpoint that load_model refuses."""
    corpus, bundle, config = _toy_setup()
    wide = dataclasses.replace(config, d=8)
    _refused_before_any_update(corpus, bundle, wide, "config has d=8, but the model has d=4")


def _doc_corpus(vocab_size=10, n_pairs=6, n_sents=2, seed=0):
    rng = np.random.default_rng(seed)

    def doc(lang, idx, n):
        sents = [
            Sentence(tuple(int(rng.integers(0, vocab_size)) for _ in range(2)))
            for _ in range(n)
        ]
        return LabeledDocument(f"{lang}{idx}", lang, set(), sents)

    pairs = [
        DocumentPair(doc("a", i, n_sents), doc("b", i, n_sents)) for i in range(n_pairs)
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
    bad.pairs[0] = DocumentPair(src, tgt)
    config = TrainConfig(d=4, margin=4.0, k=2, batch=3, epochs=1, doc_signal=True, seed=3)
    bundle = make_bundle({"a": 10, "b": 10}, 4, seed=1)
    with pytest.raises(UserError, match="a-b document pair 0 has 2 vs 1 sentences"):
        train_joint([bad], bundle, config)


@pytest.mark.parametrize("case", ["unaligned", "one_pair", "empty"])
def test_joint_run_checks_every_sub_corpus_before_first_update(case):
    # the faulty sub-corpus comes second, so its first batch would run only
    # after the first sub-corpus has updated the pivot table
    pairs = _doc_corpus(seed=1).pairs
    if case == "unaligned":
        p = pairs[1]
        short = LabeledDocument("c1", "c", set(), p.target.sentences[:1])
        pairs[1] = DocumentPair(p.source, short)
        error, match = UserError, "a-c document pair 1 has 2 vs 1"
    elif case == "one_pair":
        del pairs[1:]
        error, match = UserError, "a-c: need at least 2 pairs to sample noise, have 1"
    else:
        empty = LabeledDocument("e", "a", set(), [])
        pairs[1] = DocumentPair(empty, empty)
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


# Trains fresh tables four times in one process; prints the page faults of each run.
_PAGE_FAULT_PROBE = """
import resource
from jointvec import synth
from jointvec.corpus import ParallelCorpus, ParallelPair, Sentence
from jointvec.embeddings import ModelBundle, Vocabulary, init_table
from jointvec.training import TrainConfig, train_joint

tw = synth.make_twin_corpus("la", "lb", 300, seed=3)
vocabs = {"la": Vocabulary(t for s in tw.sents_a for t in s),
          "lb": Vocabulary(t for s in tw.sents_b for t in s)}
pairs = [
    ParallelPair(Sentence(tuple(vocabs["la"][t] for t in a)),
                 Sentence(tuple(vocabs["lb"][t] for t in b)))
    for a, b in zip(tw.sents_a, tw.sents_b)
]
config = TrainConfig(d=128, k=50, batch=50, epochs=1, seed=1)
for run in range(4):
    tables = {l: init_table(len(v), config.d, 2 * run + i, l) for i, (l, v) in enumerate(vocabs.items())}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_joint([ParallelCorpus("la", "lb", pairs)], ModelBundle(vocabs, tables, config.kind), config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are pinned under glibc only")
def test_batches_reuse_freed_pages_across_runs():
    """Batch arrays of some 1,500 tokens x 128 floats come from memory the process
    kept, not fresh pages: only the first of several trainings faults pages in."""
    import jointvec

    src = os.path.dirname(os.path.dirname(jointvec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _PAGE_FAULT_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    faults = [int(n) for n in proc.stdout.split()]
    assert len(faults) == 4
    # unpinned (the pin made a no-op), runs 2-4 each faulted in 650-970 pages
    # (2.7-4.0 MB of 4 KB pages), over three probes
    assert max(faults[1:]) < 200, faults


@pytest.mark.parametrize("libc", ["glibc 2.36", "musl", None, ValueError, AttributeError])
def test_malloc_thresholds_are_pinned_under_glibc_only(monkeypatch, libc):
    """Under glibc: M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB.
    Under any other libc, or where os.confstr cannot say, mallopt is not called."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def confstr(name):
        assert name == "CS_GNU_LIBC_VERSION"
        if isinstance(libc, type):
            raise libc(name)
        return libc

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(os, "confstr", confstr)
    native.keep_freed_pages.__wrapped__()
    want = [(-3, 32 * 2**20), (-1, 64 * 2**20)] if libc == "glibc 2.36" else []
    assert calls == want


# Trains an ADD sentence run and a BI document run with the sentence signal at
# d=128, or the ADD run alone when given `add`; prints each run's epoch losses
# and a digest of its tables and accumulators.
_TRAIN_BYTES = """
import hashlib
import sys
from jointvec import synth
from jointvec.composition import CompositionKind
from jointvec.corpus import (
    DocumentCorpus, DocumentPair, LabeledDocument, ParallelCorpus, ParallelPair, Sentence)
from jointvec.embeddings import ModelBundle, Vocabulary, init_table
from jointvec.training import AdaGradState, TrainConfig, train_joint

def ids(vocab, sent):
    return Sentence(tuple(vocab[t] for t in sent))

def run(corpus, vocabs, config):
    tables = {l: init_table(len(v), config.d, i, l) for i, (l, v) in enumerate(vocabs.items())}
    bundle = ModelBundle(vocabs, tables, config.kind)
    state = AdaGradState(bundle)
    report = train_joint([corpus], bundle, config, state)
    digest = hashlib.sha256()
    for lang in vocabs:
        digest.update(bundle.table(lang).matrix.tobytes() + state.acc[lang].tobytes())
    print(config.kind.value, repr(report.epoch_losses), digest.hexdigest())

tw = synth.make_twin_corpus("la", "lb", 500, seed=3)
vocabs = {"la": Vocabulary(t for s in tw.sents_a for t in s),
          "lb": Vocabulary(t for s in tw.sents_b for t in s)}
pairs = [ParallelPair(ids(vocabs["la"], a), ids(vocabs["lb"], b))
         for a, b in zip(tw.sents_a, tw.sents_b)]
run(ParallelCorpus("la", "lb", pairs), vocabs, TrainConfig(d=128, k=50, batch=50, epochs=2, seed=3))
if sys.argv[1:] == ["add"]:
    sys.exit()

docs = {l: synth.make_topic_documents(l, 120, seed=5, sentences_per_doc=4) for l in ("la", "lb")}
vocabs = {l: Vocabulary(t for d in ds for s in d.sentences for t in s) for l, ds in docs.items()}
labeled = {l: [LabeledDocument(d.doc_id, l, {d.label}, [ids(vocabs[l], s) for s in d.sentences])
               for d in ds] for l, ds in docs.items()}
pairs = [DocumentPair(a, b) for a, b in zip(labeled["la"], labeled["lb"])]
config = TrainConfig(d=128, k=20, batch=20, epochs=2, kind=CompositionKind.BI, doc_signal=True,
                     seed=3)
run(DocumentCorpus("la", "lb", pairs), vocabs, config)
"""


def test_training_bytes_do_not_depend_on_blas_threads():
    """Whole ADD sentence and BI document runs give the same bytes under 1 and 2 BLAS threads."""
    import jointvec

    src = os.path.dirname(os.path.dirname(jointvec.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_BYTES], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["add", "bi"]


def test_add_training_bytes_do_not_depend_on_cpu_dispatch():
    """A whole ADD sentence run gives the same bytes with numpy's X86_V3 and X86_V4 loops off.

    BI is left out: `np.tanh` rounds differently without X86_V3.
    """
    from numpy._core._multiarray_umath import __cpu_features__

    import jointvec

    if not (__cpu_features__.get("X86_V3") and __cpu_features__.get("X86_V4")):
        pytest.skip("the CPU lacks numpy's X86_V3 or X86_V4 targets")
    src = os.path.dirname(os.path.dirname(jointvec.__file__))
    outputs = []
    for disabled in ("", "X86_V3 X86_V4"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_BYTES, "add"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["add"]


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
        kind=CompositionKind.BI, doc_signal=True, mode="joint", seed=11,
    )
    fields = dataclasses.fields(TrainConfig)
    assert set(non_default) == {f.name for f in fields}
    assert all(non_default[f.name] != f.default for f in fields)
    config = TrainConfig(**non_default)
    bundle = make_bundle({"la": 2, "lb": 3}, 3, seed=0)
    checkpoint(bundle, AdaGradState(bundle), tmp_path, config, epoch=1)
    assert resume(tmp_path)[2] == config

    # a checkpoint written while TrainConfig still had threads and epsilon fields
    with open(tmp_path / "meta.txt", "a", encoding="utf-8") as fh:
        fh.write("threads=1\nepsilon=1e-06\n")
    assert resume(tmp_path)[2] == config

    # meta.txt reads bools as config files do
    meta = (tmp_path / "meta.txt").read_text(encoding="utf-8")
    assert "doc_signal=true\n" in meta
    meta = meta.replace("doc_signal=true\n", "doc_signal=yes\n")
    (tmp_path / "meta.txt").write_text(meta, encoding="utf-8")
    assert resume(tmp_path)[2].doc_signal is True


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


def test_loaded_tables_are_read_only(tmp_path):
    _, bundle, config = _toy_setup()
    checkpoint(bundle, AdaGradState(bundle), tmp_path, config, epoch=0)
    loaded, resumed = load_model(tmp_path)[0], resume(tmp_path)
    for lang in ("la", "lb"):
        for model in (loaded, resumed[0]):
            with pytest.raises(ValueError, match="read-only"):
                model.table(lang).matrix[0] = 0.0
        resumed[1].acc[lang][0] = 0.0  # the accumulators stay writable


def test_queries_on_a_resumed_model_follow_its_training(tmp_path):
    corpus, bundle, config = _toy_setup(n=12, d=6, margin=6.0)
    state = AdaGradState(bundle)
    train_joint([corpus], bundle, config, state)
    checkpoint(bundle, state, tmp_path, config, epoch=2)
    bundle2, state2, config2, epoch2 = resume(tmp_path)
    query = ("la", bundle2.vocab("la").tokens[0])

    def check(*_):
        expected = _brute_force_neighbors(bundle2, query, 5)
        assert nearest_neighbors(bundle2, query, 5) == expected

    check()  # the read-only tables keep their norms
    before = bundle2.table("lb").matrix.copy()
    more = dataclasses.replace(config2, epochs=epoch2 + 2)
    train_joint([corpus], bundle2, more, state2, start_epoch=epoch2, on_epoch=check)
    assert not np.array_equal(bundle2.table("lb").matrix, before)
    check()


def test_resume_errors(tmp_path):
    with pytest.raises(UserError, match=re.escape(f"cannot read {tmp_path / 'missing'}")):
        resume(tmp_path / "missing")

    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    good = tmp_path / "good"
    checkpoint(bundle, state, good, config, epoch=1)

    broken = tmp_path / "no_table"
    shutil.copytree(good, broken)
    (broken / "lb.npy").unlink()
    with pytest.raises(UserError, match=re.escape(f"cannot read {broken / 'lb.npy'}: ")):
        resume(broken)

    negacc = tmp_path / "negacc"
    shutil.copytree(good, negacc)
    acc = np.load(negacc / "la.adagrad.npy")
    acc[0] = -1.0
    np.save(negacc / "la.adagrad.npy", acc)
    bad_rows = re.escape(f"{negacc / 'la.adagrad.npy'}: row 1 (")
    with pytest.raises(UserError, match=f"{bad_rows}.*negative accumulator entries"):
        resume(negacc)

    badvocab = tmp_path / "badvocab"
    shutil.copytree(good, badvocab)
    with open(badvocab / "la.vocab", "a", encoding="utf-8") as fh:
        fh.write("imposter\n")
    counts = r" has \d+ rows for \d+ vocabulary tokens in "
    match = re.escape(str(badvocab / "la.npy")) + counts + re.escape(str(badvocab / "la.vocab"))
    with pytest.raises(UserError, match=match):
        resume(badvocab)

    badmeta = tmp_path / "badmeta"
    shutil.copytree(good, badmeta)
    (badmeta / "meta.txt").write_text("no equals sign here\n", encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{badmeta / 'meta.txt'}:1: expected key=")):
        resume(badmeta)

    missingkey = tmp_path / "missingkey"
    shutil.copytree(good, missingkey)
    meta = (missingkey / "meta.txt").read_text(encoding="utf-8").splitlines()
    meta = [ln for ln in meta if not ln.startswith("languages=")]
    (missingkey / "meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")
    missing = f"{missingkey / 'meta.txt'}: checkpoint metadata missing 'languages'"
    with pytest.raises(UserError, match=re.escape(missing)):
        resume(missingkey)


def test_text_checkpoint_names_missing_vocabulary(tmp_path):
    """A checkpoint of the earlier text layout is refused, naming the first missing file."""
    corpus, bundle, config = _toy_setup()
    checkpoint(bundle, AdaGradState(bundle), tmp_path, config, epoch=1)
    for lang in ("la", "lb"):
        for name in (f"{lang}.npy", f"{lang}.adagrad.npy", f"{lang}.vocab"):
            (tmp_path / name).unlink()
        export_table(bundle.table(lang), bundle.vocab(lang), tmp_path / f"{lang}.emb")
    with pytest.raises(UserError, match=re.escape(str(tmp_path / "la.vocab"))):
        resume(tmp_path)


@pytest.mark.parametrize("case", list(HOSTILE_CHECKPOINTS))
def test_damaged_checkpoint_is_checkpoint_error_naming_file(tmp_path, case):
    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    train_joint([corpus], bundle, config, state)
    checkpoint(bundle, state, tmp_path, config, epoch=config.epochs)
    bad, read_only_sees, text = damage_checkpoint(tmp_path, case)
    with pytest.raises(UserError, match=re.escape(str(bad))) as exc:
        resume(tmp_path)
    assert text in str(exc.value)
    if read_only_sees:
        with pytest.raises(UserError, match=re.escape(text)):
            load_model(tmp_path)
    else:
        loaded, _, _ = load_model(tmp_path)
        assert np.array_equal(loaded.table("la").matrix, bundle.table("la").matrix)


def test_checkpoint_refuses_a_language_code_it_cannot_store(tmp_path):
    """meta.txt joins the codes with commas, so `a,b` would not load; nothing is created."""
    bundle = make_bundle({"a,b": 3, "lb": 4}, d=4, seed=1)
    with pytest.raises(UserError, match=re.escape("language code 'a,b'")):
        checkpoint(bundle, AdaGradState(bundle), tmp_path / "ck", TrainConfig(d=4), epoch=0)
    assert os.listdir(tmp_path) == []


def test_checkpoint_under_a_file_is_user_error(tmp_path):
    _, bundle, config = _toy_setup()
    (tmp_path / "file").write_text("x", encoding="utf-8")
    target = tmp_path / "file" / "ck"
    with pytest.raises(UserError, match=re.escape(f"cannot write {target}: ")):
        checkpoint(bundle, AdaGradState(bundle), target, config, epoch=0)


def test_interrupted_checkpoint_is_refused(tmp_path, monkeypatch):
    """A write that dies after its first array leaves a directory resume() refuses.

    The failure is a UserError naming the file, and leaves no .tmp file.
    """
    corpus, bundle, config = _toy_setup()
    state = AdaGradState(bundle)
    checkpoint(bundle, state, tmp_path, config, epoch=0)
    assert resume(tmp_path)[3] == 0
    assert not list(tmp_path.glob("*.tmp"))

    train_joint([corpus], bundle, config, state)
    save, calls = np.save, []

    def failing_save(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk went away")
        return save(*args, **kwargs)

    monkeypatch.setattr(np, "save", failing_save)
    failed = re.escape(f"cannot write {tmp_path / 'la.adagrad.npy'}: disk went away")
    with pytest.raises(UserError, match=failed):
        checkpoint(bundle, state, tmp_path, config, epoch=config.epochs)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    meta = tmp_path / "meta.txt"
    with pytest.raises(UserError, match=re.escape(str(meta))):
        resume(tmp_path)
    with pytest.raises(UserError, match=re.escape(str(meta))):
        load_model(tmp_path)

    checkpoint(bundle, state, tmp_path, config, epoch=config.epochs)
    assert not list(tmp_path.glob("*.tmp"))
    resumed, resumed_state, _, epoch = resume(tmp_path)
    assert epoch == config.epochs
    for lang in ("la", "lb"):
        assert np.array_equal(resumed.table(lang).matrix, bundle.table(lang).matrix)
        assert np.array_equal(resumed_state.acc[lang], state.acc[lang])
