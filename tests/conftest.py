"""Shared fixtures: random objective instances, finite differences, criterion log."""

import numpy as np
import pytest

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
from jointvec.objective import batch_loss_and_grads

CRITERION_LINES = []


@pytest.fixture
def criterion():
    """Recorder for acceptance-criterion results; lines echo in the summary."""

    def _record(num: int, passed: bool, detail: str) -> None:
        line = f"[criterion {num}] {'PASS' if passed else 'FAIL'} {detail}"
        CRITERION_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# small random model instances

def make_bundle(sizes: dict, d: int, seed: int, kind=CompositionKind.ADD) -> ModelBundle:
    """Gaussian tables over synthetic vocabularies {lang: V}."""
    rng = np.random.default_rng(seed)
    vocabs = {}
    tables = {}
    for lang in sorted(sizes):
        v = sizes[lang]
        vocabs[lang] = Vocabulary(f"{lang}{i}" for i in range(v))
        tables[lang] = EmbeddingTable(lang, rng.normal(0.0, np.sqrt(0.1), size=(v, d)))
    return ModelBundle(vocabs, tables, kind)


def rand_sentence(rng, vocab_size: int, max_len: int = 4) -> Sentence:
    n = int(rng.integers(1, max_len + 1))
    return Sentence(tuple(int(rng.integers(0, vocab_size)) for _ in range(n)))


def _ref_kind(kind: CompositionKind) -> str:
    return kind.value


def pair_hinges(bundle, pair, noise_sents, margin, kind) -> list:
    """All hinge pre-activation values m + e_pos - e_neg, via the reference model."""
    emb_a = bundle.table("a").matrix
    emb_b = bundle.table("b").matrix
    k = _ref_kind(kind)
    fa = ref.compose(emb_a, list(pair.source.ids), k)
    gb = ref.compose(emb_b, list(pair.target.ids), k)
    e_pos = ref.energy(fa, gb)
    out = []
    for ns in noise_sents:
        gn = ref.compose(emb_b, list(ns.ids), k)
        out.append(margin + e_pos - ref.energy(fa, gn))
    return out


def doc_hinges(bundle, doc_pair, noise_docs, sentence_noise, margin, kind) -> list:
    """Document-level and per-sentence hinge values, reference model arithmetic."""
    emb_a = bundle.table("a").matrix
    emb_b = bundle.table("b").matrix
    k = _ref_kind(kind)
    src_ids = [list(s.ids) for s in doc_pair.source.sentences]
    tgt_ids = [list(s.ids) for s in doc_pair.target.sentences]
    da = ref.compose_doc(emb_a, src_ids, k)
    db = ref.compose_doc(emb_b, tgt_ids, k)
    e_pos = ref.energy(da, db)
    out = []
    for nd in noise_docs:
        dn = ref.compose_doc(emb_b, [list(s.ids) for s in nd.sentences], k)
        out.append(margin + e_pos - ref.energy(da, dn))
    for s_src, s_tgt, noise_i in zip(src_ids, tgt_ids, sentence_noise):
        fa = ref.compose(emb_a, s_src, k)
        gb = ref.compose(emb_b, s_tgt, k)
        ep = ref.energy(fa, gb)
        for ns in noise_i:
            gn = ref.compose(emb_b, list(ns.ids), k)
            out.append(margin + ep - ref.energy(fa, gn))
    return out


def random_pair_instance(rng, kind, va=4, vb=5, d=None, k=None, max_tries=200):
    """(bundle, pair, noise, margin) with every hinge at least 1e-3 from its kink."""
    for _ in range(max_tries):
        d_i = d or int(rng.integers(2, 6))
        k_i = k or int(rng.integers(1, 4))
        bundle = make_bundle({"a": va, "b": vb}, d_i, int(rng.integers(1 << 30)), kind)
        pair = ParallelPair(rand_sentence(rng, va), rand_sentence(rng, vb))
        noise = [rand_sentence(rng, vb) for _ in range(k_i)]
        margin = float(rng.uniform(0.5, 3.0))
        if min(abs(h) for h in pair_hinges(bundle, pair, noise, margin, kind)) > 1e-3:
            return bundle, pair, noise, margin
    raise AssertionError("could not draw a kink-free pair instance")


def random_doc_instance(rng, kind, va=4, vb=4, d=3, n_sents=2, k_docs=2, k_sents=2,
                        max_tries=200):
    """(bundle, doc_pair, noise_docs, sentence_noise, margin), kink-guarded."""

    def _doc(lang, v, idx):
        sents = [rand_sentence(rng, v, 3) for _ in range(n_sents)]
        return LabeledDocument(f"{lang}{idx}", lang, set(), sents)

    for _ in range(max_tries):
        bundle = make_bundle({"a": va, "b": vb}, d, int(rng.integers(1 << 30)), kind)
        doc_pair = DocumentPair(_doc("a", va, 0), _doc("b", vb, 0))
        noise_docs = [_doc("b", vb, i + 1) for i in range(k_docs)]
        sentence_noise = [
            [rand_sentence(rng, vb, 3) for _ in range(k_sents)] for _ in range(n_sents)
        ]
        margin = float(rng.uniform(0.5, 3.0))
        hs = doc_hinges(bundle, doc_pair, noise_docs, sentence_noise, margin, kind)
        if min(abs(h) for h in hs) > 1e-3:
            return bundle, doc_pair, noise_docs, sentence_noise, margin
    raise AssertionError("could not draw a kink-free document instance")


def one_pair_loss(pair, noise, bundle, kind, margin, sentence_noise=None) -> tuple:
    """One aligned pair of languages ("a", "b") against its noise, through batch_loss_and_grads.

    `pair` is a ParallelPair with noise Sentences, or a DocumentPair with
    noise documents and, for the sentence signal, `sentence_noise`: one
    equally long list of target Sentences per aligned sentence position,
    packed after the documents as sentences of no document.
    """
    first, noise_at = np.zeros(1, dtype=np.intp), np.arange(1, len(noise) + 1)[None, :]
    if isinstance(pair, ParallelPair):
        src, tgt = pack_sentences([pair.source]), pack_sentences([pair.target, *noise])
        return batch_loss_and_grads(src, tgt, first, noise_at, bundle, kind, margin, ("a", "b"))
    extra = [s for row in sentence_noise or () for s in row]
    tgt = pack_documents([pair.target.sentences, *(d.sentences for d in noise), extra])
    sent_noise = None
    if sentence_noise is not None:
        k = len(sentence_noise[0])
        sent_noise = tgt.doc_starts[-2] + np.arange(len(extra)).reshape(-1, k)
    return batch_loss_and_grads(
        pack_documents([pair.source.sentences]), tgt._replace(doc_starts=tgt.doc_starts[:-1]),
        first, noise_at, bundle, kind, margin, ("a", "b"), sent_noise,
    )


# ---------------------------------------------------------------------------
# finite differences

def numerical_grads(loss_fn, bundle, step=1e-5) -> dict:
    """Central finite differences of loss_fn() over every table coordinate."""
    out = {}
    for lang in bundle.languages:
        mat = bundle.table(lang).matrix
        g = np.zeros_like(mat)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                orig = mat[i, j]
                mat[i, j] = orig + step
                up = loss_fn()
                mat[i, j] = orig - step
                down = loss_fn()
                mat[i, j] = orig
                g[i, j] = (up - down) / (2.0 * step)
        out[lang] = g
    return out


def densify_grads(grads: dict, bundle) -> dict:
    """Full-table gradients from the engine's {lang: (word ids, rows)} result."""
    out = {lang: np.zeros_like(bundle.table(lang).matrix) for lang in bundle.languages}
    for lang, (ids, rows) in grads.items():
        out[lang][ids] = rows
    return out


def max_rel_err(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for lang, f in numeric.items():
        err = np.abs(analytic[lang] - f) / np.maximum(1.0, np.abs(f))
        worst = max(worst, float(err.max()))
    return worst


# ---------------------------------------------------------------------------
# damaged checkpoints


def _rewrite_array(path, change) -> None:
    np.save(path, change(np.load(path)))


def _truncate(path) -> None:
    path.write_bytes(path.read_bytes()[:-5])


def _pickled(path) -> None:
    objects = np.empty(2, dtype=object)
    objects[:] = [{"row": 1}, "token"]
    np.save(path, objects, allow_pickle=True)


def _huge_header(path) -> None:
    with open(path, "wb") as fh:
        header = {"descr": "<f8", "fortran_order": False, "shape": (2**30, 2**20)}
        np.lib.format.write_array_header_1_0(fh, header)


def _quote_header(path) -> None:
    """Turn the `{` that opens the header's dict into a quote, which numpy's parser chokes on."""
    data = bytearray(path.read_bytes())
    data[10] = ord("'")
    path.write_bytes(bytes(data))


def _set_row_2(value):
    def change(matrix):
        matrix[1, 0] = value
        return matrix

    return lambda path: _rewrite_array(path, change)


def _duplicate_token(path) -> None:
    tokens = path.read_text(encoding="utf-8").splitlines()
    tokens[1] = tokens[0]
    path.write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")


def _duplicate_token_apart(path) -> None:
    """Line 4 repeats line 1, with two other tokens between them."""
    tokens = path.read_text(encoding="utf-8").splitlines()
    tokens[3] = tokens[0]
    path.write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")


def _wider(path) -> None:
    _rewrite_array(path, lambda m: np.hstack([m, m[:, :1]]))


def _set_meta(key: str, value: str):
    """A damage that rewrites meta.txt's `key` line to `key=value`."""

    def damage(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")

    return damage


# case -> (damaged file, damage, whether the model without its accumulators
# sees it, text the error must hold after the file's path). Read-only
# commands never open <lang>.adagrad.npy, so accumulator damage fails only
# resume().
HOSTILE_CHECKPOINTS = {
    "truncated": ("la.npy", _truncate, True, ""),
    "pickled": ("la.npy", _pickled, True, ""),
    "huge_header": ("la.npy", _huge_header, True, ""),
    "quoted_header": ("la.npy", _quote_header, True, ": "),
    "float32": ("la.npy", lambda p: _rewrite_array(p, lambda m: m.astype(np.float32)), True,
                ": expected a 2-D float64 array"),
    "row_count": ("la.npy", lambda p: _rewrite_array(p, lambda m: m[:-1]), True, " has "),
    "language_widths": ("lb.npy", _wider, True, " has width"),
    "accumulator_width": ("la.adagrad.npy", _wider, False, " has width"),
    "nan_row_2": ("la.npy", _set_row_2(np.nan), True, ": row 2 ("),
    "negative_accumulator": ("la.adagrad.npy", _set_row_2(-1.0), False, ": row 2 ("),
    "nan_accumulator": ("la.adagrad.npy", _set_row_2(np.nan), False, ": row 2 ("),
    "duplicate_token": ("la.vocab", _duplicate_token, True, ":2: duplicate token"),
    "duplicate_token_apart": ("la.vocab", _duplicate_token_apart, True, ":4: duplicate token"),
    "missing_meta": ("meta.txt", lambda p: p.unlink(), True, ""),
    "missing_vocab": ("lb.vocab", lambda p: p.unlink(), True, ""),
    "meta_width": ("meta.txt", _set_meta("d", "5"), True,
                   ":3: invalid checkpoint metadata d: 5, but "),
    "meta_epoch": ("meta.txt", _set_meta("epoch", "-3"), True,
                   ":5: invalid checkpoint metadata epoch: -3 outside [0, "),
    "meta_unparsable": ("meta.txt", _set_meta("d", "abc"), True, ":3: invalid checkpoint metadata d"),
    "meta_range": ("meta.txt", _set_meta("d", "0"), True,
                   ":3: invalid checkpoint metadata d: must be >= 1, got 0"),
    "meta_kind": ("meta.txt", _set_meta("kind", "xyz"), True,
                  ":8: invalid checkpoint metadata kind: must be add or bi, got 'xyz'"),
    "meta_language": ("meta.txt", _set_meta("languages", "la,../lb"), True,
                      ":10: invalid checkpoint metadata languages: language code '../lb'"),
}


def damage_checkpoint(model, case: str):
    """Damage the checkpoint directory `model` as HOSTILE_CHECKPOINTS[case] says.

    Returns (damaged path, whether load_model sees it, text the error must hold).
    """
    name, damage, read_only_sees, text = HOSTILE_CHECKPOINTS[case]
    damage(model / name)
    return model / name, read_only_sees, f"{model / name}{text}"
