"""Hostile input: every reader either loads a file or raises UserError naming it.

Text inputs (corpora, documents, configs, embedding tables) are drawn
from the characters the formats give a meaning to (TAB, " ||| ", commas,
`=`, `#`, CR/LF and U+0085) plus invalid UTF-8; embedding tables also
get a header from `_TABLE_HEADERS`.
Checkpoints are damaged a few bytes at a time: truncated, or 1-5 bytes
flipped or inserted anywhere in one file. Any exception other than
UserError, or a UserError that does not name the damaged file, fails.
"""

import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointvec.cli import _TRAIN, load_config_file
from jointvec.composition import CompositionKind
from jointvec.corpus import load_document_pairs, load_documents, load_parallel
from jointvec.embeddings import EmbeddingTable, ModelBundle, Vocabulary, import_table
from jointvec.errors import UserError
from jointvec.training import AdaGradState, TrainConfig, checkpoint, load_model, resume

_PIECES = [
    b"\t", b" ||| ", b"|", b",", b"=", b"#", b" ", b"\n", b"\r", b"\r\n",
    "\u0085".encode(), b"\x85", b"\xff", b"\xc3", b"a", b"b", b"d1", b"la", b"dim", b"cvm", b"7",
]
hostile_text = st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join)

_CLEAN = {"parallel": b"a b\nb a\n", "documents": b"d1\tla\tx\ta b ||| b\n"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _loads_or_names(path, read) -> None:
    try:
        read()
    except UserError as exc:
        assert str(path) in str(exc), str(exc)


def _write_pair(workdir, kind, data, damaged_side):
    paths = [workdir / f"{kind}_a", workdir / f"{kind}_b"]
    for i, path in enumerate(paths):
        path.write_bytes(data if i == damaged_side else _CLEAN[kind])
    return paths, paths[damaged_side]


@given(data=hostile_text, side=st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_parallel_files_load_or_name_the_file(workdir, data, side):
    (a, b), bad = _write_pair(workdir, "parallel", data, side)
    _loads_or_names(bad, lambda: load_parallel(a, b, Vocabulary(), Vocabulary()))


@given(data=hostile_text, side=st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_document_pair_files_load_or_name_the_file(workdir, data, side):
    (a, b), bad = _write_pair(workdir, "documents", data, side)
    _loads_or_names(bad, lambda: load_document_pairs(a, b, Vocabulary(), Vocabulary()))


@given(data=hostile_text)
@settings(max_examples=100, deadline=None)
def test_document_file_loads_or_names_the_file(workdir, data):
    path = workdir / "eval.docs"
    path.write_bytes(data)
    _loads_or_names(path, lambda: load_documents(path, Vocabulary(["a", "b"])))


# no header, or one that promises no rows, a negative width, or a width no row has
_TABLE_HEADERS = [b"", b"0 5\n", b"1 -1\n", b"1 99999999999999\n", b"0 10000000000000000000000\n"]


@given(header=st.sampled_from(_TABLE_HEADERS), data=hostile_text)
@example(header=b"1 -1\n", data=b"a 7\n")
@example(header=b"1 99999999999999\n", data=b"a 7\n")
@settings(max_examples=100, deadline=None)
def test_embedding_file_loads_or_names_the_file(workdir, header, data):
    path = workdir / "la.emb"
    path.write_bytes(header + data)
    _loads_or_names(path, lambda: import_table(path))


@given(data=hostile_text)
@settings(max_examples=100, deadline=None)
def test_config_file_loads_or_names_the_file(workdir, data):
    path = workdir / "train.cfg"
    path.write_bytes(data)
    _loads_or_names(path, lambda: load_config_file(path, _TRAIN))


# ---------------------------------------------------------------------------
# damaged checkpoints

_CHECKPOINT_FILES = [
    "meta.txt", "la.vocab", "la.npy", "la.adagrad.npy", "lb.vocab", "lb.npy", "lb.adagrad.npy",
]


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    """A two-language checkpoint small enough that most of each .npy is its header."""
    rng = np.random.default_rng(0)
    vocabs = {lang: Vocabulary(f"{lang}{i}" for i in range(3)) for lang in ("la", "lb")}
    tables = {lang: EmbeddingTable(lang, rng.normal(size=(3, 2))) for lang in vocabs}
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    state = AdaGradState(acc={lang: rng.random((3, 2)) for lang in vocabs})
    path = tmp_path_factory.mktemp("clean") / "model"
    checkpoint(bundle, state, path, TrainConfig(d=2, epochs=2), epoch=1)
    return path


@st.composite
def damages(draw):
    """(file name, function from the file's bytes to its damaged bytes)."""
    name = draw(st.sampled_from(_CHECKPOINT_FILES))
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    at = draw(st.floats(0.0, 1.0, exclude_max=True))
    chunk = draw(st.lists(st.integers(1, 255), min_size=1, max_size=5))

    def damage(data: bytes) -> bytes:
        pos = int(at * len(data))
        if kind == "truncate":
            return data[:pos]
        if kind == "insert":
            return data[:pos] + bytes(chunk) + data[pos:]
        out = bytearray(data)
        for i, mask in enumerate(chunk):
            out[(pos + i) % len(out)] ^= mask
        return bytes(out)

    return name, damage


@given(damage=damages())
@settings(max_examples=150, deadline=None)
def test_damaged_checkpoint_loads_or_names_the_file(clean_checkpoint, workdir, damage):
    name, change = damage
    model = workdir / "model"
    shutil.rmtree(model, ignore_errors=True)
    shutil.copytree(clean_checkpoint, model)
    bad = model / name
    bad.write_bytes(change(bad.read_bytes()))
    _loads_or_names(bad, lambda: load_model(model))
    _loads_or_names(bad, lambda: resume(model))
