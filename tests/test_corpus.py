import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointvec import synth
from jointvec.corpus import (
    DocumentCorpus,
    DocumentPair,
    LabeledDocument,
    Sentence,
    gather_ranges,
    iter_document_token_sentences,
    iter_token_sentences,
    load_document_pairs,
    load_documents,
    load_parallel,
    pack_corpus,
    sample_indices_excluding,
    tokenize,
)
from jointvec.embeddings import Vocabulary
from jointvec.errors import ContractError, UserError


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_tokenize_lowercases_and_splits_on_whitespace_runs():
    assert tokenize("Hello  World") == ["hello", "world"]
    assert tokenize("") == []
    assert tokenize("Ich bin's") == ["ich", "bin's"]
    assert tokenize("a\tb\n c") == ["a", "b", "c"]


@given(st.lists(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1), max_size=6))
@settings(max_examples=100, deadline=None)
def test_tokenize_idempotent_on_own_output(tokens):
    once = tokenize(" ".join(tokens))
    assert tokenize(" ".join(once)) == once


def test_synth_writers_write_through_corpus_writing(tmp_path):
    """The usual bytes under the final name; a missing directory is a UserError naming the path."""
    twin = synth.make_twin_corpus("la", "lb", 3, seed=1)
    docs = synth.make_topic_documents("la", 2, seed=1, sentences_per_doc=2)
    synth.write_parallel_files(twin, tmp_path / "la.txt", tmp_path / "lb.txt")
    synth.write_document_file(docs, tmp_path / "la.docs")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["la.docs", "la.txt", "lb.txt"]
    lines = "".join(" ".join(s) + "\n" for s in twin.sents_b)
    assert (tmp_path / "lb.txt").read_bytes() == lines.encode("utf-8")
    body = " ||| ".join(" ".join(s) for s in docs[1].sentences)
    line = f"{docs[1].doc_id}\t{docs[1].lang}\t{docs[1].label}\t{body}\n"
    assert (tmp_path / "la.docs").read_text(encoding="utf-8").splitlines(True)[1] == line
    missing = tmp_path / "missing"
    with pytest.raises(UserError, match=re.escape(f"cannot write {missing / 'la.txt'}")):
        synth.write_parallel_files(twin, missing / "la.txt", missing / "lb.txt")
    with pytest.raises(UserError, match=re.escape(f"cannot write {missing / 'la.docs'}")):
        synth.write_document_file(docs, missing / "la.docs")


def test_sentence_requires_tokens():
    with pytest.raises(ContractError):
        Sentence(())


def test_load_parallel_maps_ids_and_drops_empty_pairs(tmp_path):
    a = _write(tmp_path / "a.txt", "Big cat\n\nsmall dog\n")
    b = _write(tmp_path / "b.txt", "le chat\nvide\nle chien\n")
    va = Vocabulary(t for s in iter_token_sentences(a) for t in s)
    vb = Vocabulary(t for s in iter_token_sentences(b) for t in s)
    pairs = load_parallel(a, b, va, vb)
    # the pair with the empty English side is dropped
    assert len(pairs) == 2
    assert pairs[0].source.ids == (va["big"], va["cat"])
    assert pairs[0].target.ids == (vb["le"], vb["chat"])
    assert pairs[1].target.ids == (vb["le"], vb["chien"])


def test_load_parallel_splits_only_at_line_ends(tmp_path):
    # two lines each by `wc -l`; a form feed and U+2028 are whitespace within a line
    a = _write(tmp_path / "a.txt", "alpha\x0cbeta\ngamma\n")
    b = _write(tmp_path / "b.txt", "one\ntwo\u2028three\n")
    va, vb = Vocabulary(), Vocabulary()
    pairs = load_parallel(a, b, va, vb)
    assert [([va.token(i) for i in p.source.ids], [vb.token(i) for i in p.target.ids])
            for p in pairs] == [(["alpha", "beta"], ["one"]), (["gamma"], ["two", "three"])]
    # CRLF and a lone CR end lines too
    c = _write(tmp_path / "c.txt", "x\r\ny\rz")
    assert list(iter_token_sentences(c)) == [["x"], ["y"], ["z"]]


def test_load_parallel_line_count_mismatch(tmp_path):
    a = _write(tmp_path / "a.txt", "x\ny\nz\n")
    b = _write(tmp_path / "b.txt", "x\ny\n")
    v = Vocabulary(["x", "y", "z"])
    with pytest.raises(UserError, match=re.escape(f"line count mismatch: {a} has 3, {b} has 2")):
        load_parallel(a, b, v, v)


def test_load_parallel_missing_file(tmp_path):
    v = Vocabulary(["x"])
    with pytest.raises(UserError, match=re.escape(f"cannot read {tmp_path / 'nope.txt'}: ")):
        load_parallel(str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt"), v, v)


def test_load_documents_parses_fields(tmp_path):
    path = _write(
        tmp_path / "d.docs",
        "d1\ten\tart,science\thello world ||| good day\n"
        "d2\tde\t\tguten tag\n",
    )
    vocab = Vocabulary(t for s in iter_document_token_sentences(path) for t in s)
    docs = load_documents(path, vocab)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].labels == {"art", "science"}
    assert len(docs[0].sentences) == 2
    assert docs[1].labels == set()


def test_document_body_keeps_unicode_line_breaks(tmp_path):
    path = _write(tmp_path / "x.docs", "d1\tla\tA\tfoo\x85bar\nd2\tla\tB\tbaz\n")
    vocab = Vocabulary()
    pairs = load_document_pairs(path, path, vocab, vocab)
    assert [p.source.doc_id for p in pairs] == ["d1", "d2"]
    assert [vocab.token(i) for i in pairs[0].source.sentences[0].ids] == ["foo", "bar"]


def test_load_documents_bad_field_count_names_line(tmp_path):
    path = _write(tmp_path / "d.docs", "d1\ten\thello world\n")
    good = _write(tmp_path / "good.docs", "d1\ten\tl\thello\n")
    readers = [
        lambda: load_documents(path, Vocabulary()),
        lambda: list(iter_document_token_sentences(path)),
        lambda: load_document_pairs(good, path, Vocabulary(), Vocabulary()),
    ]
    for read in readers:
        with pytest.raises(UserError, match=re.escape(f"{path}:1: expected 4")):
            read()


def test_load_documents_skips_oov_and_empty(tmp_path):
    path = _write(
        tmp_path / "d.docs",
        "d1\ten\tl\tknown mystery ||| mystery mystery\n"
        "d2\ten\tl\tmystery\n",
    )
    docs = load_documents(path, Vocabulary(["known"]))
    # OOV tokens drop out; fully-OOV sentences and documents disappear
    assert len(docs) == 1
    assert len(docs[0].sentences) == 1
    assert docs[0].sentences[0].ids == (0,)


def test_load_document_pairs_alignment(tmp_path):
    a = _write(
        tmp_path / "a.docs",
        "a1\ten\tl\tcat cat ||| dog\na2\ten\tl\t\n",
    )
    b = _write(
        tmp_path / "b.docs",
        "b1\tde\tl\tkatze ||| hund\nb2\tde\tl\thund\n",
    )
    va = Vocabulary(["cat", "dog"])
    vb = Vocabulary(["katze", "hund"])
    pairs = load_document_pairs(a, b, va, vb)
    # second pair dropped: its English side has an empty body
    assert len(pairs) == 1
    assert pairs[0].source.doc_id == "a1"
    assert pairs[0].target.doc_id == "b1"
    short = _write(tmp_path / "c.docs", "c1\tde\tl\thund\n")
    mismatch = f"document count mismatch: {a} has 2, {short} has 1"
    with pytest.raises(UserError, match=re.escape(mismatch)):
        load_document_pairs(a, short, va, vb)


def test_load_document_pairs_blank_line_is_document_without_sentences(tmp_path):
    a = _write(tmp_path / "a.docs", "a1\ten\tl\tcat\n\na3\ten\tl\tdog\na4\ten\tl\tcat dog\n")
    b = _write(tmp_path / "b.docs", "b1\tde\tl\tkatze\nb2\tde\tl\tmaus\nb3\tde\tl\thund\n\n")
    va, vb = Vocabulary(), Vocabulary()
    pairs = load_document_pairs(a, b, va, vb)
    # each blank line drops its pair; the dropped b2 still assigns its ids
    assert [(p.source.doc_id, p.target.doc_id) for p in pairs] == [("a1", "b1"), ("a3", "b3")]
    assert va.tokens == ["cat", "dog"] and vb.tokens == ["katze", "maus", "hund"]


def test_sample_indices_excluding_bounds_and_exclusion():
    rng = np.random.default_rng(42)
    for _ in range(200):
        picks = sample_indices_excluding(5, 2, 3, rng)
        assert len(picks) == 3
        assert all(0 <= i < 5 and i != 2 for i in picks)
    exclude = np.array([4, 0, 2, 2, 1])
    rows = sample_indices_excluding(5, exclude, 40, rng)
    assert rows.shape == (5, 40)
    assert ((rows >= 0) & (rows < 5)).all()
    assert not (rows == exclude[:, None]).any()
    # same generator state, same draws
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for excl in (exclude, 3):
        assert np.array_equal(
            sample_indices_excluding(7, excl, 6, a), sample_indices_excluding(7, excl, 6, b)
        )
    with pytest.raises(UserError, match="need at least 2 candidates to sample noise, have 1"):
        sample_indices_excluding(1, 0, 3, rng)


def test_sample_indices_with_replacement_covers_candidates():
    rng = np.random.default_rng(7)
    picks = sample_indices_excluding(3, 0, 400, rng)
    assert set(picks) == {1, 2}  # duplicates inevitable, both candidates hit
    rows = sample_indices_excluding(3, np.array([0, 1, 2]), 400, rng)
    assert [set(r) for r in rows] == [{1, 2}, {0, 2}, {0, 1}]


def test_pack_corpus_flat_sentence_indexing():
    def doc(lang, n_sents, base):
        return LabeledDocument(
            f"{lang}{base}", lang, set(), [Sentence((base + i, base)) for i in range(n_sents)]
        )

    pairs = [
        DocumentPair(doc("a", 2, 0), doc("b", 2, 10)),
        DocumentPair(doc("a", 3, 1), doc("b", 3, 20)),
    ]
    _, tgt = pack_corpus(DocumentCorpus("a", "b", pairs))
    assert tgt.n_sentences == 5
    assert tgt.doc_starts.tolist() == [0, 2, 5]
    starts = tgt.sent_starts
    pool = [tgt.ids[starts[s] : starts[s + 1]].tolist() for s in range(tgt.n_sentences)]
    assert pool == [[10, 10], [11, 10], [20, 20], [21, 20], [22, 20]]
    # target sentence j of document i is flat sentence doc_starts[i] + j
    flat, lengths = gather_ranges(tgt.doc_starts, np.array([1, 0]))
    assert flat.tolist() == [2, 3, 4, 0, 1] and lengths.tolist() == [3, 2]
