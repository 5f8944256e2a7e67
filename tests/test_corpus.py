import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    select_top_labels,
    tokenize,
)
from jointvec.embeddings import Vocabulary, build_vocab
from jointvec.errors import (
    AlignmentError,
    ContractError,
    FileFormatError,
    SamplingError,
)


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


def test_sentence_requires_tokens():
    with pytest.raises(ContractError):
        Sentence(())


def test_load_parallel_maps_ids_and_reindexes(tmp_path):
    a = _write(tmp_path / "a.txt", "Big cat\n\nsmall dog\n")
    b = _write(tmp_path / "b.txt", "le chat\nvide\nle chien\n")
    va = build_vocab(iter_token_sentences(a))
    vb = build_vocab(iter_token_sentences(b))
    pairs = load_parallel(a, b, va, vb)
    # the pair with the empty English side is dropped, survivors reindexed
    assert [p.index for p in pairs] == [0, 1]
    assert pairs[0].source.ids == (va["big"], va["cat"])
    assert pairs[0].target.ids == (vb["le"], vb["chat"])
    assert pairs[1].target.ids == (vb["le"], vb["chien"])


def test_load_parallel_line_count_mismatch(tmp_path):
    a = _write(tmp_path / "a.txt", "x\ny\nz\n")
    b = _write(tmp_path / "b.txt", "x\ny\n")
    v = Vocabulary(["x", "y", "z"])
    with pytest.raises(AlignmentError):
        load_parallel(a, b, v, v)


def test_load_parallel_missing_file(tmp_path):
    v = Vocabulary(["x"])
    with pytest.raises(FileFormatError):
        load_parallel(str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt"), v, v)


def test_load_documents_parses_fields(tmp_path):
    path = _write(
        tmp_path / "d.docs",
        "d1\ten\tart,science\thello world ||| good day\n"
        "d2\tde\t\tguten tag\n",
    )
    vocab = build_vocab(iter_document_token_sentences(path))
    docs = load_documents(path, vocab)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].labels == {"art", "science"}
    assert len(docs[0].sentences) == 2
    assert docs[1].labels == set()


def test_load_documents_bad_field_count_names_line(tmp_path):
    path = _write(tmp_path / "d.docs", "d1\ten\thello world\n")
    with pytest.raises(FileFormatError, match="line 1"):
        load_documents(path, Vocabulary())


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
        "a1\ten\tl\tcat cat ||| dog\na2\ten\tl\tmystery\n",
    )
    b = _write(
        tmp_path / "b.docs",
        "b1\tde\tl\tkatze ||| hund\nb2\tde\tl\thund\n",
    )
    va = Vocabulary(["cat", "dog"])
    vb = Vocabulary(["katze", "hund"])
    pairs = load_document_pairs(a, b, va, vb)
    # second pair dropped: its English side is fully out of vocabulary
    assert len(pairs) == 1
    assert pairs[0].source.doc_id == "a1"
    assert pairs[0].target.doc_id == "b1"
    short = _write(tmp_path / "c.docs", "c1\tde\tl\thund\n")
    with pytest.raises(AlignmentError):
        load_document_pairs(a, short, va, vb)


def _docs_with_labels(label_lists):
    return [
        LabeledDocument(f"d{i}", "en", set(labs), [Sentence((0,))])
        for i, labs in enumerate(label_lists)
    ]


def test_select_top_labels_frequency_then_lexicographic():
    docs = _docs_with_labels([["a"], ["a", "b"], ["a", "c"], ["b"]])
    assert select_top_labels(docs, 2) == {"a", "b"}
    tied = _docs_with_labels([["a", "b"], ["a", "b"]])
    assert select_top_labels(tied, 1) == {"a"}


def test_select_top_labels_underfull_warns():
    docs = _docs_with_labels([["a"]])
    with pytest.warns(UserWarning):
        assert select_top_labels(docs, 15) == {"a"}
    with pytest.raises(ValueError):
        select_top_labels(docs, 0)


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
    with pytest.raises(SamplingError):
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
        DocumentPair(doc("a", 2, 0), doc("b", 2, 10), 0),
        DocumentPair(doc("a", 3, 1), doc("b", 3, 20), 1),
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
