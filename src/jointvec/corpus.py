"""Corpus ingestion: tokenization, aligned pair/document loading, noise sampling.

File formats:
  * parallel corpus: two UTF-8 text files, one sentence per line, line i of
    the first aligned with line i of the second;
  * document file: UTF-8 lines of four TAB-separated fields
    ``doc_id TAB lang TAB comma-separated-labels TAB sentences`` where
    sentences are joined by the literal ``" ||| "``.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ContractError, FileFormatError, SamplingError

SENTENCE_SEP = " ||| "


@dataclass(frozen=True)
class Sentence:
    """Token-id sequence; non-empty, ids valid for the owning vocabulary."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise ContractError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ParallelPair:
    source: Sentence
    target: Sentence
    index: int


@dataclass
class LabeledDocument:
    doc_id: str
    language: str
    labels: set[str]
    sentences: list[Sentence]


@dataclass(frozen=True)
class DocumentPair:
    """Aligned document pair; sentence alignment is positional when present."""

    source: LabeledDocument
    target: LabeledDocument
    index: int


@dataclass
class ParallelCorpus:
    """Sentence pairs plus the language codes of their two sides."""

    src_lang: str
    tgt_lang: str
    pairs: list[ParallelPair]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class DocumentCorpus:
    """Aligned document pairs plus language codes; used for DOC training."""

    src_lang: str
    tgt_lang: str
    pairs: list[DocumentPair]

    def __len__(self) -> int:
        return len(self.pairs)


def tokenize(text: str) -> list[str]:
    """Case-fold and split on whitespace runs; empty input gives []."""
    return text.casefold().split()


def _read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def iter_token_sentences(path):
    """Token lists of a plain parallel file, one per line (empties included)."""
    for line in _read_lines(path):
        yield tokenize(line)


def iter_document_token_sentences(path):
    """Token lists of every sentence in a document file, in file order."""
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        _, _, _, sentences = _parse_document_line(line, lineno)
        yield from sentences


def load_parallel(path_a, path_b, vocab_a, vocab_b) -> list[ParallelPair]:
    """Read two line-aligned files into id-mapped pairs.

    Pairs in which either side tokenizes to nothing are dropped; survivors
    are re-indexed 0..n-1. Both vocabularies must already cover the files.
    """
    lines_a = _read_lines(path_a)
    lines_b = _read_lines(path_b)
    if len(lines_a) != len(lines_b):
        raise AlignmentError(
            f"line count mismatch: {path_a} has {len(lines_a)}, {path_b} has {len(lines_b)}"
        )
    pairs = []
    for raw_a, raw_b in zip(lines_a, lines_b):
        toks_a = tokenize(raw_a)
        toks_b = tokenize(raw_b)
        if not toks_a or not toks_b:
            continue
        pairs.append(
            ParallelPair(
                Sentence(tuple(vocab_a[t] for t in toks_a)),
                Sentence(tuple(vocab_b[t] for t in toks_b)),
                len(pairs),
            )
        )
    return pairs


def _parse_document_line(line: str, lineno: int) -> tuple[str, str, set[str], list[list[str]]]:
    fields = line.split("\t")
    if len(fields) != 4:
        raise FileFormatError(
            f"line {lineno}: expected 4 TAB-separated fields, got {len(fields)}"
        )
    doc_id, lang, label_field, body = fields
    labels = {l for l in label_field.split(",") if l}
    sentences = [tokenize(chunk) for chunk in body.split(SENTENCE_SEP)]
    return doc_id, lang, labels, sentences


def _id_map_document(doc_id, lang, labels, token_sents, vocab) -> LabeledDocument:
    sentences = []
    for toks in token_sents:
        ids = tuple(vocab[t] for t in toks if t in vocab)
        if ids:
            sentences.append(Sentence(ids))
    return LabeledDocument(doc_id, lang, labels, sentences)


def load_documents(path, vocab) -> list[LabeledDocument]:
    """Parse a document file; tokens missing from `vocab` are skipped.

    Sentences left empty and documents left without sentences are dropped.
    """
    docs = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        doc = _id_map_document(*_parse_document_line(line, lineno), vocab)
        if doc.sentences:
            docs.append(doc)
    return docs


def load_document_pairs(path_a, path_b, vocab_a, vocab_b) -> list[DocumentPair]:
    """Read two line-aligned document files into DocumentPairs.

    Alignment is positional over raw lines; a pair is dropped only when one
    side ends up with no sentences, keeping the two sides in lockstep.
    """
    lines_a = _read_lines(path_a)
    lines_b = _read_lines(path_b)
    if len(lines_a) != len(lines_b):
        raise AlignmentError(
            f"document count mismatch: {path_a} has {len(lines_a)}, {path_b} has {len(lines_b)}"
        )
    pairs = []
    for lineno, (raw_a, raw_b) in enumerate(zip(lines_a, lines_b), start=1):
        doc_a = _id_map_document(*_parse_document_line(raw_a, lineno), vocab_a)
        doc_b = _id_map_document(*_parse_document_line(raw_b, lineno), vocab_b)
        if not doc_a.sentences or not doc_b.sentences:
            continue
        pairs.append(DocumentPair(doc_a, doc_b, len(pairs)))
    return pairs


def select_top_labels(docs: list[LabeledDocument], n: int) -> set[str]:
    """The n labels present in the most documents; ties favor the lexicographically smaller label."""
    if n < 1:
        raise ValueError("n must be >= 1")
    freq = Counter()
    for doc in docs:
        freq.update(doc.labels)
    if len(freq) < n:
        warnings.warn(
            f"requested {n} labels but only {len(freq)} distinct labels occur",
            stacklevel=2,
        )
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return {label for label, _ in ranked[:n]}


def sample_indices_excluding(n: int, exclude, k: int, rng: np.random.Generator) -> np.ndarray:
    """k uniform draws (with replacement) from range(n) minus an excluded index.

    `exclude` is one index, giving k draws, or an array of indices, giving
    one row of k draws per entry that avoids that entry. One generator call
    draws from range(n - 1); draws at or above their excluded index shift
    up by one, which is exactly uniform over the other n - 1 indices.
    """
    if n < 2:
        raise SamplingError(f"need at least 2 candidates to sample noise, have {n}")
    exclude = np.asarray(exclude)
    draws = rng.integers(0, n - 1, size=exclude.shape + (k,))
    draws += draws >= exclude[..., None]
    return draws


class PackedSide(NamedTuple):
    """One side of a corpus in compressed-sparse-row form.

    Sentence s holds the token ids ids[sent_starts[s]:sent_starts[s + 1]].
    For documents, document i holds the sentences
    doc_starts[i]:doc_starts[i + 1]; sentence corpora have no doc_starts and
    item i is sentence i.
    """

    ids: np.ndarray
    sent_starts: np.ndarray
    doc_starts: np.ndarray | None = None

    @property
    def n_sentences(self) -> int:
        return len(self.sent_starts) - 1


def _starts(lengths) -> np.ndarray:
    """CSR offsets of consecutive ranges with the given lengths."""
    starts = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=starts[1:])
    return starts


def gather_ranges(starts: np.ndarray, idx: np.ndarray) -> tuple:
    """The CSR ranges starts[i]:starts[i + 1] for a non-empty idx, concatenated.

    Returns (flat positions, range lengths): token positions of sentences,
    or sentence indices of documents.
    """
    first = starts[idx]
    lengths = starts[idx + 1] - first
    ends = lengths.cumsum()
    return (first + lengths - ends).repeat(lengths) + np.arange(ends[-1]), lengths


def sentence_tokens(sentences) -> tuple:
    """(concatenated token ids, per-sentence lengths) of a list of Sentences."""
    lengths = np.fromiter((len(s.ids) for s in sentences), np.intp, len(sentences))
    ids = np.fromiter(chain.from_iterable(s.ids for s in sentences), np.intp, lengths.sum())
    return ids, lengths


def pack_sentences(sentences) -> PackedSide:
    """CSR form of a list of Sentences."""
    ids, lengths = sentence_tokens(sentences)
    return PackedSide(ids, _starts(lengths))


def pack_documents(documents) -> PackedSide:
    """CSR form of a list of documents, each a list of Sentences."""
    flat = pack_sentences([s for doc in documents for s in doc])
    return flat._replace(doc_starts=_starts([len(doc) for doc in documents]))


def pack_corpus(corpus) -> tuple[PackedSide, PackedSide]:
    """Both sides of a ParallelCorpus or DocumentCorpus in CSR form.

    Checks what noise sampling and the combined document signal need, so a
    training run fails before its first update: at least 2 pairs, and
    every document pair sentence-aligned and non-empty (hence at least 2
    target sentences to draw sentence noise from).
    """
    name = f"{corpus.src_lang}-{corpus.tgt_lang}"
    if len(corpus.pairs) < 2:
        raise SamplingError(
            f"{name}: need at least 2 pairs to sample noise, have {len(corpus.pairs)}"
        )
    if not isinstance(corpus, DocumentCorpus):
        return (
            pack_sentences([p.source for p in corpus.pairs]),
            pack_sentences([p.target for p in corpus.pairs]),
        )
    for idx, p in enumerate(corpus.pairs):
        n_src, n_tgt = len(p.source.sentences), len(p.target.sentences)
        if n_src != n_tgt:
            raise AlignmentError(
                f"{name} document pair {idx} has {n_src} vs {n_tgt} sentences; "
                "the combined signal needs sentence-aligned documents"
            )
        if not n_tgt:
            raise ContractError(f"{name} document pair {idx} has no sentences")
    return (
        pack_documents([p.source.sentences for p in corpus.pairs]),
        pack_documents([p.target.sentences for p in corpus.pairs]),
    )
