"""Corpus ingestion: tokenization, aligned pair/document loading, noise sampling.

File formats:
  * parallel corpus: two UTF-8 text files, one sentence per line, line i of
    the first aligned with line i of the second;
  * document file: UTF-8 lines of four TAB-separated fields
    ``doc_id TAB lang TAB comma-separated-labels TAB sentences`` where
    sentences are joined by the literal ``" ||| "``.

Training loaders assign ids as they read: each token gets the next free id
of its language's vocabulary where it is first seen, reading every line of
a pair's first file before its second and the pairs in order, lines that
are dropped for an empty counterpart included.
"""

import contextlib
import os
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ContractError, UserError

SENTENCE_SEP = " ||| "


@dataclass(frozen=True)
class Sentence:
    """Token-id sequence; non-empty, ids valid for the owning vocabulary."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise ContractError("sentence must contain at least one token")


@dataclass(frozen=True)
class ParallelPair:
    source: Sentence
    target: Sentence


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


@dataclass
class ParallelCorpus:
    """Sentence pairs plus the language codes of their two sides."""

    src_lang: str
    tgt_lang: str
    pairs: list[ParallelPair]


@dataclass
class DocumentCorpus:
    """Aligned document pairs plus language codes; used for DOC training."""

    src_lang: str
    tgt_lang: str
    pairs: list[DocumentPair]


def tokenize(text: str) -> list[str]:
    """Case-fold and split on whitespace runs; empty input gives []."""
    return text.casefold().split()


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at `path`; every input file is read here.

    Lines end at LF, CRLF or CR only, as in text-mode iteration; form
    feeds, U+0085, U+2028 and the like stay inside their line, so files
    that `wc -l` counts as aligned read as aligned. A file that cannot be
    opened or decoded raises UserError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc
    if not lines[-1]:
        lines.pop()  # the empty text after the last line end
    return lines


@contextlib.contextmanager
def writing(path, mode: str = "w"):
    """A file open for writing (UTF-8 text, or bytes under mode "wb") that replaces `path`.

    Every output file is written here. The data goes to path.tmp, which
    replaces `path` when the block completes, so an interrupted write never
    leaves a partial file under the final name. On failure path.tmp is
    removed, and an OSError (a full disk, a file size limit) raises
    UserError naming `path`.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise UserError(f"cannot write {path}: {exc}") from exc
        raise


def iter_token_sentences(path):
    """Token lists of a plain parallel file, one per line (empties included)."""
    for line in read_lines(path):
        yield tokenize(line)


def iter_document_token_sentences(path):
    """Token lists of every sentence in a document file, in file order."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        _, _, _, sentences = _parse_document_line(path, lineno, line)
        yield from sentences


def _read_aligned(path_a, path_b, what: str) -> tuple:
    """The lines of two files that must align line by line."""
    lines_a = read_lines(path_a)
    lines_b = read_lines(path_b)
    if len(lines_a) != len(lines_b):
        raise UserError(
            f"{what} count mismatch: {path_a} has {len(lines_a)}, {path_b} has {len(lines_b)}"
        )
    return lines_a, lines_b


def load_parallel(path_a, path_b, vocab_a, vocab_b) -> list[ParallelPair]:
    """Read two line-aligned files into id-mapped pairs, assigning ids on reading.

    Every token of `path_a`, then of `path_b`, goes through `Vocabulary.add`,
    lines later dropped included. Pairs in which either side tokenizes to
    nothing are dropped.
    """
    lines_a, lines_b = _read_aligned(path_a, path_b, "line")
    ids_a = [tuple(map(vocab_a.add, tokenize(line))) for line in lines_a]
    ids_b = [tuple(map(vocab_b.add, tokenize(line))) for line in lines_b]
    return [ParallelPair(Sentence(a), Sentence(b)) for a, b in zip(ids_a, ids_b) if a and b]


def _parse_document_line(path, lineno: int, line: str) -> tuple:
    """(doc_id, lang, labels, token lists) of one document line."""
    fields = line.split("\t")
    if len(fields) != 4:
        raise UserError(
            f"{path}:{lineno}: expected 4 TAB-separated fields, got {len(fields)}"
        )
    doc_id, lang, label_field, body = fields
    labels = {l for l in label_field.split(",") if l}
    sentences = [tokenize(chunk) for chunk in body.split(SENTENCE_SEP)]
    return doc_id, lang, labels, sentences


def _read_document(path, lineno: int, line: str, to_ids) -> LabeledDocument:
    """The document on one line; `to_ids` maps a token list to ids, empty sentences drop."""
    doc_id, lang, labels, token_sents = _parse_document_line(path, lineno, line)
    sentences = [Sentence(ids) for ids in map(to_ids, token_sents) if ids]
    return LabeledDocument(doc_id, lang, labels, sentences)


def load_documents(path, vocab) -> list[LabeledDocument]:
    """Parse a document file; tokens missing from `vocab` are skipped.

    Sentences left empty and documents left without sentences are dropped.
    """

    def known(toks):
        return tuple(vocab[t] for t in toks if t in vocab)

    docs = [
        _read_document(path, lineno, line, known)
        for lineno, line in enumerate(read_lines(path), start=1)
        if line
    ]
    return [doc for doc in docs if doc.sentences]


def load_document_pairs(path_a, path_b, vocab_a, vocab_b) -> list[DocumentPair]:
    """Read two line-aligned document files into DocumentPairs, assigning ids on reading.

    Every token of `path_a`, then of `path_b`, goes through `Vocabulary.add`,
    documents later dropped included. Alignment is positional over raw
    lines; a blank line is a document without sentences. A pair is dropped
    when one side has no sentences; a kept pair must be sentence-aligned.
    """
    lines_a, lines_b = _read_aligned(path_a, path_b, "document")

    def read(path, lines, vocab):
        def to_ids(toks):
            return tuple(map(vocab.add, toks))

        return [
            _read_document(path, n, line, to_ids) if line else None
            for n, line in enumerate(lines, start=1)
        ]

    docs = zip(read(path_a, lines_a, vocab_a), read(path_b, lines_b, vocab_b))
    kept = [(n, a, b) for n, (a, b) in enumerate(docs, start=1)
            if a and b and a.sentences and b.sentences]
    for n, a, b in kept:
        if len(a.sentences) != len(b.sentences):
            raise UserError(f"{path_a}:{n} and {path_b}:{n} differ in sentence count "
                            f"({len(a.sentences)} vs {len(b.sentences)})")
    return [DocumentPair(a, b) for _, a, b in kept]


def sample_indices_excluding(n: int, exclude, k: int, rng: np.random.Generator) -> np.ndarray:
    """k uniform draws (with replacement) from range(n) minus an excluded index.

    `exclude` is one index, giving k draws, or an array of indices, giving
    one row of k draws per entry that avoids that entry. One generator call
    draws from range(n - 1); draws at or above their excluded index shift
    up by one, which is exactly uniform over the other n - 1 indices.
    """
    if n < 2:
        raise UserError(f"need at least 2 candidates to sample noise, have {n}")
    exclude = np.asarray(exclude)
    try:
        draws = rng.integers(0, n - 1, size=exclude.shape + (k,))
    except (MemoryError, ValueError):  # numpy refuses an array beyond memory or its size limit
        rule = f"must let each batch's noise draws fit in memory, got {k}"
        raise UserError(f"k (noise count) {rule}", "k", rule) from None
    draws += draws >= exclude[..., None]
    return draws


class PackedSide(NamedTuple):
    """One side of a corpus in compressed-sparse-row form.

    Sentence s holds the token ids ids[sent_starts[s]:sent_starts[s + 1]].
    For documents, document i holds the sentences
    doc_starts[i]:doc_starts[i + 1], and sentences after the last document
    belong to none; sentence corpora have no doc_starts and item i is
    sentence i.
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


def pack_sentences(sentences) -> PackedSide:
    """CSR form of a list of Sentences."""
    lengths = np.fromiter((len(s.ids) for s in sentences), np.intp, len(sentences))
    ids = np.fromiter(chain.from_iterable(s.ids for s in sentences), np.intp, lengths.sum())
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
        raise UserError(
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
            raise UserError(
                f"{name} document pair {idx} has {n_src} vs {n_tgt} sentences; "
                "the combined signal needs sentence-aligned documents"
            )
        if not n_tgt:
            raise ContractError(f"{name} document pair {idx} has no sentences")
    return (
        pack_documents([p.source.sentences for p in corpus.pairs]),
        pack_documents([p.target.sentences for p in corpus.pairs]),
    )
