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
from dataclasses import dataclass, field

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
    # flattened target-side sentences, for sentence-level noise draws
    _flat_targets: list[Sentence] = field(default_factory=list, repr=False)
    _flat_offsets: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self._flat_targets:
            for dp in self.pairs:
                self._flat_offsets.append(len(self._flat_targets))
                self._flat_targets.extend(dp.target.sentences)

    def __len__(self) -> int:
        return len(self.pairs)

    def flat_target_pool(self) -> list[Sentence]:
        return self._flat_targets

    def flat_index(self, pair_index: int, sentence_index: int) -> int:
        return self._flat_offsets[pair_index] + sentence_index


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


def sample_indices_excluding(n: int, exclude: int, k: int, rng: np.random.Generator) -> list[int]:
    """k uniform draws (with replacement) from range(n) minus one index."""
    if n < 2:
        raise SamplingError(f"need at least 2 candidates to sample noise, have {n}")
    out = []
    while len(out) < k:
        i = int(rng.integers(0, n))
        if i != exclude:
            out.append(i)
    return out
