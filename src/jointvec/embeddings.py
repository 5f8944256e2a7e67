"""Vocabularies, per-language embedding tables, and the text export format.

The on-disk format is one header line ``V d`` followed by V rows of
``word v1 ... vd``. Floats are written with ``repr``, i.e. the shortest
decimal string that round-trips to the same IEEE-754 double, so
export -> import -> export is byte-identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .composition import CompositionKind
from .errors import ConfigError, ContractError, FileFormatError, TokenLookupError


def derive_seed(*parts) -> int:
    """Fold integer parts into one independent seed, order-sensitive."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Vocabulary:
    """Token <-> dense-id bijection; ids are assigned in first-seen order."""

    def __init__(self, tokens=()):
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._index[token] = idx
            self._tokens.append(token)
        return idx

    def __getitem__(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise TokenLookupError(f"unknown token {token!r}") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise TokenLookupError(f"token id {idx} out of range [0, {len(self._tokens)})")
        return self._tokens[idx]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)


def build_vocab(token_sentences) -> Vocabulary:
    """Vocabulary over an iterable of token sequences, first-seen order."""
    vocab = Vocabulary()
    for sent in token_sentences:
        for tok in sent:
            vocab.add(tok)
    return vocab


@dataclass
class EmbeddingTable:
    """Dense (V, d) float64 matrix for one language; rows align with vocab ids."""

    language: str
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ContractError(f"embedding matrix must be 2-D, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise ContractError("embedding matrix contains non-finite entries")

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def init_table(vocab_size: int, d: int, seed: int, language: str = "") -> EmbeddingTable:
    """Gaussian-initialized table, mean 0 and variance 0.1.

    Draws come from numpy's seeded PCG64 generator, so a given
    (vocab_size, d, seed) always produces bit-identical values.
    """
    if vocab_size < 0 or d < 1:
        raise ConfigError(f"need vocab_size >= 0 and d >= 1, got ({vocab_size}, {d})")
    rng = np.random.default_rng(seed)
    return EmbeddingTable(language, rng.normal(0.0, math.sqrt(0.1), size=(vocab_size, d)))


class ModelBundle:
    """All per-language vocabularies and tables of one model, plus its composition kind."""

    def __init__(self, vocabs: dict, tables: dict, kind: CompositionKind):
        if set(vocabs) != set(tables):
            raise ConfigError(
                f"vocab languages {sorted(vocabs)} != table languages {sorted(tables)}"
            )
        if not tables:
            raise ConfigError("a model needs at least one language")
        dims = {t.d for t in tables.values()}
        if len(dims) != 1:
            raise ConfigError(f"all tables must share one dimension, got {sorted(dims)}")
        for lang, table in tables.items():
            if table.vocab_size != len(vocabs[lang]):
                raise ConfigError(
                    f"{lang}: table has {table.vocab_size} rows for {len(vocabs[lang])} tokens"
                )
        self.vocabs = vocabs
        self.tables = tables
        self.kind = kind

    @property
    def d(self) -> int:
        return next(iter(self.tables.values())).d

    @property
    def languages(self) -> list[str]:
        return sorted(self.tables)

    def vocab(self, lang: str) -> Vocabulary:
        try:
            return self.vocabs[lang]
        except KeyError:
            raise ConfigError(f"model has no language {lang!r}") from None

    def table(self, lang: str) -> EmbeddingTable:
        try:
            return self.tables[lang]
        except KeyError:
            raise ConfigError(f"model has no language {lang!r}") from None


def export_table(table: EmbeddingTable, vocab: Vocabulary, path) -> None:
    """Write the text format described in the module docstring."""
    if table.vocab_size != len(vocab):
        raise ContractError(
            f"table rows ({table.vocab_size}) != vocabulary size ({len(vocab)})"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.vocab_size} {table.d}\n")
        for idx in range(table.vocab_size):
            row = " ".join(repr(float(v)) for v in table.matrix[idx])
            fh.write(f"{vocab.token(idx)} {row}\n")


def import_table(path, language: str = "") -> tuple[Vocabulary, EmbeddingTable]:
    """Parse the text format back into a (Vocabulary, EmbeddingTable) pair."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty embedding file")
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError(f"{path}: header must be 'V d', got {lines[0]!r}")
    try:
        v, d = int(header[0]), int(header[1])
    except ValueError:
        raise FileFormatError(f"{path}: non-integer header {lines[0]!r}") from None
    body = [ln for ln in lines[1:] if ln]
    if len(body) != v:
        raise FileFormatError(f"{path}: header promises {v} rows, found {len(body)}")
    vocab = Vocabulary()
    matrix = np.empty((v, d), dtype=np.float64)
    for row_no, line in enumerate(body):
        parts = line.split()
        if len(parts) != d + 1:
            raise FileFormatError(
                f"{path}: row {row_no + 1} has {len(parts) - 1} values, expected {d}"
            )
        word = parts[0]
        if word in vocab:
            raise FileFormatError(f"{path}: duplicate word {word!r}")
        vocab.add(word)
        try:
            matrix[row_no] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}: row {row_no + 1}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise FileFormatError(
            f"{path}: row {bad[0] + 1} ({vocab.token(bad[0])!r}) has non-finite values"
        )
    return vocab, EmbeddingTable(language, matrix)


def nearest_neighbors(
    bundle: ModelBundle,
    query: tuple,
    n: int,
    target_language: str = "all",
    metric: str = "cosine",
) -> list[tuple]:
    """Top-n neighbors of (lang, token) as (language, token, score) triples.

    Scores are cosine similarity (a zero vector anywhere scores 0) or, with
    metric="euclidean", negated Euclidean distance, so higher is always
    better. The query token itself is excluded; exact score ties order by
    (language, token).
    """
    if metric not in ("cosine", "euclidean"):
        raise ConfigError(f"unknown metric {metric!r}")
    lang_q, token_q = query
    vq = bundle.table(lang_q).matrix[bundle.vocab(lang_q)[token_q]]
    langs = bundle.languages if target_language == "all" else [target_language]
    candidates = []
    for lang in langs:
        mat = bundle.table(lang).matrix
        if metric == "cosine":
            norms = np.linalg.norm(mat, axis=1) * np.linalg.norm(vq)
            scores = np.divide(mat @ vq, norms, out=np.zeros(len(mat)), where=norms > 0)
        else:
            scores = -np.linalg.norm(mat - vq, axis=1)
        vocab = bundle.vocab(lang)
        for idx, score in enumerate(scores):
            tok = vocab.token(idx)
            if lang == lang_q and tok == token_q:
                continue
            candidates.append((lang, tok, float(score)))
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    return candidates[: max(n, 0)]
