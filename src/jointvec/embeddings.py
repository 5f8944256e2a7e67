"""Vocabularies, per-language embedding tables, and the text export format.

The on-disk format is one header line ``V d`` followed by V rows of
``word v1 ... vd``. Floats are written with ``repr``, i.e. the shortest
decimal string that round-trips to the same IEEE-754 double, so
export -> import -> export is byte-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .composition import CompositionKind, _block_rows
from .corpus import read_lines, writing
from .errors import ContractError, UserError


def derive_seed(*parts) -> int:
    """Fold integer parts into one independent seed, order-sensitive."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Vocabulary:
    """Token <-> dense-id bijection; ids are assigned in first-seen order."""

    def __init__(self, tokens=()):
        self._tokens: list[str] = list(dict.fromkeys(tokens))
        self._index: dict[str, int] = dict(zip(self._tokens, range(len(self._tokens))))

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
            raise UserError(f"unknown token {token!r}") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise UserError(f"token id {idx} out of range [0, {len(self._tokens)})")
        return self._tokens[idx]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)


@dataclass
class EmbeddingTable:
    """Dense (V, d) float64 matrix for one language; rows align with vocab ids.

    A read-only matrix is taken never to change, so nearest_neighbors keeps
    its row norms on the table after the first cosine query. make_writable
    is the one way back to a writable matrix, and it drops them.
    """

    language: str
    matrix: np.ndarray
    # (matrix, its row norms), kept by nearest_neighbors while the matrix is read-only
    _norms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ContractError(f"embedding matrix must be 2-D, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise ContractError("embedding matrix contains non-finite entries")

    def make_writable(self) -> None:
        """Let the matrix be updated in place; the row norms kept for queries are dropped."""
        self._norms = None
        self.matrix.flags.writeable = True

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
        raise UserError(f"need vocab_size >= 0 and d >= 1, got ({vocab_size}, {d})")
    rng = np.random.default_rng(seed)
    return EmbeddingTable(language, rng.normal(0.0, math.sqrt(0.1), size=(vocab_size, d)))


class ModelBundle:
    """All per-language vocabularies and tables of one model, plus its composition kind."""

    def __init__(self, vocabs: dict, tables: dict, kind: CompositionKind):
        if set(vocabs) != set(tables):
            raise UserError(
                f"vocab languages {sorted(vocabs)} != table languages {sorted(tables)}"
            )
        if not tables:
            raise UserError("a model needs at least one language")
        dims = {t.d for t in tables.values()}
        if len(dims) != 1:
            raise UserError(f"all tables must share one dimension, got {sorted(dims)}")
        for lang, table in tables.items():
            if table.vocab_size != len(vocabs[lang]):
                raise UserError(
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
            raise UserError(f"model has no language {lang!r}") from None

    def table(self, lang: str) -> EmbeddingTable:
        try:
            return self.tables[lang]
        except KeyError:
            raise UserError(f"model has no language {lang!r}") from None


def export_table(table: EmbeddingTable, vocab: Vocabulary, path) -> None:
    """Write the text format described in the module docstring."""
    if table.vocab_size != len(vocab):
        raise ContractError(
            f"table rows ({table.vocab_size}) != vocabulary size ({len(vocab)})"
        )
    with writing(path) as fh:
        fh.write(f"{table.vocab_size} {table.d}\n")
        for idx in range(table.vocab_size):
            row = " ".join(repr(float(v)) for v in table.matrix[idx])
            fh.write(f"{vocab.token(idx)} {row}\n")


def _reject_rows(path, vocab: Vocabulary, bad: np.ndarray, what: str) -> None:
    """Fail naming the first row flagged in `bad`; rows count from 1, as .vocab lines do."""
    row = int(bad.argmax())
    raise UserError(f"{path}: row {row + 1} ({vocab.token(row)!r}) has {what}")


def import_table(path, language: str = "") -> tuple[Vocabulary, EmbeddingTable]:
    """Parse the text format back into a (Vocabulary, EmbeddingTable) pair."""
    lines = read_lines(path)
    if not lines:
        raise UserError(f"{path}: empty embedding file")
    header = lines[0].split()
    if len(header) != 2:
        raise UserError(f"{path}: header must be 'V d', got {lines[0]!r}")
    try:
        v, d = int(header[0]), int(header[1])
    except ValueError:
        raise UserError(f"{path}: non-integer header {lines[0]!r}") from None
    if v < 0 or d < 1:
        raise UserError(f"{path}: header needs V >= 0 and d >= 1, got {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln]
    if len(body) != v:
        raise UserError(f"{path}: header promises {v} rows, found {len(body)}")
    try:  # with no rows, d is bounded only by numpy's largest shape
        vocab, matrix = Vocabulary(), np.empty((0, d))
    except ValueError:
        raise UserError(f"{path}: header dimension {d} is too large") from None
    for row_no, line in enumerate(body):
        parts = line.split()
        if len(parts) != d + 1:
            raise UserError(
                f"{path}: row {row_no + 1} has {len(parts) - 1} values, expected {d}"
            )
        if not row_no:  # d is the width of a row read: the matrix is no larger than the file
            matrix = np.empty((v, d))
        word = parts[0]
        if word in vocab:
            raise UserError(f"{path}: duplicate word {word!r}")
        vocab.add(word)
        try:
            matrix[row_no] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise UserError(f"{path}: row {row_no + 1}: {exc}") from None
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        _reject_rows(path, vocab, bad, "non-finite values")
    return vocab, EmbeddingTable(language, matrix)


def _row_sums(mat: np.ndarray, buf: np.ndarray, tiled: np.ndarray = None) -> np.ndarray:
    """Each row's sum of squares, or with `tiled` of squared differences from its rows.

    Rows go len(buf) at a time through the preallocated buffer, so no
    (V, d) temporary is made. `tiled` holds the query row repeated to
    buf's shape: subtracting same-shaped blocks is one inner loop per
    block, where a broadcast row costs one per row.
    """
    sums = np.empty(len(mat))
    for lo in range(0, len(mat), len(buf)):
        x = mat[lo : lo + len(buf)]
        part = buf[: len(x)]
        if tiled is None:
            np.multiply(x, x, out=part)
        else:
            np.subtract(x, tiled[: len(x)], out=part)
            part *= part
        np.add.reduce(part, axis=1, out=sums[lo : lo + len(x)])
    return sums


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

    Each target table is scored with one gemv, `mat @ vq`, over all its
    rows. Its per-row sums of squares (cosine) or of squared differences
    (Euclidean) are formed max(1, 16,384 // d) rows at a time in one
    preallocated (block, d) buffer, so no (V, d) temporary is made; each
    row's sum is the same reduction over its own d values that
    `np.linalg.norm(x, axis=1)` forms, so the bits do not depend on the
    block. A read-only table keeps its row norms from its first cosine
    query, so later queries pay only the gemv; a writable table's are
    formed again for every query, as it may have changed since. Only the
    rows scoring at or above the table's n-th best score reach the final
    sort, so every row tied with that cut competes on (language, token).
    """
    if metric not in ("cosine", "euclidean"):
        raise UserError(f"unknown metric {metric!r}")
    lang_q, token_q = query
    row_q = bundle.vocab(lang_q)[token_q]
    vq = bundle.table(lang_q).matrix[row_q]
    langs = bundle.languages if target_language == "all" else [target_language]
    tables = [bundle.table(lang) for lang in langs]
    if n <= 0:
        return []
    buf = np.empty((_block_rows(len(vq)), len(vq)))
    if metric == "cosine":
        norm_q = np.linalg.norm(vq)
    else:
        tiled = np.tile(vq, (len(buf), 1))
    candidates = []
    for lang, table in zip(langs, tables):
        mat = table.matrix
        if metric == "cosine":
            if table._norms is not None and table._norms[0] is mat:
                row_norms = table._norms[1]
            else:
                row_norms = np.sqrt(_row_sums(mat, buf))
                if not mat.flags.writeable:
                    table._norms = (mat, row_norms)
            norms = row_norms * norm_q
            scores = np.divide(mat @ vq, norms, out=np.zeros(len(mat)), where=norms > 0)
        else:
            scores = -np.sqrt(_row_sums(mat, buf, tiled))
        rows = np.arange(len(scores))
        if lang == lang_q:
            rows = np.delete(rows, row_q)
            scores = scores[rows]
        if len(scores) > n:
            cut = np.partition(scores, len(scores) - n)[len(scores) - n]
            keep = np.flatnonzero(scores >= cut)
            rows, scores = rows[keep], scores[keep]
        vocab = bundle.vocab(lang)
        candidates.extend(
            (lang, vocab.token(r), s) for r, s in zip(rows.tolist(), scores.tolist())
        )
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    return candidates[:n]
