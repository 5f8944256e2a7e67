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
    its rows' sums of squares on the table after its first query, of either
    metric. Cosine takes their square roots as the row norms; a Euclidean
    query filters every row by them and one gemv, then rescores only the
    rows the filter cannot rule out (see nearest_neighbors). make_writable
    is the one way back to a writable matrix, and it drops them.
    """

    language: str
    matrix: np.ndarray
    # (matrix, its rows' sums of squares), kept by nearest_neighbors while matrix is read-only
    _sums: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ContractError(f"embedding matrix must be 2-D, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise ContractError("embedding matrix contains non-finite entries")

    def make_writable(self) -> None:
        """Let the matrix be updated in place; the row sums kept for queries are dropped."""
        self._sums = None
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


def _row_sums(
    mat: np.ndarray, buf: np.ndarray, tiled: np.ndarray = None, rows: np.ndarray = None
) -> np.ndarray:
    """Each row's sum of squares, or with `tiled` of squared differences from its rows.

    Rows go len(buf) at a time through the preallocated buffer, so no
    (V, d) temporary is made; with `rows`, only those rows are summed, in
    that order, each block of them gathered on its own. `tiled` holds the
    query row repeated to buf's shape: subtracting same-shaped blocks is
    one inner loop per block, where a broadcast row costs one per row.
    """
    sums = np.empty(len(mat) if rows is None else len(rows))
    for lo in range(0, len(sums), len(buf)):
        x = mat[lo : lo + len(buf)] if rows is None else mat[rows[lo : lo + len(buf)]]
        part = buf[: len(x)]
        if tiled is None:
            np.multiply(x, x, out=part)
        else:
            np.subtract(x, tiled[: len(x)], out=part)
            part *= part
        np.add.reduce(part, axis=1, out=sums[lo : lo + len(x)])
    return sums


_U = np.finfo(np.float64).eps / 2  # float64's unit roundoff, 2**-53
_SAFE = np.finfo(np.float64).max / 16  # below it, no sum the Euclidean filter uses overflows


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
    (language, token), and a NaN cosine score (where a product overflows)
    ranks below every other.

    Each table's rows' sums of squares are formed max(1, 16,384 // d) rows
    at a time in one preallocated (block, d) buffer, so no (V, d) temporary
    is made; each row's sum is the same reduction over its own d values
    that `np.linalg.norm(x, axis=1)` forms, so the bits do not depend on
    the block. A read-only table keeps them from its first query; a
    writable table's are formed again for every query, as it may have
    changed since. Cosine divides one gemv, `mat @ vq`, by their square
    roots times the query's norm.

    A Euclidean score is -sqrt(T), T a row's sum of squared differences
    from the query, formed in the same blocks. Only the rows that may reach
    the top n are scored so, and all of them when the table has no more
    rows than n. The filter estimates each T from the kept sums s, the
    query's sum s_q and the same gemv g as E = (s + s_q) - 2g, and bounds
    |E - T| by e = 8 (d + 4) u (s + s_q + 2**-1021), u = 2**-53: s, g and T
    err by at most γ_d, γ_d and γ_(d+2) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §3.1) times sums of squares no larger
    than 2 (s + s_q), since 2|m||q| <= |m|² + |q|²; each addition adds u
    times as much, and each product at most one subnormal step; 8 (d + 4)
    is twice their total. So U, the n-th smallest E + e, is at least the
    n-th smallest T, and a row the cut keeps has T at most that T times
    1 + 4u + 8u², for sqrt may round sums that close to one score. A row is
    dropped only where E - e > U (1 + 16u), whose slack also covers the
    rounding of E - e, E + e and the product; a row whose bound is NaN, or
    whose s + s_q reaches float64's maximum / 16 (where a sum could
    overflow), is kept. The kept rows' T are formed block by block from
    their gathered rows, so they carry the bits of a full scan, and the
    cut, the sort and the tie order follow from them alone: no returned
    bit depends on how the gemv rounded.

    Only the rows scoring at or above the table's n-th best score reach the
    final sort, so every row tied with that cut competes on (language, token).
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
        slack = 8 * (len(vq) + 4) * _U
    candidates = []
    for lang, table in zip(langs, tables):
        mat = table.matrix
        if table._sums is not None and table._sums[0] is mat:
            sums = table._sums[1]
        else:
            with np.errstate(over="ignore"):  # an overflowing sum is inf; both metrics take it
                sums = _row_sums(mat, buf)
            if not mat.flags.writeable:
                table._sums = (mat, sums)
        rows = np.arange(len(mat))
        if lang == lang_q:
            rows = np.delete(rows, row_q)
        if metric == "cosine":
            norms = np.sqrt(sums) * norm_q
            scores = np.divide(mat @ vq, norms, out=np.zeros(len(mat)), where=norms > 0)
            if lang == lang_q:
                scores = scores[rows]
        else:
            if len(rows) > n:
                with np.errstate(over="ignore", invalid="ignore"):
                    total = sums + vq @ vq
                    est = total - 2 * (mat @ vq)
                    err = (total + 2.0**-1021) * slack
                    low, high = est - err, est + err
                unsure = ~(total < _SAFE)
                low[unsure], high[unsure] = -np.inf, np.inf
                if lang == lang_q:
                    low, high = low[rows], high[rows]
                high.partition(n - 1)
                rows = rows[~(low > high[n - 1] * (1 + 16 * _U))]
            scores = -np.sqrt(_row_sums(mat, buf, tiled, rows))
        if len(scores) > n:
            worst = -scores  # np.partition puts NaN last: a NaN score ranks below every other
            worst.partition(n - 1)
            cut = -worst[n - 1]
            if cut == cut:  # else fewer than n rows have a score, and every row stays
                keep = np.flatnonzero(scores >= cut)
                rows, scores = rows[keep], scores[keep]
        vocab = bundle.vocab(lang)
        candidates.extend(
            (lang, vocab.token(r), s) for r, s in zip(rows.tolist(), scores.tolist())
        )
    candidates.sort(key=lambda c: (-c[2] if c[2] == c[2] else math.inf, c[0], c[1]))
    return candidates[:n]
