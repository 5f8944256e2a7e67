import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointvec.composition import CompositionKind, _block_rows
from jointvec.embeddings import (
    EmbeddingTable,
    ModelBundle,
    Vocabulary,
    derive_seed,
    export_table,
    import_table,
    init_table,
    nearest_neighbors,
)
from jointvec.errors import ContractError, UserError

from conftest import make_bundle


def test_vocabulary_first_seen_order():
    vocab = Vocabulary(t for s in [["a", "b"], ["b", "c"]] for t in s)
    assert [vocab[t] for t in ("a", "b", "c")] == [0, 1, 2]
    assert len(vocab) == 3
    assert vocab.token(1) == "b"
    assert "a" in vocab and "z" not in vocab
    assert Vocabulary(["x", "x", "x"]).tokens == ["x"]
    assert len(Vocabulary()) == 0


def test_vocabulary_lookup_errors():
    vocab = Vocabulary(["a"])
    with pytest.raises(UserError, match="unknown token 'missing'"):
        vocab["missing"]
    with pytest.raises(UserError, match=re.escape("token id 1 out of range [0, 1)")):
        vocab.token(1)
    vocab.tokens.append("mutated")  # property hands out a copy
    assert len(vocab) == 1


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) != derive_seed(1, 3)


def test_init_table_gaussian_moments():
    table = init_table(1000, 128, seed=123)
    entries = table.matrix.ravel()
    assert abs(entries.mean()) < 4 * np.sqrt(0.1 / (1000 * 128))
    assert abs(entries.var() - 0.1) < 0.01  # within 10% of 0.1


def test_init_table_determinism_and_bounds():
    one = init_table(10, 4, seed=9).matrix
    two = init_table(10, 4, seed=9).matrix
    assert np.array_equal(one, two)
    assert not np.array_equal(one, init_table(10, 4, seed=10).matrix)
    assert init_table(0, 4, seed=1).matrix.shape == (0, 4)
    with pytest.raises(UserError, match=re.escape("got (-1, 4)")):
        init_table(-1, 4, seed=1)
    with pytest.raises(UserError, match=re.escape("got (4, 0)")):
        init_table(4, 0, seed=1)


def test_embedding_table_validation():
    with pytest.raises(ContractError):
        EmbeddingTable("en", np.zeros(3))
    with pytest.raises(ContractError):
        EmbeddingTable("en", np.array([[np.nan, 0.0]]))


def test_export_import_round_trip(tmp_path):
    table = init_table(7, 3, seed=4, language="en")
    vocab = Vocabulary(f"w{i}" for i in range(7))
    path = tmp_path / "en.emb"
    export_table(table, vocab, path)
    vocab2, table2 = import_table(path, "en")
    assert vocab2.tokens == vocab.tokens
    assert np.array_equal(table2.matrix, table.matrix)  # repr round-trips exactly
    path2 = tmp_path / "en2.emb"
    export_table(table2, vocab2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_empty_table(tmp_path):
    path = tmp_path / "empty.emb"
    export_table(init_table(0, 5, seed=1), Vocabulary(), path)
    assert path.read_text(encoding="utf-8") == "0 5\n"
    vocab, table = import_table(path)
    assert len(vocab) == 0 and table.matrix.shape == (0, 5)


def test_export_size_mismatch(tmp_path):
    with pytest.raises(ContractError):
        export_table(init_table(2, 2, seed=1), Vocabulary(["only"]), tmp_path / "x.emb")


@pytest.mark.parametrize(
    "content",
    [
        "",
        "2\n",
        "x 3\n",
        "2 3\nw1 0.0 0.0 0.0\n",
        "1 3\nw1 0.0 0.0\n",
        "2 1\nw1 0.0\nw1 1.0\n",
        "1 1\nw1 abc\n",
        "2 1\nw1 0.0\nw2 nan\n",
    ],
)
def test_import_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.emb"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{path}: ")):
        import_table(path)


def test_import_names_the_first_non_finite_row(tmp_path):
    """Rows count from 1, as in a checkpoint's .vocab faults; an inf row after it is not named."""
    path = tmp_path / "x.emb"
    path.write_text("3 2\na 0.0 1.0\nb nan 0.0\nc inf 0.0\n", encoding="utf-8")
    with pytest.raises(UserError) as exc:
        import_table(path)
    assert str(exc.value) == f"{path}: row 2 ('b') has non-finite values"


def test_model_bundle_validation():
    vocab = Vocabulary(["w0"])
    t2 = EmbeddingTable("a", np.zeros((1, 2)))
    t3 = EmbeddingTable("b", np.zeros((1, 3)))
    with pytest.raises(UserError, match=re.escape("vocab languages ['a'] != table languages")):
        ModelBundle({"a": vocab}, {"a": t2, "b": t3}, CompositionKind.ADD)
    with pytest.raises(UserError, match=re.escape("share one dimension, got [2, 3]")):
        ModelBundle({"a": vocab, "b": vocab}, {"a": t2, "b": t3}, CompositionKind.ADD)
    with pytest.raises(UserError, match="at least one language"):
        ModelBundle({}, {}, CompositionKind.ADD)
    with pytest.raises(UserError, match="a: table has 1 rows for 2 tokens"):
        ModelBundle(
            {"a": Vocabulary(["w0", "w1"])}, {"a": t2}, CompositionKind.ADD
        )
    bundle = ModelBundle({"a": vocab}, {"a": t2}, CompositionKind.ADD)
    assert bundle.d == 2 and bundle.languages == ["a"]
    with pytest.raises(UserError, match="model has no language 'zz'"):
        bundle.table("zz")
    with pytest.raises(UserError, match="model has no language 'zz'"):
        bundle.vocab("zz")


def _query_bundle():
    vocabs = {
        "en": Vocabulary(["x"]),
        "de": Vocabulary(["y", "z"]),
    }
    tables = {
        "en": EmbeddingTable("en", np.array([[1.0, 0.0]])),
        "de": EmbeddingTable("de", np.array([[2.0, 0.0], [0.0, 1.0]])),
    }
    return ModelBundle(vocabs, tables, CompositionKind.ADD)


def test_nearest_neighbors_cosine_order_and_exclusion():
    bundle = _query_bundle()
    out = nearest_neighbors(bundle, ("en", "x"), 2)
    assert out[0][:2] == ("de", "y")
    assert out[0][2] == pytest.approx(1.0)
    assert out[1][:2] == ("de", "z")
    assert ("en", "x") not in [(l, t) for l, t, _ in out]
    assert len(nearest_neighbors(bundle, ("en", "x"), 50)) == 2  # n beyond pool


def test_nearest_neighbors_zero_vector_scores_zero():
    vocabs = {"en": Vocabulary(["zero", "one"])}
    tables = {"en": EmbeddingTable("en", np.array([[0.0, 0.0], [1.0, 0.0]]))}
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    assert nearest_neighbors(bundle, ("en", "zero"), 1)[0][2] == 0.0
    assert nearest_neighbors(bundle, ("en", "one"), 1)[0][2] == 0.0


def test_nearest_neighbors_tie_break_and_target_filter():
    vocabs = {
        "en": Vocabulary(["q", "b", "a"]),
        "de": Vocabulary(["a"]),
    }
    same = [1.0, 0.0]
    tables = {
        "en": EmbeddingTable("en", np.array([same, same, same])),
        "de": EmbeddingTable("de", np.array([same])),
    }
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    out = nearest_neighbors(bundle, ("en", "q"), 3)
    assert [(l, t) for l, t, _ in out] == [("de", "a"), ("en", "a"), ("en", "b")]
    only_de = nearest_neighbors(bundle, ("en", "q"), 3, target_language="de")
    assert [(l, t) for l, t, _ in only_de] == [("de", "a")]


def test_nearest_neighbors_euclidean_metric():
    bundle = _query_bundle()
    out = nearest_neighbors(bundle, ("en", "x"), 2, metric="euclidean")
    assert out[0][:2] == ("de", "y")
    assert out[0][2] == pytest.approx(-1.0)  # negated distance
    assert out[1][2] == pytest.approx(-np.sqrt(2.0))
    with pytest.raises(UserError, match="unknown metric 'dot'"):
        nearest_neighbors(bundle, ("en", "x"), 2, metric="dot")
    with pytest.raises(UserError, match="unknown token 'unknown'"):
        nearest_neighbors(bundle, ("en", "unknown"), 2)


def test_nearest_neighbors_ties_across_the_cut_order_by_language_and_token():
    # Five rows equal to the query; no table's top 2 by row id is the answer,
    # so a table must keep every row tied with its n-th score.
    same = [1.0, 0.0]
    vocabs = {
        "de": Vocabulary(["a", "z", "b"]),
        "en": Vocabulary(["q", "y", "low", "c"]),
    }
    tables = {
        "de": EmbeddingTable("de", np.array([same, same, same])),
        "en": EmbeddingTable("en", np.array([same, same, [0.0, 1.0], same])),
    }
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    for metric, top in (("cosine", 1.0), ("euclidean", 0.0)):
        out = nearest_neighbors(bundle, ("en", "q"), 2, metric=metric)
        assert out == [("de", "a", top), ("de", "b", top)]
        out = nearest_neighbors(bundle, ("en", "q"), 1, target_language="en", metric=metric)
        assert out == [("en", "c", top)]


def test_nearest_neighbors_validates_before_n():
    bundle = _query_bundle()
    assert nearest_neighbors(bundle, ("en", "x"), 0) == []
    assert nearest_neighbors(bundle, ("en", "x"), -3, target_language="de") == []
    with pytest.raises(UserError, match="model has no language 'zz'"):
        nearest_neighbors(bundle, ("en", "x"), 0, target_language="zz")
    with pytest.raises(UserError, match="unknown metric 'dot'"):
        nearest_neighbors(bundle, ("en", "unknown"), 0, target_language="zz", metric="dot")
    with pytest.raises(UserError, match="unknown token 'unknown'"):
        nearest_neighbors(bundle, ("en", "unknown"), 0, target_language="zz")


def _brute_force_neighbors(bundle, query, n, target_language="all", metric="cosine"):
    """Reference: score every row through np.linalg.norm and sort them all."""
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
    candidates.sort(key=lambda c: (-c[2] if c[2] == c[2] else np.inf, c[0], c[1]))  # NaN last
    return candidates[: max(n, 0)]


@st.composite
def _query_cases(draw):
    """Small integer tables (duplicate and zero rows are common), shuffled token names."""
    d = draw(st.integers(1, 3))
    langs = draw(st.lists(st.sampled_from(["de", "en", "fr"]), min_size=1, max_size=3, unique=True))
    vocabs, tables = {}, {}
    for lang in langs:
        v = draw(st.integers(1, 7))
        names = draw(st.permutations(["a", "b", "c", "w10", "w2", "w9", "z"]))[:v]
        entries = draw(st.lists(st.integers(-1, 1), min_size=v * d, max_size=v * d))
        vocabs[lang] = Vocabulary(names)
        tables[lang] = EmbeddingTable(lang, np.array(entries, dtype=float).reshape(v, d))
    bundle = ModelBundle(vocabs, tables, CompositionKind.ADD)
    lang_q = draw(st.sampled_from(langs))
    query = (lang_q, draw(st.sampled_from(vocabs[lang_q].tokens)))
    target = draw(st.sampled_from(["all", *langs]))
    pool = sum(len(v) for v in vocabs.values())
    return bundle, query, draw(st.integers(0, pool + 2)), target


def _make_read_only(bundle, read_only):
    for table in bundle.tables.values():
        table.matrix.flags.writeable = not read_only


def _twice(bundle, query, n, target, metric):
    """Query twice, so that a read-only table's second query reads the sums its first kept."""
    first = nearest_neighbors(bundle, query, n, target, metric)
    assert repr(nearest_neighbors(bundle, query, n, target, metric)) == repr(first)
    return first


def _bundle_of(tables):
    """A bundle of {lang: rows}, row i of language xx named xxi."""
    vocabs, matrices = {}, {}
    for lang, rows in tables.items():
        vocabs[lang] = Vocabulary(f"{lang}{i}" for i in range(len(rows)))
        matrices[lang] = EmbeddingTable(lang, np.array(rows, dtype=float))
    return ModelBundle(vocabs, matrices, CompositionKind.ADD)


@settings(max_examples=400, deadline=None)
@given(
    case=_query_cases(),
    metric=st.sampled_from(["cosine", "euclidean"]),
    read_only=st.booleans(),
)
def test_nearest_neighbors_equals_brute_force(case, metric, read_only):
    bundle, query, n, target = case
    _make_read_only(bundle, read_only)
    expected = _brute_force_neighbors(bundle, query, n, target, metric)
    assert _twice(bundle, query, n, target, metric) == expected


@st.composite
def _hostile_tables(draw):
    """Rows at one scale from 1e-170 to 1e156, so sums may be subnormal or overflow.

    Most rows repeat a few drawn rows exactly, are zero, or lie within
    relative noise of 1e-15 of a drawn row, so distances tie or nearly tie.
    """
    d = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.sampled_from([-170, -160, -155, -20, 0, 0, 20, 150, 154, 156]))
    entries = st.lists(st.floats(-2.0, 2.0).map(lambda x: x * scale), min_size=d, max_size=d)
    drawn = draw(st.lists(entries, min_size=1, max_size=3))
    row = st.one_of(
        st.sampled_from(drawn),
        st.just([0.0] * d),
        st.builds(
            lambda r, k: [x * (1 + k * 1e-15) for x in r],
            st.sampled_from(drawn),
            st.integers(-3, 3),
        ),
        entries,
    )
    langs = draw(st.lists(st.sampled_from(["de", "en", "fr"]), min_size=1, max_size=3, unique=True))
    return {lang: draw(st.lists(row, min_size=1, max_size=12)) for lang in langs}


@settings(max_examples=400, deadline=None)
@given(
    tables=_hostile_tables(),
    data=st.data(),
    metric=st.sampled_from(["cosine", "euclidean"]),
    read_only=st.booleans(),
)
@example(
    tables={"de": [[1e156], [0.0], [0.0]]}, data=None, metric="euclidean", read_only=True
).via("an overflowing query: every row's bound is NaN or inf, so none may be dropped")
def test_nearest_neighbors_equals_brute_force_on_hostile_tables(tables, data, metric, read_only):
    # repr, not ==: a cosine score is NaN where a product overflows, and NaN != NaN
    bundle = _bundle_of(tables)
    _make_read_only(bundle, read_only)
    if data is None:
        query, n, target = ("de", "de0"), 1, "all"
    else:
        lang_q = data.draw(st.sampled_from(sorted(tables)))
        query = (lang_q, data.draw(st.sampled_from(bundle.vocab(lang_q).tokens)))
        target = data.draw(st.sampled_from(["all", *sorted(tables)]))
        n = data.draw(st.integers(1, sum(len(rows) for rows in tables.values()) + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a scan overflows where the query does
        expected = _brute_force_neighbors(bundle, query, n, target, metric)
        assert repr(_twice(bundle, query, n, target, metric)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 8, 37, 128]),
    scale=st.sampled_from([1e-162, 1e-161, 1e-158, 1.0, 1e100, 1e153]),
    spread=st.sampled_from([2.0**-52, 1e-12, 1e-6, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(2, 40),
    n=st.integers(1, 4),
)
def test_nearest_neighbors_keeps_every_row_near_the_query(d, scale, spread, seed, v, n):
    # Rows within a relative spread of the query row 0: where the spread is far
    # below the filter's rounding bound, its estimates cannot order the rows,
    # and a bound too small, or without its underflow term, drops a neighbour.
    rng = np.random.default_rng(seed)
    base = rng.normal(size=d)
    rows = base * (1 + spread * rng.integers(-4, 5, size=(v, d))) * scale
    rows[0] = base * scale
    bundle = _bundle_of({"de": rows})
    expected = _brute_force_neighbors(bundle, ("de", "de0"), n, "de", "euclidean")
    assert repr(nearest_neighbors(bundle, ("de", "de0"), n, "de", "euclidean")) == repr(expected)


def test_nearest_neighbors_warns_only_where_a_scan_overflows():
    # Sums of squares overflow where a scan's differences do not: in the first
    # table only in the filter, in the second in every row's sum as well.
    # A RuntimeWarning fails the test (pyproject.toml).
    for rows in ([[1.2e154], [1.2e154], [1e154], [0.0]], [[1e200], [1e200], [1e200]]):
        bundle = _bundle_of({"de": rows})
        expected = _brute_force_neighbors(bundle, ("de", "de0"), 1, "de", "euclidean")
        assert _twice(bundle, ("de", "de0"), 1, "de", "euclidean") == expected


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_nearest_neighbors_scores_bit_identical_on_gaussian_tables(metric):
    # Long rows with inexact sums: any change in how a score is reduced shows here.
    for read_only in (False, True):
        bundle = make_bundle({"de": 60, "en": 50, "fr": 40}, 37, seed=5)
        _make_read_only(bundle, read_only)
        for token in bundle.vocab("en").tokens[::7]:
            for target, n in (("all", 9), ("en", 3), ("fr", 200)):
                expected = _brute_force_neighbors(bundle, ("en", token), n, target, metric)
                assert _twice(bundle, ("en", token), n, target, metric) == expected


@pytest.mark.parametrize("d", [37, 128, 200])
def test_nearest_neighbors_bits_across_row_blocks(d):
    # Row sums run in blocks of b = 16384 // d rows; tables of b - 1, b, b + 1
    # and 2b + 3 rows end before, at and past a block boundary.
    b = _block_rows(d)
    sizes = {"de": b - 1, "en": b, "fr": b + 1, "it": 2 * b + 3}
    pool = sum(sizes.values())
    for read_only in (False, True):
        bundle = make_bundle(sizes, d, seed=d)
        _make_read_only(bundle, read_only)
        for lang_q in ("en", "it"):
            for token in bundle.vocab(lang_q).tokens[:: b // 2]:
                for metric in ("cosine", "euclidean"):
                    for target in ("all", lang_q, "fr"):
                        for n in (5, pool):
                            query = (lang_q, token)
                            expected = _brute_force_neighbors(bundle, query, n, target, metric)
                            assert _twice(bundle, query, n, target, metric) == expected


def _at_offset(matrix, offset):
    """A read-only copy of `matrix` starting `offset` bytes past a 64-byte boundary."""
    raw = np.empty(matrix.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    copy = raw[start : start + matrix.nbytes].view(np.float64).reshape(matrix.shape)
    copy[...] = matrix
    copy.flags.writeable = False
    return copy


def test_nearest_neighbors_bits_do_not_depend_on_alignment():
    # Kernels may take other paths for other alignments; no returned bit may follow them.
    base = make_bundle({"de": 700, "en": 300}, 128, seed=11)
    results = {}
    for offset in range(0, 64, 8):
        tables = {lang: _at_offset(t.matrix, offset) for lang, t in base.tables.items()}
        bundle = ModelBundle(
            base.vocabs, {lang: EmbeddingTable(lang, m) for lang, m in tables.items()}, base.kind
        )
        results[offset] = [
            repr(_twice(bundle, (lang, f"{lang}7"), 10, target, metric))
            for lang in ("de", "en")
            for target in ("all", "de")
            for metric in ("cosine", "euclidean")
        ]
    assert all(found == results[0] for found in results.values())


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_nearest_neighbors_forms_no_table_sized_temporary(metric, read_only):
    bundle = make_bundle({"de": 20_000, "en": 20_000}, 128, seed=3)
    for table in bundle.tables.values():
        table.matrix.flags.writeable = not read_only
    for _ in range(2):  # a read-only table's first query keeps its sums, the second reads them
        tracemalloc.start()
        try:
            nearest_neighbors(bundle, ("en", "en7"), 10, "all", metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20  # each table is 20 MB
    if read_only:  # every row ties, so every row is a candidate: the rescore must stay blocked
        tied = bundle.tables["de"].matrix[[0] * 20_000]
        tied.flags.writeable = False
        bundle.tables["de"] = EmbeddingTable("de", tied)
        for _ in range(2):
            tracemalloc.start()
            try:
                nearest_neighbors(bundle, ("en", "en7"), 10, "de", metric)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 << 20  # the 20,000 tied neighbours themselves take about 4.5 MB


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_nearest_neighbors_rescores_a_writable_table_changed_between_queries(metric):
    bundle = make_bundle({"de": 50, "en": 40}, 16, seed=9)
    query = ("en", "en3")
    for _ in range(2):
        expected = _brute_force_neighbors(bundle, query, 8, "all", metric)
        assert nearest_neighbors(bundle, query, 8, "all", metric) == expected
        bundle.table("de").matrix[::2] *= 3.0  # cosine scores hold only if the norms follow


def test_make_bundle_helper_shares_dimension():
    bundle = make_bundle({"a": 3, "b": 4}, 5, seed=0)
    assert bundle.d == 5
    assert bundle.table("a").vocab_size == 3
    assert bundle.table("b").vocab_size == 4
