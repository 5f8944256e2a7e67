import numpy as np
import pytest

from jointvec.composition import CompositionKind
from jointvec.embeddings import (
    EmbeddingTable,
    ModelBundle,
    Vocabulary,
    build_vocab,
    derive_seed,
    export_table,
    import_table,
    init_table,
    nearest_neighbors,
)
from jointvec.errors import ConfigError, ContractError, FileFormatError, TokenLookupError

from conftest import make_bundle


def test_vocabulary_first_seen_order():
    vocab = build_vocab([["a", "b"], ["b", "c"]])
    assert [vocab[t] for t in ("a", "b", "c")] == [0, 1, 2]
    assert len(vocab) == 3
    assert vocab.token(1) == "b"
    assert "a" in vocab and "z" not in vocab
    assert build_vocab([["x", "x", "x"]]).tokens == ["x"]
    assert len(build_vocab([])) == 0


def test_vocabulary_lookup_errors():
    vocab = Vocabulary(["a"])
    with pytest.raises(TokenLookupError):
        vocab["missing"]
    with pytest.raises(TokenLookupError):
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
    with pytest.raises(ConfigError):
        init_table(-1, 4, seed=1)
    with pytest.raises(ConfigError):
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
    with pytest.raises(FileFormatError):
        import_table(path)


def test_model_bundle_validation():
    vocab = Vocabulary(["w0"])
    t2 = EmbeddingTable("a", np.zeros((1, 2)))
    t3 = EmbeddingTable("b", np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        ModelBundle({"a": vocab}, {"a": t2, "b": t3}, CompositionKind.ADD)
    with pytest.raises(ConfigError):
        ModelBundle({"a": vocab, "b": vocab}, {"a": t2, "b": t3}, CompositionKind.ADD)
    with pytest.raises(ConfigError):
        ModelBundle({}, {}, CompositionKind.ADD)
    with pytest.raises(ConfigError):
        ModelBundle(
            {"a": Vocabulary(["w0", "w1"])}, {"a": t2}, CompositionKind.ADD
        )
    bundle = ModelBundle({"a": vocab}, {"a": t2}, CompositionKind.ADD)
    assert bundle.d == 2 and bundle.languages == ["a"]
    with pytest.raises(ConfigError):
        bundle.table("zz")
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError):
        nearest_neighbors(bundle, ("en", "x"), 2, metric="dot")
    with pytest.raises(TokenLookupError):
        nearest_neighbors(bundle, ("en", "unknown"), 2)


def test_make_bundle_helper_shares_dimension():
    bundle = make_bundle({"a": 3, "b": 4}, 5, seed=0)
    assert bundle.d == 5
    assert bundle.table("a").vocab_size == 3
    assert bundle.table("b").vocab_size == 4
