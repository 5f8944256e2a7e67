import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointvec.composition import CompositionKind, backprop, compose, compose_rows, segment_sums
from jointvec.errors import ContractError

mp.mp.dps = 30

ADD = CompositionKind.ADD
BI = CompositionKind.BI


def test_compose_add_hand_values():
    out = compose(np.array([[1.0, 2.0], [3.0, 4.0]]), ADD).output
    assert np.array_equal(out, [4.0, 6.0])
    assert np.array_equal(compose(np.array([[0.0, 0.0]]), ADD).output, [0.0, 0.0])


def test_compose_add_permutation_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    forward = compose(x, ADD).output
    shuffled = compose(x[rng.permutation(5)], ADD).output
    assert np.allclose(forward, shuffled, atol=1e-12)


def test_compose_bi_hand_values_against_mpmath():
    assert compose(np.array([[0.0]]), BI).output[0] == 0.0
    half = compose(np.array([[0.5]]), BI).output[0]
    assert half == pytest.approx(float(mp.tanh(mp.mpf("0.5"))), abs=1e-15)
    assert half == pytest.approx(0.462117, abs=1e-6)
    pair = compose(np.array([[1.0], [-1.0]]), BI).output[0]
    # tanh(0 + 1) + tanh(1 - 1)
    assert pair == pytest.approx(float(mp.tanh(1)), abs=1e-15)
    assert pair == pytest.approx(0.761594, abs=1e-6)


def test_compose_bi_matches_high_precision_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        got = compose(x, BI).output
        for j in range(d):
            prev = mp.mpf(0)
            want = mp.mpf(0)
            for i in range(n):
                want += mp.tanh(prev + mp.mpf(x[i, j]))
                prev = mp.mpf(x[i, j])
            assert got[j] == pytest.approx(float(want), abs=1e-12)


def test_compose_bi_order_sensitive_witness():
    fwd = compose(np.array([[1.0], [-1.0]]), BI).output[0]
    rev = compose(np.array([[-1.0], [1.0]]), BI).output[0]
    assert fwd != rev


def test_compose_bi_output_strictly_inside_tanh_bounds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        x = rng.normal(scale=3.0, size=(n, 2))
        out = compose(x, BI).output
        assert np.all(np.abs(out) < n)


def test_compose_rejects_bad_input():
    cases = (
        (np.zeros((0, 3)), r"non-empty sequence .* got shape \(0, 3\)"),
        (np.zeros(3), r"non-empty sequence .* got shape \(3,\)"),
        ([[1.0], [1.0, 2.0]], "inputs do not form a matrix"),
    )
    for bad, match in cases:
        with pytest.raises(ContractError, match=match):
            compose(bad, ADD)
        with pytest.raises(ContractError, match=match):
            compose(bad, BI)


def test_compose_dispatch():
    x = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert np.array_equal(compose(x, ADD).output, [4.0, 4.0])
    assert np.array_equal(compose(x, BI).output, np.tanh([1.0, 1.0]) + np.tanh([4.0, 4.0]))


def test_backprop_add_tiles_gradient():
    grads = backprop(np.array([1.0, 1.0]), compose(np.zeros((3, 2)), ADD))
    assert grads.shape == (3, 2)
    assert np.array_equal(grads, np.ones((3, 2)))
    assert np.array_equal(backprop(np.zeros(2), compose(np.ones((2, 2)), ADD)), np.zeros((2, 2)))


def test_backprop_bi_hand_values():
    res = compose(np.array([[0.0]]), BI)
    assert backprop(np.array([1.0]), res)[0, 0] == pytest.approx(1.0)
    res2 = compose(np.array([[1.0], [-1.0]]), BI)
    grads = backprop(np.array([1.0]), res2)
    want_x1 = float(1 - mp.tanh(1) ** 2 + 1)
    assert grads[0, 0] == pytest.approx(want_x1, abs=1e-12)
    assert grads[0, 0] == pytest.approx(1.419974, abs=1e-6)
    assert grads[1, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [CompositionKind.ADD, CompositionKind.BI])
def test_single_sequence_is_the_one_segment_case(kind):
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 40):
        x = rng.normal(size=(n, 6))
        single = compose(x, kind)
        segment = compose(x, kind, np.array([n]))
        assert single.output.shape == (6,)
        assert np.array_equal(single.output, segment.output[0])
        grad = rng.normal(size=6)
        assert np.array_equal(backprop(grad, single), backprop(grad[None, :], segment))


def _row_loop(x, lengths):
    """Each segment's rows added one at a time, first row first."""
    sums, a = [], 0
    for n in lengths:
        total = x[a]
        for row in x[a + 1 : a + n]:
            total = total + row
        sums.append(total)
        a += n
    return sums


def _summands(rng, n, d):
    """n rows of d values over 17 decades, a fifth of the rows all -0.0."""
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    x[rng.random(n) < 0.2] = -0.0
    return x


@given(
    short=st.lists(st.integers(1, 40), min_size=1, max_size=60),
    long=st.lists(st.integers(41, 300), min_size=1, max_size=3),
    at=st.integers(0, 60),
    d=st.integers(1, 6),
    table=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(short=[*range(1, 41)] + [40] * 20, long=[129, 200, 300], at=7, d=3, table=50, seed=1)
@example(short=[40] * 60, long=[41], at=60, d=2, table=1, seed=2)
@example(short=[3], long=[300], at=0, d=2, table=400, seed=3)
@settings(max_examples=100, deadline=None)
def test_segment_sums_add_in_row_order(short, long, at, d, table, seed):
    # segments past 8 rows reach numpy's pairwise blocks. The position loop
    # stops where positions plus segments left are fewest: past the end
    # (60 segments of 40 and one of 41), mid-way (many short segments and
    # a few long ones, which finish alone), or after one position (few
    # segments); past 128 rows a segment finishing alone spans more than
    # one chunk. An all -0.0 segment keeps its sign only when its first row
    # starts the sum. Read by index, rows come from a table, with repeats
    at = min(at, len(short))
    lengths = np.array(short[:at] + long + short[at:])
    starts = lengths.cumsum() - lengths
    rng = np.random.default_rng(seed)
    x = _summands(rng, lengths.sum(), d)
    want = _row_loop(x, lengths)
    got = segment_sums(x, lengths)
    assert got.shape == (len(lengths), d)
    assert [row.tobytes() for row in got] == [row.tobytes() for row in want]
    source = _summands(rng, table, d)
    rows = rng.integers(0, table, lengths.sum())
    got = segment_sums(source, lengths, rows=rows)
    want = _row_loop(source[rows], lengths)
    assert [row.tobytes() for row in got] == [row.tobytes() for row in want]
    for kind in CompositionKind:
        result = compose(x, kind, lengths)
        summands = x if kind is ADD else result.activations
        want = _row_loop(summands, lengths)
        assert [row.tobytes() for row in result.output] == [row.tobytes() for row in want]
        a = starts[at]
        one = compose(x[a : a + long[0]], kind).output
        assert one.tobytes() == want[at].tobytes()
    # compose_rows over two parts that read two tables, ids repeating: its
    # segments follow the parts, and each is `compose` over the segment's
    # gathered rows, down to BI's activations, which backprop and select read
    cut = max(at, 1)
    other = _summands(rng, 1 + table // 2, d)
    other_rows = rng.integers(0, len(other), lengths[cut:].sum())
    first_rows = rows[: lengths[:cut].sum()]
    parts = ((source, first_rows, lengths[:cut]), (other, other_rows, lengths[cut:]))
    gathered = np.concatenate([source[first_rows], other[other_rows]])
    for kind in CompositionKind:
        result = compose_rows(parts, kind)
        assert np.array_equal(result.lengths, lengths)
        for s, (a, n) in enumerate(zip(starts, lengths)):
            one = compose(gathered[a : a + n], kind)
            assert result.output[s].tobytes() == one.output.tobytes()
            if kind is BI:
                assert result.activations[a : a + n].tobytes() == one.activations.tobytes()


def _fd_scalar(fn, x, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            orig = x[i, j]
            x[i, j] = orig + step
            up = fn(x)
            x[i, j] = orig - step
            down = fn(x)
            x[i, j] = orig
            g[i, j] = (up - down) / (2 * step)
    return g


@pytest.mark.parametrize("kind", [CompositionKind.ADD, CompositionKind.BI])
def test_backprop_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(scale=0.5, size=(n, d))
        grad_out = rng.normal(size=d)
        result = compose(x, kind)
        analytic = backprop(grad_out, result)
        numeric = _fd_scalar(lambda m: float(grad_out @ compose(m, kind).output), x)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(err.max()))
    assert worst < 1e-6


def test_document_chain_matches_finite_differences():
    # 2 sentences x 3 words, d=3: word grads through both composition stages
    rng = np.random.default_rng(23)
    words = rng.normal(scale=0.5, size=(6, 3))
    grad_out = rng.normal(size=3)
    sent_ids = [(0, 1, 2), (3, 4, 5)]

    def doc_value(mat):
        sent_vecs = np.stack([compose(mat[list(ids)], CompositionKind.BI).output for ids in sent_ids])
        return float(grad_out @ compose(sent_vecs, CompositionKind.BI).output)

    sent_results = [compose(words[list(ids)], CompositionKind.BI) for ids in sent_ids]
    doc_result = compose(np.stack([r.output for r in sent_results]), CompositionKind.BI)
    sent_grads = backprop(grad_out, doc_result)
    analytic = np.zeros_like(words)
    for ids, res, g in zip(sent_ids, sent_results, sent_grads):
        for wid, wg in zip(ids, backprop(g, res)):
            analytic[wid] += wg
    numeric = _fd_scalar(doc_value, words)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert float(err.max()) < 1e-6
