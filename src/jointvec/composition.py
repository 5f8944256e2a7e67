"""Compositional vector models: ADD (bag of words) and BI (bigram tanh).

ADD sums its input vectors. BI sums tanh(x[i-1] + x[i]) over positions
i = 1..n with x[0] taken as the zero vector, so a one-word input composes
to tanh(x[1]) and every input contributes exactly n bigram terms. Both
models expose exact analytic backprop; BI keeps its per-bigram tanh
outputs so gradients never re-run the forward pass.

Inputs may be cut into segments of given lengths, each composed on its
own and summed by `segment_sums` in row order: a minibatch composes all
its sentences, or all its documents' sentence vectors, in one call. A
single sequence is the one-segment case. The same functions serve at the
document level, with sentence vectors as inputs. Training composes
from its tables through `compose_rows`, at both levels, and CLDC
composes its sentences through it.
"""

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError


class CompositionKind(Enum):
    ADD = "add"
    BI = "bi"


@dataclass
class CompositionResult:
    output: np.ndarray  # (d,) for one sequence, (S, d) for S segments
    activations: np.ndarray | None  # BI: (n, d) tanh outputs, None for ADD
    lengths: np.ndarray  # rows per segment, in row order; [n] for one sequence

    def select(self, mask: np.ndarray) -> "CompositionResult":
        """The segments where `mask` holds, as if composed alone, activations included."""
        counts, t = self.lengths[mask], self.activations
        t = None if t is None else t.compress(mask.repeat(self.lengths), axis=0)
        out = self.output.compress(mask, axis=0)  # less fixed cost than out[mask]
        return CompositionResult(out, t, counts)


def _as_matrix(inputs) -> np.ndarray:
    try:
        arr = np.asarray(inputs, dtype=np.float64)
    except ValueError as exc:
        raise ContractError(f"inputs do not form a matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ContractError(
            f"expected a non-empty sequence of equal-length vectors, got shape {arr.shape}"
        )
    return arr


# Rows per `np.add.accumulate` when segment_sums runs over segments: its
# buffer stays (_CHUNK, d), 128 KB at d = 128, however long a segment is.
_CHUNK = 128
# Elements per row block of a pass that works through a (rows, d) array
# block by block (AdaGrad's update, a query's row sums): 128 KB of
# float64, well inside L2.
_BLOCK_ELEMENTS = 16384


def _block_rows(d: int) -> int:
    """Rows per block of such a pass over rows of d values: at least one."""
    return max(1, _BLOCK_ELEMENTS // max(d, 1))


def segment_sums(x: np.ndarray, lengths: np.ndarray, rows=None) -> np.ndarray:
    """Each segment's rows added in row order, ((x0 + x1) + x2) + ..., as (S, d).

    Input row i is x[i], or with `rows` x[rows[i]], read from x by index,
    so no (n, d) input is formed; segments are runs of `lengths` rows in
    turn. The bits are those of a Python loop over each segment's rows,
    so a segment's sum does not depend on the segments beside it.
    `x.sum(axis=0)` does not keep that order: at d = 1 it sums pairwise.

    A loop over positions adds row j of every segment still running at
    position j, up to the position that makes the fewest positions plus
    segments left; each longer segment then finishes on its own, with
    `np.add.accumulate`, which adds in row order too, over chunks of its
    rows copied into a fixed buffer whose first row carries the running sum.
    """
    order = lengths.argsort()  # shortest first: the segments running at j form a suffix
    firsts = (lengths.cumsum() - lengths).take(order)
    by_length = lengths.take(order)
    ascending, n_seg = by_length.tolist(), len(by_length)
    # stop after `split` positions, where positions plus segments left is
    # least: n positions leave the k segments longer than the k-th longest
    # n, or one position leaves every segment; the first minimum wins. Each
    # n is >= 1, so no k at or past the longest length beats k = 0
    longest = by_length[::-1][: ascending[-1]]
    cost = longest + np.arange(len(longest))
    k = int(cost.argmin())
    split = 1 if n_seg + 1 < cost[k] else ascending[-1 - k]
    sums = x.take(firsts if rows is None else rows.take(firsts), axis=0)
    ended = 0
    for j in range(1, split):
        ended = bisect_right(ascending, j, ended)
        # [j:] moves each first row on by j
        if rows is None:
            sums[ended:] += x[j:].take(firsts[ended:], axis=0)
        else:
            sums[ended:] += x.take(rows[j:].take(firsts[ended:]), axis=0)
    cut = bisect_right(ascending, split)
    if cut < n_seg:
        buf = np.empty((min(ascending[-1] - split, _CHUNK - 1) + 1, x.shape[1]))
        for s, a, n in zip(range(cut, n_seg), firsts[cut:].tolist(), ascending[cut:]):
            total = sums[s]
            for c in range(a + split, a + n, _CHUNK - 1):
                m = min(a + n - c, _CHUNK - 1) + 1
                buf[0] = total
                if rows is None:
                    buf[1:m] = x[c : c + m - 1]
                else:
                    x.take(rows[c : c + m - 1], axis=0, out=buf[1:m])
                total = np.add.accumulate(buf[:m], axis=0, out=buf[:m])[-1]
            sums[s] = total
    return sums.take(order.argsort(), axis=0)


def compose(inputs, kind: CompositionKind, lengths=None) -> CompositionResult:
    """Compose the input rows, or each segment of them.

    `lengths` holds the row count of every segment, in order; each is at
    least 1 and they sum to the number of rows. Without it the rows are
    one segment and the output is its (d,) vector. BI puts its zero pad at
    each segment start.
    """
    x = _as_matrix(inputs)
    segments = np.array([len(x)]) if lengths is None else lengths
    t = None
    if kind is CompositionKind.BI:
        t = np.empty_like(x)  # x[i-1] within each segment, then tanh(x[i-1] + x[i])
        t[1:] = x[:-1]
        t[segments.cumsum() - segments] = 0.0
        t += x
        x = np.tanh(t, out=t)
    out = segment_sums(x, segments)
    return CompositionResult(out[0] if lengths is None else out, t, segments)


def compose_rows(parts, kind: CompositionKind) -> CompositionResult:
    """`compose` over the rows `matrix[ids]` of each part (matrix, ids, lengths), in order.

    ADD sums each part's rows read by index (`segment_sums`), so no
    (tokens, d) array is formed; BI gathers them for `compose`. Either way
    the bits are `compose`'s over the gathered rows. A lone part's rows are
    used as gathered; `take(..., out=)` into one buffer would copy every
    row twice, since numpy buffers that output to check the ids first.
    """
    lengths = np.concatenate([n for _, _, n in parts])
    if kind is CompositionKind.ADD:
        sums = [segment_sums(m, n, rows=ids) for m, ids, n in parts]
        out = sums[0] if len(parts) == 1 else np.concatenate(sums)
        return CompositionResult(out, None, lengths)
    rows = [m.take(ids, axis=0) for m, ids, _ in parts]
    return compose(rows[0] if len(parts) == 1 else np.concatenate(rows), kind, lengths)


def backprop(grad_output: np.ndarray, result: CompositionResult) -> np.ndarray:
    """Input gradients (n, d) from the output gradient of each segment.

    ADD routes a segment's gradient to each of its inputs unchanged. Under
    BI, input j feeds bigram j (as the right operand) and bigram j+1 (as
    the left one) of its segment, so it collects grad * (1 - t^2) from
    both; the zero pad receives nothing.
    """
    g = np.asarray(grad_output, dtype=np.float64).reshape(len(result.lengths), -1)
    g = g.repeat(result.lengths, axis=0)
    t = result.activations
    if t is None:  # ADD
        return g
    buf = t * t
    g *= np.subtract(1.0, buf, out=buf)
    from_next = buf[:-1]
    from_next[...] = g[1:]
    from_next[result.lengths.cumsum()[:-1] - 1] = 0.0  # no bigram follows a segment's last input
    g[:-1] += from_next
    return g
