"""Compositional vector models: ADD (bag of words) and BI (bigram tanh).

ADD sums its input vectors. BI sums tanh(x[i-1] + x[i]) over positions
i = 1..n with x[0] taken as the zero vector, so a one-word input composes
to tanh(x[1]) and every input contributes exactly n bigram terms. Both
models expose exact analytic backprop; BI keeps its per-bigram tanh
outputs so gradients never re-run the forward pass.

Inputs may be cut into segments of given lengths, each composed on its
own and summed by `np.add.reduceat`: a minibatch composes all its
sentences, or all its documents' sentence vectors, in one call. A single
sequence is the one-segment case. The same functions serve at the
document level, with sentence vectors as inputs.
"""

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
    kind: CompositionKind
    lengths: np.ndarray  # rows per segment; [n] for one sequence
    starts: np.ndarray  # first row of each segment


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


def compose(inputs, kind: CompositionKind, lengths=None) -> CompositionResult:
    """Compose the input rows, or each segment of them.

    `lengths` holds the row count of every segment, in order; each is at
    least 1 and they sum to the number of rows. Without it the rows are
    one segment and the output is its (d,) vector. BI puts its zero pad at
    each segment start.
    """
    x = _as_matrix(inputs)
    segments = np.array([len(x)]) if lengths is None else lengths
    starts = segments.cumsum() - segments
    t = None
    if kind is CompositionKind.BI:
        t = np.empty_like(x)  # x[i-1] within each segment, then tanh(x[i-1] + x[i])
        t[1:] = x[:-1]
        t[starts] = 0.0
        t += x
        x = np.tanh(t, out=t)
    out = np.add.reduceat(x, starts, axis=0)
    return CompositionResult(out[0] if lengths is None else out, t, kind, segments, starts)


def backprop(grad_output: np.ndarray, result: CompositionResult) -> np.ndarray:
    """Input gradients (n, d) from the output gradient of each segment.

    ADD routes a segment's gradient to each of its inputs unchanged. Under
    BI, input j feeds bigram j (as the right operand) and bigram j+1 (as
    the left one) of its segment, so it collects grad * (1 - t^2) from
    both; the zero pad receives nothing.
    """
    g = np.asarray(grad_output, dtype=np.float64).reshape(len(result.lengths), -1)
    g = g.repeat(result.lengths, axis=0)
    if result.kind is CompositionKind.ADD:
        return g
    t = result.activations
    buf = t * t
    g *= np.subtract(1.0, buf, out=buf)
    from_next = buf[:-1]
    from_next[...] = g[1:]
    from_next[result.starts[1:] - 1] = 0.0  # a segment's last input feeds no further bigram
    g[:-1] += from_next
    return g
