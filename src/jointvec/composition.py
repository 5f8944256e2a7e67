"""Compositional vector models: ADD (bag of words) and BI (bigram tanh).

ADD sums its input vectors. BI sums tanh(x[i-1] + x[i]) over positions
i = 1..n with x[0] taken as the zero vector, so a one-word input composes
to tanh(x[1]) and every input contributes exactly n bigram terms. Both
models expose exact analytic backprop; BI keeps its per-bigram tanh
outputs so gradients never re-run the forward pass.

The same functions serve at the document level, with sentence vectors as
inputs.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CompositionError, ContractError


class CompositionKind(Enum):
    ADD = "add"
    BI = "bi"


@dataclass
class CompositionResult:
    output: np.ndarray
    activations: np.ndarray | None  # BI: (n, d) tanh outputs, None for ADD
    n_inputs: int
    kind: CompositionKind


def _as_matrix(inputs) -> np.ndarray:
    try:
        arr = np.asarray(inputs, dtype=np.float64)
    except ValueError as exc:
        raise CompositionError(f"inputs do not form a matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise CompositionError(
            f"expected a non-empty sequence of equal-length vectors, got shape {arr.shape}"
        )
    return arr


def compose_add(inputs) -> CompositionResult:
    """Component-wise sum of the input vectors."""
    x = _as_matrix(inputs)
    return CompositionResult(x.sum(axis=0), None, x.shape[0], CompositionKind.ADD)


def compose_bi(inputs) -> CompositionResult:
    """Sum of tanh over adjacent-pair sums, zero-padded on the left."""
    x = _as_matrix(inputs)
    shifted = np.vstack([np.zeros((1, x.shape[1])), x[:-1]])
    t = np.tanh(x + shifted)
    return CompositionResult(t.sum(axis=0), t, x.shape[0], CompositionKind.BI)


def compose(inputs, kind: CompositionKind) -> CompositionResult:
    return compose_add(inputs) if kind is CompositionKind.ADD else compose_bi(inputs)


def backprop_add(grad_output: np.ndarray, n_inputs: int) -> np.ndarray:
    """A sum routes its output gradient to every input unchanged."""
    if n_inputs < 1:
        raise ContractError("n_inputs must be >= 1")
    return np.tile(np.asarray(grad_output, dtype=np.float64), (n_inputs, 1))


def backprop_bi(grad_output: np.ndarray, result: CompositionResult, n_inputs: int) -> np.ndarray:
    """Route gradients through the tanh bigram terms.

    Input j feeds bigram j (as the right operand) and bigram j+1 (as the
    left one), so it collects grad * (1 - t^2) from both; the zero pad
    receives nothing.
    """
    if result.kind is not CompositionKind.BI or result.activations is None:
        raise ContractError("backprop_bi needs a result produced by compose_bi")
    if result.n_inputs != n_inputs or result.activations.shape[0] != n_inputs:
        raise ContractError(
            f"result covers {result.n_inputs} inputs, caller claims {n_inputs}"
        )
    t = result.activations
    g = np.asarray(grad_output, dtype=np.float64) * (1.0 - t * t)
    grads = g.copy()
    grads[:-1] += g[1:]
    return grads


def backprop(grad_output: np.ndarray, result: CompositionResult) -> np.ndarray:
    if result.kind is CompositionKind.ADD:
        return backprop_add(grad_output, result.n_inputs)
    return backprop_bi(grad_output, result, result.n_inputs)
