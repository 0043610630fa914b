"""Reference reservoir step: one pattern through every layer at a time.

Kept only as a test oracle. ``esnrae.reservoir.run_collect`` feeds a whole
split layer by layer instead; its rows must equal the last layer of a chain
of ``step`` calls bit for bit.
"""

from __future__ import annotations

import numpy as np

from esnrae.reservoir import EsnWeights, _recurrent_layers


def step(
    weights: EsnWeights,
    x_prev: list[np.ndarray] | tuple[np.ndarray, ...],
    u: np.ndarray,
) -> list[np.ndarray]:
    """Advance every layer by one pattern.

    Layer 1 sees the input (with constant 1 on the bias column) plus its own
    previous state; layer k > 1 sees the *current* state of layer k-1 plus
    its own previous state. A layer whose recurrent matrix is all zero skips
    ``w[i] @ prev``: adding that exact zero vector would change no bit of the
    state.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (weights.input_dim,):
        raise ValueError(f"input shape {u.shape} != ({weights.input_dim},)")
    if len(x_prev) != weights.n_layers:
        raise ValueError(f"expected {weights.n_layers} layer states, got {len(x_prev)}")
    n = weights.n_hidden
    prev = [np.asarray(x, dtype=float) for x in x_prev]
    for i, x in enumerate(prev):
        if x.shape != (n,):
            raise ValueError(f"layer {i + 1} state shape {x.shape} != ({n},)")
    states: list[np.ndarray] = []
    for i, recurrent in enumerate(_recurrent_layers(weights)):
        if i == 0:
            drive = weights.w_in[:, 0] + weights.w_in[:, 1:] @ u
        else:
            drive = weights.w_inter[i - 1] @ states[i - 1]
        if recurrent:
            drive = drive + weights.w[i] @ prev[i]
        states.append(np.tanh(drive + weights.b_e[i]))
    return states
