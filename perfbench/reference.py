"""Dense float64 references, written apart from the program under test.

Every large matrix of a block-circulant cell is rebuilt densely with
``scipy.linalg.circulant`` from the layer's ``weight_vectors``: block
``(i, j)`` is the circulant matrix whose *first column* is
``weight_vectors[i, j]`` (the convention of ``nn/circulant_layer.py``,
under which ``W x = IFFT(FFT(w) * FFT(x))``).  The cell equations are the
paper's Eqn. (1) (LSTM with peephole and projection) and Eqn. (2) (GRU),
evaluated with plain numpy matrix products, so a fault in the program's
FFT path, autograd graph or emulator cannot cancel out here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import circulant


def dense_from_vectors(vectors: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Dense ``(rows, cols)`` matrix of a ``(p, q, Lb)`` block-circulant grid."""
    p, q, block = vectors.shape
    dense = np.block(
        [[circulant(vectors[i, j]) for j in range(q)] for i in range(p)]
    )
    return dense[:rows, :cols]


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def pwl(fn, segments: int, low: float, high: float, saturate: tuple[float, float]):
    """``fn`` interpolated linearly between ``segments + 1`` uniform knots.

    Below ``low`` and above ``high`` it returns the ``saturate`` values
    (the limits of ``fn``): the hardware activation unit of Sec. VIII-B1,
    rebuilt with ``np.interp``.
    """
    knots = np.linspace(low, high, segments + 1)
    values = fn(knots)
    sat_low, sat_high = saturate

    def apply(x: np.ndarray) -> np.ndarray:
        inside = np.interp(x, knots, values)
        return np.where(x < low, sat_low, np.where(x > high, sat_high, inside))

    return apply


def _matrix(state: dict, name: str, rows: int, cols: int) -> np.ndarray:
    """A cell weight from a state dict: circulant vectors or a dense matrix."""
    if f"{name}.weight_vectors" in state:
        return dense_from_vectors(state[f"{name}.weight_vectors"], rows, cols)
    return np.asarray(state[f"{name}.weight"], dtype=np.float64)


class DenseReference:
    """A stacked LSTM/GRU classifier evaluated densely, frame by frame.

    Built from ``CompiledModel.spec`` and ``CompiledModel.state`` (the
    artifact's parameter snapshot).  ``run((T, B, D))`` returns
    ``(T, B, C)`` float64 logits; ``step(x, state)`` advances one frame.
    """

    def __init__(self, spec, state, pwl_segments: int | None = None):
        self.activations(pwl_segments)
        state = {k: np.asarray(v, dtype=np.float64) for k, v in state.items()}
        self.cell_type = spec.cell_type
        self.layers = []
        in_size = spec.input_size
        for index, hidden in enumerate(spec.layer_sizes):
            prefix = f"cell{index}"
            layer = {"hidden": hidden}
            if spec.cell_type == "lstm":
                out = spec.projection_size or hidden
                layer["w_x"] = _matrix(state, f"{prefix}.w_x", 4 * hidden, in_size)
                layer["w_r"] = _matrix(state, f"{prefix}.w_r", 4 * hidden, out)
                layer["bias"] = state[f"{prefix}.bias"]
                if spec.peephole:
                    layer["peep"] = tuple(
                        state[f"{prefix}.peep_{g}.weight"] for g in ("ic", "fc", "oc")
                    )
                if spec.projection_size:
                    layer["w_ym"] = _matrix(state, f"{prefix}.w_ym", out, hidden)
                layer["out"] = out
            else:
                layer["w_zr_x"] = _matrix(state, f"{prefix}.w_zr_x", 2 * hidden, in_size)
                layer["w_zr_c"] = _matrix(state, f"{prefix}.w_zr_c", 2 * hidden, hidden)
                layer["w_cx"] = _matrix(state, f"{prefix}.w_cx", hidden, in_size)
                layer["w_cc"] = _matrix(state, f"{prefix}.w_cc", hidden, hidden)
                layer["bias_zr"] = state[f"{prefix}.bias_zr"]
                layer["bias_c"] = state[f"{prefix}.bias_c"]
                layer["out"] = hidden
            self.layers.append(layer)
            in_size = layer["out"]
        self.cls_w = state["classifier.weight"]
        self.cls_b = state["classifier.bias"]

    def activations(self, pwl_segments: int | None) -> "DenseReference":
        """Exact sigmoid/tanh (``None``), or the hardware's PWL units with
        ``pwl_segments`` segments.  Returns self."""
        if pwl_segments is None:
            self.sigmoid, self.tanh = sigmoid, np.tanh
        else:
            self.sigmoid = pwl(sigmoid, pwl_segments, -8.0, 8.0, (0.0, 1.0))
            self.tanh = pwl(np.tanh, pwl_segments, -4.0, 4.0, (-1.0, 1.0))
        return self

    def initial_state(self, batch: int) -> list:
        states = []
        for layer in self.layers:
            if self.cell_type == "lstm":
                states.append((np.zeros((batch, layer["out"])),
                               np.zeros((batch, layer["hidden"]))))
            else:
                states.append(np.zeros((batch, layer["hidden"])))
        return states

    def _lstm(self, layer, x, state):
        y_prev, c_prev = state
        h = layer["hidden"]
        gates = x @ layer["w_x"].T + y_prev @ layer["w_r"].T + layer["bias"]
        z_i, z_f, z_g, z_o = (gates[:, k * h:(k + 1) * h] for k in range(4))
        if "peep" in layer:
            w_ic, w_fc, w_oc = layer["peep"]
            z_i = z_i + w_ic * c_prev
            z_f = z_f + w_fc * c_prev
        c = self.sigmoid(z_f) * c_prev + self.tanh(z_g) * self.sigmoid(z_i)
        if "peep" in layer:
            z_o = z_o + w_oc * c
        m = self.sigmoid(z_o) * self.tanh(c)
        y = m @ layer["w_ym"].T if "w_ym" in layer else m
        return y, (y, c)

    def _gru(self, layer, x, c_prev):
        h = layer["hidden"]
        gates = x @ layer["w_zr_x"].T + c_prev @ layer["w_zr_c"].T + layer["bias_zr"]
        z = self.sigmoid(gates[:, :h])
        r = self.sigmoid(gates[:, h:])
        cand = self.tanh(
            x @ layer["w_cx"].T + (r * c_prev) @ layer["w_cc"].T + layer["bias_c"]
        )
        c = (1.0 - z) * c_prev + z * cand
        return c, c

    def step(self, x: np.ndarray, states: list) -> tuple[np.ndarray, list]:
        value = np.asarray(x, dtype=np.float64)
        states = list(states)
        for index, layer in enumerate(self.layers):
            if self.cell_type == "lstm":
                value, states[index] = self._lstm(layer, value, states[index])
            else:
                value, states[index] = self._gru(layer, value, states[index])
        return value @ self.cls_w.T + self.cls_b, states

    def run(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        states = self.initial_state(inputs.shape[1])
        out = np.empty((inputs.shape[0], inputs.shape[1], len(self.cls_b)))
        for t in range(inputs.shape[0]):
            out[t], states = self.step(inputs[t], states)
        return out


# ----------------------------------------------------------------------
# Checks against the references.
# ----------------------------------------------------------------------

#: Float backends evaluate the same float64 arithmetic in another order
#: (FFT products, autograd graph), so they may differ from the dense
#: reference by accumulated rounding: a few hundred ulps of the logit
#: scale at these sizes, far below this tolerance, far above a real fault.
FLOAT_RTOL = 1e-12

#: Headroom for rounding errors that the matrix products and the
#: recurrence can amplify on the way to the logits (see
#: :func:`fixed_point_bound`).  Fixed before any output was looked at.
FIXED_AMPLIFICATION = 4.0


def quantized_stages(spec) -> int:
    """Rounding steps on one frame's path through a fixed-point stack.

    Every block-circulant matrix contributes four: its BRAM weight spectra,
    the input vector, the input spectrum and the output vector are each
    projected onto a 12-bit grid (Sec. V-A1, VII-D).  An LSTM layer has
    ``W_x``, ``W_r`` and, with a projection, ``W_ym``; a GRU layer has four
    matrices.
    """
    per_layer = 4 if spec.cell_type == "gru" else 2 + (spec.projection_size is not None)
    return 4 * per_layer * len(spec.layer_sizes)


def fixed_point_bound(spec, bits: int, reference: np.ndarray) -> float:
    """Largest logit error the ``bits``-bit datapath may show.

    A format fit to a vector's range has a step below ``2 * max|v| /
    2**(bits-1)``, so rounding moves each value by less than
    ``max|v| * 2**-(bits-1)``: a relative error of ``2**-(bits-1)`` per
    stage.  The bound sums that over :func:`quantized_stages` and scales it
    by :data:`FIXED_AMPLIFICATION` and the largest reference logit.
    """
    return (
        FIXED_AMPLIFICATION
        * quantized_stages(spec)
        * 2.0 ** -(bits - 1)
        * float(np.max(np.abs(reference)))
    )


def logits_problem(name: str, got: np.ndarray, want: np.ndarray, tolerance: float):
    """``None`` when ``got`` is within ``tolerance`` of ``want``, else why."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    error = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not error <= tolerance:  # also catches NaN
        return f"{name}: max |error| {error:.3g} exceeds {tolerance:.3g}"
    return None


def float_problem(name: str, got: np.ndarray, want: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(want))))
    return logits_problem(name, got, want, FLOAT_RTOL * scale)


def top_k_problem(tokens, reference_logits: np.ndarray, top_k: int, tolerance: float):
    """``None`` when every token lies in the top-k of its step's reference
    logits (ties within ``tolerance`` of the k-th largest count as in)."""
    for step, token in enumerate(tokens):
        row = reference_logits[step]
        kth = np.sort(row)[-top_k]
        if row[token] < kth - tolerance:
            return (
                f"token {token} at step {step} is outside the reference "
                f"top-{top_k} ({row[token]:.6g} < {kth:.6g})"
            )
    return None
