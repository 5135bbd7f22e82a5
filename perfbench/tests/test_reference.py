"""Pins the benchmark's independent references and its output checks.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench.reference import (
    DenseReference,
    dense_from_vectors,
    fixed_point_bound,
    float_problem,
    logits_problem,
    pwl,
    sigmoid,
    top_k_problem,
)
from repro.config import RNNSpec
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile

X = (0.5, -0.5)


def test_circulant_block_is_built_from_its_first_column():
    dense = dense_from_vectors(np.array([[[1.0, 2.0, 3.0, 4.0]]]), 4, 4)
    assert dense.tolist() == [[1, 4, 3, 2], [2, 1, 4, 3], [3, 2, 1, 4], [4, 3, 2, 1]]


def test_block_grid_is_cropped_to_the_unpadded_shape():
    vectors = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # one block row, two columns
    assert dense_from_vectors(vectors, 2, 3).tolist() == [[1, 2, 3], [2, 1, 4]]


def test_convention_matches_the_layer_it_checks():
    layer = CirculantLinear(12, 20, 4, rng=np.random.default_rng(3))
    vectors = layer.weight_vectors.data
    np.testing.assert_array_equal(dense_from_vectors(vectors, 20, 12), layer.weight_matrix())


def _identity_gate_state(cell_type: str) -> tuple[RNNSpec, dict]:
    """Every weight zero except an identity on the candidate input path,
    a 1x2 classifier [[1, 2]] and bias 0.25."""
    spec = RNNSpec(cell_type=cell_type, input_size=2, layer_sizes=(2,),
                   output_size=1, block_sizes=(2,))
    identity = [1.0, 0.0]  # circulant([1, 0]) is the 2x2 identity
    if cell_type == "lstm":
        w_x = np.zeros((4, 1, 2))
        w_x[2, 0] = identity  # block row 2 feeds z_g, the candidate
        state = {"cell0.w_x.weight_vectors": w_x,
                 "cell0.w_r.weight_vectors": np.zeros((4, 1, 2)),
                 "cell0.bias": np.zeros(8)}
    else:
        state = {"cell0.w_zr_x.weight_vectors": np.zeros((2, 1, 2)),
                 "cell0.w_zr_c.weight_vectors": np.zeros((2, 1, 2)),
                 "cell0.w_cx.weight_vectors": np.array([[identity]]),
                 "cell0.w_cc.weight_vectors": np.zeros((1, 1, 2)),
                 "cell0.bias_zr": np.zeros(4),
                 "cell0.bias_c": np.zeros(2)}
    state["classifier.weight"] = np.array([[1.0, 2.0]])
    state["classifier.bias"] = np.array([0.25])
    return spec, state


def test_lstm_reference_on_a_hand_computed_case():
    # All gates see z = 0, so sigma = 1/2; the candidate is tanh(x).
    # c1 = tanh(x)/2, m1 = tanh(c1)/2; c2 = c1/2 + tanh(x)/2, m2 = tanh(c2)/2.
    spec, state = _identity_gate_state("lstm")
    logits = DenseReference(spec, state).run(np.array([[X], [X]]))[:, 0, 0]
    want = []
    c = [0.0, 0.0]
    for _ in range(2):
        c = [0.5 * c[k] + 0.5 * math.tanh(X[k]) for k in range(2)]
        m = [0.5 * math.tanh(value) for value in c]
        want.append(m[0] + 2 * m[1] + 0.25)
    assert logits.tolist() == pytest.approx(want, abs=1e-15)


def test_gru_reference_on_a_hand_computed_case():
    # z = r = 1/2 and the candidate is tanh(x): c_t = c_{t-1}/2 + tanh(x)/2.
    spec, state = _identity_gate_state("gru")
    logits = DenseReference(spec, state).run(np.array([[X], [X]]))[:, 0, 0]
    c1 = [0.5 * math.tanh(v) for v in X]
    c2 = [0.5 * c1[k] + 0.5 * math.tanh(X[k]) for k in range(2)]
    want = [c1[0] + 2 * c1[1] + 0.25, c2[0] + 2 * c2[1] + 0.25]
    assert logits.tolist() == pytest.approx(want, abs=1e-15)


def test_pwl_interpolates_between_knots_and_saturates():
    unit = pwl(sigmoid, 16, -8.0, 8.0, (0.0, 1.0))
    assert unit(np.array([0.0]))[0] == 0.5
    assert unit(np.array([0.5]))[0] == pytest.approx((sigmoid(0.0) + sigmoid(1.0)) / 2)
    assert unit(np.array([-9.0, 9.0])).tolist() == [0.0, 1.0]
    assert pwl(np.tanh, 16, -4.0, 4.0, (-1.0, 1.0))(np.array([-5.0]))[0] == -1.0


@pytest.mark.parametrize("spec", [
    RNNSpec(cell_type="lstm", input_size=12, layer_sizes=(16, 8), output_size=5,
            block_sizes=(4, 4), peephole=True, projection_size=8),
    RNNSpec(cell_type="gru", input_size=10, layer_sizes=(8,), output_size=10,
            block_sizes=(4,)),
])
def test_reference_agrees_with_the_float_backend(spec):
    model = StackedRNNClassifier(spec, structured=True, rng=np.random.default_rng(1))
    compiled = compile(model, backend="float", cache=False)
    inputs = np.random.default_rng(2).standard_normal((6, 3, spec.input_size))
    want = DenseReference(spec, compiled.state).run(inputs)
    assert float_problem("float", compiled.run(inputs), want) is None


def test_fixed_backend_stays_within_the_quantization_bound():
    spec = RNNSpec(cell_type="lstm", input_size=12, layer_sizes=(16,), output_size=5,
                   block_sizes=(4,))
    model = StackedRNNClassifier(spec, structured=True, rng=np.random.default_rng(1))
    fixed = compile(model, backend="fixed", weight_bits=12, pwl_segments=16, cache=False)
    inputs = np.random.default_rng(2).standard_normal((20, 1, 12))
    want = DenseReference(spec, fixed.state, pwl_segments=16).run(inputs)
    bound = fixed_point_bound(spec, 12, want)
    assert logits_problem("fixed", fixed.run(inputs), want, bound) is None
    # With 4 bits the same datapath is far outside the 12-bit bound.
    coarse = compile(model, backend="fixed", weight_bits=4, pwl_segments=16, cache=False)
    assert logits_problem("fixed", coarse.run(inputs), want, bound) is not None


def test_a_planted_wrong_logit_fails_each_check():
    want = np.random.default_rng(0).standard_normal((4, 6))
    wrong = want.copy()
    wrong[2, 3] += 1e-6
    assert float_problem("float", want.copy(), want) is None
    assert float_problem("float", wrong, want) is not None
    spec = RNNSpec(cell_type="lstm", input_size=6, layer_sizes=(8,), output_size=6,
                   block_sizes=(4,))
    bound = fixed_point_bound(spec, 12, want)
    planted = want.copy()
    planted[1, 1] += 2 * bound
    assert logits_problem("fixed", want + 0.5 * bound, want, bound) is None
    assert logits_problem("fixed", planted, want, bound) is not None
    nan = want.copy()
    nan[0, 0] = np.nan
    assert logits_problem("fixed", nan, want, bound) is not None


def test_top_k_check():
    logits = np.array([[0.0, 3.0, 2.0, 1.0], [5.0, 0.0, 0.0, 4.0]])
    assert top_k_problem([1, 3], logits, 2, 1e-9) is None
    assert top_k_problem([3, 0], logits, 2, 1e-9) is not None  # 3 is third at step 0
