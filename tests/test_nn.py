import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from fedleak.nn import (
    ACTIVATIONS,
    SELU_ALPHA,
    SELU_LAMBDA,
    Model,
    backward,
    cross_entropy,
    forward,
    forward_batch,
    init_model,
    load_model,
    output_layer_gradient,
    save_model,
    softmax,
    zeros_like_params,
)


# ---------------------------------------------------------------- oracles

def naive_forward(model, x):
    """Straight-line reimplementation of forward with explicit loops."""
    act = ACTIVATIONS[model.activation][0]
    h = np.array(x, dtype=np.float64)
    for layer in range(len(model.weights) - 1):
        w, b = model.weights[layer], model.biases[layer]
        out = np.zeros(w.shape[0])
        for i in range(w.shape[0]):
            s = b[i]
            for j in range(w.shape[1]):
                s += w[i, j] * h[j]
            out[i] = s
        h = act(out)
    w, b = model.weights[-1], model.biases[-1]
    q = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        s = b[i]
        for j in range(w.shape[1]):
            s += w[i, j] * h[j]
        q[i] = s
    return q, h


def fd_gradient(model, features, labels, step=1e-5):
    """Central finite differences on every parameter."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    def loss_at(m):
        logits, _ = forward_batch(m, features)
        return cross_entropy(logits, labels)
    for layer in range(len(model.weights)):
        w = model.weights[layer]
        for idx in np.ndindex(w.shape):
            probe = model.copy()
            probe.weights[layer][idx] += step
            up = loss_at(probe)
            probe.weights[layer][idx] -= 2 * step
            down = loss_at(probe)
            grads_w[layer][idx] = (up - down) / (2 * step)
        b = model.biases[layer]
        for idx in np.ndindex(b.shape):
            probe = model.copy()
            probe.biases[layer][idx] += step
            up = loss_at(probe)
            probe.biases[layer][idx] -= 2 * step
            down = loss_at(probe)
            grads_b[layer][idx] = (up - down) / (2 * step)
    return grads_w, grads_b


# ---------------------------------------------------------------- softmax

def test_softmax_uniform():
    npt.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-12)


def test_softmax_shift_invariant_ratio():
    for c in (0.0, 5.0, -3.0):
        out = softmax(np.array([c, c + math.log(3.0)]))
        npt.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_two_logit_value():
    out = softmax(np.array([2.0, 0.0]))
    npt.assert_allclose(out, [0.8808, 0.1192], atol=1e-4)


def test_softmax_sums_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.normal(size=8) * 10
        p = softmax(q)
        assert abs(p.sum() - 1.0) <= 1e-12
        npt.assert_allclose(softmax(q + 123.456), p, atol=1e-12)


def test_softmax_overflow_safe():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------- forward

def test_forward_zero_weights_bias_passthrough():
    model = init_model([3, 2, 2], "relu", seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[0][:] = 0.0
    model.biases[1][:] = np.array([1.0, 2.0])
    q, e = forward(model, np.array([0.3, -0.2, 0.9]))
    npt.assert_allclose(q, [1.0, 2.0], atol=1e-15)
    npt.assert_allclose(e, np.zeros(2), atol=1e-15)


def test_forward_single_linear_identity():
    model = Model(weights=[np.eye(2)], biases=[np.zeros(2)], activation="relu")
    q, e = forward(model, np.array([3.0, -1.0]))
    npt.assert_allclose(q, [3.0, -1.0], atol=1e-15)
    # the "embedding" of a single-layer net is the input itself
    npt.assert_allclose(e, [3.0, -1.0], atol=1e-15)


def test_forward_matches_naive_loops():
    model = init_model([5, 7, 4], "tanh", seed=42)
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.normal(size=5)
        q, e = forward(model, x)
        q_ref, e_ref = naive_forward(model, x)
        npt.assert_allclose(q, q_ref, rtol=1e-12)
        npt.assert_allclose(e, e_ref, rtol=1e-12)


def test_forward_batch_agrees_with_forward():
    model = init_model([4, 6, 3], "elu", seed=5)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(9, 4))
    logits, embeds = forward_batch(model, feats)
    for i in range(9):
        q, e = forward(model, feats[i])
        npt.assert_allclose(logits[i], q, atol=1e-14)
        npt.assert_allclose(embeds[i], e, atol=1e-14)


def test_forward_dimension_mismatch():
    model = init_model([4, 6, 3], "relu", seed=1)
    with pytest.raises(ValueError):
        forward(model, np.zeros(5))


# --------------------------------------------------- output layer gradient

def test_output_gradient_uniform_logits():
    g = output_layer_gradient(np.zeros(4), 0)
    npt.assert_allclose(g, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_output_gradient_two_logits():
    g = output_layer_gradient(np.array([2.0, 0.0]), 0)
    npt.assert_allclose(g, [-0.1192, 0.1192], atol=1e-4)


def test_output_gradient_zero_sum_1000_random():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        n = rng.integers(2, 12)
        q = rng.normal(size=n) * 5
        y = int(rng.integers(0, n))
        worst = max(worst, abs(output_layer_gradient(q, y).sum()))
    assert worst <= 1e-12


# ---------------------------------------------------------------- backward

def test_backward_single_sample_zero_hidden():
    model = init_model([3, 4, 2], "relu", seed=2)
    for w in model.weights:
        w[:] = 0.0
    model.biases[0][:] = 0.0
    x = np.array([[1.0, -1.0, 0.5]])
    _, grad = backward(model, x, np.array([1]))
    expected = output_layer_gradient(model.biases[-1], 1)
    npt.assert_allclose(grad.biases[-1], expected, atol=1e-14)


def test_backward_duplicate_sample_mean_invariance():
    model = init_model([4, 5, 3], "silu", seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4))
    y = np.array([2])
    _, g1 = backward(model, x, y)
    _, g2 = backward(model, np.vstack([x, x]), np.array([2, 2]))
    for a, b in zip(g1.weights, g2.weights):
        npt.assert_allclose(a, b, atol=1e-14)
    for a, b in zip(g1.biases, g2.biases):
        npt.assert_allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_backward_finite_differences(activation):
    model = init_model([6, 8, 5, 4], activation, seed=7)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(5, 6))
    labels = rng.integers(0, 4, size=5)
    _, grad = backward(model, feats, labels)
    fd_w, fd_b = fd_gradient(model, feats, labels)
    for a, b in zip(grad.weights, fd_w):
        denom = np.maximum(np.abs(b), 1e-8)
        assert np.max(np.abs(a - b) / denom) <= 1e-5
    for a, b in zip(grad.biases, fd_b):
        denom = np.maximum(np.abs(b), 1e-8)
        assert np.max(np.abs(a - b) / denom) <= 1e-5


def test_backward_weight_gradient_outer_product_structure():
    # per sample the output-layer weight gradient is the bias gradient
    # times the embedding, so a one-sample batch must factor exactly
    model = init_model([5, 6, 4], "tanh", seed=11)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 5))
    y = np.array([3])
    _, grad = backward(model, x, y)
    q, e = forward(model, x[0])
    gb = output_layer_gradient(q, 3)
    npt.assert_allclose(grad.weights[-1], np.outer(gb, e), rtol=1e-12)


def test_backward_empty_batch_rejected():
    model = init_model([3, 2], "relu", seed=0)
    with pytest.raises(ValueError):
        backward(model, np.zeros((0, 3)), np.zeros(0, dtype=int))


# ------------------------------------------------------------- activations

def test_activation_fixed_points_at_zero():
    for name, (fn, _) in ACTIVATIONS.items():
        assert fn(np.zeros(3)).tolist() == [0.0, 0.0, 0.0], name


def test_selu_constants():
    assert SELU_ALPHA == pytest.approx(1.6732632423543772, abs=0)
    assert SELU_LAMBDA == pytest.approx(1.0507009873554805, abs=0)


def test_activation_gradients_match_fd():
    rng = np.random.default_rng(17)
    z = rng.normal(size=200) * 3
    h = 1e-6
    for name, (fn, grad) in ACTIVATIONS.items():
        fd = (fn(z + h) - fn(z - h)) / (2 * h)
        npt.assert_allclose(grad(z), fd, atol=1e-6, err_msg=name)


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = init_model([6, 9, 4], "selu", seed=21)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.activation == model.activation
    assert loaded.layer_sizes == model.layer_sizes
    for a, b in zip(loaded.weights, model.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, model.biases):
        assert np.array_equal(a, b)


def test_checkpoint_truncated_rejected(tmp_path):
    model = init_model([4, 3], "relu", seed=0)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_model(path)


def write_checkpoint(path, layer_sizes, n_floats):
    """A checkpoint file with the given header sizes and n_floats payload values."""
    header = json.dumps({"layer_sizes": layer_sizes, "activation": "relu"})
    path.write_bytes(header.encode("utf-8") + b"\n" + np.arange(n_floats, dtype="<f8").tobytes())


@pytest.mark.parametrize(
    "layer_sizes, n_floats",
    [
        # 4x0 and 3x0 weights, a 0-bias and a 3-bias: every logit is the output bias
        ([4, 0, 3], 3),
        # 3.7 would be truncated to a 4 -> 3 layer that the payload fills
        ([4, 3.7], 15),
        ([4, -1, 3], 3),
        ([4], 0),
        ("43", 15),
        ([4, True], 5),
    ],
    ids=["zero", "float", "negative", "one_layer", "string", "bool"],
)
def test_checkpoint_bad_layer_sizes_name_the_file(tmp_path, layer_sizes, n_floats):
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, layer_sizes, n_floats)
    with pytest.raises(ValueError, match=r"bad\.ckpt has layer_sizes"):
        load_model(path)


def test_checkpoint_header_that_is_not_an_object_is_corrupt(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(b"[4, 3]\n" + np.zeros(15).tobytes())
    with pytest.raises(ValueError, match=r"corrupt checkpoint header in .*list\.ckpt"):
        load_model(path)


def test_init_model_bounds_and_determinism():
    a = init_model([10, 20, 5], "relu", seed=9)
    b = init_model([10, 20, 5], "relu", seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for layer, w in enumerate(a.weights):
        bound = 1.0 / math.sqrt(w.shape[1])
        assert np.abs(w).max() <= bound
        assert np.abs(a.biases[layer]).max() <= bound


def test_param_vec_max_abs_propagates_nan():
    model = init_model([3, 4, 2], "relu", seed=0)
    vec = zeros_like_params(model)
    assert vec.max_abs() == 0.0
    vec.weights[0][1, 2] = -3.0
    assert vec.max_abs() == 3.0
    vec.biases[0][1] = np.nan
    assert math.isnan(vec.max_abs())
    for arr in vec.weights + vec.biases:
        arr[...] = np.nan
    assert math.isnan(vec.max_abs())
