import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fedleak.nn import (
    ACTIVATIONS,
    SELU_ALPHA,
    SELU_LAMBDA,
    Model,
    ParamVec,
    backward,
    backward_stack,
    cross_entropy,
    forward_batch,
    init_model,
    load_model,
    output_layer_gradient,
    save_model,
    softmax_rows,
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

# the one-logit-vector cases run as one-row batches

def test_softmax_uniform():
    npt.assert_allclose(softmax_rows(np.zeros((1, 4))), np.full((1, 4), 0.25), atol=1e-12)


def test_softmax_shift_invariant_ratio():
    for c in (0.0, 5.0, -3.0):
        out = softmax_rows(np.array([[c, c + math.log(3.0)]]))
        npt.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_two_logit_value():
    out = softmax_rows(np.array([[2.0, 0.0]]))
    npt.assert_allclose(out, [[0.8808, 0.1192]], atol=1e-4)


def test_softmax_sums_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.normal(size=(1, 8)) * 10
        p = softmax_rows(q)
        assert abs(p.sum() - 1.0) <= 1e-12
        npt.assert_allclose(softmax_rows(q + 123.456), p, atol=1e-12)


def test_softmax_overflow_safe():
    p = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-12


def test_softmax_rows_leaves_read_only_logits_untouched():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(30, 7)) * 5
    kept = q.copy()
    q.flags.writeable = False
    p = softmax_rows(q)
    assert q.tobytes() == kept.tobytes()
    assert p.flags.writeable and not np.shares_memory(p, q)
    shifted = kept - kept.max(axis=1, keepdims=True)
    assert p.tobytes() == (np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)).tobytes()


def test_softmax_rows_of_integer_logits_is_float():
    q = np.array([[3, 1, 0], [-2, 5, 5]])
    p = softmax_rows(q)
    assert p.dtype == np.float64
    assert q.tolist() == [[3, 1, 0], [-2, 5, 5]]
    assert p.tobytes() == softmax_rows(q.astype(np.float64)).tobytes()


# ---------------------------------------------------------------- forward
# the one-feature-vector cases run as one-row batches

def test_forward_zero_weights_bias_passthrough():
    model = init_model([3, 2, 2], "relu", seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[0][:] = 0.0
    model.biases[1][:] = np.array([1.0, 2.0])
    q, e = forward_batch(model, np.array([[0.3, -0.2, 0.9]]))
    npt.assert_allclose(q, [[1.0, 2.0]], atol=1e-15)
    npt.assert_allclose(e, np.zeros((1, 2)), atol=1e-15)


def test_forward_single_linear_identity():
    model = Model(weights=[np.eye(2)], biases=[np.zeros(2)], activation="relu")
    q, e = forward_batch(model, np.array([[3.0, -1.0]]))
    npt.assert_allclose(q, [[3.0, -1.0]], atol=1e-15)
    # the "embedding" of a single-layer net is the input itself
    npt.assert_allclose(e, [[3.0, -1.0]], atol=1e-15)


def test_forward_matches_naive_loops():
    model = init_model([5, 7, 4], "tanh", seed=42)
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.normal(size=5)
        q, e = forward_batch(model, x[None, :])
        q_ref, e_ref = naive_forward(model, x)
        npt.assert_allclose(q[0], q_ref, rtol=1e-12)
        npt.assert_allclose(e[0], e_ref, rtol=1e-12)


def test_forward_batch_agrees_with_forward():
    # every row of a batch's pass agrees with the pass of that row alone
    model = init_model([4, 6, 3], "elu", seed=5)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(9, 4))
    logits, embeds = forward_batch(model, feats)
    for i in range(9):
        q, e = forward_batch(model, feats[i : i + 1])
        npt.assert_allclose(logits[i], q[0], atol=1e-14)
        npt.assert_allclose(embeds[i], e[0], atol=1e-14)


def test_forward_dimension_mismatch():
    model = init_model([4, 6, 3], "relu", seed=1)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros((1, 5)))


def out_of_place_forward(model, features):
    """forward_batch with a new array for every bias add and activation."""
    act = ACTIVATIONS[model.activation][0]
    h = features
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = act(h @ w.T + b)
    return h @ model.weights[-1].T + model.biases[-1], h


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("sizes", [[5, 4], [5, 9, 4], [6, 33, 17, 10]], ids=["linear", "one_hidden", "two_hidden"])
def test_forward_batch_leaves_read_only_features_untouched(activation, sizes):
    model = init_model(sizes, activation, seed=8)
    features = np.random.default_rng(8).normal(size=(257, sizes[0])) * 3
    kept = features.copy()
    features.flags.writeable = False
    logits, embeds = forward_batch(model, features)
    assert features.tobytes() == kept.tobytes()
    q_ref, h_ref = out_of_place_forward(model, kept)
    assert logits.tobytes() == q_ref.tobytes()
    assert embeds.tobytes() == h_ref.tobytes()


@pytest.mark.parametrize("sizes", [[16, 32, 16, 10], [64, 256, 256, 10]], ids=["default", "train_heavy"])
def test_forward_batch_logits_are_class_major_with_the_row_major_bits(sizes):
    model = init_model(sizes, "relu", seed=4)
    features = np.random.default_rng(4).normal(size=(1000, sizes[0])) * 3
    logits, embeds = forward_batch(model, features)
    assert logits.flags.f_contiguous and not logits.flags.c_contiguous
    assert embeds.flags.c_contiguous
    q_ref, h_ref = out_of_place_forward(model, features)
    assert q_ref.flags.c_contiguous
    assert np.array_equal(logits.view(np.int64), q_ref.view(np.int64))
    assert np.array_equal(embeds.view(np.int64), h_ref.view(np.int64))


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
    q, e = forward_batch(model, x)
    gb = output_layer_gradient(q[0], 3)
    npt.assert_allclose(grad.weights[-1], np.outer(gb, e[0]), rtol=1e-12)


def one_model_backward(model, x, y):
    """The one-model backward pass with 2-D arrays, its loss from cross_entropy and its delta from softmax_rows."""
    act, act_grad = ACTIVATIONS[model.activation]
    pre, hs = [], [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        pre.append(hs[-1] @ w.T + b)
        hs.append(act(pre[-1]))
    logits = hs[-1] @ model.weights[-1].T + model.biases[-1]
    loss = cross_entropy(logits, y)
    delta = softmax_rows(logits)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grad_w, grad_b = [delta.T @ hs[-1]], [delta.sum(axis=0)]
    up = delta
    for i in range(len(model.weights) - 2, -1, -1):
        up = (up @ model.weights[i + 1]) * act_grad(pre[i])
        grad_w.insert(0, up.T @ hs[i])
        grad_b.insert(0, up.sum(axis=0))
    return loss, grad_w, grad_b


@pytest.mark.parametrize(
    "sizes, batch",
    [([6, 10, 4], 16), ([6, 4], 16), ([16, 32, 16, 10], 32), ([6, 13, 7, 4], 5), ([6, 9, 4], 1), ([3, 1, 2], 9)],
    ids=["hidden10", "linear", "default", "odd-widths", "batch1", "width1"],
)
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_backward_stack_slices_match_the_one_model_pass_bit_for_bit(sizes, batch, activation):
    # three models with their own parameters and batches, as one stack
    rng = np.random.default_rng(batch)
    models = [init_model(sizes, activation, seed=s) for s in range(3)]
    x = rng.normal(size=(3, batch, sizes[0])) * 2.0
    y = rng.integers(0, sizes[-1], size=(3, batch))
    params = ParamVec([np.stack(ws) for ws in zip(*(m.weights for m in models))],
                      [np.stack(bs) for bs in zip(*(m.biases for m in models))])
    losses, grad = backward_stack(params, activation, x, y)
    for k, model in enumerate(models):
        loss, grad_w, grad_b = one_model_backward(model, x[k], y[k])
        assert losses[k].tobytes() == np.float64(loss).tobytes()
        assert backward(model, x[k], y[k])[0] == loss
        for a, b in zip(grad.weights + grad.biases, grad_w + grad_b, strict=True):
            assert a[k].tobytes() == b.tobytes()


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


# each activation as one new array per operation, with np.where for the pieces
OUT_OF_PLACE_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "elu": lambda z: np.where(z > 0.0, z, np.expm1(z)),
    "selu": lambda z: SELU_LAMBDA * np.where(z > 0.0, z, SELU_ALPHA * np.expm1(z)),
    "silu": lambda z: z * (1.0 / (1.0 + np.exp(-z))),
}


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_in_place_is_out_of_place_bit_for_bit(name):
    rng = np.random.default_rng(23)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 800.0, -800.0]
    z = np.concatenate([rng.normal(size=1000) * 4, special]).reshape(-1, 10)
    fn = ACTIVATIONS[name][0]
    with np.errstate(all="ignore"):
        expected = OUT_OF_PLACE_ACTIVATIONS[name](z).tobytes()
        kept = z.copy()
        assert fn(z).tobytes() == expected
        assert z.tobytes() == kept.tobytes()
        other = np.full_like(z, 7.0)
        assert fn(z, out=other) is other
        assert other.tobytes() == expected and z.tobytes() == kept.tobytes()
        assert fn(z, out=z) is z
        assert z.tobytes() == expected


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


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, init_model([4, 3], "relu", seed=0))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match=r"trailing bytes in checkpoint .*model\.ckpt"):
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


def test_param_vec_add_at_scale_one_adds_other_as_is():
    special = np.array([1.5, -0.0, 0.0, np.inf, -np.inf, np.nan, -2.0, 5e-324])
    mine = ParamVec([np.array([[0.0, -0.0, 1.0, 2.0], [-0.0, 3.0, 4.0, -1e300]])], [np.full(8, -0.0)])
    other = ParamVec([special.reshape(2, 4)], [special])
    expected = [(mine.weights[0] + special.reshape(2, 4)).tobytes(), (mine.biases[0] + special).tobytes()]
    with np.errstate(all="ignore"):
        assert mine.add_(other, 1.0) is mine
        assert [mine.weights[0].tobytes(), mine.biases[0].tobytes()] == expected
        # other scales still go through scale * other
        mine.add_(other, -2.0)
    assert mine.biases[0][0] == -0.0 + 1.5 - 3.0
    # and at scale 1.0 no scaled copy of other is built
    params = ParamVec([np.zeros((100, 40))], [np.zeros(40)])
    grad = ParamVec([np.ones((100, 40))], [np.ones(40)])
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        params.add_(grad, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < grad.weights[0].nbytes // 2


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


def loop_max_abs(vec):
    """ParamVec.max_abs as it was: one running np.maximum over the arrays' abs maxima."""
    m = 0.0
    for arr in vec.weights + vec.biases:
        if arr.size:
            m = float(np.maximum(m, np.abs(arr).max()))
    return m


@pytest.mark.parametrize(
    "weights, biases",
    [
        ([], []),
        ([np.empty((0, 3))], [np.empty(0)]),
        ([np.zeros((2, 3))], [np.zeros(2)]),
        ([np.full((2, 3), -0.0)], [np.full(2, -0.0)]),
        ([np.array([[1.0, -2.5]])], [np.array([-7.0])]),
        ([np.array([[1.0, np.inf]])], [np.array([0.0])]),
        ([np.array([[1.0, -np.inf]])], [np.array([0.0])]),
        ([np.array([[np.nan, 2.0]])], [np.array([np.inf])]),
        ([np.array([[np.inf, 2.0]])], [np.array([np.nan])]),
        ([np.empty((0, 2)), np.array([[-3.0]])], [np.empty(0), np.array([np.nan])]),
        ([np.full((3, 2), -1e308)], [np.array([5e-324, -5e-324, 0.0])]),
    ],
    ids=["no-arrays", "empty-arrays", "zeros", "negative-zeros", "finite", "inf", "minus-inf", "nan-then-inf",
         "inf-then-nan", "empty-and-nan", "extremes"],
)
def test_param_vec_max_abs_equals_the_per_array_loop(weights, biases):
    vec = ParamVec(weights, biases)
    before = [a.copy() for a in weights + biases]
    got, expected = vec.max_abs(), loop_max_abs(vec)
    assert type(got) is float
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected and math.copysign(1.0, got) == 1.0
    # the abs is taken in a copy: the vector's own arrays keep their signs
    for a, b in zip(before, weights + biases):
        npt.assert_array_equal(a, b, strict=True)
        assert (np.signbit(a) == np.signbit(b)).all()


def test_param_vec_max_abs_on_stacked_and_f_ordered_arrays():
    rng = np.random.default_rng(5)
    vec = random_vec(rng, stack=3, order="F")
    vec.biases[1][2, 1] = -9.0
    assert vec.max_abs() == loop_max_abs(vec) == 9.0
    assert vec[2].max_abs() == loop_max_abs(vec[2]) == 9.0


def test_prechecked_model_makes_every_check_but_the_scan():
    model = init_model([3, 4, 2], "relu", seed=0)
    same = Model._prechecked(model.weights, model.biases, model.activation)
    assert same == model and same.weights is model.weights
    bad_inputs = [
        (model.weights, model.biases, "gelu"),
        (model.weights, model.biases[:1], "relu"),
        ([model.weights[0].T, model.weights[1]], model.biases, "relu"),
        ([model.weights[0], model.weights[1][:, :3]], model.biases, "relu"),
    ]
    for args in bad_inputs:
        with pytest.raises(ValueError) as checked:
            Model(*args)
        with pytest.raises(ValueError) as prechecked:
            Model._prechecked(*args)
        assert str(prechecked.value) == str(checked.value)
    # a layout fault after a non-finite layer: the constructor names the
    # first fault in layer order, the non-finite layer
    weights = [np.full((4, 3), np.nan), model.weights[1][:, :3]]
    with pytest.raises(ValueError, match=r"^layer 0: non-finite parameters$"):
        Model(weights, model.biases, "relu")
    with pytest.raises(ValueError, match=r"^layer 1: fan-in does not match previous fan-out$"):
        Model._prechecked(weights, model.biases, "relu")
    # parameters from outside keep the scan
    biases = [model.biases[0], np.array([0.0, np.inf])]
    with pytest.raises(ValueError, match=r"^layer 1: non-finite parameters$"):
        Model(model.weights, biases, "relu")


# ParamVec's operations against the per-list comprehensions they replaced

def random_vec(rng, stack=None, order="C"):
    """A two-layer ParamVec of random arrays, with an optional leading stack axis, in memory order `order`."""
    lead = () if stack is None else (stack,)
    weights = [np.asarray(rng.standard_normal(lead + shape), order=order) for shape in ((4, 3), (2, 4))]
    biases = [np.asarray(rng.standard_normal(lead + (n,)), order=order) for n in (4, 2)]
    return ParamVec(weights, biases)


def assert_same_vec(got, expected):
    """Same layer count, and each array the same bits, shape and strides."""
    assert len(got.weights) == len(expected.weights) and len(got.biases) == len(expected.biases)
    for g, e in zip(got.weights + got.biases, expected.weights + expected.biases):
        assert (g.shape, g.dtype, g.strides) == (e.shape, e.dtype, e.strides)
        assert g.tobytes(order="A") == e.tobytes(order="A")


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("stack", [None, 3])
def test_param_vec_copy_scaled_sub_match_per_list_comprehensions(stack, order):
    rng = np.random.default_rng(11)
    vec, other = random_vec(rng, stack, order), random_vec(rng, stack, order)
    if order == "F":
        assert not vec.weights[0].flags.c_contiguous
    copied = vec.copy()
    assert_same_vec(copied, ParamVec([w.copy() for w in vec.weights], [b.copy() for b in vec.biases]))
    for arr, src in zip(copied.weights + copied.biases, vec.weights + vec.biases):
        # ndarray.copy's C order, whatever the source's layout
        assert arr.flags.c_contiguous and not np.shares_memory(arr, src)
    for s in (0.5, -3.0, 1.0):
        assert_same_vec(vec.scaled(s), ParamVec([s * w for w in vec.weights], [s * b for b in vec.biases]))
    assert_same_vec(
        vec.sub(other),
        ParamVec(
            [w - ow for w, ow in zip(vec.weights, other.weights)],
            [b - ob for b, ob in zip(vec.biases, other.biases)],
        ),
    )


def test_param_vec_map_zips_the_layers_of_every_vector():
    rng = np.random.default_rng(12)
    a, b, c = (random_vec(rng) for _ in range(3))
    assert_same_vec(a.map(np.negative), ParamVec([-w for w in a.weights], [-x for x in a.biases]))
    assert_same_vec(
        a.map(lambda x, y, z: x * y - z, b, c),
        ParamVec(
            [x * y - z for x, y, z in zip(a.weights, b.weights, c.weights)],
            [x * y - z for x, y, z in zip(a.biases, b.biases, c.biases)],
        ),
    )
    # stacking layer by layer, as a round stacks its clients' drifts
    stacked = a.map(lambda *layer: np.stack(layer), b, c)
    assert_same_vec(
        stacked,
        ParamVec(
            [np.stack(layer) for layer in zip(a.weights, b.weights, c.weights)],
            [np.stack(layer) for layer in zip(a.biases, b.biases, c.biases)],
        ),
    )
    assert_same_vec(stacked[1], b)


@pytest.mark.parametrize("order", ["C", "F"])
def test_param_vec_index_slices_every_leading_axis(order):
    vec = random_vec(np.random.default_rng(13), stack=4, order=order)
    for k in range(4):
        part = vec[k]
        assert_same_vec(part, ParamVec([w[k] for w in vec.weights], [b[k] for b in vec.biases]))
        # views into the stack, not copies
        for arr, src in zip(part.weights + part.biases, vec.weights + vec.biases):
            assert np.shares_memory(arr, src)
    one = vec[0]
    assert_same_vec(one[None], ParamVec([w[None] for w in one.weights], [b[None] for b in one.biases]))
    assert_same_vec(vec[1:3], ParamVec([w[1:3] for w in vec.weights], [b[1:3] for b in vec.biases]))


def test_zeros_like_params_matches_per_layer_zeros():
    model = init_model([3, 5, 2], "relu", seed=4)
    fortran = Model([np.asfortranarray(w) for w in model.weights], list(model.biases))
    for m in (model, fortran):
        zero = zeros_like_params(m)
        assert_same_vec(zero, ParamVec([np.zeros_like(w) for w in m.weights], [np.zeros_like(b) for b in m.biases]))
        for arr, src in zip(zero.weights + zero.biases, m.weights + m.biases):
            assert not np.shares_memory(arr, src)
