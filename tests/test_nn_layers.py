"""Layer forward/backward: frozen examples plus finite-difference checks."""
import numpy as np
import pytest

from ssfx.mask import ValidationError
from ssfx.nn import Conv1D, Conv2D, Dense, Flatten, LayerSpec, ReLU, Sequential, ShapeError
from ssfx.nn.layers import KERNEL, PADDING

from oracles import max_rel_err, naive_conv, numeric_grad


def scalar_objective(layer, x, probe):
    """sum(forward(x) * probe): a scalar whose input gradient is backward(probe)."""
    return float((layer.forward(x) * probe).sum())


class TestConv2DForward:
    def test_ones_kernel_counts_neighbourhood(self):
        # 3x3 ones input, 3x3 ones kernel, pad 1: corners see 4 cells,
        # edges 6, the center all 9.
        conv = Conv2D(1, 1)
        conv.weight.data[:] = 1.0
        out = conv.forward(np.ones((1, 1, 3, 3)))[0, 0]
        np.testing.assert_array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_output_keeps_spatial_size(self):
        for h, w in [(7, 5), (1, 1), (1, 6), (9, 2)]:
            conv = Conv2D(2, 3)
            out = conv.forward(np.zeros((1, 2, h, w)))
            assert out.shape == (1, 3, h, w)

    def test_bias_added_per_channel(self):
        conv = Conv2D(1, 2)
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = [1.5, -2.0]
        out = conv.forward(np.zeros((1, 1, 2, 2)))
        assert (out[0, 0] == 1.5).all() and (out[0, 1] == -2.0).all()

    def test_channel_mismatch_rejected(self):
        conv = Conv2D(3, 4)
        with pytest.raises(ShapeError, match="3 input channels"):
            conv.forward(np.zeros((1, 2, 4, 4)))


class TestConv1DForward:
    def test_ones_kernel_on_ones_input(self):
        conv = Conv1D(1, 1)
        conv.weight.data[:] = 1.0
        out = conv.forward(np.ones((1, 1, 5)))[0, 0]
        np.testing.assert_array_equal(out, [2, 3, 3, 3, 2])


class TestDenseForward:
    def test_affine_example(self):
        d = Dense(2, 2)
        d.weight.data[:] = [[1, 1], [1, -1]]
        d.bias.data[:] = [0, 1]
        out = d.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[3.0, 0.0]])

    def test_width_mismatch_rejected(self):
        d = Dense(4, 2)
        with pytest.raises(ShapeError, match="4 input features"):
            d.forward(np.zeros((1, 3)))


class TestReLU:
    def test_zero_input_has_zero_subgradient(self):
        r = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(r.forward(x), [[0.0, 0.0, 2.0]])
        g = r.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, [[0.0, 0.0, 1.0]])


class TestFlatten:
    def test_round_trip_is_c_order(self):
        f = Flatten()
        x = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)
        flat = f.forward(x)
        np.testing.assert_array_equal(flat[0], np.arange(24))
        back = f.backward(flat)
        assert back.shape == x.shape


# One small instance and input shape per layer kind, for the contract every
# layer shares: a forward cache that one backward consumes and release drops.
LAYER_KINDS = {
    "conv2d": (lambda: Conv2D(2, 3), (2, 2, 4, 3)),
    "conv1d": (lambda: Conv1D(2, 3), (2, 2, 5)),
    "dense": (lambda: Dense(4, 3), (2, 4)),
    "relu": (ReLU, (3, 4)),
    "flatten": (Flatten, (2, 3, 4)),
}


@pytest.mark.parametrize("kind", list(LAYER_KINDS))
def test_backward_before_forward_rejected(kind):
    make, in_shape = LAYER_KINDS[kind]
    layer = make()
    probe = np.zeros(make().forward(np.ones(in_shape)).shape)
    with pytest.raises(RuntimeError, match=f"{kind} backward called before forward"):
        layer.backward(probe)
    # One forward serves one backward.
    layer.forward(np.ones(in_shape))
    layer.backward(probe)
    with pytest.raises(RuntimeError, match="before forward"):
        layer.backward(probe)


@pytest.mark.parametrize("kind", list(LAYER_KINDS))
def test_release_leaves_no_forward_cache(kind):
    make, in_shape = LAYER_KINDS[kind]
    layer = make()
    out = layer.forward(np.ones(in_shape))
    assert layer._cache is not None
    layer.release()
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="before forward"):
        layer.backward(np.zeros(out.shape))


def random_conv2d_case(rng):
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    h = int(rng.integers(1, 8))
    w = int(rng.integers(1, 8))
    b = int(rng.integers(1, 3))
    layer = Conv2D(cin, cout, rng=rng)
    x = rng.standard_normal((b, cin, h, w))
    return layer, x


def random_conv1d_case(rng):
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    n = int(rng.integers(1, 11))
    b = int(rng.integers(1, 3))
    layer = Conv1D(cin, cout, rng=rng)
    x = rng.standard_normal((b, cin, n))
    return layer, x


def random_dense_case(rng):
    n_in = int(rng.integers(1, 10))
    n_out = int(rng.integers(1, 10))
    b = int(rng.integers(1, 4))
    layer = Dense(n_in, n_out, rng=rng)
    x = rng.standard_normal((b, n_in))
    return layer, x


def random_relu_case(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5))))
    return ReLU(), rng.standard_normal(shape) + 0.05  # keep clear of the kink


def check_layer_gradients(layer, x, rng):
    probe = rng.standard_normal(layer.forward(x.copy()).shape)

    layer.forward(x.copy())
    grad_in = layer.backward(probe)
    assert grad_in.shape == x.shape
    numeric_in = numeric_grad(lambda: scalar_objective(layer, x, probe), x)
    assert max_rel_err(grad_in, numeric_in) < 1e-4

    for name, _ in layer.params():
        layer.forward(x.copy())
        layer.backward(probe)
        tensor = dict(layer.params())[name]
        analytic = tensor.grad.copy()
        numeric = numeric_grad(lambda: scalar_objective(layer, x.copy(), probe), tensor.data)
        assert max_rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("case", [random_conv2d_case, random_conv1d_case,
                                  random_dense_case, random_relu_case],
                         ids=["conv2d", "conv1d", "dense", "relu"])
def test_gradients_match_finite_differences_on_random_shapes(case):
    rng = np.random.default_rng(hash(case.__name__) % 2**32)
    for _ in range(20):
        layer, x = case(rng)
        check_layer_gradients(layer, x, rng)


@pytest.mark.parametrize("case,seed", [(random_conv2d_case, 11), (random_conv1d_case, 12)],
                         ids=["conv2d", "conv1d"])
def test_conv_matches_loop_oracle_on_random_shapes(case, seed):
    # Only the summation order differs from the oracle: f64 rounding over
    # at most C*k*k = 27 terms per output, B*Ho*Wo per weight gradient.
    rng = np.random.default_rng(seed)
    for _ in range(20):
        layer, x = case(rng)
        s = layer.spec
        w4 = layer.weight.data.reshape(s.out_channels, s.in_channels, -1, KERNEL)
        pad_h = PADDING if layer.weight.data.ndim == 4 else 0
        x4 = x if x.ndim == 4 else x[:, :, None, :]
        layer.bias.data[:] = rng.standard_normal(s.out_channels)
        out = layer.forward(x.copy())
        want = naive_conv(x4, w4, layer.bias.data, pad_h, PADDING)
        np.testing.assert_allclose(out, want.reshape(out.shape), rtol=1e-12, atol=1e-12)

        probe = rng.standard_normal(out.shape)
        grad_x = layer.backward(probe.copy())
        want_x, want_w, want_b = naive_conv(x4, w4, layer.bias.data, pad_h, PADDING,
                                            probe.reshape(want.shape))
        np.testing.assert_allclose(grad_x, want_x.reshape(x.shape), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, want_w.reshape(layer.weight.shape),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, want_b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make", [lambda rng: Dense(6, 5, rng=rng),
                                  lambda rng: Conv2D(2, 3, rng=rng),
                                  lambda rng: Conv1D(2, 3, rng=rng)],
                         ids=["dense", "conv2d", "conv1d"])
def test_reused_buffers_carry_no_stale_state(make):
    """After a backward, one more overwrites the gradient arrays in place with
    exactly a fresh layer's gradient for its own input: for the same batch
    size, a smaller one that uses part of the conv workspace and a larger one
    that outgrows it."""
    rng = np.random.default_rng(7)
    in_shape = {"fully_connected": (4, 6), "conv2d": (4, 2, 5, 4), "conv1d": (4, 2, 6)}
    x0 = rng.standard_normal(in_shape[make(None).spec.kind])
    for x in (rng.standard_normal(x0.shape), rng.standard_normal(x0.shape)[:2],
              rng.standard_normal((7, *x0.shape[1:]))):
        layer = make(np.random.default_rng(7))
        probe0 = rng.standard_normal(layer.forward(x0).shape)
        layer.backward(probe0)
        arrays = [t.grad for _, t in layer.params()]
        probe = rng.standard_normal(layer.forward(x).shape)
        layer.backward(probe)
        fresh = make(np.random.default_rng(7))
        fresh.forward(x)
        fresh.backward(probe)
        for (_, t), (_, want), array in zip(layer.params(), fresh.params(), arrays):
            assert t.grad is array
            np.testing.assert_array_equal(t.grad, want.grad)
        layer.release()
        assert all(t.grad is None for _, t in layer.params())


@pytest.mark.parametrize("make,in_shape", [(lambda rng: Dense(6, 5, rng=rng), (4, 6)),
                                           (lambda rng: Conv2D(2, 3, rng=rng), (4, 2, 5, 4)),
                                           (lambda rng: Conv1D(2, 3, rng=rng), (4, 2, 6))],
                         ids=["dense", "conv2d", "conv1d"])
def test_no_input_gradient_keeps_parameter_gradients(make, in_shape):
    """With ``input_grad=False`` backward returns None and writes the same
    weight and bias gradients, bit for bit, as with the input gradient."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal(in_shape)
    layer = make(np.random.default_rng(5))
    probe = rng.standard_normal(layer.forward(x).shape)
    assert layer.backward(probe) is not None
    want = [t.grad.copy() for _, t in layer.params()]
    layer.forward(x)
    assert layer.backward(probe, input_grad=False) is None
    for (name, t), grad in zip(layer.params(), want):
        np.testing.assert_array_equal(t.grad, grad, err_msg=name)


class TestLayerSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown layer kind"):
            LayerSpec("pool")


class TestSequential:
    def test_parameter_names_are_qualified(self):
        seq = Sequential([("fc1", Dense(2, 2)), ("fc2", Dense(2, 2))])
        assert [n for n, _ in seq.params()] == ["fc1.weight", "fc1.bias",
                                                "fc2.weight", "fc2.bias"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate layer names"):
            Sequential([("fc", Dense(2, 2)), ("fc", Dense(2, 2))])
