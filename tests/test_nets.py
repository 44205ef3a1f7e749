import numpy as np
import pytest

from macc.nets import Adam, Mlp, Sgd, _sigmoid, make_optimizer, param_count
from macc.numerics import RngStream


def small_net(out_act, seed=0, in_dim=3, hidden=(5, 4), out_dim=2):
    return Mlp(in_dim, hidden, out_dim, out_act, RngStream(seed))


def numeric_param_grads(net, x, loss, eps=1e-6):
    """Central differences of loss(net.forward(x)) in every parameter."""
    grads = []
    for arr in net.params():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            up = loss(net.forward(x))
            arr[idx] = keep - eps
            down = loss(net.forward(x))
            arr[idx] = keep
            g[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


class TestConstruction:
    def test_layer_shapes(self):
        net = Mlp(3, (64, 64, 64), 1, "sigmoid", RngStream(1))
        assert [w.shape for w in net.weights] == [(3, 64), (64, 64), (64, 64), (64, 1)]
        assert [b.shape for b in net.biases] == [(64,), (64,), (64,), (1,)]

    def test_init_within_fan_in_bounds(self):
        net = Mlp(16, (64,), 4, "linear", RngStream(2))
        for w, b, fan_in in zip(net.weights, net.biases, (16, 64)):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.abs(w).max() <= bound
            assert np.abs(b).max() <= bound
        # spread should actually use the range, not collapse near zero
        assert np.abs(net.weights[0]).max() > 0.5 / np.sqrt(16)

    def test_seeded_init_reproducible(self):
        a = small_net("sigmoid", seed=7)
        b = small_net("sigmoid", seed=7)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            Mlp(3, (4,), 1, "tanh", RngStream(0))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Mlp(3, (0,), 1, "linear", RngStream(0))


class TestFlatLayout:
    def test_params_are_views_in_order(self):
        net = small_net("linear", seed=23)
        assert net.flat.shape == (param_count(net.dims),) == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
        np.testing.assert_array_equal(net.flat, np.concatenate([q.ravel() for q in net.params()]))
        net.weights[1][2, 3] = 7.0
        net.biases[2][1] = -7.0
        assert net.flat[3 * 5 + 5 + 2 * 4 + 3] == 7.0
        assert net.flat[-1] == -7.0

    def test_from_params_takes_the_vector(self):
        net = small_net("sigmoid", seed=24)
        built = Mlp.from_params(net.dims, "sigmoid", [net.flat])
        np.testing.assert_array_equal(built.flat, net.flat)
        assert not np.shares_memory(built.flat, net.flat)
        with pytest.raises(ValueError, match=r"take 54 parameters, got 53"):
            Mlp.from_params(net.dims, "sigmoid", [net.flat[:-1]])


class TestStack:
    def test_shapes(self):
        stacked = Mlp.stack([small_net("sigmoid", seed=s) for s in range(3)])
        assert stacked.flat.shape == (3, 54)
        assert [w.shape for w in stacked.weights] == [(3, 3, 5), (3, 5, 4), (3, 4, 2)]
        assert stacked.forward(np.zeros((3, 6, 3))).shape == (3, 6, 2)

    def test_input_shape_checked(self):
        stacked = Mlp.stack([small_net("sigmoid", seed=s) for s in range(3)])
        with pytest.raises(ValueError, match=r"expected input of shape \(3, rows, 3\), got \(2, 1, 3\)"):
            stacked.forward(np.zeros((2, 1, 3)))
        with pytest.raises(ValueError, match=r"got \(3, 3\)"):
            stacked.forward(np.zeros((3, 3)))

    def test_copies_parameters(self):
        nets = [small_net("sigmoid", seed=s) for s in range(3)]
        stacked = Mlp.stack(nets)
        before = stacked.forward(np.ones((3, 1, 3)))
        nets[0].flat += 1.0
        np.testing.assert_array_equal(stacked.forward(np.ones((3, 1, 3))), before)

    def test_layers_must_match(self):
        with pytest.raises(ValueError, match=r"net 1 has layers \[3, 4, 2\] \(sigmoid\), net 0 has \[3, 5, 4, 2\]"):
            Mlp.stack([small_net("sigmoid"), small_net("sigmoid", hidden=(4,))])
        with pytest.raises(ValueError, match=r"net 1 has layers .* \(linear\)"):
            Mlp.stack([small_net("sigmoid"), small_net("linear")])


class TestForward:
    def test_sigmoid_output_in_unit_interval(self):
        net = small_net("sigmoid")
        x = RngStream(3).gen.normal(0, 5, (40, 3))
        y = net.forward(x)
        assert y.shape == (40, 2)
        assert np.all((y > 0) & (y < 1))

    def test_batch_matches_single(self):
        net = small_net("sigmoid")
        x = RngStream(4).gen.normal(0, 1, (6, 3))
        batch = net.forward(x)
        singles = np.vstack([net.forward(x[k:k + 1]) for k in range(6)])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_width_mismatch(self):
        net = small_net("linear")
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4)))

    def test_one_dim_input_rejected(self):
        net = small_net("linear")
        with pytest.raises(ValueError, match=r"expected input of shape \(rows, 3\)"):
            net.forward(np.zeros(3))

    def test_hand_computed_tiny_linear_net(self):
        net = Mlp(1, (1,), 1, "linear", RngStream(0))
        for arr, value in zip(net.params(), (2.0, -1.0, 3.0, 0.5)):
            arr[...] = value
        # relu(2x - 1) * 3 + 0.5
        assert net.forward(np.array([[2.0]]))[0, 0] == pytest.approx(9.5)
        assert net.forward(np.array([[0.0]]))[0, 0] == pytest.approx(0.5)

    @staticmethod
    def masked_sigmoid(z):
        """The two-branch form _sigmoid replaced: each branch on its own masked entries."""
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_stable_sigmoid_extremes(self):
        z = np.array([-1e3, 0.0, 1e3])
        s = _sigmoid(z)
        assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0
        # the masked two-branch form's bits, at the edges of exp's range and on random draws
        edges = [0.0, 5e-324, 36.0, 709.0, 745.0, np.inf]
        gen = RngStream(31).gen
        draws = [gen.normal(0.0, 10.0, 5 * 10**4), gen.uniform(-800.0, 800.0, 5 * 10**4)]
        z = np.concatenate([edges, np.negative(edges), *draws])
        assert np.signbit(z[len(edges)])  # -0.0 is among the inputs
        assert _sigmoid(z).tobytes() == self.masked_sigmoid(z).tobytes()
        # the policy's (networks, rows, 1) output takes the same path
        stacked = z[:120].reshape(4, 30, 1)
        assert _sigmoid(stacked).tobytes() == self.masked_sigmoid(stacked).tobytes()
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


class TestBackward:
    @pytest.mark.parametrize("out_act", ["linear", "sigmoid"])
    def test_param_grads_match_finite_differences(self, out_act):
        net = small_net(out_act, seed=11)
        x = RngStream(12).gen.normal(0, 1, (7, 3))
        target = RngStream(13).gen.normal(0, 1, (7, 2))

        def loss(y):
            return float(np.sum((y - target) ** 2))

        y, cache = net.forward_cache(x)
        analytic = net.backward(cache, 2.0 * (y - target))
        numeric = np.concatenate([g.ravel() for g in numeric_param_grads(net, x, loss)])
        assert analytic.shape == net.flat.shape
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("out_act", ["linear", "sigmoid"])
    def test_input_grad_matches_finite_differences(self, out_act):
        net = small_net(out_act, seed=14)
        x = RngStream(15).gen.normal(0, 1, (1, 3))
        w = np.array([[0.7, -1.3]])

        y, cache = net.forward_cache(x)
        grad_in = net.input_grad(cache, w)
        eps = 1e-6
        numeric = np.zeros((1, 3))
        for i in range(3):
            up = x.copy(); up[0, i] += eps
            down = x.copy(); down[0, i] -= eps
            numeric[0, i] = (np.sum(net.forward(up) * w) - np.sum(net.forward(down) * w)) / (2 * eps)
        np.testing.assert_allclose(grad_in, numeric, rtol=1e-4, atol=1e-8)

    def test_gradient_shape_mismatch(self):
        net = small_net("linear")
        _, cache = net.forward_cache(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            net.input_grad(cache, np.zeros((3, 2)))


class TestClone:
    def test_clone_is_equal_but_independent(self):
        net = small_net("sigmoid", seed=20)
        twin = net.clone()
        x = np.ones((1, 3))
        np.testing.assert_array_equal(net.forward(x), twin.forward(x))
        twin.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != twin.weights[0][0, 0]

    def test_from_params_copies_to_writable_float64(self):
        net = small_net("linear", seed=22)
        source = [q.astype(np.float32) for q in net.params()]
        for q in source:
            q.flags.writeable = False
        built = Mlp.from_params(net.dims, "linear", source)
        assert built.dims == net.dims and built.out_act == "linear"
        for b, q in zip(built.params(), source):
            assert b.dtype == np.float64 and b.flags.writeable
            np.testing.assert_array_equal(b, q)

    def test_from_params_checks_layers(self):
        with pytest.raises(ValueError, match="unknown output activation"):
            Mlp.from_params([3, 1], "tanh", [np.zeros((3, 1)), np.zeros(1)])
        with pytest.raises(ValueError, match="must be positive"):
            Mlp.from_params([3, 0, 1], "linear", [])


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        Sgd(p, lr=0.1).step(p, np.array([10.0, -10.0]))
        np.testing.assert_allclose(p, [0.0, 3.0])

    def test_adam_first_step_is_lr_sized(self):
        # bias correction makes the first update lr * sign(g) (up to eps)
        p = np.array([1.0, 1.0])
        Adam(p, lr=0.01).step(p, np.array([3.0, -0.5]))
        np.testing.assert_allclose(p, [1.0 - 0.01, 1.0 + 0.01], rtol=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = np.array([5.0])
        opt = Adam(p, lr=0.05)
        for _ in range(2000):
            opt.step(p, 2.0 * p)
        assert abs(p[0]) < 1e-3

    def test_adam_updates_in_place(self):
        net = small_net("linear", seed=21)
        opt = Adam(net.flat, lr=0.1)
        before = net.weights[0].copy()
        opt.step(net.flat, np.ones_like(net.flat))
        assert not np.array_equal(net.weights[0], before)

    def test_factory(self):
        p = np.zeros(2)
        assert isinstance(make_optimizer("adam", p, 0.1), Adam)
        assert isinstance(make_optimizer("sgd", p, 0.1), Sgd)
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", p, 0.1)
