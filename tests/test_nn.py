"""Tensor/NN engine tests: oracle equivalence, derivatives, training step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import nn


# ---------------------------------------------------------------------------
# independent naive oracles (written first, kept loop-based on purpose)
# ---------------------------------------------------------------------------

def conv_oracle(x, k, b):
    """Quadruple-loop valid cross-correlation; float64 sums rounded to float32."""
    h, w, c = x.shape
    ks, _, _, f = k.shape
    out = np.zeros((h - ks + 1, w - ks + 1, f), dtype=np.float64)
    for i in range(h - ks + 1):
        for j in range(w - ks + 1):
            for fo in range(f):
                s = 0.0
                for di in range(ks):
                    for dj in range(ks):
                        for ci in range(c):
                            s += float(x[i + di, j + dj, ci]) * float(k[di, dj, ci, fo])
                out[i, j, fo] = s + float(b[fo])
    return out.astype(np.float32)


def conv_backward_oracle(x, k, dout):
    """Loop-based conv gradients for a batch: (dK, db, dX), float64 sums rounded to float32.

    x is n x H x W x C, k is k x k x C x F and dout the n x Ho x Wo x F
    gradient of the conv output.
    """
    n, h, w, c = x.shape
    ks, _, _, f = k.shape
    ho, wo = h - ks + 1, w - ks + 1
    dk = np.zeros(k.shape, dtype=np.float64)
    db = np.zeros(f, dtype=np.float64)
    dx = np.zeros(x.shape, dtype=np.float64)
    for s in range(n):
        for i in range(ho):
            for j in range(wo):
                for fo in range(f):
                    g = float(dout[s, i, j, fo])
                    db[fo] += g
                    for di in range(ks):
                        for dj in range(ks):
                            for ci in range(c):
                                dk[di, dj, ci, fo] += float(x[s, i + di, j + dj, ci]) * g
                                dx[s, i + di, j + dj, ci] += float(k[di, dj, ci, fo]) * g
    return dk.astype(np.float32), db.astype(np.float32), dx.astype(np.float32)


def dense_oracle(x, w, b):
    n, m = w.shape
    out = np.zeros(m, dtype=np.float64)
    for j in range(m):
        s = 0.0
        for i in range(n):
            s += float(x[i]) * float(w[i, j])
        out[j] = s + float(b[j])
    return out.astype(np.float32)


def maxpool_oracle(x):
    h, w, c = x.shape
    he, we = h // 2, w // 2
    out = np.zeros((he, we, c), dtype=x.dtype)
    for i in range(he):
        for j in range(we):
            for ci in range(c):
                out[i, j, ci] = x[2 * i:2 * i + 2, 2 * j:2 * j + 2, ci].max()
    return out


def sorted_median(values):
    s = sorted(values)
    return s[len(s) // 2]


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

class TestSigmoid:
    def test_zero_is_half(self):
        assert nn.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_logistic_symmetry_1000_points(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-30, 30, size=1000).astype(np.float32)
        np.testing.assert_allclose(nn.sigmoid(x), 1.0 - nn.sigmoid(-x), atol=1e-7)

    def test_scalar_matches_direct_evaluation(self):
        expected = 1.0 / (1.0 + np.exp(-2.0))
        assert nn.sigmoid(np.array([2.0]))[0] == pytest.approx(expected, abs=1e-12)

    def test_extreme_inputs_do_not_overflow(self):
        out = nn.sigmoid(np.array([-500.0, 500.0], dtype=np.float32))
        assert out[0] == 0.0 and out[1] == 1.0   # clamped to the asymptotes
        assert np.all(np.isfinite(nn.sigmoid(np.array([-500.0, 500.0]))))

    @given(st.floats(min_value=-30, max_value=30))
    def test_derivative_identity(self, x):
        s = 1.0 / (1.0 + np.exp(-x))
        got = nn.sigmoid_derivative(nn.sigmoid(np.float64(x)))
        assert abs(got - s * (1.0 - s)) < 1e-12

    def test_derivative_at_half_is_quarter(self):
        assert nn.sigmoid_derivative(np.array([0.5]))[0] == pytest.approx(0.25)

    def test_derivative_saturates(self):
        d = nn.sigmoid_derivative(np.array([1e-9, 1.0 - 1e-9]))
        assert np.all(d < 1e-8)


# ---------------------------------------------------------------------------
# layer forwards vs oracles
# ---------------------------------------------------------------------------

class TestConv:
    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        k = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        np.testing.assert_array_equal(nn.conv2d_forward(x, k, b), x)

    def test_output_shape_valid_padding(self):
        x = np.zeros((4, 4, 1), dtype=np.float32)
        k = np.zeros((3, 3, 1, 5), dtype=np.float32)
        out = nn.conv2d_forward(x, k, np.zeros(5, dtype=np.float32))
        assert out.shape == (2, 2, 5)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.random((6, 6, 2)).astype(np.float32)
        k = rng.uniform(-0.5, 0.5, (3, 3, 2, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, 4).astype(np.float32)
        np.testing.assert_allclose(nn.conv2d_forward(x, k, b),
                                   conv_oracle(x, k, b), atol=1e-6)

    def test_100_random_shapes_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h, w = rng.integers(3, 9, size=2)
            c = int(rng.integers(1, 4))
            ks = int(rng.integers(1, min(h, w) + 1))
            f = int(rng.integers(1, 5))
            x = rng.random((h, w, c)).astype(np.float32)
            k = rng.uniform(-0.5, 0.5, (ks, ks, c, f)).astype(np.float32)
            b = rng.uniform(-1, 1, f).astype(np.float32)
            np.testing.assert_allclose(nn.conv2d_forward(x, k, b),
                                       conv_oracle(x, k, b), atol=1e-6)

    def test_backward_60_random_shapes_match_oracle(self):
        """Kernel, bias and input gradients of a conv layer against loops.

        The conv under test sits at layer 1, behind a 1x1 conv probe whose
        input one-hot-encodes (sample, row, column) in its channels: the
        probe's kernel gradient is then exactly the tested layer's input
        gradient, so the comparison goes through `_backward_batch` alone.
        """
        rng = np.random.default_rng(17)
        seen = set()
        for trial in range(60):
            n = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(3, 9, size=2))
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 5))
            # every fourth shape has k=1 and the one after it k=min(h, w)
            ks = (1, min(h, w), int(rng.integers(1, min(h, w) + 1)))[min(trial % 4, 2)]
            seen.update(name for name, hit in (("k=1", ks == 1), ("k=min", ks == min(h, w)),
                                               ("c>1", c > 1), ("f>1", f > 1)) if hit)
            x = rng.random((n, h, w, c)).astype(np.float32)
            k = rng.uniform(-0.5, 0.5, (ks, ks, c, f)).astype(np.float32)
            b = rng.uniform(-1, 1, f).astype(np.float32)
            dout = rng.uniform(-1, 1, (n, h - ks + 1, w - ks + 1, f)).astype(np.float32)
            probe = np.eye(n * h * w, dtype=np.float32).reshape(n, h, w, n * h * w)
            model = nn.CnnModel(
                input_side=h, channels=n * h * w,
                layers=[nn.LayerSpec("conv", kernel_size=1, filters=c),
                        nn.LayerSpec("conv", kernel_size=ks, filters=f)],
                params=[{"k": np.zeros((1, 1, n * h * w, c), dtype=np.float32),
                         "b": np.zeros(c, dtype=np.float32)},
                        {"k": k, "b": b}],
                seed=0)
            grads = nn._backward_batch(model, [("conv", probe), ("conv", x)], dout)
            dk, db, dx = conv_backward_oracle(x, k, dout)
            got_dx = grads[0]["k"][0, 0].reshape(n, h, w, c)
            for got, want in ((grads[1]["k"], dk), (grads[1]["b"], db), (got_dx, dx)):
                assert got.dtype == np.float32
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        assert seen == {"k=1", "k=min", "c>1", "f>1"}

    def test_shape_mismatch_names_both_shapes(self):
        x = np.zeros((4, 4, 2), dtype=np.float32)
        k = np.zeros((3, 3, 1, 5), dtype=np.float32)
        with pytest.raises(nn.ShapeMismatchError) as exc:
            nn.conv2d_forward(x, k, np.zeros(5, dtype=np.float32))
        assert "(3, 3, 1, 5)" in str(exc.value) and "(4, 4, 2)" in str(exc.value)


class TestMaxpool:
    def test_constant_input_first_index_wins(self):
        x = np.full((4, 4, 1), 3.0, dtype=np.float32)
        out, mask = nn.maxpool2_forward(x)
        assert np.all(out == 3.0)
        assert np.all(mask == 0)

    def test_ramp_by_hand(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(4, 4, 1)
        out, _ = nn.maxpool2_forward(x)
        np.testing.assert_array_equal(out[:, :, 0], [[6, 8], [14, 16]])

    def test_odd_row_col_dropped(self):
        x = np.random.default_rng(1).random((5, 5, 2)).astype(np.float32)
        out, _ = nn.maxpool2_forward(x)
        assert out.shape == (2, 2, 2)

    def test_100_random_shapes_match_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h, w = rng.integers(2, 11, size=2)
            c = int(rng.integers(1, 4))
            x = rng.random((h, w, c)).astype(np.float32)
            out, _ = nn.maxpool2_forward(x)
            np.testing.assert_allclose(out, maxpool_oracle(x), atol=1e-6)

    def test_too_small_plane_rejected(self):
        with pytest.raises(nn.ShapeMismatchError):
            nn.maxpool2_forward(np.zeros((1, 4, 1), dtype=np.float32))


class TestDense:
    def test_identity_weights(self):
        x = np.arange(5, dtype=np.float32)
        out = nn.dense_forward(x, np.eye(5, dtype=np.float32),
                               np.zeros(5, dtype=np.float32))
        np.testing.assert_array_equal(out, x)

    def test_zero_input_gives_bias(self):
        b = np.array([1, -2, 3], dtype=np.float32)
        out = nn.dense_forward(np.zeros(4, dtype=np.float32),
                               np.zeros((4, 3), dtype=np.float32), b)
        np.testing.assert_array_equal(out, b)

    def test_random_10_to_7_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.random(10).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, (10, 7)).astype(np.float32)
        b = rng.uniform(-1, 1, 7).astype(np.float32)
        np.testing.assert_allclose(nn.dense_forward(x, w, b),
                                   dense_oracle(x, w, b), atol=1e-6)

    def test_100_random_shapes_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n, m = rng.integers(1, 20, size=2)
            x = rng.random(n).astype(np.float32)
            w = rng.uniform(-0.5, 0.5, (n, m)).astype(np.float32)
            b = rng.uniform(-1, 1, m).astype(np.float32)
            np.testing.assert_allclose(nn.dense_forward(x, w, b),
                                       dense_oracle(x, w, b), atol=1e-6)

    def test_width_mismatch(self):
        with pytest.raises(nn.ShapeMismatchError):
            nn.dense_forward(np.zeros(4, dtype=np.float32),
                             np.zeros((5, 3), dtype=np.float32),
                             np.zeros(3, dtype=np.float32))


class TestSoftmaxCrossEntropy:
    def test_uniform_case_k7(self):
        probs, loss, _ = nn.softmax_cross_entropy(np.zeros(7, dtype=np.float32), 3)
        np.testing.assert_allclose(probs, np.full(7, 1 / 7), atol=1e-7)
        assert loss == pytest.approx(np.log(7), rel=1e-6)

    def test_huge_logit_no_overflow(self):
        probs, _, _ = nn.softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert probs[0] == pytest.approx(1.0) and np.all(np.isfinite(probs))

    def test_dlogits_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal(7)
        label = 2
        _, _, d = nn.softmax_cross_entropy(logits, label)
        eps = 1e-3
        for i in range(7):
            lp = logits.copy(); lp[i] += eps
            lm = logits.copy(); lm[i] -= eps
            numeric = (nn.softmax_cross_entropy(lp, label)[1]
                       - nn.softmax_cross_entropy(lm, label)[1]) / (2 * eps)
            assert abs(d[i] - numeric) < 1e-4

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            nn.softmax_cross_entropy(np.zeros(7), 7)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=9))
    def test_probs_sum_to_one_and_bounded(self, logits):
        probs, _, _ = nn.softmax_cross_entropy(np.array(logits, dtype=np.float64), 0)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0) and np.all(probs <= 1)


# ---------------------------------------------------------------------------
# model forward / training / gradient check
# ---------------------------------------------------------------------------

def tiny_fixture_model(seed=3):
    return nn.build_model(8, [
        nn.LayerSpec("conv", kernel_size=3, filters=2),
        nn.LayerSpec("sigmoid"),
        nn.LayerSpec("maxpool"),
        nn.LayerSpec("dense", width=7),
        nn.LayerSpec("softmax"),
    ], seed=seed)


def two_conv_fixture_model(seed):
    """Two convs, so the second one's input gradient feeds the first's kernel gradient."""
    return nn.build_model(10, [
        nn.LayerSpec("conv", kernel_size=3, filters=2),
        nn.LayerSpec("sigmoid"),
        nn.LayerSpec("conv", kernel_size=3, filters=3),
        nn.LayerSpec("sigmoid"),
        nn.LayerSpec("maxpool"),
        nn.LayerSpec("dense", width=7),
        nn.LayerSpec("softmax"),
    ], seed=seed)


def zero_weight_model(side=8):
    m = tiny_fixture_model()
    for p in m.params:
        for key in p:
            p[key] = np.zeros_like(p[key])
    return m


class TestModel:
    def test_zero_weights_uniform_scores(self):
        probs = nn.model_forward(zero_weight_model(), np.zeros((8, 8), dtype=np.float32))
        np.testing.assert_allclose(probs, np.full(7, 1 / 7), atol=1e-7)

    def test_forward_deterministic(self):
        m = tiny_fixture_model()
        x = np.random.default_rng(1).random((8, 8)).astype(np.float32)
        a = nn.model_forward(m, x)
        b = nn.model_forward(m, x)
        np.testing.assert_array_equal(a, b)

    def test_scores_sum_to_one(self):
        m = tiny_fixture_model()
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = nn.model_forward(m, rng.random((8, 8)).astype(np.float32))
            assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_input_shape_mismatch(self):
        with pytest.raises(nn.ShapeMismatchError):
            nn.model_forward(tiny_fixture_model(), np.zeros((9, 9), dtype=np.float32))

    def test_build_rejects_inconsistent_stack(self):
        with pytest.raises(nn.ShapeMismatchError):
            nn.build_model(4, [nn.LayerSpec("conv", kernel_size=5, filters=2)], seed=0)

    def test_lr_zero_leaves_parameters(self):
        m = tiny_fixture_model()
        before = [p[key].copy() for p in m.params for key in sorted(p)]
        x = np.random.default_rng(4).random((2, 8, 8)).astype(np.float32)
        nn.model_backward_and_step(m, x, np.array([1, 2]), learning_rate=0.0)
        after = [p[key] for p in m.params for key in sorted(p)]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_repeated_steps_decrease_loss(self):
        m = tiny_fixture_model(seed=5)
        x = np.random.default_rng(6).random((1, 8, 8)).astype(np.float32)
        y = np.array([4])
        losses = [nn.model_backward_and_step(m, x, y, 1e-2) for _ in range(50)]
        assert all(b <= a + 1e-7 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


class TestGradientCheck:
    def test_tiny_fixture_passes(self):
        m = tiny_fixture_model()
        x = np.random.default_rng(7).random((8, 8)).astype(np.float32)
        report = nn.gradient_check(m, (x, 3), epsilon=1e-3)
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_conv_fixture_passes(self, seed):
        m = two_conv_fixture_model(seed)
        x = np.random.default_rng(seed).random((10, 10)).astype(np.float32)
        report = nn.gradient_check(m, (x, seed + 1), epsilon=1e-3)
        assert report.max_relative_error < 1e-4

    def test_corrupted_dense_gradient_detected(self):
        m = tiny_fixture_model()
        x = np.random.default_rng(8).random((8, 8)).astype(np.float32)
        # corrupt the backward path via a monkeyed analytic gradient
        real_backward = nn._backward_batch

        def corrupted(model, caches, dlogits):
            grads = real_backward(model, caches, dlogits)
            for g in grads:
                if "w" in g:
                    g["w"] = g["w"] * 3.0 + 0.5
            return grads

        nn._backward_batch = corrupted
        try:
            report = nn.gradient_check(m, (x, 3), epsilon=1e-3)
        finally:
            nn._backward_batch = real_backward
        assert report.max_relative_error > 1e-1

    def test_zero_model_zero_input_bias_path(self):
        m = zero_weight_model()
        report = nn.gradient_check(m, (np.zeros((8, 8), dtype=np.float32), 0),
                                   epsilon=1e-3)
        assert report.max_relative_error < 1e-4

    def test_epsilon_bounds_enforced(self):
        m = tiny_fixture_model()
        with pytest.raises(ValueError):
            nn.gradient_check(m, (np.zeros((8, 8), dtype=np.float32), 0), 1e-6)


@pytest.mark.parametrize("n", [1, 3], ids=lambda n: f"n={n}")
def test_sgd_step_descends_the_batch_mean_loss(n):
    """An lr=1 step moves each parameter by minus the central difference of
    the mean of -log p(y_i | x_i) over the batch, computed from model_forward
    alone, so a wrong scale on the step's loss gradient shows."""
    m = two_conv_fixture_model(0)
    for p in m.params:
        for key in p:
            p[key] = p[key].astype(np.float64)
    rng = np.random.default_rng(n)
    x = rng.random((n, 10, 10)).astype(np.float32)
    y = rng.integers(0, 7, n)

    def mean_loss():
        return np.mean([-np.log(nn.model_forward(m, x[i])[y[i]]) for i in range(n)])

    eps = 1e-5
    before, numeric = [], []
    for arr in m.param_arrays():
        before.append(arr.copy())
        flat = arr.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = mean_loss()
            flat[i] = orig - eps
            lm = mean_loss()
            flat[i] = orig
            g[i] = (lp - lm) / (2 * eps)
        numeric.append(g.reshape(arr.shape))
    nn.model_backward_and_step(m, x, y, learning_rate=1.0)
    for old, new, g in zip(before, m.param_arrays(), numeric):
        np.testing.assert_allclose(old - new, g, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------------
# bit-exact contracts of the rewritten kernels
# ---------------------------------------------------------------------------

def maxpool_winner_oracle(x, dout):
    """Loop-based pool: each window's first max (row-major), or its first NaN as
    with argmax, gives the output (its own bits) and takes the gradient."""
    n, h, w, c = x.shape
    out = np.zeros(dout.shape, dtype=x.dtype)
    mask = np.zeros(dout.shape, dtype=np.intp)
    dx = np.zeros_like(x)
    for s in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ci in range(c):
                    win = [x[s, 2 * i + q // 2, 2 * j + q % 2, ci] for q in range(4)]
                    nans = [q for q in range(4) if np.isnan(win[q])]
                    q = nans[0] if nans else win.index(max(win))
                    out[s, i, j, ci] = win[q]
                    mask[s, i, j, ci] = q
                    dx[s, 2 * i + q // 2, 2 * j + q % 2, ci] = dout[s, i, j, ci]
    return out, mask, dx


class TestMaxpoolBackward:
    def test_200_random_shapes_with_ties_and_nans_match_oracle(self):
        rng = np.random.default_rng(21)
        for t in range(200):
            n = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(2, 12, size=2))
            c = int(rng.integers(1, 5))
            dtype = (np.float32, np.float64)[t % 2]
            # few distinct integer values, so most windows hold a tie; zeros of
            # both signs tie too, and every fourth map holds a NaN or two
            x = rng.integers(-2, 3, size=(n, h, w, c)).astype(dtype)
            x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
            if t % 4 == 3:
                x[rng.random(x.shape) < 0.05] = np.nan
            out, mask = nn._maxpool_batch(x)
            dout = rng.standard_normal(out.shape).astype(dtype)
            want_out, want_mask, want_dx = maxpool_winner_oracle(x, dout)
            assert out.tobytes() == want_out.tobytes()
            assert mask.dtype == np.intp
            np.testing.assert_array_equal(mask, want_mask)
            dx = nn._maxpool_backward(dout, mask, x.shape)
            assert dx.dtype == dtype and dx.shape == x.shape
            assert dx.tobytes() == want_dx.tobytes()
            # an odd trailing row or column is in no window
            assert not np.any(dx[:, 2 * (h // 2):]) and not np.any(dx[:, :, 2 * (w // 2):])


def two_branch_sigmoid(x):
    z = np.exp(np.where(x >= 0, -x, x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


class TestSigmoidBitExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_branch_formula_byte_for_byte(self, dtype):
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30,
                   100.5, -100.5, 150.0, -150.0, 800.0, -800.0, 1e30, -1e30]
        x = np.concatenate([rng.standard_normal(4000) * scale
                            for scale in (0.01, 1.0, 10.0, 200.0)] + [special]).astype(dtype)
        got = nn.sigmoid(x)
        want = two_branch_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        for v in x[-len(special):]:
            assert np.asarray(nn.sigmoid(v)).tobytes() == np.asarray(two_branch_sigmoid(v)).tobytes()


def pool_outputs(monkeypatch, model, xb, keep_cache):
    """Logits of one forward pass and the output of each of its max-pools."""
    name = "_maxpool_batch" if keep_cache else "_maxpool_values"
    real, seen = getattr(nn, name), []

    def spy(x):
        out = real(x)
        seen.append(out[0] if keep_cache else out)
        return out

    with monkeypatch.context() as m:
        m.setattr(nn, name, spy)
        out = nn._forward_batch(model, xb, keep_cache=keep_cache)
    return (out[0] if keep_cache else out), seen


class TestInferenceForward:
    """predict_proba pools without the winner mask; its bits must not move."""

    STACKS = [
        [nn.LayerSpec("conv", kernel_size=3, filters=4), nn.LayerSpec("maxpool"),
         nn.LayerSpec("dense", width=7), nn.LayerSpec("softmax")],
        [nn.LayerSpec("maxpool"), nn.LayerSpec("conv", kernel_size=2, filters=3),
         nn.LayerSpec("maxpool"), nn.LayerSpec("dense", width=7), nn.LayerSpec("softmax")],
        nn.emotion_layer_stack(),
    ]

    @pytest.mark.parametrize("stack", range(len(STACKS)))
    def test_matches_training_forward_byte_for_byte(self, monkeypatch, stack):
        rng = np.random.default_rng(31 + stack)
        for seed in range(4):
            model = nn.build_model(12 if stack < 2 else 28, self.STACKS[stack], seed=seed)
            side = model.input_side
            for p in model.params:   # biases of either zero: conv outputs hold -0 and +0
                if "b" in p:
                    p["b"] = rng.choice(np.array([0.0, -0.0, 0.5], np.float32), p["b"].shape)
            x = rng.standard_normal((9, side, side)).astype(np.float32)
            x[rng.random(x.shape) < 0.3] = 0.0
            x[rng.random(x.shape) < 0.2] = -0.0
            x[:3, :side // 2] = 0.0                   # whole windows of zeros
            x[3:5, :, :side // 2] = -0.0
            x[5][rng.random((side, side)) < 0.02] = np.nan
            x[6, 0, :2] = -np.nan, np.nan           # NaNs of either sign in one window

            batched = model.predict_proba(x)
            for i in range(len(x)):
                assert batched[i].tobytes() == model.predict_proba(x[i])[0].tobytes()
            xb = x[..., None]
            logits, pools = pool_outputs(monkeypatch, model, xb, keep_cache=False)
            train_logits, train_pools = pool_outputs(monkeypatch, model, xb, keep_cache=True)
            assert batched.tobytes() == nn.softmax(train_logits).tobytes()
            assert logits.tobytes() == train_logits.tobytes()
            pool_layers = [spec.kind for spec in model.layers].count("maxpool")
            assert len(pools) == len(train_pools) == pool_layers
            for got, want in zip(pools, train_pools):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
