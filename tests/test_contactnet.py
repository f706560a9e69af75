import struct

import numpy as np
import pytest

from proprio.contactnet import network as net
from proprio.contactnet import (
    ArchitectureSpec,
    Conv,
    Dense,
    Dropout,
    Flatten,
    Pool,
    Relu,
    ShapeMismatchError,
    cast_params,
    forward,
    init_params,
    load_params,
    loss,
    predict_batch,
    preset,
    save_params,
    trace_shapes,
)
from proprio.contactnet.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from proprio.dataio import codes_to_bool, normalize_window


def tiny_spec(dropout=0.2):
    return ArchitectureSpec(
        (
            Conv(3, 4), Relu(), Conv(4, 8), Relu(), Dropout(dropout), Pool(2),
            Flatten(), Dense(8 * 4, 16), Relu(), Dropout(dropout),
            Dense(16, 8), Relu(), Dense(8, 4),
        ),
        window=8,
        in_channels=3,
        n_classes=4,
    )


class TestShapes:
    def test_table_trace_w150(self):
        spec = preset("2blocks", window=150, in_channels=54, n_classes=16)
        shapes = trace_shapes(spec)
        assert shapes[0] == (54, 150)
        # conv/relu keep (64, 150); first pool halves; second block at 75
        assert (64, 150) in shapes and (64, 75) in shapes
        assert (128, 75) in shapes and (128, 37) in shapes
        assert (4736,) in shapes  # 128 * 37 flattened
        assert (2048,) in shapes and (512,) in shapes
        assert shapes[-1] == (16,)

    def test_all_presets_build(self):
        for name in net.PRESET_NAMES:
            spec = preset(name, window=48, in_channels=54, n_classes=16)
            assert trace_shapes(spec)[-1] == (16,)

    def test_biped_configuration(self):
        spec = preset("2blocks", window=600, in_channels=54, n_classes=4)
        shapes = trace_shapes(spec)
        assert (128, 150) in shapes and (19200,) in shapes
        assert shapes[-1] == (4,)

    def test_incompatible_dense(self):
        spec = ArchitectureSpec(
            (Flatten(), Dense(10, 4)), window=8, in_channels=3, n_classes=4
        )
        with pytest.raises(ShapeMismatchError):
            trace_shapes(spec)

    @pytest.mark.parametrize(
        "layers",
        [
            (Conv(3, 4, 2), Flatten(), Dense(4 * 8, 4)),  # even kernel: T - 1 outputs
            (Conv(3, 4, 0), Flatten(), Dense(4 * 8, 4)),
            (Dropout(1.0), Flatten(), Dense(3 * 8, 4)),
            (Dropout(-0.1), Flatten(), Dense(3 * 8, 4)),
            (Pool(0), Flatten(), Dense(3 * 8, 4)),
        ],
        ids=["even-kernel", "zero-kernel", "dropout-one", "dropout-negative", "pool-zero"],
    )
    def test_layer_rules_rejected(self, layers):
        with pytest.raises(ShapeMismatchError):
            trace_shapes(ArchitectureSpec(layers, window=8, in_channels=3, n_classes=4))

    def test_preset_rejects_dropout_one(self):
        with pytest.raises(ShapeMismatchError):
            preset("2blocks", window=16, in_channels=4, dropout=1.0)

    def test_wrong_window_shape(self):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            forward(params, spec, np.zeros((9, 3)))


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(0))
        params = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        logits = forward(params, spec, np.random.default_rng(1).normal(size=(8, 3)))
        assert np.array_equal(logits, np.zeros(4))

    def test_eval_deterministic(self):
        spec = tiny_spec()
        rng = np.random.default_rng(2)
        params = init_params(spec, rng)
        window = rng.normal(size=(8, 3))
        a = forward(params, spec, window, mode="eval")
        b = forward(params, spec, window, mode="eval")
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        spec = tiny_spec()
        rng = np.random.default_rng(3)
        params = init_params(spec, rng, dtype=np.float64)
        wins = rng.normal(size=(5, 8, 3))
        batched = forward(params, spec, wins)
        for i in range(5):
            np.testing.assert_allclose(batched[i], forward(params, spec, wins[i]), atol=1e-12)


def layerwise_forward(params, spec, x, mode="eval", rng=None):
    """Unblocked reference: each layer once over the whole batch, caches kept."""
    x = np.asarray(x, dtype=net.params_dtype(params))
    caches = []
    for layer, p in zip(spec.layers, params):
        x, cache = layer.forward(p, x, mode, rng)
        caches.append(cache)
    return x, caches


BLOCK = net.TRUNK_BLOCK


class TestBlockedForward:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 257])
    @pytest.mark.parametrize("name", net.PRESET_NAMES)
    def test_eval_bitwise_equals_layerwise(self, name, n):
        spec = preset(name)
        rng = np.random.default_rng(50)
        params = init_params(spec, rng)
        params = [None if p is None else (p[0], rng.normal(size=p[1].shape).astype(p[1].dtype)) for p in params]
        x = rng.normal(size=(n, spec.window, spec.in_channels))
        want, _ = layerwise_forward(params, spec, x)
        got = forward(params, spec, x)
        assert got.dtype == want.dtype == np.float32 and got.shape == (n, 16)
        assert got.tobytes() == want.tobytes()
        if n == 1:
            assert forward(params, spec, x[0]).tobytes() == want[0].tobytes()

    def test_float64_bitwise_equals_layerwise(self):
        spec = preset("2blocks", window=48)
        rng = np.random.default_rng(51)
        params = init_params(spec, rng, dtype=np.float64)
        x = rng.normal(size=(2 * BLOCK + 3, 48, 54))
        want, _ = layerwise_forward(params, spec, x)
        assert forward(params, spec, x).tobytes() == want.tobytes()

    def test_trunk_blocked_head_whole(self, monkeypatch):
        # the convs run once per block of windows, the Dense layers once on every row
        from proprio.contactnet import layers

        calls = []

        def counted(fn, real):
            def wrapped(x, w, b):
                calls.append((fn, len(x)))
                return real(x, w, b)

            return wrapped

        for fn in ("conv1d_forward", "dense_forward"):
            monkeypatch.setattr(layers, fn, counted(fn, getattr(layers, fn)))
        spec = preset("1block", window=48)
        params = init_params(spec, np.random.default_rng(52))
        n = 2 * BLOCK + 5
        forward(params, spec, np.random.default_rng(53).normal(size=(n, 48, 54)))
        convs = [rows for fn, rows in calls if fn == "conv1d_forward"]
        assert convs == [BLOCK, BLOCK, BLOCK, BLOCK, 5, 5]
        assert [rows for fn, rows in calls if fn == "dense_forward"] == [n, n, n]

    def test_train_loss_and_grads_unblocked(self):
        # dropout masks drawn for the whole batch in one pass, as before blocking
        from proprio.contactnet import layers

        spec = preset("1block", window=48, dropout=0.3)
        params = init_params(spec, np.random.default_rng(54), dtype=np.float64)
        data = np.random.default_rng(55)
        x = data.normal(size=(BLOCK + 9, 48, 54))
        labels = data.integers(0, 16, size=len(x))
        value, grads, logits = net.loss_and_grads(params, spec, x, labels, "train", np.random.default_rng(56))
        want_logits, caches = layerwise_forward(params, spec, x, "train", np.random.default_rng(56))
        want_value, dx = layers.cross_entropy(want_logits, labels)
        assert logits.tobytes() == want_logits.tobytes() and value == float(want_value)
        for i in range(len(spec.layers) - 1, -1, -1):
            dx, want = spec.layers[i].backward(params[i], dx, caches[i])
            assert (grads[i] is None) == (want is None)
            if want is not None:
                assert all(g.tobytes() == w.tobytes() for g, w in zip(grads[i], want))


class TestLoss:
    def test_uniform_16(self):
        assert abs(loss(np.zeros(16), 3) - np.log(16)) < 1e-9

    def test_saturated(self):
        logits = np.zeros(16)
        logits[5] = 1000.0
        assert loss(logits, 5) < 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=16)
        assert abs(loss(logits, 7) - loss(logits + 123.456, 7)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"label 16 outside \[0, 15\]"):
            loss(np.zeros(16), 16)

    def test_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=16)
            label = int(rng.integers(16))
            denom = mpmath.fsum([mpmath.exp(mpmath.mpf(x)) for x in logits])
            expected = -mpmath.log(mpmath.exp(mpmath.mpf(logits[label])) / denom)
            assert abs(loss(logits, label) - float(expected)) < 1e-12


def ref_conv(x, w, b):
    """Direct-loop same-padded correlation on (N, T, C) input, weight (O, C, k)."""
    n, t, c = x.shape
    o, _, k = w.shape
    pad = (k - 1) // 2
    out = np.empty((n, t, o))
    for ni in range(n):
        for ti in range(t):
            for oi in range(o):
                acc = b[oi]
                for ci in range(c):
                    for i in range(k):
                        s = ti + i - pad
                        if 0 <= s < t:
                            acc += w[oi, ci, i] * x[ni, s, ci]
                out[ni, ti, oi] = acc
    return out


def ref_scattered_conv(x, w, b):
    """Same-padded correlation through an (N*T, k*C) im2col whose taps are written as k
    shifted pieces with zero-filled edges: the layout the padded-row im2col replaced."""
    n, t, c = x.shape
    o, _, k = w.shape
    pad = (k - 1) // 2
    cols = np.empty((n, t, k, c), x.dtype)
    for i in range(k):
        s = i - pad
        lo, hi = (min(max(r, 0), t) for r in (-s, t - s))
        cols[:, :lo, i] = 0.0
        cols[:, hi:, i] = 0.0
        cols[:, lo:hi, i] = x[:, lo + s : hi + s]
    out = cols.reshape(n * t, k * c) @ w.transpose(2, 1, 0).reshape(k * c, o)
    out += b
    return out.reshape(n, t, o)


def ref_conv_backward(x, w, dout):
    """Direct-loop (dx, dw, db) of ref_conv."""
    n, t, c = x.shape
    o, _, k = w.shape
    pad = (k - 1) // 2
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for ni in range(n):
        for ti in range(t):
            for oi in range(o):
                for ci in range(c):
                    for i in range(k):
                        s = ti + i - pad
                        if 0 <= s < t:
                            dx[ni, s, ci] += dout[ni, ti, oi] * w[oi, ci, i]
                            dw[oi, ci, i] += dout[ni, ti, oi] * x[ni, s, ci]
    return dx, dw, dout.sum(axis=(0, 1))


def ref_maxpool(x, k, dout):
    """Direct-loop floor max pool along T and its backward; ties route to the first max."""
    n, t, c = x.shape
    out = np.empty((n, t // k, c))
    dx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for j in range(t // k):
                best = j * k
                for s in range(j * k + 1, j * k + k):
                    if x[ni, s, ci] > x[ni, best, ci]:
                        best = s
                out[ni, j, ci] = x[ni, best, ci]
                dx[ni, best, ci] = dout[ni, j, ci]
    return out, dx


def ref_flatten(x):
    """(N, T, C) -> (N, C*T) with index c*T + t, the weight-file order."""
    n, t, c = x.shape
    flat = np.empty((n, c * t))
    for ci in range(c):
        for ti in range(t):
            flat[:, ci * t + ti] = x[:, ti, ci]
    return flat


class TestLayerReference:
    @pytest.mark.parametrize("k", [3, 5])
    def test_conv_matches_loops(self, k):
        from proprio.contactnet import layers

        rng = np.random.default_rng(30 + k)
        x = rng.normal(size=(2, 7, 3))
        w = rng.normal(size=(4, 3, k))
        b = rng.normal(size=4)
        out, cache = layers.conv1d_forward(x, w, b)
        np.testing.assert_allclose(out, ref_conv(x, w, b), atol=1e-12, rtol=0)
        dout = rng.normal(size=out.shape)
        for got, want in zip(layers.conv1d_backward(dout, cache), ref_conv_backward(x, w, dout)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_maxpool_odd_length_and_tie(self):
        from proprio.contactnet import layers

        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, 7, 3))
        x[:, 3] = x[:, 2]  # every channel ties inside the second window
        out, cache = layers.maxpool1d_forward(x, 2)
        dout = rng.normal(size=out.shape)
        want_out, want_dx = ref_maxpool(x, 2, dout)
        np.testing.assert_allclose(out, want_out, atol=1e-12, rtol=0)
        dx = layers.maxpool1d_backward(dout, cache)
        np.testing.assert_allclose(dx, want_dx, atol=1e-12, rtol=0)
        assert not dx[:, 3].any() and not dx[:, 6].any()  # tie loser, floored tail

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_maxpool_backward_routes_to_the_first_nan(self, k):
        # as argmax does: a NaN beats every number, and the first of several NaNs wins
        from proprio.contactnet import layers

        rng = np.random.default_rng(34 + k)
        x = rng.integers(0, 3, size=(3, 4 * k + 1, 5)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = np.nan
        out, cache = layers.maxpool1d_forward(x, k)
        dout = rng.normal(size=out.shape).astype(np.float32)
        dx = layers.maxpool1d_backward(dout, cache)
        arg = x[:, : 4 * k].reshape(3, 4, k, 5).argmax(axis=2)
        want = np.zeros_like(x)
        for i in range(k):
            want[:, i : 4 * k : k] = dout * (arg == i)
        assert np.isnan(x).any() and dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, t", [(1, 6), (3, 7), (5, 9), (7, 2), (9, 3)])
    def test_conv_im2col_bitwise_equals_padded_copy(self, k, t):
        # the im2col rows of valid outputs equal a padded copy's k slices, so the GEMM sees the same bits
        from proprio.contactnet import layers

        rng = np.random.default_rng(35 + k)
        x = rng.normal(size=(3, t, 5)).astype(np.float32)
        w = rng.normal(size=(4, 5, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out, (cols, *_) = layers.conv1d_forward(x, w, b)
        pad = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        want_cols = np.concatenate([xp[:, i : i + t] for i in range(k)], axis=2).reshape(3 * t, k * 5)
        valid = (np.arange(3)[:, None] * (t + 2 * pad) + np.arange(t)).ravel()
        assert cols[valid].tobytes() == want_cols.tobytes()
        want = want_cols @ w.transpose(2, 1, 0).reshape(k * 5, 4) + b
        assert out.dtype == np.float32 and out.tobytes() == want.reshape(3, t, 4).tobytes()

    # (k, t, n, c, o): small cases with t < k, and two at network size. Each GEMM stays on one
    # side of the BLAS small-matrix switch (M*N*K near 1e6), where a different kernel may round
    # the same row differently, so both im2col layouts meet the same kernel.
    @pytest.mark.parametrize(
        "k, t, n, c, o",
        [(1, 4, 3, 5, 4), (3, 2, 3, 5, 4), (3, 7, 3, 5, 4), (5, 3, 3, 5, 4), (7, 2, 3, 5, 4),
         (9, 3, 3, 5, 4), (9, 1, 2, 5, 4), (3, 150, 4, 54, 64), (9, 150, 2, 54, 16)],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_bitwise_equals_scattered_im2col(self, k, t, n, c, o, dtype):
        from proprio.contactnet import layers

        rng = np.random.default_rng(60 + k + t)
        x = rng.normal(size=(n, t, c)).astype(dtype)
        w = rng.normal(size=(o, c, k)).astype(dtype)
        b = rng.normal(size=o).astype(dtype)
        out, _ = layers.conv1d_forward(x, w, b)
        assert out.dtype == dtype and out.tobytes() == ref_scattered_conv(x, w, b).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_nan_stays_in_its_window(self, k):
        # the padded rows between windows are zeros and rows that straddle two windows are
        # dropped, so a NaN reaches neither another window's output nor its dx
        from proprio.contactnet import layers

        rng = np.random.default_rng(70 + k)
        x = rng.normal(size=(4, 6, 5)).astype(np.float32)
        w = rng.normal(size=(3, 5, k)).astype(np.float32)
        x[1, 5, 2] = np.nan  # the last row of window 1, next to window 2's first
        x[2, 0, 0] = np.nan
        out, cache = layers.conv1d_forward(x, w, np.zeros(3, np.float32))
        assert np.isnan(out[1]).any() and np.isnan(out[2]).any()
        assert np.isfinite(out[[0, 3]]).all()
        dout = rng.normal(size=out.shape).astype(np.float32)
        dout[0, 5, 1] = np.nan
        dout[3, 0, 0] = np.nan
        dx, _, _ = layers.conv1d_backward(dout, cache)
        assert np.isnan(dx[0]).any() and np.isnan(dx[3]).any()
        assert np.isfinite(dx[[1, 2]]).all()

    @pytest.mark.parametrize("k, t", [(1, 5), (2, 7), (3, 11), (4, 4)])
    def test_maxpool_and_dense_bitwise_equal_reductions(self, k, t):
        from proprio.contactnet import layers

        rng = np.random.default_rng(40 + k)
        x = rng.normal(size=(2, t, 3)).astype(np.float32)
        out, _ = layers.maxpool1d_forward(x, k)
        want = x[:, : t // k * k].reshape(2, t // k, k, 3).max(axis=2)
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()
        flat = x.reshape(2, -1)
        w = rng.normal(size=(5, flat.shape[1])).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        assert layers.dense_forward(flat, w, b)[0].tobytes() == (flat @ w.T + b).tobytes()

    def test_flatten_is_channel_major(self):
        # Conv -> Flatten -> Dense against the loop references, forward and backward
        spec = ArchitectureSpec((Conv(3, 4, 5), Flatten(), Dense(4 * 7, 5)), window=7, in_channels=3, n_classes=5)
        rng = np.random.default_rng(34)
        params = init_params(spec, rng, dtype=np.float64)
        params[0] = (params[0][0], rng.normal(size=4))
        x = rng.normal(size=(2, 7, 3))
        labels = np.array([1, 4])
        (wc, bc), (wd, bd) = params[0], params[2]
        conv = ref_conv(x, wc, bc)
        flat = ref_flatten(conv)
        logits = flat @ wd.T + bd
        np.testing.assert_allclose(forward(params, spec, x), logits, atol=1e-12, rtol=0)

        _, grads, _ = net.loss_and_grads(params, spec, x, labels, "eval")
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        dlogits = (probs - np.eye(5)[labels]) / 2
        dflat = dlogits @ wd
        dconv = np.empty_like(conv)
        for ci in range(4):
            for ti in range(7):
                dconv[:, ti, ci] = dflat[:, ci * 7 + ti]
        _, dwc, dbc = ref_conv_backward(x, wc, dconv)
        np.testing.assert_allclose(grads[2][0], dlogits.T @ flat, atol=1e-12, rtol=0)
        np.testing.assert_allclose(grads[0][0], dwc, atol=1e-12, rtol=0)
        np.testing.assert_allclose(grads[0][1], dbc, atol=1e-12, rtol=0)


def relative_grad_error(spec, params, window, label, h=1e-5, seed=7):
    """Max relative error of analytic vs central-difference gradients."""

    def loss_at():
        value, _, _ = net.loss_and_grads(
            params, spec, window, [label], "train", np.random.default_rng(seed)
        )
        return value

    _, grads, _ = net.loss_and_grads(
        params, spec, window, [label], "train", np.random.default_rng(seed)
    )
    worst = 0.0
    for i, p in enumerate(params):
        if p is None:
            continue
        for j in range(2):
            arr = p[j]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                up = loss_at()
                arr[ix] = orig - h
                down = loss_at()
                arr[ix] = orig
                fd = (up - down) / (2 * h)
                g = grads[i][j][ix]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return worst


class TestGradients:
    def test_end_to_end_tiny(self):
        spec = tiny_spec()
        rng = np.random.default_rng(6)
        params = init_params(spec, rng, dtype=np.float64)
        window = rng.normal(size=(8, 3))
        assert relative_grad_error(spec, params, window, 2) < 1e-5

    @pytest.mark.parametrize(
        "layers,channels",
        [
            ((Conv(3, 5), Flatten(), Dense(5 * 8, 4)), 3),  # conv alone
            ((Pool(2), Flatten(), Dense(3 * 4, 4)), 3),  # pool alone
            ((Relu(), Flatten(), Dense(3 * 8, 4)), 3),  # relu alone
            ((Dropout(0.3), Flatten(), Dense(3 * 8, 4)), 3),  # dropout alone
            ((Flatten(), Dense(24, 6), Dense(6, 4)), 3),  # dense stack
        ],
    )
    def test_each_layer_type(self, layers, channels):
        spec = ArchitectureSpec(tuple(layers), window=8, in_channels=channels, n_classes=4)
        rng = np.random.default_rng(8)
        params = init_params(spec, rng, dtype=np.float64)
        window = rng.normal(size=(8, channels))
        assert relative_grad_error(spec, params, window, 1) < 1e-5

    def test_zero_input_zero_conv_weight_grad(self):
        spec = tiny_spec(dropout=0.0)
        rng = np.random.default_rng(9)
        params = init_params(spec, rng)
        _, grads, _ = net.loss_and_grads(params, spec, np.zeros((8, 3)), [0])
        assert np.array_equal(grads[0][0], np.zeros_like(grads[0][0]))

    def test_gradient_additivity(self):
        # mean-reduced batch gradient equals the average of single gradients
        spec = tiny_spec(dropout=0.0)
        rng = np.random.default_rng(10)
        params = init_params(spec, rng, dtype=np.float64)
        w1, w2 = rng.normal(size=(2, 8, 3))
        _, g_batch, _ = net.loss_and_grads(params, spec, np.stack([w1, w2]), [1, 3], "eval")
        _, g1, _ = net.loss_and_grads(params, spec, w1, [1], "eval")
        _, g2, _ = net.loss_and_grads(params, spec, w2, [3], "eval")
        for gb, ga, gc in zip(g_batch, g1, g2):
            if gb is None:
                continue
            for j in range(2):
                np.testing.assert_allclose(gb[j], (ga[j] + gc[j]) / 2.0, atol=1e-12)

    def test_duplicated_sample_scaling(self):
        # duplicating a window leaves the mean-reduced gradient unchanged,
        # i.e. the summed gradient doubles
        spec = tiny_spec(dropout=0.0)
        rng = np.random.default_rng(11)
        params = init_params(spec, rng, dtype=np.float64)
        w = rng.normal(size=(8, 3))
        _, g1, _ = net.loss_and_grads(params, spec, w, [2], "eval")
        _, g2, _ = net.loss_and_grads(params, spec, np.stack([w, w]), [2, 2], "eval")
        for a, b in zip(g1, g2):
            if a is None:
                continue
            np.testing.assert_allclose(a[0], b[0], atol=1e-12)


class TestDropout:
    def test_eval_identity(self):
        spec = tiny_spec(dropout=0.5)
        rng = np.random.default_rng(12)
        params = init_params(spec, rng)
        window = rng.normal(size=(8, 3))
        no_drop = tiny_spec(dropout=0.0)
        np.testing.assert_allclose(
            forward(params, spec, window, "eval"),
            forward(params, no_drop, window, "eval"),
            atol=0,
        )

    def test_inverted_scaling_mean(self):
        from proprio.contactnet.layers import dropout_forward

        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 16)) + 2.0
        total = np.zeros_like(x)
        n = 10_000
        for _ in range(n):
            y, _ = dropout_forward(x, 0.2, "train", rng)
            total += y
        np.testing.assert_allclose(total / n, x, rtol=0.02, atol=0.02)


class TestTraining:
    def _toy(self, n=200, w=16, channels=6, seed=14):
        # two linearly separable classes via a strong mean shift
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, w, channels))
        y = rng.integers(0, 2, size=n)
        x[y == 1, :, 0] += np.linspace(0, 6, w)  # time-structured shift
        x[y == 1, :, 1] -= 3.0
        from proprio.dataio import WindowSet

        feats = x.reshape(n * w, channels)
        ends = np.arange(n) * w + (w - 1)
        return WindowSet(feats, ends, y, w)

    def _spec(self, w=16, channels=6, classes=2):
        return ArchitectureSpec(
            (
                Conv(channels, 8), Relu(), Pool(2), Flatten(),
                Dense(8 * (w // 2), 16), Relu(), Dense(16, classes),
            ),
            window=w,
            in_channels=channels,
            n_classes=classes,
        )

    def test_separable_toy(self):
        from proprio.contactnet import TrainConfig, evaluate_accuracy, train

        windows = self._toy()
        spec = self._spec()
        cfg = TrainConfig(batch_size=20, learning_rate=3e-3, epochs=10, seed=0)
        params, log = train(windows, cfg, spec)
        assert log[-1]["train_acc"] >= 0.99
        assert evaluate_accuracy(params, spec, windows) >= 0.99

    def test_loss_decreases(self):
        from proprio.contactnet import TrainConfig, train

        windows = self._toy(seed=15)
        cfg = TrainConfig(batch_size=20, learning_rate=1e-3, epochs=3, seed=1)
        _, log = train(windows, cfg, self._spec())
        losses = [row["train_loss"] for row in log]
        assert all(np.isfinite(losses))
        assert losses[1] < losses[0] and losses[2] < losses[1]

    def test_seed_determinism(self):
        from proprio.contactnet import TrainConfig, train

        windows = self._toy(n=60, seed=16)
        cfg = TrainConfig(batch_size=15, learning_rate=1e-3, epochs=2, seed=42)
        p1, log1 = train(windows, cfg, self._spec())
        p2, log2 = train(windows, cfg, self._spec())
        assert log1 == log2
        for a, b in zip(p1, p2):
            if a is None:
                continue
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seeded_dropout_log_pinned(self):
        # Dropout after the conv (3-D mask) and in the head (2-D mask): the
        # log below was recorded with channel-major activations, so this
        # pins both the mask draw order and the arithmetic.
        from proprio.contactnet import TrainConfig, train

        spec = ArchitectureSpec(
            (
                Conv(6, 8), Relu(), Dropout(0.2), Pool(2), Flatten(),
                Dense(8 * 8, 16), Relu(), Dropout(0.2), Dense(16, 2),
            ),
            window=16,
            in_channels=6,
            n_classes=2,
        )
        cfg = TrainConfig(batch_size=15, learning_rate=1e-3, epochs=3, seed=42, dtype=np.float64)
        _, log = train(self._toy(n=60), cfg, spec)
        expected = [
            (1, 1.3329256079872422, 0.5166666666666667),
            (2, 0.7520294025212956, 0.6166666666666667),
            (3, 0.9089639087099426, 0.5333333333333333),
        ]
        assert [row["epoch"] for row in log] == [e for e, _, _ in expected]
        for row, (_, loss_value, acc) in zip(log, expected):
            assert abs(row["train_loss"] - loss_value) < 1e-9
            assert abs(row["train_acc"] - acc) < 1e-9
            assert abs(row["val_acc"] - acc) < 1e-9

    def test_seeded_dropout_log_pinned_float32(self):
        # the same run in the default float32: the dropout masks are drawn in
        # float64 and cast, so the draws match the float64 run above and the
        # log differs from it only by float32 rounding (about 1e-7 here)
        from proprio.contactnet import TrainConfig, train

        spec = ArchitectureSpec(
            (
                Conv(6, 8), Relu(), Dropout(0.2), Pool(2), Flatten(),
                Dense(8 * 8, 16), Relu(), Dropout(0.2), Dense(16, 2),
            ),
            window=16,
            in_channels=6,
            n_classes=2,
        )
        cfg = TrainConfig(batch_size=15, learning_rate=1e-3, epochs=3, seed=42)
        assert cfg.dtype == np.float32
        _, log = train(self._toy(n=60), cfg, spec)
        expected = [
            (1, 1.3329257369041443, 0.5166666666666667),
            (2, 0.7520295083522797, 0.6166666666666667),
            (3, 0.9089639782905579, 0.5333333333333333),
        ]
        assert [row["epoch"] for row in log] == [e for e, _, _ in expected]
        for row, (_, loss_value, acc) in zip(log, expected):
            assert abs(row["train_loss"] - loss_value) < 1e-6  # about 8 float32 ulps at 1.0
            assert abs(row["train_acc"] - acc) < 1e-9
            assert abs(row["val_acc"] - acc) < 1e-9

    def test_full_batch_order_invariance(self):
        from proprio.contactnet import TrainConfig, train

        windows = self._toy(n=40, seed=17)
        perm = np.random.default_rng(0).permutation(40)
        shuffled = windows.subset(perm)
        cfg = TrainConfig(batch_size=40, learning_rate=1e-3, epochs=2, seed=3, dtype=np.float64)
        p1, _ = train(windows, cfg, self._spec())
        p2, _ = train(shuffled, cfg, self._spec())
        for a, b in zip(p1, p2):
            if a is None:
                continue
            np.testing.assert_allclose(a[0], b[0], atol=1e-9)

    def test_empty_dataset(self):
        from proprio.contactnet import TrainConfig, train
        from proprio.dataio import WindowSet
        from proprio.formats import DataError

        empty = WindowSet(np.zeros((16, 6)), np.array([], dtype=int), np.array([], dtype=int), 16)
        with pytest.raises(DataError, match="empty training set"):
            train(empty, TrainConfig(), self._spec())

    def test_diverged_loss_rejected(self):
        from proprio.contactnet import TrainConfig, train
        from proprio.formats import DataError

        cfg = TrainConfig(batch_size=10, learning_rate=1e20, epochs=2, seed=3)
        with pytest.raises(DataError, match=r"training diverged in epoch 1: loss nan at learning rate 1e\+20"):
            train(self._toy(n=40, seed=17), cfg, self._spec())

    def test_label_beyond_the_class_count_rejected(self):
        from proprio.contactnet import TrainConfig, train
        from proprio.formats import DataError

        with pytest.raises(DataError, match="largest label code 1 needs at least 2 classes; the network has 1"):
            train(self._toy(n=40), TrainConfig(epochs=1), self._spec(classes=1))

    @pytest.mark.parametrize("with_val", [False, True])
    def test_diverged_last_step_rejected(self, with_val):
        # one batch per epoch: the only loss is taken before the step, so the
        # check has to score the stepped weights itself
        from proprio.contactnet import TrainConfig, train
        from proprio.formats import DataError

        cfg = TrainConfig(batch_size=40, learning_rate=1e20, epochs=1, seed=3)
        val = self._toy(n=10, seed=18) if with_val else None
        with pytest.raises(DataError, match=r"training diverged in epoch 1: loss nan at learning rate 1e\+20"):
            train(self._toy(n=40, seed=17), cfg, self._spec(), val)

    def test_diverged_last_step_rejected_in_float64(self):
        # float64 logits of weights near 1e20 stay finite; scored in float32,
        # the dtype inference runs in, they are not
        from proprio.contactnet import TrainConfig, train
        from proprio.formats import DataError

        cfg = TrainConfig(batch_size=40, learning_rate=1e20, epochs=1, seed=3, dtype=np.float64)
        with pytest.raises(DataError, match=r"training diverged in epoch 1: loss nan at learning rate 1e\+20"):
            train(self._toy(n=40, seed=17), cfg, self._spec())

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        from proprio.contactnet import TrainConfig

        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("rate", [0.0, float("nan"), float("inf")])
    def test_learning_rate_positive_and_finite(self, rate):
        from proprio.contactnet import TrainConfig

        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)


def ref_adam_step(params, grads, m, v, t, cfg):
    """Adam as one whole-array pass per tensor, the in-place sequence the
    chunked step must reproduce bit for bit."""
    b1c = 1.0 - ADAM_BETA1**t
    b2c = 1.0 - ADAM_BETA2**t
    scale = cfg.learning_rate / b1c
    sqrt_b2c = np.sqrt(b2c)
    for i, grad in enumerate(grads):
        if grad is None:
            continue
        for j in range(2):
            g, p, mm, vv = grad[j], params[i][j], m[i][j], v[i][j]
            buf = np.empty_like(p)
            mm *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
            mm += buf
            vv *= ADAM_BETA2
            np.multiply(g, g, out=buf)
            buf *= 1.0 - ADAM_BETA2
            vv += buf
            np.sqrt(vv, out=buf)
            buf /= sqrt_b2c
            buf += ADAM_EPS
            np.divide(mm, buf, out=buf)
            buf *= scale
            np.subtract(p, buf, out=p)


class TestAdam:
    def test_chunked_step_matches_whole_array_reference(self):
        from proprio.contactnet import TrainConfig
        from proprio.contactnet.training import _CHUNK, _Adam

        rng = np.random.default_rng(23)
        big = (3, _CHUNK // 2 + 7)  # 1.5 chunks + 21 elements: a partial tail chunk
        assert np.prod(big) > _CHUNK and np.prod(big) % _CHUNK
        shapes = [(big, (3,)), None, ((4, 6, 3), (4,))]
        params = [None if s is None else (rng.standard_normal(s[0]), rng.standard_normal(s[1])) for s in shapes]
        ref = [None if p is None else (p[0].copy(), p[1].copy()) for p in params]
        cfg = TrainConfig(learning_rate=1e-2)
        opt = _Adam(params, cfg)
        arrays = [(params[i][j], opt.m[i][j], opt.v[i][j]) for i in (0, 2) for j in (0, 1)]
        ref_m = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in ref]
        ref_v = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in ref]
        for t in range(1, 5):
            grads = [None if s is None else (rng.standard_normal(s[0]), rng.standard_normal(s[1])) for s in shapes]
            assert opt.step(params, grads) is params
            ref_adam_step(ref, grads, ref_m, ref_v, t, cfg)
        assert params[1] is None
        for i in (0, 2):
            for j in (0, 1):
                assert np.array_equal(params[i][j], ref[i][j])
                assert np.array_equal(opt.m[i][j], ref_m[i][j])
                assert np.array_equal(opt.v[i][j], ref_v[i][j])
        updated = [(params[i][j], opt.m[i][j], opt.v[i][j]) for i in (0, 2) for j in (0, 1)]
        assert all(a is b for old, new in zip(arrays, updated) for a, b in zip(old, new))


class TestComputeDtype:
    def test_float32_spec_stays_float32(self):
        # conv, relu, dropout (3-D and 2-D masks), pool, flatten and dense layers
        from proprio.contactnet import TrainConfig
        from proprio.contactnet.training import _Adam

        spec = tiny_spec(dropout=0.2)
        rng = np.random.default_rng(40)
        params = init_params(spec, rng)
        assert all(t.dtype == np.float32 for p in params if p is not None for t in p)
        windows = rng.normal(size=(5, 8, 3))  # float64 input, cast by the network
        _, grads, logits = net.loss_and_grads(params, spec, windows, [0, 1, 2, 3, 0], "train", rng)
        assert logits.dtype == np.float32
        for p, g in zip(params, grads):
            assert (p is None) == (g is None)
            if g is not None:
                assert g[0].dtype == np.float32 and g[1].dtype == np.float32
        opt = _Adam(params, TrainConfig())
        opt.step(params, grads)
        assert opt.buf.dtype == np.float32
        for i, p in enumerate(params):
            if p is None:
                continue
            for j in range(2):
                assert p[j].dtype == opt.m[i][j].dtype == opt.v[i][j].dtype == np.float32

    def _forward_pair(self, seed):
        """2blocks logits in float32 and float64 on identical weights and inputs."""
        spec = preset("2blocks", window=150, in_channels=54, n_classes=16)
        rng = np.random.default_rng(seed)
        p32 = init_params(spec, rng)
        p64 = cast_params(p32, np.float64)  # exact upcast: the same weights
        x = normalize_window(rng.normal(size=(64, 150, 54)))
        return spec, p32, p64, x

    def test_float32_forward_matches_float64(self):
        # float32 eps is 1.2e-7; rounding over the 4736-input dense layer
        # stays far below 1e-5 of the largest logit (5e-7 measured)
        spec, p32, p64, x = self._forward_pair(41)
        l32, l64 = forward(p32, spec, x), forward(p64, spec, x)
        assert l32.dtype == np.float32 and l64.dtype == np.float64
        assert np.max(np.abs(l32 - l64)) < 1e-5 * np.max(np.abs(l64))

    def test_float32_and_float64_codes_identical(self):
        spec, p32, p64, x = self._forward_pair(42)
        assert np.array_equal(net.predict_batch(p32, spec, x), net.predict_batch(p64, spec, x))

    def test_cast_params(self):
        spec = tiny_spec()
        p64 = init_params(spec, np.random.default_rng(43), dtype=np.float64)
        p32 = cast_params(p64)
        assert all(t.dtype == np.float32 for p in p32 if p is not None for t in p)
        assert cast_params(p32)[0][0] is p32[0][0]  # already float32: no copy
        assert [p is None for p in p32] == [p is None for p in p64]

    @pytest.mark.parametrize(("name", "draw_block"), [("2blocks", net.DRAW_BLOCK), ("1block", 100)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_equal_one_float64_draw_cast(self, monkeypatch, name, draw_block, dtype):
        # drawn a block of rows at a time (one row per block when a row outgrows it),
        # each weight is bit for bit the whole weight drawn once in float64, then cast
        monkeypatch.setattr(net, "DRAW_BLOCK", draw_block)
        spec = preset(name)
        got = init_params(spec, np.random.default_rng(45), dtype)
        rng = np.random.default_rng(45)
        for layer, p in zip(spec.layers, got):
            if p is None:
                continue
            w_shape, b_shape = layer.param_shapes()
            bound = np.sqrt(6.0 / np.prod(w_shape[1:]))
            want = rng.uniform(-bound, bound, size=w_shape).astype(dtype)
            assert p[0].dtype == dtype and p[0].tobytes() == want.tobytes()
            assert p[1].dtype == dtype and p[1].shape == b_shape and not p[1].any()


class TestPredict:
    def test_forced_class_six(self):
        spec = tiny_spec()
        rng = np.random.default_rng(19)
        spec16 = preset("2blocks", window=16, in_channels=4, n_classes=16, dropout=0.0)
        params = init_params(spec16, rng)
        # force class 6 by rigging the last layer bias
        w_last, b_last = params[-1]
        params[-1] = (np.zeros_like(w_last), np.zeros_like(b_last))
        params[-1][1][6] = 10.0
        codes = predict_batch(params, spec16, rng.normal(size=(1, 16, 4)))
        assert codes.tolist() == [6]
        assert codes_to_bool(codes, 4).tolist() == [[False, True, True, False]]

    def test_uniform_tie_break(self):
        spec = tiny_spec(dropout=0.0)
        params = init_params(spec, np.random.default_rng(20))
        params = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        codes = predict_batch(params, spec, np.random.default_rng(21).normal(size=(1, 8, 3)))
        assert codes.tolist() == [0]  # ties resolve to the lowest class

    def test_predict_codes_matches_one_batch(self):
        # 11 windows in batches of 4: two full batches and a partial one
        from proprio.contactnet import predict_codes
        from proprio.dataio import WindowSet

        spec = tiny_spec()
        rng = np.random.default_rng(44)
        params = init_params(spec, rng)
        windows = WindowSet(rng.normal(size=(18, 3)), np.arange(7, 18), None, 8)
        want = net.predict_batch(params, spec, normalize_window(windows.batch(np.arange(11))))
        codes = predict_codes(params, spec, windows, batch=4)
        assert codes.dtype == np.int64 and np.array_equal(codes, want)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = tiny_spec()
        rng = np.random.default_rng(23)
        params = init_params(spec, rng)
        path = tmp_path / "w.pcnw"
        save_params(params, spec, path)
        loaded, spec2 = load_params(path)
        assert spec2 == spec
        for a, b in zip(params, loaded):
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_corrupted_byte(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(24))
        path = tmp_path / "w.pcnw"
        save_params(params, spec, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(net.ChecksumFailureError):
            load_params(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib

        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(25))
        path = tmp_path / "w.pcnw"
        save_params(params, spec, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        body = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        path.write_bytes(bytes(blob))
        with pytest.raises(net.VersionMismatchError):
            load_params(path)

    def test_load_4blocks_and_shape_check(self, tmp_path):
        spec = preset("4blocks", window=64, in_channels=54, n_classes=16)
        rng = np.random.default_rng(26)
        params = init_params(spec, rng)
        path = tmp_path / "w4.pcnw"
        save_params(params, spec, path)
        loaded, spec2 = load_params(path)
        logits = forward(loaded, spec2, rng.normal(size=(64, 54)))
        assert logits.shape == (16,)


    def test_file_bytes_pinned(self, tmp_path):
        # digest of this file as written by the original one-buffer writer
        import hashlib

        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(23), dtype=np.float64)
        path = tmp_path / "w.pcnw"
        save_params(params, spec, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "3d3a32d6e70a786905829c9a6a33ef19d3e62a32893a27342bfc39bccefb7df9"

    @pytest.mark.parametrize(
        "descriptor,field",
        [
            ("in_channels=3\nn_classes=4\nlayer=flatten", "window"),
            ("window=8\nn_classes=4\nlayer=flatten", "in_channels"),
            ("window=8\nin_channels=3\nlayer=flatten", "n_classes"),
            ("window=eight\nin_channels=3\nn_classes=4", "window"),
            ("window=8\nin_channels=3\nn_classes=4\nlayer=conv 3", "conv"),
            ("window=8\nin_channels=3\nn_classes=4\nlayer=dense 3 x", "dense"),
            ("window=8\nin_channels=3\nn_classes=4\nlayer=", "''"),
        ],
    )
    def test_bad_descriptor_schema_error(self, tmp_path, descriptor, field):
        path = tmp_path / "bad.pcnw"
        _write_descriptor_only(path, descriptor)
        with pytest.raises(net.SchemaMismatchError) as info:
            load_params(path)
        assert str(path) in str(info.value) and field in str(info.value)

    @pytest.mark.parametrize(
        "layer,expected",
        [
            ("conv 3 4 2\nlayer=flatten\nlayer=dense 32 4", "kernel 2"),
            ("dropout 1.0\nlayer=flatten\nlayer=dense 24 4", "dropout rate 1.0"),
            ("pool 0\nlayer=flatten\nlayer=dense 24 4", "pool 0"),
        ],
        ids=["even-kernel", "dropout-one", "pool-zero"],
    )
    def test_descriptor_layer_rule_rejected(self, tmp_path, layer, expected):
        path = tmp_path / "bad.pcnw"
        _write_descriptor_only(path, "window=8\nin_channels=3\nn_classes=4\nlayer=" + layer)
        with pytest.raises(ShapeMismatchError) as info:
            load_params(path)
        assert str(path) in str(info.value) and expected in str(info.value)

    @pytest.mark.parametrize(
        "params,expected",
        [
            ([None, None], "layer 1 (dense) needs shape (4, 24), file has no tensor"),
            ([None, (np.zeros((4, 24)),)], "layer 1 (dense) needs shape (4,), file has no tensor"),
            ([None, (np.zeros((4, 5)), np.zeros(4))], "layer 1 (dense) needs shape (4, 24), file has shape (4, 5)"),
            ([None, (np.zeros((4, 24)), np.zeros(4), np.zeros(4))], "3 tensors"),
        ],
        ids=["no-weight", "no-bias", "wrong-shape", "extra-tensor"],
    )
    def test_tensors_checked_against_layers(self, tmp_path, params, expected):
        spec = ArchitectureSpec((Flatten(), Dense(3 * 8, 4)), window=8, in_channels=3, n_classes=4)
        path = tmp_path / "w.pcnw"
        save_params(params, spec, path)
        with pytest.raises(net.SchemaMismatchError) as info:
            load_params(path)
        assert str(path) in str(info.value) and expected in str(info.value)

    _DENSE_DESC = b"window=8\nin_channels=3\nn_classes=4\nlayer=flatten\nlayer=dense 24 4"

    @pytest.mark.parametrize(
        "desc,tail,expected",
        [
            (
                _DENSE_DESC,
                struct.pack("<IB2I", 3, 2, 4, 24) + bytes(8 * 96) + struct.pack("<BI", 1, 4) + bytes(32),
                "header counts 3 tensors",
            ),
            (_DENSE_DESC, struct.pack("<IBI", 2, 2, 4), "field '<2I'"),
            (_DENSE_DESC, struct.pack("<IB2I", 2, 2, 4, 24) + bytes(10), "array of shape (4, 24)"),
            (b"window=8\xff\nin_channels=3", struct.pack("<I", 0), "not UTF-8"),
            (_DENSE_DESC, struct.pack("<IB", 2, 200) + bytes(4 * 200), "file has shape (0, 0, 0"),
        ],
        ids=["count-plus-one", "short-shape", "short-data", "non-utf8-descriptor", "ndim-200"],
    )
    def test_bad_payload_schema_error(self, tmp_path, desc, tail, expected):
        path = tmp_path / "bad.pcnw"
        _write_weight_bytes(path, desc, tail)
        with pytest.raises(net.SchemaMismatchError) as info:
            load_params(path)
        assert str(path) in str(info.value) and expected in str(info.value)


def _write_descriptor_only(path, descriptor):
    """A weight file with the given descriptor, no tensors and a valid CRC."""
    _write_weight_bytes(path, descriptor.encode(), struct.pack("<I", 0))


def _write_weight_bytes(path, desc, tail):
    """A weight file with the given descriptor bytes, then `tail`, and a valid CRC."""
    import zlib

    body = struct.pack("<HI", net.WEIGHTS_VERSION, len(desc)) + desc + tail
    path.write_bytes(net.WEIGHTS_MAGIC + body + struct.pack("<I", zlib.crc32(body)))
