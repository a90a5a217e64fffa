"""Network forward/backward against hand oracles and finite differences."""

import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen import nn
from scscreen.errors import UnknownValueError
from scscreen.formula import normalize, parse_composition
from scscreen.nn import (
    AdamState,
    DivergenceDetectedError,
    EmptyDatasetError,
    Head,
    LabelOutOfRangeError,
    LengthMismatchError,
    Loss,
    ModelConfig,
    NegativeTcError,
    ShapeMismatchError,
    TcTransform,
    TrainConfig,
    adam_step,
    backward,
    bce_logit_loss,
    config_echo,
    config_from_dict,
    forward,
    init_adam,
    init_params,
    inverse_tc_transform,
    load_checkpoint,
    predict,
    save_checkpoint,
    smooth_l1_loss,
    tc_transform,
    train,
)
from scscreen.ptable import encode_ptable, encode_ptable_batch

N_CELLS = 7 * 32


def tiny_cfg(**kw):
    base = dict(conv_layers=1, channels_per_layer=1, dense_hidden=0, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def zeroed_params(cfg):
    params = init_params(cfg)
    for a in params.arrays():
        a[...] = 0.0
    return params


class TestInit:
    def test_deterministic(self):
        a = init_params(ModelConfig(seed=7))
        b = init_params(ModelConfig(seed=7))
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)
        c = init_params(ModelConfig(seed=8))
        assert not np.array_equal(a.conv_w[0], c.conv_w[0])

    def test_first_layer_variance_matches_fan_in(self):
        # fan-in of the first convolution is 4 channels * 3 * 3 = 36
        params = init_params(ModelConfig(conv_layers=1, channels_per_layer=1024, seed=0))
        w = params.conv_w[0]
        assert w.shape == (4, 1024, 3, 3)
        assert abs(w.std() - np.sqrt(2.0 / 36)) < 0.05 * np.sqrt(2.0 / 36)
        assert abs(w.mean()) < 0.01

    def test_biases_zero(self):
        params = init_params(ModelConfig())
        for b in params.conv_b:
            assert not b.any()
        assert not params.dense_b.any()
        assert not params.head_b.any()

    def test_shapes(self):
        params = init_params(ModelConfig(conv_layers=3, channels_per_layer=8, dense_hidden=5))
        assert [w.shape for w in params.conv_w] == [(4, 8, 3, 3), (8, 8, 3, 3), (8, 8, 3, 3)]
        assert params.dense_w.shape == (8, 5)
        assert params.head_w.shape == (5, 1)
        assert params.head_b.shape == (1,)

    def test_no_dense_when_hidden_zero(self):
        params = init_params(tiny_cfg(channels_per_layer=6))
        assert params.dense_w is None and params.dense_b is None
        assert params.head_w.shape == (6, 1)

    def test_dtype_selection(self):
        assert init_params(ModelConfig()).conv_w[0].dtype == np.float32
        assert init_params(ModelConfig(dtype="float64")).conv_w[0].dtype == np.float64

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(conv_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(dense_hidden=-1)
        with pytest.raises(ValueError):
            ModelConfig(dtype="float16")


class TestForwardOracle:
    """Single-layer single-channel forwards computed by hand."""

    def test_single_cell_kernel_sum(self):
        # Nb occupies exactly one grid cell in the D plane. A kernel holding
        # 1..9 on that plane contributes every entry once as it slides over
        # the cell, so the pool sees sum(1..9) = 45 spread over 224 cells.
        params = zeroed_params(tiny_cfg())
        kernel = np.arange(1.0, 10.0).reshape(3, 3)
        params.conv_w[0][2, 0] = kernel
        params.head_w[0, 0] = 1.0
        x = encode_ptable(normalize({"Nb": 1.0}))[None]
        raw = forward(params, x)
        assert raw.shape == (1,)
        assert np.isclose(raw[0], 45.0 / 224.0, rtol=1e-12)

    def test_orientation_is_cross_correlation(self):
        # H sits in the top-left cell (0, 0) of the S plane. With a kernel
        # that is 1 only at its top-left tap, the activation lands at cell
        # (1, 1) — output(y, x) reads input(y-1+ky, x-1+kx), no kernel flip.
        x = encode_ptable(normalize({"H": 1.0}))[None]

        params = zeroed_params(tiny_cfg())
        params.conv_w[0][0, 0, 0, 0] = 1.0
        params.head_w[0, 0] = 1.0
        assert np.isclose(forward(params, x)[0], 1.0 / 224.0, rtol=1e-12)

        params = zeroed_params(tiny_cfg())
        params.conv_w[0][0, 0, 2, 2] = 1.0  # would need input at (-1, -1)
        params.head_w[0, 0] = 1.0
        assert forward(params, x)[0] == 0.0

    def test_bias_and_relu(self):
        # zero weights, conv bias -1: rectifier kills it; bias +2 passes through
        params = zeroed_params(tiny_cfg())
        params.conv_b[0][0] = -1.0
        params.head_w[0, 0] = 1.0
        x = encode_ptable(normalize({"Fe": 1.0}))[None]
        assert forward(params, x)[0] == 0.0
        params.conv_b[0][0] = 2.0
        assert np.isclose(forward(params, x)[0], 2.0, rtol=1e-12)

    def test_head_bias(self):
        params = zeroed_params(tiny_cfg())
        params.head_b[0] = 3.5
        x = encode_ptable(normalize({"Fe": 1.0}))[None]
        assert forward(params, x)[0] == 3.5

    def test_fraction_scaling(self):
        # doubling an element's share doubles a linear response
        params = zeroed_params(tiny_cfg())
        params.conv_w[0][2, 0, 1, 1] = 1.0  # center tap on the D plane
        params.head_w[0, 0] = 224.0
        half = forward(params, encode_ptable(parse_composition("NbO"))[None])[0]
        third = forward(params, encode_ptable(parse_composition("NbO2"))[None])[0]
        assert np.isclose(half, 0.5, rtol=1e-6)
        assert np.isclose(third, 1.0 / 3.0, rtol=1e-6)

    def test_batch_rows_independent(self):
        params = init_params(ModelConfig(conv_layers=2, channels_per_layer=3, seed=3))
        comps = [normalize(c) for c in ({"Nb": 1.0}, {"Fe": 2.0, "O": 3.0}, {"H": 1.0, "He": 1.0})]
        # crosses two chunk boundaries and ends in a short chunk
        comps += random_comps(np.random.default_rng(4), 2 * nn._INFER_ROWS + 5)
        batch = encode_ptable_batch(comps)
        together = forward(params, batch)
        separate = [forward(params, batch[i : i + 1])[0] for i in range(len(comps))]
        assert np.allclose(together, separate, rtol=1e-6)

    def test_shape_errors(self):
        params = init_params(tiny_cfg())
        with pytest.raises(ShapeMismatchError):
            forward(params, np.zeros((2, 4, 7, 31)))
        with pytest.raises(ShapeMismatchError):
            forward(params, np.zeros((0, 4, 7, 32)))


class TestLosses:
    def test_smooth_l1_quadratic_branch(self):
        loss, grad = smooth_l1_loss([1.5], [1.0])
        assert np.isclose(loss, 0.125, rtol=1e-12)
        assert np.allclose(grad, [0.5])

    def test_smooth_l1_linear_branch(self):
        loss, grad = smooth_l1_loss([4.0], [1.0])
        assert np.isclose(loss, 2.5, rtol=1e-12)
        assert np.allclose(grad, [1.0])

    def test_smooth_l1_mean_over_batch(self):
        loss, grad = smooth_l1_loss([1.5, 4.0], [1.0, 1.0])
        assert np.isclose(loss, (0.125 + 2.5) / 2, rtol=1e-12)
        assert np.allclose(grad, [0.25, 0.5])

    def test_smooth_l1_continuity_at_knee(self):
        lo, _ = smooth_l1_loss([1.0 - 1e-9], [0.0])
        hi, _ = smooth_l1_loss([1.0 + 1e-9], [0.0])
        assert abs(lo - hi) < 1e-8

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=20),
        st.floats(-1e3, 1e3),
    )
    def test_smooth_l1_translation_invariance(self, preds, k):
        targets = [p * 0.9 + 1 for p in preds]
        base, gbase = smooth_l1_loss(preds, targets)
        shifted, gshift = smooth_l1_loss([p + k for p in preds], [t + k for t in targets])
        assert np.isclose(base, shifted, rtol=1e-9, atol=1e-12)
        assert np.allclose(gbase, gshift, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_smooth_l1_nonnegative_and_zero_at_fit(self, vals):
        loss, grad = smooth_l1_loss(vals, vals)
        assert loss == 0.0
        assert not np.any(grad)
        loss2, _ = smooth_l1_loss(vals, [v + 0.5 for v in vals])
        assert loss2 >= 0.0

    def test_bce_symmetry_at_zero_logit(self):
        loss1, grad1 = bce_logit_loss([0.0], [1.0])
        loss0, grad0 = bce_logit_loss([0.0], [0.0])
        assert np.isclose(loss1, np.log(2), rtol=1e-12)
        assert np.isclose(loss0, np.log(2), rtol=1e-12)
        assert np.allclose(grad1, [-0.5])
        assert np.allclose(grad0, [0.5])

    def test_bce_extreme_logits_stay_finite(self):
        for z in (500.0, -500.0):
            for y in (0.0, 1.0):
                loss, grad = bce_logit_loss([z], [y])
                assert np.isfinite(loss) and np.isfinite(grad).all()
        near_zero, _ = bce_logit_loss([50.0], [1.0])
        assert near_zero < 1e-20
        big, _ = bce_logit_loss([-50.0], [1.0])
        assert np.isclose(big, 50.0, rtol=1e-6)

    def test_bce_rejects_soft_labels(self):
        with pytest.raises(LabelOutOfRangeError):
            bce_logit_loss([0.0], [0.5])
        with pytest.raises(LabelOutOfRangeError):
            bce_logit_loss([0.0], [-1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            smooth_l1_loss([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatchError):
            bce_logit_loss([], [])

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=20))
    def test_bce_nonnegative(self, logits):
        labels = [1.0 if z > 0 else 0.0 for z in logits]
        loss, _ = bce_logit_loss(logits, labels)
        assert loss >= 0.0


class TestTcTransform:
    def test_log_shift_at_zero(self):
        assert np.isclose(tc_transform(0.0, TcTransform.LOG_SHIFT_0P1), np.log(0.1), rtol=1e-12)

    def test_linear_identity(self):
        assert tc_transform(10.0, TcTransform.LINEAR) == 10.0
        assert inverse_tc_transform(-3.0, TcTransform.LINEAR) == -3.0

    def test_inverse_closed_form(self):
        assert abs(inverse_tc_transform(np.log(4.1), TcTransform.LOG_SHIFT_0P1) - 4.0) < 1e-12

    def test_inverse_clamps_at_zero(self):
        assert inverse_tc_transform(-10.0, TcTransform.LOG_SHIFT_0P1) == 0.0

    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_round_trip(self, tc):
        back = inverse_tc_transform(tc_transform(tc, TcTransform.LOG_SHIFT_0P1), TcTransform.LOG_SHIFT_0P1)
        assert np.isclose(back, tc, rtol=1e-12, atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeTcError):
            tc_transform(-0.5, TcTransform.LOG_SHIFT_0P1)
        with pytest.raises(NegativeTcError):
            tc_transform([1.0, -2.0], TcTransform.LINEAR)

    def test_array_forms(self):
        out = tc_transform(np.array([0.0, 4.0]), TcTransform.LOG_SHIFT_0P1)
        assert out.shape == (2,)
        assert np.isclose(out[1], np.log(4.1), rtol=1e-12)


def random_comps(rng, n):
    pool = ["Nb", "Fe", "O", "Cu", "H", "Ba", "La", "Se", "Ti", "Si"]
    comps = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        syms = rng.choice(pool, size=k, replace=False)
        comps.append(normalize({s: float(w) for s, w in zip(syms, rng.random(k) + 0.1)}))
    return comps


def _gradcheck(cfg, head, loss_kind, n_batch, seed, h=1e-4, tol=1e-4):
    """Central finite differences over every parameter of every array."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg)
    # nudge biases off zero: cells with no support would otherwise sit
    # exactly on the rectifier kink, where finite differences are one-sided
    for a in params.arrays():
        if a.ndim == 1:
            a[...] = rng.normal(0.0, 0.05, a.shape)
    batch = encode_ptable_batch(random_comps(rng, n_batch))
    if loss_kind is Loss.SMOOTH_L1:
        targets = rng.normal(0.0, 1.5, n_batch)
        loss_fn = smooth_l1_loss
    else:
        targets = rng.integers(0, 2, n_batch).astype(np.float64)
        loss_fn = bce_logit_loss

    analytic = backward(params, batch, targets, loss_kind)
    arrays = params.arrays()
    assert len(analytic) == len(arrays)

    def central_diff(a, idx, step):
        keep = a[idx]
        a[idx] = keep + step
        up, _ = loss_fn(forward(params, batch), targets)
        a[idx] = keep - step
        dn, _ = loss_fn(forward(params, batch), targets)
        a[idx] = keep
        return (up - dn) / (2 * step)

    def rel_err(fd, g):
        return abs(fd - g) / max(abs(fd), abs(g), 1e-6)

    worst = 0.0
    for a, g in zip(arrays, analytic):
        assert a.shape == g.shape
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            err = rel_err(central_diff(a, idx, h), g[idx])
            if err >= tol:
                # a rectifier kink inside the difference window makes the
                # finite difference one-sided; shrink the window and retry
                err = rel_err(central_diff(a, idx, h * 1e-2), g[idx])
            worst = max(worst, err)
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


@pytest.mark.parametrize(
    "layers,channels,dense,head,loss_kind,seed",
    [
        (1, 1, 0, Head.REGRESSION, Loss.SMOOTH_L1, 0),
        (2, 3, 4, Head.REGRESSION, Loss.SMOOTH_L1, 1),
        (3, 4, 6, Head.REGRESSION, Loss.SMOOTH_L1, 2),
        (2, 2, 0, Head.BINARY_LOGIT, Loss.BCE_LOGIT, 3),
        (3, 3, 5, Head.BINARY_LOGIT, Loss.BCE_LOGIT, 4),
    ],
)
def test_gradients_match_finite_differences(layers, channels, dense, head, loss_kind, seed):
    cfg = ModelConfig(
        conv_layers=layers,
        channels_per_layer=channels,
        dense_hidden=dense,
        head=head,
        seed=seed,
        dtype="float64",
    )
    _gradcheck(cfg, head, loss_kind, n_batch=3, seed=seed * 11 + 5)


def test_gradients_match_finite_differences_in_row_chunks(monkeypatch):
    # a patch matrix of two rows' worth splits the three-row batch into
    # chunks of 2 and 1 rows, forward and backward
    monkeypatch.setattr(nn, "_PATCH_BYTES", 2 * N_CELLS * 9 * 4 * 8)
    assert nn._patch_rows(4, np.float64) == 2
    cfg = ModelConfig(conv_layers=3, channels_per_layer=4, dense_hidden=6, seed=2, dtype="float64")
    _gradcheck(cfg, Head.REGRESSION, Loss.SMOOTH_L1, n_batch=3, seed=2 * 11 + 5)


class TestRowChunks:
    """Conv layers >= 1 build their patch matrices over chunks of whole rows,
    each within _PATCH_BYTES; only the weight gradients' sums reassociate."""

    @staticmethod
    def _record_im2col(monkeypatch):
        """(rows, channels) of every `_im2col` call from now on; each call
        must fit its patch matrix within _PATCH_BYTES."""
        calls = []
        im2col = nn._im2col

        def recorded(x, ws):
            assert x.shape[0] <= nn._patch_rows(x.shape[3], x.dtype)
            calls.append(x.shape[0::3])
            return im2col(x, ws)

        monkeypatch.setattr(nn, "_im2col", recorded)
        return calls

    def test_chunking_changes_only_rounding(self, monkeypatch):
        cfg = ModelConfig(conv_layers=3, channels_per_layer=8, dense_hidden=5, seed=3,
                          dtype="float64")
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        for a in params.arrays():
            if a.ndim == 1:
                a[...] = rng.normal(0.0, 0.05, a.shape)
        batch = encode_ptable_batch(random_comps(rng, 37))
        targets = rng.normal(0.0, 1.5, 37)
        entries = nn._entries(batch, np.float64)
        calls = self._record_im2col(monkeypatch)
        cached, public, grads = {}, {}, {}
        for rows in (1, 3, 64):
            monkeypatch.setattr(nn, "_PATCH_BYTES", rows * N_CELLS * 9 * 8 * 8)
            calls.clear()
            cached[rows] = nn._forward_cached(params, entries, 37, {})[0].tobytes()
            # 2 layers of ceil(37 / rows) chunks
            assert len(calls) == 2 * -(-37 // min(rows, 37))
            public[rows] = forward(params, batch)
            grads[rows] = backward(params, batch, targets, Loss.SMOOTH_L1)
        # every output row comes from GEMMs over the same rows and columns
        assert cached[1] == cached[3] == cached[64]
        for rows in (1, 3):
            # public forward's inference chunks follow the patch rows too, and
            # BLAS may sum a 1- or 3-row dense layer in another order
            assert np.allclose(public[rows], public[64], rtol=1e-12, atol=0)
            for got, one in zip(grads[rows], grads[64]):
                assert np.all(np.abs(got - one) <= 1e-12 * np.abs(one).max())

    def test_default_step_builds_16_row_patch_matrices(self, monkeypatch):
        calls = self._record_im2col(monkeypatch)
        train(toy_samples(32), ModelConfig(), TrainConfig(epochs=1))
        # 8 layers x forward and backward x two 16-row chunks of 32 channels
        assert calls == [(16, 32)] * (8 * 2 * 2)


class TestBackwardStructure:
    def test_zero_residual_gives_zero_gradients(self):
        cfg = tiny_cfg(conv_layers=2, channels_per_layer=3, dense_hidden=4, seed=1)
        params = init_params(cfg)
        batch = encode_ptable_batch([normalize({"Nb": 1.0}), parse_composition("FeO2")])
        targets = forward(params, batch)  # exact fit
        grads = backward(params, batch, targets, Loss.SMOOTH_L1)
        for g in grads:
            assert not np.any(g)

    def test_duplicating_the_batch_preserves_mean_gradients(self):
        cfg = tiny_cfg(conv_layers=2, channels_per_layer=4, dense_hidden=3, seed=2)
        params = init_params(cfg)
        batch = encode_ptable_batch([normalize({"Nb": 1.0}), parse_composition("CuO")])
        targets = np.array([0.3, -0.7])
        twice = np.concatenate([batch, batch])
        g1 = backward(params, batch, targets, Loss.SMOOTH_L1)
        g2 = backward(params, twice, np.concatenate([targets, targets]), Loss.SMOOTH_L1)
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_pooled_backward_equals_public_backward(self):
        # the training loop shares one workspace across layers, forward and
        # backward, and batches; reused pad and patch buffers must not leak
        # one use into the next, neither through a view of fewer rows (3
        # after 4) nor when a larger batch replaces them (5)
        cfg = tiny_cfg(conv_layers=3, channels_per_layer=5, dense_hidden=4, seed=5)
        params = init_params(cfg)
        rng = np.random.default_rng(8)
        for a in params.arrays():
            if a.ndim == 1:
                a[...] = rng.normal(0.0, 0.05, a.shape)
        ws = {}
        for rows in (4, 3, 5):
            comps = random_comps(rng, rows)
            batch = encode_ptable_batch(comps)
            targets = rng.normal(0.0, 1.5, rows)
            enc = nn.encode_rows(comps, params.config.np_dtype)
            entries = nn._batch_entries(enc.cells, enc.values, np.arange(rows))
            raw, cache = nn._forward_cached(params, entries, rows, ws)
            _, dout = smooth_l1_loss(raw, targets)
            pooled = nn._backward_cached(params, cache, dout, ws)
            public = backward(params, batch, targets, Loss.SMOOTH_L1)
            assert len(pooled) == len(public)
            for a, b in zip(pooled, public):
                assert np.array_equal(a, b)

    def test_rectifier_masks_come_from_kept_outputs(self, monkeypatch):
        # the forward keeps rectified outputs, not masks: inference asks for
        # no bool buffer, and training reads every layer's mask off its
        # output into one shared buffer
        requested = []
        ws_buf = nn._ws_buf

        def recorded(ws, key, shape, dtype, fill=None):
            if np.dtype(dtype) == np.bool_:
                requested.append((key, shape[1:]))
            return ws_buf(ws, key, shape, dtype, fill)

        monkeypatch.setattr(nn, "_ws_buf", recorded)
        samples = toy_samples(40)
        cfg = ModelConfig(conv_layers=3, channels_per_layer=4, dense_hidden=3)
        params, _ = train(samples, cfg, TrainConfig(epochs=1))
        assert len(requested) == 2 * 3 and len(set(requested)) == 1  # 2 steps x 3 layers
        requested.clear()
        predict(params, [c for c, _ in samples])
        assert requested == []


class TestAdam:
    def _params(self):
        return init_params(tiny_cfg(channels_per_layer=2, dense_hidden=3, seed=9))

    def test_zero_gradient_is_a_fixed_point(self):
        params = self._params()
        before = [a.copy() for a in params.arrays()]
        state = init_adam(params)
        grads = [np.zeros_like(a) for a in params.arrays()]
        adam_step(params, grads, state, 1e-2)
        for a, b in zip(params.arrays(), before):
            assert np.array_equal(a, b)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        params = self._params()
        before = [a.copy() for a in params.arrays()]
        state = init_adam(params)
        rng = np.random.default_rng(3)
        grads = [np.where(rng.random(a.shape) < 0.5, -0.7, 1.3) for a in params.arrays()]
        lr = 1e-3
        adam_step(params, grads, state, lr)
        for a, b, g in zip(params.arrays(), before, grads):
            assert np.allclose(a, b - lr * np.sign(g), atol=1e-6 * lr)

    def test_updates_in_place_and_deterministic(self):
        params = self._params()
        other = self._params()
        grads = [np.full_like(a, 0.1) for a in params.arrays()]
        out, _ = adam_step(params, grads, init_adam(params), 1e-3)
        assert out is params
        adam_step(other, [g.copy() for g in grads], init_adam(other), 1e-3)
        for a, b in zip(params.arrays(), other.arrays()):
            assert np.array_equal(a, b)

    def test_moment_accumulation_shrinks_oscillation(self):
        # alternating +g/-g gradients: second moment grows, steps shrink
        params = self._params()
        state = init_adam(params)
        a0 = params.head_w.copy()
        sizes = []
        for i in range(6):
            sign = 1.0 if i % 2 == 0 else -1.0
            grads = [np.zeros_like(a) for a in params.arrays()]
            grads[-2] = np.full_like(params.head_w, sign)
            prev = params.head_w.copy()
            adam_step(params, grads, state, 1e-3)
            sizes.append(float(np.abs(params.head_w - prev).max()))
        assert sizes[-1] < sizes[0]
        assert np.abs(params.head_w - a0).max() < 6 * 1e-3

    def test_gradient_shape_mismatch(self):
        params = self._params()
        state = init_adam(params)
        grads = [np.zeros_like(a) for a in params.arrays()]
        with pytest.raises(ShapeMismatchError):
            adam_step(params, grads[:-1], state, 1e-3)
        grads[0] = np.zeros((1, 1))
        with pytest.raises(ShapeMismatchError):
            adam_step(params, grads, state, 1e-3)


@st.composite
def element_mix(draw):
    """A normalized composition of 1 to 6 elements, first and last rows of
    the table included."""
    pool = ["H", "He", "Li", "Nb", "O", "Cu", "La", "Lu", "U", "Fe", "Sn", "Og"]
    syms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(syms), max_size=len(syms)))
    return normalize(dict(zip(syms, weights)))


def toy_samples(n=24, seed=0):
    rng = np.random.default_rng(seed)
    pool = ["Nb", "Ti", "Cu", "O", "Fe", "Si"]
    out = []
    for _ in range(n):
        syms = rng.choice(pool, size=2, replace=False)
        counts = {s: float(w) for s, w in zip(syms, rng.random(2) + 0.2)}
        tc = 20.0 if "Nb" in counts else 0.0
        out.append((normalize(counts), tc))
    return out


def dense_conv0(w, b, x, dpre):
    """The im2col first layer that the cell-reading one replaced: the
    pre-activation (n * 224, c_out) and the weight gradient given the
    output gradient `dpre`, for a channel-last (n, 7, 32, c_in) batch."""
    n, c_in, c_out = len(x), w.shape[0], w.shape[1]
    pad = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    taps = [pad[:, ky : ky + 7, kx : kx + 32] for ky in range(3) for kx in range(3)]
    cols = np.stack(taps, axis=3).reshape(n * N_CELLS, 9 * c_in)  # (ky, kx, c) features
    pre = cols @ w.transpose(2, 3, 0, 1).reshape(9 * c_in, c_out) + b
    d_w = (cols.T @ dpre).reshape(3, 3, c_in, c_out).transpose(2, 3, 0, 1)
    return pre, d_w


def sparse_conv0(w, b, entries, n, dpre):
    """nn's first layer on `entries`: pre-activation and weight gradient."""
    pre, taps = nn._conv0(w, b, entries, n, {})
    padded = np.concatenate([dpre, np.zeros((1, dpre.shape[1]), dpre.dtype)])
    return pre.copy(), nn._conv0_weight_grad(taps, padded, w.shape[0], {})


def assert_reassociated(got, w, b, x, dpre, rtol):
    """got == the dense reference up to rounding: each output may differ by
    rtol times the sum of its terms' magnitudes."""
    ref = dense_conv0(w, b, x, dpre)
    scale = dense_conv0(np.abs(w), np.abs(b), np.abs(x), np.abs(dpre))
    for name, g, r, m in zip(("pre-activation", "weight gradient"), got, ref, scale):
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert np.all(np.abs(g - r) <= rtol * m), name


CORNERS = {"H": 1.0, "He": 2.0, "Fr": 3.0, "Og": 4.0}  # (0, 0), (0, 31), (6, 0), (6, 31)


class TestFirstLayer:
    """Layer 0 reads cells; it must match the dense im2col layer."""

    RTOL = {"float32": 1e-5, "float64": 1e-12}

    @settings(max_examples=40, deadline=None)
    @given(
        comps=st.lists(element_mix(), min_size=0, max_size=40),
        c_out=st.sampled_from([1, 4, 32]),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, comps, c_out, dtype, seed):
        # the four grid corners, one-element rows, and rows shorter than the
        # longest (so padded) in one batch
        comps = [{"Og": 1.0}, normalize(CORNERS), {"H": 1.0}, *comps, {"Fr": 1.0}]
        n = len(comps)
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 0.5, (4, c_out, 3, 3)).astype(dtype)
        b = rng.normal(0.0, 0.1, c_out).astype(dtype)
        dpre = rng.normal(0.0, 1.0, (n * N_CELLS, c_out)).astype(dtype)
        x = encode_ptable_batch(comps).transpose(0, 2, 3, 1).astype(dtype)

        enc = nn.encode_rows(comps, dtype)
        trained = sparse_conv0(w, b, nn._batch_entries(enc.cells, enc.values, np.arange(n)), n, dpre)
        flat, vals = nn._entries(encode_ptable_batch(comps), dtype)
        shuffled = rng.permutation(len(flat))
        dense = sparse_conv0(w, b, (flat[shuffled], vals[shuffled]), n, dpre)
        for got in (trained, dense):
            assert_reassociated(got, w, b, x, dpre, self.RTOL[dtype])
        # each output sums its taps in one order, so the entry order leaves
        # the pre-activation's bits alone
        assert trained[0].tobytes() == dense[0].tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_any_tensor_matches_dense_reference(self, dtype):
        # forward and backward take any tensor, also one with several
        # nonzero channels in a cell; those entries share every target
        rng = np.random.default_rng(3)
        n, c_out = 5, 6
        x = rng.normal(0.0, 1.0, (n, 7, 32, 4)) * (rng.random((n, 7, 32, 4)) < 0.4)
        x = x.astype(dtype)
        w = rng.normal(0.0, 0.5, (4, c_out, 3, 3)).astype(dtype)
        b = rng.normal(0.0, 0.1, c_out).astype(dtype)
        dpre = rng.normal(0.0, 1.0, (n * N_CELLS, c_out)).astype(dtype)
        got = sparse_conv0(w, b, nn._entries(x.transpose(0, 3, 1, 2), dtype), n, dpre)
        assert_reassociated(got, w, b, x, dpre, self.RTOL[dtype])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_trash_row_is_reset(self, dtype):
        # off-grid taps land on a row after the outputs; its buffer comes
        # from np.empty, and adding to a signalling nan there raised
        # "invalid value" warnings at random
        snan = np.array([0x7F800001 if dtype == "float32" else 0x7FF0000000000001],
                        "u4" if dtype == "float32" else "u8").view(dtype)[0]
        ws = {}
        nn._ws_buf(ws, ("act", 0), (N_CELLS + 1, 3), dtype)[-1] = snan
        w, b = np.ones((4, 3, 3, 3), dtype), np.zeros(3, dtype)
        entries = nn._entries(encode_ptable_batch([{"H": 1.0}]), dtype)  # a corner cell
        with np.errstate(invalid="raise"):
            pre, _ = nn._conv0(w, b, entries, 1, ws)
        assert np.all(np.isfinite(pre))

    def test_builds_no_patch_matrix_of_the_input(self, monkeypatch):
        # the first layer's 4-channel patch matrix, forward and backward, is
        # the cost the cell-reading layer removed; later layers still use
        # patch matrices at the model's width
        widths = Counter()
        im2col = nn._im2col

        def counted(x, ws):
            widths[x.shape[3]] += 1
            return im2col(x, ws)

        monkeypatch.setattr(nn, "_im2col", counted)
        comps = [c for c, _ in toy_samples(40)]
        for cfg in (ModelConfig(conv_layers=1, channels_per_layer=4, dense_hidden=0),
                    ModelConfig(conv_layers=2, channels_per_layer=8, dense_hidden=0)):
            params, _ = train(toy_samples(40), cfg, TrainConfig(epochs=1))
            predict(params, comps)
        # 2 steps x (layer 1 forward + backward) + 2 predict chunks x layer 1
        assert widths == {8: 6}


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        cfg = tiny_cfg(channels_per_layer=2, seed=4)
        params, trace = train(toy_samples(8), cfg, TrainConfig(epochs=0))
        assert trace == []
        fresh = init_params(cfg)
        for a, b in zip(params.arrays(), fresh.arrays()):
            assert np.array_equal(a, b)

    def test_deterministic_given_seeds(self):
        cfg = tiny_cfg(conv_layers=2, channels_per_layer=3, dense_hidden=4, seed=5, dtype="float32")
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3, shuffle_seed=11)
        p1, t1 = train(toy_samples(), cfg, tcfg)
        p2, t2 = train(toy_samples(), cfg, tcfg)
        assert t1 == t2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_shuffle_seed_changes_path(self):
        cfg = tiny_cfg(conv_layers=2, channels_per_layer=3, seed=5)
        _, t1 = train(toy_samples(), cfg, TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, shuffle_seed=0))
        _, t2 = train(toy_samples(), cfg, TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, shuffle_seed=99))
        assert t1 != t2

    def test_loss_decreases_on_learnable_rule(self):
        cfg = ModelConfig(conv_layers=2, channels_per_layer=4, dense_hidden=8,
                          tc_transform=TcTransform.LINEAR, seed=0)
        tcfg = TrainConfig(learning_rate=3e-2, batch_size=8, epochs=60)
        _, trace = train(toy_samples(32, seed=3), cfg, tcfg)
        assert trace[-1] < 0.5 * trace[0]

    def test_classification_head_learns_labels(self):
        cfg = ModelConfig(conv_layers=2, channels_per_layer=4, dense_hidden=8,
                          head=Head.BINARY_LOGIT, seed=0)
        tcfg = TrainConfig(learning_rate=1e-1, batch_size=8, epochs=150)
        samples = toy_samples(32, seed=3)
        params, trace = train(samples, cfg, tcfg, label_threshold=5.0)
        assert trace[-1] < 0.5 * trace[0]
        probs = predict(params, [c for c, _ in samples])
        labels = np.array([tc > 5.0 for _, tc in samples])
        assert np.mean((probs > 0.5) == labels) >= 0.9

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            train([], tiny_cfg(), TrainConfig(epochs=1))

    def test_divergence_detected(self):
        cfg = tiny_cfg(channels_per_layer=2, dtype="float32")
        tcfg = TrainConfig(learning_rate=1e30, batch_size=4, epochs=5)
        with np.errstate(over="ignore"), pytest.raises(DivergenceDetectedError) as exc:
            train(toy_samples(16), cfg, tcfg)
        assert exc.value.epoch >= 0 and exc.value.step >= 0

    def test_divergence_error_survives_pickle(self):
        # a fold trained in a worker process must reach the parent as itself
        err = DivergenceDetectedError(3, 7, float("nan"))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceDetectedError
        assert (str(back), back.epoch, back.step) == (str(err), 3, 7)
        assert np.isnan(back.loss)

    def test_early_stop_callback(self):
        calls = []

        def stop_after_two(epoch, params, mean_loss):
            calls.append(epoch)
            return epoch >= 1

        _, trace = train(toy_samples(8), tiny_cfg(channels_per_layer=2),
                         TrainConfig(epochs=50, batch_size=8), on_epoch=stop_after_two)
        assert calls == [0, 1]
        assert len(trace) == 2

    def test_negative_tc_rejected(self):
        with pytest.raises(NegativeTcError):
            train([({"Nb": 1.0}, -4.0)], tiny_cfg(), TrainConfig(epochs=1))

    @settings(max_examples=60, deadline=None)
    @given(
        comps=st.lists(element_mix(), min_size=1, max_size=70),
        batch=st.integers(2, 32),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scattered_batch_equals_dense_rows(self, comps, batch, dtype, seed):
        # H is flat cell 0; the appended row makes the last batch short
        comps = [{"H": 1.0}, *comps]
        if len(comps) % batch == 0:
            comps.append({"H": 0.25, "Nb": 0.75})
        dense = encode_ptable_batch(comps).transpose(0, 2, 3, 1).astype(dtype)
        enc = nn.encode_rows(comps, dtype)
        perm = np.random.default_rng(seed).permutation(len(comps))
        for start in range(0, len(comps), batch):
            idx = perm[start : start + batch]
            flat, vals = nn._batch_entries(enc.cells, enc.values, idx)
            assert vals.dtype == dense.dtype and np.all(vals != 0)
            x = np.zeros((len(idx), 7, 32, 4), dtype)
            np.add.at(x.reshape(-1), flat, vals)
            assert x.tobytes() == dense[idx].tobytes()

    @pytest.mark.parametrize("dtype,limit", [("float32", 18e6), ("float64", 30e6)])
    def test_default_model_peak_memory(self, dtype, limit):
        # every patch matrix stays within _PATCH_BYTES; one over a whole
        # 32-row batch is 8.3 MB in float32 and 16.5 MB in float64, and a
        # step that builds it peaks at 21.0 and 41.6 MB here
        samples = [(c, 1.0) for c in random_comps(np.random.default_rng(0), 64)]
        tracemalloc.start()
        try:
            train(samples, ModelConfig(dtype=dtype), TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{peak / 1e6:.1f} MB"

    def test_peak_memory_does_not_grow_with_rows(self):
        # training keeps each row's nonzero cells, not a dense 3,584 B row
        cfg = ModelConfig(conv_layers=1, channels_per_layer=2)
        peaks = {}
        for rows in (250, 4000):
            samples = [(c, 1.0) for c in random_comps(np.random.default_rng(0), rows)]
            tracemalloc.start()
            try:
                train(samples, cfg, TrainConfig(epochs=1))
                _, peaks[rows] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert abs(peaks[4000] - peaks[250]) < 1e6, (
            f"{peaks[250] / 1e6:.2f} MB at 250 rows, {peaks[4000] / 1e6:.2f} MB at 4000"
        )


class TestPredict:
    def test_permutation_equivariance(self):
        params = init_params(ModelConfig(conv_layers=2, channels_per_layer=3, seed=6))
        comps = [parse_composition(f) for f in ("Nb", "FeO", "Cu2O3", "H")]
        base = predict(params, comps)
        rev = predict(params, comps[::-1])
        assert np.allclose(base[::-1], rev, rtol=1e-6)

    def test_untrained_logit_head_gives_half(self):
        params = zeroed_params(tiny_cfg(head=Head.BINARY_LOGIT))
        probs = predict(params, [{"Nb": 1.0}, {"Fe": 1.0}])
        assert np.allclose(probs, 0.5)

    def test_regression_output_clamped_nonnegative(self):
        params = zeroed_params(tiny_cfg(tc_transform=TcTransform.LINEAR))
        params.head_b[0] = -50.0
        out = predict(params, [{"Nb": 1.0}])
        assert out[0] == 0.0

    def test_log_mode_inverts_transform(self):
        params = zeroed_params(tiny_cfg())  # LOG_SHIFT_0P1 default
        params.head_b[0] = np.log(4.1)
        out = predict(params, [{"Nb": 1.0}])
        assert abs(out[0] - 4.0) < 1e-5

    def test_empty_input(self):
        for head in Head:
            params = init_params(tiny_cfg(head=head, dtype="float32"))
            for rows in ([], nn.encode_rows([], params.config.np_dtype)):
                out = predict(params, rows)
                assert out.shape == (0,) and out.dtype == np.float64

    def test_peak_memory_does_not_grow_with_rows(self):
        # predict runs fixed chunks through one workspace, so its peak is a
        # constant of the model, not of the call
        params = init_params(ModelConfig())
        peaks = {}
        for rows in (250, 4000):
            comps = random_comps(np.random.default_rng(0), rows)
            tracemalloc.start()
            try:
                predict(params, comps)
                _, peaks[rows] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[4000] < 32e6, f"{peaks[4000] / 1e6:.1f} MB at 4000 rows"
        assert abs(peaks[4000] - peaks[250]) < 1e6, f"{peaks[250] / 1e6:.1f} MB at 250 rows"

    def test_default_model_peak_memory(self):
        # chunks of 16 rows and two kept layer outputs: about 6 MB where
        # 32-row chunks that kept all nine outputs peaked at 18 MB
        params = init_params(ModelConfig())
        comps = random_comps(np.random.default_rng(0), 500)
        tracemalloc.start()
        try:
            predict(params, comps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"{peak / 1e6:.1f} MB at 500 rows"

    @staticmethod
    def _record_forwards(monkeypatch):
        """(rows, workspace) of every `_forward_cached` call from now on."""
        calls = []
        forward_cached = nn._forward_cached

        def recorded(params, entries, n, ws, **kw):
            calls.append((n, ws))
            return forward_cached(params, entries, n, ws, **kw)

        monkeypatch.setattr(nn, "_forward_cached", recorded)
        return calls

    def test_chunk_rows_do_not_change_prediction_bytes(self, monkeypatch):
        # the default model's chunk rows follow _PATCH_BYTES; every chunk
        # of one call has one shape, and a row's bits do not depend on it
        params = init_params(ModelConfig())
        comps = random_comps(np.random.default_rng(2), 75)
        calls = self._record_forwards(monkeypatch)
        patch_row = N_CELLS * 9 * 32 * 4  # float32 patch-matrix bytes per row
        got = {}
        for rows in (8, 16, 32):
            monkeypatch.setattr(nn, "_PATCH_BYTES", rows * patch_row)
            calls.clear()
            got[rows] = predict(params, comps).tobytes()
            assert {n for n, _ in calls} == {rows}
        assert got[8] == got[16] == got[32]

    def test_inference_workspace_keeps_two_layer_outputs(self, monkeypatch):
        calls = self._record_forwards(monkeypatch)
        params = init_params(ModelConfig(conv_layers=9, channels_per_layer=4))
        predict(params, random_comps(np.random.default_rng(3), 40))
        for _, ws in calls:
            acts = [key for key in ws if key[0] == "act"]
            assert 1 <= len(acts) <= 2, acts

    def test_patch_view_allocates_nothing(self):
        # every conv layer of every chunk builds one patch view; a view that
        # allocates on the way (as_strided's __array_interface__ read wears
        # a slot of CPython's interned-string table, which is rebuilt every
        # ~32,000 calls) puts a 1-2 MB spike inside some forward pass
        pad = np.zeros((1, 9, 34, 1), np.float32)
        nn._windows(pad)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(200_000):
                nn._windows(pad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 64e3, f"{(peak - start) / 1e6:.2f} MB"

    def test_rows_independent_of_call_size(self):
        # every chunk is forwarded at one shape, so a row's prediction has
        # the same bits whatever the call's row count, also for narrow
        # float32 layers that BLAS runs on its small-matrix kernels
        comps = random_comps(np.random.default_rng(1), 100)
        for cfg in (
            ModelConfig(conv_layers=1, channels_per_layer=8, dense_hidden=0),
            ModelConfig(conv_layers=3, channels_per_layer=3, head=Head.BINARY_LOGIT),
        ):
            params = init_params(cfg)
            whole = predict(params, comps)
            for n in (1, 13, 31, 33, 47, 63):
                assert np.array_equal(predict(params, comps[:n]), whole[:n]), (cfg, n)


class TestEncodedRows:
    """train and predict take encode_rows output in place of compositions,
    with the same bits."""

    CONFIGS = [
        ModelConfig(conv_layers=1, channels_per_layer=4, dense_hidden=0,
                    tc_transform=TcTransform.LINEAR, seed=7),
        ModelConfig(conv_layers=2, channels_per_layer=3, dense_hidden=4, seed=5, dtype="float64"),
        ModelConfig(conv_layers=2, channels_per_layer=3, head=Head.BINARY_LOGIT, seed=1),
    ]

    TRAIN = TrainConfig(learning_rate=1e-2, batch_size=7, epochs=3, shuffle_seed=4)

    def test_encode_rows_layout(self):
        comps = [parse_composition(f) for f in ("Nb", "FeO", "Cu2O3La", "H")]
        enc = nn.encode_rows(comps, "float64")
        assert len(enc) == 4 and enc.cells.shape == enc.values.shape == (4, 3)
        assert enc.values.dtype == np.float64 and enc.cells.dtype == np.intp
        # a shorter row is padded with cell 0 at value 0
        assert enc.values[0].tolist() == [1.0, 0.0, 0.0] and enc.cells[0, 1:].tolist() == [0, 0]
        part = enc.take(np.array([3, 1]))
        assert len(part) == 2
        assert np.array_equal(part.cells, enc.cells[[3, 1]])
        assert np.array_equal(part.values, enc.values[[3, 1]])
        assert nn.encode_rows(comps, "float32").values.dtype == np.float32
        empty = nn.encode_rows([], "float32")
        assert len(empty) == 0 and predict(init_params(tiny_cfg()), empty).shape == (0,)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["1x4", "float64-dense", "logit"])
    def test_train_on_encoded_rows_equals_train_on_pairs(self, cfg):
        samples = toy_samples(30, seed=2)
        tcfg = self.TRAIN
        want, want_trace = train(samples, cfg, tcfg, label_threshold=5.0)
        tc = [t for _, t in samples]
        for dtype in ("float64", cfg.dtype):
            enc = nn.encode_rows([c for c, _ in samples], dtype)
            got, trace = train(enc, cfg, tcfg, tc_kelvin=tc, label_threshold=5.0)
            assert trace == want_trace
            for a, b in zip(got.arrays(), want.arrays()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # a subset taken from a larger encoding trains as the subset's pairs
        order = np.random.default_rng(0).permutation(30)[:20]
        sub, _ = train([samples[i] for i in order], cfg, tcfg, label_threshold=5.0)
        enc = nn.encode_rows([c for c, _ in samples], cfg.dtype).take(order)
        got, _ = train(enc, cfg, tcfg, tc_kelvin=np.array(tc)[order], label_threshold=5.0)
        for a, b in zip(got.arrays(), sub.arrays()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["1x4", "float64-dense", "logit"])
    def test_predict_on_encoded_rows_equals_compositions(self, cfg):
        params = init_params(cfg)
        for a in params.arrays():
            if a.ndim == 1:
                a[...] = 0.05
        comps = random_comps(np.random.default_rng(4), 75)
        want = predict(params, comps)
        for dtype in ("float64", cfg.dtype):
            got = predict(params, nn.encode_rows(comps, dtype))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_encoded_rows_independent_of_call_size(self):
        comps = random_comps(np.random.default_rng(1), 100)
        enc = nn.encode_rows(comps, "float64")
        for cfg in self.CONFIGS:
            params = init_params(cfg)
            whole = predict(params, enc)
            for n in (1, 13, 31, 33, 47, 63):
                got = predict(params, enc.take(np.arange(n)))
                assert got.tobytes() == whole[:n].tobytes(), (cfg, n)
            tail = np.arange(40, 100)
            assert predict(params, enc.take(tail)).tobytes() == whole[40:].tobytes()

    def test_tc_kelvin_only_with_encoded_rows(self):
        samples = toy_samples(6)
        enc = nn.encode_rows([c for c, _ in samples], "float64")
        tcfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="tc_kelvin"):
            train(enc, tiny_cfg(), tcfg)
        with pytest.raises(ValueError, match="tc_kelvin"):
            train(samples, tiny_cfg(), tcfg, tc_kelvin=[t for _, t in samples])
        with pytest.raises(LengthMismatchError):
            train(enc, tiny_cfg(), tcfg, tc_kelvin=[1.0] * 5)
        with pytest.raises(NegativeTcError):
            train(enc, tiny_cfg(), tcfg, tc_kelvin=[-1.0] * 6)
        with pytest.raises(EmptyDatasetError):
            train(enc.take(np.arange(0)), tiny_cfg(), tcfg, tc_kelvin=[])


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = ModelConfig(conv_layers=2, channels_per_layer=5, dense_hidden=7,
                          head=Head.BINARY_LOGIT, tc_transform=TcTransform.LINEAR,
                          seed=13, dtype="float64")
        params, _ = train(toy_samples(8), cfg,
                          TrainConfig(epochs=2, batch_size=4))
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        comps = [parse_composition("Nb"), parse_composition("CuO2")]
        assert np.array_equal(predict(params, comps), predict(loaded, comps))

    def test_version_check(self, tmp_path):
        params = init_params(tiny_cfg())
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["format_version"] = 999
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_header_without_head_fails(self, tmp_path):
        # a head left at its default would load a logit model as a regressor
        params = init_params(tiny_cfg(head=Head.BINARY_LOGIT))
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        del meta["head"]
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="head"):
            load_checkpoint(path)

    def test_wrongly_typed_header_field_names_it(self, tmp_path):
        # a string layer count used to reach ModelConfig and fail there with a TypeError
        params = init_params(tiny_cfg())
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["conv_layers"] = "9"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="checkpoint.conv_layers: expected integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [[1, 2], "model", None])
    def test_header_that_is_not_an_object_is_value_error(self, tmp_path, meta):
        # a list header used to fail in meta.pop with a TypeError
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(init_params(tiny_cfg()), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="checkpoint: expected object, got "):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, extra, message", [
        ("meta", None, "missing ['meta']"),
        ("array_3", None, "missing ['array_3'], unexpected []"),
        (None, "array_4", "missing [], unexpected ['array_4']"),
    ])
    def test_missing_or_unexpected_entry_is_value_error_naming_it(self, tmp_path, drop, extra,
                                                                  message):
        # a missing entry used to raise a KeyError, an extra one to load silently
        path = tmp_path / "model.npz"
        save_checkpoint(init_params(tiny_cfg()), path)  # meta and array_0 .. array_3
        with np.load(path) as data:
            entries = {k: data[k] for k in data.files if k != drop}
        if extra is not None:
            entries[extra] = np.zeros(1, dtype=np.float32)
        np.savez(path, **entries)
        with pytest.raises(ValueError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"checkpoint entries: {message}"


class TestConfigSchema:
    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(conv_layers=2, channels_per_layer=5, dense_hidden=0,
                        head=Head.BINARY_LOGIT, tc_transform=TcTransform.LINEAR,
                        seed=13, dtype="float64"),
            TrainConfig(learning_rate=0.5, batch_size=7, epochs=3, shuffle_seed=9),
        ],
        ids=["model", "train"],
    )
    def test_echo_round_trips(self, cfg):
        import dataclasses
        import json

        assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
        echo = json.loads(json.dumps(config_echo(cfg)))
        assert config_from_dict(type(cfg), echo, "cfg") == cfg

    @pytest.mark.parametrize("value", ["softmax", 1, None])
    def test_unknown_enum_value_lists_known_names(self, value):
        with pytest.raises(UnknownValueError, match=r"model\.head: .*REGRESSION, BINARY_LOGIT"):
            config_from_dict(ModelConfig, {"head": value}, "model")

    @pytest.mark.parametrize(
        "cls, data, message",
        [
            (TrainConfig, {"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
            (TrainConfig, {"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
            (TrainConfig, {"shuffle_seed": -1}, "shuffle_seed must be >= 0"),
            (ModelConfig, {"seed": -1}, "seed must be >= 0"),
        ],
        ids=["lr-nan", "lr-inf", "shuffle-seed", "seed"],
    )
    def test_non_finite_rate_and_negative_seed_rejected(self, cls, data, message):
        # NaN trained to divergence and a negative seed failed inside default_rng
        with pytest.raises(ValueError, match=message):
            config_from_dict(cls, data, "cfg")
        with pytest.raises(ValueError, match=message):
            cls(**data)
