import numpy as np
import pytest

from pinchbeam import autodiff as ad
from pinchbeam import precoder_gnn as tbf
from pinchbeam.autodiff import ParameterStore, Tape
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.errors import DegenerateInputError, InvalidConfigError
from pinchbeam.physics import (build_pinching_matrix, compute_channel, compute_se,
                               effective_channel, random_feasible_layout,
                               sample_users)
from pinchbeam.pipeline import init_parameters

MICRO = ModelConfig(pbf_layers=2, tbf_layers=2, hidden=8, message_dim=8)


def random_cplx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestInitEdges:
    def test_real_channel_zero_imag_feature(self):
        ht = np.ones((1, 2, 3), dtype=complex)
        tape = Tape()
        d = tbf.tbf_init_edges(tape, tape.constant(ht), 2.0)
        np.testing.assert_array_equal(d.value[..., 0], 0.5)
        np.testing.assert_array_equal(d.value[..., 1], 0.0)

    def test_row_permutation_permutes_slices(self):
        rng = np.random.default_rng(0)
        ht = random_cplx(rng, (1, 3, 2))
        tape = Tape()
        d = tbf.tbf_init_edges(tape, tape.constant(ht), 1.0)
        tape = Tape()
        d_p = tbf.tbf_init_edges(tape, tape.constant(ht[:, [2, 0, 1]]), 1.0)
        np.testing.assert_array_equal(d.value[:, [2, 0, 1]], d_p.value)

    def test_zero_channel_zero_features(self):
        tape = Tape()
        d = tbf.tbf_init_edges(tape, tape.constant(np.zeros((1, 2, 2))), 1.0)
        assert np.all(d.value == 0.0)


def _layer_store(in_width, seed, random_biases=False):
    """The four subnets of ``tbf.layer1`` at ``in_width``; ``random_biases``
    redraws every weight and bias (init_fnn leaves the biases at zero,
    which would hide the folded bias)."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for name, widths in tbf.layer_widths(in_width, MICRO).items():
        ad.init_fnn(store, f"tbf.layer1.{name}", widths, rng)
    if random_biases:
        for name in store.names():
            store.values[name][...] = rng.uniform(-0.5, 0.5, store.values[name].shape)
    return store


def _tbf_layer_value(d, store):
    tape = Tape()
    return tbf.tbf_layer(tape, tape.constant(d), store, "tbf.layer1").value


def _sum_others(a, axis):
    """Leave-one-out sum along ``axis``, as total minus own."""
    return ad.sub(ad.sum_axis(a, axis, keepdims=True), a)


def _unfolded_tbf_layer(tape, d, store, prefix):
    """tbf_layer as its four subnets: each waveguide map y_n = main([z_n,
    sum_{i != n} ctx(z_i)]) runs its subnets in full and takes the
    leave-one-out sums of their outputs. Every subnet is one linear layer;
    ``ff``, the last, is followed by a relu."""

    def linear(name, x, relu=False):
        return ad.dense(x, tape.param(store, f"{prefix}.{name}.W0"),
                        tape.param(store, f"{prefix}.{name}.b0"), relu=relu)

    def waveguide_pe_map(zs, main, ctx):
        a = linear(ctx, zs)
        return linear(main, zs + [_sum_others(a, 1)], relu=main == "ff")

    msg = _sum_others(waveguide_pe_map([d], "fq", "qq"), -2)
    return waveguide_pe_map([d, msg], "ff", "qf")


class TestWaveguidePeMap:
    """tbf_layer is equivariant to waveguide permutations, and a single
    waveguide's context is empty."""

    def test_single_waveguide_empty_context(self):
        # At N = 1 the waveguide contexts of qq and qf are exact zeros: the
        # layer is ff([d, msg, 0]) with msg the leave-one-out sum over users
        # of fq([d, 0]). The fold leaves qq's and qf's terms to cancel, so
        # the two agree to rounding.
        rng = np.random.default_rng(1)
        d = rng.standard_normal((1, 1, 3, 2))
        store = _layer_store(2, 1, random_biases=True)
        v = {name: store.values[f"tbf.layer1.{name}"] for name in ("fq.W0", "fq.b0", "ff.W0",
                                                                   "ff.b0")}
        q = d @ v["fq.W0"][:2] + v["fq.b0"]
        msg = q.sum(axis=2, keepdims=True) - q
        manual = np.maximum(d @ v["ff.W0"][:2] + msg @ v["ff.W0"][2:2 + MICRO.message_dim]
                            + v["ff.b0"], 0.0)
        np.testing.assert_allclose(_tbf_layer_value(d, store), manual, rtol=0, atol=1e-13)

    def test_identical_rows_identical_outputs(self):
        rng = np.random.default_rng(2)
        z = np.repeat(rng.standard_normal((1, 1, 3, 2)), 4, axis=1)
        out = _tbf_layer_value(z, _layer_store(2, 0, random_biases=True))
        for n in range(1, 4):
            np.testing.assert_allclose(out[:, n], out[:, 0], atol=1e-12)

    def test_row_permutation(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 4, 3, 2))
        store = _layer_store(2, 0, random_biases=True)
        out = _tbf_layer_value(z, store)
        perm = rng.permutation(4)
        np.testing.assert_allclose(_tbf_layer_value(z[:, perm], store), out[:, perm],
                                   atol=1e-9)


class TestFoldedLayer:
    @pytest.mark.parametrize("in_width", [2, MICRO.hidden])
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 4), (8, 8), (1, 3), (2, 1)])
    def test_matches_unfolded_reference(self, n, k, in_width):
        # At the (N, K) of C5, (3, 2, 4), K8, (1, 2, 3) and (2, 3, 1), with
        # random weights and biases: value and every parameter gradient of
        # a weighted sum to 1e-12 of the subnets run in full. A gradient the
        # reference has at exactly 0 (qq's at N = 1, whose terms cancel in
        # the fold) is held to 1e-12 of the layer's largest gradient.
        rng = np.random.default_rng(40)
        store = _layer_store(in_width, 41, random_biases=True)
        d = rng.standard_normal((2, n, k, in_width))
        weights = rng.uniform(0.5, 1.5, (2, n, k, MICRO.hidden))

        def run(layer_fn):
            tape = Tape()
            out = layer_fn(tape, tape.constant(d), store, "tbf.layer1")
            value = out.value  # read before the sweep releases it
            ad.backward_into(store, ad.sum_axis(ad.mul(out, tape.constant(weights)),
                                                tuple(range(4))))
            return value, {name: g.copy() for name, g in store.grads.items()}

        value, grads = run(tbf.tbf_layer)
        ref_value, ref_grads = run(_unfolded_tbf_layer)
        assert np.max(ref_value) > 0.0 and np.min(ref_value) == 0.0  # the relu acts
        assert np.max(np.abs(value - ref_value)) <= 1e-12 * np.max(np.abs(ref_value))
        largest = max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            scale = np.max(np.abs(ref)) or largest
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * scale, name

    def test_one_dense_node_and_two_folds_per_layer(self):
        # The layer pushes its eight parameters, three keepdims sums of d,
        # the two folds and one dense node.
        store = _layer_store(2, 0)
        tape = Tape()
        tbf.tbf_layer(tape, tape.constant(np.ones((1, 3, 2, 2))), store, "tbf.layer1")
        assert sorted(tape.ops[1:]) == sorted(
            ["const"] * 8 + ["sum_axis"] * 3 + ["tbf_weight_fold", "tbf_bias_fold", "dense"])


class TestTbfLayer:
    def _layer(self, d, seed=0):
        return _tbf_layer_value(d, _layer_store(d.shape[-1], seed))

    def test_single_user(self):
        rng = np.random.default_rng(4)
        d = rng.standard_normal((1, 2, 1, 2))
        out = self._layer(d)
        assert out.shape == (1, 2, 1, MICRO.hidden)

    def test_duplicate_users(self):
        rng = np.random.default_rng(5)
        d = np.repeat(rng.standard_normal((1, 2, 1, 2)), 3, axis=2)
        out = self._layer(d)
        np.testing.assert_allclose(out[:, :, 0], out[:, :, 1], atol=1e-12)

    def test_2d_pe(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((2, 3, 4, 2))
        out = self._layer(d)
        pa, pu = rng.permutation(3), rng.permutation(4)
        out_p = self._layer(d[:, pa][:, :, pu])
        np.testing.assert_allclose(out_p, out[:, pa][:, :, pu], atol=1e-9)


class TestOutputPowers:
    def test_softplus_floor_and_rescale(self):
        cfg = default_config(2, 1, 2)
        store = ParameterStore()
        store.add("tbf.head.p.W0", np.zeros((4, 1)))
        store.add("tbf.head.p.b0", np.zeros(1))
        store.add("tbf.head.lambda.W0", np.zeros((4, 1)))
        store.add("tbf.head.lambda.b0", np.zeros(1))
        tape = Tape()
        d = tape.constant(np.ones((1, 2, 2, 4)))
        p, lam = tbf.output_powers(tape, d, store, cfg.power_budget_w)
        # Zero heads -> softplus gives log 2 everywhere; p rescales to P/K.
        np.testing.assert_allclose(lam.value, np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(p.value, cfg.power_budget_w / 2, rtol=1e-7)
        np.testing.assert_allclose(p.value.sum(), cfg.power_budget_w, rtol=1e-12)

    def test_user_permutation(self):
        cfg = default_config(2, 1, 3)
        store = init_parameters(cfg, MICRO, 3)
        rng = np.random.default_rng(7)
        ht = random_cplx(rng, (1, 2, 3), 0.01)
        tape = Tape()
        p, lam = tbf.tbf_powers(tape, tape.constant(ht), store, cfg, MICRO)
        perm = rng.permutation(3)
        tape = Tape()
        p2, lam2 = tbf.tbf_powers(tape, tape.constant(ht[:, :, perm]), store,
                                  cfg, MICRO)
        np.testing.assert_allclose(p2.value, p.value[:, perm], atol=1e-9)
        np.testing.assert_allclose(lam2.value, lam.value[:, perm], atol=1e-9)


class TestRecoverPrecoder:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(8)
        ht = random_cplx(rng, (1, 3, 1))
        tape = Tape()
        p = tape.constant(np.array([[2.0]]))
        lam = tape.constant(np.array([[0.7]]))
        w = tbf.recover_precoder(tape, tape.constant(ht), p, lam, 0.5)
        expected = ht[0] * np.sqrt(2.0) / (0.7 * np.linalg.norm(ht) ** 2 + 0.5)
        np.testing.assert_allclose(w.value[0], expected, rtol=1e-12)

    def test_zero_lambda_is_scaled_mrt(self):
        rng = np.random.default_rng(9)
        ht = random_cplx(rng, (1, 3, 2))
        tape = Tape()
        p = tape.constant(np.array([[1.0, 4.0]]))
        lam = tape.constant(np.zeros((1, 2)))
        w = tbf.recover_precoder(tape, tape.constant(ht), p, lam, 2.0)
        expected = ht[0] @ np.diag([1.0, 2.0]) / 2.0
        np.testing.assert_allclose(w.value[0], expected, rtol=1e-12)

    def test_matches_numpy_twin(self):
        rng = np.random.default_rng(10)
        ht = random_cplx(rng, (4, 3, 3), 0.3)
        p = rng.uniform(0.5, 2.0, (4, 3))
        lam = rng.uniform(0.0, 2.0, (4, 3))
        tape = Tape()
        w = tbf.recover_precoder(tape, tape.constant(ht), tape.constant(p),
                                 tape.constant(lam), 0.8)
        w_np = tbf.recover_precoder_np(ht, p, lam, 0.8)
        np.testing.assert_allclose(w.value, w_np, rtol=1e-11, atol=1e-14)

    def test_solve_residual(self):
        rng = np.random.default_rng(11)
        ht = random_cplx(rng, (3, 3))
        p = rng.uniform(0.5, 2.0, 3)
        lam = rng.uniform(0.0, 2.0, 3)
        w = tbf.recover_precoder_np(ht, p, lam, 1.0)
        a = lam[:, None] * (ht.conj().T @ ht) + np.eye(3)
        # W reconstructs H (A^{-1} P^{1/2}) with a tiny direct-solve residual.
        x = np.linalg.solve(a, np.sqrt(p)[:, None] * np.eye(3, dtype=complex))
        np.testing.assert_allclose(w, ht @ x, atol=1e-12)
        resid = np.linalg.norm(a @ x - np.sqrt(p)[:, None] * np.eye(3))
        assert resid <= 1e-10 * np.linalg.norm(np.sqrt(p))

    def test_invalid_noise(self):
        tape = Tape()
        ht = tape.constant(np.ones((1, 2, 2), dtype=complex))
        p = tape.constant(np.ones((1, 2)))
        with pytest.raises(InvalidConfigError):
            tbf.recover_precoder(tape, ht, p, p, 0.0)


class TestNormalizePower:
    def test_known_scaling(self):
        tape = Tape()
        w = tape.constant(np.array([[[3.0 + 0j], [4.0 + 0j]]]))
        out = tbf.normalize_power(tape, w, 4.0)
        np.testing.assert_allclose(out.value[0].ravel(), [1.2, 1.6], rtol=1e-14)

    def test_already_normalized_fixed_point(self):
        rng = np.random.default_rng(12)
        w = random_cplx(rng, (1, 2, 2))
        tape = Tape()
        once = tbf.normalize_power(tape, tape.constant(w), 5.0)
        tape2 = Tape()
        twice = tbf.normalize_power(tape2, tape2.constant(once.value), 5.0)
        np.testing.assert_allclose(once.value, twice.value, atol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        w = random_cplx(rng, (1, 3, 2))
        tape = Tape()
        a = tbf.normalize_power(tape, tape.constant(w), 2.0)
        tape2 = Tape()
        b = tbf.normalize_power(tape2, tape2.constant(7.3 * w), 2.0)
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)

    def test_zero_precoder_rejected(self):
        tape = Tape()
        with pytest.raises(DegenerateInputError):
            tbf.normalize_power(tape, tape.constant(np.zeros((1, 2, 2))), 1.0)

    def test_numpy_twin_agrees(self):
        rng = np.random.default_rng(14)
        w = random_cplx(rng, (5, 3, 2))
        tape = Tape()
        out = tbf.normalize_power(tape, tape.constant(w), 3.0)
        np.testing.assert_allclose(out.value, tbf.normalize_power_np(w, 3.0),
                                   rtol=1e-14)


class TestTbfForward:
    def _forward(self, ht, cfg, store):
        tape = Tape()
        return tbf.tbf_forward(tape, tape.constant(ht), store, cfg, MICRO).value

    def test_power_exact(self):
        cfg = default_config(3, 1, 2)
        store = init_parameters(cfg, MICRO, 1)
        rng = np.random.default_rng(15)
        for _ in range(5):
            ht = random_cplx(rng, (2, 3, 2), 0.01)
            w = self._forward(ht, cfg, store)
            power = np.sum(np.abs(w) ** 2, axis=(-2, -1))
            np.testing.assert_allclose(power, cfg.power_budget_w, rtol=1e-12)

    def test_equivariance(self):
        cfg = default_config(3, 1, 2)
        store = init_parameters(cfg, MICRO, 2)
        rng = np.random.default_rng(16)
        ht = random_cplx(rng, (1, 3, 2), 0.01)
        w = self._forward(ht, cfg, store)
        pa, pu = rng.permutation(3), rng.permutation(2)
        w_p = self._forward(ht[:, pa][:, :, pu], cfg, store)
        np.testing.assert_allclose(w_p, w[:, pa][:, :, pu], atol=1e-9)

    def test_single_user_direction_is_channel(self):
        cfg = default_config(2, 1, 1)
        store = init_parameters(cfg, MICRO, 3)
        rng = np.random.default_rng(17)
        ht = random_cplx(rng, (1, 2, 1), 0.01)
        w = self._forward(ht, cfg, store)[0][:, 0]
        direction = ht[0][:, 0] / np.linalg.norm(ht[0])
        achieved = w / np.linalg.norm(w)
        # Collinear up to the (real, positive) structure scaling.
        np.testing.assert_allclose(achieved, direction, rtol=1e-10)

    def test_se_defined(self):
        cfg = default_config(2, 1, 2)
        store = init_parameters(cfg, MICRO, 4)
        ht = random_cplx(np.random.default_rng(18), (1, 2, 2), 0.01)
        w = self._forward(ht, cfg, store)
        se = compute_se(ht[0], w[0], cfg.noise_power_w)
        assert np.isfinite(se) and se >= 0.0


class TestInputScale:
    def test_deterministic_and_positive(self):
        cfg = default_config(2, 2, 2)
        a = tbf.input_scale(cfg)
        b = tbf.input_scale(cfg)
        assert a == b > 0.0

    def test_power_budget_does_not_enter(self):
        cfg = default_config(2, 2, 2, snr_db=0.0)
        cfg2 = cfg.with_snr_db(20.0)
        assert tbf.input_scale(cfg) == tbf.input_scale(cfg2)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 4), (8, 3, 8)])
    def test_equals_per_draw_loop(self, shape):
        # The one-pass estimate must reproduce this loop bit for bit.
        cfg = default_config(*shape)
        rng = np.random.default_rng(tbf.INPUT_SCALE_SEED)
        vals = []
        for _ in range(tbf.INPUT_SCALE_SAMPLES):
            users = sample_users(rng, cfg)
            layout = random_feasible_layout(rng, cfg)
            h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
            ht = effective_channel(h, build_pinching_matrix(layout, cfg.guide_wavelength))
            vals += [ht.real.ravel(), ht.imag.ravel()]
        assert tbf.input_scale(cfg) == float(np.std(np.concatenate(vals)))

    @pytest.mark.parametrize("shape,value", [((2, 1, 2), 0.005680715350868684),
                                             ((8, 3, 8), 0.00571687599874158)])
    def test_pinned_values(self, shape, value):
        # Every checkpoint stores this value as tbf.input_scale; a changed
        # random stream would silently change what those checkpoints mean.
        assert tbf.input_scale(default_config(*shape)) == value

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 4096])
    def test_independent_of_chunk(self, monkeypatch, chunk):
        cfg = default_config(3, 2, 4)
        tbf._input_scale_cached.cache_clear()
        value = tbf.input_scale(cfg)
        tbf._input_scale_cached.cache_clear()
        monkeypatch.setattr(tbf, "INPUT_SCALE_CHUNK", chunk)
        try:
            assert tbf.input_scale(cfg) == value
        finally:
            tbf._input_scale_cached.cache_clear()

    def test_traced_peak_is_bounded(self):
        # (8, 3, 8): 2.3 MB, of which the (1000, 2, N, K) Re/Im array holds
        # 1 MB; 14.3 MB while all 1000 draws went through the oracle at once.
        import tracemalloc
        cfg = default_config(8, 3, 8)
        tbf._input_scale_cached.cache_clear()
        tracemalloc.start()
        try:
            tbf.input_scale(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            tbf._input_scale_cached.cache_clear()
        assert peak <= 4e6
