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


class TestWaveguidePeMap:
    def _apply(self, z, seed=0):
        specs = tbf.layer_specs(z.shape[-1], MICRO)
        store = ParameterStore()
        rng = np.random.default_rng(seed)
        ad.init_fnn(store, "tbf.layer1.qq", specs["qq"], rng)
        ad.init_fnn(store, "tbf.layer1.fq", specs["fq"], rng)
        tape = Tape()
        return tbf.waveguide_pe_map(tape, tape.constant(z), store, "tbf.layer1",
                                    ("fq", "qq"), specs).value

    def test_single_waveguide_empty_context(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((1, 1, 3, 2))
        specs = tbf.layer_specs(2, MICRO)
        store = ParameterStore()
        ad.init_fnn(store, "tbf.layer1.qq", specs["qq"], rng)
        ad.init_fnn(store, "tbf.layer1.fq", specs["fq"], rng)
        tape = Tape()
        out = tbf.waveguide_pe_map(tape, tape.constant(z), store, "tbf.layer1",
                                   ("fq", "qq"), specs)
        manual_in = np.concatenate([z, np.zeros((1, 1, 3, MICRO.message_dim))], -1)
        tape2 = Tape()
        manual = ad.fnn_forward(tape2, specs["fq"], store, "tbf.layer1.fq",
                                tape2.constant(manual_in))
        np.testing.assert_allclose(out.value, manual.value, atol=1e-15)

    def test_identical_rows_identical_outputs(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal((1, 1, 3, 2))
        z = np.repeat(row, 4, axis=1)
        out = self._apply(z)
        for n in range(1, 4):
            np.testing.assert_allclose(out[:, n], out[:, 0], atol=1e-12)

    def test_row_permutation(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 4, 3, 2))
        out = self._apply(z)
        perm = rng.permutation(4)
        out_p = self._apply(z[:, perm])
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-9)


class TestTbfLayer:
    def _layer(self, d, seed=0):
        specs = tbf.layer_specs(d.shape[-1], MICRO)
        store = ParameterStore()
        rng = np.random.default_rng(seed)
        for name in tbf.SUBNET_NAMES:
            ad.init_fnn(store, f"tbf.layer1.{name}", specs[name], rng)
        tape = Tape()
        return tbf.tbf_layer(tape, tape.constant(d), store, "tbf.layer1",
                             d.shape[-1], MICRO).value

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
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=4, message_dim=4)
        store = ParameterStore()
        store.add("tbf.head.p.W0", np.zeros((4, 1)))
        store.add("tbf.head.p.b0", np.zeros(1))
        store.add("tbf.head.lambda.W0", np.zeros((4, 1)))
        store.add("tbf.head.lambda.b0", np.zeros(1))
        tape = Tape()
        d = tape.constant(np.ones((1, 2, 2, 4)))
        p, lam = tbf.output_powers(tape, d, store, model, cfg.power_budget_w)
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
