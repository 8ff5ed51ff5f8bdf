import numpy as np
import pytest

from pinchbeam import pipeline
from pinchbeam.autodiff import Tape
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.errors import SingularityError
from pinchbeam.physics import (AntennaLayout, UserPositions,
                               build_pinching_matrix, compute_channel,
                               compute_se, effective_channel)

MICRO = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)


class TestEffectiveChannelOnTape:
    def test_matches_reference_physics(self):
        cfg = default_config(2, 3, 2)
        rng = np.random.default_rng(0)
        phi = rng.uniform(0, cfg.D, (2, cfg.K, 2))
        gaps = cfg.min_gap_m + rng.uniform(0, 0.3, (2, cfg.N, cfg.M - 1))
        first = rng.uniform(0, 5, (2, cfg.N))
        positions = first[..., None] + np.concatenate(
            [np.zeros((2, cfg.N, 1)), np.cumsum(gaps, axis=-1)], axis=-1)
        tape = Tape()
        ht = pipeline.effective_channel_on_tape(tape, tape.constant(positions),
                                                phi, cfg)
        for b in range(2):
            layout = AntennaLayout(first[b], gaps[b], cfg.waveguide_y(), cfg.d)
            h = compute_channel(UserPositions.from_xy(phi[b]), layout,
                                cfg.wavelength, cfg.path_const)
            g = build_pinching_matrix(layout, cfg.guide_wavelength)
            expected = effective_channel(h, g)
            np.testing.assert_allclose(ht.value[b], expected, rtol=1e-12,
                                       atol=1e-15)

    def test_user_on_antenna_raises(self):
        cfg = default_config(1, 1, 1)
        phi = np.array([[[2.0, cfg.waveguide_y()[0]]]])
        positions = np.full((1, 1, 1), 2.0)
        tape = Tape()
        cfg0 = default_config(1, 1, 1)
        # Zero height puts the antenna onto the user plane.
        from dataclasses import replace
        with pytest.raises(SingularityError):
            pipeline.effective_channel_on_tape(
                tape, tape.constant(positions), phi,
                replace(cfg0, height_m=1e-9))


class TestSeOnTape:
    def test_matches_reference(self):
        cfg = default_config(2, 1, 2)
        rng = np.random.default_rng(1)
        ht = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        tape = Tape()
        se = pipeline.se_on_tape(tape, tape.constant(ht),
                                 tape.constant(w), cfg.noise_power_w)
        np.testing.assert_allclose(se.value, compute_se(ht, w, cfg.noise_power_w),
                                   rtol=1e-12)


class TestPolicyForward:
    def test_full_stack_consistency(self):
        cfg = default_config(2, 2, 2)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        phi = np.random.default_rng(2).uniform(0, cfg.D, (cfg.K, 2))
        result = pipeline.policy_forward(phi, store, cfg, MICRO)
        h = compute_channel(UserPositions.from_xy(phi), result.layout,
                            cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(result.layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        assert compute_se(ht, result.w, cfg.noise_power_w) == pytest.approx(
            result.se, rel=1e-10)

    def test_batched_equals_single(self):
        cfg = default_config(2, 1, 2)
        store = pipeline.init_parameters(cfg, MICRO, 1)
        phi = np.random.default_rng(3).uniform(0, cfg.D, (4, cfg.K, 2))
        batched = pipeline.forward_on_tape(Tape(), phi, store, cfg, MICRO)
        for i in range(4):
            single = pipeline.policy_forward(phi[i], store, cfg, MICRO)
            assert single.se == pytest.approx(float(batched.se.value[i]),
                                              rel=1e-12)


class TestComplexTape:
    def test_one_complex_solve_and_no_pairing_after_channel(self):
        # The K x K system is one complex solve node, not a real 2K x 2K block
        # system assembled from concats and read back through slices.
        cfg = default_config(3, 2, 3)
        phi = np.random.default_rng(4).uniform(0, cfg.D, (2, cfg.K, 2))
        tape = Tape()
        out = pipeline.forward_on_tape(tape, phi, pipeline.init_parameters(
            cfg, ModelConfig(), 0), cfg, ModelConfig())
        solves = [i for i, op in enumerate(tape.ops) if op == "solve"]
        assert len(solves) == 1
        x = tape.values[solves[0]]
        assert x.dtype == np.complex128 and x.shape == (2, cfg.K, cfg.K)
        after = tape.ops[out.h_tilde.idx + 1:]
        assert "concat" not in after and "slice_axis" not in after
        assert out.h_tilde.value.dtype == out.w.value.dtype == np.complex128
