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


class TestForwardWithoutRecording:
    """Inference runs on a tape that records nothing; the outputs and the
    node count are those of a recording tape."""

    @pytest.mark.parametrize("shape", [(2, 1, 2), (8, 3, 8), (3, 2, 4), (1, 1, 1), (2, 3, 1)])
    def test_outputs_and_nodes_equal_a_recording_tape(self, shape):
        cfg = default_config(*shape)
        model = ModelConfig()
        store = pipeline.init_parameters(cfg, model, 0)
        phi = np.random.default_rng(5).uniform(0, cfg.D, (3, cfg.K, 2))
        recorded, bare = Tape(), Tape(record=False)
        a = pipeline.forward_on_tape(recorded, phi, store, cfg, model)
        b = pipeline.forward_on_tape(bare, phi, store, cfg, model)
        for x, y in ((a.placement.first_x, b.placement.first_x),
                     (a.placement.gaps, b.placement.gaps),
                     (a.placement.positions_x, b.placement.positions_x),
                     (a.h_tilde, b.h_tilde), (a.w, b.w), (a.se, b.se)):
            np.testing.assert_array_equal(y.value, x.value)
        assert len(bare) == len(recorded)
        assert bare.ops == recorded.ops
        assert bare.values == []

    def test_policy_forward_peak_at_c7(self):
        # B = 1, N = K = 8, M = 3 with the default model, after a warm-up
        # call: 3.3 MB; 6.4 MB while policy_forward ran on a recording tape
        # that kept every interior value, VJP and rebuild to its return.
        import tracemalloc

        from pinchbeam.training import test_dataset
        cfg = default_config(8, 3, 8)
        model = ModelConfig()
        store = pipeline.init_parameters(cfg, model, 0)
        phi = test_dataset(cfg, 2, 0)
        pipeline.policy_forward(phi[0], store, cfg, model)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipeline.policy_forward(phi[1], store, cfg, model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6

    def test_evaluate_peak_at_c7(self):
        # Evaluation runs C7-sized shapes one draw at a time, so three draws
        # peak no higher than one policy_forward.
        import tracemalloc

        from pinchbeam import training
        cfg = default_config(8, 3, 8)
        model = ModelConfig()
        store = pipeline.init_parameters(cfg, model, 0)
        training.evaluate(store, cfg, model, 1, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training.evaluate(store, cfg, model, 3, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6

    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4)])
    def test_batched_policy_forward_stacks_single_draws(self, shape):
        cfg = default_config(*shape)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        phi = np.random.default_rng(2).uniform(0, cfg.D, (4, cfg.K, 2))
        batch = pipeline.policy_forward(phi, store, cfg, MICRO)
        assert batch.se.shape == (4,) and batch.w.shape == (4, cfg.N, cfg.K)
        assert batch.layout.first_x.shape == (4, cfg.N)
        assert batch.layout.gaps.shape == (4, cfg.N, cfg.M - 1)
        for i in range(4):
            one = pipeline.policy_forward(phi[i], store, cfg, MICRO)
            assert isinstance(one.se, float)
            assert one.se == pytest.approx(batch.se[i], rel=1e-12)
            np.testing.assert_allclose(one.w, batch.w[i], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(one.layout.x_positions(),
                                       batch.layout.x_positions()[i], rtol=1e-12)
