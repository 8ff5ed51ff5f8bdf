import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchbeam import verify
from pinchbeam.config import ModelConfig, SystemConfig, default_config
from pinchbeam.errors import (ConstraintViolationError, InvalidConfigError,
                              SingularityError)
from pinchbeam.physics import (AntennaLayout, UserPositions, Violation,
                               build_pinching_matrix, check_feasibility,
                               compute_channel, compute_se, effective_channel,
                               feasibility_margins, layout_channel,
                               layout_positions, random_feasible_layout,
                               random_scenarios, sample_users)


def make_layout(cfg, first_x, gaps=None):
    if gaps is None:
        gaps = np.zeros((cfg.N, cfg.M - 1))
    return layout_positions(cfg, np.asarray(first_x, dtype=float), np.asarray(gaps, dtype=float))


class TestDeriveConstants:
    def test_default_carrier(self):
        cfg = default_config(1, 1, 1)
        assert cfg.wavelength == pytest.approx(1.0707e-2, rel=1e-4)
        assert cfg.guide_wavelength == pytest.approx(7.648e-3, rel=1e-4)
        assert cfg.guide_wavelength == cfg.wavelength / 1.4
        assert cfg.path_const == pytest.approx(2.99792458e8 / (2 * math.pi * 28e9), rel=1e-15)

    def test_unit_refractive_index(self):
        cfg = SystemConfig(n_waveguides=1, n_pinch_per_wg=1, n_users=1, refractive_index=1.0)
        assert cfg.guide_wavelength == cfg.wavelength

    def test_invalid_inputs(self):
        with pytest.raises(InvalidConfigError):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=1, n_users=1, carrier_freq_hz=-1.0)
        with pytest.raises(InvalidConfigError):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=1, n_users=1, refractive_index=0.9)


class TestSystemConfig:
    def test_defaults_match_derivations(self):
        cfg = default_config(2, 3, 2)
        assert cfg.wavelength == 2.99792458e8 / 28e9
        assert cfg.guide_wavelength == cfg.wavelength / 1.4
        assert cfg.path_const == 2.99792458e8 / (2.0 * math.pi * 28e9)
        assert cfg.min_gap_m == cfg.guide_wavelength  # default minimum gap is one guide wavelength

    def test_json_round_trip(self, tmp_path):
        cfg = default_config(2, 3, 4, snr_db=17.0)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert SystemConfig.load(path) == cfg

    def test_unknown_and_missing_keys(self):
        cfg = default_config(1, 1, 1)
        doc = cfg.to_json_dict()
        doc["bogus"] = 1
        with pytest.raises(InvalidConfigError):
            SystemConfig.from_json_dict(doc)
        doc = cfg.to_json_dict()
        del doc["n_users"]
        with pytest.raises(InvalidConfigError):
            SystemConfig.from_json_dict(doc)

    def test_infeasible_gap_count(self):
        with pytest.raises(InvalidConfigError):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=3, n_users=1,
                         region_side_m=1.0, min_gap_m=0.6)
        # 9.995 m < D = 10 m, but the placement GNN reserves 1e-3 D.
        with pytest.raises(InvalidConfigError, match="span margin"):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=2, n_users=1, min_gap_m=9.995)

    def test_counts_validated(self):
        with pytest.raises(InvalidConfigError):
            SystemConfig(n_waveguides=0, n_pinch_per_wg=1, n_users=1)

    @pytest.mark.parametrize("key,value", [
        ("region_side_m", math.nan), ("power_budget_w", math.inf),
        ("min_gap_m", math.nan), ("n_users", 2.7), ("n_waveguides", True),
        ("height_m", "3.0"),
    ])
    def test_json_values_validated(self, key, value):
        doc = default_config(2, 1, 2).to_json_dict()
        doc[key] = value
        with pytest.raises(InvalidConfigError, match=key):
            SystemConfig.from_json_dict(doc)

    def test_integral_float_count_accepted(self):
        doc = default_config(2, 1, 2).to_json_dict()
        doc["n_users"] = 2.0
        cfg = SystemConfig.from_json_dict(doc)
        assert cfg == default_config(2, 1, 2)
        assert type(cfg.n_users) is int

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, math.nan])
    def test_snr_out_of_float_range_rejected(self, snr_db):
        # 10^400 overflows a float and 10^-400 underflows to a zero budget.
        with pytest.raises(InvalidConfigError, match="snr_db"):
            default_config(2, 1, 2).with_snr_db(snr_db)
        with pytest.raises(InvalidConfigError, match="snr_db"):
            default_config(2, 1, 2, snr_db=snr_db)

    @pytest.mark.parametrize("value", [-1.0, math.nan, 0.0, True])
    def test_path_const_override_validated(self, value):
        # Each used to get through: -1.0 to a NaN input scale and a math
        # domain error in the channel, NaN to an SE of nan, 0.0 to a
        # ZeroDivisionError, and True to eta = 1.0.
        with pytest.raises(InvalidConfigError, match="path_const_override_m2"):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=1, n_users=1,
                         path_const_override_m2=value)

    def test_waveguide_y_uniform(self):
        cfg = default_config(4, 1, 1)
        np.testing.assert_allclose(cfg.waveguide_y(), [1.25, 3.75, 6.25, 8.75])

    def test_waveguide_y_mode_validated(self):
        with pytest.raises(InvalidConfigError):
            SystemConfig(n_waveguides=1, n_pinch_per_wg=1, n_users=1,
                         waveguide_y_mode="custom")


class TestModelConfig:
    @pytest.mark.parametrize("key,value", [
        ("hidden", 2.5), ("hidden", True), ("pbf_layers", 1.5),
        ("message_dim", math.nan),
    ])
    def test_values_validated(self, key, value):
        with pytest.raises(InvalidConfigError):
            ModelConfig(**{key: value})

    def test_format_1_activation_key(self):
        # Every hidden layer is relu, so the JSON has no activation key; a
        # format-1 "relu" is read and dropped, any other value is rejected.
        model = ModelConfig(hidden=6)
        doc = model.to_json_dict()
        assert "activation" not in doc
        assert ModelConfig.from_json_dict({**doc, "activation": "relu"}) == model
        for act in ("tanh", "sigmoid", None):
            with pytest.raises(InvalidConfigError):
                ModelConfig.from_json_dict({**doc, "activation": act})


class TestLayout:
    def test_single_antenna(self):
        cfg = default_config(1, 1, 1)
        layout = make_layout(cfg, [2.0])
        pos = layout.antenna_positions()
        np.testing.assert_allclose(pos, [[[2.0, 5.0, 3.0]]])

    def test_cumulative_positions(self):
        cfg = default_config(1, 3, 1)
        layout = make_layout(cfg, [1.0], [[0.5, 0.5]])
        np.testing.assert_allclose(layout.x_positions(), [[1.0, 1.5, 2.0]])

    def test_exceeds_region(self):
        cfg = default_config(1, 2, 1)
        with pytest.raises(ConstraintViolationError):
            make_layout(cfg, [9.9], [[0.5]])

    def test_gap_below_minimum(self):
        cfg = default_config(1, 2, 1)
        with pytest.raises(ConstraintViolationError):
            make_layout(cfg, [1.0], [[cfg.min_gap_m / 2]])

    def test_negative_first_x(self):
        cfg = default_config(1, 1, 1)
        with pytest.raises(ConstraintViolationError):
            make_layout(cfg, [-0.1])

    @pytest.mark.parametrize("gaps_shape", [(4, 2, 1), (2,), (3, 1)])
    def test_gaps_must_match_first_x(self, gaps_shape):
        # A batch of gaps under one first_x must not be folded into slots.
        with pytest.raises(ValueError, match="gaps must be"):
            AntennaLayout([1.0, 2.0], np.full(gaps_shape, 0.5), [2.5, 7.5], 3.0)


class TestChannel:
    def test_overhead_entry(self):
        # User directly below a single antenna at x=0: r = 3 m exactly.
        cfg = default_config(1, 1, 1)
        layout = AntennaLayout([0.0], np.zeros((1, 0)), [0.0], cfg.d)
        users = UserPositions.from_xy([[0.0, 0.0]])
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        expected = (math.sqrt(cfg.path_const)
                    * cmath.exp(-2j * math.pi * 3.0 / cfg.wavelength) / 3.0)
        assert abs(h[0, 0] - expected) < 1e-15
        assert abs(h[0, 0]) == pytest.approx(1.3765e-2, rel=1e-3)

    def test_doubling_distance_halves_magnitude(self):
        cfg = default_config(1, 1, 1)
        users = UserPositions.from_xy([[0.0, 5.0]])
        # r = 3 (directly below) vs r = 6 (y-offset sqrt(27)).
        near = AntennaLayout([0.0], np.zeros((1, 0)), [5.0], cfg.d)
        far = AntennaLayout([0.0], np.zeros((1, 0)), [5.0 + math.sqrt(27.0)], cfg.d)
        h_near = compute_channel(users, near, cfg.wavelength, cfg.path_const)
        h_far = compute_channel(users, far, cfg.wavelength, cfg.path_const)
        assert abs(h_far[0, 0]) == pytest.approx(abs(h_near[0, 0]) / 2.0, rel=1e-12)

    def test_user_swap_swaps_columns(self):
        cfg = default_config(2, 2, 2)
        rng = np.random.default_rng(3)
        layout = random_feasible_layout(rng, cfg)
        users = sample_users(rng, cfg)
        swapped = UserPositions(users.positions[::-1].copy())
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        h2 = compute_channel(swapped, layout, cfg.wavelength, cfg.path_const)
        np.testing.assert_array_equal(h[:, ::-1], h2)

    def test_magnitude_law(self):
        cfg = default_config(2, 3, 4)
        rng = np.random.default_rng(7)
        for _ in range(10):
            layout = random_feasible_layout(rng, cfg)
            users = sample_users(rng, cfg)
            h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
            ant = layout.antenna_positions().reshape(-1, 3)
            r = np.linalg.norm(users.positions[None] - ant[:, None], axis=2)
            np.testing.assert_allclose(np.abs(h) * r, math.sqrt(cfg.path_const),
                                       rtol=1e-12)

    def test_zero_distance_raises(self):
        cfg = default_config(1, 1, 1)
        layout = AntennaLayout([2.0], np.zeros((1, 0)), [5.0], 0.0)
        users = UserPositions.from_xy([[2.0, 5.0]])
        with pytest.raises(SingularityError):
            compute_channel(users, layout, cfg.wavelength, cfg.path_const)

    def test_row_stacking_waveguide_major(self):
        cfg = default_config(2, 2, 1)
        layout = layout_positions(cfg, [1.0, 2.0], np.full((2, 1), 0.5))
        users = sample_users(11, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        ant = layout.antenna_positions()  # (N, M, 3)
        # Row n*M + m must match antenna (n, m).
        for n in range(2):
            for m in range(2):
                r = np.linalg.norm(users.positions[0] - ant[n, m])
                assert abs(h[n * 2 + m, 0]) == pytest.approx(
                    math.sqrt(cfg.path_const) / r, rel=1e-12)


class TestPinchingMatrix:
    def test_single_antenna_blocks_unit_modulus(self):
        cfg = default_config(3, 1, 1)
        layout = make_layout(cfg, [1.0, 2.0, 3.0])
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        for n in range(3):
            assert abs(abs(g[n, n]) - 1.0) < 1e-15
        assert np.all(g[~np.eye(3, dtype=bool)] == 0.0)

    def test_block_norms_are_one(self):
        cfg = default_config(2, 4, 1)
        rng = np.random.default_rng(5)
        layout = random_feasible_layout(rng, cfg)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        for n in range(2):
            block = g[n * 4:(n + 1) * 4, n]
            assert np.linalg.norm(block) == pytest.approx(1.0, rel=1e-14)

    def test_full_guide_wavelength_phase(self):
        cfg = default_config(1, 2, 1)
        lam_g = cfg.guide_wavelength
        layout = layout_positions(cfg, [lam_g], np.full((1, 1), lam_g))
        g = build_pinching_matrix(layout, lam_g)
        # x = lambda_g: a full guide wavelength from the feed, phase wraps to 1.
        assert g[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert g[1, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_energy_preserving(self):
        cfg = default_config(2, 3, 2)
        rng = np.random.default_rng(9)
        layout = random_feasible_layout(rng, cfg)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        for _ in range(10):
            w = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
            assert np.linalg.norm(g @ w) == pytest.approx(np.linalg.norm(w), rel=1e-12)


class TestEffectiveChannel:
    def test_identity_like(self):
        # M=1 with antenna at x=0: zero pinching phase, so H_tilde == H.
        cfg = default_config(2, 1, 2)
        layout = AntennaLayout([0.0, 0.0], np.zeros((2, 0)), cfg.waveguide_y(), cfg.d)
        users = sample_users(2, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        np.testing.assert_allclose(ht, h, atol=1e-15)

    def test_two_antenna_average(self):
        # g = [1, 1]/sqrt(2) when both antennas sit a multiple of lambda_g
        # from the feed; block entries then average as (a + b)/sqrt(2).
        cfg = default_config(1, 2, 1)
        lam_g = cfg.guide_wavelength
        layout = layout_positions(cfg, [lam_g], np.full((1, 1), 2 * lam_g))
        users = sample_users(4, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        np.testing.assert_allclose(ht[0, 0], (h[0, 0] + h[1, 0]) / math.sqrt(2),
                                   rtol=1e-10)

    def test_consistency_with_direct_product(self):
        cfg = default_config(3, 2, 2)
        rng = np.random.default_rng(13)
        for _ in range(10):
            layout = random_feasible_layout(rng, cfg)
            users = sample_users(rng, cfg)
            h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
            g = build_pinching_matrix(layout, cfg.guide_wavelength)
            ht = effective_channel(h, g)
            w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            for k in range(2):
                direct = h[:, k].conj() @ (g @ w)
                via = ht[:, k].conj() @ w
                np.testing.assert_allclose(direct, via, rtol=1e-12)

    def test_block_permutation(self):
        cfg = default_config(3, 2, 2)
        rng = np.random.default_rng(17)
        layout = random_feasible_layout(rng, cfg)
        users = sample_users(rng, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        perm = [2, 0, 1]
        row_perm = np.concatenate([np.arange(n * 2, n * 2 + 2) for n in perm])
        ht_p = effective_channel(h[row_perm], g[np.ix_(row_perm, perm)])
        np.testing.assert_allclose(ht_p, ht[perm], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.zeros((4, 2)), np.zeros((6, 3)))


class TestComputeSe:
    def test_single_user_unit_snr(self):
        assert compute_se([[1.0 + 0j]], [[1.0 + 0j]], 1.0) == pytest.approx(1.0)

    def test_zero_precoder(self):
        assert compute_se(np.eye(2), np.zeros((2, 2)), 1.0) == 0.0

    def test_two_orthogonal_users(self):
        assert compute_se(np.eye(2), np.eye(2), 1.0) == pytest.approx(2.0)

    def test_nonpositive_noise(self):
        with pytest.raises(InvalidConfigError):
            compute_se(np.eye(2), np.eye(2), 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ht = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            se = compute_se(ht, w, 0.7)
            pu = rng.permutation(3)
            pa = rng.permutation(3)
            assert compute_se(ht[:, pu], w[:, pu], 0.7) == pytest.approx(se, abs=1e-9)
            assert compute_se(ht[pa], w[pa], 0.7) == pytest.approx(se, abs=1e-9)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(29)
        ht = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
        w = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
        batched = compute_se(ht, w, 1.3)
        looped = [compute_se(ht[i], w[i], 1.3) for i in range(5)]
        np.testing.assert_allclose(batched, looped, rtol=1e-14)


class TestCheckFeasibility:
    def test_feasible_instance(self):
        cfg = default_config(2, 2, 2)
        layout = random_feasible_layout(np.random.default_rng(1), cfg)
        w = np.full((2, 2), math.sqrt(cfg.power_budget_w / 4.0), dtype=complex)
        assert check_feasibility(layout, w, cfg) == []

    def test_single_gap_violation_named(self):
        cfg = default_config(2, 3, 1)
        gaps = np.full((2, 2), 2 * cfg.min_gap_m)
        gaps[1, 0] = cfg.min_gap_m / 2
        layout = AntennaLayout([1.0, 1.0], gaps, cfg.waveguide_y(), cfg.d)
        violations = check_feasibility(layout, None, cfg)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "gap_min"
        assert v.index == (1, 1)
        assert v.margin == pytest.approx(cfg.min_gap_m / 2)

    def test_power_violation_margin(self):
        cfg = default_config(1, 1, 1)
        w = np.array([[math.sqrt(2 * cfg.power_budget_w)]], dtype=complex)
        violations = check_feasibility(None, w, cfg)
        assert len(violations) == 1
        assert violations[0].kind == "power"
        assert violations[0].margin == pytest.approx(cfg.power_budget_w, rel=1e-9)

    def test_batched_layout_rejected(self):
        cfg = default_config(2, 2, 2)
        _, layout = random_scenarios(np.random.default_rng(3), cfg, 2)
        with pytest.raises(ValueError, match="one layout"):
            check_feasibility(layout, None, cfg)

    def test_batched_precoder_rejected(self):
        # Summed over the batch, three in-budget precoders read as a power violation.
        cfg = default_config(2, 2, 2)
        w = np.full((3, 2, 2), math.sqrt(cfg.power_budget_w / 4.0), dtype=complex)
        assert check_feasibility(None, w[0], cfg) == []
        with pytest.raises(ValueError, match=r"one \(N, K\) precoder"):
            check_feasibility(None, w, cfg)

    def test_position_out_of_region(self):
        cfg = default_config(1, 1, 1)
        layout = AntennaLayout([cfg.D + 0.5], np.zeros((1, 0)), cfg.waveguide_y(), cfg.d)
        violations = check_feasibility(layout, None, cfg)
        assert [v.kind for v in violations] == ["position_high"]
        assert violations[0].margin == pytest.approx(0.5)


class TestLayoutChannel:
    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (8, 3, 8)])
    def test_equals_the_three_calls_bit_for_bit(self, shape):
        cfg = default_config(*shape)
        users, layout = random_scenarios(np.random.default_rng(21), cfg, 7)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        expect = effective_channel(h, build_pinching_matrix(layout, cfg.guide_wavelength))
        got = layout_channel(users, layout, cfg)
        assert got.shape == (7, cfg.N, cfg.K) and got.dtype == np.complex128
        assert got.tobytes() == expect.tobytes()


def _broken_variants(cfg, layout, rng):
    """(first_x, gaps) of a batch of feasible layouts and of three broken
    copies: one short gap, one x below 0 and one x above D."""
    fx, gaps = layout.first_x, layout.gaps
    b = int(rng.integers(len(fx)))
    n = int(rng.integers(cfg.N))
    out = [(fx, gaps)]
    if cfg.M > 1:
        short = gaps.copy()
        short[b, n, rng.integers(cfg.M - 1)] = cfg.min_gap_m * rng.uniform(0.0, 1.0)
        out.append((fx, short))
    low = fx.copy()
    low[b, n] = -1e-9
    high = fx.copy()
    high[b, n] = cfg.D - gaps[b, n].sum() + 1e-9
    return out + [(low, gaps), (high, gaps)]


class TestFeasibilityRule:
    @pytest.mark.parametrize("shape", [(2, 1, 2), (2, 3, 2), (3, 2, 4)])
    def test_layout_positions_raises_iff_check_feasibility_finds(self, shape):
        cfg = default_config(*shape)
        rng = np.random.default_rng(31)
        for _ in range(10):
            _, layout = random_scenarios(rng, cfg, 4)
            for fx, gaps in _broken_variants(cfg, layout, rng):
                found = [check_feasibility(AntennaLayout(fx[i], gaps[i], cfg.waveguide_y(),
                                                         cfg.d), None, cfg) for i in range(4)]
                for i in range(4):
                    if found[i]:
                        with pytest.raises(ConstraintViolationError):
                            layout_positions(cfg, fx[i], gaps[i])
                    else:
                        layout_positions(cfg, fx[i], gaps[i])
                if any(found):
                    first = next(i for i in range(4) if found[i])
                    with pytest.raises(ConstraintViolationError, match=f"^sample {first}: "):
                        layout_positions(cfg, fx, gaps)
                else:
                    layout_positions(cfg, fx, gaps)

    def test_margins_are_the_signed_distances(self):
        cfg = default_config(1, 3, 1)
        short, low, high = feasibility_margins(np.array([[0.5, 0.004]]),
                                               np.array([[-0.5, 0.0, 10.25]]), cfg)
        np.testing.assert_array_equal(short, [[cfg.min_gap_m - 0.5, cfg.min_gap_m - 0.004]])
        np.testing.assert_array_equal(low, [[0.5, -0.0, -10.25]])
        np.testing.assert_array_equal(high, [[-10.5, -10.0, 0.25]])

    def test_messages(self):
        cfg = default_config(2, 3, 1)
        gaps = np.full((2, 2), 0.5)
        gaps[1, 1] = 0.004
        with pytest.raises(ConstraintViolationError) as err:
            layout_positions(cfg, [1.0, 1.0], gaps)
        assert str(err.value) == ("gap 0.004 m below minimum 0.00764777 m "
                                  "at waveguide 1, slot 2")
        with pytest.raises(ConstraintViolationError) as err:
            layout_positions(cfg, np.array([[1.0, 1.0], [1.0, -0.25]]), np.stack([gaps] * 2))
        assert str(err.value).startswith("sample 0: gap 0.004 m")
        gaps[1, 1] = 0.5
        with pytest.raises(ConstraintViolationError) as err:
            layout_positions(cfg, np.array([[1.0, 1.0], [1.0, -0.25]]), np.stack([gaps] * 2))
        assert str(err.value) == ("sample 1: antenna x-positions must lie in [0, 10.0], "
                                  "got [-0.25, 2]")
        with pytest.raises(ConstraintViolationError) as err:
            layout_positions(cfg, [9.5, 1.0], gaps)
        assert str(err.value) == "antenna x-positions must lie in [0, 10.0], got [1, 10.5]"

    def test_violations_in_slot_order(self):
        # Gaps first; then positions waveguide-major, each below 0 or above D.
        cfg = default_config(2, 3, 1)
        gaps = np.array([[0.004, 0.5], [0.5, 0.001]])
        layout = AntennaLayout([9.5, -0.75], gaps, cfg.waveguide_y(), cfg.d)
        x = layout.x_positions()
        got = check_feasibility(layout, None, cfg)
        assert got == [Violation("gap_min", (0, 1), cfg.min_gap_m - 0.004),
                       Violation("gap_min", (1, 2), cfg.min_gap_m - 0.001),
                       Violation("position_high", (0, 2), x[0, 2] - cfg.D),
                       Violation("position_low", (1, 0), 0.75),
                       Violation("position_low", (1, 1), -x[1, 1]),
                       Violation("position_low", (1, 2), -x[1, 2])]
        assert all(type(i) is int for v in got for i in v.index)


class TestSampleUsers:
    def test_deterministic(self):
        cfg = default_config(1, 1, 4)
        a = sample_users(123, cfg)
        b = sample_users(123, cfg)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_inside_square_and_flat_z(self):
        cfg = default_config(1, 1, 100)
        users = sample_users(7, cfg)
        assert np.all(users.positions[:, :2] >= 0.0)
        assert np.all(users.positions[:, :2] <= cfg.D)
        assert np.all(users.positions[:, 2] == 0.0)

    def test_mean_within_clt_bound(self):
        # Monte-Carlo oracle: mean of U[0, D] is D/2 with sd D/sqrt(12 n).
        cfg = default_config(1, 1, 1)
        rng = np.random.default_rng(31)
        xs = np.array([sample_users(rng, cfg).positions[0, 0] for _ in range(10000)])
        bound = 5.0 * cfg.D / math.sqrt(12.0 * 10000)
        assert abs(xs.mean() - cfg.D / 2) < bound


def _sample_of(users, layout, i):
    """Sample i of a batched (users, layout) pair, as per-sample objects."""
    return (UserPositions(users.positions[i]),
            AntennaLayout(layout.first_x[i], layout.gaps[i], layout.waveguide_y,
                          layout.height))


BATCH_SHAPES = [(1, 1, 1), (2, 3, 2), (3, 2, 4)]


class TestBatchedPhysics:
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_random_scenarios_match_per_draw_loop(self, shape):
        cfg = default_config(*shape)
        users, layout = random_scenarios(np.random.default_rng(5), cfg, 6)
        rng = np.random.default_rng(5)
        for i in range(6):
            u = sample_users(rng, cfg)
            lay = random_feasible_layout(rng, cfg)
            np.testing.assert_array_equal(users.positions[i], u.positions)
            np.testing.assert_array_equal(layout.first_x[i], lay.first_x)
            np.testing.assert_array_equal(layout.gaps[i], lay.gaps)
        # The draw consumed exactly the loop's share of the stream.
        assert rng.random() == np.random.default_rng(5).random(
            6 * (2 * cfg.K + cfg.N * cfg.M) + 1)[-1]

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_batched_equals_stack_of_samples(self, shape):
        cfg = default_config(*shape)
        users, layout = random_scenarios(np.random.default_rng(7), cfg, 6)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        w = np.random.default_rng(8).standard_normal(ht.shape) + 0j
        se = compute_se(ht, w, cfg.noise_power_w)
        assert h.dtype == g.dtype == ht.dtype == np.complex128
        assert ht.shape == (6, cfg.N, cfg.K)
        for i in range(6):
            u, lay = _sample_of(users, layout, i)
            hi = compute_channel(u, lay, cfg.wavelength, cfg.path_const)
            gi = build_pinching_matrix(lay, cfg.guide_wavelength)
            np.testing.assert_array_equal(layout.antenna_positions()[i], lay.antenna_positions())
            np.testing.assert_array_equal(h[i], hi)
            np.testing.assert_array_equal(g[i], gi)
            np.testing.assert_array_equal(ht[i], effective_channel(hi, gi))
            assert se[i] == compute_se(ht[i], w[i], cfg.noise_power_w)

    def test_two_leading_axes_and_broadcast(self):
        cfg = default_config(3, 2, 4)
        users, layout = random_scenarios(np.random.default_rng(9), cfg, 6)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        grid = AntennaLayout(layout.first_x.reshape(2, 3, -1),
                             layout.gaps.reshape(2, 3, cfg.N, -1), layout.waveguide_y,
                             layout.height)
        users_grid = UserPositions(users.positions.reshape(2, 3, cfg.K, 3))
        h_grid = compute_channel(users_grid, grid, cfg.wavelength, cfg.path_const)
        np.testing.assert_array_equal(h_grid, h.reshape(2, 3, *h.shape[1:]))
        # One layout shared by a batch of users broadcasts against it.
        _, lay0 = _sample_of(users, layout, 0)
        h_shared = compute_channel(users, lay0, cfg.wavelength, cfg.path_const)
        for i in range(6):
            u, _ = _sample_of(users, layout, i)
            np.testing.assert_array_equal(
                h_shared[i], compute_channel(u, lay0, cfg.wavelength, cfg.path_const))

    def test_infeasible_sample_named(self):
        cfg = default_config(2, 2, 2)
        _, layout = random_scenarios(np.random.default_rng(11), cfg, 5)
        gaps = layout.gaps.copy()
        gaps[3, 1, 0] = cfg.min_gap_m / 2
        with pytest.raises(ConstraintViolationError,
                           match=r"^sample 3: gap .* waveguide 1, slot 1"):
            layout_positions(cfg, layout.first_x, gaps)
        first_x = layout.first_x.copy()
        first_x[2, 0] = -0.1
        with pytest.raises(ConstraintViolationError, match=r"^sample 2: antenna x-positions"):
            layout_positions(cfg, first_x, layout.gaps)
        with pytest.raises(ConstraintViolationError, match=r"^gap .* waveguide 1, slot 1"):
            layout_positions(cfg, layout.first_x[3], gaps[3])

    def test_user_on_antenna_sample_named(self):
        cfg = default_config(2, 1, 2)
        users, layout = random_scenarios(np.random.default_rng(13), cfg, 4)
        flat = AntennaLayout(layout.first_x, layout.gaps, layout.waveguide_y, 0.0)
        pos = users.positions.copy()
        pos[1, 0, :2] = flat.first_x[1, 1], flat.waveguide_y[1]
        with pytest.raises(SingularityError, match=r"^sample 1: user 0 .* antenna row 1"):
            compute_channel(UserPositions(pos), flat, cfg.wavelength, cfg.path_const)


@st.composite
def system_configs(draw):
    """Valid configs: counts 1..4 and a random region, height and carrier."""
    return SystemConfig(
        n_waveguides=draw(st.integers(1, 4)), n_pinch_per_wg=draw(st.integers(1, 4)),
        n_users=draw(st.integers(1, 4)), region_side_m=draw(st.floats(2.0, 50.0)),
        height_m=draw(st.floats(0.5, 20.0)), carrier_freq_hz=draw(st.floats(1e9, 1e11)))


class TestPhysicsProperties:
    @settings(max_examples=100)
    @given(system_configs(), st.integers(0, 2**32 - 1))
    def test_verify_checks_hold(self, cfg, seed):
        for check in (verify.check_channel_magnitude, verify.check_pinching_energy,
                      verify.check_effective_channel, verify.check_se_permutation):
            result = check(cfg, seed)
            assert result.passed, result

    @settings(max_examples=100)
    @given(system_configs(), st.integers(0, 2**32 - 1))
    def test_random_layout_feasible_by_construction(self, cfg, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            assert check_feasibility(random_feasible_layout(rng, cfg), None, cfg) == []
