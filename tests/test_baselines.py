import math
from dataclasses import replace

import numpy as np
import pytest

from pinchbeam.baselines import (OracleResult, baseline_closest_user,
                                 baseline_se, grid_search_oracle,
                                 random_precoder_search, structure_power_sweep,
                                 zero_forcing)
from pinchbeam.config import default_config
from pinchbeam.errors import OracleIneligibleError, RankDeficientError
from pinchbeam.physics import (UserPositions, build_pinching_matrix,
                               check_feasibility, compute_channel, compute_se,
                               effective_channel, layout_positions,
                               random_feasible_layout, sample_users)
from pinchbeam.training import test_dataset as held_out_dataset


def physical_channel(cfg, seed):
    rng = np.random.default_rng(seed)
    users = sample_users(rng, cfg)
    layout = random_feasible_layout(rng, cfg)
    h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    return effective_channel(h, g)


def closest_user_x(cfg, xy):
    """x of the user closest to each waveguide axis, lowest index on ties."""
    dist2 = (xy[None, :, 1] - cfg.waveguide_y()[:, None]) ** 2 + cfg.d ** 2
    return xy[np.argmin(dist2, axis=1), 0]


class TestZeroForcing:
    def test_identity_channel(self):
        w = zero_forcing(np.eye(2), 2.0)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)

    def test_interference_nulled(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ht = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            w = zero_forcing(ht, 5.0)
            cross = ht.conj().T @ w
            for k in range(3):
                for j in range(3):
                    if k != j:
                        bound = 1e-9 * np.linalg.norm(ht[:, k]) * np.linalg.norm(w[:, j])
                        assert abs(cross[k, j]) <= bound

    def test_power_and_per_user_split(self):
        rng = np.random.default_rng(1)
        ht = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        w = zero_forcing(ht, 6.0)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(6.0, rel=1e-12)
        np.testing.assert_allclose(np.sum(np.abs(w) ** 2, axis=0), 3.0, rtol=1e-12)

    def test_single_user_is_matched_filter(self):
        rng = np.random.default_rng(2)
        ht = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        w = zero_forcing(ht, 1.0)
        np.testing.assert_allclose(w[:, 0], ht[:, 0] / np.linalg.norm(ht), rtol=1e-12)

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficientError):
            zero_forcing(np.ones((2, 3)), 1.0)

    def test_rank_deficiency_detected(self):
        ht = np.ones((3, 2), dtype=complex)  # identical columns
        with pytest.raises(RankDeficientError):
            zero_forcing(ht, 1.0)


class TestBaseline:
    def test_single_user_antenna_at_user_x(self):
        cfg = default_config(1, 1, 1)
        users = UserPositions.from_xy([[3.7, 6.1]])
        res = baseline_closest_user(users, cfg)
        assert res.layout.first_x[0] == pytest.approx(3.7)
        # K = 1: ZF is the matched filter at full power.
        assert np.sum(np.abs(res.w) ** 2) == pytest.approx(cfg.power_budget_w)

    def test_closest_by_waveguide_axis(self):
        cfg = default_config(2, 1, 2)  # waveguides at y = 2.5, 7.5
        users = UserPositions.from_xy([[1.0, 7.0], [9.0, 3.0]])
        res = baseline_closest_user(users, cfg)
        # Waveguide 0 (y=2.5) is closer to user 1, waveguide 1 to user 0.
        assert res.layout.first_x[0] == pytest.approx(9.0)
        assert res.layout.first_x[1] == pytest.approx(1.0)

    def test_tie_breaks_lowest_index(self):
        cfg = default_config(1, 1, 2)  # single waveguide at y = 5
        users = UserPositions.from_xy([[2.0, 4.0], [8.0, 6.0]])
        res = baseline_closest_user(users, cfg)
        assert res.layout.first_x[0] == pytest.approx(2.0)

    def test_single_antenna_is_closest_user_then_zf(self):
        # At M = 1 the cluster has no span: the antenna sits at the closest
        # user's x, bit for bit, and W is ZF on that layout's channel.
        cfg = default_config(2, 1, 2)
        for xy in held_out_dataset(cfg, 500, 1):
            users = UserPositions.from_xy(xy)
            res = baseline_closest_user(users, cfg)
            x = closest_user_x(cfg, xy)
            layout = layout_positions(cfg, x, np.zeros((cfg.N, 0)))
            ht = effective_channel(
                compute_channel(users, layout, cfg.wavelength, cfg.path_const),
                build_pinching_matrix(layout, cfg.guide_wavelength))
            assert not res.used_pinv
            assert res.layout.first_x.tobytes() == x.tobytes()
            assert res.layout.gaps.shape == (cfg.N, 0)
            assert res.h_tilde.tobytes() == ht.tobytes()
            assert res.w.tobytes() == zero_forcing(ht, cfg.power_budget_w).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 2), (4, 3, 4), (8, 3, 8), (1, 2, 1)])
    def test_cluster_layout_feasible(self, shape):
        # Random draws, then every user at x = 0 and every user at x = D.
        cfg = default_config(*shape)
        rng = np.random.default_rng(5)
        span = (cfg.M - 1) * cfg.min_gap_m
        for i in range(60):
            xy = rng.uniform(0.0, cfg.D, size=(cfg.K, 2))
            if i % 3:
                xy[:, 0] = 0.0 if i % 3 == 1 else cfg.D
            res = baseline_closest_user(UserPositions.from_xy(xy), cfg)
            assert check_feasibility(res.layout, res.w, cfg) == []
            assert np.all(res.layout.gaps == cfg.min_gap_m)
            # Centred on the closest user unless that would leave [0, D].
            np.testing.assert_allclose(
                res.layout.first_x + span / 2,
                np.clip(closest_user_x(cfg, xy), span / 2, cfg.D - span / 2),
                rtol=0.0, atol=1e-12)
            assert np.all(np.isfinite(res.w))

    def test_cluster_end_rounding_kept_inside_region(self):
        # fl(D - span) + span rounds one ulp past D at this D, gap and M.
        cfg = replace(default_config(1, 4, 1), region_side_m=10.631004817341024,
                      min_gap_m=0.04338144659510087)
        res = baseline_closest_user(UserPositions.from_xy([[cfg.D, 1.0]]), cfg)
        assert check_feasibility(res.layout, res.w, cfg) == []
        assert res.layout.x_positions()[0, -1] == pytest.approx(cfg.D, abs=1e-12)

    def test_user_permutation_leaves_se(self):
        cfg = default_config(2, 1, 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            users = sample_users(rng, cfg)
            se = baseline_se(users, cfg)
            perm = UserPositions(users.positions[::-1].copy())
            assert baseline_se(perm, cfg) == pytest.approx(se, abs=1e-9)

    def test_outputs_feasible(self):
        cfg = default_config(2, 1, 2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            users = sample_users(rng, cfg)
            res = baseline_closest_user(users, cfg)
            assert check_feasibility(res.layout, res.w, cfg) == []

    def test_se_nondecreasing_in_snr(self):
        # ZF directions are power-independent and interference is nulled, so
        # per-sample SE grows with the budget. Monte-Carlo over 100 samples.
        rng = np.random.default_rng(8)
        cfgs = [default_config(2, 1, 2, snr_db=s) for s in (0.0, 10.0, 20.0)]
        for _ in range(100):
            users = sample_users(rng, cfgs[0])
            ses = [baseline_se(users, c) for c in cfgs]
            assert ses[0] <= ses[1] <= ses[2]

    @pytest.mark.parametrize("shape", [(2, 1, 2), (4, 3, 4), (8, 3, 8), (2, 1, 3)])
    def test_batch_equals_per_draw_bytes(self, shape):
        # (2, 1, 3) has K > N, so every draw takes the pseudo-inverse.
        cfg = default_config(*shape)
        xy = held_out_dataset(cfg, 200, 2)
        batch = baseline_closest_user(UserPositions.from_xy(xy), cfg)
        ses = baseline_se(UserPositions.from_xy(xy), cfg)
        assert batch.used_pinv.shape == ses.shape == (200,)
        assert np.all(batch.used_pinv) == (cfg.K > cfg.N)
        for i in range(200):
            users = UserPositions.from_xy(xy[i])
            one = baseline_closest_user(users, cfg)
            assert one.w.tobytes() == batch.w[i].tobytes()
            assert one.h_tilde.tobytes() == batch.h_tilde[i].tobytes()
            assert one.layout.first_x.tobytes() == batch.layout.first_x[i].tobytes()
            assert one.layout.gaps.tobytes() == batch.layout.gaps[i].tobytes()
            assert one.used_pinv == batch.used_pinv[i]
            assert np.float64(baseline_se(users, cfg)).tobytes() == ses[i].tobytes()

    def test_pinv_fallback_chosen_per_draw(self):
        # Two users at one position make draw 2's channel rank deficient.
        cfg = default_config(2, 1, 2)
        xy = held_out_dataset(cfg, 5, 3)
        xy[2] = [[4.0, 5.0], [4.0, 5.0]]
        batch = baseline_closest_user(UserPositions.from_xy(xy), cfg)
        assert batch.used_pinv.tolist() == [False, False, True, False, False]
        for i in range(5):
            one = baseline_closest_user(UserPositions.from_xy(xy[i]), cfg)
            assert one.used_pinv == batch.used_pinv[i]
            assert one.w.tobytes() == batch.w[i].tobytes()
        with pytest.raises(RankDeficientError):
            zero_forcing(batch.h_tilde, cfg.power_budget_w)
        full = np.arange(5) != 2
        assert zero_forcing(batch.h_tilde[full], cfg.power_budget_w).tobytes() \
            == batch.w[full].tobytes()

    def test_duplicate_user_positions_pinv_fallback(self):
        cfg = default_config(2, 1, 2)
        users = UserPositions.from_xy([[4.0, 5.0], [4.0, 5.0]])
        res = baseline_closest_user(users, cfg)
        assert res.used_pinv
        assert np.all(np.isfinite(res.w))


class TestStructureSweep:
    def test_single_user_closed_form(self):
        cfg = default_config(1, 1, 1)
        ht = physical_channel(cfg, 5)
        best, w = structure_power_sweep(ht, cfg.power_budget_w, 1.0)
        expected = math.log2(1.0 + cfg.power_budget_w * np.linalg.norm(ht) ** 2)
        assert best == pytest.approx(expected, rel=1e-12)

    def test_beats_random_search(self):
        cfg = default_config(2, 1, 2)
        wins = 0
        for seed in range(10):
            ht = physical_channel(cfg, seed)
            best, _ = structure_power_sweep(ht, cfg.power_budget_w,
                                            cfg.noise_power_w, 30)
            rand = random_precoder_search(ht, cfg.power_budget_w,
                                          cfg.noise_power_w, 20000, seed)
            wins += best >= rand
        assert wins >= 9

    def test_sweep_precoder_reaches_reported_se(self):
        cfg = default_config(2, 1, 2)
        ht = physical_channel(cfg, 11)
        best, w = structure_power_sweep(ht, cfg.power_budget_w, cfg.noise_power_w, 20)
        assert compute_se(ht, w, cfg.noise_power_w) == pytest.approx(best, rel=1e-12)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(cfg.power_budget_w, rel=1e-9)

    def test_k3_rejected(self):
        with pytest.raises(OracleIneligibleError):
            structure_power_sweep(np.ones((2, 3)), 1.0, 1.0)


class TestGridSearchOracle:
    def test_single_user_argmax_near_user(self):
        cfg = default_config(1, 1, 1)
        users = UserPositions.from_xy([[6.28, 2.0]])
        res = grid_search_oracle(users, cfg, grid_n=1001)
        # Grid includes multiples of D/1000; the best x is the closest point.
        assert res.layout.first_x[0] == pytest.approx(6.28, abs=cfg.D / 1000)

    def test_single_user_closed_form_se(self):
        cfg = default_config(1, 1, 1)
        users = UserPositions.from_xy([[4.0, 7.5]])
        res = grid_search_oracle(users, cfg, grid_n=2001)
        grid = np.linspace(0, cfg.D, 2001)
        r2 = (grid - 4.0) ** 2 + (cfg.waveguide_y()[0] - 7.5) ** 2 + cfg.d ** 2
        expected = math.log2(1.0 + cfg.power_budget_w * cfg.path_const
                             / (cfg.noise_power_w * r2.min()))
        assert res.best_se == pytest.approx(expected, rel=1e-12)

    def test_refining_grid_monotone(self):
        cfg = default_config(1, 1, 1)
        users = UserPositions.from_xy([[3.3, 3.3]])
        # Nested grids (world sizes 2^k + 1 share points) never lose SE.
        coarse = grid_search_oracle(users, cfg, grid_n=101)
        fine = grid_search_oracle(users, cfg, grid_n=201)
        assert fine.best_se >= coarse.best_se - 1e-15

    def test_two_user_oracle_runs(self):
        cfg = default_config(1, 1, 2)
        users = sample_users(6, cfg)
        res = grid_search_oracle(users, cfg, grid_n=60, power_grid_n=12)
        assert isinstance(res, OracleResult)
        assert res.best_se > 0.0
        assert check_feasibility(res.layout, res.w, cfg) == []
        # Reported SE is reproducible from the returned argmax.
        h = compute_channel(users, res.layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(res.layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        assert compute_se(ht, res.w, cfg.noise_power_w) == pytest.approx(
            res.best_se, rel=1e-12)

    def test_two_user_beats_baseline(self):
        cfg = default_config(1, 1, 2)
        users = sample_users(7, cfg)
        res = grid_search_oracle(users, cfg, grid_n=200, power_grid_n=25)
        assert res.best_se >= baseline_se(users, cfg) - 1e-12

    def test_policy_and_baseline_bounded_by_oracle(self):
        # The grid oracle (fine grid) upper-bounds both the heuristic and an
        # untrained policy on oracle-eligible configs.
        from pinchbeam.config import ModelConfig
        from pinchbeam.pipeline import init_parameters, policy_forward
        from pinchbeam.training import reference_se
        cfg = default_config(1, 1, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
        store = init_parameters(cfg, model, 0)
        rng = np.random.default_rng(9)
        for _ in range(10):
            users = sample_users(rng, cfg)
            oracle = grid_search_oracle(users, cfg, grid_n=4001).best_se
            tol = 1e-3 * oracle
            assert baseline_se(users, cfg) <= oracle + tol
            result = policy_forward(users.xy, store, cfg, model)
            assert reference_se(users.xy, result, cfg) <= oracle + tol

    def test_cost_guard(self):
        cfg = default_config(2, 1, 2)  # K*N = 4
        with pytest.raises(OracleIneligibleError):
            grid_search_oracle(sample_users(0, cfg), cfg)
        cfg2 = default_config(1, 2, 1)  # M = 2
        with pytest.raises(OracleIneligibleError):
            grid_search_oracle(sample_users(0, cfg2), cfg2)
