"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two training-based
criteria train small models from scratch (minutes, CPU only); everything is
seeded and deterministic.
"""

import time

import numpy as np
from click.testing import CliRunner

from pinchbeam import pipeline
from pinchbeam import placement_gnn as pbf
from pinchbeam import precoder_gnn as tbf
from pinchbeam._alloc import tune_allocator
from pinchbeam.autodiff import Tape
from pinchbeam.baselines import (baseline_se, grid_search_oracle,
                                 random_precoder_search, structure_power_sweep)
from pinchbeam.cli import main as cli_main
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.physics import (UserPositions, build_pinching_matrix,
                               compute_channel, effective_channel,
                               random_feasible_layout, sample_users)
from pinchbeam.training import TrainConfig, evaluate, train
from pinchbeam.training import test_dataset as held_out_dataset
from pinchbeam.verify import end_to_end_grad_check, primitive_grad_checks

tune_allocator()


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. equivariance suite


def test_c1_equivariance_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_pbf = 0.0
    cfg = default_config(2, 3, 2)
    model = ModelConfig()
    for trial in range(10):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((11, trial)))
        for _ in range(10):
            phi = rng.uniform(0, cfg.D, (1, cfg.K, 2))
            s = pbf.index_feature(cfg.N, cfg.M)
            x1, gaps = pbf.pbf_actions(Tape(), phi, s, store, cfg, model)
            pu = rng.permutation(cfg.K)
            wg = rng.permutation(cfg.N)
            slots = np.stack([rng.permutation(cfg.M) for _ in range(cfg.N)])
            s_p = s[wg][np.arange(cfg.N)[:, None], slots]
            x1p, gapsp = pbf.pbf_actions(Tape(), phi[:, pu], s_p, store, cfg, model)
            worst_pbf = max(
                worst_pbf,
                float(np.max(np.abs(x1p.value - x1.value[:, wg]))),
                float(np.max(np.abs(
                    gapsp.value - gaps.value[:, wg][:, np.arange(cfg.N)[:, None], slots]))))

    worst_tbf = 0.0
    cfg_t = default_config(3, 1, 3)
    for trial in range(10):
        store = pipeline.init_parameters(cfg_t, model, np.random.SeedSequence((12, trial)))
        for _ in range(10):
            ht = 0.01 * (rng.standard_normal((1, 3, 3))
                         + 1j * rng.standard_normal((1, 3, 3)))
            tape = Tape()
            p, lam = tbf.tbf_powers(tape, tape.constant(ht), store, cfg_t, model)
            tape = Tape()
            w = tbf.tbf_forward(tape, tape.constant(ht), store, cfg_t, model).value
            pa, pu = rng.permutation(3), rng.permutation(3)
            htp = ht[:, pa][:, :, pu]
            tape = Tape()
            p2, lam2 = tbf.tbf_powers(tape, tape.constant(htp), store, cfg_t, model)
            tape = Tape()
            w2 = tbf.tbf_forward(tape, tape.constant(htp), store, cfg_t, model).value
            worst_tbf = max(
                worst_tbf,
                float(np.max(np.abs(p2.value - p.value[:, pu]))),
                float(np.max(np.abs(lam2.value - lam.value[:, pu]))),
                float(np.max(np.abs(w2 - w[:, pa][:, :, pu]))))

    worst_se = 0.0
    cfg_e = default_config(2, 2, 3)
    store = pipeline.init_parameters(cfg_e, model, 13)
    for _ in range(100):
        phi = rng.uniform(0, cfg_e.D, (cfg_e.K, 2))
        se = pipeline.policy_forward(phi, store, cfg_e, model).se
        se_p = pipeline.policy_forward(phi[rng.permutation(cfg_e.K)], store,
                                       cfg_e, model).se
        worst_se = max(worst_se, abs(se - se_p))

    elapsed = time.perf_counter() - t_start
    worst = max(worst_pbf, worst_tbf, worst_se)
    report("C1 equivariance",
           worst <= 1e-9 and elapsed < 60.0,
           f"pbf {worst_pbf:.2e}, tbf {worst_tbf:.2e}, e2e-SE {worst_se:.2e} "
           f"<= 1e-9; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_c2_gradient_suite():
    t_start = time.perf_counter()
    prim = primitive_grad_checks()
    worst_prim_op = max(prim, key=prim.get)
    worst_prim = prim[worst_prim_op]
    full_err, tries = end_to_end_grad_check()
    elapsed = time.perf_counter() - t_start
    report("C2 gradients",
           worst_prim <= 1e-6 and full_err <= 1e-4 and elapsed < 300.0,
           f"{len(prim)} primitives worst {worst_prim:.2e} ({worst_prim_op}) <= 1e-6; "
           f"full loss {full_err:.2e} <= 1e-4; {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 3. constraint suite


def test_c3_constraint_suite():
    cfg = default_config(2, 3, 2)
    model = ModelConfig()
    rng = np.random.default_rng(33)
    worst_gap = -np.inf
    worst_pos = -np.inf
    worst_power = 0.0
    n_inputs = 0
    for trial in range(10):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((33, trial)))
        phi = rng.uniform(0, cfg.D, (100, cfg.K, 2))
        out = pipeline.forward_on_tape(Tape(), phi, store, cfg, model)
        n_inputs += 100
        gaps = out.placement.gaps.value
        x = out.placement.positions_x.value
        worst_gap = max(worst_gap, float(np.max(cfg.min_gap_m - gaps)))
        worst_pos = max(worst_pos, float(np.max(-x)), float(np.max(x - cfg.D)))
        power = np.sum(np.abs(out.w.value) ** 2, axis=(-2, -1))
        worst_power = max(worst_power,
                          float(np.max(np.abs(power - cfg.power_budget_w)))
                          / cfg.power_budget_w)
    report("C3 constraints",
           worst_gap <= 0.0 and worst_pos <= 0.0 and worst_power <= 1e-9,
           f"{n_inputs} inputs x 10 param draws: gap slack {-worst_gap:.2e} >= 0, "
           f"region slack {-worst_pos:.2e} >= 0, power dev {worst_power:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# 4. oracle match at K = N = M = 1


def test_c4_oracle_match():
    t_start = time.perf_counter()
    cfg = default_config(1, 1, 1, snr_db=10.0)
    train_cfg = TrainConfig(n_train=2000, n_test=200, batch_size=64, epochs=60,
                            learning_rate=1e-3, seed=1, snr_db=10.0)
    store, rep = train(train_cfg, cfg)
    run_cfg = cfg.with_snr_db(10.0)
    data = held_out_dataset(run_cfg, 200, train_cfg.seed)
    oracle = np.array([
        grid_search_oracle(UserPositions.from_xy(data[i]), run_cfg, 1000).best_se
        for i in range(200)])
    ratio = rep.test_mean_se / oracle.mean()
    elapsed = time.perf_counter() - t_start
    report("C4 oracle match (K=N=M=1)",
           ratio >= 0.98 and elapsed < 1800.0,
           f"trained SE {rep.test_mean_se:.6f} vs oracle {oracle.mean():.6f}, "
           f"ratio {ratio:.4f} >= 0.98; {elapsed:.0f}s < 1800s")


# ---------------------------------------------------------------------------
# 5. baseline comparison at K = N = 2, M = 1


def test_c5_baseline_comparison():
    t_start = time.perf_counter()
    cfg = default_config(2, 1, 2, snr_db=10.0)
    train_cfg = TrainConfig(n_train=3000, n_test=500, batch_size=64, epochs=14,
                            learning_rate=3e-4, seed=1, snr_db=10.0)
    store, _ = train(train_cfg, cfg)
    model = ModelConfig()
    ratios = {}
    for snr in (0.0, 10.0, 20.0):
        c = cfg.with_snr_db(snr)
        res = evaluate(store, c, model, 500, train_cfg.seed)
        data = held_out_dataset(c, 500, train_cfg.seed)
        base = np.mean([baseline_se(UserPositions.from_xy(data[i]), c)
                        for i in range(500)])
        ratios[snr] = res.mean_se / base
    elapsed = time.perf_counter() - t_start
    detail = ", ".join(f"{snr:g} dB: {r:.4f}" for snr, r in ratios.items())
    report("C5 baseline comparison (K=N=2, M=1)",
           all(r >= 0.97 for r in ratios.values()) and elapsed < 3600.0,
           f"SE ratio vs closest-user+ZF {detail} (>= 0.97); {elapsed:.0f}s < 3600s")


# ---------------------------------------------------------------------------
# 6. optimal-structure coverage


def test_c6_structure_check():
    t_start = time.perf_counter()
    cfg = default_config(2, 1, 2, snr_db=10.0)
    rng = np.random.default_rng(66)
    wins = 0
    for trial in range(50):
        users = sample_users(rng, cfg)
        layout = random_feasible_layout(rng, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        best_struct, _ = structure_power_sweep(ht, cfg.power_budget_w,
                                               cfg.noise_power_w, 50)
        best_rand = random_precoder_search(ht, cfg.power_budget_w,
                                           cfg.noise_power_w, 100000, seed=trial)
        wins += best_struct >= best_rand
    elapsed = time.perf_counter() - t_start
    report("C6 structure coverage",
           wins >= 48 and elapsed < 900.0,  # 95% of 50 = 47.5
           f"structure grid >= best of 1e5 random precoders in {wins}/50 "
           f"instances (need >= 48); {elapsed:.0f}s < 900s")


# ---------------------------------------------------------------------------
# 7. inference latency at the reference scale


def test_c7_inference_latency():
    cfg = default_config(8, 3, 8, snr_db=10.0)
    model = ModelConfig()
    store = pipeline.init_parameters(cfg, model, 7)
    rng = np.random.default_rng(77)
    for _ in range(3):  # warm caches and BLAS
        pipeline.policy_forward(rng.uniform(0, cfg.D, (cfg.K, 2)), store, cfg, model)
    times = []
    for _ in range(30):
        phi = rng.uniform(0, cfg.D, (cfg.K, 2))
        t0 = time.perf_counter()
        pipeline.policy_forward(phi, store, cfg, model)
        times.append(time.perf_counter() - t0)
    mean_ms = 1e3 * float(np.mean(times))
    report("C7 inference latency (M=3, K=N=8)",
           mean_ms <= 50.0,
           f"mean {mean_ms:.1f} ms/sample <= 50 ms over 30 samples")


# ---------------------------------------------------------------------------
# 8. byte-level determinism
#
# Both runs share one build. Across builds (Python, numpy, BLAS; recorded in
# every manifest.json) last-bit summation changes alone move the trained
# weights, so the bytes are not expected to match there.


def test_c8_determinism(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "config.json"
    default_config(1, 1, 1).save(cfg_path)
    train_args = ["--seed", "8", "--n-train", "64", "--n-test", "8",
                  "--batch-size", "32", "--epochs", "2", "--layers", "1",
                  "--hidden", "6", "--message-dim", "6"]
    blobs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        r = runner.invoke(cli_main, ["train", "--config", str(cfg_path),
                                     "--out", str(out)] + train_args)
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, ["sweep", "--checkpoint",
                                     str(out / "checkpoint.json"),
                                     "--snr-db", "0,10,20", "--n-samples", "8",
                                     "--out", str(out / "sweep")])
        assert r.exit_code == 0, r.output
        blobs[run] = ((out / "checkpoint.json").read_bytes(),
                      (out / "sweep" / "sweep.csv").read_bytes())
    same_ckpt = blobs["a"][0] == blobs["b"][0]
    same_csv = blobs["a"][1] == blobs["b"][1]
    report("C8 determinism",
           same_ckpt and same_csv,
           f"checkpoint bytes identical: {same_ckpt}; sweep CSV bytes "
           f"identical: {same_csv}")
