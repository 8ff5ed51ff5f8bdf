"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two training-based
criteria train small models from scratch (minutes, CPU only); everything is
seeded and deterministic.
"""

import time

import numpy as np
from click.testing import CliRunner

from pinchbeam import pipeline
from pinchbeam._alloc import tune_allocator
from pinchbeam.baselines import (baseline_se, grid_search_oracle,
                                 random_precoder_search, structure_power_sweep)
from pinchbeam.cli import main as cli_main
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.physics import (UserPositions, build_pinching_matrix,
                               compute_channel, effective_channel,
                               random_feasible_layout, sample_users)
from pinchbeam.training import TrainConfig, evaluate, train
from pinchbeam.training import test_dataset as held_out_dataset
from pinchbeam.verify import (check_e2e_user_permutation, check_layout_feasibility,
                              check_pbf_equivariance, check_power_exactness,
                              check_tbf_equivariance, end_to_end_grad_check,
                              primitive_grad_checks)

tune_allocator()


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. equivariance suite


def test_c1_equivariance_suite():
    t_start = time.perf_counter()
    checks = [check_pbf_equivariance(default_config(2, 3, 2), 11, trials=100),
              check_tbf_equivariance(default_config(3, 1, 3), 12, trials=100),
              check_e2e_user_permutation(default_config(2, 2, 3), 13, trials=100)]
    elapsed = time.perf_counter() - t_start
    report("C1 equivariance",
           all(c.passed for c in checks) and elapsed < 60.0,
           ", ".join(f"{c.name} {c.value:.2e} <= {c.threshold:g}" for c in checks)
           + f" (100 inputs each); {elapsed:.1f}s < 60s")


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
    checks = [check_layout_feasibility(cfg, 33, trials=10),
              check_power_exactness(cfg, 33, trials=10)]
    report("C3 constraints",
           all(c.passed for c in checks),
           "10 param draws x 100 inputs: "
           + ", ".join(f"{c.name} {c.value:.2e} <= {c.threshold:g}" for c in checks))


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
        base = np.mean(baseline_se(UserPositions.from_xy(data), c))
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
