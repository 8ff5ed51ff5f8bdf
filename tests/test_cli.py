import csv
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pinchbeam import baselines, cli, pipeline, training
from pinchbeam.cli import _csv, main
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.errors import (DivergenceError, IncompatibleCheckpointError,
                              InvalidConfigError, OracleIneligibleError, SingularityError)
from pinchbeam.physics import UserPositions

TRAIN_ARGS = ["--seed", "3", "--n-train", "32", "--n-test", "4", "--batch-size",
              "16", "--epochs", "2", "--layers", "1", "--hidden", "6",
              "--message-dim", "6"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    default_config(1, 1, 1).save(path)
    return path


@pytest.fixture()
def config_file_k2(tmp_path):
    path = tmp_path / "config2.json"
    default_config(2, 1, 2).save(path)
    return path


def train_once(runner, config, out_dir):
    result = runner.invoke(main, ["train", "--config", str(config), "--out",
                                  str(out_dir)] + TRAIN_ARGS)
    assert result.exit_code == 0, result.output
    return out_dir


class TestTrainCommand:
    def test_missing_config_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--config",
                                      str(tmp_path / "absent.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "absent.json" in result.output

    def test_nan_learning_rate_exit_2(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "--config", str(config_file),
                                      "--out", str(out), "--lr", "nan"] + TRAIN_ARGS)
        assert result.exit_code == 2, result.output
        assert "learning_rate" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_snr_out_of_float_range_exit_2(self, runner, config_file, tmp_path, snr):
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "--config", str(config_file),
                                      "--out", str(out), "--snr-db", snr] + TRAIN_ARGS)
        assert result.exit_code == 2, result.output
        assert "snr_db" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--hidden", "--layers", "--batch-size"])
    def test_zero_count_flag_exit_2(self, runner, config_file, tmp_path, flag):
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "--config", str(config_file),
                                      "--out", str(out)] + TRAIN_ARGS + [flag, "0"])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_nan_config_exit_2(self, runner, tmp_path):
        doc = default_config(1, 1, 1).to_json_dict()
        doc["region_side_m"] = float("nan")
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(doc))  # written as the bare token NaN
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "--config", str(config),
                                      "--out", str(out)] + TRAIN_ARGS)
        assert result.exit_code == 2, result.output
        assert "region_side_m" in result.output
        assert not out.exists()

    def test_no_room_past_span_margin_exit_2(self, runner, tmp_path):
        # (M-1)*min_gap is below D but above D less the span margin: the
        # config is rejected on load, not by the first forward pass.
        doc = default_config(1, 2, 1).to_json_dict()
        doc["min_gap_m"] = 9.995
        config = tmp_path / "tight.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "--config", str(config),
                                      "--out", str(out)] + TRAIN_ARGS)
        assert result.exit_code == 2, result.output
        assert "span margin" in result.output
        assert not out.exists()

    def test_writes_three_files(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        assert (out / "checkpoint.json").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"checkpoint.json", "report.json"}
        report = json.loads((out / "report.json").read_text())
        assert len(report["epoch_losses"]) == 2

    def test_rerun_byte_identical_checkpoint(self, runner, config_file, tmp_path):
        a = train_once(runner, config_file, tmp_path / "a")
        b = train_once(runner, config_file, tmp_path / "b")
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


class TestTrainDivergence:
    def test_divergence_exit_3(self, runner, config_file, tmp_path, monkeypatch):
        from pinchbeam.errors import DivergenceError
        import pinchbeam.cli as cli_mod

        def boom(*args, **kwargs):
            raise DivergenceError(0, 4)

        monkeypatch.setattr(cli_mod.training, "train", boom)
        result = runner.invoke(main, ["train", "--config", str(config_file),
                                      "--out", str(tmp_path / "out")] + TRAIN_ARGS)
        assert result.exit_code == 3
        assert "batch 4" in result.output


class TestEvalCommand:
    def test_eval_and_consistency(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        result = runner.invoke(main, ["eval", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--n-test", "4", "--out",
                                      str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(tmp_path / "eval" / "eval_samples.csv")))
        assert len(rows) == 4
        assert set(rows[0]) == {"sample_id", "se_bits_per_hz"}
        summary = json.loads((tmp_path / "eval" / "eval.json").read_text())
        per_sample = [float(r["se_bits_per_hz"]) for r in rows]
        assert summary["mean_se"] == pytest.approx(np.mean(per_sample), rel=1e-12)

    def test_zero_n_test_exit_2(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        result = runner.invoke(main, ["eval", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--n-test", "0", "--out", str(tmp_path / "eval")])
        assert result.exit_code == 2, result.output
        assert "--n-test" in result.output
        assert not (tmp_path / "eval").exists()

    def test_config_mismatch_exit_4(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        other = tmp_path / "other.json"
        default_config(2, 1, 2).save(other)
        result = runner.invoke(main, ["eval", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--config", str(other),
                                      "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4

    def test_corrupt_checkpoint_exit_4(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = runner.invoke(main, ["eval", "--checkpoint", str(bad),
                                      "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null"])
    def test_non_object_checkpoint_exit_4(self, runner, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        result = runner.invoke(main, ["eval", "--checkpoint", str(bad),
                                      "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4, result.output
        assert "JSON object" in result.output

    @pytest.mark.parametrize("seed", [-3, 1.5, True, "7"])
    def test_bad_checkpoint_seed_exit_4(self, runner, tmp_path, seed):
        cfg = default_config(1, 1, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
        ckpt = tmp_path / "checkpoint.json"
        training.save_checkpoint(ckpt, pipeline.init_parameters(cfg, model, 0),
                                 cfg, 0, model)
        doc = json.loads(ckpt.read_text())
        doc["seed"] = seed
        ckpt.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--n-test",
                                      "2", "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4, result.output
        assert "checkpoint seed" in result.output

    @pytest.mark.parametrize("corruption", ["nan_weight", "transposed_weight", "string_weight",
                                            "bool_weight"])
    def test_bad_checkpoint_weights_exit_4(self, runner, tmp_path, corruption):
        cfg = default_config(1, 1, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
        ckpt = tmp_path / "checkpoint.json"
        training.save_checkpoint(ckpt, pipeline.init_parameters(cfg, model, 0),
                                 cfg, 0, model)
        doc = json.loads(ckpt.read_text())
        entry = next(e for e in doc["entries"] if e["name"] == "pbf.head.gap.W0")
        if corruption == "nan_weight":
            entry["values"][0] = float("nan")
        elif corruption in ("string_weight", "bool_weight"):
            entry["values"][0] = "1.5" if corruption == "string_weight" else True
        else:
            entry["shape"] = entry["shape"][::-1]
        ckpt.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--n-test",
                                      "2", "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4, result.output
        assert "pbf.head.gap.W0" in result.output

    def test_non_string_entry_name_exit_4(self, runner, tmp_path):
        cfg = default_config(1, 1, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
        ckpt = tmp_path / "checkpoint.json"
        training.save_checkpoint(ckpt, pipeline.init_parameters(cfg, model, 0),
                                 cfg, 0, model)
        doc = json.loads(ckpt.read_text())
        doc["entries"][0]["name"] = 5
        ckpt.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--n-test",
                                      "2", "--out", str(tmp_path / "eval")])
        assert result.exit_code == 4, result.output
        assert "names must be strings" in result.output

    @pytest.mark.parametrize("field", ["pbf_layers", "tbf_layers", "hidden", "message_dim"])
    def test_huge_declared_arch_exit_4(self, tmp_path, field):
        # The entries' shapes come from the width tables, built no further
        # than the checkpoint's entries go, so a declared width or layer
        # count of 10**9 is refused without building anything that size.
        # Run in a child process with 2 GB of address space, as a program
        # that allocated by the declared size would exhaust it.
        cfg = default_config(1, 1, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
        ckpt = tmp_path / "checkpoint.json"
        training.save_checkpoint(ckpt, pipeline.init_parameters(cfg, model, 0),
                                 cfg, 0, model)
        doc = json.loads(ckpt.read_text())
        doc["arch"][field] = 10 ** 9
        ckpt.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parents[1] / "src"
        limit = 2 * 2 ** 30
        t0 = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pinchbeam", "eval", "--checkpoint", str(ckpt),
             "--n-test", "2", "--out", str(tmp_path / "eval")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                              (limit, limit)))
        assert time.perf_counter() - t0 < 5.0
        assert result.returncode == 4, result.stderr
        assert "declared architecture" in result.stderr


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        args = ["sweep", "--checkpoint", str(out / "checkpoint.json"),
                "--snr-db", "0,10", "--n-samples", "4"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "s1")])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "s2")])
        assert r2.exit_code == 0
        csv1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
        assert csv1 == (tmp_path / "s2" / "sweep.csv").read_bytes()
        rows = list(csv.reader(csv1.decode().splitlines()))
        assert rows[0] == ["snr_db", "mean_se_gpass", "mean_se_baseline", "n_samples"]
        assert len(rows) == 3
        # Baseline present and nondecreasing in SNR.
        assert rows[1][2] != ""
        assert float(rows[1][2]) <= float(rows[2][2])

    def test_baseline_filled_at_multi_antenna_waveguides(self, runner, tmp_path):
        config = tmp_path / "config.json"
        default_config(2, 3, 2).save(config)
        out = train_once(runner, config, tmp_path / "run")
        result = runner.invoke(main, ["sweep", "--checkpoint", str(out / "checkpoint.json"),
                                      "--snr-db", "0,10,20", "--n-samples", "4",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(tmp_path / "s" / "sweep.csv")))
        base = [float(row["mean_se_baseline"]) for row in rows]
        assert len(base) == 3 and base[0] > 0
        assert base[0] <= base[1] <= base[2]

    def test_snr_list_validation(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        for bad in ("", "10,5", "3,3"):
            result = runner.invoke(main, ["sweep", "--checkpoint",
                                          str(out / "checkpoint.json"),
                                          "--snr-db", bad, "--n-samples", "2",
                                          "--out", str(tmp_path / "s")])
            assert result.exit_code == 2, bad

    @pytest.mark.parametrize("snrs", ["nan", "10,inf", "-inf,0"])
    def test_non_finite_snr_exit_2(self, runner, config_file, tmp_path, snrs):
        out = train_once(runner, config_file, tmp_path / "run")
        result = runner.invoke(main, ["sweep", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--snr-db", snrs, "--n-samples", "2",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 2, result.output
        assert "finite" in result.output
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("snrs", ["0,4000", "-4000,0"])
    def test_snr_out_of_float_range_exit_2(self, runner, checkpoint_file, tmp_path, snrs):
        result = runner.invoke(main, ["sweep", "--checkpoint", str(checkpoint_file),
                                      "--snr-db", snrs, "--n-samples", "2",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 2, result.output
        assert "snr_db" in result.output
        assert not (tmp_path / "s").exists()

    def test_zero_samples_exit_2(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        result = runner.invoke(main, ["sweep", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--snr-db", "0,10", "--n-samples", "0",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 2, result.output
        assert "--n-samples" in result.output
        assert not (tmp_path / "s").exists()

    def test_incompatible_geometry_exit_4(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        other = tmp_path / "other.json"
        default_config(2, 1, 2).save(other)
        result = runner.invoke(main, ["sweep", "--checkpoint",
                                      str(out / "checkpoint.json"),
                                      "--snr-db", "0,10", "--config", str(other),
                                      "--n-samples", "2",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 4

    def test_sweep_mean_matches_eval(self, runner, config_file, tmp_path):
        out = train_once(runner, config_file, tmp_path / "run")
        r = runner.invoke(main, ["sweep", "--checkpoint",
                                 str(out / "checkpoint.json"),
                                 "--snr-db", "10", "--n-samples", "4", "--seed", "3",
                                 "--out", str(tmp_path / "s")])
        assert r.exit_code == 0
        row = list(csv.DictReader(open(tmp_path / "s" / "sweep.csv")))[0]
        e = runner.invoke(main, ["eval", "--checkpoint",
                                 str(out / "checkpoint.json"),
                                 "--n-test", "4", "--seed", "3",
                                 "--out", str(tmp_path / "e")])
        assert e.exit_code == 0
        summary = json.loads((tmp_path / "e" / "eval.json").read_text())
        # Checkpoint was trained at SNR 10 with unit noise, so the sweep row
        # at 10 dB evaluates the identical system.
        assert float(row["mean_se_gpass"]) == pytest.approx(summary["mean_se"],
                                                            rel=1e-12)

    def test_chunked_baseline_csv_equals_one_batch(self, runner, tmp_path):
        # At (4, 3, 4) the baseline runs 32 draws at a time (32, 32 and 16
        # of 80); sweep.csv is byte for byte the one a single batched
        # baseline call per SNR gives.
        config = tmp_path / "config.json"
        default_config(4, 3, 4).save(config)
        out = train_once(runner, config, tmp_path / "run")
        result = runner.invoke(main, ["sweep", "--checkpoint", str(out / "checkpoint.json"),
                                      "--snr-db", "0,20", "--n-samples", "80", "--seed", "2",
                                      "--out", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        ckpt = training.load_checkpoint(out / "checkpoint.json")
        assert len(list(training.draw_chunks(80, 4 * 3 * 4))) == 3
        users = UserPositions.from_xy(training.test_dataset(ckpt.cfg, 80, 2))
        rows = []
        for snr in (0.0, 20.0):
            cfg = replace(ckpt.cfg, noise_power_w=1.0).with_snr_db(snr)
            policy = training.evaluate(ckpt.store, cfg, ckpt.model, 80, 2)
            rows.append([snr, policy.mean_se, float(np.mean(baselines.baseline_se(users, cfg))),
                         80])
        assert ((tmp_path / "s" / "sweep.csv").read_bytes()
                == _csv(["snr_db", "mean_se_gpass", "mean_se_baseline", "n_samples"],
                        rows).encode())


class TestBaselineCommand:
    def test_chunked_csv_equals_one_batch(self, runner, tmp_path):
        # At (4, 3, 4) the baseline runs 32 draws at a time (32, 32 and 16
        # of 80); baseline_samples.csv is byte for byte the one a single
        # batched call gives.
        cfg = default_config(4, 3, 4)
        cfg.save(tmp_path / "config.json")
        result = runner.invoke(main, ["baseline", "--config", str(tmp_path / "config.json"),
                                      "--n-samples", "80", "--seed", "2",
                                      "--out", str(tmp_path / "b")])
        assert result.exit_code == 0, result.output
        ses = baselines.baseline_se(UserPositions.from_xy(training.test_dataset(cfg, 80, 2)),
                                    cfg)
        assert ((tmp_path / "b" / "baseline_samples.csv").read_bytes()
                == _csv(["sample_id", "se_bits_per_hz"],
                        [[i, float(se)] for i, se in enumerate(ses)]).encode())

    def test_writes_outputs(self, runner, config_file_k2, tmp_path):
        result = runner.invoke(main, ["baseline", "--config", str(config_file_k2),
                                      "--n-samples", "5", "--seed", "1",
                                      "--out", str(tmp_path / "b")])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(tmp_path / "b" / "baseline_samples.csv")))
        assert len(rows) == 5
        summary = json.loads((tmp_path / "b" / "baseline.json").read_text())
        assert summary["mean_se"] > 0

    def test_zero_samples_exit_2(self, runner, config_file_k2, tmp_path):
        result = runner.invoke(main, ["baseline", "--config", str(config_file_k2),
                                      "--n-samples", "0", "--out", str(tmp_path / "b")])
        assert result.exit_code == 2, result.output
        assert "--n-samples" in result.output
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_non_object_config_exit_2(self, runner, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, ["baseline", "--config", str(path),
                                      "--n-samples", "2", "--out", str(tmp_path / "b")])
        assert result.exit_code == 2, result.output
        assert "JSON object" in result.output

    @pytest.mark.parametrize("m", [2, 3])
    def test_multi_antenna_waveguides(self, runner, tmp_path, m):
        path = tmp_path / "config.json"
        default_config(2, m, 2).save(path)
        result = runner.invoke(main, ["baseline", "--config", str(path),
                                      "--n-samples", "5",
                                      "--out", str(tmp_path / "b")])
        assert result.exit_code == 0, result.output
        mean_se = json.loads((tmp_path / "b" / "baseline.json").read_text())["mean_se"]
        assert np.isfinite(mean_se) and mean_se > 0


class TestOracleCommand:
    def test_json_round_trip(self, runner, config_file, tmp_path):
        import time
        t0 = time.perf_counter()
        result = runner.invoke(main, ["oracle", "--config", str(config_file),
                                      "--grid-n", "1000", "--out",
                                      str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert time.perf_counter() - t0 < 60.0
        doc = json.loads((tmp_path / "o" / "oracle.json").read_text())
        assert doc["best_se"] > 0
        assert doc["grid_n"] == 1000
        assert len(doc["first_x"]) == 1
        json.dumps(doc)  # serializable in full

    def test_grid_refinement_monotone(self, runner, config_file, tmp_path):
        ses = []
        for grid in ("101", "201"):
            result = runner.invoke(main, ["oracle", "--config", str(config_file),
                                          "--grid-n", grid, "--out",
                                          str(tmp_path / f"o{grid}")])
            assert result.exit_code == 0
            ses.append(json.loads(
                (tmp_path / f"o{grid}" / "oracle.json").read_text())["best_se"])
        assert ses[1] >= ses[0] - 1e-15

    def test_ineligible_exit_6(self, runner, config_file_k2, tmp_path):
        result = runner.invoke(main, ["oracle", "--config", str(config_file_k2),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 6


class TestVerifyCommand:
    def test_passes_and_reports(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--skip-gradients", "--out",
                                      str(tmp_path / "v")])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert doc["all_passed"]
        assert len(doc["properties"]) >= 10

    def test_corrupted_power_scaling_fails(self, runner, monkeypatch):
        # Breaking the sqrt in the power normalization must trip the
        # power-exactness property and exit 5.
        import pinchbeam.precoder_gnn as tbf
        from pinchbeam import autodiff as ad
        from pinchbeam import cplx as cx

        def bad_normalize(tape, w, p_max):
            n2 = ad.sum_axis(cx.abs2(w), (-2, -1), keepdims=True)
            return ad.mul(w, ad.div(p_max, n2))  # missing sqrt

        monkeypatch.setattr(tbf, "normalize_power", bad_normalize)
        result = runner.invoke(main, ["verify", "--skip-gradients"])
        assert result.exit_code == 5
        assert "precoder_power_exact" in result.output
        assert "FAIL" in result.output


class TestGenDataCommand:
    def test_writes_dataset(self, runner, config_file_k2, tmp_path):
        result = runner.invoke(main, ["gen-data", "--config", str(config_file_k2),
                                      "--n", "7", "--seed", "2", "--out",
                                      str(tmp_path / "d")])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(tmp_path / "d" / "users.csv")))
        assert len(rows) == 14  # 7 samples x 2 users
        xs = np.array([float(r["x_m"]) for r in rows])
        assert np.all((xs >= 0) & (xs <= 10))

    def test_negative_count_exit_2(self, runner, config_file_k2, tmp_path):
        result = runner.invoke(main, ["gen-data", "--config", str(config_file_k2),
                                      "--n", "-3", "--out", str(tmp_path / "d")])
        assert result.exit_code == 2, result.output
        assert "--n" in result.output
        assert not (tmp_path / "d").exists()

    def test_streams_differ(self, runner, config_file, tmp_path):
        for flag, name in (("--train-stream", "tr"), ("--test-stream", "te")):
            result = runner.invoke(main, ["gen-data", "--config", str(config_file),
                                          "--n", "3", "--seed", "2", flag,
                                          "--out", str(tmp_path / name)])
            assert result.exit_code == 0
        a = (tmp_path / "tr" / "users.csv").read_bytes()
        b = (tmp_path / "te" / "users.csv").read_bytes()
        assert a != b


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    config = tmp / "config.json"
    default_config(1, 1, 1).save(config)
    return train_once(CliRunner(), config, tmp / "run") / "checkpoint.json"


class TestFormat1ActivationKey:
    """Format-1 checkpoints may carry ``"activation"`` in ``arch``; every
    hidden layer is relu, so only ``"relu"`` loads."""

    def _with_activation(self, checkpoint_file, path, act):
        doc = json.loads(checkpoint_file.read_text())
        assert "activation" not in doc["arch"]
        doc["arch"]["activation"] = act
        path.write_text(json.dumps(doc))
        return path

    def _eval(self, runner, ckpt, out):
        return runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--n-test", "4",
                                    "--out", str(out)])

    def test_relu_key_evaluates_bit_identically(self, runner, checkpoint_file, tmp_path):
        legacy = self._with_activation(checkpoint_file, tmp_path / "legacy.json", "relu")
        means = []
        for ckpt, out in ((checkpoint_file, tmp_path / "now"), (legacy, tmp_path / "legacy")):
            result = self._eval(runner, ckpt, out)
            assert result.exit_code == 0, result.output
            means.append(json.loads((out / "eval.json").read_text())["mean_se"])
        assert means[0] == means[1]

    def test_other_activation_exit_4(self, runner, checkpoint_file, tmp_path):
        tanh = self._with_activation(checkpoint_file, tmp_path / "tanh.json", "tanh")
        result = self._eval(runner, tanh, tmp_path / "eval")
        assert result.exit_code == 4, result.output
        assert "activation" in result.output
        assert not (tmp_path / "eval").exists()


class TestSeedAndGridFlags:
    """Bad seeds and oracle grid sizes exit 2 before any output is made."""

    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "baseline",
                                         "oracle", "verify", "gen-data"])
    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exit_2(self, runner, config_file, config_file_k2,
                                  checkpoint_file, tmp_path, command, seed):
        out = tmp_path / "out"
        args = {
            "train": ["--config", str(config_file)] + TRAIN_ARGS,
            "eval": ["--checkpoint", str(checkpoint_file), "--n-test", "2"],
            "sweep": ["--checkpoint", str(checkpoint_file), "--snr-db", "0,10",
                      "--n-samples", "2"],
            "baseline": ["--config", str(config_file_k2), "--n-samples", "2"],
            "oracle": ["--config", str(config_file), "--grid-n", "11"],
            "verify": ["--skip-gradients"],
            "gen-data": ["--config", str(config_file), "--n", "2"],
        }[command]
        result = runner.invoke(main, [command] + args
                               + ["--seed", seed, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "seed must be >= 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--grid-n", "0"), ("--grid-n", "-5"),
                                             ("--power-grid-n", "0")])
    def test_oracle_grid_flags_exit_2(self, runner, config_file, tmp_path, flag, value):
        out = tmp_path / "o"
        result = runner.invoke(main, ["oracle", "--config", str(config_file),
                                      flag, value, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert flag in result.output
        assert not out.exists()


def _args(command, config, config_k2, checkpoint):
    """Valid arguments of each command, less ``--out``."""
    return {
        "train": ["train", "--config", str(config)] + TRAIN_ARGS,
        "eval": ["eval", "--checkpoint", str(checkpoint), "--config", str(config),
                 "--n-test", "2"],
        "sweep": ["sweep", "--checkpoint", str(checkpoint), "--config", str(config),
                  "--snr-db", "0,10", "--n-samples", "2"],
        "baseline": ["baseline", "--config", str(config_k2), "--n-samples", "2"],
        "oracle": ["oracle", "--config", str(config), "--grid-n", "11"],
        "verify": ["verify", "--config", str(config), "--skip-gradients"],
        "gen-data": ["gen-data", "--config", str(config), "--n", "2"],
    }[command]


class TestExitCodeTable:
    """Each error in ``cli.EXIT_CODES`` that a command can meet exits with
    its code and ``error: <message>`` on stderr, before any output is made."""

    @pytest.mark.parametrize("command, callee, error", [
        ("train", "SystemConfig.load", InvalidConfigError),
        ("train", "training.train", DivergenceError),
        ("eval", "SystemConfig.load", InvalidConfigError),
        ("eval", "training.load_checkpoint", IncompatibleCheckpointError),
        ("sweep", "SystemConfig.load", InvalidConfigError),
        ("sweep", "training.load_checkpoint", IncompatibleCheckpointError),
        ("baseline", "SystemConfig.load", InvalidConfigError),
        ("oracle", "SystemConfig.load", InvalidConfigError),
        ("oracle", "baselines.grid_search_oracle", OracleIneligibleError),
        ("verify", "SystemConfig.load", InvalidConfigError),
        ("gen-data", "SystemConfig.load", InvalidConfigError),
    ])
    def test_mapped_error_exits_with_its_code(self, runner, monkeypatch, config_file,
                                              config_file_k2, checkpoint_file, tmp_path,
                                              command, callee, error):
        exc = DivergenceError(0, 4) if error is DivergenceError else error(f"from {callee}")

        def boom(*args, **kwargs):
            raise exc

        owner, name = callee.split(".")
        monkeypatch.setattr(getattr(cli, owner), name, boom)
        out = tmp_path / "out"
        result = runner.invoke(main, _args(command, config_file, config_file_k2,
                                           checkpoint_file) + ["--out", str(out)])
        assert result.exit_code == cli.EXIT_CODES[error], result.output
        assert result.stderr == f"error: {exc}\n"
        assert not out.exists()

    def test_unmapped_error_surfaces(self, runner, monkeypatch, checkpoint_file, tmp_path):
        exc = SingularityError("from training.evaluate")

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.training, "evaluate", boom)
        result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint_file),
                                      "--n-test", "2", "--out", str(tmp_path / "e")])
        assert result.exception is exc
        assert result.exit_code == 1


class TestManifest:
    @pytest.mark.parametrize("command, files", [
        ("train", {"checkpoint.json", "report.json"}),
        ("eval", {"eval_samples.csv", "eval.json"}),
        ("sweep", {"sweep.csv"}),
        ("baseline", {"baseline_samples.csv", "baseline.json"}),
        ("oracle", {"oracle.json"}),
        ("verify", {"verify.json"}),
        ("gen-data", {"users.csv"}),
    ])
    def test_lists_exactly_the_files_written(self, runner, config_file, config_file_k2,
                                             checkpoint_file, tmp_path, command, files):
        import hashlib
        out = tmp_path / "out"
        result = runner.invoke(main, _args(command, config_file, config_file_k2,
                                           checkpoint_file) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                           for name in files}

    def test_records_numeric_environment(self, runner, config_file, tmp_path):
        import platform
        result = runner.invoke(main, ["gen-data", "--config", str(config_file),
                                      "--n", "2", "--out", str(tmp_path / "d")])
        assert result.exit_code == 0, result.output
        env = json.loads((tmp_path / "d" / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["blas"]["name"] and env["blas"]["version"]

    def test_digests_match_outputs(self, runner, config_file, tmp_path):
        import hashlib
        train_once(runner, config_file, tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            assert actual == digest
        assert manifest["seed"] == 3
        assert manifest["config"]["n_users"] == 1


def test_python_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-m", "pinchbeam", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "Usage: pinchbeam" in result.stdout
