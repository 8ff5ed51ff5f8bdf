"""Command-line harness: train, eval, sweep, baseline, oracle, verify, gen-data.

Every command is deterministic given its flags and seed and writes a
run manifest (atomically) next to its outputs. Exit codes: 2 invalid config,
3 training divergence, 4 incompatible checkpoint, 5 verification failure,
6 oracle cost guard.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, baselines, training
from ._alloc import tune_allocator
from .config import (ModelConfig, SystemConfig, non_negative_integer,
                     positive_integer)
from .errors import (DivergenceError, IncompatibleCheckpointError,
                     InvalidConfigError, OracleIneligibleError)
from .physics import UserPositions
from .training import TrainConfig
from .verify import run_verification

EXIT_INVALID_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_BAD_CHECKPOINT = 4
EXIT_VERIFY_FAILED = 5
EXIT_ORACLE_INELIGIBLE = 6


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path: str) -> SystemConfig:
    try:
        return SystemConfig.load(path)
    except InvalidConfigError as exc:
        _fail(EXIT_INVALID_CONFIG, str(exc))


def _checked(check, flag: str, value) -> int:
    try:
        return check(flag, value)
    except InvalidConfigError as exc:
        _fail(EXIT_INVALID_CONFIG, str(exc))


def _count(flag: str, value) -> int:
    return _checked(positive_integer, flag, value)


def _seed(value: int | None) -> int | None:
    """A ``--seed`` flag: None (the command's default) or an integer >= 0."""
    return None if value is None else _checked(non_negative_integer, "--seed", value)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _numeric_environment() -> dict:
    """Python, numpy and BLAS versions: last-bit results depend on all three."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def write_manifest(out_dir: Path, cfg: SystemConfig | None, seed: int,
                   outputs: list[Path]) -> Path:
    doc = {
        "tool_version": __version__,
        "command": sys.argv[1:] if len(sys.argv) > 1 else [],
        "config": cfg.to_json_dict() if cfg is not None else None,
        "seed": int(seed),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "environment": _numeric_environment(),
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    _write_json(path, doc)
    return path


def _model_options(fn):
    fn = click.option("--layers", default=3, show_default=True,
                      help="Layers per sub-GNN.")(fn)
    fn = click.option("--hidden", default=64, show_default=True,
                      help="Edge representation width.")(fn)
    fn = click.option("--message-dim", default=64, show_default=True,
                      help="Processor output width.")(fn)
    return fn


def _make_model(layers: int, hidden: int, message_dim: int) -> ModelConfig:
    return ModelConfig(pbf_layers=layers, tbf_layers=layers, hidden=hidden,
                       message_dim=message_dim)


@click.group()
@click.version_option(version=__version__, prog_name="pinchbeam")
def main():
    """Pinching-antenna placement and beamforming experiments."""
    tune_allocator()


@main.command("train")
@click.option("--config", "config_path", required=True, help="System config JSON.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--seed", default=0, show_default=True)
@click.option("--n-train", default=10000, show_default=True)
@click.option("--n-test", default=1000, show_default=True)
@click.option("--batch-size", default=64, show_default=True)
@click.option("--epochs", default=200, show_default=True)
@click.option("--lr", default=1e-3, show_default=True)
@click.option("--snr-db", default=10.0, show_default=True,
              help="Training SNR; overrides the config power budget.")
@click.option("--grad-clip", default=None, type=float,
              help="Optional global-norm gradient clip.")
@_model_options
def cmd_train(config_path, out_dir, seed, n_train, n_test, batch_size, epochs,
              lr, snr_db, grad_clip, layers, hidden, message_dim):
    """Train both sub-GNNs; writes checkpoint.json, report.json, manifest.json."""
    cfg = _load_config(config_path)
    try:
        model = _make_model(layers, hidden, message_dim)
        train_cfg = TrainConfig(n_train=n_train, n_test=n_test, batch_size=batch_size,
                                epochs=epochs, learning_rate=lr, seed=seed,
                                snr_db=snr_db, grad_clip=grad_clip)
    except InvalidConfigError as exc:
        _fail(EXIT_INVALID_CONFIG, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        store, report = training.train(train_cfg, cfg, model)
    except DivergenceError as exc:
        _fail(EXIT_DIVERGENCE, str(exc))
    run_cfg = training.effective_config(train_cfg, cfg)
    ckpt = out / "checkpoint.json"
    training.save_checkpoint(ckpt, store, run_cfg, seed, model)
    rep = out / "report.json"
    _write_json(rep, report.to_json_dict())
    write_manifest(out, run_cfg, seed, [ckpt, rep])
    click.echo(f"trained {report.n_parameters} parameters; "
               f"test mean SE {report.test_mean_se:.6f} bits/s/Hz")


def _load_checkpoint_or_exit(path: str) -> training.Checkpoint:
    try:
        return training.load_checkpoint(path)
    except IncompatibleCheckpointError as exc:
        _fail(EXIT_BAD_CHECKPOINT, str(exc))


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--config", "config_path", default=None,
              help="Must match the checkpoint config when given.")
@click.option("--n-test", default=1000, show_default=True)
@click.option("--seed", default=None, type=int,
              help="Test-set seed; defaults to the checkpoint seed.")
@click.option("--out", "out_dir", required=True)
def cmd_eval(ckpt_path, config_path, n_test, seed, out_dir):
    """Evaluate a checkpoint on a fresh test stream; writes SE list and summary."""
    n_test = _count("--n-test", n_test)
    seed = _seed(seed)
    ckpt = _load_checkpoint_or_exit(ckpt_path)
    if config_path is not None:
        cfg = _load_config(config_path)
        if cfg != ckpt.cfg:
            _fail(EXIT_BAD_CHECKPOINT,
                  "evaluation config does not match the checkpoint config")
    seed = ckpt.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = training.evaluate(ckpt.store, ckpt.cfg, ckpt.model, n_test, seed)
    csv_path = out / "eval_samples.csv"
    _write_csv(csv_path, ["sample_id", "se_bits_per_hz"],
               [[i, float(result.per_sample_se[i])] for i in range(n_test)])
    summary = out / "eval.json"
    _write_json(summary, {"mean_se": result.mean_se, "n_test": n_test,
                          "seed": seed, "mean_inference_time_s": result.mean_time_s})
    write_manifest(out, ckpt.cfg, seed, [csv_path, summary])
    click.echo(f"mean SE {result.mean_se:.6f} bits/s/Hz over {n_test} samples "
               f"({result.mean_time_s * 1e3:.2f} ms/sample)")


@main.command("sweep")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--snr-db", "snr_list", required=True,
              help="Comma-separated, strictly increasing SNR points (dB).")
@click.option("--n-samples", default=1000, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--config", "config_path", default=None,
              help="Geometry must match the checkpoint when given.")
@click.option("--out", "out_dir", required=True)
def cmd_sweep(ckpt_path, snr_list, n_samples, seed, config_path, out_dir):
    """SE vs SNR for the learned policy and the closest-user + ZF baseline.

    Noise power is pinned to 1 W and the budget set to 10^(SNR/10) W per row.
    The baseline column stays empty unless M = 1.
    """
    n_samples = _count("--n-samples", n_samples)
    seed = _seed(seed)
    ckpt = _load_checkpoint_or_exit(ckpt_path)
    try:
        snrs = [float(s) for s in snr_list.split(",") if s.strip() != ""]
    except ValueError:
        _fail(EXIT_INVALID_CONFIG, f"cannot parse SNR list {snr_list!r}")
    if not snrs or not all(map(math.isfinite, snrs)) \
            or any(b <= a for a, b in zip(snrs, snrs[1:])):
        _fail(EXIT_INVALID_CONFIG,
              "SNR list must be non-empty, finite and strictly increasing")
    if config_path is not None:
        cfg = _load_config(config_path)
        ours = {k: v for k, v in cfg.to_json_dict().items()
                if k not in ("power_budget_w", "noise_power_w")}
        theirs = {k: v for k, v in ckpt.cfg.to_json_dict().items()
                  if k not in ("power_budget_w", "noise_power_w")}
        if ours != theirs:
            _fail(EXIT_BAD_CHECKPOINT, "sweep config geometry does not match checkpoint")
    seed = ckpt.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for snr in snrs:
        cfg_snr = ckpt.cfg.with_snr_db(snr)
        if cfg_snr.noise_power_w != 1.0:
            cfg_snr = SystemConfig.from_json_dict(
                {**cfg_snr.to_json_dict(), "noise_power_w": 1.0,
                 "power_budget_w": 10.0 ** (snr / 10.0)})
        result = training.evaluate(ckpt.store, cfg_snr, ckpt.model, n_samples, seed)
        if ckpt.cfg.M == 1:
            data = training.test_dataset(cfg_snr, n_samples, seed)
            base = np.mean([baselines.baseline_se(UserPositions.from_xy(data[i]), cfg_snr)
                            for i in range(n_samples)])
            base_field = float(base)
        else:
            base_field = ""
        rows.append([snr, result.mean_se, base_field, n_samples])
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, ["snr_db", "mean_se_gpass", "mean_se_baseline", "n_samples"],
               rows)
    write_manifest(out, ckpt.cfg, seed, [csv_path])
    click.echo(f"wrote {csv_path} ({len(rows)} SNR points)")


@main.command("baseline")
@click.option("--config", "config_path", required=True)
@click.option("--n-samples", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True)
def cmd_baseline(config_path, n_samples, seed, out_dir):
    """Closest-user + zero-forcing baseline on a fresh test stream (M = 1)."""
    n_samples = _count("--n-samples", n_samples)
    seed = _seed(seed)
    cfg = _load_config(config_path)
    if cfg.M != 1:
        _fail(EXIT_INVALID_CONFIG, "baseline is defined for M = 1 only")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = training.test_dataset(cfg, n_samples, seed)
    ses = [baselines.baseline_se(UserPositions.from_xy(data[i]), cfg)
           for i in range(n_samples)]
    csv_path = out / "baseline_samples.csv"
    _write_csv(csv_path, ["sample_id", "se_bits_per_hz"],
               [[i, ses[i]] for i in range(n_samples)])
    summary = out / "baseline.json"
    _write_json(summary, {"mean_se": float(np.mean(ses)), "n_samples": n_samples,
                          "seed": seed})
    write_manifest(out, cfg, seed, [csv_path, summary])
    click.echo(f"baseline mean SE {np.mean(ses):.6f} bits/s/Hz")


@main.command("oracle")
@click.option("--config", "config_path", required=True)
@click.option("--grid-n", default=1000, show_default=True)
@click.option("--power-grid-n", default=50, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True)
def cmd_oracle(config_path, grid_n, power_grid_n, seed, out_dir):
    """Brute-force best placement/precoder for one sampled user draw."""
    grid_n = _count("--grid-n", grid_n)
    power_grid_n = _count("--power-grid-n", power_grid_n)
    seed = _seed(seed)
    cfg = _load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = training.test_dataset(cfg, 1, seed)
    users = UserPositions.from_xy(data[0])
    try:
        result = baselines.grid_search_oracle(users, cfg, grid_n, power_grid_n)
    except OracleIneligibleError as exc:
        _fail(EXIT_ORACLE_INELIGIBLE, str(exc))
    doc = {
        "best_se": result.best_se,
        "grid_n": result.grid_n,
        "first_x": result.layout.first_x.tolist(),
        "gaps": result.layout.gaps.tolist(),
        "waveguide_y": result.layout.waveguide_y.tolist(),
        "precoder_re": np.real(result.w).tolist(),
        "precoder_im": np.imag(result.w).tolist(),
        "user_positions": users.positions.tolist(),
    }
    path = out / "oracle.json"
    _write_json(path, doc)
    write_manifest(out, cfg, seed, [path])
    click.echo(f"oracle best SE {result.best_se:.6f} bits/s/Hz")


@main.command("verify")
@click.option("--config", "config_path", default=None,
              help="Desk-scale config for the physics/equivariance checks.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default=None)
@click.option("--skip-gradients", is_flag=True, help="Skip the slow gradient suites.")
def cmd_verify(config_path, seed, out_dir, skip_gradients):
    """Run every module property suite; non-zero exit on any failure."""
    seed = _seed(seed)
    cfg = _load_config(config_path) if config_path else None
    checks = run_verification(cfg, seed, include_gradients=not skip_gradients)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"[{status}] {c.name}: {c.value:.3e} (<= {c.threshold:.0e}) {c.detail}")
    doc = {"all_passed": all(c.passed for c in checks),
           "properties": [c.to_json_dict() for c in checks]}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "verify.json"
        _write_json(path, doc)
        write_manifest(out, cfg, seed, [path])
    if not doc["all_passed"]:
        _fail(EXIT_VERIFY_FAILED, "one or more properties failed")
    click.echo(f"all {len(checks)} properties passed")


@main.command("gen-data")
@click.option("--config", "config_path", required=True)
@click.option("--n", "n_samples", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--train-stream/--test-stream", default=True,
              help="Which child stream of the seed to draw from.")
@click.option("--out", "out_dir", required=True)
def cmd_gen_data(config_path, n_samples, seed, train_stream, out_dir):
    """Materialize a user-position dataset as CSV."""
    n_samples = _count("--n", n_samples)
    seed = _seed(seed)
    cfg = _load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = (training.train_dataset if train_stream else training.test_dataset)(
        cfg, n_samples, seed)
    rows = [[i, k, data[i, k, 0], data[i, k, 1]]
            for i in range(n_samples) for k in range(cfg.K)]
    csv_path = out / "users.csv"
    _write_csv(csv_path, ["sample_id", "user_id", "x_m", "y_m"], rows)
    write_manifest(out, cfg, seed, [csv_path])
    click.echo(f"wrote {csv_path} ({n_samples} samples x {cfg.K} users)")


if __name__ == "__main__":
    main()
