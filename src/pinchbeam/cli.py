"""Command-line harness: train, eval, sweep, baseline, oracle, verify, gen-data.

Every command is deterministic given its flags and seed and writes a
run manifest (atomically) next to its outputs. An error listed in
``EXIT_CODES`` ends any command with its code and ``error: <message>`` on
stderr; a failed ``verify`` exits 5.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__, baselines, training
from ._alloc import tune_allocator
from .config import (ModelConfig, SystemConfig, non_negative_integer,
                     positive_integer, write_atomic)
from .errors import (DivergenceError, IncompatibleCheckpointError,
                     InvalidConfigError, OracleIneligibleError)
from .physics import UserPositions
from .training import TrainConfig
from .verify import run_verification

# The exit code of each error a command may raise; any other error surfaces unchanged.
EXIT_CODES = {InvalidConfigError: 2, DivergenceError: 3, IncompatibleCheckpointError: 4,
              OracleIneligibleError: 6}
EXIT_VERIFY_FAILED = 5  # a result, not an error


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The command group: a raised error in ``EXIT_CODES`` exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            _fail(next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)),
                  str(exc))


def _seed(value: int | None) -> int | None:
    """A ``--seed`` flag: None (the command's default) or an integer >= 0."""
    return None if value is None else non_negative_integer("--seed", value)


def _out_dir(ctx, param, value: str | None) -> str | None:
    """An ``--out`` flag, checked before any work: its nearest existing part is a directory."""
    existing = value and next(p for p in (Path(value), *Path(value).parents) if p.exists())
    if existing and not existing.is_dir():
        raise InvalidConfigError(f"--out {value}: {existing} is not a directory")
    return value


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows: list[list]) -> str:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _numeric_environment() -> dict:
    """Python, numpy and BLAS versions: last-bit results depend on all three."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _write_outputs(out_dir: str, cfg: SystemConfig | None, seed: int,
                   files: dict[str, str | Callable[[Path], None]]) -> None:
    """Make ``out_dir``, write each named file atomically (its text, or a
    function that writes the path) and then ``manifest.json`` over exactly
    those files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out / name)
        else:
            write_atomic(out / name, content)
    write_atomic(out / "manifest.json", _json({
        "tool_version": __version__,
        "command": sys.argv[1:] if len(sys.argv) > 1 else [],
        "config": cfg.to_json_dict() if cfg is not None else None,
        "seed": int(seed),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "environment": _numeric_environment(),
        "outputs": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in files},
    }))


def _check_config(config_path: str | None, ckpt: training.Checkpoint, message: str,
                  free: tuple[str, ...] = ()) -> None:
    """A ``--config`` given next to a checkpoint must equal the checkpoint's
    config outside the ``free`` keys, else IncompatibleCheckpointError."""
    if config_path is None:
        return
    ours, theirs = ({k: v for k, v in cfg.to_json_dict().items() if k not in free}
                    for cfg in (SystemConfig.load(config_path), ckpt.cfg))
    if ours != theirs:
        raise IncompatibleCheckpointError(message)


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


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="pinchbeam")
def main():
    """Pinching-antenna placement and beamforming experiments."""
    tune_allocator()


@main.command("train")
@click.option("--config", "config_path", required=True, help="System config JSON.")
@click.option("--out", "out_dir", callback=_out_dir, required=True, help="Output directory.")
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
    cfg = SystemConfig.load(config_path)
    model = _make_model(layers, hidden, message_dim)
    train_cfg = TrainConfig(n_train=n_train, n_test=n_test, batch_size=batch_size,
                            epochs=epochs, learning_rate=lr, seed=seed,
                            snr_db=snr_db, grad_clip=grad_clip)
    run_cfg = cfg.with_snr_db(snr_db)
    store, report = training.train(train_cfg, cfg, model)
    _write_outputs(out_dir, run_cfg, seed, {
        "checkpoint.json": lambda path: training.save_checkpoint(path, store, run_cfg,
                                                                 seed, model),
        "report.json": _json(report.to_json_dict())})
    click.echo(f"trained {report.n_parameters} parameters; "
               f"test mean SE {report.test_mean_se:.6f} bits/s/Hz")


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--config", "config_path", default=None,
              help="Must match the checkpoint config when given.")
@click.option("--n-test", default=1000, show_default=True)
@click.option("--seed", default=None, type=int,
              help="Test-set seed; defaults to the checkpoint seed.")
@click.option("--out", "out_dir", callback=_out_dir, required=True)
def cmd_eval(ckpt_path, config_path, n_test, seed, out_dir):
    """Evaluate a checkpoint on a fresh test stream; writes SE list and summary."""
    n_test = positive_integer("--n-test", n_test)
    seed = _seed(seed)
    ckpt = training.load_checkpoint(ckpt_path)
    _check_config(config_path, ckpt, "evaluation config does not match the checkpoint config")
    seed = ckpt.seed if seed is None else seed
    result = training.evaluate(ckpt.store, ckpt.cfg, ckpt.model, n_test, seed)
    _write_outputs(out_dir, ckpt.cfg, seed, {
        "eval_samples.csv": _csv(["sample_id", "se_bits_per_hz"],
                                 [[i, float(result.per_sample_se[i])] for i in range(n_test)]),
        "eval.json": _json({"mean_se": result.mean_se, "n_test": n_test, "seed": seed,
                            "mean_inference_time_s": result.mean_time_s})})
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
@click.option("--out", "out_dir", callback=_out_dir, required=True)
def cmd_sweep(ckpt_path, snr_list, n_samples, seed, config_path, out_dir):
    """SE vs SNR for the learned policy and the closest-user + ZF baseline.

    Noise power is pinned to 1 W and the budget set to 10^(SNR/10) W per row.
    """
    n_samples = positive_integer("--n-samples", n_samples)
    seed = _seed(seed)
    ckpt = training.load_checkpoint(ckpt_path)
    try:
        snrs = [float(s) for s in snr_list.split(",") if s.strip() != ""]
    except ValueError:
        raise InvalidConfigError(f"cannot parse SNR list {snr_list!r}") from None
    if not snrs or not all(map(math.isfinite, snrs)) \
            or any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise InvalidConfigError("SNR list must be non-empty, finite and strictly increasing")
    _check_config(config_path, ckpt, "sweep config geometry does not match checkpoint",
                  free=("power_budget_w", "noise_power_w"))
    unit_noise = replace(ckpt.cfg, noise_power_w=1.0)
    snr_cfgs = [unit_noise.with_snr_db(snr) for snr in snrs]
    seed = ckpt.seed if seed is None else seed

    phi = training.test_dataset(ckpt.cfg, n_samples, seed)
    rows = []
    for snr, cfg_snr in zip(snrs, snr_cfgs):
        result = training.evaluate(ckpt.store, cfg_snr, ckpt.model, n_samples, seed)
        base = np.mean(training.baseline_ses(phi, cfg_snr))
        rows.append([snr, result.mean_se, float(base), n_samples])
    _write_outputs(out_dir, ckpt.cfg, seed, {"sweep.csv": _csv(
        ["snr_db", "mean_se_gpass", "mean_se_baseline", "n_samples"], rows)})
    click.echo(f"wrote {Path(out_dir) / 'sweep.csv'} ({len(rows)} SNR points)")


@main.command("baseline")
@click.option("--config", "config_path", required=True)
@click.option("--n-samples", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", callback=_out_dir, required=True)
def cmd_baseline(config_path, n_samples, seed, out_dir):
    """Closest-user + zero-forcing baseline on a fresh test stream, at any shape."""
    n_samples = positive_integer("--n-samples", n_samples)
    seed = _seed(seed)
    cfg = SystemConfig.load(config_path)
    ses = training.baseline_ses(training.test_dataset(cfg, n_samples, seed), cfg)
    _write_outputs(out_dir, cfg, seed, {
        "baseline_samples.csv": _csv(["sample_id", "se_bits_per_hz"],
                                     [[i, float(se)] for i, se in enumerate(ses)]),
        "baseline.json": _json({"mean_se": float(np.mean(ses)), "n_samples": n_samples,
                                "seed": seed})})
    click.echo(f"baseline mean SE {np.mean(ses):.6f} bits/s/Hz")


@main.command("oracle")
@click.option("--config", "config_path", required=True)
@click.option("--grid-n", default=1000, show_default=True)
@click.option("--power-grid-n", default=50, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", callback=_out_dir, required=True)
def cmd_oracle(config_path, grid_n, power_grid_n, seed, out_dir):
    """Brute-force best placement/precoder for one sampled user draw."""
    grid_n = positive_integer("--grid-n", grid_n)
    power_grid_n = positive_integer("--power-grid-n", power_grid_n)
    seed = _seed(seed)
    cfg = SystemConfig.load(config_path)
    users = UserPositions.from_xy(training.test_dataset(cfg, 1, seed)[0])
    result = baselines.grid_search_oracle(users, cfg, grid_n, power_grid_n)
    _write_outputs(out_dir, cfg, seed, {"oracle.json": _json({
        "best_se": result.best_se,
        "grid_n": result.grid_n,
        "first_x": result.layout.first_x.tolist(),
        "gaps": result.layout.gaps.tolist(),
        "waveguide_y": result.layout.waveguide_y.tolist(),
        "precoder_re": np.real(result.w).tolist(),
        "precoder_im": np.imag(result.w).tolist(),
        "user_positions": users.positions.tolist(),
    })})
    click.echo(f"oracle best SE {result.best_se:.6f} bits/s/Hz")


@main.command("verify")
@click.option("--config", "config_path", default=None,
              help="Desk-scale config for the physics/equivariance checks.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", callback=_out_dir, default=None)
@click.option("--skip-gradients", is_flag=True, help="Skip the slow gradient suites.")
def cmd_verify(config_path, seed, out_dir, skip_gradients):
    """Run every module property suite; non-zero exit on any failure."""
    seed = _seed(seed)
    cfg = SystemConfig.load(config_path) if config_path else None
    checks = run_verification(cfg, seed, include_gradients=not skip_gradients)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"[{status}] {c.name}: {c.value:.3e} (<= {c.threshold:.0e}) {c.detail}")
    doc = {"all_passed": all(c.passed for c in checks),
           "properties": [c.to_json_dict() for c in checks]}
    if out_dir is not None:
        _write_outputs(out_dir, cfg, seed, {"verify.json": _json(doc)})
    if not doc["all_passed"]:
        _fail(EXIT_VERIFY_FAILED, "one or more properties failed")
    click.echo(f"all {len(checks)} properties passed")


@main.command("gen-data")
@click.option("--config", "config_path", required=True)
@click.option("--n", "n_samples", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--train-stream/--test-stream", default=True,
              help="Which child stream of the seed to draw from.")
@click.option("--out", "out_dir", callback=_out_dir, required=True)
def cmd_gen_data(config_path, n_samples, seed, train_stream, out_dir):
    """Materialize a user-position dataset as CSV."""
    n_samples = positive_integer("--n", n_samples)
    seed = _seed(seed)
    cfg = SystemConfig.load(config_path)
    data = (training.train_dataset if train_stream else training.test_dataset)(
        cfg, n_samples, seed)
    rows = [[i, k, data[i, k, 0], data[i, k, 1]]
            for i in range(n_samples) for k in range(cfg.K)]
    _write_outputs(out_dir, cfg, seed, {"users.csv": _csv(
        ["sample_id", "user_id", "x_m", "y_m"], rows)})
    click.echo(f"wrote {Path(out_dir) / 'users.csv'} ({n_samples} samples x {cfg.K} users)")


if __name__ == "__main__":
    main()
