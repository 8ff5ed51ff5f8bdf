"""Unsupervised training of the full policy against the negative mean SE.

Runs are bit-reproducible given (seed, config): dataset, initialization and
shuffling draw from disjoint child streams of the master seed, and all
gradient accumulation happens in a fixed order on a single tape per batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import baselines, pipeline, placement_gnn, precoder_gnn
from ._alloc import tune_allocator
from .autodiff import AdamState, ParameterStore, Tape, Var, adam_step, backward_into
from .config import (ModelConfig, SystemConfig, check_finite, non_negative_integer,
                     positive_integer, write_atomic)
from .errors import (DivergenceError, IncompatibleCheckpointError,
                     InvalidConfigError)
from .physics import UserPositions, compute_se, layout_channel

CHECKPOINT_FORMAT_VERSION = 1

# Checkpoint entries that are frozen constants, not trainable weights.
FROZEN_PARAMETERS = ("tbf.input_scale",)

# Child-stream labels under the master seed.
_TRAIN_STREAM = 0
_TEST_STREAM = 1
_INIT_STREAM = 2
_SHUFFLE_STREAM = 3


@dataclass(frozen=True)
class TrainConfig:
    n_train: int = 10000
    n_test: int = 1000
    batch_size: int = 64
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    snr_db: float = 10.0  # sets the power budget to snr * the config noise power
    grad_clip: float | None = None  # global-norm clip; off by default

    def __post_init__(self):
        for name in ("n_train", "n_test", "batch_size", "epochs"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", non_negative_integer("seed", self.seed))
        check_finite("learning_rate", self.learning_rate)
        if self.learning_rate < 0:
            raise InvalidConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        check_finite("snr_db", self.snr_db)
        if self.grad_clip is not None:
            check_finite("grad_clip", self.grad_clip)
            if self.grad_clip <= 0:
                raise InvalidConfigError(
                    f"grad_clip must be None or > 0, got {self.grad_clip}")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    test_mean_se: float
    inference_time_s: float
    n_parameters: int = 0
    train_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return asdict(self)


def _stream(seed: int, label: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed), label))


def sample_dataset(cfg: SystemConfig, n: int, seed: int, stream: int) -> np.ndarray:
    """(n, K, 2) uniform user draws from one child stream of the master seed."""
    rng = np.random.default_rng(_stream(seed, stream))
    return rng.uniform(0.0, cfg.D, size=(n, cfg.K, 2))


def train_dataset(cfg: SystemConfig, n: int, seed: int) -> np.ndarray:
    return sample_dataset(cfg, n, seed, _TRAIN_STREAM)


def test_dataset(cfg: SystemConfig, n: int, seed: int) -> np.ndarray:
    return sample_dataset(cfg, n, seed, _TEST_STREAM)


def loss_on_tape(tape: Tape, phi_batch: np.ndarray, store: ParameterStore,
                 cfg: SystemConfig, model: ModelConfig) -> Var:
    """Negative mean SE over the batch; differentiable end to end."""
    from . import autodiff as ad
    out = pipeline.forward_on_tape(tape, phi_batch, store, cfg, model)
    return ad.scalar_scale(ad.mean_axis(out.se, 0), -1.0)


def train(train_cfg: TrainConfig, cfg: SystemConfig,
          model: ModelConfig = ModelConfig()) -> tuple[ParameterStore, TrainReport]:
    """Mini-batch Adam on the negative mean SE; returns params and report.

    Aborts with DivergenceError on the first non-finite loss.
    """
    tune_allocator()
    run_cfg = cfg.with_snr_db(train_cfg.snr_db)
    store = pipeline.init_parameters(run_cfg, model, _stream(train_cfg.seed, _INIT_STREAM))
    state = AdamState.for_store(store)
    data = train_dataset(run_cfg, train_cfg.n_train, train_cfg.seed)
    shuffle_rng = np.random.default_rng(_stream(train_cfg.seed, _SHUFFLE_STREAM))

    t_start = time.perf_counter()
    epoch_losses = []
    for epoch in range(train_cfg.epochs):
        perm = shuffle_rng.permutation(train_cfg.n_train)
        total = 0.0
        for bi, start in enumerate(range(0, train_cfg.n_train, train_cfg.batch_size)):
            idx = perm[start:start + train_cfg.batch_size]
            tape = Tape()
            loss = loss_on_tape(tape, data[idx], store, run_cfg, model)
            value = float(loss.value)
            if not math.isfinite(value):
                raise DivergenceError(epoch, bi)
            backward_into(store, loss)
            if train_cfg.grad_clip is not None:
                norm = store.grad_norm()
                if norm > train_cfg.grad_clip:
                    store.scale_grads(train_cfg.grad_clip / norm)
            adam_step(store, state, train_cfg.learning_rate)
            total += value * len(idx)
        epoch_losses.append(total / train_cfg.n_train)
    train_time = time.perf_counter() - t_start

    result = evaluate(store, run_cfg, model, train_cfg.n_test, train_cfg.seed)
    report = TrainReport(epoch_losses=epoch_losses,
                         test_mean_se=result.mean_se,
                         inference_time_s=result.mean_time_s,
                         n_parameters=store.n_parameters(),
                         train_time_s=train_time)
    return store, report


@dataclass
class EvalResult:
    mean_se: float
    per_sample_se: np.ndarray
    mean_time_s: float


def reference_se(phi: np.ndarray, result: pipeline.PolicyResult,
                 cfg: SystemConfig) -> float | np.ndarray:
    """SE of a policy output (one draw or a batch) through the numpy physics path."""
    ht = layout_channel(UserPositions.from_xy(phi), result.layout, cfg)
    return compute_se(ht, result.w, cfg.noise_power_w)


# Rows a chunk may hold: one C7 draw's pair rows B·N·M·K² (N = K = 8, M = 3);
# more per chunk raises C7's peak memory.
_CHUNK_ROWS = 8 * 3 * 8 ** 2


def draw_chunks(n: int, rows_per_draw: int) -> Iterator[slice]:
    """Slices of ``n`` draws, each as many draws as keep a chunk's rows
    within one C7 draw's pair rows (at least one draw)."""
    size = max(1, _CHUNK_ROWS // rows_per_draw)
    return (slice(start, start + size) for start in range(0, n, size))


def evaluate(store: ParameterStore, cfg: SystemConfig, model: ModelConfig,
             n_test: int, seed: int) -> EvalResult:
    """Deterministic test-set evaluation, chunked by :func:`draw_chunks` at
    N·M·K² pair rows per draw (one draw at C7-sized shapes).

    The reported SE comes from the reference physics path applied to the
    materialized layouts and precoders, not from the tape. ``mean_time_s`` is
    the policy's wall-clock time per draw.
    """
    tune_allocator()
    data = test_dataset(cfg, n_test, seed)
    ses = np.empty(n_test)
    elapsed = 0.0
    for chunk in draw_chunks(n_test, cfg.N * cfg.M * cfg.K ** 2):
        phi = data[chunk]
        t0 = time.perf_counter()
        result = pipeline.policy_forward(phi, store, cfg, model)
        elapsed += time.perf_counter() - t0
        ses[chunk] = reference_se(phi, result, cfg)
    return EvalResult(float(ses.mean()), ses, elapsed / n_test)


def baseline_ses(phi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Closest-user + ZF baseline SE of each draw of ``phi`` (n, K, 2),
    chunked by :func:`draw_chunks` at the baseline's N·M·K channel rows per
    draw; equal to one batched call bit for bit."""
    ses = np.empty(len(phi))
    for chunk in draw_chunks(len(phi), cfg.N * cfg.M * cfg.K):
        ses[chunk] = baselines.baseline_se(UserPositions.from_xy(phi[chunk]), cfg)
    return ses


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_dict(store: ParameterStore, cfg: SystemConfig, seed: int,
                    model: ModelConfig) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": cfg.to_json_dict(),
        "seed": int(seed),
        "arch": model.to_json_dict(),
        "entries": store.entries(),
    }


def save_checkpoint(path: str | Path, store: ParameterStore, cfg: SystemConfig,
                    seed: int, model: ModelConfig) -> None:
    """Atomic JSON write; decimal values round-trip exactly (repr floats)."""
    write_atomic(path, json.dumps(checkpoint_dict(store, cfg, seed, model)) + "\n")


@dataclass(frozen=True)
class Checkpoint:
    store: ParameterStore
    cfg: SystemConfig
    seed: int
    model: ModelConfig


def expected_parameter_shapes(model: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every entry the architecture needs, in init order,
    from the two GNNs' width tables; nothing is allocated."""
    for prefix, widths in chain(placement_gnn.param_widths(model),
                                precoder_gnn.param_widths(model)):
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            yield f"{prefix}.W{i}", (fan_in, fan_out)
            yield f"{prefix}.b{i}", (fan_out,)
    yield "tbf.input_scale", ()


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; every entry must have its architecture shape and be finite."""
    path = Path(path)
    if not path.exists():
        raise IncompatibleCheckpointError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise IncompatibleCheckpointError(f"checkpoint {path} is not valid JSON") from exc
    if not isinstance(doc, dict):
        raise IncompatibleCheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:  # not true, 1.0
        raise IncompatibleCheckpointError(f"unsupported checkpoint format {version!r}")
    try:
        cfg = SystemConfig.from_json_dict(doc["config"])
        model = ModelConfig.from_json_dict(doc["arch"])
        store = ParameterStore.from_entries(doc["entries"], frozen=FROZEN_PARAMETERS)
        if not all(isinstance(name, str) for name in store.values):
            raise TypeError("entry names must be strings")
        seed = non_negative_integer("checkpoint seed", doc["seed"])
    except (KeyError, TypeError, ValueError, InvalidConfigError) as exc:
        raise IncompatibleCheckpointError(f"malformed checkpoint: {exc}") from exc
    # At most one entry past the checkpoint's own: an architecture that
    # declares more layers than the entries hold fails before its table is built.
    expected = dict(sorted(islice(expected_parameter_shapes(model), len(store.values) + 1)))
    if store.names() != list(expected):
        raise IncompatibleCheckpointError(
            "checkpoint entries do not match the declared architecture")
    for name, shape in expected.items():
        value = store.values[name]
        if value.shape != shape:
            raise IncompatibleCheckpointError(
                f"checkpoint entry {name} has shape {value.shape}, "
                f"the declared architecture needs {shape}")
        if not np.all(np.isfinite(value)):
            raise IncompatibleCheckpointError(
                f"checkpoint entry {name} holds non-finite values")
    return Checkpoint(store, cfg, seed, model)
