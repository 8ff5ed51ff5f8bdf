"""The four workloads: inputs, timed operations, output checks and metrics.

Each workload is one closed-loop caller in one process: it starts the next
operation only after the previous one returned. What an operation is:

- ``train-*``: one training step, ``loss_on_tape`` -> ``backward_into`` ->
  ``adam_step``, the loop ``training.train`` runs;
- ``infer-c7``: one ``pipeline.policy_forward`` call on a fresh user draw;
- ``eval-c5``: one sweep chunk, ``training.evaluate`` on ``chunk`` draws at
  one SNR point plus ``baselines.baseline_se`` on the same draws, cycling
  through 0/10/20 dB.

Only the program's calls are inside the timed region. Every operation's
output is checked outside it: a finite loss, tape SE equal to the plain-numpy
reference SE, feasible layouts, and no raised ``PinchbeamError``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LEARNING_RATE = 3e-4
SNR_DB = 10.0
SWEEP_SNR_DB = (0.0, 10.0, 20.0)
# Parameters start from one fixed draw; the workload seed varies the inputs.
INIT_SEED = 0
# train_mean_se is measured on one fixed held-out draw, the same for every seed.
HELDOUT_SEED = 987654321
# Distinct training batches (cycled) and inference draws generated per run.
TRAIN_BATCHES = 256
INFER_POOL = 8192
# Tape SE and reference SE are two computations of the same quantity.
SE_RTOL = 1e-9
# Directional-derivative check of the training gradient: loss differences
# along a unit direction in parameter space at these steps. A relu or clamp
# kink inside one step spoils that difference, so the check passes when any
# central or one-sided difference agrees; a wrong backward misses them all.
GRAD_STEPS = (1e-5, 1e-6)
GRAD_RTOL = 1e-4
GRAD_DRAWS = 4  # draws per candidate set the check differentiates
# A set of draws whose derivative along the direction is below GRAD_MIN x
# |loss| proves nothing (a doubled or zeroed gradient of ~0 still agrees
# with finite differences of ~0); the check moves on to the next set of
# GRAD_DRAWS training draws, and fails if none of GRAD_TRIES sets has one.
GRAD_MIN = 1e-4
GRAD_TRIES = 16


class ProgramMissing(RuntimeError):
    """The checkout holds no pinchbeam sources to benchmark."""


def load_program() -> SimpleNamespace:
    """Import pinchbeam from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pinchbeam" / "__init__.py").is_file():
        raise ProgramMissing(f"no pinchbeam package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pinchbeam
    from pinchbeam import (autodiff, baselines, config, cplx, errors, physics,
                           pipeline, placement_gnn, precoder_gnn, training)
    if Path(pinchbeam.__file__).resolve().parent != SRC / "pinchbeam":
        raise ProgramMissing(f"pinchbeam was imported from {pinchbeam.__file__}")
    return SimpleNamespace(
        autodiff=autodiff, baselines=baselines, config=config, cplx=cplx,
        errors=errors, physics=physics, pipeline=pipeline,
        placement_gnn=placement_gnn, precoder_gnn=precoder_gnn, training=training)


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                 # "train", "infer" or "eval"
    n: int                    # waveguides
    m: int                    # pinching antennas per waveguide
    k: int                    # users
    batch: int = 1            # training batch size
    quality_steps: int = 0    # training steps before the train_mean_se snapshot
    heldout: int = 32         # size of the held-out draw behind train_mean_se
    chunk: int = 16           # draws per sweep operation
    model: tuple = ()         # ModelConfig overrides, as (field, value) pairs


# The workloads BENCHMARK.json lists. eval-c5 runs on request only: its
# operation is Python-bound, and the host's speed spells, which last
# seconds to minutes, move its chunk time by up to 1.65x; over ten seeds the
# spread of its median reached 0.40 and of its 75th percentile 0.195, the
# least margin under the largest bound the benchmark may set.
GATED = ("train-c5", "train-k8", "infer-c7")

WORKLOADS = {
    "train-c5": Spec("train-c5", "train", 2, 1, 2, batch=64, quality_steps=32,
                     heldout=128),
    "train-k8": Spec("train-k8", "train", 8, 3, 8, batch=8, quality_steps=8, heldout=16),
    "infer-c7": Spec("infer-c7", "infer", 8, 3, 8),
    "eval-c5": Spec("eval-c5", "eval", 2, 1, 2),
}


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= SE_RTOL * max(abs(a), abs(b))


class _Run:
    """State shared by the workload kinds: program, inputs, failure tally."""

    def __init__(self, spec: Spec, seed: int, pb: SimpleNamespace):
        self.spec, self.seed, self.pb = spec, seed, pb
        self.model = pb.config.ModelConfig(**dict(spec.model))
        self.cfg = pb.config.default_config(spec.n, spec.m, spec.k, snr_db=SNR_DB)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        # Draws pushed through the policy, and the seconds the program spent on them.
        self.samples = 0
        self.busy_s = 0.0

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.failures[reason] = self.failures.get(reason, 0) + n

    def check_policy(self, phi: np.ndarray, result, cfg,
                     expected_se: float | None = None) -> None:
        """Tape SE matches the reference path and the layout is feasible."""
        ref = self.pb.training.reference_se(phi, result, cfg)
        if not _close(result.se, ref) or (expected_se is not None
                                          and not _close(ref, expected_se)):
            self.fail("tape SE differs from reference SE")
        if self.pb.physics.check_feasibility(result.layout, result.w, cfg):
            self.fail("infeasible layout")

    def check_baseline(self, users, cfg, se: float) -> None:
        """``se``, from ``baselines.baseline_se``, is finite and positive, and
        the closest-user baseline behind it is feasible and has that SE."""
        pb = self.pb
        if not (math.isfinite(se) and se > 0):
            self.fail("baseline SE not finite and positive")
        b = pb.baselines.baseline_closest_user(users, cfg)
        if pb.physics.check_feasibility(b.layout, b.w, cfg):
            self.fail("infeasible baseline layout")
        if not _close(float(pb.physics.compute_se(b.h_tilde, b.w, cfg.noise_power_w)), se):
            self.fail("baseline SE differs from its recomputation")

    def finish(self, quality: bool) -> float | None:
        """Checks after the timed loop; returns train_mean_se when asked."""
        return None


class TrainRun(_Run):
    def setup(self) -> None:
        pb, spec = self.pb, self.spec
        # Warm up through the public entry point, which also applies the
        # program's own process set-up.
        pb.training.train(pb.training.TrainConfig(
            n_train=spec.batch, n_test=1, batch_size=spec.batch, epochs=1,
            learning_rate=LEARNING_RATE, seed=self.seed, snr_db=SNR_DB),
            self.cfg, self.model)
        self.store = pb.pipeline.init_parameters(self.cfg, self.model, INIT_SEED)
        # The gradient check runs at the initial parameters: after a few
        # steps at N=K=8 whole batches can have an all-zero gradient.
        self.initial = self.store.copy()
        self.state = pb.autodiff.AdamState.for_store(self.store)
        self.data = pb.training.train_dataset(self.cfg, spec.batch * TRAIN_BATCHES, self.seed)
        self.steps = 0
        self.snapshot = self.store.copy() if spec.quality_steps == 0 else None

    def batch(self, i: int) -> np.ndarray:
        b = self.spec.batch
        start = (i % TRAIN_BATCHES) * b
        return self.data[start:start + b]

    def op(self, i: int, tracer: spans.Tracer | None) -> float:
        ad, tr = self.pb.autodiff, self.pb.training
        phi = self.batch(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            tape = ad.Tape()
            loss = tr.loss_on_tape(tape, phi, self.store, self.cfg, self.model)
            finite = math.isfinite(float(loss.value))
            if finite:
                if tracer is not None:
                    tracer.wrap_vjps(tape)
                ad.backward_into(self.store, loss)
                ad.adam_step(self.store, self.state, LEARNING_RATE)
        except self.pb.errors.PinchbeamError as exc:
            finite = True
            self.fail(f"raised {type(exc).__name__}")
        elapsed = time.perf_counter() - t0
        if not finite:
            self.fail("non-finite loss")
        self.steps += 1
        self.samples += len(phi)
        self.busy_s += elapsed
        if self.steps == self.spec.quality_steps:
            self.snapshot = self.store.copy()
        return 1e3 * elapsed

    def check(self, i: int) -> None:
        """One draw of the step's batch through the updated policy and, where
        the baseline is defined (M = 1), through the baseline."""
        pb = self.pb
        phi = self.batch(i)[i % self.spec.batch]
        try:
            self.check_policy(phi, pb.pipeline.policy_forward(
                phi, self.store, self.cfg, self.model), self.cfg)
            if self.spec.m == 1:
                users = pb.physics.UserPositions.from_xy(phi)
                self.check_baseline(users, self.cfg, pb.baselines.baseline_se(users, self.cfg))
        except pb.errors.PinchbeamError as exc:
            self.fail(f"raised {type(exc).__name__}")

    def finish(self, quality: bool) -> float | None:
        while self.steps < self.spec.quality_steps:
            self.op(self.steps, None)
            self.check(self.steps - 1)
        # The batched training loss equals minus the mean reference SE of the
        # same draws taken one at a time.
        tr, pl = self.pb.training, self.pb.pipeline
        phi = self.batch(0)
        self.attempted += 1
        loss = float(tr.loss_on_tape(self.pb.autodiff.Tape(), phi, self.store,
                                     self.cfg, self.model).value)
        ref = float(np.mean([tr.reference_se(x, pl.policy_forward(
            x, self.store, self.cfg, self.model), self.cfg) for x in phi]))
        if not _close(-loss, ref):
            self.fail("batch loss differs from reference SE")
        self.attempted += 1
        verdict = self.gradient_agrees()
        if verdict is None:
            self.fail("no draws with a non-zero derivative to check the gradient on")
        elif not verdict:
            self.fail("gradient differs from finite differences")
        if not quality:
            return None
        return tr.evaluate(self.snapshot, self.cfg, self.model, self.spec.heldout,
                           HELDOUT_SEED).mean_se

    def gradient_agrees(self) -> bool | None:
        """backward_into's gradient at the initial parameters, along a random
        direction, matches a finite difference of the loss along it, on the
        first set of GRAD_DRAWS training draws where that derivative is not
        ~0; None if no set has one."""
        ad, tr = self.pb.autodiff, self.pb.training
        store = self.initial
        names = store.trainable_names()
        rng = np.random.default_rng(self.seed)
        direction = {n: rng.standard_normal(store.values[n].shape) for n in names}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        for t in range(GRAD_TRIES):
            phi = self.data[t * GRAD_DRAWS:(t + 1) * GRAD_DRAWS]
            loss = tr.loss_on_tape(ad.Tape(), phi, store, self.cfg, self.model)
            ad.backward_into(store, loss)
            loss = float(loss.value)  # drops the tape before the probes build theirs
            analytic = sum(float(np.sum(store.grads[n] * direction[n])) for n in names) / norm
            if abs(analytic) > GRAD_MIN * abs(loss):
                break
        else:
            return None

        def shifted(h: float) -> float:
            probe = store.copy()
            for n in names:
                probe.values[n] += (h / norm) * direction[n]
            return float(tr.loss_on_tape(ad.Tape(), phi, probe, self.cfg, self.model).value)

        estimates = []
        for h in GRAD_STEPS:
            up, down = shifted(h), shifted(-h)
            estimates += [(up - down) / (2 * h), (up - loss) / h, (loss - down) / h]
        return any(abs(analytic - e) <= GRAD_RTOL * max(abs(analytic), abs(e))
                   for e in estimates)


class InferRun(_Run):
    def setup(self) -> None:
        pb = self.pb
        self.store = pb.pipeline.init_parameters(self.cfg, self.model, INIT_SEED)
        self.pool = pb.training.test_dataset(self.cfg, INFER_POOL, self.seed)
        # Warm-up through the public entry point that carries process set-up.
        pb.training.evaluate(self.store, self.cfg, self.model, 3, self.seed)

    def op(self, i: int, tracer: spans.Tracer | None) -> float:
        phi = self.pool[i % INFER_POOL]
        self.attempted += 1
        self.last = None
        t0 = time.perf_counter()
        try:
            self.last = self.pb.pipeline.policy_forward(phi, self.store, self.cfg, self.model)
        except self.pb.errors.PinchbeamError as exc:
            self.fail(f"raised {type(exc).__name__}")
        elapsed = time.perf_counter() - t0
        self.samples += 1
        self.busy_s += elapsed
        return 1e3 * elapsed

    def check(self, i: int) -> None:
        if self.last is not None:
            self.check_policy(self.pool[i % INFER_POOL], self.last, self.cfg)


class EvalRun(_Run):
    def setup(self) -> None:
        pb = self.pb
        self.cfgs = [pb.config.default_config(self.spec.n, self.spec.m, self.spec.k, snr_db=s)
                     for s in SWEEP_SNR_DB]
        self.store = pb.pipeline.init_parameters(self.cfg, self.model, INIT_SEED)
        pb.training.evaluate(self.store, self.cfg, self.model, 3, self.seed)
        self.baseline_samples = 0
        self.baseline_s = 0.0

    def chunk_seed(self, i: int) -> int:
        return int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])

    def op(self, i: int, tracer: spans.Tracer | None) -> float:
        pb, n = self.pb, self.spec.chunk
        cfg = self.cfgs[i % len(self.cfgs)]
        seed = self.chunk_seed(i)
        self.attempted += 2 * n
        self.last = None
        t0 = time.perf_counter()
        try:
            result = pb.training.evaluate(self.store, cfg, self.model, n, seed)
        except pb.errors.PinchbeamError as exc:
            self.fail(f"raised {type(exc).__name__}", n)
            result = None
        t1 = time.perf_counter()
        users = [pb.physics.UserPositions.from_xy(x)
                 for x in pb.training.test_dataset(cfg, n, seed)]
        base = np.full(n, np.nan)
        t2 = time.perf_counter()
        try:
            for j, u in enumerate(users):
                base[j] = pb.baselines.baseline_se(u, cfg)
        except pb.errors.PinchbeamError as exc:
            self.fail(f"raised {type(exc).__name__}", int(np.sum(np.isnan(base))))
        t3 = time.perf_counter()
        self.busy_s += t1 - t0
        self.baseline_s += t3 - t2
        self.samples += n
        self.baseline_samples += n
        self.last = (cfg, users, result, base)
        return 1e3 * ((t1 - t0) + (t3 - t2))

    def check(self, i: int) -> None:
        pb = self.pb
        cfg, users, result, base = self.last
        bad_base = int(np.sum(np.isinf(base[1:]) | (base[1:] <= 0)))
        if bad_base:
            self.fail("baseline SE not finite and positive", bad_base)
        if result is None:
            return
        ses = result.per_sample_se
        bad = int(np.sum(~np.isfinite(ses) | (ses <= 0)))
        if bad:
            self.fail("policy SE not finite and positive", bad)
        # Re-derive the first draw of the chunk through both paths.
        phi = users[0].xy
        try:
            self.check_policy(phi, pb.pipeline.policy_forward(phi, self.store, cfg, self.model),
                              cfg, expected_se=float(ses[0]))
            self.check_baseline(users[0], cfg, float(base[0]))
        except pb.errors.PinchbeamError as exc:
            self.fail(f"raised {type(exc).__name__}")


RUNS = {"train": TrainRun, "infer": InferRun, "eval": EvalRun}
