import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pinchbeam import physics, pipeline
from pinchbeam.autodiff import Tape, backward_into
from pinchbeam.baselines import baseline_se
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.errors import (DivergenceError, IncompatibleCheckpointError,
                              InvalidConfigError)
from pinchbeam.physics import UserPositions, check_feasibility
from pinchbeam.training import (TrainConfig, baseline_ses, evaluate,
                                expected_parameter_shapes, load_checkpoint,
                                loss_on_tape, reference_se, save_checkpoint,
                                train, train_dataset)
from pinchbeam.training import test_dataset as held_out_dataset

MICRO = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=6, message_dim=6)
TINY = TrainConfig(n_train=48, n_test=8, batch_size=16, epochs=2,
                   learning_rate=1e-3, seed=3, snr_db=10.0)


class TestDatasets:
    def test_streams_disjoint_and_deterministic(self):
        cfg = default_config(1, 1, 2)
        a = train_dataset(cfg, 16, 0)
        b = train_dataset(cfg, 16, 0)
        c = held_out_dataset(cfg, 16, 0)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shapes_and_bounds(self):
        cfg = default_config(1, 1, 3)
        data = train_dataset(cfg, 10, 1)
        assert data.shape == (10, 3, 2)
        assert np.all((data >= 0) & (data <= cfg.D))


class TestLoss:
    def test_negative_mean_se(self):
        cfg = default_config(1, 1, 1)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        phi = train_dataset(cfg, 4, 0)
        tape = Tape()
        loss = loss_on_tape(tape, phi, store, cfg, MICRO)
        out = pipeline.forward_on_tape(Tape(), phi, store, cfg, MICRO)
        assert float(loss.value) == pytest.approx(-float(out.se.value.mean()),
                                                  rel=1e-12)

    def test_batch_order_invariant(self):
        cfg = default_config(1, 1, 2)
        store = pipeline.init_parameters(cfg, MICRO, 1)
        phi = train_dataset(cfg, 6, 1)
        l1 = loss_on_tape(Tape(), phi, store, cfg, MICRO)
        l2 = loss_on_tape(Tape(), phi[::-1].copy(), store, cfg, MICRO)
        assert float(l1.value) == pytest.approx(float(l2.value), abs=1e-12)

    def test_tape_freed_by_reference_counting(self):
        # A VJP closure that held a Var would tie its tape into a reference
        # cycle, so every training step's tape would wait for the cyclic
        # collector before its memory came back.
        cfg = default_config(2, 2, 2)
        store = pipeline.init_parameters(cfg, MICRO, 4)
        phi = train_dataset(cfg, 3, 4)
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            loss = loss_on_tape(tape, phi, store, cfg, MICRO)
            backward_into(store, loss)
            ref = weakref.ref(tape)
            del tape, loss
            assert ref() is None
        finally:
            gc.enable()

    def test_tape_se_matches_reference_physics(self):
        # The differentiable pipeline and the plain-numpy model are
        # independent realizations of the same math.
        cfg = default_config(2, 3, 2)
        store = pipeline.init_parameters(cfg, MICRO, 2)
        data = held_out_dataset(cfg, 5, 2)
        for i in range(5):
            result = pipeline.policy_forward(data[i], store, cfg, MICRO)
            assert reference_se(data[i], result, cfg) == pytest.approx(
                result.se, rel=1e-10)

    def test_reference_se_makes_one_oracle_pass(self, monkeypatch):
        cfg = default_config(2, 3, 2)
        store = pipeline.init_parameters(cfg, MICRO, 2)
        data = held_out_dataset(cfg, 5, 2)
        result = pipeline.policy_forward(data, store, cfg, MICRO)
        calls = []
        for name in ("compute_channel", "build_pinching_matrix", "effective_channel"):
            fn = getattr(physics, name)
            monkeypatch.setattr(physics, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        reference_se(data, result, cfg)
        assert calls == ["compute_channel", "build_pinching_matrix", "effective_channel"]


class TestTrain:
    def test_deterministic_runs(self):
        cfg = default_config(1, 1, 1)
        s1, r1 = train(TINY, cfg, MICRO)
        s2, r2 = train(TINY, cfg, MICRO)
        assert r1.epoch_losses == r2.epoch_losses
        assert r1.test_mean_se == r2.test_mean_se
        for name in s1.names():
            np.testing.assert_array_equal(s1.values[name], s2.values[name])

    def test_zero_learning_rate_freezes(self):
        cfg = default_config(1, 1, 1)
        tc = TrainConfig(n_train=32, n_test=4, batch_size=16, epochs=3,
                         learning_rate=0.0, seed=0, snr_db=10.0)
        store, report = train(tc, cfg, MICRO)
        init = pipeline.init_parameters(cfg.with_snr_db(10.0), MICRO,
                                        np.random.SeedSequence((0, 2)))
        for name in store.names():
            np.testing.assert_array_equal(store.values[name], init.values[name])
        # Shuffling regroups batches per epoch, so the aggregate may move by
        # float reassociation only.
        assert max(report.epoch_losses) - min(report.epoch_losses) <= 1e-12

    def test_monotone_sanity(self):
        # Mean test SE after a short run is not below the value at init.
        cfg = default_config(2, 1, 2)
        tc = TrainConfig(n_train=256, n_test=32, batch_size=32, epochs=4,
                         learning_rate=1e-3, seed=5, snr_db=10.0)
        run_cfg = cfg.with_snr_db(10.0)
        init_store = pipeline.init_parameters(run_cfg, MICRO,
                                              np.random.SeedSequence((5, 2)))
        before = evaluate(init_store, run_cfg, MICRO, 32, 5).mean_se
        _, report = train(tc, cfg, MICRO)
        assert report.test_mean_se >= before - 1e-12

    def test_divergence_guard(self, monkeypatch):
        cfg = default_config(1, 1, 1)

        def bad_loss(tape, phi, store, run_cfg, model):
            return tape.constant(float("nan"))

        import pinchbeam.training as training_mod
        monkeypatch.setattr(training_mod, "loss_on_tape", bad_loss)
        with pytest.raises(DivergenceError) as err:
            training_mod.train(TINY, cfg, MICRO)
        assert err.value.epoch == 0
        assert err.value.batch_index == 0

    def test_train_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(n_train=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("field,value", [("batch_size", 2.5), ("epochs", True),
                                             ("n_train", math.nan), ("n_test", "4"),
                                             ("epochs", -1)])
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, math.nan])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(InvalidConfigError, match="seed"):
            TrainConfig(seed=seed)

    def test_zero_seed_accepted(self):
        assert TrainConfig(seed=0).seed == 0

    def test_integral_float_count_stored_as_int(self):
        batch = TrainConfig(batch_size=16.0).batch_size
        assert batch == 16 and isinstance(batch, int)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3, True, None, "0.1"])
    def test_learning_rate_must_be_finite_nonnegative(self, lr):
        with pytest.raises(InvalidConfigError):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("clip", [-1.0, 0.0, math.nan, math.inf, True, "1.0"])
    def test_grad_clip_must_be_finite_positive(self, clip):
        with pytest.raises(InvalidConfigError):
            TrainConfig(grad_clip=clip)
        assert TrainConfig(grad_clip=None).grad_clip is None

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, True, None, "10"])
    def test_snr_db_must_be_finite(self, snr):
        with pytest.raises(InvalidConfigError):
            TrainConfig(snr_db=snr)


class TestEvaluate:
    def test_deterministic(self):
        cfg = default_config(1, 1, 2)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        a = evaluate(store, cfg, MICRO, 6, seed=9)
        b = evaluate(store, cfg, MICRO, 6, seed=9)
        np.testing.assert_array_equal(a.per_sample_se, b.per_sample_se)

    def test_mean_is_arithmetic_mean(self):
        cfg = default_config(1, 1, 2)
        store = pipeline.init_parameters(cfg, MICRO, 1)
        res = evaluate(store, cfg, MICRO, 6, seed=2)
        assert res.mean_se == pytest.approx(res.per_sample_se.mean(), rel=1e-15)
        assert res.mean_time_s > 0.0

    @pytest.mark.parametrize("shape,n_test", [((2, 1, 2), 200), ((4, 3, 4), 20),
                                              ((8, 3, 8), 2)])
    def test_matches_per_draw_results(self, shape, n_test):
        # Chunks of 192, 8 and 1 draws: n_test leaves a short last chunk at
        # (2, 1, 2) and (4, 3, 4).
        cfg = default_config(*shape)
        store = pipeline.init_parameters(cfg, MICRO, 3)
        res = evaluate(store, cfg, MICRO, n_test, seed=4)
        per_draw = [reference_se(phi, pipeline.policy_forward(phi, store, cfg, MICRO), cfg)
                    for phi in held_out_dataset(cfg, n_test, 4)]
        np.testing.assert_allclose(res.per_sample_se, per_draw, rtol=1e-12, atol=0.0)
        again = evaluate(store, cfg, MICRO, n_test, seed=4)
        assert again.per_sample_se.tobytes() == res.per_sample_se.tobytes()

    def test_outputs_feasible(self):
        cfg = default_config(2, 2, 2)
        store = pipeline.init_parameters(cfg, MICRO, 2)
        data = held_out_dataset(cfg, 5, 3)
        for i in range(5):
            result = pipeline.policy_forward(data[i], store, cfg, MICRO)
            assert check_feasibility(result.layout, result.w, cfg) == []


class TestBaselineSes:
    @pytest.mark.parametrize("shape,n", [((8, 3, 8), 3), ((2, 1, 2), 200), ((4, 3, 4), 20),
                                         ((8, 3, 8), 20), ((2, 1, 2), 800), ((4, 3, 4), 70)])
    def test_equals_one_batched_call(self, shape, n):
        # Chunks of 8, 384 and 32 draws: the first three cases fit in one
        # chunk, the last three take three chunks, the last one short.
        cfg = default_config(*shape)
        phi = held_out_dataset(cfg, n, 5)
        one = baseline_se(UserPositions.from_xy(phi), cfg)
        assert baseline_ses(phi, cfg).tobytes() == np.asarray(one).tobytes()

    @pytest.mark.parametrize("shape,sizes", [((8, 3, 8), [8, 8, 4]), ((4, 3, 4), [20]),
                                             ((2, 1, 2), [20])])
    def test_chunks_sized_by_the_baseline_rows(self, monkeypatch, shape, sizes):
        # As many draws as keep N·M·K channel rows each within 1,536, not
        # the policy's N·M·K² pair rows (which give one draw at (8, 3, 8)).
        import pinchbeam.training as training_mod
        seen = []

        def recording(users, cfg):
            seen.append(len(users.positions))
            return baseline_se(users, cfg)

        monkeypatch.setattr(training_mod.baselines, "baseline_se", recording)
        cfg = default_config(*shape)
        baseline_ses(held_out_dataset(cfg, 20, 5), cfg)
        assert seen == sizes

    def test_peak_memory_does_not_grow_with_the_draws(self):
        # 200 draws at (8, 3, 8), 8 per chunk: 0.15 MB traced, against
        # 2.9 MB for one batched call, which grows with the draw count.
        import tracemalloc
        cfg = default_config(8, 3, 8)
        phi = held_out_dataset(cfg, 200, 6)
        peaks = []
        for run in (lambda: baseline_ses(phi, cfg),
                    lambda: baseline_se(UserPositions.from_xy(phi), cfg)):
            run()  # warm caches outside the trace
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.5e6 < peaks[1]


class TestGradClip:
    """``train`` scales the gradient to the clip's global norm only when it is larger."""

    TC = TrainConfig(n_train=16, n_test=1, batch_size=8, epochs=2, learning_rate=1e-3,
                     seed=4, snr_db=10.0)

    def test_clip_below_the_norm_hands_adam_the_clip_norm(self, monkeypatch):
        import pinchbeam.training as training_mod
        norms = []

        def recording_step(store, state, lr):
            norms.append(store.grad_norm())
            original_step(store, state, lr)

        original_step = training_mod.adam_step
        monkeypatch.setattr(training_mod, "adam_step", recording_step)
        clip = 1e-6
        train(replace(self.TC, grad_clip=clip), default_config(2, 1, 2), MICRO)
        assert len(norms) == 4
        for norm in norms:
            assert abs(norm - clip) <= 1e-12 * clip

    def test_clip_above_the_norm_changes_nothing(self):
        cfg = default_config(2, 1, 2)
        clipped, _ = train(replace(self.TC, grad_clip=1e9), cfg, MICRO)
        plain, _ = train(self.TC, cfg, MICRO)
        for name in plain.names():
            assert clipped.values[name].tobytes() == plain.values[name].tobytes(), name


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = default_config(1, 1, 1)
        store = pipeline.init_parameters(cfg, MICRO, 7)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, store, cfg, 7, MICRO)
        ckpt = load_checkpoint(path)
        assert ckpt.cfg == cfg
        assert ckpt.seed == 7
        assert ckpt.model == MICRO
        for name in store.names():
            np.testing.assert_array_equal(ckpt.store.values[name],
                                          store.values[name])
        assert "tbf.input_scale" not in ckpt.store.trainable_names()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    def test_wrong_format_version(self, tmp_path):
        cfg = default_config(1, 1, 1)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, store, cfg, 0, MICRO)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_int(self, tmp_path, version):
        # Each equals format 1 under == or after a cast, but is not format 1.
        cfg = default_config(1, 1, 1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, pipeline.init_parameters(cfg, MICRO, 0), cfg, 0, MICRO)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleCheckpointError, match="unsupported checkpoint format"):
            load_checkpoint(path)

    def test_entry_names_validated(self, tmp_path):
        cfg = default_config(1, 1, 1)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, store, cfg, 0, MICRO)
        doc = json.loads(path.read_text())
        doc["entries"] = doc["entries"][1:]  # drop one parameter
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    def test_non_string_entry_name_rejected(self, tmp_path):
        cfg = default_config(1, 1, 1)
        store = pipeline.init_parameters(cfg, MICRO, 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, store, cfg, 0, MICRO)
        doc = json.loads(path.read_text())
        doc["entries"][0]["name"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleCheckpointError, match="names must be strings"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["1.5", True, False, None, [0.5], {"re": 0.5}])
    def test_ill_typed_entry_values_rejected(self, tmp_path, value):
        # np.asarray(..., dtype=float64) would read "1.5" as 1.5 and true as 1.0.
        cfg = default_config(1, 1, 1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, pipeline.init_parameters(cfg, MICRO, 0), cfg, 0, MICRO)
        doc = json.loads(path.read_text())
        doc["entries"][0]["values"][0] = value
        path.write_text(json.dumps(doc))
        name = doc["entries"][0]["name"]
        with pytest.raises(IncompatibleCheckpointError,
                           match=f"entry {name} values must be numbers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("pbf_layers,tbf_layers,hidden,message_dim",
                             [(1, 1, 6, 6), (2, 3, 6, 5), (3, 3, 64, 64), (1, 2, 4, 9)])
    def test_width_tables_match_init(self, pbf_layers, tbf_layers, hidden, message_dim):
        # The shapes a checkpoint is checked against come from the two width
        # tables; they are those init_parameters makes, in its order: 24
        # entries per placement layer, 8 per precoder layer and 9 more.
        model = ModelConfig(pbf_layers=pbf_layers, tbf_layers=tbf_layers, hidden=hidden,
                            message_dim=message_dim)
        store = pipeline.init_parameters(default_config(2, 1, 2), model, 0)
        assert list(expected_parameter_shapes(model)) == [
            (name, value.shape) for name, value in store.values.items()]
        assert len(store.values) == 24 * pbf_layers + 8 * tbf_layers + 9

    def test_checkpoint_names_follow_scheme(self):
        cfg = default_config(2, 2, 2)
        store = pipeline.init_parameters(cfg, ModelConfig(), 0)
        names = store.names()
        for layer in (1, 2, 3):
            for sub in ("ff", "qf1", "qf2", "fq", "qq1", "qq2"):
                assert f"pbf.layer{layer}.{sub}.W0" in names
                assert f"pbf.layer{layer}.{sub}.b1" in names
            for sub in ("ff", "qf", "fq", "qq"):
                assert f"tbf.layer{layer}.{sub}.W0" in names
        for head in ("gap", "x1"):
            assert f"pbf.head.{head}.W0" in names
        for head in ("p", "lambda"):
            assert f"tbf.head.{head}.W0" in names
        assert "tbf.input_scale" in names
