import numpy as np
import pytest

from pinchbeam import autodiff as ad
from pinchbeam import placement_gnn as pbf
from pinchbeam.autodiff import ParameterStore, Tape, grad_check
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.physics import check_feasibility
from pinchbeam.pipeline import init_parameters

MICRO = ModelConfig(pbf_layers=2, tbf_layers=2, hidden=8, message_dim=8)


def params_for(cfg, model=MICRO, seed=0):
    return init_parameters(cfg, model, seed)


class TestInitEdges:
    def test_normalization_endpoints(self):
        cfg = default_config(1, 3, 1)
        s = pbf.index_feature(1, 3)
        d = pbf.init_edges(Tape(), np.array([[[cfg.D, cfg.D]]]), s, cfg)
        # User at (D, D) with the last slot index M: all features exactly 1.
        np.testing.assert_array_equal(d.value[0, 0, 2, 0], [1.0, 1.0, 1.0])

    def test_user_swap_swaps_slices(self):
        cfg = default_config(2, 2, 3)
        s = pbf.index_feature(2, 2)
        phi = np.random.default_rng(0).uniform(0, cfg.D, (1, 3, 2))
        d = pbf.init_edges(Tape(), phi, s, cfg)
        d_sw = pbf.init_edges(Tape(), phi[:, [1, 0, 2]], s, cfg)
        np.testing.assert_array_equal(d.value[:, :, :, [1, 0, 2]], d_sw.value)

    def test_single_antenna_index_channel_constant(self):
        cfg = default_config(2, 1, 2)
        s = pbf.index_feature(2, 1)
        phi = np.random.default_rng(1).uniform(0, cfg.D, (1, 2, 2))
        d = pbf.init_edges(Tape(), phi, s, cfg)
        assert np.all(d.value[..., 2] == 1.0)


class TestNestedPeMap:
    def _apply(self, z, cfg_n, cfg_m, seed=0):
        model = MICRO
        specs = pbf.layer_specs(z.shape[-1] // 2, model)
        store = ParameterStore()
        rng = np.random.default_rng(seed)
        for name in pbf.SUBNET_NAMES:
            ad.init_fnn(store, f"pbf.layer1.{name}", specs[name], rng)
        tape = Tape()
        out = pbf.nested_pe_map(tape, tape.constant(z), store, "pbf.layer1",
                                ("fq", "qq1", "qq2"), specs)
        return out.value

    def test_empty_sums_single_slot(self):
        # N = M = 1: both context sums are empty and contribute exact zeros,
        # so the output must match feeding zero contexts by hand.
        model = MICRO
        in_w = 3
        specs = pbf.layer_specs(in_w, model)
        store = ParameterStore()
        rng = np.random.default_rng(3)
        for name in pbf.SUBNET_NAMES:
            ad.init_fnn(store, f"pbf.layer1.{name}", specs[name], rng)
        z = rng.standard_normal((1, 1, 1, 4, 2 * in_w))
        tape = Tape()
        out = pbf.nested_pe_map(tape, tape.constant(z), store, "pbf.layer1",
                                ("fq", "qq1", "qq2"), specs)
        tape2 = Tape()
        zeros = np.zeros((1, 1, 1, 4, model.message_dim))
        manual_in = np.concatenate([z, zeros, zeros], axis=-1)
        manual = ad.fnn_forward(tape2, specs["fq"], store, "pbf.layer1.fq",
                                tape2.constant(manual_in))
        np.testing.assert_allclose(out.value, manual.value, atol=1e-15)

    def test_within_waveguide_permutation(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((1, 2, 3, 4, 6))
        y = self._apply(z, 2, 3)
        perm = [2, 0, 1]
        y_p = self._apply(z[:, :, perm], 2, 3)
        np.testing.assert_allclose(y_p, y[:, :, perm], atol=1e-9)

    def test_waveguide_block_permutation(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((1, 3, 2, 4, 6))
        y = self._apply(z, 3, 2)
        perm = [1, 2, 0]
        y_p = self._apply(z[:, perm], 3, 2)
        np.testing.assert_allclose(y_p, y[:, perm], atol=1e-9)


class TestPbfLayer:
    def _layer(self, d, model=MICRO, seed=0):
        store = ParameterStore()
        rng = np.random.default_rng(seed)
        specs = pbf.layer_specs(d.shape[-1], model)
        for name in pbf.SUBNET_NAMES:
            ad.init_fnn(store, f"pbf.layer1.{name}", specs[name], rng)
        tape = Tape()
        return pbf.pbf_layer(tape, tape.constant(d), store, "pbf.layer1",
                             d.shape[-1], model).value

    def test_single_user_empty_message(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((1, 2, 2, 1, 3))
        out = self._layer(d)
        assert out.shape == (1, 2, 2, 1, MICRO.hidden)
        assert np.all(np.isfinite(out))

    def test_duplicate_users_identical_outputs(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal((1, 2, 2, 1, 3))
        d = np.repeat(d, 3, axis=3)  # three identical users
        out = self._layer(d)
        np.testing.assert_allclose(out[:, :, :, 0], out[:, :, :, 1], atol=1e-12)
        np.testing.assert_allclose(out[:, :, :, 0], out[:, :, :, 2], atol=1e-12)

    def test_2d_pe_property(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal((2, 2, 3, 4, 3))
        out = self._layer(d)
        pu = rng.permutation(4)
        wg = rng.permutation(2)
        slots = np.stack([rng.permutation(3) for _ in range(2)])
        d_p = d[:, wg][:, np.arange(2)[:, None], slots][:, :, :, pu]
        out_p = self._layer(d_p)
        expected = out[:, wg][:, np.arange(2)[:, None], slots][:, :, :, pu]
        np.testing.assert_allclose(out_p, expected, atol=1e-9)


class TestOutputActions:
    def _actions(self, cfg, d_last, gap_bias, x1_bias=0.0, s=None):
        """Zeroed heads with chosen biases make the head outputs exact."""
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=d_last.shape[-1],
                            message_dim=4)
        store = ParameterStore()
        store.add("pbf.head.gap.W0", np.zeros((d_last.shape[-1], 1)))
        store.add("pbf.head.gap.b0", np.array([gap_bias]))
        store.add("pbf.head.x1.W0", np.zeros((d_last.shape[-1], 1)))
        store.add("pbf.head.x1.b0", np.array([x1_bias]))
        if s is None:
            s = pbf.index_feature(d_last.shape[1], d_last.shape[2])
        tape = Tape()
        x1, gaps = pbf.output_actions(tape, tape.constant(d_last), store, cfg,
                                      model, s)
        return x1.value, gaps.value

    def test_negative_head_clamps_to_min_gap(self):
        cfg = default_config(1, 3, 2)
        d = np.ones((1, 1, 3, 2, 4))
        _, gaps = self._actions(cfg, d, gap_bias=-0.5)
        np.testing.assert_allclose(gaps, cfg.min_gap_m)

    def test_gap_arithmetic(self):
        cfg = default_config(1, 3, 2)
        d = np.ones((1, 1, 3, 2, 4))
        _, gaps = self._actions(cfg, d, gap_bias=0.3)
        np.testing.assert_allclose(gaps, 0.3 + cfg.min_gap_m, rtol=1e-12)
        assert gaps[0, 0, 0] == pytest.approx(0.30765, rel=1e-3)

    def test_single_antenna_x1_range(self):
        cfg = default_config(2, 1, 2)
        d = np.ones((1, 2, 1, 2, 4))
        x1, gaps = self._actions(cfg, d, gap_bias=0.0, x1_bias=2.0)
        assert gaps.shape == (1, 2, 1)
        assert np.all(x1 > 0.0) and np.all(x1 < cfg.D)

    def test_span_projection_shrinks_uniformly(self):
        # Huge gap head forces the span over the budget; the projection must
        # rescale every gap toward min_gap by one common factor.
        cfg = default_config(1, 4, 1)
        d = np.ones((1, 1, 4, 1, 4))
        _, gaps = self._actions(cfg, d, gap_bias=5.0)
        span = gaps[0, 0, 1:].sum()
        budget = cfg.D * (1 - pbf.SPAN_MARGIN_FRACTION)
        assert span <= budget + 1e-12
        excess = gaps[0, 0] - cfg.min_gap_m
        np.testing.assert_allclose(excess / excess[0], 1.0, rtol=1e-12)


class TestPbfForward:
    def test_layout_always_feasible(self):
        cfg = default_config(2, 3, 2)
        rng = np.random.default_rng(9)
        for seed in range(3):
            store = params_for(cfg, seed=seed)
            phi = rng.uniform(0, cfg.D, (50, cfg.K, 2))
            out = pbf.pbf_forward(Tape(), phi, store, cfg, MICRO)
            assert np.all(out.gaps.value >= cfg.min_gap_m)
            assert np.all(out.positions_x.value >= 0.0)
            assert np.all(out.positions_x.value <= cfg.D)

    def test_feasibility_via_checker(self):
        from pinchbeam.physics import AntennaLayout
        cfg = default_config(2, 3, 2)
        store = params_for(cfg)
        phi = np.random.default_rng(10).uniform(0, cfg.D, (1, cfg.K, 2))
        out = pbf.pbf_forward(Tape(), phi, store, cfg, MICRO)
        layout = AntennaLayout(out.first_x.value[0], out.gaps.value[0],
                               cfg.waveguide_y(), cfg.d)
        assert check_feasibility(layout, None, cfg) == []

    def test_user_permutation_leaves_layout(self):
        cfg = default_config(2, 2, 3)
        store = params_for(cfg)
        rng = np.random.default_rng(11)
        phi = rng.uniform(0, cfg.D, (1, 3, 2))
        out = pbf.pbf_forward(Tape(), phi, store, cfg, MICRO)
        out_p = pbf.pbf_forward(Tape(), phi[:, rng.permutation(3)], store, cfg, MICRO)
        np.testing.assert_allclose(out_p.positions_x.value, out.positions_x.value,
                                   atol=1e-9)

    def test_nested_action_equivariance(self):
        cfg = default_config(3, 2, 2)
        store = params_for(cfg)
        rng = np.random.default_rng(12)
        phi = rng.uniform(0, cfg.D, (1, 2, 2))
        s = pbf.index_feature(cfg.N, cfg.M)
        x1, gaps = pbf.pbf_actions(Tape(), phi, s, store, cfg, MICRO)
        wg = rng.permutation(3)
        slots = np.stack([rng.permutation(2) for _ in range(3)])
        s_p = s[wg][np.arange(3)[:, None], slots]
        x1_p, gaps_p = pbf.pbf_actions(Tape(), phi[:, rng.permutation(2)], s_p,
                                       store, cfg, MICRO)
        np.testing.assert_allclose(x1_p.value, x1.value[:, wg], atol=1e-9)
        np.testing.assert_allclose(
            gaps_p.value, gaps.value[:, wg][:, np.arange(3)[:, None], slots],
            atol=1e-9)

    def test_gap_gradient_matches_finite_differences(self):
        cfg = default_config(1, 2, 1)
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=4, message_dim=4)
        phi = np.random.default_rng(14).uniform(2.0, 8.0, (1, 1, 2))

        for attempt in range(20):
            store = init_parameters(cfg, model, np.random.SeedSequence((5, attempt)))
            tape = Tape()
            out = pbf.pbf_forward(tape, phi, store, cfg, model)
            from pinchbeam.verify import kink_distance
            if kink_distance(tape) > 1e-3:
                break

        def f(s):
            tape = Tape()
            out = pbf.pbf_forward(tape, phi, s, cfg, model)
            return ad.mean_axis(out.gaps, (0, 1, 2))

        assert grad_check(f, store) <= 1e-4


class TestPairTensorNotBuilt:
    def test_no_broadcast_or_wide_pair_node(self):
        # The processor reads (d_k, d_j) as two K-resolution parts of one dense
        # node, so no node repeats an edge tensor across users, and every node
        # at pair resolution (B*N*M*K^2 rows) is a subnet output, at most
        # max(hidden, message_dim) wide.
        b, n, m, k = 2, 4, 2, 4
        cfg = default_config(n, m, k)
        store = params_for(cfg)
        phi = np.random.default_rng(15).uniform(0, cfg.D, (b, k, 2))
        tape = Tape()
        pbf.pbf_forward(tape, phi, store, cfg, MICRO)
        assert "broadcast_to" not in tape.ops
        limit = max(MICRO.hidden, MICRO.message_dim)
        pair_rows = b * n * m * k * k
        for op, value in zip(tape.ops, tape.values):
            if value.ndim >= 2 and value.size == pair_rows * value.shape[-1]:
                assert value.shape[-1] <= limit, (op, value.shape)


def _unfolded_pbf_layer(tape, d, store, prefix, in_width, model):
    """pbf_layer with every subnet run in full at row resolution: the qq1/qq2
    outputs are summed after their output layers, q_out is materialised at
    pair resolution and its diagonal taken with an eye mask."""
    specs = pbf.layer_specs(in_width, model)

    def nested(zs, names):
        main, same, other = names
        a = ad.fnn_forward(tape, specs[same], store, f"{prefix}.{same}", zs)
        same_sum = ad.sub(ad.sum_axis(a, 2, keepdims=True), a)
        b = ad.fnn_forward(tape, specs[other], store, f"{prefix}.{other}", zs)
        per_wg = ad.sum_axis(b, 2, keepdims=True)
        other_sum = ad.sub(ad.sum_axis(per_wg, 1, keepdims=True), per_wg)
        return ad.fnn_forward(tape, specs[main], store, f"{prefix}.{main}",
                              zs + [same_sum, other_sum])

    bsz, n, m, k, w = d.shape
    pair = [ad.reshape(d, (bsz, n, m, k, 1, w)), ad.reshape(d, (bsz, n, m, 1, k, w))]
    q_out = nested(pair, ("fq", "qq1", "qq2"))
    eye = tape.constant(np.eye(k)[None, None, None, :, :, None])
    msg = ad.sub(ad.sum_axis(q_out, 4), ad.sum_axis(ad.mul(q_out, eye), 4))
    return nested([d, msg], ("ff", "qf1", "qf2"))


def _skipped_subnets(n, m, k):
    """Subnets of a pbf layer whose leave-one-out set is empty at (N, M, K)."""
    skipped = set()
    if m == 1:
        skipped |= {"qq1", "qf1"}
    if n == 1:
        skipped |= {"qq2", "qf2"}
    if k == 1:
        skipped |= {"fq", "qq1", "qq2"}
    return skipped


class TestFoldedOutputLayers:
    @pytest.mark.parametrize("in_width", [3, MICRO.hidden])
    def test_matches_unfolded_reference(self, in_width):
        # Random weights and biases (init_fnn leaves biases at zero, which
        # would hide the folded bias terms). (3, 2, 4) builds every branch;
        # the other shapes each empty one or more leave-one-out sets, which
        # pbf_layer skips while the reference still builds them.
        rng = np.random.default_rng(16)
        specs = pbf.layer_specs(in_width, MICRO)
        store = ParameterStore()
        for name in pbf.SUBNET_NAMES:
            ad.init_fnn(store, f"pbf.layer1.{name}", specs[name], rng)
        for name in store.names():
            store.values[name][...] = rng.uniform(-0.5, 0.5, store.values[name].shape)

        def run(layer_fn, d, weights):
            tape = Tape()
            out = layer_fn(tape, tape.constant(d), store, "pbf.layer1", in_width, MICRO)
            loss = ad.sum_axis(ad.mul(out, tape.constant(weights)), tuple(range(5)))
            ad.backward_into(store, loss)
            return out.value, {n: g.copy() for n, g in store.grads.items()}

        for n, m, k in [(3, 2, 4), (3, 1, 4), (1, 2, 4), (3, 2, 1), (1, 1, 1)]:
            d = rng.standard_normal((2, n, m, k, in_width))
            weights = rng.uniform(0.5, 1.5, (2, n, m, k, MICRO.hidden))
            value, grads = run(pbf.pbf_layer, d, weights)
            ref_value, ref_grads = run(_unfolded_pbf_layer, d, weights)
            scale = np.max(np.abs(ref_value))
            assert np.max(np.abs(value - ref_value)) <= 1e-12 * scale, (n, m, k)
            skipped = _skipped_subnets(n, m, k)
            for name, ref in ref_grads.items():
                if name.split(".")[2] in skipped:
                    assert not np.any(ref) and not np.any(grads[name]), (n, m, k, name)
                    continue
                assert np.max(np.abs(ref)) > 0.0, (n, m, k, name)
                err = np.max(np.abs(grads[name] - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (n, m, k, name, err)

    def test_tanh_model_matches_unfolded_reference(self):
        # With tanh the sums are not fused into the dense nodes: each hidden
        # layer is a dense and a tanh node, then a sum_axis or
        # off_diagonal_sum node; the fold must still match the reference.
        model = ModelConfig(pbf_layers=1, tbf_layers=1, hidden=8, message_dim=8,
                            activation="tanh")
        rng = np.random.default_rng(21)
        specs = pbf.layer_specs(3, model)
        store = ParameterStore()
        for name in pbf.SUBNET_NAMES:
            ad.init_fnn(store, f"pbf.layer1.{name}", specs[name], rng)
        for name in store.names():
            store.values[name][...] = rng.uniform(-0.5, 0.5, store.values[name].shape)
        for n, m, k in [(3, 2, 4), (3, 1, 4)]:
            d = rng.standard_normal((2, n, m, k, 3))
            weights = rng.uniform(0.5, 1.5, (2, n, m, k, model.hidden))
            runs = []
            for layer_fn in (pbf.pbf_layer, _unfolded_pbf_layer):
                tape = Tape()
                out = layer_fn(tape, tape.constant(d), store, "pbf.layer1", 3, model)
                loss = ad.sum_axis(ad.mul(out, tape.constant(weights)), tuple(range(5)))
                ad.backward_into(store, loss)
                runs.append((tape.ops, out.value,
                             {n: g.copy() for n, g in store.grads.items()}))
            (ops, value, grads), (_, ref_value, ref_grads) = runs
            assert "tanh" in ops and "off_diagonal_sum" in ops and "sum_axis" in ops
            assert np.max(np.abs(value - ref_value)) <= 1e-12 * np.max(np.abs(ref_value))
            for name, ref in ref_grads.items():
                if name.split(".")[2] in _skipped_subnets(n, m, k):
                    continue
                err = np.max(np.abs(grads[name] - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (n, m, k, name, err)

    def test_only_same_branch_hidden_state_at_pair_resolution(self):
        # The leave-one-out sums are taken as total minus own inside the
        # weight fold and the other-branch and message sums inside their
        # dense nodes, so the one value per layer stored at pair resolution
        # (B*N*M*K^2 rows) is qq1's hidden state r_a.
        b, n, m, k = 2, 4, 2, 4
        cfg = default_config(n, m, k)
        tape = Tape()
        pbf.pbf_forward(tape, np.random.default_rng(17).uniform(0, cfg.D, (b, k, 2)),
                        params_for(cfg), cfg, MICRO)
        assert _pair_resolution_nodes(tape, b * n * m * k * k) == [
            ("dense", f"pbf.layer{layer}.qq1") for layer in range(1, MICRO.pbf_layers + 1)]

    def test_no_pair_resolution_sub_or_diagonal(self):
        # No sub or diagonal node reads or writes a pair-resolution tensor,
        # and the placement GNN has no leave-one-out sum node at all.
        b, n, m, k = 2, 4, 2, 4
        cfg = default_config(n, m, k)
        store = params_for(cfg)
        phi = np.random.default_rng(18).uniform(0, cfg.D, (b, k, 2))
        tape = Tape()
        pbf.pbf_forward(tape, phi, store, cfg, MICRO)
        pair_rows = b * n * m * k * k

        def at_pair(v):
            return v.ndim >= 2 and v.size == pair_rows * v.shape[-1]

        for i, op in enumerate(tape.ops):
            if op in ("sub", "diagonal"):
                touched = [tape.values[i]] + [tape.values[p] for p in tape.parents[i]]
                assert not any(at_pair(v) for v in touched), (op, tape.values[i].shape)
        assert "sum_others" not in tape.ops and "off_diagonal_sum" not in tape.ops

    def test_tape_bytes_at_k8(self):
        # B = 8, N = K = 8, M = 3 with the default model: 53.5 MB (the
        # unfused sums took 113.2 MB).
        cfg = default_config(8, 3, 8)
        model = ModelConfig()
        tape = Tape()
        pbf.pbf_forward(tape, np.random.default_rng(22).uniform(0, cfg.D, (8, 8, 2)),
                        init_parameters(cfg, model, 0), cfg, model)
        assert sum(v.nbytes for v in tape.values) <= 56e6


def _pair_resolution_nodes(tape, pair_rows):
    """(op, subnet of its first-layer bias) of each node whose value has
    ``pair_rows`` rows, in tape order."""
    bias_of = {idx: name.rsplit(".", 1)[0] for name, idx in tape.param_slots
               if name.endswith(".b0")}
    return [(op, next((bias_of[p] for p in tape.parents[i] if p in bias_of), None))
            for i, (op, v) in enumerate(zip(tape.ops, tape.values))
            if v.size and v.ndim >= 2 and v.size == pair_rows * v.shape[-1]]


class TestEmptyBranchesSkipped:
    def test_single_slot_tape_has_no_same_branch(self):
        # At M = 1 the within-waveguide sums are empty: qq1 and qf1 never
        # reach the tape, so no hidden state r_a is stored. The only values
        # with pair-resolution rows are then qq2's sums over the slot axis,
        # which has length 1: one per layer at N = 2, none at N = 1.
        for n in (2, 1):
            b, m, k = 2, 1, 3
            cfg = default_config(n, m, k)
            store = params_for(cfg)
            phi = np.random.default_rng(19).uniform(0, cfg.D, (b, k, 2))
            tape = Tape()
            pbf.pbf_forward(tape, phi, store, cfg, MICRO)
            subnets = {name.split(".")[2] for name, _ in tape.param_slots
                       if name.startswith("pbf.layer")}
            assert subnets == set(pbf.SUBNET_NAMES) - _skipped_subnets(n, m, k)
            assert _pair_resolution_nodes(tape, b * n * m * k * k) == [
                ("dense", f"pbf.layer{layer}.qq2")
                for layer in range(1, MICRO.pbf_layers + 1) if n > 1]

    def test_single_user_tape_has_no_processor(self):
        cfg = default_config(2, 2, 1)
        tape = Tape()
        pbf.pbf_forward(tape, np.full((3, 1, 2), 4.0), params_for(cfg), cfg, MICRO)
        subnets = {name.split(".")[2] for name, _ in tape.param_slots
                   if name.startswith("pbf.layer")}
        assert subnets == {"ff", "qf1", "qf2"}
        assert "off_diagonal_sum" not in tape.ops

    def test_adam_leaves_skipped_parameters_bit_unchanged(self):
        # C5 (N = K = 2, M = 1): qq1 and qf1 keep their stored shapes and
        # their exactly-zero gradients, so an Adam step leaves them as they
        # were while the rest of the placement GNN moves.
        from pinchbeam.training import expected_parameter_shapes, loss_on_tape
        cfg = default_config(2, 1, 2)
        store = params_for(cfg)
        assert expected_parameter_shapes(cfg, MICRO) == {
            name: store.values[name].shape for name in store.names()}
        before = {name: v.copy() for name, v in store.values.items()}
        phi = np.random.default_rng(20).uniform(0, cfg.D, (8, cfg.K, 2))
        tape = Tape()
        ad.backward_into(store, loss_on_tape(tape, phi, store, cfg, MICRO))
        ad.adam_step(store, ad.AdamState.for_store(store), 1e-3)
        skipped = [name for name in store.names()
                   if name.startswith("pbf.layer") and name.split(".")[2] in ("qq1", "qf1")]
        assert len(skipped) == 8 * MICRO.pbf_layers
        for name in skipped:
            assert np.array_equal(store.values[name], before[name]), name
        assert not np.array_equal(store.values["pbf.layer1.qq2.W0"],
                                  before["pbf.layer1.qq2.W0"])
