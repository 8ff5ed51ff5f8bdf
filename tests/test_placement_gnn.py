import numpy as np
import pytest

from pinchbeam import autodiff as ad
from pinchbeam import placement_gnn as pbf
from pinchbeam.autodiff import ParameterStore, Tape, grad_check
from pinchbeam.config import SPAN_MARGIN_FRACTION, ModelConfig, default_config
from pinchbeam.physics import check_feasibility
from pinchbeam.pipeline import init_parameters

MICRO = ModelConfig(pbf_layers=2, tbf_layers=2, hidden=8, message_dim=8)


def params_for(cfg, model=MICRO, seed=0):
    return init_parameters(cfg, model, seed)


def _layer_store(in_width, rng, model=MICRO):
    """The subnets of ``pbf.layer1`` at edge input width ``in_width``."""
    store = ParameterStore()
    for name, widths in pbf.layer_widths(in_width, model).items():
        ad.init_fnn(store, f"pbf.layer1.{name}", widths, rng)
    return store


def _subnet(tape, store, prefix, x):
    """A subnet run in full: relu hidden layer, identity output layer."""
    h = ad.dense(x, tape.param(store, f"{prefix}.W0"), tape.param(store, f"{prefix}.b0"),
                 relu=True)
    return ad.dense(h, tape.param(store, f"{prefix}.W1"), tape.param(store, f"{prefix}.b1"))


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
        store = _layer_store(z.shape[-1] // 2, np.random.default_rng(seed))
        tape = Tape()
        out = pbf.nested_pe_map(tape, tape.constant(z), store, "pbf.layer1",
                                ("fq", "qq1", "qq2"))
        return out.value

    def test_empty_sums_single_slot(self):
        # N = M = 1: both context sums are empty and contribute exact zeros,
        # so the output must match feeding zero contexts by hand.
        in_w = 3
        rng = np.random.default_rng(3)
        store = _layer_store(in_w, rng)
        z = rng.standard_normal((1, 1, 1, 4, 2 * in_w))
        tape = Tape()
        out = pbf.nested_pe_map(tape, tape.constant(z), store, "pbf.layer1",
                                ("fq", "qq1", "qq2"))
        tape2 = Tape()
        zeros = np.zeros((1, 1, 1, 4, MICRO.message_dim))
        manual_in = np.concatenate([z, zeros, zeros], axis=-1)
        manual = _subnet(tape2, store, "pbf.layer1.fq", tape2.constant(manual_in))
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
    def _layer(self, d, seed=0):
        store = _layer_store(d.shape[-1], np.random.default_rng(seed))
        tape = Tape()
        return pbf.pbf_layer(tape, tape.constant(d), store, "pbf.layer1").value

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
        store = ParameterStore()
        store.add("pbf.head.gap.W0", np.zeros((d_last.shape[-1], 1)))
        store.add("pbf.head.gap.b0", np.array([gap_bias]))
        store.add("pbf.head.x1.W0", np.zeros((d_last.shape[-1], 1)))
        store.add("pbf.head.x1.b0", np.array([x1_bias]))
        if s is None:
            s = pbf.index_feature(d_last.shape[1], d_last.shape[2])
        tape = Tape()
        x1, gaps = pbf.output_actions(tape, tape.constant(d_last), store, cfg, s)
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
        budget = cfg.D * (1 - SPAN_MARGIN_FRACTION)
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
        limit = max(MICRO.hidden, MICRO.message_dim)
        pair_rows = b * n * m * k * k
        for i, op in enumerate(tape.ops):
            value = tape.value(i)  # rebuilds the values the forward pass released
            if value.ndim >= 2 and value.size == pair_rows * value.shape[-1]:
                assert value.shape[-1] <= limit, (op, value.shape)


def _unfolded_pbf_layer(tape, d, store, prefix):
    """pbf_layer with every subnet run in full at row resolution: the qq1/qq2
    outputs are summed after their output layers, q_out is materialised at
    pair resolution and its diagonal taken with an eye mask."""

    def nested(zs, names):
        main, same, other = names
        a = _subnet(tape, store, f"{prefix}.{same}", zs)
        same_sum = ad.sub(ad.sum_axis(a, 2, keepdims=True), a)
        b = _subnet(tape, store, f"{prefix}.{other}", zs)
        per_wg = ad.sum_axis(b, 2, keepdims=True)
        other_sum = ad.sub(ad.sum_axis(per_wg, 1, keepdims=True), per_wg)
        return _subnet(tape, store, f"{prefix}.{main}", zs + [same_sum, other_sum])

    bsz, n, m, k, w = d.shape
    pair = [ad.reshape(d, (bsz, n, m, k, 1, w)), ad.reshape(d, (bsz, n, m, 1, k, w))]
    q_out = nested(pair, ("fq", "qq1", "qq2"))
    eye = tape.constant(np.eye(k)[None, None, None, :, :, None])
    msg = ad.sub(ad.sum_axis(q_out, 4), ad.sum_axis(ad.mul(q_out, eye), 4))
    return nested([d, msg], ("ff", "qf1", "qf2"))


def _nested_pe_hidden_of_nodes(tape, z, store, prefix, names, reduce=None):
    """nested_pe_hidden with main's folded first-layer weights and bias
    built from slice_axis, matmul, scalar_scale, concat and dense nodes."""
    main_name, same_name, other_name = names
    zs = ad.as_parts(z)
    n, m = np.broadcast_shapes(*(p.shape[:-1] for p in zs))[1:3]
    hidden = {}
    if n > 1:
        s_b = pbf._hidden(tape, store, f"{prefix}.{other_name}", zs, 2)
        hidden[other_name] = [s_b, ad.sum_axis(s_b, 1, keepdims=True)]
    if m > 1:
        r_a = pbf._hidden(tape, store, f"{prefix}.{same_name}", zs)
        hidden[same_name] = [r_a, ad.sum_axis(r_a, 2, keepdims=True)]
    parts = {name: hidden[name] for name in (same_name, other_name) if name in hidden}
    counts = {same_name: m - 1, other_name: (n - 1) * m}
    outs = {name: (tape.param(store, f"{prefix}.{name}.W1"),
                   tape.param(store, f"{prefix}.{name}.b1")) for name in parts}
    w0 = tape.param(store, f"{prefix}.{main_name}.W0")
    b0 = tape.param(store, f"{prefix}.{main_name}.b0")
    md = store.values[f"{prefix}.{same_name}.W1"].shape[1]
    zw = w0.shape[0] - 2 * md
    first_row = {same_name: zw, other_name: zw + md}
    w0_rows = {name: ad.slice_axis(w0, 0, first_row[name], first_row[name] + md)
               for name in parts}
    blocks = [ad.slice_axis(w0, 0, 0, sum(p.shape[-1] for p in zs))]
    for name in parts:
        fold = ad.matmul(outs[name][0], w0_rows[name])
        blocks += [ad.scalar_scale(fold, -1.0), fold]
    w = ad.concat(blocks, axis=0) if parts else blocks[0]
    scaled = {name: ad.scalar_scale(outs[name][1], counts[name]) for name in parts}
    b = b0
    for name in reversed(parts):
        b = ad.dense(scaled[name], w0_rows[name], b)
    h = ad.dense(zs + [p for pair in parts.values() for p in pair], w, b, relu=True,
                 reduce=reduce)
    if same_name in parts and parts[same_name][0].idx in tape.rebuilds:
        tape.release(*parts[same_name])
    return h


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
        store = _layer_store(in_width, rng)
        for name in store.names():
            store.values[name][...] = rng.uniform(-0.5, 0.5, store.values[name].shape)

        def run(layer_fn, d, weights):
            tape = Tape()
            out = layer_fn(tape, tape.constant(d), store, "pbf.layer1")
            loss = ad.sum_axis(ad.mul(out, tape.constant(weights)), tuple(range(5)))
            value = out.value  # read before the sweep releases it
            ad.backward_into(store, loss)
            return value, {n: g.copy() for n, g in store.grads.items()}

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

    @pytest.mark.parametrize("shape,batch", [((2, 1, 2), 64), ((8, 3, 8), 8),
                                             ((3, 2, 4), 5), ((1, 1, 1), 3)])
    def test_fold_nodes_bit_equal_to_the_nodes_they_fold(self, shape, batch, monkeypatch):
        # pbf_forward's outputs and every pbf.* gradient of a weighted sum
        # of them are bit for bit those of folds built from one node per
        # slice, product, negation, concat and bias term, with random
        # biases so that every bias term is live.
        cfg = default_config(*shape)
        model = ModelConfig()
        store = init_parameters(cfg, model, 0)
        rng = np.random.default_rng(23)
        for name in store.names():
            if name.startswith("pbf.") and ".b" in name:
                store.values[name][...] = rng.uniform(-0.3, 0.3, store.values[name].shape)
        phi = rng.uniform(0.0, cfg.D, (batch, cfg.K, 2))
        weights = {f: rng.uniform(0.5, 1.5, (batch, cfg.N) if f == "first_x" else
                                  (batch, cfg.N, cfg.M - (f == "gaps")))
                   for f in ("first_x", "gaps", "positions_x")}

        def run():
            tape = Tape()
            out = pbf.pbf_forward(tape, phi, store, cfg, model)
            values = [getattr(out, f).value.tobytes() for f in weights]
            terms = [ad.sum_axis(ad.mul(getattr(out, f), tape.constant(wf)), tuple(range(wf.ndim)))
                     for f, wf in weights.items()]
            ad.backward_into(store, ad.add(ad.add(terms[0], terms[1]), terms[2]))
            return values, {n: g.tobytes() for n, g in store.grads.items() if n.startswith("pbf.")}

        folded = run()
        monkeypatch.setattr(pbf, "nested_pe_hidden", _nested_pe_hidden_of_nodes)
        assert run() == folded

    def test_only_same_branch_hidden_state_at_pair_resolution(self):
        # The leave-one-out sums are taken as total minus own inside the
        # weight fold and the other-branch and message sums inside their
        # dense nodes, so the one value per layer at pair resolution
        # (B*N*M*K^2 rows) is qq1's hidden state r_a, and the forward pass
        # releases it once main's dense node has read it.
        b, n, m, k = 2, 4, 2, 4
        cfg = default_config(n, m, k)
        tape = Tape()
        pbf.pbf_forward(tape, np.random.default_rng(17).uniform(0, cfg.D, (b, k, 2)),
                        params_for(cfg), cfg, MICRO)
        pair_rows = b * n * m * k * k
        assert _pair_resolution_nodes(tape, pair_rows) == [
            ("dense", f"pbf.layer{layer}.qq1") for layer in range(1, MICRO.pbf_layers + 1)]
        held = [v for v in tape.values if v.ndim >= 2 and v.size == pair_rows * v.shape[-1]]
        assert held == []

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
        assert "sum_others" not in tape.ops

    def test_tape_bytes_at_k8(self):
        # B = 8, N = K = 8, M = 3 with the default model: 28.4 MB now that
        # the forward pass releases r_a and its slot sum once main's dense
        # node has read them; 53.5 MB while they stayed to the sweep (the
        # unfused sums took 113.2 MB).
        cfg = default_config(8, 3, 8)
        model = ModelConfig()
        tape = Tape()
        pbf.pbf_forward(tape, np.random.default_rng(22).uniform(0, cfg.D, (8, 8, 2)),
                        init_parameters(cfg, model, 0), cfg, model)
        assert sum(v.nbytes for v in tape.values) <= 32e6

    @staticmethod
    def _traced_peak(shape, batch):
        """tracemalloc peak of one forward and backward with the default model."""
        import tracemalloc

        from pinchbeam.training import loss_on_tape, train_dataset
        cfg = default_config(*shape)
        model = ModelConfig()
        store = init_parameters(cfg, model, 0)
        phi = train_dataset(cfg, batch, 1)
        tracemalloc.start()
        try:
            ad.backward_into(store, loss_on_tape(Tape(), phi, store, cfg, model))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_training_step_peak_at_k8(self):
        # B = 8, N = K = 8, M = 3: 44.1 MB, set inside layer 3's processor
        # main VJP, now that the forward pass releases r_a and its slot sum
        # once main has read them and main's VJP drops each sum of its
        # adjoint once its last part has used it. 55.8 MB while they stayed
        # to the end of the forward pass; 67.2 MB while the sweep kept every
        # value to its end (85.1 MB with r_a never released).
        assert self._traced_peak((8, 3, 8), 8) <= 48e6

    def test_training_step_peak_at_c5(self):
        # B = 64, N = K = 2, M = 1: 6.8 MB, set inside the last precoder
        # layer's weight-fold VJP; 8.2 MB while the precoder layer ran as
        # four dense and three leave-one-out nodes and the placement folds
        # as 10-13 nodes each, 11.2 MB while the sweep kept every forward
        # value to its end.
        assert self._traced_peak((2, 1, 2), 64) <= 7e6

    @pytest.mark.parametrize("shape", [(2, 1, 2), (8, 3, 8)])
    def test_only_folds_read_parameters_alone(self, shape):
        # On C5 and K8 loss tapes the interior nodes whose parents are all
        # parameters are the folds (two per nested map, two per precoder
        # layer) and, where K > 2, the processor output layer's
        # count-scaled bias (K-1) b, one per placement layer: 18 at C5 and
        # 21 at K8, against 42 and 75 while the folds took 10-13 nodes each
        # and the precoder layer was unfolded.
        from collections import Counter

        from pinchbeam.training import loss_on_tape, train_dataset
        cfg = default_config(*shape)
        model = ModelConfig()
        tape = Tape()
        loss_on_tape(tape, train_dataset(cfg, 2, 0), init_parameters(cfg, model, 0), cfg, model)
        params = {idx for _, idx in tape.param_slots}
        found = Counter(tape.ops[i] for i, parents in enumerate(tape.parents)
                        if parents and all(p in params for p in parents))
        layers = model.pbf_layers
        expected = Counter({"pbf_weight_fold": 2 * layers, "pbf_bias_fold": 2 * layers,
                            "tbf_weight_fold": model.tbf_layers,
                            "tbf_bias_fold": model.tbf_layers})
        if cfg.K > 2:
            expected["scalar_scale"] = layers
        assert found == expected
        assert sum(found.values()) == {(2, 1, 2): 18, (8, 3, 8): 21}[shape]

    def test_processor_builds_other_before_same(self):
        # In every processor layer of a K8 loss tape qq2's dense node (the
        # other-waveguide sum s_b) precedes qq1's (r_a), so the reverse
        # sweep runs r_a's VJP right after main's and frees r_a's rebuilt
        # value and adjoint before it reaches s_b's VJP.
        from pinchbeam.training import loss_on_tape, train_dataset
        cfg = default_config(8, 3, 8)
        model = ModelConfig()
        tape = Tape()
        loss_on_tape(tape, train_dataset(cfg, 2, 1), init_parameters(cfg, model, 0), cfg, model)
        slot = {idx: name for name, idx in tape.param_slots}
        first = {}
        for i, op in enumerate(tape.ops):
            if op == "dense":
                for p in tape.parents[i]:
                    first.setdefault(slot.get(p), i)
        for layer in range(1, model.pbf_layers + 1):
            qq1, qq2 = (first[f"pbf.layer{layer}.{net}.b0"] for net in ("qq1", "qq2"))
            assert qq2 < qq1, layer


def _pair_resolution_nodes(tape, pair_rows):
    """(op, subnet of its first-layer bias) of each node whose value has
    ``pair_rows`` rows, in tape order; a value the forward pass released is
    rebuilt to be measured."""
    bias_of = {idx: name.rsplit(".", 1)[0] for name, idx in tape.param_slots
               if name.endswith(".b0")}
    return [(op, next((bias_of[p] for p in tape.parents[i] if p in bias_of), None))
            for i, (op, v) in enumerate(zip(tape.ops, map(tape.value, range(len(tape)))))
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
            assert subnets == set(pbf.layer_widths(3, MICRO)) - _skipped_subnets(n, m, k)
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

    def test_adam_leaves_skipped_parameters_bit_unchanged(self):
        # C5 (N = K = 2, M = 1): qq1 and qf1 keep their stored shapes and
        # their exactly-zero gradients, so an Adam step leaves them as they
        # were while the rest of the placement GNN moves.
        from pinchbeam.training import expected_parameter_shapes, loss_on_tape
        cfg = default_config(2, 1, 2)
        store = params_for(cfg)
        assert dict(expected_parameter_shapes(MICRO)) == {
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
