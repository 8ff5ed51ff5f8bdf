import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchbeam import autodiff as ad
from pinchbeam import cplx as cx
from pinchbeam import verify
from pinchbeam.autodiff import (AdamState, ParameterStore, Tape, adam_step,
                                backward_into, grad_check, init_fnn)
from pinchbeam.config import ModelConfig, default_config
from pinchbeam.errors import SingularityError
from pinchbeam.pipeline import init_parameters
from pinchbeam.training import loss_on_tape, train_dataset
from pinchbeam.verify import kink_distance, primitive_grad_checks


class TestTapeBasics:
    def test_values_are_float64(self):
        tape = Tape()
        v = tape.constant(np.ones((2, 2), dtype=np.float32))
        assert v.value.dtype == np.float64

    def test_complex_values_are_complex128(self):
        tape = Tape()
        v = tape.constant(np.ones((2, 2), dtype=np.complex64))
        assert v.value.dtype == np.complex128
        assert ad.mul(tape.constant(np.ones(2)), 1j).value.dtype == np.complex128

    def test_real_node_keeps_real_part_of_adjoint(self):
        # L = |x z|^2 with x real and z complex: dL/dx = 2 x |z|^2, real,
        # while z's adjoint is 2 x^2 z, complex.
        tape = Tape()
        x = tape.constant(np.array([1.5]))
        z = tape.constant(np.array([2.0 - 1.0j]))
        grads = tape.backward(ad.sum_axis(cx.abs2(ad.mul(x, z)), 0))
        assert grads[x.idx].dtype == np.float64
        np.testing.assert_allclose(grads[x.idx], [2.0 * 1.5 * 5.0], rtol=1e-15)
        np.testing.assert_allclose(grads[z.idx], [2.0 * 1.5 ** 2 * (2.0 - 1.0j)],
                                   rtol=1e-15)

    def test_append_order_is_topological(self):
        tape = Tape()
        a = tape.constant(1.0)
        b = ad.add(a, 2.0)
        c = ad.mul(b, b)
        assert a.idx < b.idx < c.idx
        assert tape.parents[c.idx] == (b.idx, b.idx)

    def test_backward_requires_scalar(self):
        tape = Tape()
        a = tape.constant(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(a)

    def test_backward_square_sum(self):
        store = ParameterStore()
        store.add("theta", np.array([1.0, -2.0, 3.0]))
        tape = Tape()
        th = tape.param(store, "theta")
        loss = ad.sum_axis(ad.mul(th, th), 0)
        backward_into(store, loss)
        np.testing.assert_allclose(store.grads["theta"], [2.0, -4.0, 6.0])

    def test_unused_parameter_gets_zero_gradient(self):
        store = ParameterStore()
        store.add("used", np.array(2.0))
        store.add("unused", np.array(5.0))
        tape = Tape()
        used = tape.param(store, "used")
        loss = ad.mul(used, used)
        _ = tape.param(store, "unused")  # bound but not part of the loss
        backward_into(store, loss)
        assert store.grads["used"] == 4.0
        assert store.grads["unused"] == 0.0

    def test_parameter_bound_twice_accumulates(self):
        store = ParameterStore()
        store.add("w", np.array(3.0))
        tape = Tape()
        w = tape.param(store, "w")
        loss = ad.add(ad.mul(w, w), ad.scalar_scale(tape.param(store, "w"), 5.0))
        backward_into(store, loss)
        assert store.grads["w"] == 2.0 * 3.0 + 5.0

    def test_replay_determinism(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.add("w", rng.standard_normal((4, 3)))

        def f(s):
            tape = Tape()
            w = tape.param(s, "w")
            y = ad.sigmoid(ad.matmul(tape.constant(rng_fixed), w))
            return ad.sum_axis(ad.mul(y, y), (0, 1))

        rng_fixed = np.random.default_rng(1).standard_normal((2, 4))
        l1 = f(store)
        backward_into(store, l1)
        g1 = store.grads["w"].copy()
        l2 = f(store)
        backward_into(store, l2)
        assert float(l1.value) == float(l2.value)
        np.testing.assert_array_equal(g1, store.grads["w"])


class TestTapeWithoutRecord:
    """``Tape(record=False)``: handles hold their values, the tape only the
    op names."""

    def _dense(self, tape):
        rng = np.random.default_rng(0)
        x = [tape.constant(rng.standard_normal((2, 3, 1, 4))),
             tape.constant(rng.standard_normal((2, 1, 3, 2)))]
        w, b = tape.constant(rng.standard_normal((6, 5))), tape.constant(np.zeros(5))
        return ad.dense(x, w, b, relu=True), ad.dense(x, w, b, relu=True, reduce=(1, 2))

    def test_same_values_and_ops_as_a_recording_tape(self):
        recorded, bare = Tape(), Tape(record=False)
        for a, b in zip(self._dense(recorded), self._dense(bare)):
            np.testing.assert_array_equal(b.value, a.value)
        assert len(bare) == len(recorded) == 6
        assert bare.ops == recorded.ops
        assert recorded.rebuilds
        assert bare.values == bare.parents == bare.vjps == bare.meta == []
        assert bare.rebuilds == {}

    def test_value_is_freed_with_its_handle(self):
        tape = Tape(record=False)
        y = ad.scalar_scale(tape.constant(np.ones(3)), 2.0)
        ref = weakref.ref(y.value)
        del y
        assert ref() is None

    def test_backward_and_release_raise(self):
        tape = Tape(record=False)
        r, _ = self._dense(tape)
        loss = ad.sum_axis(r, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="records nothing"):
            tape.backward(loss)
        with pytest.raises(ValueError, match="records nothing"):
            tape.release(r)

    def test_repr(self):
        tape = Tape(record=False)
        v = tape.constant(np.zeros((2, 3)))
        assert repr(v) == "Var(idx=0, shape=(2, 3))"
        assert isinstance(v, ad.Var)


class TestPrimitives:
    def test_abs2(self):
        tape = Tape()
        out = cx.abs2(tape.constant(3.0 + 4.0j))
        assert out.value.dtype == np.float64
        assert float(out.value) == 25.0

    def test_softplus_at_zero(self):
        tape = Tape()
        assert float(ad.softplus(tape.constant(0.0)).value) == pytest.approx(math.log(2.0))

    def test_matmul_identity(self):
        tape = Tape()
        x = np.random.default_rng(2).standard_normal((3, 3))
        out = ad.matmul(tape.constant(np.eye(3)), tape.constant(x))
        np.testing.assert_array_equal(out.value, x)

    def test_matmul_rejects_vectors(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.matmul(tape.constant(np.ones(3)), tape.constant(np.ones((3, 2))))

    def test_relu_clamps(self):
        tape = Tape()
        out = ad.max_with_scalar(tape.constant(np.array([-1.0, 2.0])), 0.0)
        np.testing.assert_array_equal(out.value, [0.0, 2.0])

    def test_sqrt_domain(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.sqrt(tape.constant(np.array([-0.5])))

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal((4, 2))
        tape = Tape()
        x = ad.solve(tape.constant(a), tape.constant(b))
        np.testing.assert_allclose(a @ x.value, b, atol=1e-12)

    def test_solve_singular(self):
        tape = Tape()
        with pytest.raises(SingularityError):
            ad.solve(tape.constant(np.zeros((2, 2))), tape.constant(np.eye(2)))

    def test_max_with_scalar_subgradient_zero_at_kink(self):
        store = ParameterStore()
        store.add("x", np.array([0.5]))

        def f(s):
            tape = Tape()
            return ad.sum_axis(ad.max_with_scalar(tape.param(s, "x"), 0.5), 0)

        loss = f(store)
        backward_into(store, loss)
        assert store.grads["x"][0] == 0.0

    def test_broadcast_add_unbroadcasts_gradient(self):
        store = ParameterStore()
        store.add("b", np.zeros(3))
        tape = Tape()
        x = tape.constant(np.ones((4, 3)))
        loss = ad.sum_axis(ad.add(x, tape.param(store, "b")), (0, 1))
        backward_into(store, loss)
        np.testing.assert_array_equal(store.grads["b"], [4.0, 4.0, 4.0])


class TestDiagonal:
    @pytest.mark.parametrize("shape,axes,subscripts", [
        ((2, 3, 4, 4, 5), (2, 3), "abiic->abic"),
        ((2, 3, 4, 4, 5), (-3, -2), "abiic->abic"),
        ((2, 3, 4, 4, 5), (3, 2), "abiic->abic"),
        ((2, 4, 3, 4, 5), (1, 3), "aibic->aibc"),
    ])
    def test_matches_einsum(self, shape, axes, subscripts):
        x = np.random.default_rng(20).standard_normal(shape)
        out = ad.diagonal(Tape().constant(x), *axes)
        np.testing.assert_array_equal(out.value, np.einsum(subscripts, x))

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4, 4, 5), (2, 3)),
                                            ((3, 4, 4), (-2, -1)),
                                            ((4, 2, 4), (0, 2))])
    def test_adjoint_identity(self, shape, axes):
        # <G, D x> == <D^T G, x> for the diagonal map D and its VJP D^T.
        rng = np.random.default_rng(21)
        x = rng.standard_normal(shape)
        tape = Tape()
        y = ad.diagonal(tape.constant(x), *axes)
        g = rng.standard_normal(y.shape)
        (gx,) = tape.vjps[y.idx](g)
        assert gx.shape == x.shape
        assert np.sum(g * y.value) == pytest.approx(np.sum(gx * x), rel=1e-13)

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4), (1, 2)), ((3, 3), (1, 1)),
                                            ((3, 3), (0, -2))])
    def test_bad_axes_rejected(self, shape, axes):
        with pytest.raises(ValueError):
            ad.diagonal(Tape().constant(np.zeros(shape)), *axes)


def _backward_keeping_all(tape, loss):
    """The reverse sweep without adjoint or value release and without
    in-place accumulation: every node's adjoint. Values released in the
    forward pass are rebuilt and kept first, so a test that sweeps the same
    tape afterwards releases them again itself."""
    for j in tape.rebuilds:
        tape.values[j] = tape.value(j)
    grads = [None] * len(tape)
    grads[loss.idx] = np.ones_like(loss.value)
    for i in range(loss.idx, -1, -1):
        if grads[i] is None or tape.vjps[i] is None:
            continue
        for p, pg in zip(tape.parents[i], tape.vjps[i](grads[i])):
            if pg.dtype.kind == "c" and tape.values[p].dtype.kind != "c":
                pg = pg.real
            grads[p] = pg if grads[p] is None else grads[p] + pg
    return grads


class TestBackwardRelease:
    def _loss(self):
        rng = np.random.default_rng(30)
        tape = Tape()
        x = tape.constant(rng.standard_normal((2, 3, 3, 4)))
        w = tape.constant(rng.standard_normal((4, 5)))
        b = tape.constant(rng.standard_normal(5))
        unused = tape.constant(np.ones(2))
        others = ad.sub(ad.sum_axis(x, 1, keepdims=True), x)
        h = ad.dense([x, others], ad.concat([w, w], axis=0), b, relu=True)
        y = ad.dense(ad.sigmoid(h), tape.constant(np.eye(5)), tape.constant(np.zeros(5)),
                     reduce=(1, 2))
        loss = ad.sum_axis(ad.mul(y, tape.constant(rng.standard_normal((2, 3, 5)))),
                           (0, 1, 2))
        return tape, loss, (x, w, b, unused)

    def test_leaf_adjoints_unchanged_interior_released(self):
        tape, loss, (x, w, b, unused) = self._loss()
        kept = _backward_keeping_all(tape, loss)
        grads = tape.backward(loss)
        assert len(grads) == len(tape)
        for i, (g, ref) in enumerate(zip(grads, kept)):
            if not tape.parents[i]:  # a leaf keeps its adjoint, bit for bit
                assert (g is None) == (ref is None), tape.ops[i]
                if ref is not None:
                    np.testing.assert_array_equal(g, ref)
            else:
                assert g is None, tape.ops[i]
        assert grads[unused.idx] is None
        assert all(grads[v.idx] is not None for v in (x, w, b))

    def test_node_smaller_in_every_part_is_released_and_rebuilt(self):
        # r = relu(dense of two crossing parts) feeds a second dense both as
        # a part and through a keepdims sum s, which records a rebuild too:
        # released in the forward pass, r and s are rebuilt by the sweep for
        # the consumer's VJP and released again once it has passed them;
        # Var.value then rebuilds them on demand from r's leaf parents. A
        # part as wide as the output at full resolution, or a reduce,
        # records no rebuild: the sweep drops such a node's value for good.
        rng = np.random.default_rng(32)
        tape = Tape()
        x0 = tape.constant(rng.standard_normal((2, 3, 1, 4)))
        x1 = tape.constant(rng.standard_normal((2, 1, 3, 2)))
        w = tape.constant(rng.standard_normal((6, 5)))
        b = tape.constant(rng.standard_normal(5))
        r = ad.dense([x0, x1], w, b, relu=True)
        kept = [ad.dense([x0, x1], w, b, relu=True, reduce=1),
                ad.dense(tape.constant(rng.standard_normal((2, 3, 3, 6))), w, b, relu=True)]
        s = ad.sum_axis(r, 2, keepdims=True)
        y = ad.dense([r, s], tape.constant(
            rng.standard_normal((10, 5))), b, relu=True, reduce=(1, 2))
        loss = ad.sum_axis(ad.mul(y, tape.constant(rng.standard_normal(y.shape))), (0, 1, 2))
        assert list(tape.rebuilds) == [r.idx, s.idx]
        before = [r.value.copy(), s.value.copy()]
        ref = _backward_keeping_all(tape, loss)
        tape.release(r, s)
        grads = tape.backward(loss)
        assert tape.values[r.idx] is ad.RELEASED and tape.values[s.idx] is ad.RELEASED
        for v in kept:
            with pytest.raises(ValueError, match=f"node {v.idx} \\(dense\\)"):
                v.value
            assert repr(v) == f"Var(idx={v.idx}, shape=released)"
        np.testing.assert_array_equal(r.value, before[0])
        np.testing.assert_array_equal(s.value, before[1])
        for v in (x0, x1, w, b):
            np.testing.assert_array_equal(grads[v.idx], ref[v.idx])

    @pytest.mark.parametrize("shape", [(2, 1, 2), (8, 3, 8)])
    def test_reference_counting_frees_what_the_sweep_drops(self, shape):
        # C5 and K8 loss tapes: no VJP or rebuild closure holds a Var or the
        # Tape, so dropping a node's value and VJP frees its arrays at once.
        # With the cyclic collector off, every dense output still held after
        # the forward pass is gone once the sweep has passed it; the others
        # are rebuildable values the forward pass released already.
        cfg = default_config(*shape)
        model = ModelConfig()
        tape = Tape()
        loss = loss_on_tape(tape, train_dataset(cfg, 2, 0), init_parameters(cfg, model, 0),
                            cfg, model)
        for fn in [f for f in tape.vjps if f is not None] + list(tape.rebuilds.values()):
            for cell in fn.__closure__ or ():
                try:
                    held = cell.cell_contents
                except ValueError:  # a cell the closure never filled
                    continue
                assert not isinstance(held, (ad.Var, Tape)), (fn.__qualname__, held)
        dense = [i for i, op in enumerate(tape.ops) if op == "dense"]
        released = [i for i in dense if tape.values[i] is ad.RELEASED]
        assert set(released) <= set(tape.rebuilds)
        dense = [i for i in dense if i not in released]
        assert len(dense) > 20
        refs = [weakref.ref(tape.values[i]) for i in dense]
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape.backward(loss)
            assert [i for i, r in zip(dense, refs) if r() is not None] == []
        finally:
            if enabled:
                gc.enable()

    def test_backward_into_unchanged(self):
        store = ParameterStore()
        rng = np.random.default_rng(31)
        store.add("w", rng.standard_normal((3, 2)))
        tape = Tape()
        w = tape.param(store, "w")
        x = tape.constant(rng.standard_normal((4, 3)))
        b = tape.constant(np.zeros(2))
        y = ad.dense(x, w, b)
        s = ad.sub(ad.sum_axis(y, 0, keepdims=True), y)
        loss = ad.sum_axis(ad.mul(s, s), (0, 1))
        ref = _backward_keeping_all(tape, loss)[w.idx]
        backward_into(store, loss)
        np.testing.assert_array_equal(store.grads["w"], ref)


class TestForwardRelease:
    """The placement processor releases r_a and its slot sum in the forward
    pass, once main's dense node has read them (``Tape.release``)."""

    @pytest.mark.parametrize("shape", [(8, 3, 8), (3, 2, 4)])
    def test_rebuilds_released_in_forward_and_rebuilt_bit_equal(self, shape, monkeypatch):
        # After a loss forward every node in rebuilds (r_a and its slot sum,
        # one each per layer) is released and holds 0 bytes, and its last
        # forward reader is a dense node. Var.value rebuilds each one bit
        # for bit as main read it: as an identical tape whose release is a
        # no-op still holds it.
        cfg = default_config(*shape)
        model = ModelConfig()
        store = init_parameters(cfg, model, 0)
        phi = train_dataset(cfg, 2, 0)
        tape = Tape()
        loss_on_tape(tape, phi, store, cfg, model)
        with monkeypatch.context() as mp:
            mp.setattr(Tape, "release", lambda self, *nodes: None)
            held = Tape()
            loss_on_tape(held, phi, store, cfg, model)
        assert len(tape.rebuilds) == 2 * model.pbf_layers
        assert list(held.rebuilds) == list(tape.rebuilds)
        for i in tape.rebuilds:
            assert tape.values[i] is ad.RELEASED and tape.values[i].nbytes == 0
            readers = [j for j, parents in enumerate(tape.parents) if i in parents]
            assert tape.ops[readers[-1]] == "dense"
            kept = held.values[i]
            assert kept is not ad.RELEASED and kept.nbytes > 0
            value = ad.Var(tape, i).value
            assert value.shape == kept.shape and value.tobytes() == kept.tobytes()
            assert tape.values[i] is ad.RELEASED  # reading does not restore it

    def test_every_value_has_nbytes_after_forward_and_sweep(self):
        # A released value is an empty array, not None, so summing nbytes
        # over a tape's values works at any point and counts it as 0.
        cfg = default_config(3, 2, 4)
        model = ModelConfig()
        tape = Tape()
        loss = loss_on_tape(tape, train_dataset(cfg, 2, 0), init_parameters(cfg, model, 0),
                            cfg, model)
        assert all(isinstance(v, np.ndarray) for v in tape.values)
        forward = sum(v.nbytes for v in tape.values)
        tape.backward(loss)
        assert all(isinstance(v, np.ndarray) for v in tape.values)
        assert 0 < sum(v.nbytes for v in tape.values) < forward

    def test_release_without_rebuild_raises(self):
        # A value without a rebuild cannot be released, and a call that
        # names one releases nothing.
        rng = np.random.default_rng(33)
        tape = Tape()
        x0 = tape.constant(rng.standard_normal((2, 3, 1, 4)))
        x1 = tape.constant(rng.standard_normal((2, 1, 3, 2)))
        w = tape.constant(rng.standard_normal((6, 5)))
        b = tape.constant(np.zeros(5))
        r = ad.dense([x0, x1], w, b, relu=True)
        full = ad.dense(tape.constant(rng.standard_normal((2, 3, 3, 6))), w, b, relu=True)
        before = r.value.copy()
        for nodes in ((r, full), (x0,), (full,)):
            with pytest.raises(ValueError, match="records no rebuild"):
                tape.release(*nodes)
            assert all(tape.values[v.idx] is not ad.RELEASED for v in (r, full, x0))
        tape.release(r)
        assert tape.values[r.idx] is ad.RELEASED
        np.testing.assert_array_equal(r.value, before)


class TestInPlaceAccumulation:
    """``Tape.backward`` adds a second adjoint into a writable first one in
    place; a writable adjoint must therefore belong to one node alone."""

    def test_shared_adjoint_is_not_written_through(self):
        # add(a, b) hands one adjoint to both a and b; each of them then
        # receives a second adjoint from a consumer that precedes the add on
        # the tape. add(x, x) and concat([x, x]) hand x two adjoints that
        # share memory.
        rng = np.random.default_rng(35)
        tape = Tape()
        x = tape.constant(rng.standard_normal((3, 4)))
        w = tape.constant(rng.standard_normal((4, 4)))
        a = ad.mul(x, tape.constant(rng.standard_normal((3, 4))))
        b = ad.matmul(x, w)
        terms = [ad.mul(a, a), ad.sigmoid(b), ad.add(a, b), ad.add(x, x),
                 ad.concat([x, x], axis=0)]
        loss = None
        for t in terms:
            term = ad.sum_axis(ad.mul(t, tape.constant(rng.standard_normal(t.shape))), (0, 1))
            loss = term if loss is None else ad.add(loss, term)
        kept = _backward_keeping_all(tape, loss)
        grads = tape.backward(loss)
        leaves = [i for i in range(len(tape)) if not tape.parents[i]]
        assert grads[x.idx] is not None and grads[w.idx] is not None
        for i in leaves:
            assert (grads[i] is None) == (kept[i] is None)
            if kept[i] is not None:
                np.testing.assert_array_equal(grads[i], kept[i])

    def test_backward_leaves_tape_values_unchanged(self):
        # The sweep consumes the tape: exactly the leaves and the loss keep
        # their values, bit for bit, and every other value is released.
        # The rebuilds are the processor's same-branch hidden states r_a
        # (qq1, one per layer) and their slot sums; their parents are
        # released too, so reading any released value raises, and so does a
        # second sweep.
        cfg = default_config(3, 2, 4)
        model = ModelConfig()
        tape = Tape()
        loss = loss_on_tape(tape, train_dataset(cfg, 3, 0), init_parameters(cfg, model, 0),
                            cfg, model)
        qq1_bias = {idx for name, idx in tape.param_slots if name.endswith(".qq1.b0")}
        r_a = [i for i, op in enumerate(tape.ops)
               if op == "dense" and qq1_bias & set(tape.parents[i])]
        sums = [i for i, op in enumerate(tape.ops)
                if op == "sum_axis" and tape.parents[i][0] in r_a]
        assert len(r_a) == len(sums) == model.pbf_layers
        assert sorted(tape.rebuilds) == sorted(r_a + sums)
        before = [v.tobytes() for v in tape.values]
        tape.backward(loss)
        kept = [i for i, v in enumerate(tape.values) if v is not ad.RELEASED]
        assert kept == sorted({i for i, p in enumerate(tape.parents) if not p} | {loss.idx})
        for i in kept:
            assert tape.values[i].tobytes() == before[i], (i, tape.ops[i])
        released = sorted(set(range(len(tape))) - set(kept))
        assert len(released) > len(tape) // 2
        for i in released:
            with pytest.raises(ValueError, match="released by a backward sweep"):
                tape.value(i)
        with pytest.raises(ValueError, match=f"node {loss.idx} \\({tape.ops[loss.idx]}\\)"):
            tape.backward(loss)

    def test_released_values_leave_leaf_adjoints_bit_unchanged(self):
        # (3,2,4), B = 5: the loss reaches 74 of the 76 placement parameter
        # arrays (all but the gap head, whose clamp is shut), so the rebuilt
        # r_a values feed real gradients. Two identical tapes, one swept with
        # release, rebuild and in-place accumulation and one without.
        cfg = default_config(3, 2, 4)
        model = ModelConfig()
        store = init_parameters(cfg, model, 0)
        phi = train_dataset(cfg, 5, 1)
        tapes = [Tape(), Tape()]
        losses = [loss_on_tape(t, phi, store, cfg, model) for t in tapes]
        grads = tapes[0].backward(losses[0])
        kept = _backward_keeping_all(tapes[1], losses[1])
        assert tapes[0].rebuilds and all(tapes[0].values[i] is ad.RELEASED
                                         for i in tapes[0].rebuilds)
        for i in range(len(tapes[0])):
            if not tapes[0].parents[i]:
                assert (grads[i] is None) == (kept[i] is None), tapes[0].ops[i]
                if kept[i] is not None:
                    np.testing.assert_array_equal(grads[i], kept[i])
        pbf_slots = [idx for name, idx in tapes[0].param_slots if name.startswith("pbf.")]
        assert len(pbf_slots) == 76
        assert sum(grads[i] is not None and bool(np.any(grads[i])) for i in pbf_slots) == 74


def _loop_off_diagonal_sum(a, axis1, axis2):
    a1, a2 = axis1 % a.ndim, axis2 % a.ndim
    moved = np.moveaxis(a, (a1, a2), (0, 1))
    out = np.zeros(moved.shape[:1] + moved.shape[2:])
    for i in range(moved.shape[0]):
        for j in range(moved.shape[1]):
            if j != i:
                out[i] += moved[i, j]
    return np.moveaxis(out, 0, a1 if a1 < a2 else a1 - 1)


def _loop_off_diagonal_adjoint(g, shape, axis1, axis2):
    a1, a2 = axis1 % len(shape), axis2 % len(shape)
    gx = np.zeros(shape)
    moved = np.moveaxis(gx, (a1, a2), (0, 1))
    gm = np.moveaxis(g, a1 if a1 < a2 else a1 - 1, 0)
    for i in range(shape[a1]):
        for j in range(shape[a2]):
            if j != i:
                moved[i, j] = gm[i]
    return gx


class TestLeaveOneOutSums:
    @pytest.mark.parametrize("shape,axes", [((2, 3, 4, 5, 5, 3), (3, 4)),
                                            ((2, 3, 4, 4, 5), (2, 3)),
                                            ((4, 2, 4, 3), (2, 0)),
                                            ((3, 3, 2), (-3, -2))])
    def test_off_diagonal_sum_matches_composition(self, shape, axes):
        # The off-diagonal sum a dense node with identity weights fuses
        # (reduce=(axis1, axis2)): value and adjoint equal
        # sub(sum_axis(x, axis2), diagonal(x, axes)) bit for bit.
        rng = np.random.default_rng(33)
        xv = rng.standard_normal(shape)
        runs = []
        for fused in (True, False):
            tape = Tape()
            x = tape.constant(xv)
            y = ad.dense(x, tape.constant(np.eye(shape[-1])),
                         tape.constant(np.zeros(shape[-1])), reduce=axes) if fused else \
                ad.sub(ad.sum_axis(x, axes[1]), ad.diagonal(x, *axes))
            value = y.value
            wv = np.random.default_rng(34).standard_normal(y.shape)
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(wv)),
                                              tuple(range(y.ndim))))
            runs.append((value, grads[x.idx]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4, 2), (1, 2)), ((3, 3, 2), (1, 1)),
                                            ((3, 3, 2), (0, -3))])
    def test_off_diagonal_sum_bad_axes_rejected(self, shape, axes):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.dense(tape.constant(np.zeros(shape)), tape.constant(np.eye(shape[-1])),
                     tape.constant(np.zeros(shape[-1])), reduce=axes)

    @settings(max_examples=60)
    @given(st.data())
    def test_off_diagonal_sum_matches_loop(self, data):
        # dense with identity weights and reduce=(axis1, axis2) over two of
        # the leading axes (the last one holds the features).
        shape = data.draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
        ndim = len(shape)
        leading = st.sampled_from([a for a in range(-ndim, ndim) if a % ndim < ndim - 1])
        axis1 = data.draw(leading)
        axis2 = data.draw(leading.filter(lambda a: a % ndim != axis1 % ndim))
        shape[axis2] = shape[axis1]
        shape = tuple(shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xv = rng.standard_normal(shape)
        tape = Tape()
        y = ad.dense(tape.constant(xv), tape.constant(np.eye(shape[-1])),
                     tape.constant(np.zeros(shape[-1])), reduce=(axis1, axis2))
        np.testing.assert_allclose(y.value, _loop_off_diagonal_sum(xv, axis1, axis2),
                                   rtol=0, atol=1e-13)
        g = rng.standard_normal(y.shape)
        gx, _, _ = tape.vjps[y.idx](g)
        # The adjoint only copies entries, so it is exact.
        np.testing.assert_array_equal(gx, _loop_off_diagonal_adjoint(g, shape, axis1, axis2))


def _reduce(h, reduce):
    """The sum that dense's ``reduce`` fuses, as its own nodes: a pair of
    axes zeroes the diagonal with a constant mask before the sum."""
    if isinstance(reduce, int):
        return ad.sum_axis(h, reduce, keepdims=True)
    a1, a2 = (a % h.ndim for a in reduce)
    off = np.expand_dims(1.0 - np.eye(h.shape[a1]),
                         [i for i in range(h.ndim) if i not in (a1, a2)])
    return ad.sum_axis(ad.mul(h, h.tape.constant(off)), a2)


class TestReducedDense:
    # Two parts that broadcast across each other to (2, 3, 3, 5), as the
    # placement processor's pair (d_k, d_j) does.
    SHAPES = ((2, 3, 1, 4), (2, 1, 3, 2))

    def _build(self, reduce, relu, bias, fused):
        rng = np.random.default_rng(40)
        inputs = [rng.standard_normal(s) for s in self.SHAPES]
        wv, bv = rng.standard_normal((6, 5)), rng.standard_normal(5)
        tape = Tape()
        xs = [tape.constant(v) for v in inputs]
        w = tape.constant(wv)
        b = tape.constant(bv if bias else np.zeros(5))
        if fused:
            y = ad.dense(xs, w, b, relu=relu, reduce=reduce)
        else:
            y = _reduce(ad.dense(xs, w, b, relu=relu), reduce)
        return tape, y, xs + [w, b]

    def _run(self, reduce, relu, bias, fused):
        """The op of y's node, y's value and the leaf adjoints."""
        tape, y, leaves = self._build(reduce, relu, bias, fused)
        op, value = tape.ops[y.idx], y.value
        weights = np.random.default_rng(41).standard_normal(y.shape)
        grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)),
                                          tuple(range(y.ndim))))
        return op, value, [grads[v.idx] for v in leaves]

    @pytest.mark.parametrize("reduce", [1, -2, (1, 2), (2, 1)])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_dense_then_sum(self, reduce, relu, bias):
        op, value, grads = self._run(reduce, relu, bias, fused=True)
        _, ref, ref_grads = self._run(reduce, relu, bias, fused=False)
        assert op == "dense"  # one node, the sum included
        assert value.shape == ref.shape
        np.testing.assert_allclose(value, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        for g, gr in zip(grads, ref_grads):
            assert g.shape == gr.shape
            np.testing.assert_allclose(g, gr, rtol=1e-12, atol=1e-12 * np.max(np.abs(gr)))

    @pytest.mark.parametrize("reduce", [1, (1, 2)])
    def test_stores_only_the_sum_and_a_mask(self, reduce):
        # The node's value is the sum; its VJP keeps no full-resolution
        # (2, 3, 3, 5) array, only the mask of the entries that reach the
        # sum, packed to 1 bit per entry: ceil(90 / 8) = 12 bytes.
        tape, y, leaves = self._build(reduce, relu=True, bias=True, fused=True)
        assert tape.ops[y.idx] == "dense"
        assert y.value.size < 2 * 3 * 3 * 5
        kept = [c.cell_contents for c in tape.vjps[y.idx].__closure__
                if c.cell_contents is not tape.values]
        arrays = [v for v in kept if isinstance(v, np.ndarray)]
        assert not [v for v in arrays if v.size >= 2 * 3 * 3 * 5]
        packed = [v for v in arrays if v.dtype == np.uint8]
        assert [v.shape for v in packed] == [(math.ceil(2 * 3 * 3 * 5 / 8),)]
        xvs, wv, bv = [v.value for v in leaves[:-2]], leaves[-2].value, leaves[-1].value
        mask = ad.dense_preactivation(xvs, ad.row_blocks(xvs, wv), bv) > 0.0
        if not isinstance(reduce, int):
            mask &= ~np.eye(3, dtype=bool)[None, :, :, None]
        unpacked = np.unpackbits(packed[0], count=mask.size).astype(bool)
        np.testing.assert_array_equal(unpacked.reshape(mask.shape), mask)

    def test_write_back_into_a_full_resolution_part(self):
        # A masked adjoint of 4*24*24*64 floats (1.18 MB) spans two row
        # blocks, so the VJP writes the adjoint of the part as wide as the
        # output at full resolution back into it; each gradient still
        # equals the unfused composition's.
        rng = np.random.default_rng(43)
        shapes = ((4, 24, 1, 8), (4, 1, 24, 8), (4, 24, 24, 64))
        inputs = [rng.standard_normal(s) for s in shapes]
        wv, bv = rng.standard_normal((80, 64)) / 8, rng.standard_normal(64)
        weights = rng.standard_normal((4, 24, 64))
        grads = []
        for fused in (True, False):
            tape = Tape()
            leaves = [tape.constant(v) for v in inputs + [wv, bv]]
            if fused:
                y = ad.dense(leaves[:3], *leaves[3:], relu=True, reduce=(1, 2))
            else:
                y = _reduce(ad.dense(leaves[:3], *leaves[3:], relu=True), (1, 2))
            adj = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)), (0, 1, 2)))
            grads.append([adj[v.idx] for v in leaves])
        for g, gr in zip(*grads):
            np.testing.assert_allclose(g, gr, rtol=1e-12, atol=1e-12 * np.max(np.abs(gr)))

    def test_kink_distance_sees_reduced_relu(self):
        # kink_distance recomputes the full pre-activation from the parents,
        # though the node stores only its sum.
        tape = Tape()
        parts = [tape.constant(np.ones((1, 2, 1, 2))), tape.constant(np.ones((1, 1, 2, 1)))]
        w = tape.constant(np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]))
        b = tape.constant(np.array([-2.0 + 1e-6, 0.5]))
        ad.dense(parts, w, b, relu=True, reduce=(1, 2))
        assert 0.99e-6 <= kink_distance(tape) <= 1.01e-6

    def test_preactivation_is_what_the_processor_node_clamped(self):
        # The placement processor's main node: parts [d_k, d_j, r_a, S_M r_a,
        # s_b, S_N s_b] over (B, N, M, K, K) with B=1, N=M=2, K=3, summed
        # over the other users. Relu and the off-diagonal sum of the
        # pre-activation that kink_distance recomputes give the node's
        # value bit for bit.
        rng = np.random.default_rng(42)
        shapes = [(1, 2, 2, 3, 1, 3), (1, 2, 2, 1, 3, 3), (1, 2, 2, 3, 3, 4),
                  (1, 2, 1, 3, 3, 4), (1, 2, 1, 3, 3, 4), (1, 1, 1, 3, 3, 4)]
        tape = Tape()
        parts = [tape.constant(rng.standard_normal(s)) for s in shapes]
        w = tape.constant(rng.standard_normal((22, 5)))
        b = tape.constant(rng.standard_normal(5))
        y = ad.dense(parts, w, b, relu=True, reduce=(3, 4))
        vals = [p.value for p in parts]
        pre = ad.dense_preactivation(vals, ad.row_blocks(vals, w.value), b.value)
        assert np.min(pre) < 0.0 < np.max(pre)
        np.maximum(pre, 0.0, out=pre)
        ref = pre.sum(axis=4) - np.moveaxis(np.diagonal(pre, axis1=3, axis2=4), -1, 3)
        assert y.value.tobytes() == ref.tobytes()
        assert kink_distance(tape) > 0.0


class TestGradCheck:
    def test_quadratic_is_exact(self):
        store = ParameterStore()
        store.add("theta", np.array([0.3, -1.2]))

        def f(s):
            tape = Tape()
            th = tape.param(s, "theta")
            return ad.sum_axis(ad.mul(th, th), 0)

        assert grad_check(f, store) <= 1e-9

    def test_every_primitive_within_tolerance(self):
        results = primitive_grad_checks()
        assert len(results) >= 25
        bad = {k: v for k, v in results.items() if v > 1e-6}
        assert not bad, f"primitives over tolerance: {bad}"

    def test_every_policy_op_has_an_entry(self):
        # Each op kind the policy loss records is checked under its own name,
        # ``op`` or ``op_*``: a primitive cannot land on the training path
        # without an entry, and a deleted one leaves no entry behind.
        names = primitive_grad_checks()
        model = ModelConfig(hidden=8, message_dim=8)
        for n, m, k in [(2, 1, 2), (3, 2, 4), (1, 1, 1)]:
            cfg = default_config(n, m, k)
            tape = Tape()
            loss_on_tape(tape, train_dataset(cfg, 2, 0), init_parameters(cfg, model, 0),
                         cfg, model)
            missing = {op for op in tape.ops if op != "const" and not any(
                name == op or name.startswith(op + "_") for name in names)}
            assert not missing, ((n, m, k), missing)

    def test_checked_op_kinds_equal_the_model_op_kinds(self, monkeypatch):
        # Both ways round: every op kind the C2 entries put on their tapes is
        # one that a policy loss records, and the converse. grad_check is
        # stubbed to one forward, which is all it takes to record the kinds.
        checked = set()

        def one_forward(fn, store):
            checked.update(fn(store).tape.ops)
            return 0.0

        monkeypatch.setattr(verify, "grad_check", one_forward)
        primitive_grad_checks()
        model = ModelConfig()
        used = set()
        for shape in [(2, 1, 2), (8, 3, 8), (1, 1, 1), (2, 3, 1), (1, 2, 3), (3, 2, 4)]:
            cfg = default_config(*shape)
            tape = Tape()
            loss_on_tape(tape, train_dataset(cfg, 2, 0), init_parameters(cfg, model, 0),
                         cfg, model)
            used.update(tape.ops)
        assert checked == used, (sorted(checked - used), sorted(used - checked))

    def test_probes_only_parameters_the_tape_binds(self):
        # "unused" never reaches the tape: its gradient is exactly 0 and the
        # loss cannot move with it, so it costs no loss evaluation.
        store = ParameterStore()
        store.add("x", np.array([0.3, -1.2]))
        store.add("unused", np.ones((2, 3)))
        calls = []

        def f(s):
            calls.append(None)
            x = Tape().param(s, "x")
            return ad.sum_axis(ad.mul(x, x), 0)

        assert grad_check(f, store) <= 1e-9
        assert len(calls) == 1 + 2 * 2
        assert not np.any(store.grads["unused"])

    def test_frozen_entries_skipped(self):
        store = ParameterStore()
        store.add("w", np.array(2.0))
        store.add("scale", np.array(3.0), trainable=False)

        def f(s):
            w = Tape().param(s, "w")
            # `scale` enters as a plain constant, not through the tape.
            return ad.scalar_scale(ad.mul(w, w), float(s.values["scale"]))

        assert grad_check(f, store) <= 1e-9


def _net(tape, store, x, n_layers, relu_out=False):
    """``n_layers`` dense nodes on ``net.W{i}`` / ``net.b{i}``: relu hidden
    layers and an identity output layer, or a relu one if ``relu_out``."""
    for i in range(n_layers):
        x = ad.dense(x, tape.param(store, f"net.W{i}"), tape.param(store, f"net.b{i}"),
                     relu=relu_out or i < n_layers - 1)
    return x


class TestFnn:
    def test_identity_network(self):
        store = ParameterStore()
        store.add("net.W0", np.eye(3))
        store.add("net.b0", np.zeros(3))
        tape = Tape()
        x = np.random.default_rng(5).standard_normal((4, 3))
        y = _net(tape, store, tape.constant(x), 1)
        np.testing.assert_array_equal(y.value, x)

    def test_width_mismatch(self):
        # A dense node whose input is wider than its W0 has rows is refused.
        store = ParameterStore()
        init_fnn(store, "net", (3, 2), np.random.default_rng(0))
        tape = Tape()
        with pytest.raises(ValueError):
            _net(tape, store, tape.constant(np.ones((2, 4))), 1)

    def test_random_fnn_gradient(self):
        store = ParameterStore()
        rng = np.random.default_rng(11)
        init_fnn(store, "net", (3, 5, 2), rng)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 2))

        def f(s):
            tape = Tape()
            y = _net(tape, store, tape.constant(x), 2)
            return ad.sum_axis(ad.mul(y, tape.constant(w)), (0, 1))

        # The hidden relu sits far from its kink next to the probe step.
        assert kink_distance(f(store).tape) > 1e-3
        assert grad_check(f, store) <= 1e-6

    def test_glorot_init_bounds(self):
        store = ParameterStore()
        init_fnn(store, "net", (10, 20, 5), np.random.default_rng(0))
        assert [(n, store.values[n].shape) for n in store.values] == [
            ("net.W0", (10, 20)), ("net.b0", (20,)), ("net.W1", (20, 5)), ("net.b1", (5,))]
        for name, lim in (("net.W0", math.sqrt(6.0 / 30.0)), ("net.W1", math.sqrt(6.0 / 25.0))):
            assert np.all(np.abs(store.values[name]) <= lim)
        assert np.all(store.values["net.b0"] == 0.0) and np.all(store.values["net.b1"] == 0.0)


class TestDense:
    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_one_node_per_layer(self, act):
        store = ParameterStore()
        init_fnn(store, "net", (4, 6, 3), np.random.default_rng(2))
        tape = Tape()
        x = tape.constant(np.ones((2, 5, 4)))
        n0 = len(tape)
        _net(tape, store, x, 2, relu_out=act == "relu")
        ops = tape.ops[n0:]
        assert ops.count("dense") == 2
        assert set(ops) == {"const", "dense"}

    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_matches_unfused_layers(self, act):
        rng = np.random.default_rng(3)
        inputs = (rng.standard_normal((7, 4)), rng.standard_normal((4, 3)),
                  rng.standard_normal(3))
        weights = rng.standard_normal((7, 3))
        runs = []
        for fused in (True, False):
            tape = Tape()
            x, w, b = (tape.constant(v) for v in inputs)
            if fused:
                y = ad.dense(x, w, b, relu=act == "relu")
            else:
                y = ad.add(ad.matmul(x, w), b)
                if act == "relu":
                    y = ad.max_with_scalar(y, 0.0)
            value = y.value  # read before the sweep releases it
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)), (0, 1)))
            runs.append((value, [grads[v.idx] for v in (x, w, b)]))
        (y_fused, g_fused), (y_plain, g_plain) = runs
        # A 2-D input runs the same GEMM, so the values agree bit for bit.
        np.testing.assert_array_equal(y_fused, y_plain)
        for gf, gp in zip(g_fused, g_plain):
            np.testing.assert_allclose(gf, gp, rtol=1e-12, atol=1e-15)

    def test_relu_subgradient_zero_at_kink(self):
        tape = Tape()
        x = tape.constant(np.array([[1.0, -1.0]]))
        w = tape.constant(np.array([[1.0], [1.0]]))
        y = ad.dense(x, w, tape.constant(np.zeros(1)), relu=True)
        assert y.value.item() == 0.0
        grads = tape.backward(ad.sum_axis(y, (0, 1)))
        np.testing.assert_array_equal(grads[w.idx], np.zeros((2, 1)))

    def test_bad_shapes_rejected(self):
        tape = Tape()
        x = tape.constant(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ad.dense(x, tape.constant(np.ones((4, 2))), tape.constant(np.zeros(2)))
        with pytest.raises(ValueError):
            ad.dense(x, tape.constant(np.ones((3, 2))), tape.constant(np.ones((1, 2))))

    def test_kink_distance_sees_fused_relu(self):
        store = ParameterStore()
        store.add("net.W0", np.array([[0.0, 1.0, -1.0], [0.0, 1.0, -1.0]]))
        store.add("net.b0", np.array([-1e-6, 0.5, -0.5]))
        store.add("net.W1", np.ones((3, 1)))
        store.add("net.b1", np.zeros(1))
        tape = Tape()
        _net(tape, store, tape.constant(np.ones((1, 2))), 2)
        assert 0.0 < kink_distance(tape) <= 1e-6
        store.values["net.b0"][0] = 0.25
        tape = Tape()
        _net(tape, store, tape.constant(np.ones((1, 2))), 2)
        assert kink_distance(tape) == 0.25

    def test_kink_distance_sees_relu_on_part_list(self):
        # The node stores only its relu flag; kink_distance recomputes the
        # pre-activation 2 + b0 from both parts, W and b.
        tape = Tape()
        parts = [tape.constant(np.ones((1, 2, 1, 2))), tape.constant(np.ones((1, 1, 2, 1)))]
        w = tape.constant(np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]))
        b = tape.constant(np.array([-2.0 + 1e-6, 0.5]))
        y = ad.dense(parts, w, b, relu=True)
        assert tape.meta[y.idx] is True
        assert 0.99e-6 <= kink_distance(tape) <= 1.01e-6
        tape.values[b.idx][0] = -2.25
        assert kink_distance(tape) == 0.25

    def test_kink_distance_after_backward_sweep(self):
        # The sweep releases r, the relu of two crossing parts; a clamp and a
        # second relu dense read it. r's parents are leaves, so kink_distance
        # rebuilds r and measures what it did before the sweep, here the
        # clamp's 1e-6. On a placement loss tape the forward pass has
        # released r_a and its slot sum, which kink_distance rebuilds: it
        # measures what it does on an identical tape that keeps them. The
        # sweep releases values that cannot be rebuilt, so kink_distance
        # raises there; the sweep leaves an identical unswept tape's distance
        # as it was.
        tape = Tape()
        parts = [tape.constant(np.ones((1, 2, 1, 2))), tape.constant(np.ones((1, 1, 2, 1)))]
        w = tape.constant(np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]))
        r = ad.dense(parts, w, tape.constant(np.array([0.5, -1.0])), relu=True)
        y = ad.dense(r, tape.constant(np.ones((2, 1))), tape.constant(np.zeros(1)), relu=True)
        clamp = ad.max_with_scalar(r, 2.5 + 1e-6)
        loss = ad.sum_axis(ad.add(y, ad.sum_axis(clamp, -1, keepdims=True)), (0, 1, 2, 3))
        assert list(tape.rebuilds) == [r.idx]
        before = kink_distance(tape)
        tape.backward(loss)
        assert tape.values[r.idx] is ad.RELEASED
        assert kink_distance(tape) == before
        assert 0.99e-6 <= before <= 1.01e-6
        cfg = default_config(3, 2, 4)
        model = ModelConfig()
        tape = Tape()
        loss = loss_on_tape(tape, train_dataset(cfg, 3, 0), init_parameters(cfg, model, 0),
                            cfg, model)
        twin, kept = Tape(), Tape()
        for t in (twin, kept):
            loss_on_tape(t, train_dataset(cfg, 3, 0), init_parameters(cfg, model, 0), cfg, model)
        assert tape.rebuilds and all(tape.values[i] is ad.RELEASED for i in tape.rebuilds)
        for j in kept.rebuilds:
            kept.values[j] = kept.value(j)
        before = kink_distance(tape)
        assert 0.0 < before < math.inf
        assert kink_distance(kept) == before
        tape.backward(loss)
        with pytest.raises(ValueError, match="released by a backward sweep"):
            kink_distance(tape)
        assert kink_distance(twin) == before

    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_parts_match_materialised_concat(self, act):
        rng = np.random.default_rng(4)
        shapes = ((2, 3, 1, 4), (2, 1, 3, 2), (1, 1, 3, 3))
        inputs = [rng.standard_normal(s) for s in shapes]
        w_b = (rng.standard_normal((9, 5)), rng.standard_normal(5))
        weights = rng.standard_normal((2, 3, 3, 5))
        runs = []
        for virtual in (True, False):
            tape = Tape()
            xs = [tape.constant(v) for v in inputs]
            w, b = (tape.constant(v) for v in w_b)
            if virtual:
                y = ad.dense(xs, w, b, relu=act == "relu")
            else:
                full = [ad.add(x, tape.constant(np.zeros((2, 3, 3, x.shape[-1]))))
                        for x in xs]
                y = ad.dense(ad.concat(full, axis=-1), w, b, relu=act == "relu")
            value = y.value
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)),
                                              (0, 1, 2, 3)))
            runs.append((value, [grads[v.idx] for v in xs + [w, b]]))
        (y_virtual, g_virtual), (y_full, g_full) = runs
        np.testing.assert_allclose(y_virtual, y_full, rtol=1e-12, atol=1e-12)
        for gv, gf in zip(g_virtual, g_full):
            assert gv.shape == gf.shape
            np.testing.assert_allclose(gv, gf, rtol=1e-12, atol=1e-12)

    # Which of the (batch, K, K) leading axes a part has (1) or broadcasts
    # along (0): the full resolution, and the user pair (d_k, d_j) that
    # crosses itself.
    FULL = (1, 1, 1)
    CROSS = [(1, 1, 0), (1, 0, 1)]

    @settings(max_examples=80)
    @given(st.data())
    def test_parts_match_materialised_concat_over_layouts(self, data):
        # Parts that nest in a full-resolution part, parts that cross, or
        # both, in any order; every grouping of dense_preactivation and every
        # per-resolution sum of the VJP meets the one-part reference.
        below = st.tuples(*[st.integers(0, 1)] * 3).filter(lambda m: m != self.FULL)
        kind = data.draw(st.sampled_from(["nest", "cross", "both"]))
        layouts = {"nest": [self.FULL], "cross": self.CROSS,
                   "both": self.CROSS + [self.FULL]}[kind]
        layouts = data.draw(st.permutations(
            layouts + data.draw(st.lists(below, max_size=6 - len(layouts)))))
        lead = (data.draw(st.integers(1, 2)),) + (data.draw(st.integers(2, 3)),) * 2
        widths = data.draw(st.lists(st.integers(1, 3), min_size=len(layouts),
                                    max_size=len(layouts)))
        relu, bias = data.draw(st.booleans()), data.draw(st.booleans())
        reduce = data.draw(st.sampled_from([None, 0, 1, -2, (1, 2), (2, 1)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        inputs = [rng.standard_normal(tuple(n if keep else 1 for n, keep in zip(lead, lay))
                                      + (width,)) for lay, width in zip(layouts, widths)]
        wv, bv = rng.standard_normal((sum(widths), 4)), rng.standard_normal(4)
        runs = []
        for virtual in (True, False):
            tape = Tape()
            xs = [tape.constant(v) for v in inputs]
            w = tape.constant(wv)
            b = tape.constant(bv if bias else np.zeros(4))
            if virtual:
                y = ad.dense(xs, w, b, relu=relu, reduce=reduce)
            else:
                full = [ad.add(x, tape.constant(np.zeros(lead + x.shape[-1:]))) for x in xs]
                y = ad.dense(ad.concat(full, axis=-1), w, b, relu=relu, reduce=reduce)
            value = y.value
            weights = np.random.default_rng(6).standard_normal(y.shape)
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)),
                                              tuple(range(y.ndim))))
            runs.append((value, [grads[v.idx] for v in xs + [w, b]]))
        (y_virtual, g_virtual), (y_full, g_full) = runs
        np.testing.assert_allclose(y_virtual, y_full, rtol=1e-12, atol=1e-12)
        for gv, gf in zip(g_virtual, g_full):
            assert gv.shape == gf.shape
            np.testing.assert_allclose(gv, gf, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_single_var_bit_identical(self, act):
        # The one-part case runs the flat-GEMM formula of a plain dense layer.
        rng = np.random.default_rng(5)
        xv, wv, bv = (rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
                      rng.standard_normal(5))
        weights = rng.standard_normal((2, 3, 5))
        tape = Tape()
        x, w, b = (tape.constant(v) for v in (xv, wv, bv))
        y = ad.dense(x, w, b, relu=act == "relu")
        value = y.value
        grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)), (0, 1, 2)))
        y2 = xv.reshape(-1, 4) @ wv
        y2 += bv
        g2 = weights.reshape(-1, 5)
        if act == "relu":
            np.maximum(y2, 0.0, out=y2)
            g2 = g2 * (y2 > 0.0)
        np.testing.assert_array_equal(value, y2.reshape(2, 3, 5))
        np.testing.assert_array_equal(grads[x.idx], (g2 @ wv.T).reshape(2, 3, 4))
        np.testing.assert_array_equal(grads[w.idx], xv.reshape(-1, 4).T @ g2)
        np.testing.assert_array_equal(grads[b.idx], g2.sum(axis=0))

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (2, 3, 3)),        # widths sum to 7, W has 6 rows
        ((2, 3, 4), (3, 2)),           # parts differ in ndim
        ((2, 3, 4), (2, 2, 2)),        # leading shapes do not broadcast
    ])
    def test_bad_parts_rejected(self, shapes):
        tape = Tape()
        parts = [tape.constant(np.ones(s)) for s in shapes]
        with pytest.raises(ValueError):
            ad.dense(parts, tape.constant(np.ones((6, 2))), tape.constant(np.zeros(2)))

    def test_identity_layer_has_no_kink(self):
        store = ParameterStore()
        init_fnn(store, "net", (2, 2), np.random.default_rng(0))
        tape = Tape()
        _net(tape, store, tape.constant(np.zeros((1, 2))), 1)
        assert kink_distance(tape) == math.inf


def zero_grads(store: ParameterStore) -> None:
    store.grads = {name: np.zeros_like(v) for name, v in store.values.items()}


class TestAdam:
    def _store(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, -1.0]))
        zero_grads(store)
        return store

    def test_zero_gradient_no_move(self):
        store = self._store()
        state = AdamState.for_store(store)
        zero_grads(store)
        adam_step(store, state, lr=0.1)
        np.testing.assert_array_equal(store.values["w"], [1.0, -1.0])

    def test_first_step_magnitude(self):
        store = self._store()
        state = AdamState.for_store(store)
        store.grads["w"][...] = [0.5, -2.0]
        adam_step(store, state, lr=0.01)
        # Bias-corrected first step is lr * g/|g| up to the eps guard.
        np.testing.assert_allclose(store.values["w"], [1.0 - 0.01, -1.0 + 0.01],
                                   rtol=1e-6)

    def test_two_runs_identical(self):
        runs = []
        for _ in range(2):
            store = self._store()
            state = AdamState.for_store(store)
            for step in range(5):
                store.grads["w"][...] = [0.1 * (step + 1), -0.3]
                adam_step(store, state, lr=0.05)
            runs.append(store.values["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_frozen_entry_not_updated(self):
        store = self._store()
        store.add("frozen", np.array(7.0), trainable=False)
        zero_grads(store)
        state = AdamState.for_store(store)
        store.grads["w"][...] = 1.0
        store.grads["frozen"][...] = 1.0  # even with a bogus gradient
        adam_step(store, state, lr=0.1)
        assert store.values["frozen"] == 7.0


class TestGradientContract:
    """A store holds gradients only once a backward sweep has made them; they
    are the sweep's own leaf adjoints."""

    CFG = default_config(2, 1, 2)
    MODEL = ModelConfig()

    def test_no_gradients_before_a_sweep(self):
        from pinchbeam import training
        from pinchbeam.pipeline import policy_forward
        store = init_parameters(self.CFG, self.MODEL, 0)
        assert store.grads == {}
        assert ParameterStore.from_entries(store.entries()).grads == {}
        assert store.copy().grads == {}
        policy_forward(training.test_dataset(self.CFG, 1, 0)[0], store, self.CFG, self.MODEL)
        training.evaluate(store, self.CFG, self.MODEL, 2, 0)
        assert store.grads == {}

    def test_every_entry_gets_an_owned_gradient_in_values_order(self):
        store = init_parameters(self.CFG, self.MODEL, 0)
        backward_into(store, loss_on_tape(Tape(), train_dataset(self.CFG, 4, 0), store,
                                          self.CFG, self.MODEL))
        assert list(store.grads) == list(store.values)
        for name, g in store.grads.items():
            assert g.shape == store.values[name].shape, name
            assert g.dtype == np.float64, name
            assert g.flags.owndata and g.flags.writeable and g.flags.c_contiguous, name
        assert not np.any(store.grads["tbf.input_scale"])

    def test_liveness_check_scores_an_ignored_parameter_as_inf(self, monkeypatch):
        # A dense that ignores its bias: the bias is bound, so the finite
        # differences probe it and agree with its exactly-zero gradient.
        dense = ad.dense

        def biasless(x, w, b, **kw):
            return dense(x, w, b.tape.constant(np.zeros_like(b.value)), **kw)

        monkeypatch.setattr(ad, "dense", biasless)
        results = primitive_grad_checks()
        for layout in ("sum", "off_diagonal"):
            assert results[f"dense_parts_{layout}_relu_bias"] == math.inf

    def test_adopted_adjoint_takes_the_second_binding(self):
        # The first binding's adjoint is an owned array the store keeps; the
        # second is added into it in place.
        store = ParameterStore()
        w = np.array([[0.5, -1.5], [2.0, 0.25]])
        store.add("w", w)
        tape = Tape()
        first = tape.param(store, "w")
        loss = ad.add(ad.sum_axis(ad.mul(first, first), (0, 1)),
                      ad.sum_axis(ad.scalar_scale(tape.param(store, "w"), 3.0), (0, 1)))
        backward_into(store, loss)
        np.testing.assert_array_equal(store.grads["w"], 2.0 * w + 3.0)

    def test_scale_grads_works_in_place(self):
        store = init_parameters(self.CFG, self.MODEL, 0)
        backward_into(store, loss_on_tape(Tape(), train_dataset(self.CFG, 4, 0), store,
                                          self.CFG, self.MODEL))
        before = {n: (g, g.copy()) for n, g in store.grads.items()}
        store.scale_grads(0.5)
        for name, (g, ref) in before.items():
            assert store.grads[name] is g
            np.testing.assert_array_equal(g, 0.5 * ref)

    def test_init_parameters_traced_peak(self):
        # (8, 3, 8): 5.6 MB in a fresh process, 2.6 MB of it the values the
        # store keeps; 19.2 MB while the input-scale estimate ran in one pass
        # and every entry carried a zero gradient.
        import tracemalloc

        from pinchbeam import precoder_gnn
        cfg = default_config(8, 3, 8)
        precoder_gnn._input_scale_cached.cache_clear()
        tracemalloc.start()
        try:
            init_parameters(cfg, self.MODEL, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            precoder_gnn._input_scale_cached.cache_clear()
        assert peak <= 7e6


class TestParameterStore:
    def test_lexicographic_iteration(self):
        store = ParameterStore()
        store.add("b.x", np.zeros(1))
        store.add("a.y", np.zeros(1))
        store.add("a.b", np.zeros(1))
        assert store.names() == ["a.b", "a.y", "b.x"]

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ValueError):
            store.add("w", np.zeros(1))

    def test_entries_round_trip(self):
        store = ParameterStore()
        rng = np.random.default_rng(1)
        store.add("a", rng.standard_normal((2, 3)))
        store.add("b", rng.standard_normal(4), trainable=False)
        restored = ParameterStore.from_entries(store.entries(), frozen=["b"])
        assert restored.names() == store.names()
        assert restored.trainable_names() == ["a"]
        for name in store.names():
            np.testing.assert_array_equal(restored.values[name], store.values[name])
