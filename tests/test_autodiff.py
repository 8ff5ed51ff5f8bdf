import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchbeam import autodiff as ad
from pinchbeam import cplx as cx
from pinchbeam.autodiff import (AdamState, FnnSpec, ParameterStore, Tape,
                                adam_step, backward_into, fnn_forward,
                                grad_check, init_fnn)
from pinchbeam.errors import InvalidConfigError, SingularityError
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
        loss = ad.sum_axis(ad.square(th), 0)
        backward_into(store, loss)
        np.testing.assert_allclose(store.grads["theta"], [2.0, -4.0, 6.0])

    def test_unused_parameter_gets_zero_gradient(self):
        store = ParameterStore()
        store.add("used", np.array(2.0))
        store.add("unused", np.array(5.0))
        tape = Tape()
        loss = ad.square(tape.param(store, "used"))
        _ = tape.param(store, "unused")  # bound but not part of the loss
        backward_into(store, loss)
        assert store.grads["used"] == 4.0
        assert store.grads["unused"] == 0.0

    def test_parameter_bound_twice_accumulates(self):
        store = ParameterStore()
        store.add("w", np.array(3.0))
        tape = Tape()
        loss = ad.add(ad.square(tape.param(store, "w")),
                      ad.scalar_scale(tape.param(store, "w"), 5.0))
        backward_into(store, loss)
        assert store.grads["w"] == 2.0 * 3.0 + 5.0

    def test_replay_determinism(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.add("w", rng.standard_normal((4, 3)))

        def f(s):
            tape = Tape()
            w = tape.param(s, "w")
            y = ad.tanh(ad.matmul(tape.constant(rng_fixed), w))
            return ad.sum_axis(ad.square(y), (0, 1))

        rng_fixed = np.random.default_rng(1).standard_normal((2, 4))
        l1 = f(store)
        backward_into(store, l1)
        g1 = store.grads["w"].copy()
        l2 = f(store)
        backward_into(store, l2)
        assert float(l1.value) == float(l2.value)
        np.testing.assert_array_equal(g1, store.grads["w"])


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
        out = ad.relu(tape.constant(np.array([-1.0, 2.0])))
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
    """The reverse sweep without adjoint release: every node's adjoint."""
    grads = [None] * len(tape)
    grads[loss.idx] = np.ones_like(loss.value)
    for i in range(loss.idx, -1, -1):
        if grads[i] is None or tape.vjps[i] is None:
            continue
        for p, pg in zip(tape.parents[i], tape.vjps[i](grads[i])):
            if pg is not None:
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
        h = ad.dense([x, ad.sum_others(x, 1)], ad.concat([w, w], axis=0), b, relu=True)
        y = ad.off_diagonal_sum(ad.tanh(h), 1, 2)
        loss = ad.sum_axis(ad.mul(y, tape.constant(rng.standard_normal((2, 3, 5)))),
                           (0, 1, 2))
        return tape, loss, (x, w, b, unused)

    def test_leaf_adjoints_unchanged_interior_released(self):
        tape, loss, (x, w, b, unused) = self._loss()
        kept = _backward_keeping_all(tape, loss)
        grads = tape.backward(loss)
        assert len(grads) == len(tape)
        for i, (g, ref) in enumerate(zip(grads, kept)):
            if tape.vjps[i] is None:  # a leaf keeps its adjoint, bit for bit
                assert (g is None) == (ref is None), tape.ops[i]
                if ref is not None:
                    np.testing.assert_array_equal(g, ref)
            else:
                assert g is None, tape.ops[i]
        assert grads[unused.idx] is None
        assert all(grads[v.idx] is not None for v in (x, w, b))

    def test_backward_into_unchanged(self):
        store = ParameterStore()
        rng = np.random.default_rng(31)
        store.add("w", rng.standard_normal((3, 2)))
        tape = Tape()
        w = tape.param(store, "w")
        x = tape.constant(rng.standard_normal((4, 3)))
        loss = ad.sum_axis(ad.square(ad.sum_others(ad.dense(x, w), 0)), (0, 1))
        ref = _backward_keeping_all(tape, loss)[w.idx]
        backward_into(store, loss)
        np.testing.assert_array_equal(store.grads["w"], ref)


def _loop_sum_others(a, axis):
    a = np.moveaxis(a, axis, 0)
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[0]):
            if j != i:
                out[i] += a[j]
    return np.moveaxis(out, 0, axis)


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
    @pytest.mark.parametrize("shape,axis", [((2, 3, 4), 1), ((2, 3, 4, 5), -2),
                                            ((3, 1, 2), 1), ((4,), 0)])
    def test_sum_others_matches_composition(self, shape, axis):
        # Value and adjoint equal sub(sum_axis(x, keepdims), x) bit for bit.
        rng = np.random.default_rng(32)
        xv, wv = rng.standard_normal(shape), rng.standard_normal(shape)
        runs = []
        for fused in (True, False):
            tape = Tape()
            x = tape.constant(xv)
            y = ad.sum_others(x, axis) if fused else \
                ad.sub(ad.sum_axis(x, axis, keepdims=True), x)
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(wv)),
                                              tuple(range(len(shape)))))
            runs.append((y.value, grads[x.idx]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4, 5, 5, 3), (3, 4)),
                                            ((2, 3, 4, 4, 5), (2, 3)),
                                            ((4, 2, 4), (2, 0)),
                                            ((3, 3), (-2, -1))])
    def test_off_diagonal_sum_matches_composition(self, shape, axes):
        # Value and adjoint equal sub(sum_axis(x, axis2), diagonal(x, axes))
        # bit for bit.
        rng = np.random.default_rng(33)
        xv = rng.standard_normal(shape)
        runs = []
        for fused in (True, False):
            tape = Tape()
            x = tape.constant(xv)
            y = ad.off_diagonal_sum(x, *axes) if fused else \
                ad.sub(ad.sum_axis(x, axes[1]), ad.diagonal(x, *axes))
            wv = np.random.default_rng(34).standard_normal(y.shape)
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(wv)),
                                              tuple(range(y.ndim))))
            runs.append((y.value, grads[x.idx]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4), (1, 2)), ((3, 3), (1, 1)),
                                            ((3, 3), (0, -2))])
    def test_off_diagonal_sum_bad_axes_rejected(self, shape, axes):
        with pytest.raises(ValueError):
            ad.off_diagonal_sum(Tape().constant(np.zeros(shape)), *axes)

    @settings(max_examples=60)
    @given(st.data())
    def test_sum_others_matches_loop(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xv, g = rng.standard_normal(shape), rng.standard_normal(shape)
        tape = Tape()
        y = ad.sum_others(tape.constant(xv), axis)
        # The loop sums in another order, so the two agree to rounding.
        np.testing.assert_allclose(y.value, _loop_sum_others(xv, axis), rtol=0, atol=1e-13)
        (gx,) = tape.vjps[y.idx](g)
        np.testing.assert_allclose(gx, _loop_sum_others(g, axis), rtol=0, atol=1e-13)

    @settings(max_examples=60)
    @given(st.data())
    def test_off_diagonal_sum_matches_loop(self, data):
        shape = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
        ndim = len(shape)
        axis1 = data.draw(st.integers(-ndim, ndim - 1))
        axis2 = data.draw(st.integers(-ndim, ndim - 1).filter(
            lambda a: a % ndim != axis1 % ndim))
        shape[axis2] = shape[axis1]
        shape = tuple(shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xv = rng.standard_normal(shape)
        tape = Tape()
        y = ad.off_diagonal_sum(tape.constant(xv), axis1, axis2)
        np.testing.assert_allclose(y.value, _loop_off_diagonal_sum(xv, axis1, axis2),
                                   rtol=0, atol=1e-13)
        g = rng.standard_normal(y.shape)
        (gx,) = tape.vjps[y.idx](g)
        # The adjoint only copies entries, so it is exact.
        np.testing.assert_array_equal(gx, _loop_off_diagonal_adjoint(g, shape, axis1, axis2))


def _reduce(h, reduce):
    """The sum that dense's ``reduce`` fuses, as its own node."""
    if isinstance(reduce, int):
        return ad.sum_axis(h, reduce, keepdims=True)
    return ad.off_diagonal_sum(h, *reduce)


class TestReducedDense:
    # Two parts that broadcast across each other to (2, 3, 3, 5), as the
    # placement processor's pair (d_k, d_j) does.
    SHAPES = ((2, 3, 1, 4), (2, 1, 3, 2))

    def _run(self, reduce, relu, bias, fused, act=None):
        rng = np.random.default_rng(40)
        inputs = [rng.standard_normal(s) for s in self.SHAPES]
        wv, bv = rng.standard_normal((6, 5)), rng.standard_normal(5)
        tape = Tape()
        xs = [tape.constant(v) for v in inputs]
        w = tape.constant(wv)
        b = tape.constant(bv) if bias else None
        if act is not None:
            y = ad.fnn_layer(xs, w, b, act, reduce) if fused \
                else _reduce(ad.ACTIVATIONS[act](ad.dense(xs, w, b)), reduce)
        elif fused:
            y = ad.dense(xs, w, b, relu=relu, reduce=reduce)
        else:
            y = _reduce(ad.dense(xs, w, b, relu=relu), reduce)
        weights = np.random.default_rng(41).standard_normal(y.shape)
        grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)),
                                          tuple(range(y.ndim))))
        leaves = xs + [w] + ([b] if bias else [])
        return tape, y, [grads[v.idx] for v in leaves]

    @pytest.mark.parametrize("reduce", [1, -2, (1, 2), (2, 1)])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_dense_then_sum(self, reduce, relu, bias):
        tape, y, grads = self._run(reduce, relu, bias, fused=True)
        _, ref, ref_grads = self._run(reduce, relu, bias, fused=False)
        assert tape.ops[y.idx] == "dense"  # one node, the sum included
        assert y.shape == ref.shape
        np.testing.assert_allclose(y.value, ref.value, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref.value)))
        for g, gr in zip(grads, ref_grads):
            assert g.shape == gr.shape
            np.testing.assert_allclose(g, gr, rtol=1e-12, atol=1e-12 * np.max(np.abs(gr)))

    @pytest.mark.parametrize("reduce", [1, (1, 2)])
    def test_stores_only_the_sum_and_a_mask(self, reduce):
        # The node's value is the sum; the only full-resolution (2, 3, 3, 5)
        # array its VJP keeps is the boolean mask.
        tape, y, _ = self._run(reduce, relu=True, bias=True, fused=True)
        assert tape.ops[y.idx] == "dense"
        assert y.value.size < 2 * 3 * 3 * 5
        kept = [c.cell_contents for c in tape.vjps[y.idx].__closure__]
        full = [v for v in kept if isinstance(v, np.ndarray) and v.size == 2 * 3 * 3 * 5]
        assert [v.dtype for v in full] == [np.dtype(bool)]

    @pytest.mark.parametrize("reduce", [1, (1, 2)])
    def test_tanh_layer_sums_in_its_own_node(self, reduce):
        # Only relu and the identity fuse the sum; fnn_layer gives any other
        # activation its own node and the sum one more after it.
        tape, y, grads = self._run(reduce, None, True, fused=True, act="tanh")
        _, ref, ref_grads = self._run(reduce, None, True, fused=False, act="tanh")
        sum_op = "sum_axis" if isinstance(reduce, int) else "off_diagonal_sum"
        assert [op for op in tape.ops if op != "const"][:3] == ["dense", "tanh", sum_op]
        np.testing.assert_array_equal(y.value, ref.value)
        for g, gr in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, gr)

    def test_kink_distance_sees_reduced_relu(self):
        # kink_distance recomputes the full pre-activation from the parents,
        # though the node stores only its sum.
        tape = Tape()
        parts = [tape.constant(np.ones((1, 2, 1, 2))), tape.constant(np.ones((1, 1, 2, 1)))]
        w = tape.constant(np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]))
        b = tape.constant(np.array([-2.0 + 1e-6, 0.5]))
        ad.dense(parts, w, b, relu=True, reduce=(1, 2))
        assert 0.99e-6 <= kink_distance(tape) <= 1.01e-6


class TestGradCheck:
    def test_quadratic_is_exact(self):
        store = ParameterStore()
        store.add("theta", np.array([0.3, -1.2]))

        def f(s):
            tape = Tape()
            th = tape.param(s, "theta")
            return ad.sum_axis(ad.square(th), 0)

        assert grad_check(f, store) <= 1e-9

    def test_eps_precondition(self):
        store = ParameterStore()
        store.add("x", np.array(1.0))
        with pytest.raises(InvalidConfigError):
            grad_check(lambda s: ad.square(Tape().param(s, "x")), store, eps=1e-2)

    def test_every_primitive_within_tolerance(self):
        results = primitive_grad_checks()
        assert len(results) >= 25
        bad = {k: v for k, v in results.items() if v > 1e-6}
        assert not bad, f"primitives over tolerance: {bad}"

    def test_probes_only_parameters_the_tape_binds(self):
        # "unused" never reaches the tape: its gradient is exactly 0 and the
        # loss cannot move with it, so it costs no loss evaluation.
        store = ParameterStore()
        store.add("x", np.array([0.3, -1.2]))
        store.add("unused", np.ones((2, 3)))
        calls = []

        def f(s):
            calls.append(None)
            return ad.sum_axis(ad.square(Tape().param(s, "x")), 0)

        assert grad_check(f, store) <= 1e-9
        assert len(calls) == 1 + 2 * 2
        assert not np.any(store.grads["unused"])

    def test_frozen_entries_skipped(self):
        store = ParameterStore()
        store.add("w", np.array(2.0))
        store.add("scale", np.array(3.0), trainable=False)

        def f(s):
            tape = Tape()
            # `scale` enters as a plain constant, not through the tape.
            return ad.scalar_scale(ad.square(tape.param(s, "w")),
                                   float(s.values["scale"]))

        assert grad_check(f, store) <= 1e-9


class TestFnn:
    def test_identity_network(self):
        spec = FnnSpec((3, 3), activation="identity")
        store = ParameterStore()
        store.add("net.W0", np.eye(3))
        store.add("net.b0", np.zeros(3))
        tape = Tape()
        x = np.random.default_rng(5).standard_normal((4, 3))
        y = fnn_forward(tape, spec, store, "net", tape.constant(x))
        np.testing.assert_array_equal(y.value, x)

    def test_relu_final_activation(self):
        spec = FnnSpec((2, 1), final_activation="relu")
        store = ParameterStore()
        store.add("net.W0", np.array([[1.0], [1.0]]))
        store.add("net.b0", np.array([-10.0]))
        tape = Tape()
        y = fnn_forward(tape, spec, store, "net", tape.constant(np.ones((1, 2))))
        assert y.value.item() == 0.0

    def test_width_mismatch(self):
        spec = FnnSpec((3, 2))
        store = ParameterStore()
        init_fnn(store, "net", spec, np.random.default_rng(0))
        tape = Tape()
        with pytest.raises(ValueError):
            fnn_forward(tape, spec, store, "net", tape.constant(np.ones((2, 4))))

    def test_spec_validation(self):
        with pytest.raises(InvalidConfigError):
            FnnSpec((3,))
        with pytest.raises(InvalidConfigError):
            FnnSpec((3, 0))
        with pytest.raises(InvalidConfigError):
            FnnSpec((3, 2), activation="swish")

    def test_random_fnn_gradient(self):
        spec = FnnSpec((3, 5, 2), activation="tanh")
        store = ParameterStore()
        rng = np.random.default_rng(11)
        init_fnn(store, "net", spec, rng)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 2))

        def f(s):
            tape = Tape()
            y = fnn_forward(tape, spec, store, "net", tape.constant(x))
            return ad.sum_axis(ad.mul(y, tape.constant(w)), (0, 1))

        assert grad_check(f, store) <= 1e-6

    def test_glorot_init_bounds(self):
        spec = FnnSpec((10, 20))
        store = ParameterStore()
        init_fnn(store, "net", spec, np.random.default_rng(0))
        lim = math.sqrt(6.0 / 30.0)
        assert np.all(np.abs(store.values["net.W0"]) <= lim)
        assert np.all(store.values["net.b0"] == 0.0)


class TestDense:
    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_one_node_per_layer(self, act):
        spec = FnnSpec((4, 6, 3), activation=act, final_activation=act)
        store = ParameterStore()
        init_fnn(store, "net", spec, np.random.default_rng(2))
        tape = Tape()
        x = tape.constant(np.ones((2, 5, 4)))
        n0 = len(tape)
        fnn_forward(tape, spec, store, "net", x)
        ops = tape.ops[n0:]
        assert ops.count("dense") == spec.n_layers
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
                    y = ad.relu(y)
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)), (0, 1)))
            runs.append((y.value, [grads[v.idx] for v in (x, w, b)]))
        (y_fused, g_fused), (y_plain, g_plain) = runs
        # A 2-D input runs the same GEMM, so the values agree bit for bit.
        np.testing.assert_array_equal(y_fused, y_plain)
        for gf, gp in zip(g_fused, g_plain):
            np.testing.assert_allclose(gf, gp, rtol=1e-12, atol=1e-15)

    def test_relu_subgradient_zero_at_kink(self):
        tape = Tape()
        x = tape.constant(np.array([[1.0, -1.0]]))
        w = tape.constant(np.array([[1.0], [1.0]]))
        y = ad.dense(x, w, relu=True)
        assert y.value.item() == 0.0
        grads = tape.backward(ad.sum_axis(y, (0, 1)))
        np.testing.assert_array_equal(grads[w.idx], np.zeros((2, 1)))

    def test_bad_shapes_rejected(self):
        tape = Tape()
        x = tape.constant(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ad.dense(x, tape.constant(np.ones((4, 2))))
        with pytest.raises(ValueError):
            ad.dense(x, tape.constant(np.ones((3, 2))), tape.constant(np.ones((1, 2))))

    def test_kink_distance_sees_fused_relu(self):
        spec = FnnSpec((2, 3, 1))
        store = ParameterStore()
        store.add("net.W0", np.array([[0.0, 1.0, -1.0], [0.0, 1.0, -1.0]]))
        store.add("net.b0", np.array([-1e-6, 0.5, -0.5]))
        store.add("net.W1", np.ones((3, 1)))
        store.add("net.b1", np.zeros(1))
        tape = Tape()
        fnn_forward(tape, spec, store, "net", tape.constant(np.ones((1, 2))))
        assert 0.0 < kink_distance(tape) <= 1e-6
        store.values["net.b0"][0] = 0.25
        tape = Tape()
        fnn_forward(tape, spec, store, "net", tape.constant(np.ones((1, 2))))
        assert kink_distance(tape) == 0.25

    def test_kink_distance_sees_relu_on_part_list(self):
        # The node stores only (relu, has_bias); kink_distance recomputes the
        # pre-activation 2 + b0 from both parts, W and b.
        tape = Tape()
        parts = [tape.constant(np.ones((1, 2, 1, 2))), tape.constant(np.ones((1, 1, 2, 1)))]
        w = tape.constant(np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]))
        b = tape.constant(np.array([-2.0 + 1e-6, 0.5]))
        y = ad.dense(parts, w, b, relu=True)
        assert tape.meta[y.idx] == (True, True)
        assert 0.99e-6 <= kink_distance(tape) <= 1.01e-6
        tape.values[b.idx][0] = -2.25
        assert kink_distance(tape) == 0.25

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
                full = [ad.broadcast_to(x, (2, 3, 3, x.shape[-1])) for x in xs]
                y = ad.dense(ad.concat(full, axis=-1), w, b, relu=act == "relu")
            grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)),
                                              (0, 1, 2, 3)))
            runs.append((y.value, [grads[v.idx] for v in xs + [w, b]]))
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
        grads = tape.backward(ad.sum_axis(ad.mul(y, tape.constant(weights)), (0, 1, 2)))
        y2 = xv.reshape(-1, 4) @ wv
        y2 += bv
        g2 = weights.reshape(-1, 5)
        if act == "relu":
            np.maximum(y2, 0.0, out=y2)
            g2 = g2 * (y2 > 0.0)
        np.testing.assert_array_equal(y.value, y2.reshape(2, 3, 5))
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
            ad.dense(parts, tape.constant(np.ones((6, 2))))

    def test_identity_layer_has_no_kink(self):
        spec = FnnSpec((2, 2), final_activation="identity")
        store = ParameterStore()
        init_fnn(store, "net", spec, np.random.default_rng(0))
        tape = Tape()
        fnn_forward(tape, spec, store, "net", tape.constant(np.zeros((1, 2))))
        assert kink_distance(tape) == math.inf


class TestAdam:
    def _store(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, -1.0]))
        return store

    def test_zero_gradient_no_move(self):
        store = self._store()
        state = AdamState.for_store(store)
        store.zero_grads()
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
        state = AdamState.for_store(store)
        store.grads["w"][...] = 1.0
        store.grads["frozen"][...] = 1.0  # even with a bogus gradient
        adam_step(store, state, lr=0.1)
        assert store.values["frozen"] == 7.0


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
