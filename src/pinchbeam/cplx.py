"""Tape ops that cross between real and complex values, or conjugate.

Complex tensors are complex128 tape values (see :mod:`pinchbeam.autodiff`);
the holomorphic arithmetic (``add``, ``mul``, ``div``, ``matmul``,
``solve``, ``sum_axis``, ``reshape`` ...) is the real primitives applied to
them. A complex node's adjoint is ``dL/dRe + j dL/dIm``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var


def expj(a: Var) -> Var:
    """``e^{j a}`` of a real tensor, as cos a + j sin a."""
    av = a.value
    y = np.empty(av.shape, dtype=np.complex128)
    y.real = np.cos(av)
    y.imag = np.sin(av)

    def vjp(g):
        return ((g * y.conj()).imag,)

    return a.tape._push(y, (a.idx,), vjp, "expj")


def abs2(a: Var) -> Var:
    """``|z|^2`` elementwise, a real tensor of the same shape."""
    av = a.value
    re, im = av.real, av.imag

    def vjp(g):
        return (2.0 * av * g,)

    return a.tape._push(re * re + im * im, (a.idx,), vjp, "abs2")


def htranspose(a: Var) -> Var:
    """Conjugate transpose of the last two axes."""
    def vjp(g):
        return (np.swapaxes(g, -1, -2).conj(),)

    return a.tape._push(np.swapaxes(a.value, -1, -2).conj(), (a.idx,), vjp, "htranspose")


def real_imag(a: Var) -> Var:
    """``[Re z, Im z]`` stacked on a new last axis, shape (..., 2)."""
    shape = a.value.shape

    def vjp(g):
        gz = np.empty(shape, dtype=np.complex128)
        gz.real = g[..., 0]
        gz.imag = g[..., 1]
        return (gz,)

    return a.tape._push(np.stack([a.value.real, a.value.imag], axis=-1), (a.idx,), vjp,
                        "real_imag")
