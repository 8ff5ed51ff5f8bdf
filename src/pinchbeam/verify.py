"""Named property checks over every module, reused by the CLI and the tests.

Each check returns a PropertyCheck with the measured worst-case value and its
threshold, so reports stay interpretable when something regresses. The
physics checks call the plain-numpy oracle one sample at a time and compare
the complex128 arrays it returns; that oracle also takes leading batch axes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import cplx as cx
from . import pipeline
from . import placement_gnn as pbf
from . import precoder_gnn as tbf
from .autodiff import ParameterStore, Tape, grad_check
from .config import SPEED_OF_LIGHT, ModelConfig, SystemConfig, default_config
from .physics import (build_pinching_matrix, compute_channel, compute_se,
                      effective_channel, random_feasible_layout, sample_users)
from .training import loss_on_tape


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    value: float       # measured worst case
    threshold: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check(name: str, value: float, threshold: float, detail: str = "") -> PropertyCheck:
    return PropertyCheck(name, bool(value <= threshold), float(value),
                         float(threshold), detail)


# ---------------------------------------------------------------------------
# physics properties


def check_channel_magnitude(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        users = sample_users(rng, cfg)
        layout = random_feasible_layout(rng, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        ant = layout.antenna_positions().reshape(-1, 3)
        r = np.linalg.norm(users.positions[None] - ant[:, None], axis=2)
        err = np.abs(np.abs(h) * r - math.sqrt(cfg.path_const)) / math.sqrt(cfg.path_const)
        worst = max(worst, float(err.max()))
    return _check("channel_magnitude_law", worst, 1e-12,
                  "|h| * r == sqrt(eta), relative")


def check_pinching_block_diagonal(cfg: SystemConfig, seed: int) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    layout = random_feasible_layout(rng, cfg)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    mask = np.ones_like(g, dtype=bool)
    m = cfg.M
    for n in range(cfg.N):
        mask[n * m:(n + 1) * m, n] = False
    worst = float(np.max(np.abs(g[mask]))) if mask.any() else 0.0
    return _check("pinching_block_diagonal", worst, 0.0, "off-block entries exactly zero")


def check_pinching_energy(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        layout = random_feasible_layout(rng, cfg)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        w = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        err = abs(np.linalg.norm(g @ w) - np.linalg.norm(w)) / np.linalg.norm(w)
        worst = max(worst, float(err))
    return _check("pinching_energy_preserving", worst, 1e-12, "||G w|| == ||w||, relative")


def check_effective_channel(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        users = sample_users(rng, cfg)
        layout = random_feasible_layout(rng, cfg)
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        w = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        direct = h.conj().T @ (g @ w)
        via = ht.conj().T @ w
        err = np.abs(direct - via) / np.maximum(np.abs(direct), 1e-12)
        worst = max(worst, float(err.max()))
    return _check("effective_channel_consistency", worst, 1e-12,
                  "h_k^H G w == h_tilde_k^H w, relative")


def check_se_permutation(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        ht = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        w = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        se = compute_se(ht, w, cfg.noise_power_w)
        pu = rng.permutation(cfg.K)
        pa = rng.permutation(cfg.N)
        worst = max(worst, abs(se - compute_se(ht[:, pu], w[:, pu], cfg.noise_power_w)))
        worst = max(worst, abs(se - compute_se(ht[pa], w[pa], cfg.noise_power_w)))
    return _check("se_permutation_invariance", worst, 1e-9,
                  "user/waveguide relabeling leaves SE unchanged")


# ---------------------------------------------------------------------------
# network properties


def _nested_permutation(rng, n: int, m: int):
    """(waveguide map, per-waveguide slot maps): new index -> old index."""
    wg = rng.permutation(n)
    slots = np.stack([rng.permutation(m) for _ in range(n)])
    return wg, slots


def check_pbf_equivariance(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        phi = rng.uniform(0.0, cfg.D, (1, cfg.K, 2))
        s = pbf.index_feature(cfg.N, cfg.M)
        x1, gaps = pbf.pbf_actions(Tape(), phi, s, store, cfg, model)
        pu = rng.permutation(cfg.K)
        wg, slots = _nested_permutation(rng, cfg.N, cfg.M)
        s_perm = s[wg][np.arange(cfg.N)[:, None], slots]
        x1p, gapsp = pbf.pbf_actions(Tape(), phi[:, pu], s_perm, store, cfg, model)
        expect_x1 = x1.value[:, wg]
        expect_gaps = gaps.value[:, wg][:, np.arange(cfg.N)[:, None], slots]
        worst = max(worst, float(np.max(np.abs(x1p.value - expect_x1))))
        worst = max(worst, float(np.max(np.abs(gapsp.value - expect_gaps))))
    return _check("pbf_nested_equivariance", worst, 1e-9,
                  "actions permute with users/waveguides/slot indices")


def check_layout_feasibility(cfg: SystemConfig, seed: int, trials: int = 10,
                             batch: int = 100) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        phi = rng.uniform(0.0, cfg.D, (batch, cfg.K, 2))
        out = pbf.pbf_forward(Tape(), phi, store, cfg, model)
        if out.gaps.value.size:
            worst = max(worst, float(np.max(cfg.min_gap_m - out.gaps.value)))
        x = out.positions_x.value
        worst = max(worst, float(np.max(-x)), float(np.max(x - cfg.D)))
    return _check("layout_feasible_by_construction", worst, 0.0,
                  "gaps >= min_gap and positions within [0, D], exactly")


def check_tbf_equivariance(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        ht = rng.standard_normal((1, cfg.N, cfg.K)) * 0.01 \
            + 1j * rng.standard_normal((1, cfg.N, cfg.K)) * 0.01
        tape = Tape()
        p, lam = tbf.tbf_powers(tape, tape.constant(ht), store, cfg, model)
        tape = Tape()
        w = tbf.tbf_forward(tape, tape.constant(ht), store, cfg, model)
        wv = w.value
        pu = rng.permutation(cfg.K)
        pa = rng.permutation(cfg.N)
        htp = ht[:, pa][:, :, pu]
        tape = Tape()
        p2, lam2 = tbf.tbf_powers(tape, tape.constant(htp), store, cfg, model)
        tape = Tape()
        w2 = tbf.tbf_forward(tape, tape.constant(htp), store, cfg, model)
        worst = max(worst, float(np.max(np.abs(p2.value - p.value[:, pu]))))
        worst = max(worst, float(np.max(np.abs(lam2.value - lam.value[:, pu]))))
        worst = max(worst, float(np.max(np.abs(w2.value - wv[:, pa][:, :, pu]))))
    return _check("tbf_equivariance", worst, 1e-9,
                  "powers permute with users; precoder rows with waveguides")


def check_power_exactness(cfg: SystemConfig, seed: int, trials: int = 10,
                          batch: int = 100) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        phi = rng.uniform(0.0, cfg.D, (batch, cfg.K, 2))
        out = pipeline.forward_on_tape(Tape(), phi, store, cfg, model)
        power = np.sum(np.abs(out.w.value) ** 2, axis=(-2, -1))
        worst = max(worst, float(np.max(np.abs(power - cfg.power_budget_w)))
                    / cfg.power_budget_w)
    return _check("precoder_power_exact", worst, 1e-9,
                  "| ||W||^2 - P_max | <= 1e-9 relative")


def check_e2e_user_permutation(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, 99)))
    worst = 0.0
    for _ in range(trials):
        phi = rng.uniform(0.0, cfg.D, (cfg.K, 2))
        se = pipeline.policy_forward(phi, store, cfg, model).se
        se_p = pipeline.policy_forward(phi[rng.permutation(cfg.K)], store, cfg, model).se
        worst = max(worst, abs(se - se_p))
    return _check("e2e_user_permutation_se", worst, 1e-9,
                  "relabeling users does not change the achieved SE")


def check_solve_residual(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        ht = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        p = rng.uniform(0.1, 1.0, cfg.K)
        lam = rng.uniform(0.0, 1.0, cfg.K)
        w = tbf.recover_precoder_np(ht, p, lam, cfg.noise_power_w)
        # (Lam H^H H + noise I) X == H^H W_target reconstruction check:
        hth = ht.conj().T @ ht
        a = lam[:, None] * hth + cfg.noise_power_w * np.eye(cfg.K)
        x = np.linalg.solve(a, np.sqrt(p)[:, None] * np.eye(cfg.K, dtype=complex))
        resid = np.linalg.norm(a @ x - np.sqrt(p)[:, None] * np.eye(cfg.K)) \
            / np.linalg.norm(np.sqrt(p))
        worst = max(worst, float(resid),
                    float(np.max(np.abs(w - ht @ x)) / max(1.0, np.max(np.abs(w)))))
    return _check("precoder_solve_residual", worst, 1e-10,
                  "direct solve residual, relative")


def check_normalize_idempotent(cfg: SystemConfig, seed: int, trials: int = 20) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.standard_normal((cfg.N, cfg.K)) + 1j * rng.standard_normal((cfg.N, cfg.K))
        once = tbf.normalize_power_np(w, cfg.power_budget_w)
        twice = tbf.normalize_power_np(once, cfg.power_budget_w)
        worst = max(worst, float(np.max(np.abs(once - twice))))
    return _check("normalize_power_idempotent", worst, 1e-12, "W' == normalize(W')")


# ---------------------------------------------------------------------------
# gradient properties


def _scalarized(op_builder, weights: np.ndarray):
    def build(store: ParameterStore):
        tape = Tape()
        y = op_builder(tape, store)
        return ad.sum_axis(ad.mul(y, tape.constant(weights)), tuple(range(weights.ndim)))
    return build


def primitive_grad_checks(eps: float = 1e-5, seed: int = 0) -> dict[str, float]:
    """Official grad_check run over every primitive; returns worst error per op."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def run(name, params, op_builder, out_shape, nonzero=False):
        store = ParameterStore()
        for k, v in params.items():
            store.add(k, v)
        weights = rng.uniform(0.5, 1.5, out_shape)
        fn = _scalarized(op_builder, weights)
        results[name] = grad_check(fn, store, eps)
        if nonzero:
            # A coordinate with derivative exactly 0 checks nothing: its
            # central difference is exactly 0 too, or rounding noise.
            ad.backward_into(store, fn(store))
            if not all(np.all(g) for g in store.grads.values()):
                results[name] = math.inf

    def u(shape, lo=-1.5, hi=1.5):
        return rng.uniform(lo, hi, shape)

    x34 = u((3, 4))
    run("add", {"x": x34, "y": u((4,))},
        lambda t, s: ad.add(t.param(s, "x"), t.param(s, "y")), (3, 4))
    run("sub", {"x": x34, "y": u((4,))},
        lambda t, s: ad.sub(t.param(s, "x"), t.param(s, "y")), (3, 4))
    run("mul", {"x": x34, "y": u((3, 4))},
        lambda t, s: ad.mul(t.param(s, "x"), t.param(s, "y")), (3, 4))
    run("div", {"x": x34, "y": u((3, 4), 0.5, 1.5)},
        lambda t, s: ad.div(t.param(s, "x"), t.param(s, "y")), (3, 4))
    run("scalar_scale", {"x": x34},
        lambda t, s: ad.scalar_scale(t.param(s, "x"), 1.7), (3, 4))
    run("matmul", {"x": u((3, 4)), "y": u((4, 2))},
        lambda t, s: ad.matmul(t.param(s, "x"), t.param(s, "y")), (3, 2))
    run("solve", {"a": u((3, 3)) + 4.0 * np.eye(3), "b": u((3, 2))},
        lambda t, s: ad.solve(t.param(s, "a"), t.param(s, "b")), (3, 2))
    run("concat", {"x": u((2, 3)), "y": u((2, 2))},
        lambda t, s: ad.concat([t.param(s, "x"), t.param(s, "y")], axis=-1), (2, 5))
    run("reshape", {"x": x34},
        lambda t, s: ad.reshape(t.param(s, "x"), (2, 6)), (2, 6))
    run("slice_axis", {"x": u((3, 5))},
        lambda t, s: ad.slice_axis(t.param(s, "x"), 1, 1, 4), (3, 3))
    run("broadcast_to", {"x": u((3, 1))},
        lambda t, s: ad.broadcast_to(t.param(s, "x"), (3, 4)), (3, 4))
    run("sum_axis", {"x": u((2, 3, 4))},
        lambda t, s: ad.sum_axis(t.param(s, "x"), (0, 2)), (3,))
    run("mean_axis", {"x": u((2, 3, 4))},
        lambda t, s: ad.mean_axis(t.param(s, "x"), 1), (2, 4))
    # Kinked ops sampled away from their kinks.
    xk = np.where(u((3, 4)) >= 0, u((3, 4), 0.1, 1.5), u((3, 4), -1.5, -0.1))
    run("max_with_scalar", {"x": xk + 0.5},
        lambda t, s: ad.max_with_scalar(t.param(s, "x"), 0.5), (3, 4))
    run("relu", {"x": xk}, lambda t, s: ad.relu(t.param(s, "x")), (3, 4))
    run("sigmoid", {"x": x34}, lambda t, s: ad.sigmoid(t.param(s, "x")), (3, 4))
    run("tanh", {"x": x34}, lambda t, s: ad.tanh(t.param(s, "x")), (3, 4))
    run("softplus", {"x": x34}, lambda t, s: ad.softplus(t.param(s, "x")), (3, 4))
    run("log1p", {"x": u((3, 4), -0.4, 2.0)},
        lambda t, s: ad.log1p(t.param(s, "x")), (3, 4))
    run("square", {"x": x34}, lambda t, s: ad.square(t.param(s, "x")), (3, 4))
    run("sqrt", {"x": u((3, 4), 0.3, 2.0)}, lambda t, s: ad.sqrt(t.param(s, "x")), (3, 4))
    # Complex ops: each complex input is z = x + j y built on the tape from
    # two real parameters, and a complex output is read back through
    # real_imag, so the loss stays real and every adjoint crosses the
    # real/complex boundary both ways.
    def z(t, s, name):
        return ad.add(t.param(s, name + ".re"), ad.mul(t.param(s, name + ".im"), 1j))

    def zp(name, shape, lo=-1.5, hi=1.5):
        return {name + ".re": u(shape, lo, hi), name + ".im": u(shape, lo, hi)}

    run("expj", {"x": x34}, lambda t, s: cx.real_imag(cx.expj(t.param(s, "x"))), (3, 4, 2))
    run("abs2", zp("z", (3, 4)), lambda t, s: cx.abs2(z(t, s, "z")), (3, 4))
    run("htranspose", zp("z", (2, 3, 4)),
        lambda t, s: cx.real_imag(cx.htranspose(z(t, s, "z"))), (2, 4, 3, 2))
    run("real_imag", zp("z", (3, 4)), lambda t, s: cx.real_imag(z(t, s, "z")), (3, 4, 2))
    run("complex_mul", {**zp("a", (3, 4)), **zp("b", (4,))},
        lambda t, s: cx.real_imag(ad.mul(z(t, s, "a"), z(t, s, "b"))), (3, 4, 2))
    run("complex_div", {**zp("a", (3, 4)), **zp("b", (3, 4), 0.5, 1.5)},
        lambda t, s: cx.real_imag(ad.div(z(t, s, "a"), z(t, s, "b"))), (3, 4, 2))
    run("complex_matmul", {**zp("a", (2, 3, 4)), **zp("b", (4, 2))},
        lambda t, s: cx.real_imag(ad.matmul(z(t, s, "a"), z(t, s, "b"))), (2, 3, 2, 2))
    run("complex_solve", {**zp("a", (2, 3, 3)), **zp("b", (2, 3, 2))},
        lambda t, s: cx.real_imag(ad.solve(ad.add(z(t, s, "a"), t.constant(4.0 * np.eye(3))),
                                           z(t, s, "b"))), (2, 3, 2, 2))
    # dense on a 3-D input, so the leading axes are flattened. Inputs are
    # redrawn until every pre-activation is clear of the relu kink.
    for relu in (False, True):
        for bias in (False, True):
            while True:
                p = {"x": u((2, 3, 4)), "w": u((4, 5))}
                if bias:
                    p["b"] = u((5,))
                if np.min(np.abs(p["x"] @ p["w"] + p.get("b", 0.0))) > 0.05:
                    break
            run(("dense_relu" if relu else "dense_identity") + ("_bias" if bias else ""),
                p, lambda t, s, relu=relu: ad.dense(
                    t.param(s, "x"), t.param(s, "w"),
                    t.param(s, "b") if "b" in s else None, relu=relu), (2, 3, 5))
    # dense on a part list, read as the broadcast concat of the parts: two
    # parts broadcast across each other, then a full part next to one at
    # reduced resolution.
    for layout, shapes in (("cross", ((2, 3, 1, 4), (2, 1, 3, 2))),
                           ("reduced", ((2, 3, 3, 4), (1, 1, 3, 2)))):
        for relu in (False, True):
            while True:
                p = {"x0": u(shapes[0]), "x1": u(shapes[1]), "w": u((6, 5)), "b": u((5,))}
                pre = p["x0"] @ p["w"][:4] + p["x1"] @ p["w"][4:] + p["b"]
                if np.min(np.abs(pre)) > 0.05:
                    break
            run(f"dense_parts_{layout}_" + ("relu" if relu else "identity") + "_bias",
                p, lambda t, s, relu=relu: ad.dense(
                    [t.param(s, "x0"), t.param(s, "x1")], t.param(s, "w"),
                    t.param(s, "b"), relu=relu), (2, 3, 3, 5))
    # diagonal over two inner axes, as the placement message uses it, and over
    # the last two, as the SE signal term does.
    run("diagonal", {"x": u((2, 3, 4, 4, 5))},
        lambda t, s: ad.diagonal(t.param(s, "x"), 2, 3), (2, 3, 4, 5))
    run("diagonal_last2", {"x": u((3, 4, 4))},
        lambda t, s: ad.diagonal(t.param(s, "x"), -2, -1), (3, 4))
    # The leave-one-out sums, over an inner and a negative axis, and the
    # off-diagonal sum as the placement message uses it. A diagonal entry
    # enters the sum and is subtracted again, so its exact derivative 0 reads
    # as rounding noise of ~1e-11 in a central difference, a relative error
    # of 1; adding the diagonal back gives those entries derivative 1, which
    # a VJP that leaves the diagonal in (2) or zeroes too much (0) misses.
    run("sum_others", {"x": u((2, 3, 4))},
        lambda t, s: ad.sum_others(t.param(s, "x"), 1), (2, 3, 4))
    run("sum_others_negative_axis", {"x": u((2, 3, 4, 5))},
        lambda t, s: ad.sum_others(t.param(s, "x"), -2), (2, 3, 4, 5))
    run("off_diagonal_sum", {"x": u((2, 3, 4, 4, 5))},
        lambda t, s: ad.add(ad.off_diagonal_sum(t.param(s, "x"), 2, 3),
                            ad.diagonal(t.param(s, "x"), 2, 3)), (2, 3, 4, 5))
    # dense with its relu output summed inside the node, over an axis (kept)
    # and over the off-diagonal of two, on two parts that broadcast across
    # each other as the placement processor's pair does. Every coordinate
    # must have a non-zero derivative.
    for layout, reduce, out_shape in (("sum", 1, (2, 1, 3, 5)),
                                      ("off_diagonal", (1, 2), (2, 3, 5))):
        while True:
            p = {"x0": u((2, 3, 1, 4)), "x1": u((2, 1, 3, 2)), "w": u((6, 5)), "b": u((5,))}
            pre = p["x0"] @ p["w"][:4] + p["x1"] @ p["w"][4:] + p["b"]
            if np.min(np.abs(pre)) > 0.05:
                break
        run(f"dense_parts_{layout}_relu_bias", p, lambda t, s, reduce=reduce: ad.dense(
            [t.param(s, "x0"), t.param(s, "x1")], t.param(s, "w"), t.param(s, "b"),
            relu=True, reduce=reduce), out_shape, nonzero=True)
    # slice_axis and diagonal of a complex input: their adjoints are complex.
    run("complex_slice_axis", zp("z", (3, 5)),
        lambda t, s: cx.real_imag(ad.slice_axis(z(t, s, "z"), 1, 1, 4)), (3, 3, 2))
    run("complex_diagonal", zp("z", (2, 4, 4)),
        lambda t, s: cx.real_imag(ad.diagonal(z(t, s, "z"), 1, 2)), (2, 4, 2))
    return results


def check_primitive_gradients(seed: int = 0) -> PropertyCheck:
    results = primitive_grad_checks(seed=seed)
    worst_op = max(results, key=results.get)
    return _check("gradients_primitives", results[worst_op], 1e-6,
                  f"worst primitive: {worst_op} ({len(results)} ops checked)")


def kink_distance(tape: Tape) -> float:
    """Distance of recorded values to the nearest non-smooth point.

    Covers max_with_scalar thresholds, the relus fused into dense nodes
    (their pre-activation recomputed from the node's parents with the GEMM
    code of ``dense``, also where the node stores only a sum of its output)
    and the sqrt domain; used to resample
    gradient-check inputs that would straddle a kink during probing.
    """
    worst = math.inf
    for i, op in enumerate(tape.ops):
        if op == "max_with_scalar":
            parent = tape.values[tape.parents[i][0]]
            thresh = tape.meta[i]
            worst = min(worst, float(np.min(np.abs(parent - thresh))))
        elif op == "dense" and tape.meta[i][0]:
            vals = [tape.values[p] for p in tape.parents[i]]
            bias = vals.pop() if tape.meta[i][1] else None
            pre = ad.dense_preactivation(vals[:-1], ad.row_blocks(vals[:-1], vals[-1]), bias)
            worst = min(worst, float(np.min(np.abs(pre))))
        elif op == "sqrt":
            parent = tape.values[tape.parents[i][0]]
            worst = min(worst, float(np.min(np.abs(parent))))
    return worst


def end_to_end_grad_check(eps: float = 1e-5, max_tries: int = 50,
                          kink_clearance: float = 1e-3) -> tuple[float, int]:
    """grad_check of the full policy loss on a 2-user, 2-waveguide instance.

    Subnet widths are reduced so the central-difference sweep stays cheap;
    every op kind of the full pipeline is still exercised. The probe instance
    is conditioned for finite differences: a 2.8 GHz carrier keeps the phase
    curvature resolvable at eps = 1e-5 m-scale steps, and the path constant is
    boosted so the channel Gram term is commensurate with the noise floor and
    the uplink-power branch carries non-vanishing gradients. Inputs and
    parameters are redrawn until all kinked ops sit at least kink_clearance
    away from their kinks, so the differences never straddle one.
    Returns (worst relative error, tries used).
    """
    carrier = 2.8e9
    eta = 1e4 * SPEED_OF_LIGHT / (2.0 * math.pi * carrier)
    cfg = SystemConfig(n_waveguides=2, n_pinch_per_wg=1, n_users=2,
                       carrier_freq_hz=carrier, path_const_override_m2=eta)
    model = ModelConfig(pbf_layers=2, tbf_layers=2, hidden=6, message_dim=6)
    for attempt in range(max_tries):
        ss = np.random.SeedSequence((4242, attempt))
        store = pipeline.init_parameters(cfg, model, ss)
        phi = np.random.default_rng(ss.spawn(1)[0]).uniform(
            0.05 * cfg.D, 0.95 * cfg.D, (2, cfg.K, 2))
        tape = Tape()
        loss_on_tape(tape, phi, store, cfg, model)
        if kink_distance(tape) > kink_clearance:
            break
    else:
        raise RuntimeError("could not find a kink-free probe instance")

    def f(s):
        return loss_on_tape(Tape(), phi, s, cfg, model)

    return grad_check(f, store, eps), attempt + 1


def check_end_to_end_gradient() -> PropertyCheck:
    err, tries = end_to_end_grad_check()
    return _check("gradients_full_policy", err, 1e-4,
                  f"K=N=2, M=1 loss vs central differences (tries: {tries})")


# ---------------------------------------------------------------------------
# suite


def run_verification(cfg: SystemConfig | None = None, seed: int = 0,
                     include_gradients: bool = True) -> list[PropertyCheck]:
    """All property suites at micro scale; the config only shapes the physics
    and equivariance checks and must stay desk-sized."""
    if cfg is None:
        cfg = default_config(2, 2, 2)
    checks = [
        check_channel_magnitude(cfg, seed),
        check_pinching_block_diagonal(cfg, seed),
        check_pinching_energy(cfg, seed),
        check_effective_channel(cfg, seed),
        check_se_permutation(cfg, seed),
        check_pbf_equivariance(cfg, seed, trials=5),
        check_layout_feasibility(cfg, seed, trials=5),
        check_tbf_equivariance(cfg, seed, trials=5),
        check_power_exactness(cfg, seed, trials=5),
        check_e2e_user_permutation(cfg, seed, trials=5),
        check_solve_residual(cfg, seed),
        check_normalize_idempotent(cfg, seed),
    ]
    if include_gradients:
        checks.append(check_primitive_gradients(seed))
        checks.append(check_end_to_end_gradient())
    return checks
