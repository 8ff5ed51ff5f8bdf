"""Named property checks over every module, reused by the CLI and the tests.

Each check returns a PropertyCheck with the measured worst-case value and its
threshold, so reports stay interpretable when something regresses. The
physics and solver checks call the plain-numpy oracle once on a batch of
``_DRAWS`` draws and compare the complex128 arrays it returns draw by draw.
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
                      effective_channel, random_feasible_layout, random_scenarios)
from .training import loss_on_tape

# Random draws per physics and solver check.
_DRAWS = 20
# Inputs per parameter draw in the constraint checks.
_BATCH = 100
# Kink-free probe instances the full-loss gradient check tries before it
# gives up, and the least distance of every kinked op from its kink.
_MAX_TRIES = 50
_KINK_CLEARANCE = 1e-3


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


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_channel_magnitude(cfg: SystemConfig, seed: int) -> PropertyCheck:
    users, layout = random_scenarios(np.random.default_rng(seed), cfg, _DRAWS)
    h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
    ant = layout.antenna_positions().reshape(_DRAWS, -1, 3)
    r = np.linalg.norm(users.positions[:, None] - ant[:, :, None], axis=-1)
    err = np.abs(np.abs(h) * r - math.sqrt(cfg.path_const)) / math.sqrt(cfg.path_const)
    return _check("channel_magnitude_law", float(err.max()), 1e-12,
                  "|h| * r == sqrt(eta), relative")


def check_pinching_block_diagonal(cfg: SystemConfig, seed: int) -> PropertyCheck:
    layout = random_feasible_layout(np.random.default_rng(seed), cfg)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    off_block = np.kron(np.eye(cfg.N), np.ones((cfg.M, 1))) == 0.0
    return _check("pinching_block_diagonal", float(np.max(np.abs(g[off_block]), initial=0.0)),
                  0.0, "off-block entries exactly zero")


def check_pinching_energy(cfg: SystemConfig, seed: int) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    _, layout = random_scenarios(rng, cfg, _DRAWS)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    w = _complex_normal(rng, (_DRAWS, cfg.N, cfg.K))
    norm = np.linalg.norm(w, axis=(-2, -1))
    err = np.abs(np.linalg.norm(g @ w, axis=(-2, -1)) - norm) / norm
    return _check("pinching_energy_preserving", float(err.max()), 1e-12,
                  "||G w|| == ||w||, relative")


def check_effective_channel(cfg: SystemConfig, seed: int) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    users, layout = random_scenarios(rng, cfg, _DRAWS)
    h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    ht = effective_channel(h, g)
    w = _complex_normal(rng, (_DRAWS, cfg.N, cfg.K))
    direct = h.conj().swapaxes(-1, -2) @ (g @ w)
    via = ht.conj().swapaxes(-1, -2) @ w
    err = np.abs(direct - via) / np.maximum(np.abs(direct), 1e-12)
    return _check("effective_channel_consistency", float(err.max()), 1e-12,
                  "h_k^H G w == h_tilde_k^H w, relative")


def check_se_permutation(cfg: SystemConfig, seed: int) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    ht = _complex_normal(rng, (_DRAWS, cfg.N, cfg.K))
    w = _complex_normal(rng, (_DRAWS, cfg.N, cfg.K))
    se = compute_se(ht, w, cfg.noise_power_w)
    # A fresh user and waveguide relabeling per draw.
    pu = rng.permuted(np.tile(np.arange(cfg.K), (_DRAWS, 1, 1)), axis=-1)
    pa = rng.permuted(np.tile(np.arange(cfg.N)[:, None], (_DRAWS, 1, 1)), axis=-2)
    worst = 0.0
    for perm, axis in ((pu, -1), (pa, -2)):
        relabeled = compute_se(np.take_along_axis(ht, perm, axis),
                               np.take_along_axis(w, perm, axis), cfg.noise_power_w)
        worst = max(worst, float(np.max(np.abs(se - relabeled))))
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
        x1, gaps = pbf.pbf_actions(Tape(record=False), phi, s, store, cfg, model)
        pu = rng.permutation(cfg.K)
        wg, slots = _nested_permutation(rng, cfg.N, cfg.M)
        s_perm = s[wg][np.arange(cfg.N)[:, None], slots]
        x1p, gapsp = pbf.pbf_actions(Tape(record=False), phi[:, pu], s_perm, store, cfg,
                                     model)
        expect_x1 = x1.value[:, wg]
        expect_gaps = gaps.value[:, wg][:, np.arange(cfg.N)[:, None], slots]
        worst = max(worst, float(np.max(np.abs(x1p.value - expect_x1))))
        worst = max(worst, float(np.max(np.abs(gapsp.value - expect_gaps))))
    return _check("pbf_nested_equivariance", worst, 1e-9,
                  "actions permute with users/waveguides/slot indices")


def check_layout_feasibility(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        phi = rng.uniform(0.0, cfg.D, (_BATCH, cfg.K, 2))
        out = pbf.pbf_forward(Tape(record=False), phi, store, cfg, model)
        if out.gaps.value.size:
            worst = max(worst, float(np.max(cfg.min_gap_m - out.gaps.value)))
        x = out.positions_x.value
        worst = max(worst, float(np.max(-x)), float(np.max(x - cfg.D)))
    return _check("layout_feasible_by_construction", worst, 0.0,
                  "gaps >= min_gap and positions within [0, D], exactly")


def _tbf_outputs(ht: np.ndarray, store: ParameterStore, cfg: SystemConfig,
                 model: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, lam, W) of one precoder forward: ``tbf.tbf_forward``'s steps, with
    p and lam kept."""
    tape = Tape(record=False)
    h = tape.constant(ht)
    p, lam = tbf.tbf_powers(tape, h, store, cfg, model)
    w = tbf.recover_precoder(tape, h, p, lam, cfg.noise_power_w)
    return p.value, lam.value, tbf.normalize_power(tape, w, cfg.power_budget_w).value


def check_tbf_equivariance(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        ht = rng.standard_normal((1, cfg.N, cfg.K)) * 0.01 \
            + 1j * rng.standard_normal((1, cfg.N, cfg.K)) * 0.01
        p, lam, w = _tbf_outputs(ht, store, cfg, model)
        pu = rng.permutation(cfg.K)
        pa = rng.permutation(cfg.N)
        p2, lam2, w2 = _tbf_outputs(ht[:, pa][:, :, pu], store, cfg, model)
        worst = max(worst, float(np.max(np.abs(p2 - p[:, pu]))))
        worst = max(worst, float(np.max(np.abs(lam2 - lam[:, pu]))))
        worst = max(worst, float(np.max(np.abs(w2 - w[:, pa][:, :, pu]))))
    return _check("tbf_equivariance", worst, 1e-9,
                  "powers permute with users; precoder rows with waveguides")


def check_power_exactness(cfg: SystemConfig, seed: int, trials: int = 10) -> PropertyCheck:
    model = ModelConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        store = pipeline.init_parameters(cfg, model, np.random.SeedSequence((seed, t)))
        phi = rng.uniform(0.0, cfg.D, (_BATCH, cfg.K, 2))
        out = pipeline.forward_on_tape(Tape(record=False), phi, store, cfg, model)
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


def check_solve_residual(cfg: SystemConfig, seed: int) -> PropertyCheck:
    rng = np.random.default_rng(seed)
    ht = _complex_normal(rng, (_DRAWS, cfg.N, cfg.K))
    p = rng.uniform(0.1, 1.0, (_DRAWS, cfg.K))
    lam = rng.uniform(0.0, 1.0, (_DRAWS, cfg.K))
    w = tbf.recover_precoder_np(ht, p, lam, cfg.noise_power_w)
    # (Lam H^H H + noise I) X == H^H W_target reconstruction check:
    hth = ht.conj().swapaxes(-1, -2) @ ht
    a = lam[..., None] * hth + cfg.noise_power_w * np.eye(cfg.K)
    target = np.sqrt(p)[..., None] * np.eye(cfg.K, dtype=complex)
    x = np.linalg.solve(a, target)
    resid = np.linalg.norm(a @ x - target, axis=(-2, -1)) / np.linalg.norm(np.sqrt(p), axis=-1)
    recovered = np.max(np.abs(w - ht @ x), axis=(-2, -1)) \
        / np.maximum(1.0, np.max(np.abs(w), axis=(-2, -1)))
    return _check("precoder_solve_residual", float(max(resid.max(), recovered.max())), 1e-10,
                  "direct solve residual, relative")


def check_normalize_idempotent(cfg: SystemConfig, seed: int) -> PropertyCheck:
    w = _complex_normal(np.random.default_rng(seed), (_DRAWS, cfg.N, cfg.K))
    once = tbf.normalize_power_np(w, cfg.power_budget_w)
    twice = tbf.normalize_power_np(once, cfg.power_budget_w)
    return _check("normalize_power_idempotent", float(np.max(np.abs(once - twice))), 1e-12,
                  "W' == normalize(W')")


# ---------------------------------------------------------------------------
# gradient properties


def _scalarized(op_builder, weights: np.ndarray):
    def build(store: ParameterStore):
        tape = Tape()
        y = op_builder(tape, store)
        return ad.sum_axis(ad.mul(y, tape.constant(weights)), tuple(range(weights.ndim)))
    return build


def primitive_grad_checks(seed: int = 0) -> dict[str, float]:
    """Official grad_check run over every primitive; returns worst error per op."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def run(name, params, op_builder, out_shape, nonzero=False):
        store = ParameterStore()
        for k, v in params.items():
            store.add(k, v)
        weights = rng.uniform(0.5, 1.5, out_shape)
        fn = _scalarized(op_builder, weights)
        results[name] = grad_check(fn, store)
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
    run("sum_axis", {"x": u((2, 3, 4))},
        lambda t, s: ad.sum_axis(t.param(s, "x"), (0, 2)), (3,))
    run("mean_axis", {"x": u((2, 3, 4))},
        lambda t, s: ad.mean_axis(t.param(s, "x"), 1), (2, 4))
    # Kinked ops sampled away from their kinks.
    xk = np.where(u((3, 4)) >= 0, u((3, 4), 0.1, 1.5), u((3, 4), -1.5, -0.1))
    run("max_with_scalar", {"x": xk + 0.5},
        lambda t, s: ad.max_with_scalar(t.param(s, "x"), 0.5), (3, 4))
    run("sigmoid", {"x": x34}, lambda t, s: ad.sigmoid(t.param(s, "x")), (3, 4))
    run("softplus", {"x": x34}, lambda t, s: ad.softplus(t.param(s, "x")), (3, 4))
    run("log1p", {"x": u((3, 4), -0.4, 2.0)},
        lambda t, s: ad.log1p(t.param(s, "x")), (3, 4))
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
        while True:
            p = {"x": u((2, 3, 4)), "w": u((4, 5)), "b": u((5,))}
            if np.min(np.abs(p["x"] @ p["w"] + p["b"])) > 0.05:
                break
        run(("dense_relu" if relu else "dense_identity") + "_bias", p,
            lambda t, s, relu=relu: ad.dense(t.param(s, "x"), t.param(s, "w"),
                                             t.param(s, "b"), relu=relu), (2, 3, 5))
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
    # dense with its relu output summed inside the node, over an axis (kept)
    # and over the off-diagonal of two, on two parts that broadcast across
    # each other as the placement processor's pair does. Every coordinate
    # must have a non-zero derivative, so inputs are also redrawn until every
    # output unit, every x0 row and every x1 row reaches a live summed entry:
    # without one, a coordinate's correct derivative is exactly 0.
    for layout, reduce, out_shape in (("sum", 1, (2, 1, 3, 5)),
                                      ("off_diagonal", (1, 2), (2, 3, 5))):
        while True:
            p = {"x0": u((2, 3, 1, 4)), "x1": u((2, 1, 3, 2)), "w": u((6, 5)), "b": u((5,))}
            pre = p["x0"] @ p["w"][:4] + p["x1"] @ p["w"][4:] + p["b"]
            live = pre > 0.0
            if reduce != 1:
                live &= ~np.eye(3, dtype=bool)[None, :, :, None]
            # Axes left: an output unit, an x0 row (b, i), an x1 row (b, j).
            if np.min(np.abs(pre)) > 0.05 and all(
                    np.all(live.any(axis=axes)) for axes in ((0, 1, 2), (2, 3), (1, 3))):
                break
        run(f"dense_parts_{layout}_relu_bias", p, lambda t, s, reduce=reduce: ad.dense(
            [t.param(s, "x0"), t.param(s, "x1")], t.param(s, "w"), t.param(s, "b"),
            relu=True, reduce=reduce), out_shape, nonzero=True)
    # slice_axis and diagonal of a complex input: their adjoints are complex.
    run("complex_slice_axis", zp("z", (3, 5)),
        lambda t, s: cx.real_imag(ad.slice_axis(z(t, s, "z"), 1, 1, 4)), (3, 3, 2))
    run("complex_diagonal", zp("z", (2, 4, 4)),
        lambda t, s: cx.real_imag(ad.diagonal(z(t, s, "z"), 1, 2)), (2, 4, 2))
    # dense on four parts at three resolutions: x1 nests in x0, x2 crosses
    # x1 and x3 nests in both, so the products group and one sum of the
    # adjoint is taken from another.
    shapes = ((2, 3, 3, 2), (2, 3, 1, 2), (2, 1, 3, 1), (2, 1, 1, 2))
    while True:
        p = {**{f"x{i}": u(s) for i, s in enumerate(shapes)}, "w": u((7, 5)), "b": u((5,))}
        pre = sum(p[f"x{i}"] @ wb for i, wb in enumerate(np.split(p["w"], [2, 4, 5])))
        if np.min(np.abs(pre + p["b"])) > 0.05:
            break
    run("dense_parts_nested_relu_bias", p, lambda t, s: ad.dense(
        [t.param(s, f"x{i}") for i in range(4)], t.param(s, "w"), t.param(s, "b"),
        relu=True), (2, 3, 3, 5))
    # A relu dense of two crossing parts is smaller in every part than in
    # its output, so it records a rebuild. A second dense reads it as a part
    # and through a keepdims sum, and then both are released in the forward
    # pass, as the placement processor releases r_a: the sweep rebuilds r
    # and the sum from the rebuilt r for the consumer's VJP.
    while True:
        p = {"x0": u((2, 3, 1, 4)), "x1": u((2, 1, 3, 2)), "w": u((6, 5)), "b": u((5,)),
             "w2": u((10, 3)), "b2": u((3,))}
        pre = p["x0"] @ p["w"][:4] + p["x1"] @ p["w"][4:] + p["b"]
        if np.min(np.abs(pre)) > 0.05:
            break

    def released_in_forward(t, s):
        r = ad.dense([t.param(s, "x0"), t.param(s, "x1")], t.param(s, "w"), t.param(s, "b"),
                     relu=True)
        r_sum = ad.sum_axis(r, 2, keepdims=True)
        y = ad.dense([r, r_sum], t.param(s, "w2"), t.param(s, "b2"))
        t.release(r, r_sum)
        return y

    run("dense_released_in_forward", p, released_in_forward, (2, 3, 3, 3))
    # The weight and bias folds of both GNNs, with every branch built: the
    # placement main net's first layer at z width 3 reading two branches
    # of width 2 from hidden width 4, and the precoder layer at N = 3,
    # K = 4 from input width 2 (message width 3, hidden width 4). The
    # folded biases read only the rows of the weights that follow the
    # branches and the messages, so their entries leave out the other rows
    # (z width 0, input width 0), whose adjoints are exact zeros.
    run("pbf_weight_fold", {"w0": u((7, 5)), "wa": u((4, 2)), "wb": u((4, 2))},
        lambda t, s: pbf.fold_weights(t.param(s, "w0"), [t.param(s, "wa"), t.param(s, "wb")],
                                      3, [3, 5]), (19, 5), nonzero=True)
    run("pbf_bias_fold", {"b0": u((5,)), "w0": u((4, 5)), "ba": u((2,)), "bb": u((2,))},
        lambda t, s: pbf.fold_bias(t.param(s, "b0"), t.param(s, "w0"),
                                   [t.param(s, "ba"), t.param(s, "bb")], [2, 3], [0, 2]),
        (5,), nonzero=True)
    run("tbf_weight_fold", {"qq": u((2, 3)), "fq": u((5, 3)), "qf": u((5, 3)), "ff": u((8, 4))},
        lambda t, s: tbf.fold_weights(*(t.param(s, n) for n in ("qq", "fq", "qf", "ff")), 3),
        (8, 4), nonzero=True)
    run("tbf_bias_fold", {"b_qq": u((3,)), "b_fq": u((3,)), "b_qf": u((3,)), "b_ff": u((4,)),
                          "fq": u((3, 3)), "qf": u((3, 3)), "ff": u((6, 4))},
        lambda t, s: tbf.fold_bias(*(t.param(s, n) for n in (
            "b_qq", "b_fq", "b_qf", "b_ff", "fq", "qf", "ff")), 3, 4), (4,), nonzero=True)
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
    gradient-check inputs that would straddle a kink during probing. It
    reads values through ``Tape.value``, so it rebuilds the values the
    forward pass released (``Tape.release``). Call it before the backward
    sweep: the sweep releases the interior values it reads, and
    ``Tape.value`` raises ValueError for one that cannot be rebuilt from
    values still held.
    """
    worst = math.inf
    for i, op in enumerate(tape.ops):
        if op == "max_with_scalar":
            parent = tape.value(tape.parents[i][0])
            thresh = tape.meta[i]
            worst = min(worst, float(np.min(np.abs(parent - thresh))))
        elif op == "dense" and tape.meta[i]:
            *xs, w, b = (tape.value(p) for p in tape.parents[i])
            pre = ad.dense_preactivation(xs, ad.row_blocks(xs, w), b)
            worst = min(worst, float(np.min(np.abs(pre))))
        elif op == "sqrt":
            parent = tape.value(tape.parents[i][0])
            worst = min(worst, float(np.min(np.abs(parent))))
    return worst


def end_to_end_grad_check() -> tuple[float, int]:
    """grad_check of the full policy loss on a 2-user, 2-waveguide instance.

    Subnet widths are reduced so the central-difference sweep stays cheap;
    every op kind of the full pipeline is still exercised. The probe instance
    is conditioned for finite differences: a 2.8 GHz carrier keeps the phase
    curvature resolvable at ``grad_check``'s 1e-5 m-scale steps, and the path
    constant is boosted so the channel Gram term is commensurate with the
    noise floor and the uplink-power branch carries non-vanishing gradients.
    Inputs and parameters are redrawn until all kinked ops sit at least
    ``_KINK_CLEARANCE`` away from their kinks, so the differences never
    straddle one. Returns (worst relative error, tries used).
    """
    carrier = 2.8e9
    eta = 1e4 * SPEED_OF_LIGHT / (2.0 * math.pi * carrier)
    cfg = SystemConfig(n_waveguides=2, n_pinch_per_wg=1, n_users=2,
                       carrier_freq_hz=carrier, path_const_override_m2=eta)
    model = ModelConfig(pbf_layers=2, tbf_layers=2, hidden=6, message_dim=6)
    for attempt in range(_MAX_TRIES):
        ss = np.random.SeedSequence((4242, attempt))
        store = pipeline.init_parameters(cfg, model, ss)
        phi = np.random.default_rng(ss.spawn(1)[0]).uniform(
            0.05 * cfg.D, 0.95 * cfg.D, (2, cfg.K, 2))
        tape = Tape()
        loss_on_tape(tape, phi, store, cfg, model)
        if kink_distance(tape) > _KINK_CLEARANCE:
            break
    else:
        raise RuntimeError("could not find a kink-free probe instance")

    def f(s):
        return loss_on_tape(Tape(), phi, s, cfg, model)

    return grad_check(f, store), attempt + 1


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
