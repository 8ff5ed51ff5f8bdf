"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and units;
``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

# (name, unit, better, bound). Every workload reports each of these; what
# one "operation" is differs by workload (see README.md). The timing is the
# 75th percentile: on a shared host the CPUs switch for seconds at a time
# between a slow speed and one about 1.45x faster, and bursts of contention
# slow a tenth of a run further. The median jumps between the two speeds
# when a run spends about half its time at each, the 90th percentile follows
# the bursts; the 75th percentile stays at the slow speed unless three
# quarters of a run went fast.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p75", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# The ten op kinds with the most time on the tape; everything else is
# reported together as "other".
OP_KINDS = ("matmul", "add", "sub", "mul", "concat", "broadcast_to", "sum_axis",
            "max_with_scalar", "solve", "reshape")

# Primitives of pinchbeam.autodiff whose function name equals the op kind
# they push; their forward calls are traced.
FORWARD_PRIMITIVES = OP_KINDS + (
    "div", "scalar_scale", "transpose", "slice_axis", "mean_axis", "sigmoid",
    "tanh", "softplus", "log", "log1p", "square", "sqrt", "sin", "cos",
    "complex_abs2")

# Traced spans: (module, function, span name, tape argument index or None,
# count op kinds). A span name of None takes "<layer>.layer<i>" from the
# function's ``prefix`` argument.
TRACED = (
    ("pipeline", "forward_on_tape", "pipeline.forward", 0, True),
    ("pipeline", "effective_channel_on_tape", "pipeline.channel", None, False),
    ("pipeline", "se_on_tape", "pipeline.se", None, False),
    ("pipeline", "policy_forward", "training.policy", None, False),
    ("placement_gnn", "pbf_forward", "placement_gnn.forward", 0, False),
    ("placement_gnn", "pbf_layer", None, None, False),
    ("placement_gnn", "output_actions", "placement_gnn.output_actions", None, False),
    ("precoder_gnn", "tbf_forward", "precoder_gnn.forward", None, False),
    ("precoder_gnn", "tbf_layer", None, None, False),
    ("precoder_gnn", "recover_precoder", "precoder_gnn.recover", None, False),
    ("precoder_gnn", "input_scale", "precoder_gnn.input_scale", None, False),
    ("cplx", "solve", "cplx.solve", None, False),
    ("autodiff", "backward_into", "autodiff.backward", None, False),
    ("autodiff", "adam_step", "autodiff.adam", None, False),
    ("training", "loss_on_tape", "training.loss", None, False),
    ("training", "reference_se", "training.reference_se", None, False),
    ("physics", "compute_channel", "physics.compute_channel", None, False),
    ("physics", "build_pinching_matrix", "physics.pinching", None, False),
    ("physics", "effective_channel", "physics.effective_channel", None, False),
    ("physics", "compute_se", "physics.compute_se", None, False),
    ("baselines", "baseline_closest_user", "baselines.closest_user", None, False),
    ("baselines", "zero_forcing", "baselines.zero_forcing", None, False),
) + tuple(("autodiff", op, "autodiff.fwd." + op, None, False)
          for op in FORWARD_PRIMITIVES)

# Per-layer metrics: (name, unit, how, span or counter). "op_ms" is
# inclusive span time per workload operation, "self_ms" the same for self
# time, "call_ms" inclusive time per call, "calls" calls per operation,
# "setup_ms" total inclusive time during set-up, and "tape_nodes" /
# "tape_mb" nodes and bytes pushed per call of the span.
_LAYERS = (
    ("placement_gnn.forward_ms", "ms", "op_ms", "placement_gnn.forward"),
    ("placement_gnn.layer1_ms", "ms", "op_ms", "placement_gnn.layer1"),
    ("placement_gnn.layer2_ms", "ms", "op_ms", "placement_gnn.layer2"),
    ("placement_gnn.layer3_ms", "ms", "op_ms", "placement_gnn.layer3"),
    ("placement_gnn.output_actions_ms", "ms", "op_ms", "placement_gnn.output_actions"),
    ("placement_gnn.tape_nodes", "count", "tape_nodes", "placement_gnn.forward"),
    ("placement_gnn.tape_mb", "MB", "tape_mb", "placement_gnn.forward"),
    ("pipeline.forward_ms", "ms", "op_ms", "pipeline.forward"),
    ("pipeline.channel_ms", "ms", "op_ms", "pipeline.channel"),
    ("pipeline.se_ms", "ms", "op_ms", "pipeline.se"),
    ("precoder_gnn.forward_ms", "ms", "op_ms", "precoder_gnn.forward"),
    ("precoder_gnn.layer1_ms", "ms", "op_ms", "precoder_gnn.layer1"),
    ("precoder_gnn.layer2_ms", "ms", "op_ms", "precoder_gnn.layer2"),
    ("precoder_gnn.layer3_ms", "ms", "op_ms", "precoder_gnn.layer3"),
    ("precoder_gnn.recover_ms", "ms", "op_ms", "precoder_gnn.recover"),
    ("precoder_gnn.input_scale_ms", "ms", "setup_ms", "precoder_gnn.input_scale"),
    ("cplx.solve_ms", "ms", "op_ms", "cplx.solve"),
    ("autodiff.backward_ms", "ms", "op_ms", "autodiff.backward"),
    ("autodiff.backward_self_ms", "ms", "self_ms", "autodiff.backward"),
    ("autodiff.adam_ms", "ms", "op_ms", "autodiff.adam"),
    ("autodiff.tape_nodes", "count", "tape_nodes", "pipeline.forward"),
    ("autodiff.tape_mb", "MB", "tape_mb", "pipeline.forward"),
)
_OPS = tuple(
    row for op in OP_KINDS + ("other",) for row in (
        (f"autodiff.nodes.{op}", "count", "op_nodes", op),
        (f"autodiff.fwd_ms.{op}", "ms", "op_ms", "autodiff.fwd." + op),
        (f"autodiff.bwd_ms.{op}", "ms", "op_ms", "autodiff.bwd." + op)))
_CALLERS = (
    ("training.loss_ms", "ms", "op_ms", "training.loss"),
    ("training.policy_ms", "ms", "call_ms", "training.policy"),
    ("training.reference_se_ms", "ms", "call_ms", "training.reference_se"),
    ("physics.compute_channel_ms", "ms", "op_ms", "physics.compute_channel"),
    ("physics.pinching_ms", "ms", "op_ms", "physics.pinching"),
    ("physics.effective_channel_ms", "ms", "op_ms", "physics.effective_channel"),
    ("physics.compute_se_ms", "ms", "op_ms", "physics.compute_se"),
    ("physics.compute_channel_calls", "count", "calls", "physics.compute_channel"),
    ("physics.pinching_calls", "count", "calls", "physics.pinching"),
    ("physics.effective_channel_calls", "count", "calls", "physics.effective_channel"),
    ("physics.compute_se_calls", "count", "calls", "physics.compute_se"),
    ("baselines.closest_user_ms", "ms", "op_ms", "baselines.closest_user"),
    ("baselines.zero_forcing_ms", "ms", "op_ms", "baselines.zero_forcing"),
    ("baselines.closest_user_calls", "count", "calls", "baselines.closest_user"),
    ("baselines.zero_forcing_calls", "count", "calls", "baselines.zero_forcing"),
    ("trace.unattributed_ms", "ms", "self_ms", "op"),
    ("trace.overhead_ratio", "ratio", "overhead", None),
)
PER_LAYER = _LAYERS + _OPS + _CALLERS

# Spans whose metrics count the operation's output check as well as the
# operation: on train-* and infer-c7 the reference SE, the physics path
# under it and (at M = 1) the baseline run only in the check.
WITH_CHECK = ("training.policy", "training.reference_se", "physics.", "baselines.")


def _merge(a: dict, b: dict) -> dict:
    """Sum of two span summaries."""
    out = {k: list(v) for k, v in a.items()}
    for k, row in b.items():
        acc = out.setdefault(k, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    return out


def _fold_other(summary: dict, counts: dict) -> tuple[dict, dict]:
    """Merge op kinds outside OP_KINDS into the kind "other"."""
    summary = {k: list(v) for k, v in summary.items()}
    counts = dict(counts)
    for key in [k for k in summary if k.startswith(("autodiff.fwd.", "autodiff.bwd."))]:
        prefix, op = key.rsplit(".", 1)
        if op not in OP_KINDS:
            row = summary.setdefault(prefix + ".other", [0, 0.0, 0.0])
            for i, v in enumerate(summary.pop(key)):
                row[i] += v
    for key in [k for k in counts if k.startswith("op.")]:
        if key == "op.const":  # leaves (inputs, parameters) run no op
            counts.pop(key)
        elif key[3:] not in OP_KINDS:
            counts["op.other"] = counts.get("op.other", 0) + counts.pop(key)
    return summary, counts


def per_layer(scopes: dict[str, tuple[dict, dict]], n_ops: int, setup_summary: dict,
              overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metric values from traced spans.

    ``scopes`` maps "op" and "check" to (summary, counts) over ``n_ops``
    traced operations and their checks: the summary maps span name to
    [calls, inclusive s, self s], the counts hold the tape counters of those
    spans. A layer the workload never calls reports 0.
    """
    summary, counts = _fold_other(*scopes["op"])
    both = _merge(scopes["op"][0], scopes["check"][0])
    forwards = summary.get("pipeline.forward", [0])[0]
    out = {}
    for name, unit, how, key in PER_LAYER:
        source = both if key and key.startswith(WITH_CHECK) else summary
        calls, incl, own = source.get(key, (0, 0.0, 0.0))
        if how == "op_ms":
            value = 1e3 * incl / n_ops
        elif how == "self_ms":
            value = 1e3 * own / n_ops
        elif how == "call_ms":
            value = 1e3 * incl / calls if calls else 0.0
        elif how == "calls":
            value = calls / n_ops
        elif how == "setup_ms":
            value = 1e3 * setup_summary.get(key, (0, 0.0, 0.0))[1]
        elif how == "tape_nodes":
            value = counts.get(key + ".nodes", 0) / calls if calls else 0.0
        elif how == "tape_mb":
            value = counts.get(key + ".bytes", 0) / 1e6 / calls if calls else 0.0
        elif how == "op_nodes":
            value = counts.get("op." + key, 0) / forwards if forwards else 0.0
        else:
            value = overhead_ratio
        out[name] = (float(value), unit)
    return out
