"""Benchmark of pinchbeam: one workload, one process, one result line.

    python3 perfbench/run.py --workload train-c5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (imports, config, parameter init, inputs, warm-up) is measured first,
then operations run in a closed loop for ``--seconds``, each output checked.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, in which untraced and traced operations alternate so that the
two measure the tracing overhead under the same host conditions.
Lines before it are the machine record and, untraced, a summary of every
end-to-end figure under the names the workload's users know (the gated
metrics are a subset). Exit code 2 means no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import metrics
import spans

# Set-up time counts from here, before numpy and the program are imported.
START = time.perf_counter()

# Set-up is measured in this process and in this many fresh ones, started
# one after each of as many equal parts of the timed loop, so that they
# sample the same spells of host speed as the operations do; the median of
# them is setup_s.
SETUP_CHILDREN = 6


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def malloc_tuning_in_effect() -> bool | None:
    """Whether the program's allocator tuning ran in this process (None: no such module)."""
    mod = sys.modules.get("pinchbeam._alloc")
    return None if mod is None else bool(getattr(mod, "_done", False))


def cpu_snapshot() -> tuple[float, float, float, float]:
    """(wall s, busy CPU s of the machine, stolen CPU s, CPU s of this process tree)."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    hz = os.sysconf("SC_CLK_TCK")
    own = sum(getattr(resource.getrusage(who), field)
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
              for field in ("ru_utime", "ru_stime"))
    return (time.perf_counter(), (user + nice + system + irq + softirq) / hz,
            steal / hz, own)


def other_load(before: tuple, after: tuple) -> dict:
    """CPUs kept busy by other processes, and stolen by the hypervisor, on
    average over the run. The load average cannot tell these apart from
    this process's own BLAS threads or from the previous run's."""
    wall = after[0] - before[0]
    return {"other_cpus": ((after[1] - before[1]) - (after[3] - before[3])) / wall,
            "stolen_cpus": (after[2] - before[2]) / wall}


# A run during which other processes, or the hypervisor's other guests, held
# a quarter of a CPU or more does not count. Undisturbed runs read about 0.02
# CPUs of other processes and 0.06-0.11 stolen.
LOAD_LIMIT_CPUS = 0.25


def drive(run, seconds: float, first: int = 0) -> list[float]:
    """Closed loop for ``seconds``: an operation, then the check of its output.

    Operations are numbered from ``first``. Returns their times in ms.
    """
    times: list[float] = []
    end = time.perf_counter() + seconds
    i = first
    while not times or time.perf_counter() < end:
        times.append(run.op(i, None))
        run.check(i)
        i += 1
    return times


class TracedRun:
    """Spans around the program's public functions, folded per operation.

    Spans are kept per scope: "op" holds those under the operation's root
    span, "check" those under the root span of its output check.
    """

    def __init__(self, pb):
        self.pb = pb
        self.tracer = spans.Tracer()
        self.patches = spans.Patches()
        self.scopes: dict[str, tuple[dict, dict]] = {"op": ({}, {}), "check": ({}, {})}
        # Self times are non-negative and sum to their root span; the worst
        # departure seen shows that the accounting holds.
        self.closure = {"worst_error_s": 0.0, "min_self_s": float("inf")}

    def install(self) -> None:
        for module, attr, name, tape_arg, count_ops in metrics.TRACED:
            fn = getattr(getattr(self.pb, module), attr, None)
            if fn is not None:
                label = name or _layer_label(module)
                self.patches.replace(fn, self.tracer.wrap(fn, label, tape_arg, count_ops))

    def traced_op(self, run, i: int) -> float:
        """``run.op(i)`` in a root span "op" and its check in one named "check".

        The wrappers are in place only for these two calls, so untraced
        operations run the program's own functions.
        """
        self.install()
        self.tracer.active = True
        try:
            ms = self.tracer.wrap(lambda: run.op(i, self.tracer), "op")()
            self.fold("op")
            self.tracer.wrap(lambda: run.check(i), "check")()
            self.fold("check")
        finally:
            self.tracer.active = False
            self.patches.restore()
        return ms

    def drive(self, run, seconds: float) -> tuple[list[float], list[float]]:
        """Closed loop for ``seconds`` alternating an untraced operation and
        a traced one, each followed by its check; returns both op times (ms)."""
        plain: list[float] = []
        traced: list[float] = []
        end = time.perf_counter() + seconds
        i = 0
        while not traced or time.perf_counter() < end:
            if i % 2 == 0:
                plain.append(run.op(i, None))
                run.check(i)
            else:
                traced.append(self.traced_op(run, i))
            i += 1
        return plain, traced

    def fold(self, scope: str) -> None:
        """Add the spans recorded since the last fold to the totals of ``scope``."""
        op_spans, op_counts = self.tracer.take()
        own = spans.self_times(op_spans)
        for root in (j for j, s in enumerate(op_spans) if s[3] < 0):
            duration = op_spans[root][2] - op_spans[root][1]
            covered = sum(own[j] for j in _subtree(op_spans, root))
            self.closure["worst_error_s"] = max(self.closure["worst_error_s"],
                                                abs(covered - duration))
        self.closure["min_self_s"] = min([self.closure["min_self_s"]] + own)
        summary, counts = self.scopes[scope]
        for name, row in spans.summarize(op_spans).items():
            acc = summary.setdefault(name, [0, 0.0, 0.0])
            for x, v in enumerate(row):
                acc[x] += v
        for key, v in op_counts.items():
            counts[key] = counts.get(key, 0) + v


def _layer_label(module: str):
    def label(args, kwargs):
        prefix = args[3] if len(args) > 3 else kwargs["prefix"]
        return f"{module}.{prefix.rsplit('.', 1)[-1]}"
    return label


def _subtree(op_spans: list, root: int) -> list[int]:
    """Indices of ``root`` and every span below it (children follow parents)."""
    inside = {root}
    for j in range(root + 1, len(op_spans)):
        if op_spans[j][3] in inside:
            inside.add(j)
    return sorted(inside)


def measure(spec, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
            setup_child=None) -> dict:
    """Set up and run one workload in this process; returns the raw result.

    ``import_s`` is the time already spent importing numpy and the program,
    which belongs to set-up. ``setup_child``, if given, returns the set-up
    time of a fresh process; untraced, it is called after each of
    SETUP_CHILDREN equal parts of the timed loop.
    """
    import workloads

    pb = workloads.load_program()
    run = workloads.RUNS[spec.kind](spec, seed, pb)
    result = {"workload": spec.name, "seed": seed}
    if not trace:
        t0 = time.perf_counter()
        run.setup()
        result["setup_s"] = [import_s + time.perf_counter() - t0]
        parts = SETUP_CHILDREN if setup_child else 1
        result["op_ms"] = []
        for _ in range(parts):
            result["op_ms"] += drive(run, seconds / parts, len(result["op_ms"]))
            if setup_child:
                result["setup_s"].append(setup_child())
    else:
        traced = TracedRun(pb)
        traced.install()
        run.setup()
        setup_summary = spans.summarize(traced.tracer.take()[0])
        traced.patches.restore()
        plain, with_spans = traced.drive(run, seconds)
        ratio = statistics.median(with_spans) / statistics.median(plain)
        result["per_layer"] = metrics.per_layer(traced.scopes, len(with_spans),
                                                setup_summary, ratio)
        result["closure"] = traced.closure
        result["op_ms"] = plain + with_spans
    result["peak_rss_mb"] = peak_rss_mb()
    result["samples_per_s"] = run.samples / run.busy_s
    result["baseline_samples_per_s"] = (run.baseline_samples / run.baseline_s
                                        if spec.kind == "eval" else None)
    result["train_mean_se"] = run.finish(quality=not trace)
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    result["failures"] = run.failures
    result["malloc_tuned"] = malloc_tuning_in_effect()
    return result


def figures(spec, result: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure of the run, under the names its users know.

    The gated metrics of ``metrics.END_TO_END`` are a subset, under
    workload-neutral names; the rest are reported for people and records.
    """
    times = result["op_ms"]
    p50, p75, p90 = (percentile(times, q) for q in (50, 75, 90))
    out = {"setup_s": (setup_s, "s")}
    if spec.kind == "train":
        out.update(step_ms_p50=(p50, "ms"), step_ms_p75=(p75, "ms"), step_ms_p90=(p90, "ms"),
                   train_samples_per_s=(result["samples_per_s"], "1/s"),
                   train_mean_se=(result["train_mean_se"], "bit/s/Hz"))
    elif spec.kind == "infer":
        out.update(latency_ms_p50=(p50, "ms"), latency_ms_p75=(p75, "ms"),
                   latency_ms_p90=(p90, "ms"))
    else:
        out.update(chunk_ms_p50=(p50, "ms"), chunk_ms_p75=(p75, "ms"), chunk_ms_p90=(p90, "ms"),
                   eval_samples_per_s=(result["samples_per_s"], "1/s"),
                   baseline_samples_per_s=(result["baseline_samples_per_s"], "1/s"))
    out.update(op_ms_p50=(p50, "ms"), op_ms_p75=(p75, "ms"), op_ms_p90=(p90, "ms"),
               operations=(len(times), "count"),
               peak_rss_mb=(result["peak_rss_mb"], "MB"),
               error_rate=(result["failed"] / result["attempted"], "ratio"))
    return out


def end_to_end(all_figures: dict) -> dict:
    return {name: {"value": all_figures[name][0], "unit": unit}
            for name, unit, _, _ in metrics.END_TO_END}


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True

    import workloads  # imported here: numpy's import time belongs to set-up
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    try:
        pb = workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    if args.setup_only:
        workloads.RUNS[spec.kind](spec, args.seed, pb).setup()
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0

    load_before = os.getloadavg()
    cpu_before = cpu_snapshot()
    result = measure(spec, args.seed, args.seconds, bool(args.trace), import_s,
                     lambda: setup_in_child(spec.name, args.seed))
    load = other_load(cpu_before, cpu_snapshot())

    record = machine_record()
    record.update(load_before=load_before, load_after=os.getloadavg(), **load,
                  under_load=max(load.values()) >= LOAD_LIMIT_CPUS,
                  malloc_tuned=result["malloc_tuned"])
    print("machine " + json.dumps(record))
    if record["under_load"]:
        print("warning: other work was running; this run does not count", file=sys.stderr)
    if result["failures"]:
        print("failures " + json.dumps(result["failures"]))
    if args.trace:
        metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        print("trace closure " + json.dumps(result["closure"]))
    else:
        all_figures = figures(spec, result, statistics.median(result["setup_s"]))
        print("summary " + json.dumps({"workload": spec.name, "seed": args.seed, "figures": {
            k: {"value": v, "unit": u} for k, (v, u) in all_figures.items()}}))
        metrics_out = end_to_end(all_figures)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
