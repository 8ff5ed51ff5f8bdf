"""Run every workload over several seeds and record the result.

    python3 perfbench/record.py --label seed --seeds 10
    python3 perfbench/record.py --workloads eval-c5 --seeds 5 --no-trace

Each run is ``run.py`` in a fresh process, one after another, seed by seed
with the workloads in turn, so that every workload's runs spread over the
whole recording and meet the same spells of host speed. For every
end-to-end metric the record holds the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound. Runs flagged as taken under
concurrent load are listed but left out of the statistics. One traced run
per workload adds the per-layer metrics. The record is written to
``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = subprocess.run(
        [sys.executable, "-B", str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    record = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head in ("machine", "summary"):
            record[head] = json.loads(rest)
        elif head == "trace":
            record["closure"] = json.loads(rest.partition(" ")[2])
    return record


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def spread_table(runs: list[dict]) -> tuple[dict, dict]:
    """Statistics of the gated metrics, and of every summary figure."""
    counted = [r for r in runs if not r["machine"]["under_load"]]
    if len(counted) < 2:
        return {}, {}
    gated = {name: {"unit": unit, "better": better, "bound": bound,
                    **quartiles([r["result"]["metrics"][name]["value"] for r in counted])}
             for name, unit, better, bound in metrics.END_TO_END}
    names = counted[0]["summary"]["figures"]
    figures = {name: {"unit": names[name]["unit"],
                      **quartiles([r["summary"]["figures"][name]["value"] for r in counted])}
               for name in names}
    return gated, figures


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="local")
    parser.add_argument("--workloads", default=",".join(workloads.GATED))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)

    doc = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    names = args.workloads.split(",")
    runs: dict[str, list] = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            runs[name].append(run_once(name, seed, args.seconds, trace=False))
            figs = runs[name][-1]["summary"]["figures"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g} {v['unit']}" for k, v in figs.items()), flush=True)
    for name in names:
        gated, figures = spread_table(runs[name])
        entry = {"runs": runs[name], "end_to_end": gated, "figures": figures}
        for metric, row in figures.items():
            line = (f"  {name} {metric}: median {row['median']:.6g} {row['unit']}, "
                    f"quartiles {row['q1']:.6g}..{row['q3']:.6g}, spread {row['spread']:.4f}")
            if metric in gated:
                bound = gated[metric]["bound"]
                line += f" (gated, bound {bound}: " + (
                    "ok)" if row["spread"] < bound / 3 else
                    "over a third of it)" if row["spread"] < bound else "WIDER)")
            print(line, flush=True)
        if not args.no_trace:
            traced = run_once(name, args.first_seed, args.seconds, trace=True)
            entry["per_layer"] = traced["result"]["metrics"]
            entry["traced_machine"] = traced["machine"]
            entry["trace_closure"] = traced["closure"]
        doc["workloads"][name] = entry
        doc["machine"] = runs[name][-1]["machine"]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
