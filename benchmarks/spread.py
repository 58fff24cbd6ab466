#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads small_sweep,wide_ring1024 --seeds 0-9

For every workload and metric it prints the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, beside the metric's bound in
``BENCHMARK.json``.  ``--out`` also writes these figures as JSON, with the
provenance of each workload's first run.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary, provenance = {}, {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
            provenance.setdefault(workload, {"seed": seed, **detail["provenance"]})
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            speed = detail["raw"].get("host_speed")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + ("" if speed is None else f"  (host speed {speed:.3f})"), flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[workload][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds.get(name), "runs": len(values),
            }
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {workload:16s} {name:34s} median {med:.6g}  spread {spread:.4f}{mark}")
    if args.out:
        doc = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "metrics": summary, "provenance": provenance}
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
