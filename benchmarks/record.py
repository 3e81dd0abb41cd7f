"""Repeat the benchmark over seeds and record a point of the trajectory.

    python3 benchmarks/record.py [--out benchmarks/BENCH_<n>.json]

Runs ``run.py`` untraced on every workload of BENCHMARK.json with seeds
1 to RUNS, and reports for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their spread as a
share of the median, next to the metric's bound and a third of it; it
also records the raw pass time and each experiment's time from the
``detail`` line, and every run's artifact digests. Then it adds one
traced run per workload (seed 1). With ``--out`` it writes everything
as JSON. Every record is made the same way, so records compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("env ", "digest ", "detail "))}
    return {"seed": seed, "env": tagged.get("env", {}),
            "digest": tagged.get("digest", {}),
            "detail": tagged.get("detail", {}), **result}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(1, RUNS + 1)]
        record.setdefault("env", {k: v for k, v in runs[0]["env"].items()
                                  if k not in ("workload", "seed")})
        entry = {"seeds": [r["seed"] for r in runs],
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "digests": {str(r["seed"]): r["digest"] for r in runs},
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"{workload:8s} {name:12s} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} bound {bound} "
                  f"(a third: {bound / 3:.3f}) {flag}", flush=True)
        # raw times, not gated: see wall_rel in run.py
        entry["wall_s"] = summarize([r["detail"]["wall_s"] for r in runs])
        entry["experiment_s"] = {
            label: summarize([r["detail"]["experiment_s"][label] for r in runs])
            for label in runs[0]["detail"]["experiment_s"]}
        print(f"{workload:8s} failed {entry['failed']} of {entry['attempted']}",
              flush=True)
        traced = run_once(workload, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
