"""Stability self-check: run each workload repeatedly on an unchanged tree
and report, per end-to-end metric, the median, the quartiles and whether
the spread fits the metric's bound in BENCHMARK.json.

    python3 bench/stability.py                  # seeds 1..10
    python3 bench/stability.py --seed-base 9001  # seeds 9001..9010

Every workload in BENCHMARK.json runs 10 times for its ``run_seconds``;
run i uses seed ``seed-base + i``. The spread is (Q3 - Q1) / median with
the quartiles of ``statistics.quantiles(values, n=4)``. ``fits`` means the
spread is within the bound; ``steady`` means it is below a third of it.
The check passes when every run is correct and every metric fits. The
summary, with the environment of the first run, is written to
``.bench_work/stability.json``.
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


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "fits": spread <= bound, "steady": spread < bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args(argv)

    summary = {"runs": RUNS, "seed_base": args.seed_base,
               "seconds": seconds, "env": None, "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        correct = True
        for i in range(RUNS):
            result, env = run_once(workload, args.seed_base + i, seconds)
            summary["env"] = summary["env"] or env
            correct &= result["correct"] and result["failed"] == 0
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {args.seed_base + i}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        table = {m["name"]: summarize(values[m["name"]], m["bound"])
                 for m in spec["end_to_end"]}
        summary["workloads"][workload] = {"correct": correct, "metrics": table,
                                          "values": values}
        print(f"\n{workload}: all runs correct = {correct}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  fits  steady")
        for name, s in table.items():
            print(f"  {name:16s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {s['bound']:6.3f}  "
                  f"{'yes' if s['fits'] else 'NO':4s}  "
                  f"{'yes' if s['steady'] else 'no'}")
            all_ok &= s["fits"]
        all_ok &= correct
        print(flush=True)
    out = ROOT / ".bench_work" / "stability.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
