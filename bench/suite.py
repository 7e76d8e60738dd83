"""Run every workload over several seeds and report medians and spreads.

Usage (from the repository root)::

    python3 bench/suite.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]
                           [--trace] [--out results.json]

For each workload and end-to-end metric it prints the median, the first
and third quartiles of the per-run values (``statistics.quantiles``, n=4)
and their distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  ``--trace`` adds one traced run per workload and prints
its per-layer metrics.  Every run's notes line (inputs, output digests and
machine context) and result go to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"seconds": args.seconds, "seeds": seeds, "runs": []}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            notes, result = run_once(workload, seed, args.seconds, False)
            record["runs"].append({"notes": notes, "result": result})
            results.append(result)
            ok &= result["correct"] and result["failed"] == 0
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"load {notes['machine']['loadavg_after']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:16s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f} (bound {bound}){flag}")
        if args.trace:
            notes, result = run_once(workload, seeds[0], args.seconds, True)
            record["runs"].append({"notes": notes, "result": result})
            ok &= result["correct"]
            print(f"  traced (seed {seeds[0]}), missing spans: {notes['missing']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:32s} {metric['value']:.6g} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
