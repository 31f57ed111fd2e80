"""Check that the benchmark is steady enough for its own bounds.

Runs ``perfbench/run.py`` once per seed and workload and reports,
per workload and end-to-end metric, the spread of the runs — the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — next
to the metric's bound from ``BENCHMARK.json``.  With ``--sets 2`` it
repeats the whole set and also compares the two medians.  With
``--repeat-seeds`` it makes two traced runs of each listed seed and
asserts that every per-layer count (calls, queue scans, cache hits and
misses) is identical between them.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads serve_steady \
        --seeds 0 1 2 3 4 --repeat-seeds 0 7
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import exact_counts  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark invocation's final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--repeat-seeds", type=int, nargs="*", default=[])
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    report: Dict[str, dict] = {}
    for workload in args.workloads:
        medians: List[Dict[str, float]] = []
        for s in range(args.sets):
            runs = [bench(workload, seed, spec["run_seconds"], 0)
                    for seed in args.seeds]
            if not all(r["correct"] for r in runs):
                ok = False
                print(f"{workload}: a run was not correct")
            values = {name: [r["metrics"][name]["value"] for r in runs]
                      for name in metrics}
            medians.append({n: statistics.median(v)
                            for n, v in values.items()})
            print(f"{workload} set {s + 1}: {len(runs)} seeds")
            for name, vals in values.items():
                sp = spread(vals)
                bound = metrics[name]["bound"]
                flag = ("" if name == "setup_s" or sp <= bound / 3
                        else " WITHIN BOUND" if sp <= bound
                        else " OVER BOUND")
                if flag == " OVER BOUND":
                    ok = False
                print(f"  {name:<16} median {medians[-1][name]:.6g}  "
                      f"spread {sp:.4f}  bound {bound}{flag}")
            report.setdefault(workload, {})[f"set{s + 1}"] = values
        if len(medians) == 2:
            for name, m in metrics.items():
                drift = worse_by(medians[0][name], medians[1][name],
                                 m["better"])
                if drift > m["bound"]:
                    ok = False
                print(f"  {name:<16} second median worse by {drift:+.4f} "
                      f"(bound {m['bound']})")
        for seed in args.repeat_seeds:
            first, second = (bench(workload, seed, spec["run_seconds"], 1)
                             for _ in range(2))
            counts = [exact_counts({k: v["value"] for k, v in
                                    r["metrics"].items()})
                      for r in (first, second)]
            same = counts[0] == counts[1]
            ok &= same and first["correct"] and second["correct"]
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            print(f"  traced seed {seed}: counts "
                  f"{'identical' if same else f'DIFFER {diff}'}; overhead "
                  f"{first['metrics']['tracing.overhead_s']['value']:.3f} s"
                  f", {second['metrics']['tracing.overhead_s']['value']:.3f}"
                  f" s")
            report.setdefault(workload, {})[f"counts_seed{seed}"] = counts[0]
    Path(".perfbench_out").mkdir(exist_ok=True)
    Path(".perfbench_out/steadiness.json").write_text(
        json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
