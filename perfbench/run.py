"""The repo benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_steady --seed 0 \
        --seconds 10 --trace 0

Every measured run is a fresh ``perfbench/worker.py`` interpreter under
a watchdog: a run that overruns its deadline (or the memory cap) is
killed and all its operations count as failed — never retried, never
dropped.  With ``--trace 0`` the runs cycle through the parts of the
seed's input (see ``workloads.py``); once every part has run, another
run starts only if a run of typical length still ends within
``--seconds``.  ``wall_s`` is the mean over parts of each part's median
run; the simulated metrics pool every part's operations; set-up is
sampled at least :data:`MIN_SETUP_SAMPLES` times.  ``wall_s`` and
``setup_s`` are rescaled to a nominal host speed by the reference loop
the worker times during the work (see ``worker.py``); the unscaled
times are kept in the detail file.  With ``--trace 1`` one untraced and
one traced run of part 0 give the per-layer metrics, the tracing
overhead, and a Chrome trace-event file.  Details of every run go to
``.perfbench_out/``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import (CACHE_KINDS, CALLS_ONLY, IMPORT_METRIC,  # noqa: E402
                    OVERHEAD_METRIC, QUEUE_SCANNED, SPANS,
                    per_layer_metrics)
from workloads import WORKLOADS  # noqa: E402

#: Deadline of one measured run (the slowest takes ~15 s on 2 cores).
RUN_DEADLINE_S = 75.0
#: Wall-clock budget of the whole invocation (the contract allows 180).
INVOCATION_BUDGET_S = 165.0
#: Fewest set-up samples behind the reported ``setup_s`` median.
MIN_SETUP_SAMPLES = 3
#: Address-space cap per run: a livelocked run that grows without
#: bound fails fast instead of starving the host.
MEMORY_CAP_BYTES = 2 << 30
OUT_DIR = ".perfbench_out"

#: End-to-end metric -> unit, in report order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio", "sim_p50": "sim_s",
              "sim_p99": "sim_s", "sim_total": "sim_s",
              "sim_throughput": "1/sim_s"}


@dataclass
class Child:
    """Outcome of one watched subprocess."""

    returncode: Optional[int]
    timed_out: bool
    elapsed: float
    spawn_epoch: float
    data: Optional[Dict[str, Any]]
    stderr: str = ""
    #: Which part of the seed's input the run measured.
    part: int = 0

    @property
    def setup_s(self) -> Optional[float]:
        """Fresh interpreter to ready, rescaled to the nominal host
        speed, when the child got that far."""
        if self.data is None or "scale" not in self.data:
            return None
        return ((self.data["ready_epoch"] - self.spawn_epoch)
                * self.data["scale"])


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: Sequence[str], deadline: float,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[str] = None) -> Child:
    """Run ``argv`` under the watchdog; kill its process group at
    ``deadline`` seconds and wait for it to end."""
    spawn = time.time()
    start = time.monotonic()
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd,
                            start_new_session=True,
                            preexec_fn=_limit_memory)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(deadline, 0.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_group(proc)
        out, err = proc.communicate()
    except BaseException:  # interrupted: take the child down with us
        _kill_group(proc)
        proc.wait()
        raise
    elapsed = time.monotonic() - start
    data = None
    if not timed_out and proc.returncode == 0:
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            data = json.loads(lines[-1]) if lines else None
        except ValueError:
            data = None
    return Child(returncode=proc.returncode, timed_out=timed_out,
                 elapsed=elapsed, spawn_epoch=spawn, data=data,
                 stderr=err.decode(errors="replace")[-2000:])


def run_failures(child: Child, ops: int) -> int:
    """Operations a measured run failed: all of them unless it finished
    and reported its own count."""
    if child.data is None or "failed" not in child.data:
        return ops
    return int(child.data["failed"])


def run_problems(child: Child) -> List[str]:
    """Why a measured run failed, in words."""
    if child.timed_out:
        return [f"killed by the watchdog after {child.elapsed:.1f} s"]
    if child.data is None or "failed" not in child.data:
        return [f"exited with code {child.returncode}: "
                f"{child.stderr.strip()[-400:]}"]
    return list(child.data.get("problems", []))


@dataclass
class Tally:
    """Failure accounting over the measured runs of one invocation."""

    ops: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: part -> the digests its runs reported.
    digests: Dict[int, List[str]] = field(default_factory=dict)

    def add(self, child: Child) -> None:
        self.attempted += self.ops
        self.failed += run_failures(child, self.ops)
        self.problems += run_problems(child)
        if child.data is not None and "digest" in child.data:
            self.digests.setdefault(child.part, []).append(
                child.data["digest"])

    def finish(self) -> None:
        """Runs of one input must agree on every simulated number."""
        for part, digests in sorted(self.digests.items()):
            if len(set(digests)) > 1:
                self.problems.append(
                    f"simulated outputs of part {part} differ between "
                    f"runs: {sorted(set(digests))}")
                self.failed = self.attempted

    @property
    def digest(self) -> Optional[str]:
        """One digest over every part's simulated outputs."""
        if not self.digests:
            return None
        return hashlib.sha256(" ".join(
            f"{part}:{digests[0]}" for part, digests
            in sorted(self.digests.items())).encode()).hexdigest()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(runs: Sequence[Child], setups: Sequence[float],
               tally: Tally) -> Dict[str, float]:
    """The end-to-end metrics over an invocation's measured runs."""
    walls: Dict[int, List[float]] = {}
    outcomes: Dict[int, Dict[str, Any]] = {}
    for c in runs:
        if c.data and "wall_s" in c.data:
            walls.setdefault(c.part, []).append(c.data["wall_s"])
            if "times" in c.data:
                outcomes.setdefault(c.part, c.data)
        elif c.timed_out:
            walls.setdefault(c.part, []).append(c.elapsed)
    times = [t for d in outcomes.values() for t in d["times"]]
    span = sum(d["span"] for d in outcomes.values())
    return {
        "wall_s": statistics.fmean(_median(w) for w in walls.values())
        if walls else 0.0,
        "setup_s": _median(setups),
        "peak_rss_mb": _median([c.data["peak_rss_mb"] for c in runs
                                if c.data and "peak_rss_mb" in c.data]),
        "success_rate": (1.0 - tally.failed / tally.attempted
                         if tally.attempted else 0.0),
        "sim_p50": percentile(times, 50),
        "sim_p99": percentile(times, 99),
        "sim_total": sum(times),
        "sim_throughput": len(times) / span if span else 0.0,
    }


def per_layer(untraced: Child, traced: Child) -> Dict[str, float]:
    """The per-layer metrics of a traced invocation."""
    data = traced.data or {}
    layers = data.get("layers", {"spans": {}, "counters": {}})
    metrics: Dict[str, float] = {}
    for span, _, _ in SPANS:
        row = layers["spans"].get(span, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0})
        metrics[f"{span}.calls"] = row["calls"]
        if span not in CALLS_ONLY:
            metrics[f"{span}.self_s"] = row["self_s"]
            metrics[f"{span}.total_s"] = row["total_s"]
    metrics[QUEUE_SCANNED] = layers["counters"].get(QUEUE_SCANNED, 0)
    caches = data.get("caches", {})
    for kind in CACHE_KINDS:
        row = caches.get(kind, {"hits": 0, "misses": 0, "hit_rate": 0.0})
        metrics[f"cache.{kind}.hits"] = row["hits"]
        metrics[f"cache.{kind}.misses"] = row["misses"]
        metrics[f"cache.{kind}.hit_ratio"] = row["hit_rate"]
    metrics[IMPORT_METRIC] = data.get("import_s", 0.0)
    # Unscaled: the traced run takes no host-speed samples during its
    # work (see worker.py), so its scale is only a rough one.
    untraced_wall = (untraced.data or {}).get("wall_raw_s",
                                              untraced.elapsed)
    metrics[OVERHEAD_METRIC] = data.get("wall_raw_s", traced.elapsed) \
        - untraced_wall
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Terminating the benchmark unwinds through run_child, which kills
    # the measured run's process group before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run "
              f"from the repository root", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # One BLAS thread: the workloads are pure-Python bound, and extra
    # threads only add scheduling noise on a small host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    workload = WORKLOADS[args.workload]
    worker = [sys.executable, str(HERE / "worker.py"), "--workload",
              args.workload, "--seed", str(args.seed)]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    begin = time.monotonic()

    def remaining() -> float:
        return INVOCATION_BUDGET_S - (time.monotonic() - begin)

    def watch(mode: List[str], part: int = 0,
              cap: float = RUN_DEADLINE_S) -> Child:
        child = run_child(worker + ["--part", str(part)] + mode,
                          min(cap, remaining()), env=env, cwd=str(root))
        child.part = part
        return child

    # Untimed warm-up: compiles bytecode and proves the program imports.
    warm = watch(["--mode", "setup"])
    if warm.data is None:
        print(f"perfbench: set-up failed: {run_problems(warm)}",
              file=sys.stderr)
        return 3

    tally = Tally(ops=workload.ops)
    runs: List[Child] = []
    if args.trace:
        trace_file = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        runs.append(watch(["--mode", "run"]))
        runs.append(watch(["--mode", "trace", "--trace-out",
                           str(trace_file)]))
        for child in runs:
            tally.add(child)
        tally.finish()
        metrics = per_layer(runs[0], runs[1])
        print(f"trace: {trace_file}")
    else:
        measuring = time.monotonic()
        while remaining() > 0:
            spent = time.monotonic() - measuring
            if (len(runs) >= workload.parts and spent + _median(
                    [c.elapsed for c in runs]) > args.seconds):
                break
            child = watch(["--mode", "run"], len(runs) % workload.parts)
            runs.append(child)
            tally.add(child)
        setups = [c.setup_s for c in runs if c.setup_s is not None]
        while len(setups) < MIN_SETUP_SAMPLES and remaining() > 0:
            probe = watch(["--mode", "setup"], cap=30.0)
            if probe.setup_s is None:
                tally.problems += ["set-up probe: "
                                   + "; ".join(run_problems(probe))]
                break
            setups.append(probe.setup_s)
        tally.finish()
        metrics = end_to_end(runs, setups, tally)

    units = dict(per_layer_metrics()) if args.trace else END_TO_END
    extra: Dict[str, Any] = {}
    for c in runs:
        for key, value in ((c.data or {}).get("extra") or {}).items():
            extra.setdefault(f"part{c.part}.{key}"
                             if workload.parts > 1 else key, value)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "metrics": metrics,
              "problems": tally.problems, "digest": tally.digest,
              "extra": extra,
              "runs": [{"part": c.part, "elapsed": c.elapsed,
                        "timed_out": c.timed_out,
                        "returncode": c.returncode,
                        **{k: v for k, v in (c.data or {}).items()
                           if k not in ("layers", "times")}}
                       for c in runs]}
    detail_file = out_dir / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    detail_file.write_text(json.dumps(detail, indent=1))

    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"runs: {len(runs)}  digest: {detail['digest']}")
    raw = [c.data["wall_raw_s"] for c in runs
           if c.data and "wall_raw_s" in c.data]
    if raw:
        print(f"unscaled wall_s median = {_median(raw)!r} s")
    for key, value in sorted(extra.items()):
        print(f"outcome {key} = {value!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"detail: {detail_file}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
