"""The benchmark's four workloads.

Each workload drives the public entry point a user command calls:

* ``paper_headline`` — ``repro headline``: ``figure2`` +
  ``headline_reductions`` over the paper grid (4 models x N = 128..1024,
  analytic fidelity);
* ``serve_overload`` / ``serve_steady`` — ``repro serve``:
  ``poisson_traffic`` into ``ServingEngine.run`` on a 32-node fabric;
* ``plan_coplan`` — ``repro plan --nodes 16 --strategy auto --model M``
  for the four paper models, one after another, through
  ``repro.cli.main`` in-process.

A workload's input for one seed has :attr:`Workload.parts` parts, each
measured in its own run: the serving workloads replay
``SERVE_STREAMS`` independent streams (stream ``seed * SERVE_STREAMS +
part``), so one seed's figures do not hang on one stream's job mix.
A run has four phases.  :meth:`Workload.setup` builds the part's inputs
(timed as set-up), :meth:`Workload.run` is the timed work,
:meth:`Workload.check` returns how many of the run's operations failed
a correctness check and why, and :meth:`Workload.outcomes` returns the
simulated results plus a digest of every simulated number, so a change
that only speeds the simulator up can show its outputs are identical.

This module imports nothing heavy at import time, so the worker times
``import repro.cli`` (with NumPy) on its own and the parent reads the
operation counts for free.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import traceback
from typing import Any, Dict, List, Sequence, Tuple

#: The serving streams: streams per seed, jobs per stream, fabric size,
#: job widths.
SERVE_STREAMS = 3
SERVE_JOBS = 4000
SERVE_CAPACITY = 32
SERVE_NODE_CHOICES = (4, 8, 16)

#: Tolerances of the paper's headline aggregates (the headline bench's).
HEADLINE_TOL = {"electrical": 0.05, "optical": 0.03}

#: Relative float slack for the JCT >= steps x step_time identity
#: (fluid progress stops within _STEP_EPS = 1e-9 steps of the end).
JCT_REL_SLACK = 1e-8


def _digest(parts: Sequence[Any]) -> str:
    """SHA-256 over the ``repr`` of every part (floats round-trip)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    """One named workload (see the module docstring)."""

    name = ""
    #: Operations attempted per run (jobs, grid points or requests).
    ops = 1
    #: Independent inputs per seed, one run each.
    parts = 1

    def setup(self, seed: int, part: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, result: Any) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def outcomes(self, state: Any, result: Any) -> Dict[str, Any]:
        """``times``: simulated time of each completed operation;
        ``span``: simulated seconds those operations took together;
        ``extra``: further outcomes; ``digest``: of every simulated
        number."""
        raise NotImplementedError


class PaperHeadline(Workload):
    """The paper's result.  The grid is fixed; the seed is unused."""

    name = "paper_headline"
    ops = 16

    def setup(self, seed: int, part: int) -> Any:
        from repro.analysis.figure2 import PAPER_MODELS, PAPER_SCALES
        return {"models": PAPER_MODELS, "scales": PAPER_SCALES}

    def run(self, state: Any) -> Any:
        from repro.analysis.figure2 import figure2
        from repro.analysis.headline import headline_reductions
        # headline_reductions() builds exactly these panels itself; build
        # them here so the per-point WRHT times are visible too.
        panels = figure2(models=state["models"], scales=state["scales"])
        return panels, headline_reductions(panels=panels)

    def check(self, state: Any, result: Any) -> Tuple[int, List[str]]:
        _, head = result
        problems = []
        elec = abs(head.electrical_reduction - head.PAPER_ELECTRICAL)
        opt = abs(head.optical_reduction - head.PAPER_OPTICAL)
        if not elec < HEADLINE_TOL["electrical"]:
            problems.append(f"electrical reduction off by {elec:.4f}")
        if not opt < HEADLINE_TOL["optical"]:
            problems.append(f"optical reduction off by {opt:.4f}")
        points = {(m, n) for m, n, _, _ in head.per_point}
        if len(points) != self.ops:
            problems.append(f"{len(points)} grid points, expected "
                            f"{self.ops}")
        if problems:
            return self.ops, problems
        losing = sorted({(m, n) for m, n, _, red in head.per_point
                         if not red > 0})
        problems += [f"WRHT does not beat every baseline at {m} N={n}"
                     for m, n in losing]
        return len(losing), problems

    def outcomes(self, state: Any, result: Any) -> Dict[str, Any]:
        panels, head = result
        wrht = [t for p in panels.values() for t in p.times["wrht"]]
        gap = max(abs(head.electrical_reduction - head.PAPER_ELECTRICAL),
                  abs(head.optical_reduction - head.PAPER_OPTICAL))
        extra = {"headline_error_pp": 100.0 * gap,
                 "electrical_reduction": head.electrical_reduction,
                 "optical_reduction": head.optical_reduction}
        digest = _digest(
            [(m, a, p.scales, p.times[a]) for m, p in panels.items()
             for a in sorted(p.times)]
            + [head.per_point, head.electrical_reduction,
               head.optical_reduction, head.electrical_pooled_reduction])
        return {"times": wrht, "span": sum(wrht), "extra": extra,
                "digest": digest}


class Serve(Workload):
    """A seeded Poisson job stream through one shared substrate."""

    ops = SERVE_JOBS
    parts = SERVE_STREAMS

    def __init__(self, name: str, substrate: str, rate: float,
                 collective: str = "") -> None:
        self.name = name
        self.substrate = substrate
        self.rate = rate
        self.collective = collective

    def setup(self, seed: int, part: int) -> Any:
        from repro.serving import (ServingEngine, adaptive_policy,
                                   fixed_policy, poisson_traffic)
        jobs = poisson_traffic(num_jobs=SERVE_JOBS, arrival_rate=self.rate,
                               seed=seed * self.parts + part,
                               node_choices=SERVE_NODE_CHOICES)
        collectives = (fixed_policy(self.collective) if self.collective
                       else adaptive_policy())
        engine = ServingEngine(substrate_name=self.substrate,
                               capacity=SERVE_CAPACITY, policy="fifo",
                               placement="contiguous",
                               collectives=collectives)
        return {"jobs": jobs, "engine": engine}

    def run(self, state: Any) -> Any:
        return state["engine"].run(state["jobs"])

    def check(self, state: Any, report: Any) -> Tuple[int, List[str]]:
        jobs = state["jobs"]
        submitted = [j.job_id for j in jobs]
        done = [r.job.job_id for r in report.records]
        failed = [j.job_id for j in report.failed_jobs]
        problems = []
        if len(set(done)) != len(done):
            problems.append("a job completed more than once")
        if sorted(done + failed) != sorted(submitted):
            problems.append(
                f"completed {len(done)} + failed {len(failed)} jobs do not "
                f"match the {len(submitted)} submitted")
        for r in report.records:
            jct = r.completion
            floor = r.job.num_steps * r.step_time
            if not (jct >= r.wait_time
                    and jct >= floor * (1.0 - JCT_REL_SLACK)):
                problems.append(
                    f"job {r.job.job_id}: JCT {jct!r} below wait "
                    f"{r.wait_time!r} or steps x step time {floor!r}")
                break
        times = [t for t, _ in report.queue_samples]
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append("queue-sample times decrease")
        if problems:
            return len(submitted), problems
        return len(submitted) - len(set(done)), problems

    def outcomes(self, state: Any, report: Any) -> Dict[str, Any]:
        head = report.headline()
        extra = {"makespan_s": head["makespan_s"],
                 "max_queue_depth": head["max_queue_depth"],
                 "mean_queue_depth": head["mean_queue_depth"]}
        digest = _digest(
            [(r.job.job_id, r.nodes, r.start_time, r.completion_time,
              r.step_time, r.algorithms, r.attempts)
             for r in report.records]
            + [report.queue_samples, report.algorithm_mix,
               [j.job_id for j in report.failed_jobs]])
        return {"times": [r.completion for r in report.records],
                "span": report.makespan, "extra": extra, "digest": digest}


class PlanCoplan(Workload):
    """``plan --strategy auto`` for the paper models in a seeded order."""

    name = "plan_coplan"
    ops = 4
    NODES = 16

    def setup(self, seed: int, part: int) -> Any:
        import repro.core.topoplan as topoplan
        from repro.analysis.figure2 import PAPER_MODELS
        from repro.cli import main

        models = list(PAPER_MODELS)
        random.Random(seed).shuffle(models)
        # Keep every table the command builds, so the check compares the
        # printed best plan with the command's own search.
        tables: List[Any] = []
        search = topoplan.strategy_plan_table

        def recording(*args, **kwargs):
            table = search(*args, **kwargs)
            tables.append(table)
            return table

        topoplan.strategy_plan_table = recording
        argvs = [["plan", "--nodes", str(self.NODES), "--strategy", "auto",
                  "--model", m] for m in models]
        return {"main": main, "argvs": argvs, "tables": tables}

    def run(self, state: Any) -> Any:
        out = []
        for argv in state["argvs"]:
            first = len(state["tables"])
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = state["main"](argv)
            except Exception:  # one request failing must not end the run
                rc, buf = None, io.StringIO(traceback.format_exc())
            tables = state["tables"][first:]
            out.append((argv[-1], rc, buf.getvalue(),
                        tables[0] if tables else []))
        return out

    def check(self, state: Any, result: Any) -> Tuple[int, List[str]]:
        failed = 0
        problems = []
        for model, rc, text, table in result:
            why = _check_plan(rc, text, table)
            if why:
                failed += 1
                problems.append(f"{model}: {why}")
        return failed, problems

    def outcomes(self, state: Any, result: Any) -> Dict[str, Any]:
        best = [min(p.predicted_time for p in table)
                for _, _, _, table in result if table]
        extra = {"sim_plan_time_s": sum(best)}
        digest = _digest([(model, rc, text,
                           [(p.label, p.predicted_time, p.num_steps)
                            for p in table])
                          for model, rc, text, table in result])
        return {"times": best, "span": sum(best), "extra": extra,
                "digest": digest}


def _check_plan(rc: Any, text: str, table: Sequence[Any]) -> str:
    """Why one ``plan --strategy`` request is wrong ('' when right)."""
    from repro import units

    if rc != 0:
        return f"exit code {rc}: {text.strip()[-200:]}"
    if not table:
        return "the command built no plan table"
    printed = dict(re.findall(r"^  (strategy|fabric|predicted time)\s*: "
                              r"(.*)$", text, flags=re.M))
    best = min(p.predicted_time for p in table)
    if printed.get("predicted time") != units.fmt_time(best):
        return (f"printed time {printed.get('predicted time')!r} is not "
                f"the table minimum {units.fmt_time(best)}")
    if not any(p.predicted_time == best
               and p.strategy.name == printed.get("strategy")
               and p.fabric == printed.get("fabric") for p in table):
        return (f"printed plan {printed.get('strategy')!r} on "
                f"{printed.get('fabric')!r} is not a fastest table entry")
    by_pair: Dict[Tuple[str, str], Dict[str, float]] = {}
    for p in table:
        if p.fabric == "ocs-reconfig":
            by_pair.setdefault((p.strategy.name, p.algorithm),
                               {})[p.policy] = p.predicted_time
    for (strat, algo), times in sorted(by_pair.items()):
        if ("lookahead" in times and "reconfigure" in times
                and not times["lookahead"] <= times["reconfigure"]):
            return (f"lookahead {times['lookahead']!r} > reconfigure "
                    f"{times['reconfigure']!r} for {strat}/{algo}")
    return ""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    PaperHeadline(),
    Serve("serve_overload", "electrical-ring", rate=200.0),
    Serve("serve_steady", "optical-ring", rate=10.0, collective="wrht"),
    PlanCoplan(),
)}
