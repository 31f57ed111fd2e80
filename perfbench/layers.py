"""The layers the traced run times, and the per-layer metric names.

Each entry of :data:`SPANS` names one public callable of a layer as
``(span name, defining module, attribute)``; ``Class.method`` attributes
are patched on the class.  Span names follow
``<module under repro>.<callable>``, and every span reports
``<span>.calls``, ``<span>.self_s`` and ``<span>.total_s`` (spans in
:data:`CALLS_ONLY` report ``calls`` alone).

Which end-to-end metric each layer should move, on which workload, is
tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import List, Tuple

SPANS: Tuple[Tuple[str, str, str], ...] = (
    # serving: admission, contention, job sizing
    ("serving.scheduler.submit", "repro.serving.scheduler",
     "OnlineScheduler.submit"),
    ("serving.scheduler.admit_from_queue", "repro.serving.scheduler",
     "OnlineScheduler.admit_from_queue"),
    ("serving.contention.slowdowns", "repro.serving.contention",
     "ContentionModel.slowdowns"),
    ("serving.jobs.resolve_message_sizes", "repro.serving.jobs",
     "JobSpec.resolve_message_sizes"),
    ("models.gradients.allreduce_message_sizes", "repro.models.gradients",
     "allreduce_message_sizes"),
    # fluid solve
    ("simulation.fluid.step_profile", "repro.simulation.fluid",
     "FluidNetworkSimulator.step_profile"),
    ("simulation.fluid.step_time_many", "repro.simulation.fluid",
     "FluidNetworkSimulator.step_time_many"),
    # substrate execution and RWA
    ("core.substrates.execute_many", "repro.core.substrates.base",
     "Substrate.execute_many"),
    ("optical.rwa.assign_wavelengths", "repro.optical.rwa",
     "assign_wavelengths"),
    ("optical.rwa.assign_wavelengths_delta", "repro.optical.rwa",
     "assign_wavelengths_delta"),
    # the paper's planner and cost model
    ("core.comparison.compare_algorithms", "repro.core.comparison",
     "compare_algorithms"),
    ("core.planner.plan_wrht", "repro.core.planner", "plan_wrht"),
    ("core.cost_model.wrht_time", "repro.core.cost_model", "wrht_time"),
    ("collectives.wrht.generate_wrht", "repro.collectives.wrht",
     "generate_wrht"),
    ("topology.ring.RingTopology", "repro.topology.ring",
     "RingTopology.__init__"),
    # strategy co-planner, OCS programs
    ("core.topoplan.strategy_plan_table", "repro.core.topoplan",
     "strategy_plan_table"),
    ("core.topoplan.profile_demands", "repro.core.topoplan",
     "profile_demands"),
    ("core.cost_model.profile_ocs_bound", "repro.core.cost_model",
     "profile_ocs_bound"),
    ("core.substrates.execute_demands",
     "repro.core.substrates.reconfigurable",
     "OCSReconfigurableSubstrate.execute_demands"),
    ("topology.program.synthesize_program", "repro.topology.program",
     "synthesize_program"),
    ("topology.program.decompose_demand", "repro.topology.program",
     "decompose_demand"),
    # the OCS substrate decomposes through its delta solver instead
    ("topology.program.DecompositionDelta.solve", "repro.topology.program",
     "DecompositionDelta.solve"),
    ("models.strategies.lower", "repro.models.strategies",
     "ParallelStrategy.lower"),
)

CALLS_ONLY = frozenset({"models.gradients.allreduce_message_sizes"})

#: Σ wait-queue depth over every ``admit_from_queue`` call.
QUEUE_SCANNED = "serving.scheduler.queue_scanned"

#: Cache kinds of ``repro.core.substrates.registry.cache_stats()``.
CACHE_KINDS: Tuple[str, ...] = ("rwa", "step", "fluid", "compile")

IMPORT_METRIC = "import.repro_cli_s"
OVERHEAD_METRIC = "tracing.overhead_s"


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out: List[Tuple[str, str]] = []
    for span, _, _ in SPANS:
        out.append((f"{span}.calls", "count"))
        if span not in CALLS_ONLY:
            out.append((f"{span}.self_s", "s"))
            out.append((f"{span}.total_s", "s"))
    out.append((QUEUE_SCANNED, "count"))
    for kind in CACHE_KINDS:
        out.append((f"cache.{kind}.hits", "count"))
        out.append((f"cache.{kind}.misses", "count"))
        out.append((f"cache.{kind}.hit_ratio", "ratio"))
    out.append((IMPORT_METRIC, "s"))
    out.append((OVERHEAD_METRIC, "s"))
    return out


def exact_counts(metrics: dict) -> dict:
    """The per-layer values that must repeat exactly for one seed."""
    return {name: metrics[name] for name, unit in per_layer_metrics()
            if unit == "count" and name in metrics}
