"""Inter-job contention through the shared fluid engine.

Concurrent jobs do not time-slice the fabric — their transfers coexist
on it.  The contention model makes that literal: every running job
contributes its *representative flows* (the transfers of its heaviest
schedule step, re-based to its placement), and max-min fair sharing on
the shared links yields, per job, the ratio of its contended finish
time to its solo finish time — the *slowdown* the serving engine
stretches that job's step time by for as long as the concurrency set
holds.

Max-min fair sharing splits exactly over the connected components of
the flow–link graph: flows that share no link (directly or through a
chain of other flows) never change each other's rates.  So each epoch
groups the running jobs by the links their flows route over (a
union-find over link → owning job) and solves only where jobs really
meet:

* a job that shares no link with another job gets exactly 1.0, with no
  fluid solve at all — a lone job, any job on the switch star (per-host
  up/down links), and every job of a contiguous ring placement whose
  shortest paths stay inside its own arc;
* each component of two or more jobs is solved as one
  :meth:`~repro.simulation.fluid.FluidNetworkSimulator.step_profile`
  batch over its members' flows, and each member's slowdown is its
  contended finish over its solo makespan.

Component batches go through the fluid engine's pattern cache, so
epochs that repeat a component (steady state under a stationary
arrival process) cost a cache lookup, not a solve.  A job's routed
link set and its solo makespan depend only on its flows, which are
fixed for its whole life, so the model memoises both per flow set.
Since a lone job's slowdown is exactly 1.0, single-job serving runs
reproduce standalone execution bit for bit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..config import (ElectricalSystem, HierarchicalSystem,
                      OpticalRingSystem, OpticalTorusSystem)
from ..simulation.flows import LinkId
from ..simulation.fluid import FluidNetworkSimulator
from ..topology.base import Topology
from ..topology.ring import RingTopology
from ..topology.switched import SwitchedStar

__all__ = ["ContentionModel", "contention_topology"]

Flow = Tuple[int, int, float]


def contention_topology(system: object) -> Optional[Topology]:
    """A fluid topology mirroring ``system``'s shared physical links.

    * electrical ring / switch — the exact topologies the electrical
      substrate simulates on.  The switch star gives every host its
      own up and down link, so jobs on disjoint node sets never share
      a link there and never slow each other down;
    * optical ring — a bidirectional ring whose link capacity is the
      full WDM aggregate (``num_wavelengths x wavelength_rate``): the
      fluid view of wavelength sharing, coarser than RWA but with the
      same shared-arc structure;
    * optical torus — modelling it by an aggregate link rate on a ring
      of the same scale would *not* be faithful to its 2-D routing, so
      the torus (like the hierarchical fabric and any unknown system)
      returns ``None``: no cross-job contention is modelled at all and
      concurrent jobs interact only through queueing.
    """
    if isinstance(system, ElectricalSystem):
        if system.topology == "ring":
            return RingTopology(system.num_nodes, system.link_rate,
                                bidirectional=True)
        return SwitchedStar(system.num_nodes, system.effective_port_rate)
    if isinstance(system, OpticalRingSystem):
        return RingTopology(system.num_nodes, system.node_injection_rate,
                            bidirectional=system.bidirectional)
    if isinstance(system, (OpticalTorusSystem, HierarchicalSystem)):
        return None
    return None


class ContentionModel:
    """Per-epoch job slowdowns, one fluid solve per link-sharing
    component (see module docstring)."""

    def __init__(self, topology: Optional[Topology]) -> None:
        self._sim = (FluidNetworkSimulator(topology)
                     if topology is not None else None)
        #: Routed link ids per flow set, from the simulator's memoised
        #: routes.
        self._links: Dict[Tuple[Flow, ...], FrozenSet[LinkId]] = {}
        #: Solo makespan per flow set (exact: ``step_profile`` results
        #: never depend on cache history).
        self._solo: Dict[Tuple[Flow, ...], float] = {}
        self._solves = 0

    @property
    def simulator(self) -> Optional[FluidNetworkSimulator]:
        """The underlying fluid simulator (``None`` = contention off)."""
        return self._sim

    @property
    def solves(self) -> int:
        """Component solves so far: one per multi-job component per
        epoch (link-isolated jobs never count)."""
        return self._solves

    def slowdowns(self, flows_by_job: Mapping[int, Sequence[Flow]]
                  ) -> Dict[int, float]:
        """Slowdown factor (``>= 1.0``) per job id.

        ``flows_by_job`` maps each running job to its representative
        ``(src, dst, bytes)`` flows on *global* node ids.  Jobs occupy
        disjoint node sets, so flow endpoints never collide across
        jobs and per-pair finish times can be attributed unambiguously.
        A job that shares no link with another gets exactly 1.0.
        Contiguous placements on a ring rarely interfere (shortest
        paths stay inside each job's arc); scattered placements route
        through other jobs' arcs and genuinely contend.
        """
        out = {job_id: 1.0 for job_id in flows_by_job}
        if self._sim is None:
            return out
        # Union-find over link -> owning job: jobs whose links meet,
        # directly or through a chain of jobs, form one component.
        parent: Dict[int, int] = {}
        owner: Dict[LinkId, int] = {}

        def find(job_id: int) -> int:
            while parent[job_id] != job_id:
                parent[job_id] = parent[parent[job_id]]
                job_id = parent[job_id]
            return job_id

        for job_id, flows in flows_by_job.items():
            if not flows:
                continue
            parent[job_id] = job_id
            links = self._link_set(flows)
            for other in {owner[lid] for lid in links & owner.keys()}:
                parent[find(other)] = find(job_id)
            owner.update(dict.fromkeys(links, job_id))
        components: Dict[int, List[int]] = {}
        for job_id in parent:
            components.setdefault(find(job_id), []).append(job_id)
        for members in components.values():
            if len(members) > 1:
                self._solve(members, flows_by_job, out)
        return out

    def _link_set(self, flows: Sequence[Flow]) -> FrozenSet[LinkId]:
        """The link ids ``flows`` route over (memoised per flow set)."""
        key = tuple(flows)
        links = self._links.get(key)
        if links is None:
            links = self._links[key] = frozenset(
                lid for s, d, _ in flows for lid in self._sim._route(s, d)[0])
        return links

    def _solve(self, members: List[int],
               flows_by_job: Mapping[int, Sequence[Flow]],
               out: Dict[int, float]) -> None:
        """Solve one multi-job component's flows as one batch and set
        each member's slowdown in ``out``."""
        self._solves += 1
        profile = self._sim.step_profile(
            [f for job_id in members for f in flows_by_job[job_id]])
        finish: Dict[Tuple[int, int], float] = {}
        for pair, t in zip(profile.pairs, profile.finish_times):
            finish[pair] = max(finish.get(pair, 0.0), float(t))
        for job_id in members:
            flows = flows_by_job[job_id]
            contended = max(finish[(s, d)] for s, d, _ in flows)
            key = tuple(flows)
            solo = self._solo.get(key)
            if solo is None:
                solo = self._solo[key] = self._sim.step_profile(
                    flows).makespan
            if solo > 0.0:
                out[job_id] = max(1.0, contended / solo)
