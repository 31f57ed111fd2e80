"""Numerical all-reduce front end.

The rest of the library reasons about *time*; this module lets a user
actually **reduce data** with any of the implemented algorithms while
getting the modelled communication time of the chosen substrate — the
"run my workload on the simulated rack" entry point used by the
quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..collectives.recursive_doubling import generate_recursive_doubling
from ..collectives.ring_allreduce import generate_ring_allreduce
from ..collectives.schedule import Schedule, TransferOp
from ..config import (ElectricalSystem, OpticalRingSystem, Workload,
                      default_electrical, default_optical)
from ..errors import ConfigurationError
from .planner import plan_wrht
from .substrates import ExecutionReport, Substrate, get_substrate


@dataclass
class AllreduceOutcome:
    """Reduced data plus the modelled execution report."""

    data: List[np.ndarray]
    report: ExecutionReport
    algorithm: str


def _execute_numeric(schedule: Schedule,
                     arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Run ``schedule`` on real payloads (chunked along axis 0)."""
    n = schedule.num_nodes
    splits = [np.array_split(np.asarray(a, dtype=np.float64),
                             schedule.num_chunks)
              for a in arrays]
    for step in schedule.steps:
        snapshot = [[c.copy() for c in node] for node in splits]
        for t in step:
            if t.op is TransferOp.COPY:
                for c in t.chunks:
                    splits[t.dst][c] = snapshot[t.src][c].copy()
        for t in step:
            if t.op is TransferOp.REDUCE:
                for c in t.chunks:
                    splits[t.dst][c] = splits[t.dst][c] + snapshot[t.src][c]
    return [np.concatenate(node) for node in splits]


def allreduce(arrays: Sequence[np.ndarray],
              algorithm: str = "wrht",
              optical: Optional[OpticalRingSystem] = None,
              electrical: Optional[ElectricalSystem] = None,
              substrate: Optional[Substrate] = None,
              ) -> AllreduceOutcome:
    """All-reduce ``arrays`` (one per rank) and model the communication.

    Every returned array equals ``sum(arrays)`` (float64); ``report``
    carries the per-step timing on the modelled substrate.

    ``algorithm`` ∈ {"wrht", "o-ring", "e-ring", "rd", "o-torus"}.
    Substrates are resolved through the registry
    (:func:`repro.core.substrates.get_substrate`); pass ``substrate``
    to reuse a warm instance instead.  A given ``optical`` or
    ``electrical`` system must have one node per array.
    """
    if not arrays:
        raise ConfigurationError("need at least one rank's array")
    shapes = {np.asarray(a).shape for a in arrays}
    if len(shapes) != 1:
        raise ConfigurationError(f"rank arrays differ in shape: {shapes}")
    n = len(arrays)
    for system in (optical, electrical):
        if system is not None and system.num_nodes != n:
            raise ConfigurationError(
                f"system has {system.num_nodes} nodes but {n} rank "
                f"arrays were given")
    if n == 1:
        dummy = ExecutionReport(schedule_name="noop", substrate="none")
        return AllreduceOutcome([np.asarray(arrays[0], dtype=np.float64)],
                                dummy, algorithm)

    nbytes = int(np.asarray(arrays[0]).astype(np.float64).nbytes)
    workload = Workload(data_bytes=max(nbytes, 1), name="user-payload",
                        dtype_bytes=8)

    if algorithm == "wrht":
        opt = optical if optical is not None else default_optical(n)
        plan = plan_wrht(opt, workload)
        schedule = plan.schedule
        sub = substrate if substrate is not None \
            else get_substrate("optical-ring", opt)
        report = sub.execute(schedule, workload)
    elif algorithm == "o-ring":
        opt = optical if optical is not None else default_optical(n)
        schedule = generate_ring_allreduce(n)
        sub = substrate if substrate is not None \
            else get_substrate("optical-ring", opt)
        report = sub.execute(schedule, workload, striping="off")
    elif algorithm == "e-ring":
        ele = (electrical if electrical is not None
               else default_electrical(n)).with_(topology="ring")
        schedule = generate_ring_allreduce(n)
        sub = substrate if substrate is not None \
            else get_substrate("electrical-ring", ele)
        report = sub.execute(schedule, workload)
    elif algorithm == "rd":
        ele = (electrical if electrical is not None
               else default_electrical(n))
        schedule = generate_recursive_doubling(n)
        # Dispatch on the system's own topology — a user-supplied ring
        # system keeps meaning "RD on the ring", as before the registry.
        sub = substrate if substrate is not None \
            else get_substrate(f"electrical-{ele.topology}", ele)
        report = sub.execute(schedule, workload)
    elif algorithm == "o-torus":
        schedule = generate_ring_allreduce(n)
        sub = substrate if substrate is not None \
            else get_substrate("optical-torus")
        report = sub.execute(schedule, workload)
    else:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")

    flat = [np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays]
    reduced = _execute_numeric(schedule, flat)
    shape = np.asarray(arrays[0]).shape
    return AllreduceOutcome([r.reshape(shape) for r in reduced], report,
                            algorithm)
