"""Tests for the topology/schedule co-planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import Workload, default_ocs
from repro.core.comparison import EXTENDED_ALGORITHMS, compare_algorithms
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.core.topoplan import (CANDIDATE_ALGORITHMS, POLICIES,
                                 TopologyPlan, candidate_schedule,
                                 plan_topology, topology_plan_table)
from repro.errors import PlanningError

N = 16
SMALL = Workload(data_bytes=64 * units.KB, name="tensor")
BIG = Workload(data_bytes=64 * units.MB, name="grads")


class TestCandidates:
    def test_known_algorithms_generate(self):
        for algo in CANDIDATE_ALGORITHMS:
            sched = candidate_schedule(algo, N)
            assert sched.num_nodes == N
            assert sched.num_steps > 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(PlanningError, match="unknown co-planner"):
            candidate_schedule("quantum-mesh", N)

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlanningError, match="unknown policy"):
            plan_topology(default_ocs(N), SMALL, policies=("sometimes",))


class TestPlanTable:
    def test_full_grid(self):
        plans = topology_plan_table(default_ocs(N), SMALL)
        assert len(plans) == len(CANDIDATE_ALGORITHMS) * len(POLICIES)
        seen = {(p.algorithm, p.policy) for p in plans}
        assert len(seen) == len(plans)
        for p in plans:
            assert isinstance(p, TopologyPlan)
            assert p.predicted_time > 0
            assert p.program.num_nodes == N
            if p.policy == "static":
                assert p.num_reconfigurations == 0

    def test_plan_is_table_minimum(self):
        system = default_ocs(N)
        best = plan_topology(system, SMALL)
        table = topology_plan_table(system, SMALL)
        assert best.predicted_time == min(p.predicted_time for p in table)


class TestCoPlanning:
    def test_ideal_switch_beats_best_static(self):
        """The subsystem's headline: with a fast enough switch, the
        co-planner's reconfiguring plan beats every static plan."""
        system = default_ocs(N, reconfiguration_delay=0.0)
        best = plan_topology(system, SMALL)
        static_best = min(
            (p for p in topology_plan_table(system, SMALL)
             if p.policy == "static"),
            key=lambda p: p.predicted_time)
        assert best.policy == "reconfigure"
        assert best.predicted_time < static_best.predicted_time

    def test_frozen_switch_falls_back_to_static(self):
        system = default_ocs(N, reconfiguration_delay=float("inf"))
        best = plan_topology(system, SMALL)
        assert best.policy == "static"
        assert best.num_reconfigurations == 0

    def test_mems_delay_prefers_static_ring_on_big_payload(self):
        system = default_ocs(N, reconfiguration_delay=10 * units.MSEC)
        best = plan_topology(system, BIG)
        assert best.policy == "static"

    def test_deterministic(self):
        system = default_ocs(N)
        a = plan_topology(system, SMALL)
        b = plan_topology(system, SMALL)
        assert (a.algorithm, a.policy, a.predicted_time) == \
            (b.algorithm, b.policy, b.predicted_time)

    def test_algorithm_subset_respected(self):
        best = plan_topology(default_ocs(N), SMALL, algorithms=("ring",))
        assert best.algorithm == "ring"


class TestComparisonScenario:
    def test_ocs_scenario_in_extended_algorithms(self):
        assert "ocs" in EXTENDED_ALGORITHMS

    def test_ocs_scenario_evaluates(self):
        comp = compare_algorithms(8, Workload(data_bytes=1 * units.MB),
                                  algorithms=EXTENDED_ALGORITHMS)
        res = comp.results["ocs"]
        assert res.substrate == "ocs-reconfig"
        assert res.time_seconds > 0
        assert set(res.detail) == {"algorithm", "policy",
                                   "reconfigurations"}
        assert res.detail["algorithm"] in CANDIDATE_ALGORITHMS

    def test_ocs_scenario_same_under_both_fidelities(self):
        wl = Workload(data_bytes=1 * units.MB)
        ana = compare_algorithms(8, wl, algorithms=("ocs",))
        sim = compare_algorithms(8, wl, algorithms=("ocs",),
                                 fidelity="simulate")
        assert ana.time("ocs") == sim.time("ocs")


# A frozen copy of the schedule-path candidate loop the planner ran
# before it planned every demand through profiles: each candidate
# schedule executed on a fresh substrate per policy.  The single
# profile path must reproduce it row for row.
def _frozen_schedule_table(system, workload):
    rows = []
    subs = {}
    for policy in POLICIES:
        sys_p = (system.with_(reconfiguration_delay=float("inf"))
                 if policy == "static" else system)
        subs[policy] = OCSReconfigurableSubstrate(
            sys_p, lookahead=(policy == "lookahead"))
    for algorithm in CANDIDATE_ALGORITHMS:
        schedule = candidate_schedule(algorithm, system.num_nodes)
        for policy in POLICIES:
            sub = subs[policy]
            report = sub.execute(schedule, workload)
            rows.append((algorithm, policy, schedule, sub.last_program,
                         report.total_time, schedule.num_steps, report))
    return rows


class TestSinglePathParity:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12),
           data_bytes=st.floats(1.0, 1e9),
           delay=st.one_of(st.just(float("inf")),
                           st.floats(0.0, 1e-2)))
    def test_profile_path_matches_frozen_schedule_path(self, n, data_bytes,
                                                       delay):
        system = default_ocs(n, reconfiguration_delay=delay)
        workload = Workload(data_bytes=data_bytes, name="parity")
        ref = _frozen_schedule_table(system, workload)
        ours = topology_plan_table(system, workload)
        assert len(ours) == len(ref)
        for plan, (algo, policy, sched, program, time, steps, report) \
                in zip(ours, ref):
            assert (plan.algorithm, plan.policy) == (algo, policy)
            assert plan.schedules == (sched,)
            assert plan.report == report
            assert plan.program == program
            assert plan.predicted_time == time
            assert plan.num_steps == steps
        best = min(ref, key=lambda r: (r[4], r[5], POLICIES.index(r[1]),
                                       r[0]))
        winner = plan_topology(system, workload)
        assert (winner.algorithm, winner.policy, winner.predicted_time,
                winner.report) == (best[0], best[1], best[4], best[6])
