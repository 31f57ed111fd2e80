"""Skeleton-priced Wrht costing against the per-transfer model it replaces.

The planner ranks Wrht candidates from a memoised, payload-free step
skeleton (``cost_model.wrht_skeleton``) and builds a schedule only for
the plans it returns.  These tests pin that path bit for bit to a frozen
copy of the former per-candidate loop — which regenerated every schedule
and measured it on a fresh ``RingTopology`` — and count the work the
paper grid does, so a regression in either shows exactly.
"""

from types import SimpleNamespace
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.collectives.wrht as wrht_mod
import repro.core.cost_model as cm
from repro.analysis.figure2 import PAPER_MODELS, PAPER_SCALES, figure2
from repro.collectives import analysis as can
from repro.collectives.wrht import WrhtParameters, generate_wrht
from repro.config import OpticalRingSystem, Workload
from repro.core.planner import (VARIANTS, WrhtPlan, _variant_params,
                                default_group_sizes, feasible_group_sizes,
                                plan_table, plan_wrht)
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.errors import ConfigurationError, TopologyError
from repro.topology.ring import RingTopology

# ---------------------------------------------------------------------------
# frozen copy of the per-candidate costing the skeleton replaced
# ---------------------------------------------------------------------------


def frozen_schedule_time(schedule, system, workload):
    """(total, steps): every transfer priced on a fresh ring."""
    ring = RingTopology(system.num_nodes, capacity=1.0,
                        bidirectional=system.bidirectional)
    step_times = []
    chunk_bytes = workload.data_bytes / schedule.num_chunks
    for step in schedule.steps:
        demand = can.step_wavelength_demand(ring, step)
        if demand > system.num_wavelengths:
            raise ConfigurationError(
                f"step needs {demand} wavelengths; system has "
                f"{system.num_wavelengths}")
        k = (max(1, system.num_wavelengths // demand)
             if system.allow_striping else 1)
        slowest = 0.0
        for t in step:
            direction = can.transfer_direction(ring, t)
            hops = ring.distance(t.src, t.dst, direction)
            b = len(t.chunks) * chunk_bytes
            dt = b / (k * system.wavelength_rate) \
                + system.propagation_delay(hops)
            slowest = max(slowest, dt)
        step_times.append(system.tuning_time + system.step_overhead
                          + slowest)
    return sum(step_times), schedule.num_steps


def frozen_plan_wrht(system, workload, fidelity="analytic", top_k=4,
                     group_sizes=None, variants=VARIANTS, substrate=None):
    """The former ``plan_wrht`` candidate loop (analytic and hybrid)."""
    n, w = system.num_nodes, system.num_wavelengths
    candidates = (list(group_sizes) if group_sizes is not None
                  else default_group_sizes(n, w))
    if fidelity == "hybrid" and substrate is None:
        substrate = OpticalRingSubstrate(system)

    def key(plan):
        return (plan.predicted_time, plan.num_steps, plan.group_size)

    best: Optional[WrhtPlan] = None
    analytic: List[WrhtPlan] = []
    for m in candidates:
        if m < 2 or m // 2 > w:
            continue
        for variant in variants:
            params = _variant_params(n, m, w, variant)
            schedule, info = generate_wrht(params)
            total, _ = frozen_schedule_time(schedule, system, workload)
            plan = WrhtPlan(params=params, variant=variant,
                            schedule=schedule, info=info,
                            predicted_time=total)
            if fidelity == "hybrid":
                analytic.append(plan)
            elif best is None or key(plan) < key(best):
                best = plan
    if fidelity == "hybrid":
        analytic.sort(key=key)
        for plan in analytic[:top_k]:
            total = substrate.execute(plan.schedule, workload).total_time
            plan = WrhtPlan(params=plan.params, variant=plan.variant,
                            schedule=plan.schedule, info=plan.info,
                            predicted_time=total)
            if best is None or key(plan) < key(best):
                best = plan
    return best


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except (ConfigurationError, TopologyError) as exc:
        return type(exc), str(exc)


def assert_same_plan(got: WrhtPlan, want: WrhtPlan) -> None:
    assert got.params == want.params
    assert got.variant == want.variant
    assert got.predicted_time == want.predicted_time
    assert got.schedule.steps == want.schedule.steps
    assert got.info == want.info


# ---------------------------------------------------------------------------
# skeleton pricing == schedule pricing
# ---------------------------------------------------------------------------


@st.composite
def candidate(draw):
    n = draw(st.integers(2, 300))
    w = draw(st.integers(1, 64))
    m = draw(st.sampled_from(default_group_sizes(n, w)))
    variant = draw(st.sampled_from(VARIANTS))
    system = OpticalRingSystem(
        num_nodes=n, num_wavelengths=w,
        allow_striping=draw(st.booleans()),
        bidirectional=draw(st.booleans()))
    nbytes = draw(st.floats(1e-3, 1e13, allow_nan=False,
                            allow_infinity=False))
    return system, Workload(data_bytes=nbytes), \
        _variant_params(n, m, w, variant)


class TestSkeletonParity:
    @given(candidate())
    @settings(max_examples=120, deadline=None)
    def test_skeleton_time_matches_schedule_time(self, case):
        system, wl, params = case
        sched, _ = generate_wrht(params)

        def from_schedule():
            detail = cm.wrht_time_from_schedule(sched, system, wl)
            return detail.total_time, len(detail.step_times)

        want = outcome(lambda: frozen_schedule_time(sched, system, wl))
        assert outcome(from_schedule) == want
        # twice: the second call prices the memoised skeleton
        for _ in range(2):
            assert outcome(lambda: cm.wrht_skeleton_time(
                system, wl, params)) == want

    def test_detail_fields_match_schedule(self):
        system = OpticalRingSystem(num_nodes=37, num_wavelengths=5)
        wl = Workload(data_bytes=3e7)
        params = WrhtParameters(num_nodes=37, group_size=4,
                                num_wavelengths=5)
        sched, _ = generate_wrht(params)
        detail = cm.wrht_time_from_schedule(sched, system, wl)
        ring = RingTopology(37, capacity=1.0)
        assert list(detail.demands) == can.schedule_wavelength_demand(
            ring, sched)
        assert detail.striping == tuple(max(1, 5 // d)
                                        for d in detail.demands)
        assert detail.total_time == frozen_schedule_time(
            sched, system, wl)[0]

    def test_infeasible_candidate_raises_on_every_call(self):
        # the generator plans for 64 wavelengths (an early all-to-all);
        # the ring only has 2
        params = WrhtParameters(num_nodes=40, group_size=4,
                                num_wavelengths=64)
        system = OpticalRingSystem(num_nodes=40, num_wavelengths=2)
        wl = Workload(data_bytes=1e6)
        sched, _ = generate_wrht(params)
        with pytest.raises(ConfigurationError) as first:
            frozen_schedule_time(sched, system, wl)
        for _ in range(3):
            with pytest.raises(ConfigurationError) as exc:
                cm.wrht_skeleton_time(system, wl, params)
            assert str(exc.value) == str(first.value)
            with pytest.raises(ConfigurationError) as exc:
                cm.wrht_time(system, wl, params)
            assert str(exc.value) == str(first.value)

    def test_skeleton_is_payload_free(self):
        params = WrhtParameters(num_nodes=64, group_size=5,
                                num_wavelengths=8)
        a = cm.wrht_skeleton(params, 64, True, 8, True)
        assert cm.wrht_skeleton(params, 64, True, 8, True) is a
        assert a.error is None
        assert a.num_steps == generate_wrht(params)[0].num_steps


# ---------------------------------------------------------------------------
# planner results == the frozen candidate loop
# ---------------------------------------------------------------------------

PAYLOADS = (1e3, 1e6, 2.5e8)


class TestPlannerParity:
    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64, 128, 300])
    @pytest.mark.parametrize("w", [1, 3, 8, 64])
    def test_analytic(self, n, w):
        for allow_striping in (True, False):
            system = OpticalRingSystem(num_nodes=n, num_wavelengths=w,
                                       allow_striping=allow_striping)
            for nbytes in PAYLOADS:
                wl = Workload(data_bytes=nbytes)
                assert_same_plan(plan_wrht(system, wl),
                                 frozen_plan_wrht(system, wl))

    @pytest.mark.parametrize("n,w", [(6, 2), (16, 4), (24, 64)])
    @pytest.mark.parametrize("top_k", [1, 4])
    def test_hybrid(self, n, w, top_k):
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
        for nbytes in PAYLOADS:
            wl = Workload(data_bytes=nbytes)
            assert_same_plan(
                plan_wrht(system, wl, fidelity="hybrid", top_k=top_k),
                frozen_plan_wrht(system, wl, fidelity="hybrid",
                                 top_k=top_k))

    @pytest.mark.parametrize("top_k", [1, 2, 5, 100])
    def test_hybrid_cut_when_simulation_reorders(self, top_k):
        # On the real substrate the analytic winner also wins simulated;
        # a stand-in that reverses the analytic order makes the top-k
        # cut and the re-ranking after simulation visible.
        system = OpticalRingSystem(num_nodes=40, num_wavelengths=6)

        class Reordering:
            def execute(self, schedule, workload):
                t = frozen_schedule_time(schedule, system, workload)[0]
                return SimpleNamespace(total_time=1.0 - t)

        wl = Workload(data_bytes=3e6)
        got = plan_wrht(system, wl, fidelity="hybrid", top_k=top_k,
                        substrate=Reordering())
        assert_same_plan(got, frozen_plan_wrht(
            system, wl, fidelity="hybrid", top_k=top_k,
            substrate=Reordering()))

    def test_explicit_group_sizes_and_variants(self):
        system = OpticalRingSystem(num_nodes=100, num_wavelengths=6)
        wl = Workload(data_bytes=4e6)
        kwargs = dict(group_sizes=[13, 1, 3, 2, 40], variants=("tree",
                                                                "paper"))
        assert_same_plan(plan_wrht(system, wl, **kwargs),
                         frozen_plan_wrht(system, wl, **kwargs))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_table_rows(self, variant):
        system = OpticalRingSystem(num_nodes=96, num_wavelengths=12)
        wl = Workload(data_bytes=7.7e7)
        want = []
        for m in feasible_group_sizes(96, 12):
            sched, _ = generate_wrht(_variant_params(96, m, 12, variant))
            total, steps = frozen_schedule_time(sched, system, wl)
            want.append((m, steps, total))
        assert plan_table(system, wl, variant=variant) == want


# ---------------------------------------------------------------------------
# deterministic work counters for the paper grid
# ---------------------------------------------------------------------------


class TestPaperGridWork:
    def test_figure2_generates_each_candidate_once(self, monkeypatch):
        calls = {"generate_wrht": 0, "RingTopology": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cm, "generate_wrht",
                            counted("generate_wrht", cm.generate_wrht))
        monkeypatch.setattr(wrht_mod, "generate_wrht",
                            counted("generate_wrht", wrht_mod.generate_wrht))
        monkeypatch.setattr(RingTopology, "__init__",
                            counted("RingTopology", RingTopology.__init__))
        cm.wrht_skeleton.cache_clear()
        cm._unit_ring.cache_clear()

        first = figure2()
        points = len(PAPER_MODELS) * len(PAPER_SCALES)
        # 276 distinct (N, m, variant) candidates + one schedule per
        # grid point's winner, and one unit ring per scale; the former
        # loop built 1104 schedules and 1104 rings.
        assert calls["generate_wrht"] == 276 + points
        assert calls["RingTopology"] == len(PAPER_SCALES)

        calls.update(generate_wrht=0, RingTopology=0)
        second = figure2()
        assert calls["generate_wrht"] == points
        assert calls["RingTopology"] == 0
        assert {m: p.times for m, p in second.items()} == \
            {m: p.times for m, p in first.items()}
