"""The serving event loop does linear work and matches the frozen loops.

* **frozen-copy parity** — :class:`SortedQueueScheduler` keeps the wait
  queue as a plain list and re-sorts it on every admission scan (the
  original implementation, frozen here).  Hypothesis drives it and the
  heap-ordered :class:`~repro.serving.OnlineScheduler` through the same
  random operation sequences and compares them after every step.
  :class:`CombinedBatchContention` is the contention model that solved
  every running job in one combined fluid batch per epoch (also frozen
  here); the per-component model must match it within 1e-12 relative
  on random scattered flow sets and on whole streams, and give a job
  that shares no link with another exactly 1.0;
* **work counters** — on a 1000-job overload stream, policy keys are
  evaluated once per queued job, the contention model never solves
  (contiguous jobs share no link), and a catalog model is bucketized
  once per ``(model, bucket_bytes, dtype_bytes)``.  Switch-star streams
  never solve either; scatter streams do.  Counts, not wall time;
* **end-to-end parity** — the same stream through the sort-based
  scheduler with every memo defeated gives the same report;
* **serving invariants** — on contended scatter streams every slowdown
  is at least 1.0, no job finishes faster than its steps at solo step
  time, and every submitted job either completes or fails.
"""

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.engine as engine_mod
import repro.serving.jobs as jobs_mod
import repro.serving.scheduler as scheduler_mod
from repro.errors import ConfigurationError
from repro.serving import (ContentionModel, JobSpec, OnlineScheduler,
                           Placement, ServingEngine, contention_topology,
                           fixed_policy, poisson_traffic)


class SortedQueueScheduler(OnlineScheduler):
    """The original wait queue: a list in submission order, sorted by
    the policy key on every scan.  Placement, release and failure
    masking are inherited unchanged."""

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def queued_jobs(self) -> List[JobSpec]:
        return sorted(self._queue, key=self._key)

    def submit(self, job: JobSpec, now: float) -> Optional[Placement]:
        if job.num_nodes > self.capacity:
            raise ConfigurationError(
                f"job {job.job_id} wants {job.num_nodes} nodes but the "
                f"substrate has {self.capacity}")
        nodes = self._allocate(job.num_nodes) if not self._queue else None
        if nodes is None:
            self._queue.append(job)
            return None
        return Placement(job=job, nodes=nodes, start_time=now)

    def admit_from_queue(self, now: float) -> List[Placement]:
        placed: List[Placement] = []
        for head in sorted(self._queue, key=self._key):
            nodes = self._allocate(head.num_nodes)
            if nodes is None:
                break
            self._queue.remove(head)
            placed.append(Placement(job=head, nodes=nodes, start_time=now))
        return placed


class CombinedBatchContention(ContentionModel):
    """The original contention model: every running job's flows solved
    as one combined fluid batch per epoch, frozen here."""

    def slowdowns(self, flows_by_job):
        out = {job_id: 1.0 for job_id in flows_by_job}
        if self._sim is None or len(flows_by_job) <= 1:
            return out
        combined = [f for flows in flows_by_job.values() for f in flows]
        if not combined:
            return out
        profile = self._sim.step_profile(combined)
        finish = {}
        for pair, t in zip(profile.pairs, profile.finish_times):
            finish[pair] = max(finish.get(pair, 0.0), float(t))
        for job_id, flows in flows_by_job.items():
            if not flows:
                continue
            contended = max(finish[(s, d)] for s, d, _ in flows)
            key = tuple(flows)
            solo = self._solo.get(key)
            if solo is None:
                solo = self._solo[key] = self._sim.step_profile(
                    flows).makespan
            if solo > 0.0:
                out[job_id] = max(1.0, contended / solo)
        return out


# -- frozen-copy parity -------------------------------------------------------

CAPACITY = 8


@st.composite
def job_pool(draw):
    """A few jobs with colliding keys: equal arrivals, priorities and
    sizes, widths up to one beyond capacity, and a repeated spec."""
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        jobs.append(JobSpec(
            job_id=draw(st.integers(0, 3)), model="alexnet",
            arrival_time=draw(st.sampled_from((0.0, 1.0))),
            num_steps=draw(st.integers(1, 2)),
            num_nodes=draw(st.integers(2, CAPACITY + 1)),
            priority=draw(st.integers(0, 1)),
            message_sizes=(draw(st.sampled_from((1e6, 2e6))),)))
    # The same spec again, as a distinct but equal object.
    jobs.append(dataclasses.replace(jobs[0]))
    return jobs


OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 99)),
    st.tuples(st.just("admit"), st.integers(0, 0)),
    st.tuples(st.just("release"), st.integers(0, 99)),
    st.tuples(st.just("fail"), st.integers(0, CAPACITY - 1)),
    st.tuples(st.just("restore"), st.integers(0, CAPACITY - 1)),
), max_size=40)


def _apply(sched, op, arg, jobs, running, now):
    """Run one operation; the outcome is its result or its error."""
    try:
        if op == "submit":
            return sched.submit(jobs[arg % len(jobs)], now)
        if op == "admit":
            return sched.admit_from_queue(now)
        if op == "release":
            return sched.release(running[arg % len(running)])
        if op == "fail":
            return sched.fail_nodes([arg])
        return sched.restore_nodes([arg])
    except ConfigurationError as exc:
        return ("error", str(exc))


class TestFrozenCopyParity:
    @pytest.mark.parametrize("placement", ["contiguous", "scatter"])
    @pytest.mark.parametrize("policy", ["fifo", "sjf", "priority"])
    @given(jobs=job_pool(), ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_based_scheduler(self, policy, placement, jobs,
                                          ops):
        heap = OnlineScheduler(CAPACITY, policy, placement)
        ref = SortedQueueScheduler(CAPACITY, policy, placement)
        running: List[Placement] = []
        for step, (op, arg) in enumerate(ops):
            if op == "release" and not running:
                continue
            now = float(step)
            got = _apply(heap, op, arg, jobs, running, now)
            want = _apply(ref, op, arg, jobs, running, now)
            assert got == want
            if op == "release":
                running.pop(arg % len(running))
            elif isinstance(got, Placement):
                running.append(got)
            elif isinstance(got, list):
                assert all(a.job is b.job for a, b in zip(got, want))
                running.extend(got)
            queued, want_queued = heap.queued_jobs(), ref.queued_jobs()
            assert len(queued) == len(want_queued)
            assert all(a is b for a, b in zip(queued, want_queued))
            assert heap.queue_depth == ref.queue_depth
            heap.check_conservation()
            ref.check_conservation()
            assert heap.free_nodes == ref.free_nodes


#: The fabrics with a contention topology, built as the engine builds them.
SYSTEMS = {name: engine_mod._DEFAULT_SYSTEMS[name] for name in
           ("electrical-ring", "electrical-switch", "optical-ring")}


@st.composite
def scattered_jobs(draw):
    """Jobs on disjoint, randomly scattered node sets of an ``n``-node
    fabric, each with a few random ``(src, dst, bytes)`` flows among
    its own nodes (a job may have none)."""
    n = draw(st.integers(4, 20))
    order = draw(st.permutations(range(n)))
    flows_by_job: Dict[int, List[Tuple[int, int, float]]] = {}
    used = 0
    for job_id in range(draw(st.integers(1, n // 2))):
        width = draw(st.integers(2, max(2, min(6, n - used))))
        if used + width > n:
            break
        nodes = order[used:used + width]
        used += width
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                          st.sampled_from((1e5, 1e6, 3e6, 8e6)))
        flows_by_job[job_id] = [(a, b, z) for a, b, z in draw(
            st.lists(pairs, max_size=6)) if a != b]
    return n, flows_by_job


def _components(topology, flows_by_job: Mapping[int, Sequence]
                ) -> List[List[int]]:
    """Jobs grouped by shared routed links, found independently of the
    model: repeatedly merge any two groups whose link sets meet."""
    groups = [({job_id}, {l.ident for s, d, _ in flows
                          for l in topology.routed_path(s, d)})
              for job_id, flows in flows_by_job.items() if flows]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i][1] & groups[j][1]:
                    groups[i][0].update(groups[j][0])
                    groups[i][1].update(groups[j][1])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return [sorted(jobs) for jobs, _ in groups]


class TestContentionParity:
    @pytest.mark.parametrize("fabric", sorted(SYSTEMS))
    @given(case=scattered_jobs())
    @settings(max_examples=60, deadline=None)
    def test_matches_combined_batch(self, fabric, case):
        n, flows_by_job = case
        topology = contention_topology(SYSTEMS[fabric](n))
        got = ContentionModel(topology).slowdowns(flows_by_job)
        want = CombinedBatchContention(topology).slowdowns(flows_by_job)
        assert got.keys() == want.keys()
        for job_id, slow in got.items():
            assert slow >= 1.0
            assert slow == pytest.approx(want[job_id], rel=1e-12, abs=0)
        for members in _components(topology, flows_by_job):
            if len(members) == 1:
                assert got[members[0]] == 1.0
        if fabric == "electrical-switch":
            assert all(slow == 1.0 for slow in got.values())

    def test_solves_count_multi_job_components(self):
        # Two jobs share link (4,5); a third sits alone on 10..12.
        model = ContentionModel(contention_topology(
            SYSTEMS["electrical-ring"](16)))
        slow = model.slowdowns({0: [(3, 6, 1e6)], 1: [(4, 7, 1e6)],
                                2: [(10, 12, 1e6)]})
        assert slow[0] > 1.0 and slow[1] > 1.0 and slow[2] == 1.0
        assert model.solves == 1
        model.slowdowns({0: [(0, 3, 1e6)], 1: [(8, 11, 1e6)]})
        assert model.solves == 1


# -- work counters and end-to-end parity --------------------------------------

STREAM = dict(num_jobs=1000, arrival_rate=200.0, seed=0)


def _report_outcome(report):
    return (report.records, report.queue_samples, report.algorithm_mix,
            report.failed_jobs, report.preemptions, report.retries)


class TestWorkCounters:
    def test_overload_stream_work_is_linear(self, monkeypatch):
        key_evals = [0]
        queued = [0]
        make_key = scheduler_mod.policy_key

        def counting_policy_key(name):
            key = make_key(name)

            def counted(job):
                key_evals[0] += 1
                return key(job)
            return counted

        submit = OnlineScheduler.submit

        def counting_submit(self, job, now):
            placement = submit(self, job, now)
            queued[0] += placement is None
            return placement

        sizing_calls = [0]
        sizes = jobs_mod.allreduce_message_sizes

        def counting_sizes(*args, **kwargs):
            sizing_calls[0] += 1
            return sizes(*args, **kwargs)

        epochs = [0]
        slowdowns = ContentionModel.slowdowns

        def recording_slowdowns(self, flows_by_job):
            if sum(bool(f) for f in flows_by_job.values()) > 1:
                epochs[0] += 1
            return slowdowns(self, flows_by_job)

        monkeypatch.setattr(scheduler_mod, "policy_key",
                            counting_policy_key)
        monkeypatch.setattr(OnlineScheduler, "submit", counting_submit)
        monkeypatch.setattr(jobs_mod, "allreduce_message_sizes",
                            counting_sizes)
        monkeypatch.setattr(ContentionModel, "slowdowns",
                            recording_slowdowns)
        jobs_mod._catalog_message_sizes.cache_clear()
        engine = ServingEngine(capacity=32)
        sim = engine._contention.simulator
        solves = [0]
        step_profile = sim.step_profile

        def counting_step_profile(flows):
            solves[0] += 1
            return step_profile(flows)

        monkeypatch.setattr(sim, "step_profile", counting_step_profile)
        jobs = poisson_traffic(**STREAM)
        report = engine.run(jobs)
        jobs_mod._catalog_message_sizes.cache_clear()

        assert report.num_jobs == len(jobs)
        assert report.max_queue_depth > 100  # the queue really builds up
        assert 0 < key_evals[0] <= queued[0]
        # Contiguous jobs never share a link: many multi-job epochs,
        # no fluid solve at all.
        assert epochs[0] > 0
        assert solves[0] == 0
        assert engine._contention.solves == 0
        classes = {(j.model, j.bucket_bytes, j.dtype_bytes)
                   for j in jobs if j.message_sizes is None}
        assert classes
        assert sizing_calls[0] == len(classes)

    def test_report_equals_run_without_memos(self, monkeypatch):
        want = _report_outcome(
            ServingEngine(capacity=32).run(poisson_traffic(**STREAM)))

        class NoMemo(dict):
            def __setitem__(self, key, value):
                pass

        monkeypatch.setattr(engine_mod, "OnlineScheduler",
                            SortedQueueScheduler)
        monkeypatch.setattr(jobs_mod, "_catalog_message_sizes",
                            jobs_mod._catalog_message_sizes.__wrapped__)
        engine = ServingEngine(capacity=32)
        engine._contention._links = NoMemo()
        engine._contention._solo = NoMemo()
        got = _report_outcome(engine.run(poisson_traffic(**STREAM)))
        assert got == want

    @pytest.mark.parametrize("placement", ["contiguous", "scatter"])
    def test_jcts_match_combined_batch(self, monkeypatch, placement):
        jobs = poisson_traffic(**STREAM)
        engine = ServingEngine(capacity=32, placement=placement)
        got = engine.run(jobs)
        # Only scattered jobs share links.
        assert (engine._contention.solves > 0) == (placement == "scatter")
        monkeypatch.setattr(engine_mod, "ContentionModel",
                            CombinedBatchContention)
        want = ServingEngine(capacity=32, placement=placement).run(jobs)
        assert [r.job.job_id for r in got.records] \
            == [r.job.job_id for r in want.records]
        for a, b in zip(got.records, want.records):
            assert a.completion == pytest.approx(b.completion, rel=1e-12,
                                                 abs=0)


class TestContentionSolves:
    def test_switch_star_never_solves(self):
        engine = ServingEngine(substrate_name="electrical-switch",
                               capacity=32, placement="scatter")
        report = engine.run(poisson_traffic(**STREAM))
        assert report.num_jobs == STREAM["num_jobs"]
        assert engine._contention.solves == 0


# -- serving invariants on contended streams ----------------------------------

CONTENDED = {
    "electrical-ring": {},
    "optical-ring": {"collectives": fixed_policy("wrht")},
}


class TestServingInvariants:
    @pytest.mark.parametrize("fabric", sorted(CONTENDED))
    def test_scatter_stream_invariants(self, monkeypatch, fabric):
        seen: List[float] = []
        slowdowns = ContentionModel.slowdowns

        def recording_slowdowns(self, flows_by_job):
            out = slowdowns(self, flows_by_job)
            seen.extend(out.values())
            return out

        monkeypatch.setattr(ContentionModel, "slowdowns",
                            recording_slowdowns)
        engine = ServingEngine(substrate_name=fabric, capacity=32,
                               placement="scatter", **CONTENDED[fabric])
        jobs = poisson_traffic(num_jobs=400, arrival_rate=200.0, seed=1)
        report = engine.run(jobs)

        assert engine._contention.solves > 0  # jobs really contend
        assert seen and min(seen) >= 1.0
        assert max(seen) > 1.0
        for r in report.records:
            floor = r.job.num_steps * r.step_time
            assert r.completion_time - r.start_time >= floor * (1 - 1e-8)
        done = [r.job.job_id for r in report.records]
        failed = [j.job_id for j in report.failed_jobs]
        assert sorted(done + failed) == sorted(j.job_id for j in jobs)
