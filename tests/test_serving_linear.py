"""The serving event loop does linear work and matches the sort-based loop.

* **frozen-copy parity** — :class:`SortedQueueScheduler` keeps the wait
  queue as a plain list and re-sorts it on every admission scan (the
  original implementation, frozen here).  Hypothesis drives it and the
  heap-ordered :class:`~repro.serving.OnlineScheduler` through the same
  random operation sequences and compares them after every step;
* **work counters** — on a 1000-job overload stream, policy keys are
  evaluated once per queued job, the contention model solves each job
  flow set's solo profile once, and a catalog model is bucketized once
  per ``(model, bucket_bytes, dtype_bytes)``.  Counts, not wall time;
* **end-to-end parity** — the same stream through the sort-based
  scheduler with every memo defeated gives the same report.
"""

import dataclasses
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.engine as engine_mod
import repro.serving.jobs as jobs_mod
import repro.serving.scheduler as scheduler_mod
from repro.errors import ConfigurationError
from repro.serving import (ContentionModel, JobSpec, OnlineScheduler,
                           Placement, ServingEngine, poisson_traffic)


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
        flow_sets = set()
        slowdowns = ContentionModel.slowdowns

        def recording_slowdowns(self, flows_by_job):
            if len(flows_by_job) > 1 and any(flows_by_job.values()):
                epochs[0] += 1
                flow_sets.update(tuple(f) for f in flows_by_job.values()
                                 if f)
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
        assert epochs[0] > 0
        assert solves[0] <= len(flow_sets) + epochs[0]
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
        engine._contention._solo = NoMemo()
        got = _report_outcome(engine.run(poisson_traffic(**STREAM)))
        assert got == want
