"""Tests for the serving job model and traffic engines."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import allreduce_message_sizes, bucketize_gradients
from repro.models.catalog import get_model
from repro.serving import (JobSpec, inference_message_sizes, poisson_traffic,
                           trace_traffic)


class TestJobSpec:
    def test_message_sizes_come_from_gradient_bucketing(self):
        job = JobSpec(job_id=0, model="resnet50", arrival_time=0.0)
        sizes = job.resolve_message_sizes()
        assert list(sizes) == allreduce_message_sizes(
            get_model("resnet50"), bucket_bytes=job.bucket_bytes,
            dtype_bytes=job.dtype_bytes)
        assert job.bytes_per_step == sum(sizes)

    def test_bucket_knob_changes_message_count(self):
        fine = JobSpec(job_id=0, model="resnet50", arrival_time=0.0,
                       bucket_bytes=5e6)
        coarse = JobSpec(job_id=1, model="resnet50", arrival_time=0.0,
                         bucket_bytes=100e6)
        assert (len(fine.resolve_message_sizes())
                > len(coarse.resolve_message_sizes()))

    def test_explicit_sizes_override_model(self):
        job = JobSpec(job_id=0, model="resnet50", arrival_time=0.0,
                      message_sizes=(1e6, 2e6))
        assert job.resolve_message_sizes() == (1e6, 2e6)

    def test_estimated_work_scales_with_steps(self):
        one = JobSpec(job_id=0, model="alexnet", arrival_time=0.0,
                      num_steps=1, message_sizes=(1e6,))
        ten = JobSpec(job_id=1, model="alexnet", arrival_time=0.0,
                      num_steps=10, message_sizes=(1e6,))
        assert ten.estimated_work == pytest.approx(10 * one.estimated_work)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(job_id=0, model="alexnet", arrival_time=0.0, num_nodes=1)
        with pytest.raises(ConfigurationError):
            JobSpec(job_id=0, model="alexnet", arrival_time=0.0, num_steps=0)
        with pytest.raises(ConfigurationError):
            JobSpec(job_id=0, model="alexnet", arrival_time=0.0,
                    message_sizes=(0.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="arrival_time"):
            JobSpec(job_id=0, model="alexnet", arrival_time=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bucket_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="bucket_bytes"):
            JobSpec(job_id=0, model="alexnet", arrival_time=0.0,
                    bucket_bytes=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_message_size_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            JobSpec(job_id=0, model="alexnet", arrival_time=0.0,
                    message_sizes=(1e6, bad))

    def test_nan_arrival_fails_fast_not_forever(self):
        """A NaN arrival used to pass validation and spin the serving
        loop forever; it must now fail at construction.  Run in a child
        so a hang fails the test at the timeout."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = ("from repro.serving import JobSpec, ServingEngine\n"
                "ServingEngine(capacity=8).run([JobSpec(job_id=0, "
                "model='alexnet', arrival_time=float('nan'))])\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "ConfigurationError" in proc.stderr
        assert "arrival_time must be finite" in proc.stderr

    def test_inference_sizes_are_activation_shaped(self):
        sizes = inference_message_sizes(hidden_size=4096, num_layers=3,
                                        batch_size=2, seq_len=8,
                                        dtype_bytes=2)
        assert sizes == (2 * 8 * 4096 * 2,) * 3

    def test_dtype_awareness(self):
        model = get_model("vgg16")
        fp32 = allreduce_message_sizes(model, dtype_bytes=4)
        fp16 = allreduce_message_sizes(model, dtype_bytes=2)
        assert sum(fp32) == 2 * sum(fp16)

    def test_matches_bucketize_gradients(self):
        model = get_model("alexnet")
        assert allreduce_message_sizes(model) == [
            b.nbytes for b in bucketize_gradients(model)]


class TestPoissonTraffic:
    def test_seed_determinism(self):
        a = poisson_traffic(num_jobs=20, arrival_rate=10.0, seed=3)
        b = poisson_traffic(num_jobs=20, arrival_rate=10.0, seed=3)
        assert a == b

    def test_seeds_differ(self):
        a = poisson_traffic(num_jobs=20, arrival_rate=10.0, seed=3)
        b = poisson_traffic(num_jobs=20, arrival_rate=10.0, seed=4)
        assert a != b

    def test_explicit_generator_wins_over_seed(self):
        a = poisson_traffic(num_jobs=10, arrival_rate=5.0, seed=0,
                            rng=np.random.default_rng(11))
        b = poisson_traffic(num_jobs=10, arrival_rate=5.0, seed=999,
                            rng=np.random.default_rng(11))
        assert a == b

    def test_arrivals_sorted_and_ids_unique(self):
        jobs = poisson_traffic(num_jobs=30, arrival_rate=50.0, seed=1)
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)
        assert len({j.job_id for j in jobs}) == 30

    def test_mix_respects_choices(self):
        jobs = poisson_traffic(num_jobs=40, arrival_rate=10.0, seed=2,
                               node_choices=(4, 8), step_bounds=(3, 7),
                               priorities=(5,))
        assert {j.num_nodes for j in jobs} <= {4, 8}
        assert all(3 <= j.num_steps <= 7 for j in jobs)
        assert {j.priority for j in jobs} == {5}


class TestTraceTraffic:
    def test_accepts_mappings_and_sorts(self):
        jobs = trace_traffic([
            {"model": "alexnet", "arrival_time": 2.0},
            {"model": "vgg16", "arrival_time": 1.0, "num_steps": 3},
        ])
        assert [j.model for j in jobs] == ["vgg16", "alexnet"]
        assert jobs[0].num_steps == 3

    def test_accepts_jobspecs(self):
        spec = JobSpec(job_id=7, model="alexnet", arrival_time=0.5)
        assert trace_traffic([spec]) == [spec]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            trace_traffic([
                {"job_id": 1, "model": "alexnet", "arrival_time": 0.0},
                {"job_id": 1, "model": "vgg16", "arrival_time": 1.0},
            ])
