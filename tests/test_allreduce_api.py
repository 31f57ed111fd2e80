"""Tests for the numerical all-reduce front end."""

import numpy as np
import pytest

from repro.config import default_electrical, default_optical
from repro.core.allreduce_api import allreduce
from repro.errors import ConfigurationError


def ranks(n, shape=(6,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(n)]


class TestNumericalCorrectness:
    @pytest.mark.parametrize("algorithm", ["wrht", "o-ring", "e-ring", "rd"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_result_is_elementwise_sum(self, algorithm, n):
        data = ranks(n)
        expected = np.sum(data, axis=0)
        out = allreduce(data, algorithm=algorithm)
        assert len(out.data) == n
        for arr in out.data:
            np.testing.assert_allclose(arr, expected, rtol=1e-12)

    def test_multidimensional_payload(self):
        data = ranks(4, shape=(3, 5))
        out = allreduce(data, algorithm="wrht")
        np.testing.assert_allclose(out.data[0], np.sum(data, axis=0))
        assert out.data[0].shape == (3, 5)

    def test_single_rank_noop(self):
        data = ranks(1)
        out = allreduce(data)
        np.testing.assert_allclose(out.data[0], data[0])
        assert out.report.num_steps == 0

    def test_report_attached(self):
        out = allreduce(ranks(4), algorithm="wrht")
        assert out.report.total_time > 0
        assert out.report.substrate == "optical-ring"
        assert out.algorithm == "wrht"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce(ranks(2), algorithm="nccl")

    def test_integer_input_promoted(self):
        data = [np.arange(4), np.arange(4)]
        out = allreduce(data, algorithm="rd")
        np.testing.assert_allclose(out.data[0], 2 * np.arange(4))


class TestSystemSize:
    """A given system must have exactly one node per rank array."""

    @pytest.mark.parametrize("algorithm", ["wrht", "o-ring"])
    def test_optical_size_mismatch_rejected(self, algorithm):
        with pytest.raises(ConfigurationError, match="8 nodes but 4"):
            allreduce(ranks(4), algorithm=algorithm,
                      optical=default_optical(8))

    @pytest.mark.parametrize("algorithm", ["e-ring", "rd"])
    def test_electrical_size_mismatch_rejected(self, algorithm):
        with pytest.raises(ConfigurationError, match="8 nodes but 4"):
            allreduce(ranks(4), algorithm=algorithm,
                      electrical=default_electrical(8))

    def test_rejected_before_planning(self, monkeypatch):
        def no_planning(*args, **kwargs):
            raise AssertionError("planned before checking the system")

        monkeypatch.setattr("repro.core.allreduce_api.plan_wrht",
                            no_planning)
        with pytest.raises(ConfigurationError):
            allreduce(ranks(4), optical=default_optical(2))

    @pytest.mark.parametrize("algorithm", ["wrht", "o-ring", "e-ring", "rd"])
    def test_matching_system_accepted(self, algorithm):
        out = allreduce(ranks(4), algorithm=algorithm,
                        optical=default_optical(4),
                        electrical=default_electrical(4))
        np.testing.assert_allclose(out.data[0], np.sum(ranks(4), axis=0))
