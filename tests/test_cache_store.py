"""Tests for the disk-backed cross-process cache store."""

import os
import pickle

from repro import units
from repro.caching import LruCache
from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import OpticalRingSystem, Workload, default_optical
from repro.core.cache_store import FORMAT_VERSION, CacheStore
from repro.core.planner import plan_wrht
from repro.core.substrates import (ElectricalSubstrate,
                                   OCSReconfigurableSubstrate,
                                   OpticalRingSubstrate, cache_stats)

SCHED = generate_ring_allreduce(8)
WL = Workload(data_bytes=1 * units.MB)


class TestCacheStore:
    def test_roundtrip(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("ns", {("a", 1): [1, 2, 3], "b": "x"})
        assert store.load("ns") == {("a", 1): [1, 2, 3], "b": "x"}
        assert store.load("other") == {}

    def test_merge_keeps_existing_entries(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("ns", {"a": 1})
        store.merge("ns", {"b": 2})
        assert store.load("ns") == {"a": 1, "b": 2}
        # overriding wins
        store.merge("ns", {"a": 99})
        assert store.load("ns")["a"] == 99

    def test_replace_overwrites(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("ns", {"a": 1, "b": 2})
        store.replace("ns", {"c": 3})
        assert store.load("ns") == {"c": 3}

    def test_version_mismatch_reads_empty(self, tmp_path):
        CacheStore(str(tmp_path), version="v1").merge("ns", {"a": 1})
        assert CacheStore(str(tmp_path), version="v2").load("ns") == {}
        assert CacheStore(str(tmp_path), version="v1").load("ns") == {"a": 1}

    def test_format_mismatch_reads_empty(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("ns", {"a": 1})
        path = store._file("ns")
        with open(path, "wb") as fh:
            pickle.dump({"format": FORMAT_VERSION + 1, "version": "",
                         "namespace": "ns", "items": {"a": 1}}, fh)
        assert store.load("ns") == {}

    def test_corrupt_file_reads_empty(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("ns", {"a": 1})
        with open(store._file("ns"), "wb") as fh:
            fh.write(b"\x80garbage")
        assert store.load("ns") == {}
        # and a merge heals it
        store.merge("ns", {"b": 2})
        assert store.load("ns") == {"b": 2}

    def test_namespaces_and_stats(self, tmp_path):
        store = CacheStore(str(tmp_path))
        assert store.namespaces() == []
        store.merge("alpha", {"a": 1})
        store.merge("beta", {"b": 2, "c": 3})
        assert store.namespaces() == ["alpha", "beta"]
        stats = store.stats()
        assert stats["namespaces"] == {"alpha": 1, "beta": 2}
        assert stats["total_entries"] == 3
        assert stats["total_bytes"] > 0

    def test_clear(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.merge("alpha", {"a": 1})
        store.merge("beta", {"b": 2})
        assert store.clear() == 2
        assert store.namespaces() == []

    def test_no_directory_until_first_write(self, tmp_path):
        target = os.path.join(str(tmp_path), "sub")
        store = CacheStore(target)
        assert store.load("ns") == {}
        assert not os.path.exists(target)
        store.merge("ns", {"a": 1})
        assert os.path.isdir(target)


class TestLruCachePersistenceHooks:
    def test_export_and_warm(self):
        a = LruCache(8)
        a.put("x", 1)
        a.put("y", 2)
        b = LruCache(8)
        assert b.warm(a.export_items()) == 2
        # warming does not touch counters
        assert b.hits == 0 and b.misses == 0
        assert b.get("x") == 1 and b.hits == 1

    def test_warm_skips_none_and_respects_bound(self):
        c = LruCache(2)
        assert c.warm({"a": 1, "b": None, "c": 2, "d": 3}) == 3
        assert len(c) == 2  # LRU-evicted down to the bound


class TestLruCacheAdmission:
    def test_over_bound_values_are_skipped(self):
        c = LruCache(8, admit_cost_bound=2)
        assert c.put("small", 1, cost=2) is True
        assert c.put("big", 2, cost=3) is False
        assert len(c) == 1 and c.skipped == 1
        assert c.get("big") is None  # never stored

    def test_no_bound_admits_everything(self):
        c = LruCache(8)
        assert c.put("x", 1, cost=10 ** 9) is True
        assert c.skipped == 0

    def test_costless_puts_bypass_the_policy(self):
        c = LruCache(8, admit_cost_bound=1)
        assert c.put("x", 1) is True  # no cost declared
        assert c.skipped == 0

    def test_clear_resets_skipped(self):
        c = LruCache(8, admit_cost_bound=1)
        c.put("big", 1, cost=5)
        assert c.skipped == 1
        c.clear()
        assert c.skipped == 0

    def test_stats_carry_skipped(self):
        c = LruCache(8, admit_cost_bound=1)
        c.put("big", 1, cost=5)
        assert c.stats().skipped == 1


class TestPathCachePersistence:
    def test_routed_paths_spill_and_warm(self, tmp_path):
        """The topology routed-path LRU round-trips through the store:
        a warmed substrate re-routes nothing (path-cache misses 0)."""
        store = CacheStore(str(tmp_path))
        hot = ElectricalSubstrate(topology="ring")
        report = hot.execute(SCHED, WL)
        assert any(ns.startswith("topo-paths/")
                   for ns in hot.persistent_caches())
        assert hot.spill_to(store) > 0
        assert any(ns.startswith("topo-paths/")
                   for ns in store.namespaces())

        cold = ElectricalSubstrate(topology="ring")
        cold.warm_from(store)
        assert cold.execute(SCHED, WL) == report
        (topo,) = [sim.topology for sim in cold._sims.values()]
        info = topo.path_cache_info()
        assert info.misses == 0

    def test_circuit_topology_bfs_warm(self, tmp_path):
        """The BFS-heavy OCS circuit topologies ride the same store."""
        from repro.config import default_ocs
        from repro.core.substrates import OCSReconfigurableSubstrate

        store = CacheStore(str(tmp_path))
        system = default_ocs(8)
        hot = OCSReconfigurableSubstrate(system)
        report = hot.execute(SCHED, WL)
        assert hot.spill_to(store) > 0
        assert any(ns.startswith("topo-paths/")
                   for ns in store.namespaces())

        cold = OCSReconfigurableSubstrate(system)
        cold.warm_from(store)
        assert cold.execute(SCHED, WL) == report
        # every circuit topology routed its steps from the warmed cache
        for sim in cold._sims.values():
            assert sim.topology.path_cache_info().misses == 0

    def test_same_signature_topologies_share_one_path_cache(self):
        from repro.config import default_electrical

        base = default_electrical(8).with_(topology="ring")
        other = base.with_(step_latency=base.step_latency * 2)
        sub = ElectricalSubstrate(topology="ring")
        sub._system = base
        sub.execute(SCHED, WL)
        sub._system = other
        sub.execute(SCHED, WL)
        topologies = [sim.topology for sim in sub._sims.values()]
        assert len(topologies) == 2
        assert topologies[0].path_cache is topologies[1].path_cache


class TestSubstrateSpillWarm:
    def test_rwa_cache_spill_and_warm(self, tmp_path):
        store = CacheStore(str(tmp_path))
        system = OpticalRingSystem(num_nodes=8, num_wavelengths=16)
        hot = OpticalRingSubstrate(system)
        report = hot.execute(SCHED, WL)
        assert hot.spill_to(store) > 0

        cold = OpticalRingSubstrate(system)
        assert cold.warm_from(store) > 0
        warmed = cold.execute(SCHED, WL)
        assert warmed == report
        info = cold.rwa_cache_info()
        assert info.misses == 0 and info.hits > 0

    def test_fluid_cache_spill_and_warm(self, tmp_path):
        store = CacheStore(str(tmp_path))
        hot = ElectricalSubstrate(topology="ring")
        report = hot.execute(SCHED, WL)
        assert hot.spill_to(store) > 0

        cold = ElectricalSubstrate(topology="ring")
        cold.warm_from(store)  # simulators are lazy: warmed at creation
        warmed = cold.execute(SCHED, WL)
        assert warmed == report
        info = cold.fluid_cache_info()
        assert info.misses == 0 and info.hits > 0

    def test_spill_without_store_is_noop(self):
        sub = ElectricalSubstrate(topology="ring")
        sub.execute(SCHED, WL)
        assert sub.spill_to() == 0

    def test_spill_is_incremental_per_attached_store(self, tmp_path):
        """Unchanged caches skip the disk rewrite; new work spills."""
        store = CacheStore(str(tmp_path))
        sub = ElectricalSubstrate(topology="ring")
        sub.warm_from(store)
        sub.execute(SCHED, WL)
        assert sub.spill_to() > 0
        assert sub.spill_to() == 0  # nothing new since last spill
        sub.execute(generate_ring_allreduce(6), WL)  # new pattern
        assert sub.spill_to() > 0

    def test_reattaching_a_store_resets_spill_history(self, tmp_path):
        """Entries spilled to store A must still reach a new store B
        (a long-lived substrate re-pointed at a fresh store)."""
        a = CacheStore(str(tmp_path / "a"))
        b = CacheStore(str(tmp_path / "b"))
        sub = ElectricalSubstrate(topology="ring")
        sub.warm_from(a)
        sub.execute(SCHED, WL)
        assert sub.spill_to() > 0
        sub.warm_from(b)
        assert sub.spill_to() > 0
        assert b.stats()["total_entries"] > 0


class TestStoreParityGuarantee:
    def test_warm_and_cold_reports_identical(self, tmp_path):
        """A warmed hit returns exactly what a cold miss computes.

        Each factory runs schedules that exercise the cache it persists
        (fluid patterns, ring RWA, OCS circuit decomposition), and the
        warm instance must serve every lookup of that cache from the
        store.
        """
        store = CacheStore(str(tmp_path))
        wrht = plan_wrht(default_optical(8), WL).schedule
        rd = generate_recursive_doubling(8)
        for factory, kind, schedules in (
                (lambda: ElectricalSubstrate(topology="switch"), "fluid",
                 (SCHED,)),
                (lambda: ElectricalSubstrate(topology="ring"), "fluid",
                 (SCHED,)),
                (OpticalRingSubstrate, "rwa", (SCHED, wrht)),
                (OCSReconfigurableSubstrate, "step", (SCHED, rd))):
            cold = factory()
            baseline = [cold.execute(s, WL) for s in schedules]
            cold.spill_to(store)
            warm = factory()
            warm.warm_from(store)
            assert [warm.execute(s, WL) for s in schedules] == baseline
            stats = cache_stats([warm])[kind]
            assert stats["hits"] > 0 and stats["misses"] == 0
