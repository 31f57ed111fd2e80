"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 perfbench/selftest.py            # all, ~30 s
    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's test
suite does not collect the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import SPANS, per_layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / run.OUT_DIR / "selftest"

#: The serving livelock: ``remaining`` stuck just above the completion
#: epsilon while ``remaining x step_time`` is below the float spacing of
#: ``now``, so the event loop never advances (job 440 at t ~ 143 s).
LIVELOCK = """
from repro.serving import ServingEngine, poisson_traffic
jobs = poisson_traffic(num_jobs=700, arrival_rate=3.0, seed=0,
                       node_choices=(4, 8, 16))[:450]
ServingEngine(substrate_name="ocs-reconfig", capacity=32).run(jobs)
print('{"failed": 0}')
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class WatchdogTest(unittest.TestCase):

    def test_hanging_stub_is_killed_and_counted_failed(self):
        stub = "import time\nwhile True:\n    time.sleep(0.05)\n"
        start = time.monotonic()
        child = run.run_child([sys.executable, "-c", stub], deadline=1.0)
        self.assertLess(time.monotonic() - start, 10.0)
        self.assertTrue(child.timed_out)
        self.assertIsNotNone(child.returncode)  # reaped, not left running
        tally = run.Tally(ops=7)
        tally.add(child)
        tally.finish()
        self.assertEqual((tally.attempted, tally.failed), (7, 7))
        self.assertFalse(tally.correct)
        self.assertIn("watchdog", tally.problems[0])

    def test_whole_process_group_is_killed(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        pid_file = SCRATCH / "grandchild.pid"
        stub = ("import subprocess, sys, time\n"
                "p = subprocess.Popen([sys.executable, '-c', "
                "'import time; time.sleep(600)'])\n"
                f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
                "time.sleep(600)\n")
        child = run.run_child([sys.executable, "-c", stub], deadline=2.0)
        self.assertTrue(child.timed_out)
        grandchild = int(pid_file.read_text())
        for _ in range(50):  # SIGKILL delivery is asynchronous
            try:
                os.kill(grandchild, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            self.fail("the grandchild survived the watchdog")

    def test_terminating_the_benchmark_kills_the_measured_run(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        pid_file = SCRATCH / "child.pid"
        pid_file.unlink(missing_ok=True)
        measured = SCRATCH / "measured.py"
        measured.write_text("import os, sys, time\n"
                            "open(sys.argv[1], 'w').write(str(os.getpid()))\n"
                            "time.sleep(600)\n")
        parent = SCRATCH / "parent.py"
        parent.write_text("import signal, sys\n"
                          f"sys.path.insert(0, {str(HERE)!r})\n"
                          "import run\n"
                          "signal.signal(signal.SIGTERM,"
                          " lambda *_: sys.exit(143))\n"
                          "run.run_child([sys.executable, sys.argv[1],"
                          " sys.argv[2]], deadline=600)\n")
        proc = subprocess.Popen([sys.executable, str(parent), str(measured),
                                 str(pid_file)])
        for _ in range(100):
            if pid_file.exists() and pid_file.read_text():
                break
            time.sleep(0.1)
        proc.terminate()
        self.assertEqual(proc.wait(timeout=30), 143)
        child = int(pid_file.read_text())
        for _ in range(50):
            try:
                os.kill(child, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            self.fail("the measured run outlived the benchmark")

    def test_crash_counts_every_operation_failed(self):
        child = run.run_child([sys.executable, "-c", "raise SystemExit(4)"],
                              deadline=10.0)
        self.assertEqual(run.run_failures(child, 16), 16)
        self.assertIn("code 4", run.run_problems(child)[0])

    def test_serving_livelock_is_caught(self):
        # The known defect must show as a failed run, not be avoided.
        child = run.run_child([sys.executable, "-c", LIVELOCK],
                              deadline=15.0, env=_env())
        self.assertIsNone(child.data)
        self.assertEqual(run.run_failures(child, 450), 450)

    def test_differing_digests_fail_every_operation(self):
        tally = run.Tally(ops=3)
        for digest in ("a", "b"):
            tally.add(run.Child(returncode=0, timed_out=False, elapsed=1.0,
                                spawn_epoch=0.0,
                                data={"failed": 0, "digest": digest}))
        tally.finish()
        self.assertEqual((tally.attempted, tally.failed), (6, 6))


class HostSpeedTest(unittest.TestCase):

    def test_samples_are_taken_during_the_work_and_left_out(self):
        import worker
        speed = worker.HostSpeed()
        start = time.perf_counter()
        with speed:
            while time.perf_counter() - start < 1.3:
                sum(range(1000))
        elapsed = time.perf_counter() - start
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertTrue(0.0 < speed.spent < elapsed)
        self.assertGreater(speed.scale(), 0.0)
        self.assertGreaterEqual(len(speed.samples), 3)


class TracerTest(unittest.TestCase):

    def test_self_and_total_time(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        traced = {}

        def inner(n):
            return 1 + (traced["inner"](n - 1) if n else 0)

        traced["inner"] = tracer.wrap("inner", inner)
        outer = tracer.wrap("outer", lambda: traced["inner"](1))
        self.assertEqual(outer(), 2)
        # Clock ticks: outer [0, 5], inner [1, 4], nested inner [2, 3].
        self.assertEqual([s[1:] for s in tracer.spans],
                         [[0.0, 5.0, -1], [1.0, 4.0, 0], [2.0, 3.0, 1]])
        summary = tracer.summary()
        self.assertEqual(summary["outer"],
                         {"calls": 1, "self_s": 2.0, "total_s": 5.0})
        # Recursion: total time counts the outermost inner span once.
        self.assertEqual(summary["inner"],
                         {"calls": 2, "self_s": 3.0, "total_s": 3.0})

    def test_chrome_trace_events(self):
        tracer = Tracer()
        tracer.wrap("a.b", lambda: None)()
        doc = json.loads(json.dumps(tracer.chrome_trace()))
        (event,) = doc["traceEvents"]
        self.assertEqual((event["name"], event["ph"], event["cat"]),
                         ("a.b", "X", "a"))
        self.assertGreaterEqual(event["dur"], 0.0)

    def test_install_patches_callers_and_uninstall_restores(self):
        import repro.core.cost_model as cost_model
        import repro.core.planner as planner
        original = cost_model.wrht_time
        tracer = Tracer()
        patched = tracer.install("core.cost_model.wrht_time",
                                 "repro.core.cost_model", "wrht_time")
        try:
            self.assertGreaterEqual(patched, 2)
            self.assertIsNot(planner.wrht_time, original)
            self.assertIs(planner.wrht_time, cost_model.wrht_time)
        finally:
            tracer.uninstall()
        self.assertIs(planner.wrht_time, original)
        self.assertIs(cost_model.wrht_time, original)

    def test_every_span_resolves(self):
        import repro.cli  # noqa: F401
        tracer = Tracer()
        try:
            for name, module, attr in SPANS:
                self.assertGreater(tracer.install(name, module, attr), 0,
                                   name)
        finally:
            tracer.uninstall()


class ContractTest(unittest.TestCase):

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         per_layer_metrics())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_exits_nonzero_without_the_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "serve_steady", "--seed", "0", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
