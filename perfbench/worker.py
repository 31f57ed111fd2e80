"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run and kills it if it
overruns its deadline.  It prints one JSON object on its last stdout
line:

* ``ready_epoch`` — wall clock when set-up finished (the parent
  subtracts its spawn time, so set-up counts from a fresh interpreter);
* ``scale`` — the host-speed factor (below); the parent rescales
  set-up by it too;
* ``import_s`` — ``import repro.cli`` alone;
* with ``--mode run`` or ``--mode trace`` also ``wall_s`` (rescaled),
  ``wall_raw_s``, ``failed``, ``problems``, the outcomes (``times``,
  ``span``, ``extra``, ``digest``), ``caches`` and ``peak_rss_mb``;
  ``--mode trace`` adds ``layers`` (per-span calls, self and total
  seconds, counters) and writes the spans as Chrome trace-event JSON
  to ``--trace-out``.

Host speed.  The shared host's speed drifts by up to 40% either way
over seconds to minutes, in steps that averaging inside one run does
not remove.  So while the work runs, :class:`HostSpeed` times a fixed
reference loop every :data:`SAMPLE_EVERY_S` seconds, from a timer
signal between two bytecodes of the work.  ``wall_s`` is the work's
own seconds (the samples' time taken out, kept as ``wall_raw_s``)
times ``scale`` = :data:`REF_S` over the samples' trimmed mean: the time
the work would take on a host where one repetition of the loop takes
:data:`REF_S` seconds.  A change to the program moves ``wall_s`` as it
moves the unscaled time; a change of host speed mostly cancels.

Usage::

    PYTHONPATH=src python3 perfbench/worker.py --workload serve_steady \
        --seed 0 --part 0 --mode run
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import QUEUE_SCANNED, SPANS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: Nominal seconds of one reference repetition.
REF_S = 0.025
#: Seconds between two host-speed samples during the timed work.
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Seconds one repetition of a fixed, interpreter-bound loop (dict
    updates, float arithmetic, a keyed sort) takes now.  The collector
    is off meanwhile, so a repetition never collects the work's
    garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(100_000):
            key = i % 61
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += table[key] / (key + 1.0)
        sorted(table.items(), key=lambda kv: kv[1])
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Samples the host's speed while the work runs: every
    :data:`SAMPLE_EVERY_S` seconds a ``SIGALRM`` handler times one
    :func:`reference` repetition between two bytecodes of the work."""

    def __init__(self) -> None:
        self.samples: list = []
        #: Seconds the samples took, to take out of the work's time.
        self.spent = 0.0

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """:data:`REF_S` over the mean sample, leaving out the fastest
        and slowest tenth (more samples are taken first if the work was
        too short to get three).  A mean, not a median: the work's time
        sums its slowness over the run, so the run's average slowness
        is what cancels."""
        while len(self.samples) < 3:
            self.samples.append(reference())
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REF_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def _count_queue(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.count(QUEUE_SCANNED, args[0].queue_depth)


def install_spans(tracer: Tracer) -> None:
    """Wrap every callable of :data:`layers.SPANS`."""
    hooks = {"serving.scheduler.admit_from_queue": _count_queue}
    for name, module, attr in SPANS:
        if not tracer.install(name, module, attr, before=hooks.get(name)):
            raise RuntimeError(f"span {name}: {module}.{attr} is "
                               f"referenced nowhere")


def _times(elapsed: float, speed: HostSpeed) -> dict:
    raw = elapsed - speed.spent
    scale = speed.scale()
    return {"wall_s": raw * scale, "wall_raw_s": raw, "scale": scale,
            "speed_samples_s": speed.samples}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run", "trace"),
                   default="run")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the commands' entry module)
    out = {"import_s": time.perf_counter() - t0}
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.part)
    out["ready_epoch"] = time.time()
    speed = HostSpeed()
    if args.mode == "setup":
        out["scale"] = speed.scale()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        # Speed samples would land inside the spans: take none during
        # the work, so this run's scale comes from samples after it.
        tracer = Tracer()
        install_spans(tracer)
    start = time.perf_counter()
    try:
        with speed if tracer is None else contextlib.nullcontext():
            result = workload.run(state)
    except Exception:  # a raising run is a failed run, not a crash
        out.update(_times(time.perf_counter() - start, speed))
        out["failed"] = workload.ops
        out["problems"] = [traceback.format_exc()]
        print(json.dumps(out))
        return 0
    out.update(_times(time.perf_counter() - start, speed))
    if tracer is not None:
        tracer.uninstall()

    from repro.core.substrates.registry import cache_stats
    out["failed"], out["problems"] = workload.check(state, result)
    out.update(workload.outcomes(state, result))
    out["caches"] = cache_stats()
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tracer is not None:
        out["layers"] = {"spans": tracer.summary(),
                         "counters": dict(tracer.counters)}
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.chrome_trace(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
