"""In-memory span tracing from outside the program.

The benchmark never edits ``src/``: :class:`Tracer` wraps a layer's
public callable and patches the wrapper into every place a caller looks
the name up — the defining module, every ``repro`` module that imported
the function by name, module-level registries (dicts) that hold it, and
the owning class for methods.  :meth:`Tracer.uninstall` puts every
original back.

Each call records one span ``[name, start, end, parent]`` in a flat
list (``parent`` is the index of the enclosing span, ``-1`` at the
root).  :meth:`Tracer.summary` folds the spans into per-name
``calls`` / ``self_s`` / ``total_s``:

* ``self_s`` — duration minus the part of it covered by direct child
  spans (children nest strictly on one thread, so coverage is the sum
  of their durations);
* ``total_s`` — summed duration of the outermost span of each name, so
  recursion or a ``super()`` chain through the same name is not
  counted twice.

:meth:`Tracer.chrome_trace` exports the spans as Chrome trace-event
JSON (``"ph": "X"`` complete events, microseconds), which Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A hook run before the wrapped call: ``hook(tracer, args, kwargs)``.
Hook = Callable[["Tracer", tuple, dict], None]


class Tracer:
    """Spans and counters recorded by wrappers around layer callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        #: Spans that are the outermost of their name (for ``total_s``).
        self._outermost: List[bool] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, before: Optional[Hook] = None
             ) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``."""
        clock = self.clock
        spans = self.spans
        stack = self._stack
        active = self._active
        outermost = self._outermost

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            depth = active.get(name, 0)
            outermost.append(depth == 0)
            active[name] = depth + 1
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                active[name] = depth

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, name: str, module: str, attr: str,
                before: Optional[Hook] = None) -> int:
        """Trace ``module.attr`` (``attr`` may be ``Class.method``).

        A method is patched on its owning class, which is where every
        instance looks it up.  A function is patched in every loaded
        ``repro`` module whose globals hold the same object, and
        in every module-level dict holding it as a value.  Returns the
        number of places patched; ``0`` means nothing would record.
        """
        owner: Any = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        wrapped = self.wrap(name, original, before)
        if path:
            self._set(owner, leaf, wrapped)
            return 1
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
                    patched += 1
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapped, item=True)
                            patched += 1
        return patched

    def _set(self, container: Any, key: Any, value: Any,
             item: bool = False) -> None:
        old = container[key] if item else vars(container)[key]
        self._patches.append((container, key, old, item))
        if item:
            container[key] = value
        else:
            setattr(container, key, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            container, key, old, item = self._patches.pop()
            if item:
                container[key] = old
            else:
                setattr(container, key, old)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` over all spans."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_cover[idx]
            if self._outermost[idx]:
                row["total_s"] += end - start
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document (one thread)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                   "args": {"span": idx, "parent": parent}}
                  for idx, (name, start, end, parent)
                  in enumerate(self.spans)]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"counters": dict(self.counters)}}
