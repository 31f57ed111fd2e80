"""Disk-backed cross-process cache store.

The in-memory memoization caches (the ring's RWA cache, the OCS
decomposition step cache, the fluid simulators' pattern caches) are
process-local, so separate runs re-solve identical subproblems.
:class:`CacheStore` closes that gap: a directory of pickled
*namespaces* that substrates spill to
(:meth:`~repro.core.substrates.base.Substrate.spill_to`) and warm from
(:meth:`~repro.core.substrates.base.Substrate.warm_from`), so one
process's solve is every process's hit.

Correctness contract
--------------------
Only caches whose values are **pure deterministic functions of their
keys** may be persisted — a warmed hit must return exactly what the
miss path would compute, so results never depend on cache history (the
warm-vs-cold store parity tests pin this).  Every cache wired through
the substrates honours it.

Robustness
----------
* files are written via temp + :func:`os.replace`, so readers never see
  a torn file;
* :meth:`merge` is read-modify-replace: concurrent writers can lose
  races (last writer wins) but never corrupt the store — losing a cache
  entry only costs a future re-solve;
* every file carries a format version and the store's config
  ``version`` string; mismatching or unreadable files are treated as
  empty (a cache can always be recomputed).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Any, Dict, List, Optional

#: Bump when the on-disk layout changes; mismatching files are ignored.
FORMAT_VERSION = 1


class CacheStore:
    """A directory of pickled cache namespaces.

    Parameters
    ----------
    path:
        Store directory (created on first write).
    version:
        Free-form configuration signature.  Namespaces written under a
        different version are treated as empty — bump it (or derive it
        from the experiment config) to invalidate stale caches
        wholesale.  Defaults to the package version, so a store kept
        across an upgrade whose code computes different values is
        discarded rather than served stale.
    """

    def __init__(self, path: str, version: Optional[str] = None) -> None:
        if version is None:
            from .. import __version__

            version = f"repro-{__version__}"
        self.path = os.fspath(path)
        self.version = str(version)

    # -- key/value API -------------------------------------------------------

    def load(self, namespace: str) -> Dict[Any, Any]:
        """Every entry of ``namespace`` (``{}`` when absent/stale)."""
        payload = self._read(self._file(namespace))
        if payload is None:
            return {}
        return payload["items"]

    def merge(self, namespace: str, items: Dict[Any, Any]) -> int:
        """Fold ``items`` into ``namespace`` on disk (atomic replace).

        Existing entries are kept unless ``items`` overrides them.
        Returns the resulting namespace size.
        """
        if not items:
            existing = self.load(namespace)
            return len(existing)
        merged = self.load(namespace)
        merged.update(items)
        self._write(self._file(namespace), namespace, merged)
        return len(merged)

    def replace(self, namespace: str, items: Dict[Any, Any]) -> None:
        """Overwrite ``namespace`` with exactly ``items``."""
        self._write(self._file(namespace), namespace, items)

    def clear(self) -> int:
        """Delete every namespace file; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.path):
            return removed
        for name in os.listdir(self.path):
            if name.endswith(".pkl"):
                try:
                    os.remove(os.path.join(self.path, name))
                    removed += 1
                except OSError:  # pragma: no cover - racing deleter
                    pass
        return removed

    # -- introspection -------------------------------------------------------

    def namespaces(self) -> List[str]:
        """Readable namespaces currently in the store (sorted)."""
        found = []
        if not os.path.isdir(self.path):
            return found
        for name in os.listdir(self.path):
            if not name.endswith(".pkl"):
                continue
            payload = self._read(os.path.join(self.path, name))
            if payload is not None:
                found.append(payload["namespace"])
        return sorted(found)

    def stats(self) -> Dict[str, Any]:
        """Summary: per-namespace entry counts and total bytes on disk."""
        entries: Dict[str, int] = {}
        total_bytes = 0
        if os.path.isdir(self.path):
            for name in os.listdir(self.path):
                if not name.endswith(".pkl"):
                    continue
                full = os.path.join(self.path, name)
                payload = self._read(full)
                if payload is None:
                    continue
                entries[payload["namespace"]] = len(payload["items"])
                try:
                    total_bytes += os.path.getsize(full)
                except OSError:  # pragma: no cover - racing deleter
                    pass
        return {"path": self.path, "version": self.version,
                "namespaces": dict(sorted(entries.items())),
                "total_entries": sum(entries.values()),
                "total_bytes": total_bytes}

    # -- internals -----------------------------------------------------------

    def _file(self, namespace: str) -> str:
        digest = hashlib.sha1(namespace.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.path, f"{digest}.pkl")

    def _read(self, path: str) -> Any:
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            # A cache can always be recomputed: any unreadable file
            # (truncated write, foreign pickle, stale class) is empty.
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != FORMAT_VERSION:
            return None
        if payload.get("version") != self.version:
            return None
        if "namespace" not in payload or "items" not in payload:
            return None
        return payload

    def _write(self, path: str, namespace: str,
               items: Dict[Any, Any]) -> None:
        os.makedirs(self.path, exist_ok=True)
        payload = {"format": FORMAT_VERSION, "version": self.version,
                   "namespace": namespace, "items": items}
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
