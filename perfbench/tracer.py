"""Outside-in tracer: spans around grouper's public functions, from outside the package.

Each traced function is replaced by a wrapper in every ``grouper`` module
that holds a reference to it, because modules import one another's
functions by name (``from .homs import enumerate_homs``).  Calls made
through the package attribute at call time (``homs.find_isomorphism``)
pick up the wrapper as well.

Times are thread CPU seconds (``time.thread_time``).  The suites run
GIL-bound work on a thread pool, where a wall-clock span would also count
the time a thread spends waiting for the other one.  A span's self time is
its duration minus the durations of the spans it directly caused on the
same thread.

A miss is the first call for a given tuple of argument identities.  The
tracer keeps a reference to every argument tuple it has seen, so no id can
be reused by a new object while the trace runs.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class LayerStat:
    calls: int = 0
    misses: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.counters: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen: set = set()
        self._keep: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        """Return a traced copy of ``fn``.

        ``on_result(counters, result, miss)`` runs after each call, under
        the tracer's lock, to add named counts that depend on the result.
        """
        stat = self.stats.setdefault(name, LayerStat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (name,) + tuple(map(id, args)) + tuple(
                (k, id(v)) for k, v in sorted(kwargs.items())
            )
            with self._lock:
                miss = key not in self._seen
                if miss:
                    self._seen.add(key)
                    self._keep.append((args, kwargs))
            stack = self._stack()
            stack.append(0.0)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.thread_time() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += span
                with self._lock:
                    stat.calls += 1
                    stat.misses += miss
                    stat.self_s += span - children
            if on_result is not None:
                with self._lock:
                    on_result(self.counters, result, miss)
            return result

        return traced

    def install(self, owner, attr: str, name: str, on_result=None):
        """Trace ``owner.attr`` and rebind every grouper module's copy of it."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, on_result)
        setattr(owner, attr, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "grouper" or mod_name.startswith("grouper.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
        return traced

    def snapshot(self) -> dict:
        out = {}
        with self._lock:
            for name, st in self.stats.items():
                out[f"{name}.calls"] = st.calls
                out[f"{name}.misses"] = st.misses
                out[f"{name}.self_s"] = st.self_s
            out.update(self.counters)
        return out
