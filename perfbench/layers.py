"""Outside wrappers around each layer's public entry points, for the
traced run only.

Every hook is installed from here, at run time, on the imported
``repro`` modules; nothing under ``src/`` knows about them.  Each
wrapper records a call count and a *self* time: its elapsed time minus
the time spent in other wrapped layers it called.  A call into the
layer that is already on top of the stack (a memory action calling
another memory action) passes straight through, so nothing is counted
twice.  An entry point that no longer exists is skipped and its
metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Optional

# metric prefix -> the entry points timed as that layer, as
# (module, attribute) or (module, "Class.method").  Front-end phases
# are patched where the pipeline looks them up.
LAYERS: Dict[str, List[tuple]] = {
    "cpp.preprocess": [("repro.cpp.preprocessor", "preprocess")],
    "cparser.parse": [("repro.pipeline", "parse_tokens")],
    "ail.desugar": [("repro.pipeline", "desugar")],
    "typing.typecheck": [("repro.pipeline", "typecheck")],
    "elab.elaborate": [("repro.pipeline", "elaborate")],
    "core.check": [("repro.pipeline", "typecheck_program")],
    "statics.collect_unseqs": [("repro.statics", "collect_unseqs"),
                               ("repro.statics.summary",
                                "collect_unseqs")],
    "statics.annotate": [("repro.statics", "analyze_program"),
                         ("repro.statics.summary", "analyze_program")],
    "compile.lower": [("repro.dynamics.compile.lower",
                       "lower_program")],
    "driver.init": [("repro.dynamics.driver", "Driver.__init__")],
    "driver.globals": [("repro.dynamics.driver",
                        "Driver._allocate_globals"),
                       ("repro.dynamics.driver",
                        "Driver._run_global_inits")],
    "driver.run": [("repro.dynamics.driver", "Driver.run")],
    "memory.action": [("repro.memory.base", f"MemoryModel.{m}")
                      for m in ("create", "alloc_region", "kill",
                                "load", "store", "load_bits",
                                "store_bits", "load_bytes",
                                "store_bytes")],
    "explore.self": [("repro.pipeline", "explore_program"),
                     ("repro.dynamics.explore.engine",
                      "explore_program")],
}

# Extra counts read off a layer's arguments or results.
_EXTRA = ("driver.steps", "explore.paths", "explore.pruned")


class LayerClock:
    """Self-time and call-count accumulators for every hooked layer."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.extra: Dict[str, int] = {k: 0 for k in _EXTRA}
        self.installed: set = set()
        self._stack: List[list] = []     # [layer, child seconds]
        self._undo: List[tuple] = []

    def reset(self) -> None:
        for d in (self.self_s, self.calls):
            for k in d:
                d[k] = 0
        for k in self.extra:
            self.extra[k] = 0

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s, calls, extra = self.self_s, self.calls, self.extra
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if layer == "driver.run":
                extra["driver.steps"] += args[0].steps
            elif layer == "explore.self":
                extra["explore.paths"] += result.paths_run
                extra["explore.pruned"] += result.pruned
            return result

        return hooked

    def install(self) -> None:
        """Patch every entry point that exists; remember the rest as
        missing."""
        wrapped: Dict[int, object] = {}
        for layer, points in LAYERS.items():
            for module_name, attr in points:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                owner = module
                name = attr
                if "." in attr:
                    cls_name, name = attr.split(".", 1)
                    owner = getattr(module, cls_name, None)
                fn = getattr(owner, name, None) \
                    if owner is not None else None
                if fn is None:
                    continue
                # One function bound under two names gets one wrapper.
                hook = wrapped.get(id(fn))
                if hook is None:
                    hook = self._wrap(layer, fn)
                    wrapped[id(fn)] = hook
                self._undo.append((owner, name, fn))
                setattr(owner, name, hook)
                self.installed.add(layer)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def snapshot(self) -> Dict[str, float]:
        """Flat metric dict: ``<layer>_s`` self times, call counts
        under the names the benchmark reports, and the extra counts.
        Layers whose entry points were missing are left out."""
        out: Dict[str, float] = {}
        for layer in self.installed:
            out[f"{layer}_s"] = self.self_s.get(layer, 0.0)
        names = {"cpp.preprocess": "cpp.calls",
                 "statics.collect_unseqs":
                     "statics.collect_unseqs_calls",
                 "compile.lower": "compile.lowerings",
                 "driver.run": "driver.runs",
                 "memory.action": "memory.actions"}
        for layer, metric in names.items():
            if layer in self.installed:
                out[metric] = self.calls.get(layer, 0)
        if "driver.run" in self.installed:
            out["driver.steps"] = self.extra["driver.steps"]
        if "explore.self" in self.installed:
            out["explore.paths"] = self.extra["explore.paths"]
            out["explore.pruned"] = self.extra["explore.pruned"]
        return out


def merge(into: Dict[str, float],
          snapshot: Optional[Dict[str, float]]) -> None:
    for k, v in (snapshot or {}).items():
        into[k] = into.get(k, 0) + v
