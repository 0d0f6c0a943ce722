"""In-memory call tracer for the benchmark's traced run.

``Tracer.install`` replaces every public function defined in the given
modules by a wrapper that records one span per call: its name
(``<module>.<function>``), start, end and parent span. The wrapper is bound
wherever the original function object is bound, including names imported
into other modules of the package (``cli`` calling ``build_grid``, ``hjb``
calling ``region_from_eta``), so calls made inside the package are traced as
well as calls made by the benchmark. Spans stay in memory; ``dump`` writes
them once. ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    def __init__(self, modules, attrs=None):
        """``modules`` are the layers to wrap. ``attrs`` maps a span name to
        ``hook(args, kwargs, result) -> dict``, stored on the span of every
        call that returns normally."""
        self.modules = list(modules)
        self.attrs = dict(attrs or {})
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self, extra_namespaces=()):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for ns in [*self.modules, *extra_namespaces]:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])

    def uninstall(self):
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        hook = self.attrs.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span["attrs"] = hook(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        where self time is a span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[s["id"]]
        return out

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def total(self, *names) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names)

    def dump(self, path, extra=None):
        doc = {"spans": self.spans, "summary": self.summary()}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh, default=float)
        return path
