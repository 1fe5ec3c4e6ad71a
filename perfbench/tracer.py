"""Span tracer that wraps a package's public functions from outside.

Every public function of a module (its `__all__`, or its names without a
leading underscore) is replaced by a wrapper wherever it is bound in one of
the package's namespaces, so calls from one module into another are caught.
Each call becomes an in-memory span [function id, parent span, start, end].
A span's self time is its duration minus the durations of its child spans.
"""

import functools
import sys
import time
from types import FunctionType


class Tracer:
    def __init__(self):
        self.names = []   # "layer.function" per wrapped function id
        self.spans = []   # [function id, parent span index or -1, start, end]
        self._stack = []
        # sensing outcomes seen at the outermost sensing call of each session
        self.sessions = self.measured = self.significant = 0
        self.alternations = 0

    def install(self, package):
        """Wrap the public functions of every imported module of package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrappers = {}
        for module in modules:
            public = getattr(module, "__all__", None)
            for attr, fn in vars(module).items():
                if (isinstance(fn, FunctionType) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and (public is None or attr in public)):
                    layer = module.__name__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name == "dictlearn.learn":
            observe = self._observe_learn
        elif name.startswith("sensing."):
            observe = self._observe_session
        else:
            observe = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [fid, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result, parent)
            return result
        return traced

    def _observe_session(self, outcome, parent):
        """Count a sensing outcome once, at the outermost sensing call."""
        if parent >= 0 and self.names[self.spans[parent][0]].startswith("sensing."):
            return
        try:
            m, significant = outcome.log.m, len(outcome.support_estimate)
        except (AttributeError, TypeError):
            return
        self.sessions += 1
        self.measured += m
        self.significant += significant

    def _observe_learn(self, result, parent):
        try:
            self.alternations += len(result[2])
        except (IndexError, KeyError, TypeError):
            pass

    def summary(self):
        """Per-function [calls, self seconds, inclusive seconds], call counts
        per (caller, callee) edge, and the sensing/learning counters."""
        spans, names = self.spans, self.names
        child_time = [0.0] * len(spans)
        for fid, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {name: [0, 0.0, 0.0] for name in names}
        edges = {}
        for i, (fid, parent, start, end) in enumerate(spans):
            stats = functions[names[fid]]
            stats[0] += 1
            stats[1] += end - start - child_time[i]
            stats[2] += end - start
            if parent >= 0:
                edge = f"{names[spans[parent][0]]}>{names[fid]}"
                edges[edge] = edges.get(edge, 0) + 1
        return {"functions": functions, "edges": edges,
                "sensing": [self.sessions, self.measured, self.significant],
                "alternations": self.alternations}
