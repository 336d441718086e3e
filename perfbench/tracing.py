"""Layer spans for the traced run, recorded from outside the program.

The traced run replaces module-level functions of ``dafm`` by name with thin
wrappers that record a span (name, start, end, parent) per call and feed
counters through per-probe hooks.  Nothing in ``dafm`` is edited, and the
untraced run installs no wrapper at all.  A probe whose function no longer
exists (renamed or removed by a later change) is reported as absent, and
the metrics that need it are left out instead of failing the run.  A hook
that no longer fits its function (say, its return value changed shape)
marks the probe as broken: the metrics its hook feeds are left out and
its captured values dropped, while its span times are still recorded.

Spans stay in memory until the run ends; ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Probe:
    """One layer boundary: a span name and the bindings that carry it.

    ``bindings`` lists ``(module, attribute)`` pairs that all refer to the
    function at the boundary; each binding is wrapped separately, because a
    ``from x import f`` copy in another module is its own name.  ``hook``
    (optional) is called as ``hook(tracer, args, result)`` after a call
    returns normally; it may count, and capture values under ``span``.
    """

    span: str
    bindings: tuple
    hook: object = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span recorder plus counters and captured values for the checks."""

    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (name id, start, end, parent index)
    counters: Counter = field(default_factory=Counter)
    captured: dict = field(default_factory=dict)  # probe span -> values its hook captured
    note: dict = field(default_factory=dict)  # scratch a child span leaves for its parent
    present: set = field(default_factory=set)  # spans with at least one wrapped binding
    absent: list = field(default_factory=list)  # bindings that do not exist
    broken: set = field(default_factory=set)  # spans whose hook raised
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def count(self, key, n=1):
        self.counters[key] += n

    def capture(self, span, value):
        self.captured.setdefault(span, []).append(value)

    def take_captured(self):
        """Captured values per present, unbroken span ([] if none), then reset."""
        out = {span: self.captured.get(span, []) for span in self.present - self.broken}
        self.captured = {}
        return out

    def _wrap(self, fn, probe):
        name_id = self._ids.setdefault(probe.span, len(self._ids))
        if name_id == len(self.names):
            self.names.append(probe.span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if probe.hook is not None and probe.span not in self.broken:
                try:
                    probe.hook(self, args, result)
                except (LookupError, TypeError, AttributeError, ValueError):
                    self.broken.add(probe.span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, probes):
        """Wrap every binding that exists; record the ones that do not."""
        for probe in probes:
            for module_name, attr in probe.bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, probe))
                self._installed.append((module, attr, original))
                self.present.add(probe.span)

    def uninstall(self):
        """Put every original function back, newest wrapper first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def stats(self):
        """Per-span-name call count, inclusive time and self time.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: SpanStats() for name in self.names}
        for idx, (name_id, start, end, _) in enumerate(self.spans):
            st = out[self.names[name_id]]
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_s[idx]
        return out

    def dump(self, path, extra=None):
        """Write spans, per-name totals, counters, absent bindings and broken hooks as JSON."""
        stats = self.stats()
        doc = {
            "names": self.names,
            "spans": self.spans,
            "span_fields": ["name_id", "start_s", "end_s", "parent_index"],
            "summary": {
                name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                for name, st in stats.items()
            },
            "counters": dict(self.counters),
            "absent": self.absent,
            "broken": sorted(self.broken),
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)
