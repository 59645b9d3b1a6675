"""In-memory span tracer for the traced run.

Wrappers are installed on module attributes where the caller looks the name
up at call time (``topclose.engine.reachability_for``, both imports of
``connected_components``, ...), so nothing under ``src/`` changes. A name
that a later version removes or renames is recorded as missing and left
alone; the run still completes.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)  # last return value per span name
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``; keeps its return value."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()
        self.results[name] = out
        return out

    def wrap(self, module: str, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a span-recording wrapper."""
        try:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        self._undo.append((mod, attr, original))
        setattr(mod, attr, wrapper)

    def unwrap(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def total(self, name: str) -> float | None:
        """Summed duration of every span with this name; None if none ran."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return sum(durations) if durations else None

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float | None:
        """Duration minus the time its direct children cover (children run
        nested and in sequence, so their durations do not overlap)."""
        idx = [i for i, s in enumerate(self.spans) if s.name == name]
        if not idx:
            return None
        own = sum(self.spans[i].end - self.spans[i].start for i in idx)
        children = sum(s.end - s.start for s in self.spans if s.parent in idx)
        return own - children

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]
