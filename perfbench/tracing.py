"""Spans around the calls one vecmatch layer makes into another.

The tracer swaps a module attribute (the name a caller looks up, such as
``vecmatch.matchers.build_column_sum_table``) for a wrapper that records a
span, and puts the original back on ``restore``. Spans stay in memory until
the run writes them out. A name the module no longer has is noted and
records zero calls, so a refactor that stops calling a layer does not break
the benchmark.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter_ns(), 0, parent, self.request, attrs or {})
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``describe(*args, **kwargs)`` may return attributes for the span, such
        as the work the call was given; it runs before the clock starts. If
        the call's arguments no longer fit it, the span just has none.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = None
            if describe:
                try:
                    attrs = describe(*args, **kwargs)
                except (AttributeError, TypeError):
                    pass
            with self.span(name, attrs):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ns
        return own

    def totals(self, name: str) -> tuple[int, int, int]:
        """(calls, busy ns, self ns) summed over every span called ``name``."""
        own = self.self_ns()
        picked = [i for i, s in enumerate(self.spans) if s.name == name]
        return (len(picked), sum(self.spans[i].ns for i in picked),
                sum(own[i] for i in picked))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
