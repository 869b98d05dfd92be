"""In-memory span recorder that wraps codec functions where callers look them up.

A span records one call: its name, start and end (``time.perf_counter``
seconds), the index of the enclosing span on the same thread (-1 for none),
the operation ("scan") id the benchmark set on that thread, and optional
per-call data such as matrix entries or a returned bound value.  Spans stay in
memory while the benchmark runs and are written out as JSON lines at exit.

Wrapping happens at the module attribute a caller resolves at call time, so
``sgpcodec.encoder.kernel_matrix`` is wrapped separately from
``sgpcodec.decoder.kernel_matrix``; both record under the layer name
``kernel.kernel_matrix``.  Patches are applied only inside ``installed()``, so
code run outside it is untraced and pays nothing.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    scan: str = ""
    thread: int = 0
    data: dict | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Site:
    """One wrapped lookup: module attribute -> layer span name.

    ``data(result, *args, **kwargs)`` returns per-call numbers to keep on the
    span, and ``rename(*args, **kwargs)`` may pick a more specific span name
    from the arguments (for example the M x N triangular solve).
    """

    module: object
    attr: str
    name: str
    data: object = None
    rename: object = None


class Tracer:
    def __init__(self, sites=()):
        self.spans: list[Span] = []
        self.sites = tuple(sites)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def scan(self, scan_id: str):
        """Tag every span opened on this thread inside the block with scan_id."""
        previous = getattr(self._local, "scan", "")
        self._local.scan = scan_id
        try:
            yield
        finally:
            self._local.scan = previous

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span, stack = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        span = Span(name, parent=stack[-1] if stack else -1,
                    scan=getattr(self._local, "scan", ""),
                    thread=threading.get_ident())
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span.start = time.perf_counter()
        return span, stack

    def call(self, site: Site, fn, args, kwargs):
        name = site.rename(*args, **kwargs) if site.rename else site.name
        span, stack = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        finally:
            stack.pop()
        span.end = time.perf_counter()
        if site.data is not None:
            span.data = site.data(result, *args, **kwargs)
        return result

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore."""
        originals = []
        try:
            for site in self.sites:
                original = getattr(site.module, site.attr)
                originals.append((site.module, site.attr, original))
                setattr(site.module, site.attr, self._wrapper(site, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrapper(self, site: Site, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(site, original, args, kwargs)
        return wrapper

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def nesting_problems(self) -> list[str]:
        """Children must lie inside their parent's interval, on its thread."""
        problems = []
        for index, span in enumerate(self.spans):
            if span.parent < 0:
                continue
            parent = self.spans[span.parent]
            if (parent.thread != span.thread or span.start < parent.start
                    or span.end > parent.end):
                problems.append(f"span {index} {span.name} escapes parent "
                                f"{span.parent} {parent.name}")
        return problems

    def summarize(self, keep) -> dict[str, dict]:
        """Per span name: calls, inclusive s, self s, summed data and origins.

        ``keep(span)`` selects the spans counted.  Self time is a span's time
        minus the time of its direct children.  ``origin_errors`` counts
        spans that raised an error none of their children raised, so one
        failure is counted once however many spans it passes through.
        """
        kids = self.children()
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if not keep(span):
                continue
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                               "data": {}, "origin_errors": {}})
            child_spans = [self.spans[c] for c in kids.get(index, ())]
            entry["calls"] += 1
            entry["s"] += span.seconds
            entry["self_s"] += span.seconds - sum(c.seconds for c in child_spans)
            for key, value in (span.data or {}).items():
                entry["data"][key] = entry["data"].get(key, 0) + value
            if span.error and all(c.error != span.error for c in child_spans):
                errors = entry["origin_errors"]
                errors[span.error] = errors.get(span.error, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
