"""In-memory span tracing around the public calls between layers.

The tracer replaces, for the duration of a ``with Tracer(...)`` block, the
names one layer uses to call the next, as seen from the calling module
(``darkstate_sim.montecarlo.conditional_state``, the names ``cli`` imports,
...), with wrappers that record a span: name, start, end, parent span, the
top-level operation it belongs to, and a work count.  Spans are appended
under a lock and the parent stack is thread-local, so spans recorded inside
``run_ensemble``'s thread pool are kept and attributed to the operation that
was open when the pool started.  Nothing inside ``darkstate_sim`` is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time

import numpy as np

import darkstate_sim
from darkstate_sim import cli, entanglement, montecarlo, propagator


@dataclasses.dataclass
class Span:
    ident: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    count: int = 0
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(args, kwargs, index: int = 1, key: str = "t") -> int:
    value = kwargs.get(key, args[index] if len(args) > index else None)
    return int(np.size(value)) if value is not None else 0


class Tracer:
    """Records spans while active; ``spans`` holds them afterwards."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op: Span | None = None
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None, count: int = 0, tag: str = ""):
        kwargs = kwargs or {}
        stack = self._stack()
        # A span opened on a pool thread has no local parent: it belongs to
        # the operation that started the pool.
        parent = stack[-1] if stack else self._op
        span = Span(
            ident=next(self._ids),
            parent=parent.ident if parent else None,
            op=(parent.op if parent.op is not None else parent.ident) if parent else None,
            name=name,
            start=0.0,
            count=count,
            tag=tag,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def operation(self, name: str, fn, count: int = 0, tag: str = ""):
        """Run one top-level benchmark operation as a root span."""
        stack = self._stack()
        span = Span(ident=next(self._ids), parent=None, op=None, name=name, start=0.0, count=count, tag=tag)
        self._op = span
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._op = None
            with self._lock:
                self.spans.append(span)

    # -- installing wrappers ---------------------------------------------
    def _patch(self, owner, attr: str, name: str, counter=None, tagger=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            tag = tagger(args, kwargs) if tagger else ""
            return tracer.span(name, original, args, kwargs, count=count, tag=tag)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _patch_classmethod(self, cls, attr: str, name: str):
        original = cls.__dict__[attr]
        bound = getattr(cls, attr)
        tracer = self

        def wrapper(klass, *args, **kwargs):
            return tracer.span(name, bound, args, kwargs)

        setattr(cls, attr, classmethod(wrapper))
        self._restore.append((cls, attr, original))

    def _patch_build_parser(self):
        original = cli.build_parser
        tracer = self

        def build_parser():
            parser = tracer.span("cli.parse", original)
            parse_args = parser.parse_args
            parser.parse_args = lambda *a, **k: tracer.span("cli.parse", parse_args, a, k)
            return parser

        cli.build_parser = build_parser
        self._restore.append((cli, "build_parser", original))

    def __enter__(self) -> "Tracer":
        count_t = functools.partial(_points, index=1, key="t")
        # Calls made by the benchmark itself, through the package namespace.
        self._patch(darkstate_sim, "run_ensemble", "montecarlo.run_ensemble",
                    counter=lambda a, k: int(k.get("n", a[1] if len(a) > 1 else 0)))
        self._patch(darkstate_sim, "emission_probabilities", "propagator.emission_probabilities", counter=count_t)
        self._patch(darkstate_sim, "conditional_state", "propagator.conditional_state", counter=count_t)
        self._patch(darkstate_sim, "mixture_at", "entanglement.mixture_at")
        self._patch_classmethod(darkstate_sim.Propagator, "from_parameters", "propagator.build")
        self._patch(darkstate_sim.Propagator, "matrix", "propagator.matrix", counter=count_t,
                    tagger=lambda a, k: a[0].method)
        self._patch(cli, "main", "cli.main")
        # montecarlo -> propagator.
        self._patch(montecarlo, "simulate_trajectories", "montecarlo.simulate_trajectories",
                    counter=lambda a, k: int(k.get("count", a[3] if len(a) > 3 else 0)))
        self._patch(montecarlo, "conditional_state", "propagator.conditional_state", counter=count_t)
        # propagator -> model, entanglement -> propagator.
        self._patch(propagator, "conditional_generator", "model.conditional_generator")
        self._patch(entanglement, "emission_probabilities", "propagator.emission_probabilities", counter=count_t)
        # cli -> entanglement, montecarlo, propagator.
        self._patch_build_parser()
        self._patch(cli, "mixture_asymptotic", "entanglement.mixture_asymptotic")
        self._patch(cli, "relative_entropy_of_entanglement", "entanglement.entropy")
        self._patch(cli, "repump_round", "entanglement.repump_round")
        self._patch(cli, "run_ensemble", "montecarlo.run_ensemble",
                    counter=lambda a, k: int(a[1]) if len(a) > 1 else 0)
        self._patch(cli, "conditional_state", "propagator.conditional_state", counter=count_t)
        self._patch(cli, "emission_probabilities", "propagator.emission_probabilities", counter=count_t)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Parent/child lookups and self times over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.ident: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def kids(self, span: Span) -> list[Span]:
        return self.children.get(span.ident, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        inside = [(max(c.start, span.start), min(c.end, span.end)) for c in self.kids(span)]
        return span.duration - covered([iv for iv in inside if iv[1] > iv[0]])

    def root(self, span: Span) -> Span:
        return self.by_id[span.op] if span.op is not None else span

    def select(self, name: str, workload: str) -> list[Span]:
        """Spans called ``name`` inside operations of ``workload``."""
        prefix = workload + ":"
        return [s for s in self.spans if s.name == name and self.root(s).name.startswith(prefix)]
