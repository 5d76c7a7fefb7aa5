"""Spans around the public entry points of each ``repro`` layer.

The benchmark measures ``repro`` from outside: :func:`instrument`
replaces each layer's entry point (a class or module attribute) with a
wrapper that records a span, runs the original unchanged and returns
its result, and puts every original back on exit.  Spans are kept in
memory and written out when the run ends.

Layers, modules and wrapped entry points:

==========  ============================  =====================================
layer       module                        entry points
==========  ============================  =====================================
api         repro.api                     prepare, PreparedEstimate.run
plan        repro.spice.plan / .compile   PlanCache.get, PlanCache.put,
                                          CompiledTransient.__init__
mpfp        repro.highsigma.mpfp          MpfpSearch.run
estimators  repro.highsigma.estimators    MeanShiftISCore.run
sharding    repro.engine.sharding         ShardedRunner.run_shards
limitstate  repro.highsigma.limitstate    LimitState.g_batch, LimitState.metric
compile     repro.spice.compile           CompiledTransient.run
service     repro.service                 ServiceApp.handle_json (by route),
                                          JobExecutor.submit,
                                          JobStore.mark_running/done/failed
==========  ============================  =====================================

``compile_cached`` is deliberately not wrapped: the ``repro.sram``
modules import it by name, so a wrapper on the module attribute would
see no calls.  Fork-pool workers inherit the wrappers but their spans
stay in the worker; the parent sees pooled sampling only as
``sharding.dispatch``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "instrument", "restored", "self_times"]


@dataclass
class Span:
    """One timed call: name, interval, causing span and request tag."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str]
    phase: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "tag": self.tag,
            "phase": self.phase,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder.

    The parent of a span is the innermost span open on the same thread.
    ``tag`` names the estimate or job a span belongs to: the caller sets
    it on its own thread with :meth:`tagged`; service worker threads
    pick it up from the job they mark running.  ``phase`` labels spans
    of the cold set-up apart from the measured loop.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "loop"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self) -> Optional[str]:
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value: Optional[str]) -> None:
        self._local.tag = value

    @contextmanager
    def tagged(self, tag: str) -> Iterator[None]:
        previous, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=stack[-1].span_id if stack else None,
            tag=self.tag,
            phase=self.phase,
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

#: ``attrs(args, result)`` -> span attributes read off a call.
AttrFn = Callable[[Tuple[Any, ...], Any], Dict[str, Any]]


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Optional[AttrFn] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

    return wrapper


def _route(method: str, path: str) -> Tuple[str, Optional[str]]:
    """Span name and job id of a service request."""
    path = path.rstrip("/")
    if method.upper() == "POST" and path == "/v1/jobs":
        return "service.submit", None
    if method.upper() == "GET" and path.startswith("/v1/jobs/"):
        return "service.poll", path[len("/v1/jobs/"):]
    return "service.other", None


def _service_wrapper(tracer: Tracer, fn: Callable):
    @functools.wraps(fn)
    def handle_json(self, method, path, body=None):
        name, job_id = _route(method, path)
        with tracer.span(name) as span:
            status, payload = fn(self, method, path, body)
            if job_id is None and isinstance(payload, dict):
                job_id = payload.get("job_id")
            span.tag = job_id
            span.attrs["status"] = status
            return status, payload

    return handle_json


def _job_marker(tracer: Tracer, name: str, fn: Callable, starts: bool):
    """Wrap a JobStore transition: it sets (or clears) the worker
    thread's tag, so the job's prepare/run spans carry its id."""

    @functools.wraps(fn)
    def mark(self, job, *args, **kwargs):
        if starts:
            tracer.tag = job.job_id
        try:
            with tracer.span(name) as span:
                span.tag = job.job_id
                return fn(self, job, *args, **kwargs)
        finally:
            if not starts:
                tracer.tag = None

    return mark


def _entry_points(tracer: Tracer) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    from repro import api
    from repro.engine.sharding import ShardedRunner
    from repro.highsigma.estimators import MeanShiftISCore
    from repro.highsigma.limitstate import LimitState
    from repro.highsigma.mpfp import MpfpSearch
    from repro.service.app import ServiceApp
    from repro.service.executor import JobExecutor
    from repro.service.jobs import JobStore
    from repro.spice.compile import CompiledTransient
    from repro.spice.plan import PlanCache

    def span(name: str, attrs: Optional[AttrFn] = None):
        return lambda fn: _wrap(tracer, name, fn, attrs)

    def mpfp_attrs(args, res):
        return {"evals": res.n_evals, "iterations": res.iterations}

    def sample_attrs(args, res):
        diag = res.diagnostics
        return {
            "samples": diag.get("n_sampling", 0),
            "topup_samples": diag.get("topup_samples", 0),
        }

    def dispatch_attrs(args, res):
        runner = args[0]
        return {
            "shards": len(res),
            "retries": int(runner.last_diagnostics.get("retries", 0)),
        }

    def batch_attrs(args, res):
        return {"rows": int(len(res))}

    def run_attrs(args, res):
        return {
            "rows": int(res.n),
            "sample_steps": int(res.n_sample_steps),
            "nonconverged": int((~res.converged).sum()),
        }

    def get_attrs(args, res):
        return {"hit": res is not None}

    return [
        (api, "prepare", span("api.prepare")),
        (api.PreparedEstimate, "run", span("api.run")),
        (PlanCache, "get", span("plan.get", get_attrs)),
        (PlanCache, "put", span("plan.put")),
        (CompiledTransient, "__init__", span("plan.compile")),
        (MpfpSearch, "run", span("mpfp.search", mpfp_attrs)),
        (MeanShiftISCore, "run", span("estimators.sample", sample_attrs)),
        (ShardedRunner, "run_shards", span("sharding.dispatch", dispatch_attrs)),
        (LimitState, "g_batch", span("limitstate.g_batch", batch_attrs)),
        (LimitState, "metric", lambda fn: _scalar_hit_wrapper(tracer, fn)),
        (CompiledTransient, "run", span("compile.run", run_attrs)),
        (ServiceApp, "handle_json", lambda fn: _service_wrapper(tracer, fn)),
        (JobExecutor, "submit", span("service.enqueue")),
        (JobStore, "mark_running", lambda fn: _job_marker(tracer, "service.start", fn, True)),
        (JobStore, "mark_done", lambda fn: _job_marker(tracer, "service.spool", fn, False)),
        (JobStore, "mark_failed", lambda fn: _job_marker(tracer, "service.fail", fn, False)),
    ]


def _scalar_hit_wrapper(tracer: Tracer, fn: Callable):
    """``LimitState.metric`` with a cache-hit flag: a hit leaves the
    evaluation counter untouched."""

    @functools.wraps(fn)
    def metric(self, u):
        with tracer.span("limitstate.metric") as span:
            before = self.n_evals
            value = fn(self, u)
            span.attrs["hit"] = self.n_evals == before
            return value

    return metric


@contextmanager
def instrument(tracer: Tracer) -> Iterator[List[Tuple[Any, str, Callable]]]:
    """Install every wrapper; restore every original on exit.

    Yields the ``(owner, attribute, original)`` list so callers can check
    the restore (:func:`restored`).
    """
    patched: List[Tuple[Any, str, Callable]] = []
    try:
        for owner, attr, factory in _entry_points(tracer):
            original = owner.__dict__[attr]
            setattr(owner, attr, factory(original))
            patched.append((owner, attr, original))
        yield patched
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def restored(patched: List[Tuple[Any, str, Callable]]) -> bool:
    """Whether every patched attribute is its original object again."""
    return all(owner.__dict__[attr] is original for owner, attr, original in patched)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus that of its direct children;
    children run on the parent's thread, so they never overlap.
    """
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s.seconds
        row["self_s"] += s.seconds - child_time.get(s.span_id, 0.0)
    return out
