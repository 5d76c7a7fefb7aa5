"""The benchmark workloads: request streams, cold set-up, measured loop
and output checks.

Every workload goes through the public surfaces only: GIS estimates
through :func:`repro.api.prepare` + :meth:`PreparedEstimate.run`, the
service canary through :class:`repro.service.ServiceClient` against an
in-process :class:`repro.service.ServiceApp`.  Request streams are
generated from the benchmark seed; the program sees only the requests.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro import api
from repro.errors import ReproError
from repro.experiments.workloads import get_workload
from repro.highsigma.sigma import pfail_to_sigma
from repro.service import ServiceApp, ServiceClient
from repro.spice.plan import reset_default_plan_cache

__all__ = ["Outcome", "Pass", "make_workload"]

Request = Tuple[int, api.EstimateRequest]


@dataclass
class Outcome:
    """One attempted estimate (or service job) and what came back."""

    index: int
    request: api.EstimateRequest
    result: Optional[api.EstimateResult]
    seconds: float
    error: Optional[str] = None
    envelope: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        res = self.result
        return {
            "index": self.index,
            "workload": self.request.workload,
            "seed": self.request.seed,
            "seconds": self.seconds,
            "error": self.error,
            "p_fail": None if res is None else res.p_fail,
            "std_err": None if res is None else res.std_err,
            "n_evals": None if res is None else res.n_evals,
            "converged": None if res is None else res.converged,
        }


@dataclass
class Pass:
    """The outcomes of one measured loop and its wall time."""

    outcomes: List[Outcome]
    wall_s: float

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.result is not None]

    def requests(self) -> List[Request]:
        return [(o.index, o.request) for o in self.outcomes]


@dataclass(frozen=True)
class Shape:
    """One request shape of a workload and the reference it is checked
    against: ``sigma_ref`` for the circuits, ``p_exact`` (closed form)
    for the analytic canaries."""

    workload: str
    spec: float
    knobs: Mapping[str, Any]
    sigma_ref: float
    p_exact: Optional[float] = None


def seed_stream(seed: int) -> Iterator[int]:
    """Distinct per-request seeds drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    seen = set()
    while True:
        s = int(rng.integers(0, 2**31 - 1))
        if s not in seen:
            seen.add(s)
            yield s


class Workload:
    """Common request generation and checking; subclasses measure."""

    #: Cold set-ups per run; ``setup_s`` is their median.
    setup_samples = 7

    def __init__(
        self, shapes: List[Shape], fields: Mapping[str, Any], nominal_s: float, out_dir: Path
    ):
        self.shapes = shapes
        self.fields = dict(fields)
        self.nominal_s = nominal_s
        self.out_dir = out_dir

    def request(self, shape: Shape, seed: int) -> api.EstimateRequest:
        return api.EstimateRequest(
            workload=shape.workload, spec=shape.spec, seed=seed,
            knobs=dict(shape.knobs), **self.fields,
        )

    def requests(self, seed: int, seconds: float) -> List[Request]:
        """The run's requests: shapes in turn, one fresh seed each.

        The count is ``seconds`` over the workload's nominal seconds per
        estimate, so a run does the same work for a given seed on any
        build and ``evals_per_estimate`` repeats exactly.
        """
        count = max(1, round(seconds / self.nominal_s))
        pairs = zip(seed_stream(seed), itertools.cycle(self.shapes))
        return [
            (index, self.request(shape, s))
            for index, (s, shape) in zip(range(count), pairs)
        ]

    def shape_of(self, request: api.EstimateRequest) -> Shape:
        return next(
            s for s in self.shapes
            if s.workload == request.workload and s.spec == request.spec
        )

    def sigma_error(self, outcome: Outcome) -> float:
        return abs(outcome.result.sigma_level - self.shape_of(outcome.request).sigma_ref)

    def check(self, outcome: Outcome, tolerances: Mapping[str, float]) -> Optional[str]:
        """Why ``outcome`` counts as failed, or None when it passes."""
        if outcome.result is None:
            return outcome.error or "no result"
        res = outcome.result
        if not res.converged:
            return "not converged"
        if not (np.isfinite(res.p_fail) and np.isfinite(res.std_err) and res.std_err > 0):
            return "non-finite or zero-error estimate"
        shape = self.shape_of(outcome.request)
        if shape.p_exact is not None:
            if abs(res.p_fail - shape.p_exact) / res.std_err > tolerances["z_max"]:
                return "p_fail outside z_max standard errors of exact_pfail()"
        elif self.sigma_error(outcome) > tolerances["sigma_tol"]:
            return "sigma outside sigma_tol of the reference"
        return None

    def run_check(self, p: Pass, tolerances: Mapping[str, float]) -> Optional[str]:
        """A check over the whole run (none by default)."""
        return None

    def record(self) -> Dict[str, Any]:
        """Workload settings for the run record beyond the request fields."""
        return {}

    def cold_setup(self) -> float:
        raise NotImplementedError

    def measure(self, requests: List[Request], tracer: Any = None) -> Pass:
        raise NotImplementedError


class GisWorkload(Workload):
    """GIS estimates through ``api.prepare`` + ``PreparedEstimate.run``,
    one after another."""

    def cold_setup(self) -> float:
        """Seconds to prepare every shape from an empty plan cache."""
        reset_default_plan_cache()
        t0 = time.perf_counter()
        for shape in self.shapes:
            api.prepare(self.request(shape, 0))
        return time.perf_counter() - t0

    def measure(self, requests, tracer=None):
        outcomes: List[Outcome] = []
        t_start = time.perf_counter()
        for index, request in requests:
            tag = tracer.tagged(f"est-{index:04d}") if tracer is not None else nullcontext()
            with tag:
                try:
                    prepared = api.prepare(request)
                    t0 = time.perf_counter()
                    result = prepared.run()
                    seconds = time.perf_counter() - t0
                    outcomes.append(Outcome(index, request, result, seconds))
                except ReproError as exc:
                    outcomes.append(Outcome(
                        index, request, None, float("nan"),
                        error=f"{type(exc).__name__}: {exc}",
                    ))
        return Pass(outcomes, time.perf_counter() - t_start)


class CanaryWorkload(Workload):
    """A closed loop of ``clients`` threads against one ServiceApp: each
    client submits a job, polls it every ``POLL_S`` until it settles,
    then submits the next."""

    clients = 2
    #: Client poll interval (seconds) while a job is unsettled.
    POLL_S = 0.002
    JOB_TIMEOUT_S = 60.0
    setup_samples = 25

    def run_check(self, p: Pass, tolerances: Mapping[str, float]) -> Optional[str]:
        """Bias check: the mean of (p_fail - exact) / std_err over the run
        stays near 0.  Single jobs have a heavy low tail (|z| reached
        5.1 in 15000 jobs), so the per-job ``z_max`` alone is loose."""
        z = [
            (o.result.p_fail - self.shape_of(o.request).p_exact) / o.result.std_err
            for o in p.ok
            if o.result.std_err > 0
        ]
        if not z:
            return None
        limit = tolerances["mean_z_slack"] + 5.0 / np.sqrt(len(z))
        if abs(float(np.mean(z))) > limit:
            return f"mean z {np.mean(z):+.3f} over {len(z)} jobs exceeds {limit:.3f}"
        return None

    def record(self) -> Dict[str, Any]:
        return {"clients": self.clients, "poll_interval_s": self.POLL_S}

    def _app(self) -> Tuple[ServiceApp, Path]:
        spool = self.out_dir / f"spool-{os.getpid()}"
        return ServiceApp(workers_total=self.clients, spool_dir=spool), spool

    def cold_setup(self) -> float:
        """Seconds from building the service, on an empty plan cache, to
        the first job of every shape settling: the service's own cold
        ``api.prepare`` plus its start-up.  (Building the service alone
        takes under a millisecond of file-system calls, whose latency
        swung 9x between runs.)"""
        reset_default_plan_cache()
        t0 = time.perf_counter()
        app, spool = self._app()
        try:
            client = ServiceClient(app)
            for shape in self.shapes:
                job = client.submit(self.request(shape, 0))
                client.wait(job["job_id"], timeout=self.JOB_TIMEOUT_S, poll_s=self.POLL_S)
            return time.perf_counter() - t0
        finally:
            app.close()
            shutil.rmtree(spool, ignore_errors=True)

    def _one_job(self, client: ServiceClient, index: int, request) -> Outcome:
        t0 = time.perf_counter()
        try:
            job = client.submit(request)
            final = client.wait(job["job_id"], timeout=self.JOB_TIMEOUT_S, poll_s=self.POLL_S)
            seconds = time.perf_counter() - t0
            if final["status"] != "done":
                error = f"job {final['status']}: {final.get('error')}"
                return Outcome(index, request, None, seconds, error=error, envelope=final)
            result = api.EstimateResult.from_json(final["result"])
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
            return Outcome(index, request, None, float("nan"), error=error)
        return Outcome(index, request, result, seconds, envelope=final)

    def measure(self, requests, tracer=None):
        app, spool = self._app()
        client = ServiceClient(app)
        source = iter(requests)
        lock = threading.Lock()
        outcomes: List[Outcome] = []

        def take() -> Optional[Request]:
            with lock:
                return next(source, None)

        def client_loop() -> None:
            while (item := take()) is not None:
                outcome = self._one_job(client, *item)
                with lock:
                    outcomes.append(outcome)

        t_start = time.perf_counter()
        try:
            with ThreadPoolExecutor(max_workers=self.clients) as pool:
                futures = [pool.submit(client_loop) for _ in range(self.clients)]
                for future in futures:
                    future.result()
            wall = time.perf_counter() - t_start
        finally:
            app.close()
            shutil.rmtree(spool, ignore_errors=True)
        outcomes.sort(key=lambda o: o.index)
        return Pass(outcomes, wall)


def _analytic_shape(workload: str, spec: float, knobs: Mapping[str, Any]) -> Shape:
    p_exact = float(get_workload(workload).factory(spec, **knobs).exact_pfail())
    return Shape(workload, spec, knobs, float(pfail_to_sigma(p_exact)), p_exact)


def make_workload(name: str, refs: Mapping[str, Any], out_dir: Path) -> Workload:
    """Build a named workload from ``references.json``."""
    spec = refs["workloads"][name]
    fields = spec["request"]
    if spec["kind"] == "canary":
        shapes = [_analytic_shape(s["workload"], s["spec"], s["knobs"]) for s in spec["shapes"]]
        return CanaryWorkload(shapes, fields, spec["nominal_s"], out_dir)
    shapes = [
        Shape(s["workload"], s["spec"], s["knobs"], s["sigma_ref"]) for s in spec["shapes"]
    ]
    return GisWorkload(shapes, fields, spec["nominal_s"], out_dir)

