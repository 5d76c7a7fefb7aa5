"""Per-layer metrics from the spans of a traced pass.

Conventions: ``plan.compiles``, ``plan.compile_s`` and
``plan.cache_misses`` are per cold set-up (the set-up is where
compiling belongs); every other count and ``_s`` metric is per
estimate (per job on the service canary), summed over the traced loop
and divided by its estimate count.  ``_s`` metrics are inclusive span
seconds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.tracing import Span

__all__ = ["LAYER_METRICS", "layer_metrics"]

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("api.prepare_s", "s"),
    ("api.run_s", "s"),
    ("plan.compiles", "count"),
    ("plan.compile_s", "s"),
    ("plan.cache_hits", "count"),
    ("plan.cache_misses", "count"),
    ("mpfp.search_s", "s"),
    ("mpfp.evals", "count"),
    ("mpfp.iterations", "count"),
    ("estimators.sample_s", "s"),
    ("estimators.samples", "count"),
    ("estimators.topup_samples", "count"),
    ("sharding.dispatch_s", "s"),
    ("sharding.shards", "count"),
    ("sharding.retries", "count"),
    ("limitstate.batch_calls", "count"),
    ("limitstate.batch_rows", "count"),
    ("limitstate.batch_s", "s"),
    ("limitstate.scalar_calls", "count"),
    ("limitstate.cache_hit_frac", "fraction"),
    ("compile.run_calls", "count"),
    ("compile.rows_per_call", "count"),
    ("compile.run_s", "s"),
    ("compile.sample_steps", "count"),
    ("compile.us_per_sample_step", "us"),
    ("compile.nonconverged", "count"),
    ("service.submit_s", "s"),
    ("service.poll_s", "s"),
    ("service.polls_per_job", "count"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.spool_s", "s"),
    ("trace.estimates", "count"),
    ("trace.overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span], traced, base) -> Dict[str, Tuple[float, str]]:
    """Compute :data:`LAYER_METRICS` for a traced pass.

    ``traced`` and ``base`` are the traced and untraced
    :class:`~perfbench.workloads.Pass` over the same requests.
    """
    setup = [s for s in spans if s.phase == "setup"]
    loop = [s for s in spans if s.phase == "loop"]
    n = max(1, len(traced.outcomes))

    def named(name: str, pool: List[Span] = loop) -> List[Span]:
        return [s for s in pool if s.name == name]

    def secs(name: str, pool: List[Span] = loop) -> float:
        return sum(s.seconds for s in named(name, pool))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    def mean_secs(name: str) -> float:
        picked = named(name)
        return _ratio(sum(s.seconds for s in picked), len(picked))

    scalar = named("limitstate.metric")
    runs = named("compile.run")
    rows = attr("compile.run", "rows")
    steps = attr("compile.run", "sample_steps")
    envelopes = [o.envelope for o in traced.outcomes if o.envelope is not None]
    queue_wait = [e["started_s"] - e["submitted_s"] for e in envelopes if e["started_s"]]
    exec_s = [e["finished_s"] - e["started_s"] for e in envelopes if e["started_s"]]
    base_s = [o.seconds for o in base.ok]
    traced_s = [o.seconds for o in traced.ok]

    values = {
        "api.prepare_s": secs("api.prepare") / n,
        "api.run_s": secs("api.run") / n,
        "plan.compiles": float(len(named("plan.compile", setup))),
        "plan.compile_s": secs("plan.compile", setup),
        "plan.cache_hits": sum(1 for s in loop if s.name == "plan.get" and s.attrs.get("hit")) / n,
        "plan.cache_misses": float(
            sum(1 for s in setup if s.name == "plan.get" and not s.attrs.get("hit"))
        ),
        "mpfp.search_s": secs("mpfp.search") / n,
        "mpfp.evals": attr("mpfp.search", "evals") / n,
        "mpfp.iterations": attr("mpfp.search", "iterations") / n,
        "estimators.sample_s": secs("estimators.sample") / n,
        "estimators.samples": attr("estimators.sample", "samples") / n,
        "estimators.topup_samples": attr("estimators.sample", "topup_samples") / n,
        "sharding.dispatch_s": secs("sharding.dispatch") / n,
        "sharding.shards": attr("sharding.dispatch", "shards") / n,
        "sharding.retries": attr("sharding.dispatch", "retries") / n,
        "limitstate.batch_calls": len(named("limitstate.g_batch")) / n,
        "limitstate.batch_rows": attr("limitstate.g_batch", "rows") / n,
        "limitstate.batch_s": secs("limitstate.g_batch") / n,
        "limitstate.scalar_calls": len(scalar) / n,
        "limitstate.cache_hit_frac": _ratio(
            sum(1 for s in scalar if s.attrs.get("hit")), len(scalar)
        ),
        "compile.run_calls": len(runs) / n,
        "compile.rows_per_call": _ratio(rows, len(runs)),
        "compile.run_s": secs("compile.run") / n,
        "compile.sample_steps": steps / n,
        "compile.us_per_sample_step": _ratio(1e6 * secs("compile.run"), steps),
        "compile.nonconverged": attr("compile.run", "nonconverged") / n,
        "service.submit_s": mean_secs("service.submit"),
        "service.poll_s": mean_secs("service.poll"),
        "service.polls_per_job": len(named("service.poll")) / n if envelopes else 0.0,
        "service.queue_wait_s": _ratio(sum(queue_wait), len(queue_wait)),
        "service.exec_s": _ratio(sum(exec_s), len(exec_s)),
        "service.spool_s": mean_secs("service.spool"),
        "trace.estimates": float(len(traced.outcomes)),
        "trace.overhead": _ratio(
            _ratio(sum(traced_s), len(traced_s)), _ratio(sum(base_s), len(base_s))
        ),
    }
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS}

