"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gis-6t --seed 20261017 --seconds 25 --trace 0

``--seconds`` sets the amount of work: the workload's nominal seconds
per estimate (``references.json``) turn it into a request count.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an
untraced pass over half as many requests, replays the same requests with every layer's entry
points wrapped, checks that the estimates are bit-identical, and prints
the per-layer metrics plus the tracing overhead.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run records (and the spans, for traced runs) are written under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

Metrics = Dict[str, Tuple[float, str]]


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _record(args: argparse.Namespace, workload: Any) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "request_fields": workload.fields,
        "nominal_s_per_estimate": workload.nominal_s,
        **workload.record(),
    }


def _info(name: str, value: Any, unit: str = "") -> None:
    print(f"info {name} = {value} {unit}".rstrip())


def _estimate_info(workload: Any, p: Any, tally: Any) -> None:
    """The per-run figures that are not gated metrics: accuracy, failure
    share and latency percentiles (where the sample count allows)."""
    from perfbench.stats import percentile

    ok = p.ok
    if ok:
        _info("sigma_err", f"{_mean([workload.sigma_error(o) for o in ok]):.6f}", "sigma")
    _info("failed_frac", f"{tally.failed_frac:.6f}", "fraction")
    for reason, count in sorted(tally.reasons.items()):
        _info("failed_reason", f"{count} x {reason}")
    seconds = [o.seconds for o in ok]
    for pct in (50, 90):
        try:
            q = percentile(seconds, pct)
            _info(f"job_p{pct}_s", f"{q.value:.6f} (n={q.n})", "s")
        except ValueError as exc:
            _info(f"job_p{pct}_s", f"n/a ({exc})")


def timed_run(args: argparse.Namespace, workload: Any, tol: Dict[str, float]):
    """End-to-end metrics: median cold set-up, then a measured loop."""
    from perfbench.stats import Tally

    setups = [workload.cold_setup() for _ in range(workload.setup_samples)]
    p = workload.measure(workload.requests(args.seed, args.seconds))
    tally = Tally()
    for outcome in p.outcomes:
        tally.record(workload.check(outcome, tol))
    ok = p.ok
    if not ok:
        sys.exit("perfbench: no estimate succeeded")
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "estimate_s": (statistics.median([o.seconds for o in ok]), "s"),
        "evals_per_estimate": (_mean([o.result.n_evals for o in ok]), "count"),
        "rel_err": (_mean([o.result.rel_err for o in ok]), "fraction"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    _info("setup_samples_s", " ".join(f"{s:.4f}" for s in setups))
    _info("estimates", len(p.outcomes))
    _info("jobs_per_s", f"{len(p.outcomes) / p.wall_s:.6f}", "1/s")
    _info("estimate_mean_s", f"{_mean([o.seconds for o in ok]):.6f}", "s")
    _estimate_info(workload, p, tally)
    run_failure = workload.run_check(p, tol)
    _info("run_check", run_failure or "ok")
    correct = tally.failed == 0 and run_failure is None
    return metrics, correct, tally, {"outcomes": [o.to_json() for o in p.outcomes]}


def traced_run(args: argparse.Namespace, workload: Any, tol: Dict[str, float]):
    """Per-layer metrics from a traced replay of an untraced pass."""
    from perfbench.layers import layer_metrics
    from perfbench.stats import Tally
    from perfbench.tracing import Tracer, instrument, restored, self_times

    workload.cold_setup()  # lazy imports and caches, outside both passes
    base = workload.measure(workload.requests(args.seed, args.seconds / 2.0))
    tracer = Tracer()
    with instrument(tracer) as patched:
        tracer.phase = "setup"
        workload.cold_setup()
        tracer.phase = "loop"
        traced = workload.measure(base.requests(), tracer)
    unwrapped = restored(patched)

    tally = Tally()
    for outcome in base.outcomes:
        tally.record(workload.check(outcome, tol))
    for b, t in zip(base.outcomes, traced.outcomes):
        reason = workload.check(t, tol)
        if reason is None and (b.result is None or not t.result.identical_to(b.result)):
            reason = "traced estimate differs from the untraced one"
        tally.record(reason)
    if len(traced.outcomes) != len(base.outcomes):
        tally.record("traced replay ran a different number of estimates")

    metrics = layer_metrics(tracer.spans, traced, base)
    loop = [s for s in tracer.spans if s.phase == "loop"]
    n = max(1, len(traced.outcomes))
    for name, row in sorted(self_times(loop).items()):
        print(
            f"span {name}: calls/est={row['calls'] / n:.2f} "
            f"incl_s/est={row['incl_s'] / n:.6f} self_s/est={row['self_s'] / n:.6f}"
        )
    _info("wrappers_restored", unwrapped)
    run_failure = workload.run_check(base, tol)
    _info("run_check", run_failure or "ok")
    correct = tally.failed == 0 and unwrapped and run_failure is None
    extra = {
        "self_times_loop": self_times(loop),
        "self_times_setup": self_times([s for s in tracer.spans if s.phase == "setup"]),
        "spans": [s.to_json() for s in tracer.spans],
    }
    return metrics, correct, tally, extra


def main(argv: Optional[List[str]] = None) -> int:
    refs = json.loads((HERE / "references.json").read_text())
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(refs["workloads"]))
    parser.add_argument("--seed", type=int, default=refs["default_seed"])
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_repro()
    # The disk tier of the plan cache would write outside the checkout.
    os.environ.pop("REPRO_PLAN_CACHE", None)
    from perfbench.stats import result_line
    from perfbench.workloads import make_workload

    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, refs, OUT_DIR)
    record = _record(args, workload)
    run = traced_run if args.trace else timed_run
    metrics, correct, tally, extra = run(args, workload, refs["tolerances"])
    record["loadavg_after"] = list(os.getloadavg())
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"record": record, "metrics": metrics, "failed_reasons": dict(tally.reasons), **extra}
    ))
    print(result_line(correct, tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
