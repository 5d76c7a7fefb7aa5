"""Self-tests of the benchmark's helpers: metric names, the percentile
helper, failure counting and the restore of traced entry points."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Tally,
    check_metric_name,
    percentile,
    result_line,
)
from perfbench.tracing import Tracer, instrument, restored, self_times  # noqa: E402


# -- metric names --------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["setup_s", "api.prepare_s", "compile.us_per_sample_step", "p-90", "9lives"]
)
def test_legal_metric_names_pass(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "sigmaσ", None]
)
def test_illegal_metric_names_refused(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_names_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert per_layer == list(LAYER_METRICS)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        check_metric_name(metric["name"])


# -- percentiles ---------------------------------------------------------

def test_percentile_reports_its_sample_count_and_interpolates():
    q = percentile(list(range(100)), 50)
    assert (q.value, q.n, q.beyond) == (49.5, 100, 50)
    assert percentile(list(range(100)), 90).value == pytest.approx(89.1)


@pytest.mark.parametrize("pct, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(pct, enough):
    assert percentile([1.0] * enough, pct).beyond == 10
    with pytest.raises(ValueError, match="beyond"):
        percentile([1.0] * (enough - 1), pct)


@pytest.mark.parametrize("pct", [0, 100, 50.0, True])
def test_percentile_rejects_non_integer_or_out_of_range(pct):
    with pytest.raises(ValueError):
        percentile([1.0] * 1000, pct)


# -- failure counting ----------------------------------------------------

def test_tally_counts_every_attempt_and_each_failure_reason():
    tally = Tally()
    for reason in [None, "not converged", None, "not converged", "sigma off", ""]:
        tally.record(reason)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.failed_frac == 0.5
    assert tally.reasons == {"not converged": 2, "sigma off": 1}


def test_failed_frac_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        Tally().failed_frac


def test_result_line_shape():
    tally = Tally()
    tally.record(None)
    tally.record("raised")
    doc = json.loads(result_line(False, tally, {"setup_s": (0.5, "s")}))
    assert doc == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
    }
    with pytest.raises(ValueError):
        result_line(True, tally, {"x": (math.nan, "s")})
    with pytest.raises(ValueError):
        result_line(True, Tally(), {"x": (1.0, "s")})


# -- tracing -------------------------------------------------------------

def test_instrument_records_spans_and_restores_originals():
    from repro import api
    from repro.highsigma.limitstate import LimitState

    before = (api.prepare, LimitState.__dict__["g_batch"], LimitState.__dict__["metric"])
    ls = LimitState(fn=None, spec=1.0, dim=4, batch_fn=lambda u: u.sum(axis=1))
    u = np.random.default_rng(1).standard_normal((8, 4))
    plain = ls.g_batch(u)

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(tracer) as patched:
            assert api.prepare is not before[0]
            assert np.array_equal(ls.g_batch(u), plain)
            ls.metric(u[0] + 1.0)
            ls.metric(u[0] + 1.0)  # served from the point cache
            raise RuntimeError("leave the block early")
    assert restored(patched)
    assert (api.prepare, LimitState.__dict__["g_batch"], LimitState.__dict__["metric"]) == before

    names = [s.name for s in tracer.spans]
    assert names == ["limitstate.g_batch", "limitstate.metric", "limitstate.metric"]
    assert tracer.spans[0].attrs["rows"] == 8
    assert [s.attrs["hit"] for s in tracer.spans[1:]] == [False, True]


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.tagged("est-0001"):
        with tracer.span("outer") as outer:
            with tracer.span("outer") as inner:
                pass
    assert inner.parent == outer.span_id and inner.tag == "est-0001"
    row = self_times(tracer.spans)["outer"]
    assert row["calls"] == 2
    assert row["self_s"] == pytest.approx(outer.seconds)
