"""Unit coverage for ``repro.telemetry``: spans, trace files, metrics,
and the sweep profiler."""

import json
import os
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SpanContext,
    SweepProfiler,
)
from repro.telemetry.metrics import OVERFLOW_VALUE


# -- trace context / traceparent ----------------------------------------------


def test_traceparent_roundtrip():
    ctx = SpanContext(trace_id="ab" * 16, spanid="cd" * 8)
    header = telemetry.format_traceparent(ctx)
    assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
    assert telemetry.parse_traceparent(header) == ctx


@pytest.mark.parametrize("bad", [
    None,
    "",
    "not-a-traceparent",
    "00-xyz-abc-01",
    "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
    "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # all-zero trace id
    "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
])
def test_parse_traceparent_rejects_invalid(bad):
    assert telemetry.parse_traceparent(bad) is None


def test_parse_traceparent_normalizes_case_and_whitespace():
    ctx = telemetry.parse_traceparent(
        "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  ")
    assert ctx == SpanContext(trace_id="ab" * 16, spanid="cd" * 8)


def test_current_traceparent_tracks_activation():
    assert telemetry.current_traceparent() == ""
    ctx = SpanContext(trace_id="1" * 32, spanid="2" * 16)
    token = telemetry.activate(ctx)
    try:
        assert telemetry.current() == ctx
        assert telemetry.current_traceparent() == \
            telemetry.format_traceparent(ctx)
    finally:
        telemetry.deactivate(token)
    assert telemetry.current() is None


# -- span emission ------------------------------------------------------------


def _events(path):
    return telemetry.read_events(path)


def test_nested_spans_share_trace_and_link_parent(tmp_path):
    sink = str(tmp_path / "traces-t.jsonl")
    token = telemetry.set_sink(sink)
    try:
        with telemetry.span("outer", kind="root") as outer:
            with telemetry.span("inner") as inner:
                assert inner.context.trace_id == outer.context.trace_id
                assert inner.context.spanid != outer.context.spanid
    finally:
        telemetry.reset_sink(token)

    events = _events(sink)
    assert [e["name"] for e in events] == ["inner", "outer"]  # exit order
    by_name = {e["name"]: e for e in events}
    assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
    assert by_name["inner"]["parent"] == by_name["outer"]["span"]
    assert by_name["outer"]["parent"] == ""
    assert by_name["outer"]["attrs"] == {"kind": "root"}
    assert by_name["outer"]["dur_s"] >= 0.0


def test_span_under_activated_context_adopts_trace(tmp_path):
    sink = str(tmp_path / "traces-t.jsonl")
    remote = SpanContext(trace_id="f" * 32, spanid="e" * 16)
    ctx_token = telemetry.activate(remote)
    sink_token = telemetry.set_sink(sink)
    try:
        with telemetry.span("adopted"):
            pass
    finally:
        telemetry.reset_sink(sink_token)
        telemetry.deactivate(ctx_token)
    (event,) = _events(sink)
    assert event["trace"] == remote.trace_id
    assert event["parent"] == remote.spanid


def test_span_error_status_and_propagation(tmp_path):
    sink = str(tmp_path / "traces-t.jsonl")
    token = telemetry.set_sink(sink)
    try:
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("nope")
    finally:
        telemetry.reset_sink(token)
    (event,) = _events(sink)
    assert event["status"] == "error"
    assert event["error"] == "ValueError"


def test_span_without_sink_writes_nothing_but_still_nests(tmp_path):
    assert telemetry.current_sink() is None
    with telemetry.span("quiet") as outer:
        with telemetry.span("child") as inner:
            assert inner.context.trace_id == outer.context.trace_id
    assert list(tmp_path.iterdir()) == []


def test_emit_event_synthetic_child(tmp_path):
    sink = str(tmp_path / "traces-t.jsonl")
    token = telemetry.set_sink(sink)
    try:
        with telemetry.span("sweep") as parent:
            telemetry.emit_event("stage.scenario", 1.25, engine="batched")
    finally:
        telemetry.reset_sink(token)
    events = {e["name"]: e for e in _events(sink)}
    stage = events["stage.scenario"]
    assert stage["parent"] == parent.context.spanid
    assert stage["trace"] == parent.context.trace_id
    assert stage["dur_s"] == 1.25
    assert stage["attrs"] == {"engine": "batched"}


def test_emit_event_without_sink_is_noop(tmp_path):
    telemetry.emit_event("stage.persist", 0.5)
    assert list(tmp_path.iterdir()) == []


def test_span_attrs_coerced_to_json_plain(tmp_path):
    sink = str(tmp_path / "traces-t.jsonl")
    token = telemetry.set_sink(sink)
    try:
        with telemetry.span("attrs", obj=object(), n=3, flag=True) as s:
            s.set("late", "value")
    finally:
        telemetry.reset_sink(token)
    (event,) = _events(sink)
    assert event["attrs"]["n"] == 3
    assert event["attrs"]["flag"] is True
    assert event["attrs"]["late"] == "value"
    assert isinstance(event["attrs"]["obj"], str)


# -- trace ring files ---------------------------------------------------------


def test_trace_path_layout(tmp_path):
    path = telemetry.trace_path(str(tmp_path), "mydep")
    assert path == str(tmp_path / "traces-mydep.jsonl")


def test_read_events_skips_torn_and_foreign_lines(tmp_path):
    path = str(tmp_path / "traces-x.jsonl")
    telemetry.append_event(path, {"trace": "t1", "span": "a", "name": "ok"})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"trace": "t1", "span": "b", "na')   # torn write
        fh.write("\n")
        fh.write("not json at all\n")
        fh.write('{"no_trace_key": 1}\n')
    telemetry.append_event(path, {"trace": "t1", "span": "c", "name": "ok2"})
    events = telemetry.read_events(path)
    assert [e["span"] for e in events] == ["a", "c"]


def test_ring_rotation_keeps_two_generations(tmp_path):
    path = str(tmp_path / "traces-ring.jsonl")
    # Force rotation on nearly every append.
    for i in range(10):
        telemetry.append_event(
            path, {"trace": "t", "span": f"s{i}", "name": "e"},
            max_bytes=100)
    assert os.path.exists(path + ".1")
    events = telemetry.read_events(path)
    spans = [e["span"] for e in events]
    # Oldest-first across generations, most recent event always present.
    assert spans == sorted(spans, key=lambda s: int(s[1:]))
    assert spans[-1] == "s9"
    # Disk use stays bounded at ~2x the cap.
    total = os.path.getsize(path) + os.path.getsize(path + ".1")
    assert total < 4 * 100


def test_group_and_latest_trace():
    events = [
        {"trace": "old", "span": "a", "name": "x", "ts": 100.0},
        {"trace": "new", "span": "b", "name": "y", "ts": 200.0},
        {"trace": "old", "span": "c", "name": "z", "ts": 101.0},
    ]
    groups = telemetry.group_traces(events)
    assert set(groups) == {"old", "new"}
    assert [e["span"] for e in groups["old"]] == ["a", "c"]
    trace_id, latest = telemetry.latest_trace(events)
    assert trace_id == "new"
    assert [e["span"] for e in latest] == ["b"]
    assert telemetry.latest_trace([]) is None


def test_render_tree_structure_and_orphans():
    events = [
        {"trace": "t", "span": "root", "parent": "", "name": "http.request",
         "ts": 1.0, "dur_s": 0.5, "pid": 1},
        {"trace": "t", "span": "kid1", "parent": "root", "name": "collect",
         "ts": 1.1, "dur_s": 0.3, "pid": 1, "attrs": {"engine": "batched"}},
        {"trace": "t", "span": "kid2", "parent": "root", "name": "persist",
         "ts": 1.2, "dur_s": 0.1, "pid": 2},
        # Parent line lost: must surface as an extra root, not vanish.
        {"trace": "t", "span": "lost", "parent": "gone", "name": "orphan",
         "ts": 1.3, "dur_s": 0.05, "pid": 3},
    ]
    tree = telemetry.render_tree(events)
    assert "trace t" in tree
    assert "4 span(s)" in tree
    assert "http.request" in tree
    assert "engine=batched" in tree
    assert "orphan" in tree
    # kid1 is indented under root; orphan is a top-level entry.
    lines = tree.splitlines()
    (kid1_line,) = [l for l in lines if "collect" in l]
    (orphan_line,) = [l for l in lines if "orphan" in l]
    assert kid1_line.startswith(("│  ", "   "))
    assert orphan_line.startswith(("└─ ", "├─ "))
    assert telemetry.render_tree([]) == "(no spans)"


def test_concurrent_appends_never_tear(tmp_path):
    path = str(tmp_path / "traces-mt.jsonl")

    def writer(tag):
        for i in range(50):
            telemetry.append_event(
                path, {"trace": "t", "span": f"{tag}-{i}", "name": "e"})

    threads = [threading.Thread(target=writer, args=(t,)) for t in "abcd"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = telemetry.read_events(path)
    assert len(events) == 200
    # Every line parsed cleanly (read_events would silently drop torn
    # ones, so re-check raw line count too).
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 200


# -- metrics registry ---------------------------------------------------------


def test_counter_and_gauge_render():
    reg = MetricsRegistry()
    counter = reg.counter("jobs_total", "Jobs.")
    counter.inc(state="done")
    counter.inc(state="done")
    counter.inc(state="failed")
    gauge = reg.gauge("queue_depth")
    gauge.set(7)
    text = "\n".join(reg.render())
    assert "# HELP jobs_total Jobs." in text
    assert "# TYPE jobs_total counter" in text
    assert 'jobs_total{state="done"} 2' in text
    assert 'jobs_total{state="failed"} 1' in text
    assert "# TYPE queue_depth gauge" in text
    assert "queue_depth 7" in text


def test_gauge_set_max_keeps_high_water():
    reg = MetricsRegistry()
    gauge = reg.gauge("latency_max")
    gauge.set_max(0.5)
    gauge.set_max(0.2)
    assert gauge.labels().value == 0.5
    gauge.set_max(0.9)
    assert gauge.labels().value == 0.9


def test_histogram_buckets_cumulative_and_sum_count():
    reg = MetricsRegistry()
    hist = reg.histogram("op_seconds", buckets=(0.01, 0.1, 1.0))
    series = hist.labels(op="query")
    series.observe(0.005)   # <= 0.01
    series.observe(0.05)    # <= 0.1
    series.observe(0.05)
    series.observe(5.0)     # only +Inf
    text = "\n".join(reg.render())
    assert "# TYPE op_seconds histogram" in text
    assert 'op_seconds_bucket{op="query",le="0.01"} 1' in text
    assert 'op_seconds_bucket{op="query",le="0.1"} 3' in text
    assert 'op_seconds_bucket{op="query",le="1"} 3' in text
    assert 'op_seconds_bucket{op="query",le="+Inf"} 4' in text
    assert 'op_seconds_count{op="query"} 4' in text
    assert 'op_seconds_sum{op="query"} 5.105' in text


def test_histogram_default_buckets_span_latency_range():
    assert DEFAULT_LATENCY_BUCKETS[0] <= 0.0001
    assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("thing_total")
    with pytest.raises(ValueError):
        reg.gauge("thing_total")


def test_label_values_escaped_in_exposition():
    """Regression: quotes, backslashes, and newlines in label values
    must render as escaped — parseable — exposition lines."""
    reg = MetricsRegistry()
    counter = reg.counter("weird_total")
    counter.inc(route='/v1/jobs/"quoted"', worker="host\\name\nline2")
    (line,) = [l for l in reg.render() if not l.startswith("#")]
    assert line == (
        'weird_total{route="/v1/jobs/\\"quoted\\"",'
        'worker="host\\\\name\\nline2"} 1'
    )
    # The escaping helper round-trips through the format rules.
    assert telemetry.escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


def test_format_series_helper():
    assert telemetry.format_series("m") == "m"
    assert telemetry.format_series("m", b="2", a="1") == 'm{a="1",b="2"}'


def test_bounded_cardinality_folds_overflow_to_other():
    reg = MetricsRegistry(max_series=3)
    counter = reg.counter("spray_total")
    for i in range(10):
        counter.inc(route=f"/unique/{i}")
    text = "\n".join(reg.render())
    # Three real series plus the fold-in; total mass preserved.
    series_lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(series_lines) == 4
    assert f'spray_total{{route="{OVERFLOW_VALUE}"}} 7' in text
    assert 'spray_total{route="/unique/0"} 1' in text


def test_registry_render_is_name_sorted():
    reg = MetricsRegistry()
    reg.counter("zzz_total").inc()
    reg.counter("aaa_total").inc()
    lines = reg.render()
    assert lines.index("# TYPE aaa_total counter") < \
        lines.index("# TYPE zzz_total counter")


def test_global_registry_is_singleton():
    assert telemetry.global_registry() is telemetry.global_registry()
    # The product code registers the cross-layer families at import time.
    import repro.fleet.cache  # noqa: F401
    import repro.store.sqlite  # noqa: F401

    names = {l.split()[2] for l in telemetry.global_registry().render()
             if l.startswith("# TYPE")}
    assert "advisor_store_op_seconds" in names
    assert "advisor_engine_selected_total" in names
    assert "advisor_response_cache_requests_total" in names


# -- service metrics facade ---------------------------------------------------


def test_service_metrics_max_gauge_rendered():
    """Regression: the slowest-request high-water mark must appear on
    /metrics (it used to be tracked but never rendered)."""
    from repro.service.metrics import Metrics

    metrics = Metrics()
    metrics.observe("GET", "/v1/advice", 200, 0.25)
    metrics.observe("GET", "/v1/advice", 200, 0.75)
    metrics.observe("GET", "/v1/advice", 200, 0.10)
    text = metrics.render_prometheus()
    assert "# TYPE advisor_http_request_seconds_max gauge" in text
    assert ('advisor_http_request_seconds_max'
            '{method="GET",route="/v1/advice",status="200"} 0.75') in text
    # Historical family names survive the registry rewrite.
    assert ('advisor_http_request_seconds_sum'
            '{method="GET",route="/v1/advice",status="200"} 1.1') in text
    assert ('advisor_http_requests_total'
            '{method="GET",route="/v1/advice",status="200"} 3') in text


def test_service_metrics_extra_gauges_typed_once():
    from repro.service.metrics import Metrics

    text = Metrics().render_prometheus(extra_gauges={
        'advisor_fleet_worker_up{worker="a"}': 1,
        'advisor_fleet_worker_up{worker="b"}': 1,
        "advisor_uptime_seconds": 12.5,
    })
    assert text.count("# TYPE advisor_fleet_worker_up gauge") == 1
    assert 'advisor_fleet_worker_up{worker="a"} 1' in text
    assert "# TYPE advisor_uptime_seconds gauge" in text
    assert text.endswith("\n")


# -- sweep profiler -----------------------------------------------------------


def test_profiler_accumulates_and_orders_stages():
    prof = SweepProfiler()
    prof.add("persist", 0.25)
    prof.add("scenario", 1.0)
    prof.add("scenario", 0.5)
    prof.add("provision", 0.125)
    prof.add("setup", 0.0)     # zero time: omitted
    prof.add("noise", -1.0)    # negative: ignored
    profile = prof.as_dict()
    assert profile["scenario"] == 1.5
    assert profile["persist"] == 0.25
    assert "setup" not in profile
    assert "noise" not in profile
    assert profile["total_s"] >= 0.0
    # Canonical pipeline order before the total.
    keys = list(profile)
    assert keys[:3] == ["provision", "scenario", "persist"]
    assert keys[-1] == "total_s"


def test_profiler_stage_context_manager_times_body():
    import time as time_mod

    prof = SweepProfiler()
    with prof.stage("scenario"):
        time_mod.sleep(0.01)
    with pytest.raises(RuntimeError):
        with prof.stage("persist"):
            raise RuntimeError("still credited")
    profile = prof.as_dict()
    assert profile["scenario"] >= 0.01
    assert "persist" in profile  # credited despite the exception


def test_profiler_json_serializable():
    prof = SweepProfiler()
    prof.add("scenario", 0.125)
    json.dumps(prof.as_dict())
