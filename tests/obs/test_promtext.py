"""Prometheus exposition: rendering, escaping, and the round-trip contract."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.promtext import (
    escape_label_value,
    metric_name,
    parse_exposition,
    render_snapshot,
)


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("serve.ingest.lines").inc(123)
    reg.counter("serve.requests", route="flows", code=200).inc(7)
    reg.gauge("serve.ingest.queue_saturation").set(0.25)
    reg.gauge("serve.source.staleness_seconds", source="node_0001.log").set(1.5)
    h = reg.histogram("serve.request.seconds", route="flows")
    for v in (0.01, 0.02, 0.03, 0.04, 0.10):
        h.observe(v)
    return reg


class TestNames:
    def test_dots_become_underscores(self):
        assert metric_name("serve.ingest.lines") == "serve_ingest_lines"

    def test_leading_digit_prefixed(self):
        assert metric_name("2fast")[0] == "_"

    def test_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestRender:
    def test_families_have_type_lines(self, registry):
        text = render_snapshot(registry.snapshot())
        assert "# TYPE serve_ingest_lines counter\n" in text
        assert "# TYPE serve_ingest_queue_saturation gauge\n" in text
        assert "# TYPE serve_request_seconds summary\n" in text

    def test_deterministic(self, registry):
        snap = registry.snapshot()
        assert render_snapshot(snap) == render_snapshot(snap)

    def test_empty_snapshot_renders_empty(self):
        assert render_snapshot(MetricsRegistry().snapshot()) == ""

    def test_quantile_samples_present(self, registry):
        text = render_snapshot(registry.snapshot())
        assert 'serve_request_seconds{route="flows",quantile="0.5"}' in text
        assert 'serve_request_seconds_count{route="flows"} 5' in text


class TestRoundTrip:
    def test_counters_and_gauges_round_trip(self, registry):
        snap = registry.snapshot()
        samples, types = parse_exposition(render_snapshot(snap))
        assert samples["serve_ingest_lines"][()] == 123.0
        assert types["serve_ingest_lines"] == "counter"
        key = (("code", "200"), ("route", "flows"))
        assert samples["serve_requests"][key] == 7.0
        assert samples["serve_ingest_queue_saturation"][()] == 0.25
        stale = samples["serve_source_staleness_seconds"]
        assert stale[(("source", "node_0001.log"),)] == 1.5

    def test_histogram_summary_round_trips(self, registry):
        snap = registry.snapshot()
        samples, _ = parse_exposition(render_snapshot(snap))
        family, labels = "serve_request_seconds", (("route", "flows"),)
        original = snap.histograms['serve.request.seconds{route=flows}']
        assert samples[family + "_count"][labels] == original.count
        assert samples[family + "_sum"][labels] == pytest.approx(original.total)
        assert samples[family + "_min"][labels] == pytest.approx(original.min)
        assert samples[family + "_max"][labels] == pytest.approx(original.max)
        for quantile, value in (("0.5", original.p50), ("0.95", original.p95)):
            key = tuple(sorted(labels + (("quantile", quantile),)))
            assert samples[family][key] == pytest.approx(value)

    def test_escaped_label_values_round_trip(self):
        reg = MetricsRegistry()
        tricky = 'weird "value" with \\slash\\ and\nnewline'
        reg.counter("c", label=tricky).inc(1)
        samples, _ = parse_exposition(render_snapshot(reg.snapshot()))
        assert samples["c"][(("label", tricky),)] == 1.0

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not a sample line")

    def test_bad_label_syntax_raises(self):
        with pytest.raises(ValueError):
            parse_exposition("name{label=unquoted} 1")
