"""Telemetry surfaces of the daemon: HELLO trace metadata on the wire,
``/metrics`` content negotiation, ``/debug/trace``, request ids, and the
``--metrics-out`` / ``--trace-out`` shutdown dumps.

The invariant under test throughout: tracing is *metadata only*.  Trace ids
ride exclusively in the HELLO control line and the recorder — data lines
are untouched — so flows served with tracing enabled stay byte-identical
to the batch reference.
"""

import http.client
import json
import socket

import pytest

from repro.obs.promtext import parse_exposition
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import push_lines, push_store
from repro.serve.shard import ShardWorker
from tests.serve.util import http_json, http_req, wait_ready

DATA = "node=1 type=send pkt=p1.1"


def _request(port, path, headers=None, method="GET"):
    """One request, returning ``(status, lower-cased headers, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, headers=headers or {})
        resp = conn.getresponse()
        got = {name.lower(): value for name, value in resp.getheaders()}
        return resp.status, got, resp.read().decode("utf-8")
    finally:
        conn.close()


def _talk(port: int, payload: bytes, replies: int) -> list[str]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        out = []
        with sock.makefile("rb") as rfile:
            for _ in range(replies):
                out.append(rfile.readline().decode().strip())
        return out


@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(
        checkpoint_path=str(tmp_path / "cp.json"), flush_interval=0.05
    )
    with ServerThread(config) as thread:
        yield thread


class TestHelloTraceWire:
    def test_trace_metadata_is_accepted(self, server):
        replies = _talk(
            server.tcp_port,
            f"HELLO source=s1 trace=wire-1\n{DATA}\nBYE\n".encode(),
            replies=2,
        )
        assert replies == ["OK offset=0", "OK accepted=1"]

    def test_trace_is_optional_for_old_clients(self, server):
        replies = _talk(
            server.tcp_port, f"HELLO source=plain\n{DATA}\nBYE\n".encode(),
            replies=2,
        )
        assert replies == ["OK offset=0", "OK accepted=1"]

    def test_malformed_trace_gets_err_not_crash(self, server):
        too_long = "t" * 65
        replies = _talk(
            server.tcp_port,
            f"HELLO source=s2 trace={too_long}\n".encode(),
            replies=1,
        )
        assert replies[0].startswith("ERR")
        # daemon is still alive and talking
        replies = _talk(
            server.tcp_port, b"HELLO source=s2\nBYE\n", replies=2
        )
        assert replies == ["OK offset=0", "OK accepted=0"]

    def test_push_lines_mints_and_reports_its_trace(self, server):
        result = push_lines([DATA], port=server.tcp_port, source="minted")
        assert result.trace is not None and len(result.trace) == 16
        explicit = push_lines(
            [DATA], port=server.tcp_port, source="explicit", trace="my-trace"
        )
        assert explicit.trace == "my-trace"
        off = push_lines(
            [DATA], port=server.tcp_port, source="untraced", trace=False
        )
        assert off.trace is None


class TestMetricsNegotiation:
    def test_json_is_the_default(self, server):
        status, headers, body = _request(server.http_port, "/metrics")
        assert status == 200
        assert headers["content-type"] == "application/json"
        snapshot = json.loads(body)
        assert set(snapshot) == {"counters", "gauges", "histograms"}

    def test_accept_header_switches_to_prometheus(self, server):
        push_lines([DATA, DATA], port=server.tcp_port, source="prom")
        wait_ready(server.http_port)
        status, headers, body = _request(
            server.http_port, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        samples, types = parse_exposition(body)
        assert samples["serve_ingest_lines"][()] == 2.0
        assert types["serve_ingest_lines"] == "counter"
        # the readiness polls above landed in the request histogram
        assert types["serve_request_seconds"] == "summary"

    def test_query_param_requests_prometheus(self, server):
        status, headers, body = _request(
            server.http_port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        parse_exposition(body)  # must be well-formed exposition text

    def test_refresh_span_is_one_series(self, tmp_path, monkeypatch):
        """The refresh histogram carries no per-call label: three pushes of
        different sizes make one ``span.serve.refresh`` series counting
        every refresh."""
        refreshes = []
        real_refresh = ShardWorker.refresh

        def refresh(self):
            if self.session.pending:
                refreshes.append(self.session.pending)
            real_refresh(self)

        monkeypatch.setattr(ShardWorker, "refresh", refresh)
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"), flush_interval=0.05
        )
        with ServerThread(config) as thread:
            for node, size in ((1, 1), (2, 3), (3, 7)):
                lines = [f"node={node} type=gen pkt=p{node}.{seq}" for seq in range(size)]
                push_lines(lines, port=thread.tcp_port, source=f"s{node}")
                wait_ready(thread.http_port)
            _, snapshot = http_json(thread.http_port, "/metrics")
            _, _, text = _request(thread.http_port, "/metrics?format=prometheus")
        series = [k for k in snapshot["histograms"] if k.startswith("span.serve.refresh")]
        assert series == ["span.serve.refresh"]
        assert len(set(refreshes)) > 1
        assert snapshot["histograms"]["span.serve.refresh"]["count"] == len(refreshes)
        refresh_lines = [line for line in text.splitlines()
                         if line.startswith("span_serve_refresh")]
        assert refresh_lines and not any("pending" in line for line in refresh_lines)


class TestDebugTrace:
    def test_records_appear_after_a_push(self, server):
        push_lines([DATA], port=server.tcp_port, source="dbg", trace="dbg-t1")
        wait_ready(server.http_port)
        status, body = http_json(server.http_port, "/debug/trace")
        assert status == 200
        assert body["returned"] == len(body["records"]) > 0
        assert body["recorded"] >= body["returned"]
        assert body["capacity"] == 1024
        names = {record["name"] for record in body["records"]}
        assert "serve.decode" in names

    def test_filters_narrow_to_one_trace(self, server):
        push_lines([DATA], port=server.tcp_port, source="dbg", trace="dbg-t2")
        wait_ready(server.http_port)
        _, body = http_json(
            server.http_port,
            "/debug/trace?trace=dbg-t2&kind=event&name=ingest.hello",
        )
        [record] = body["records"]
        assert record["kind"] == "event"
        assert record["trace"] == "dbg-t2"
        assert record["fields"]["source"] == "dbg"
        _, limited = http_json(server.http_port, "/debug/trace?limit=1")
        assert limited["returned"] == 1

    def test_bad_query_parameters_are_400(self, server):
        status, _ = http_req(server.http_port, "/debug/trace?limit=soon")
        assert status == 400
        status, _ = http_req(server.http_port, "/debug/trace?kind=mystery")
        assert status == 400


class TestRequestIds:
    def test_every_response_carries_a_distinct_request_id(self, server):
        _, first, _ = _request(server.http_port, "/healthz")
        _, second, _ = _request(server.http_port, "/healthz")
        assert len(first["x-request-id"]) == 8
        assert len(second["x-request-id"]) == 8
        assert first["x-request-id"] != second["x-request-id"]


class TestShutdownDumps:
    def test_metrics_and_trace_written_on_graceful_stop(self, tmp_path):
        metrics_path = tmp_path / "out" / "metrics.json"
        trace_path = tmp_path / "out" / "trace.jsonl"
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
            metrics_out=str(metrics_path),
            trace_out=str(trace_path),
        )
        with ServerThread(config) as thread:
            push_lines(
                [DATA, DATA, DATA],
                port=thread.tcp_port,
                source="dump",
                trace="dump-trace",
            )
            wait_ready(thread.http_port)

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["serve.ingest.lines"] == 3
        # same contract as `refill analyze --metrics-out`: sorted-key
        # indented JSON plus one trailing newline
        assert metrics_path.read_text() == (
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )

        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert records
        assert {record["kind"] for record in records} <= {"span", "event"}
        decoded = [
            r for r in records
            if r["name"] == "serve.decode" and r.get("trace") == "dump-trace"
        ]
        assert decoded and all(r["status"] == "ok" for r in decoded)


class TestEquivalenceWithTracing:
    def test_traced_push_is_byte_identical_to_batch(
        self, store, batch_flows, tmp_path
    ):
        """The acceptance invariant: one trace spanning a full store replay
        changes nothing about the served flows."""
        config = ServeConfig(
            store=str(store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            results = push_store(store, port=thread.tcp_port, trace=True)
            trace_ids = {r.trace for r in results.values()}
            assert len(trace_ids) == 1  # one trace spans the whole replay
            (trace_id,) = trace_ids
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
            _, traced = http_json(
                thread.http_port, f"/debug/trace?trace={trace_id}"
            )
        assert served.strip() == batch_flows
        assert traced["returned"] > 0
