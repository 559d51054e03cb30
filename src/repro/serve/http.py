"""Minimal dependency-free HTTP/JSON query API for the daemon.

A deliberately tiny HTTP/1.1 subset over asyncio streams: parse the request
line and headers, route, respond with a JSON body and ``Connection: close``.
Responses that must be comparable across doors are canonical JSON:
``/flows`` and ``/flow/<p>`` through the one flow encoder
(:func:`repro.core.serialize.encode_flows` / ``flow_json``), ``/reports``
through :func:`repro.core.serialize.dumps_canonical` — byte-identical to
``refill analyze --flows-out`` on the same lines, which is the serve
layer's correctness contract.

The handler code here routes against
:class:`~repro.serve.server.RefillServer`'s ``api_*`` surface, one async
method per route, the same at every ``--shards``.  At
``--shards 1`` it answers from its in-process session; at ``--shards N``
its :class:`~repro.serve.router.ShardSet` **scatter-gathers** — it fans the
request out to every shard worker over their private query listeners and
merges deterministically (flows/reports by canonical-key union, summary
counters summed, metrics through the mergeable-snapshot path, readiness as
the min over shards).  Because the dict-union of disjoint per-shard bodies
re-serializes through ``dumps_canonical`` (sorted keys), the merged bytes
equal the unsharded bytes — the equivalence oracle holds at every
``--shards``.

Routes
------
======  ======================  =============================================
GET     ``/healthz``            liveness (always 200 while the loop runs)
GET     ``/readyz``             200 when ingest is drained and flows fresh
GET     ``/packets``            every packet the session has evidence for
GET     ``/flow/<packet>``      one packet's event flow (404 when unknown)
GET     ``/flows``              all flows, canonical JSON
GET     ``/report/<packet>``    one packet's loss report
GET     ``/reports``            all loss reports
GET     ``/summary``            diagnosis summary + ingest progress
GET     ``/offsets``            per-source ingest offsets / corrupt counts
GET     ``/metrics``            the run's metrics-registry snapshot
GET     ``/debug/trace``        the flight recorder (recent spans/events)
POST    ``/checkpoint``         commit a checkpoint now (``?epoch=N`` on a
                                shard worker writes that epoch's file)
POST    ``/shutdown``           graceful drain + checkpoint + exit
======  ======================  =============================================

``/metrics`` content-negotiates: JSON by default, Prometheus text
exposition when the ``Accept`` header asks for ``text/plain`` (or with
``?format=prometheus`` for curl convenience) — the daemon is scrapeable by
stock Prometheus without breaking existing JSON consumers.

``/debug/trace`` filters with query parameters: ``limit`` (newest-first
cap), ``name`` (exact or dotted-prefix span/event name), ``trace`` (one
trace id), ``kind`` (``span``/``event``).

Every request lands in ``serve.requests{route=,code=}`` and its latency in
``serve.request.seconds{route=}`` (the p50/p95 the bench baseline reports).
Each request is also assigned a request id, echoed as ``X-Request-Id`` and
written to the access log (``http.access``), so a slow query in the log
joins to the span records around it.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.analysis.causes import cause_shares, sink_split
from repro.core.diagnosis import LossReport
from repro.core.serialize import dumps_canonical
from repro.events.packet import PacketKey
from repro.events.store import StoreMetadata
from repro.obs.promtext import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.promtext import render_snapshot
from repro.obs.registry import get_registry, timer
from repro.obs.structlog import get_logger
from repro.obs.tracing import mint_request_id
from repro.serve._compat import timeout

if TYPE_CHECKING:
    from repro.serve.server import RefillServer

_log = get_logger("refill.serve.http")

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 100

_JSON_CONTENT_TYPE = "application/json"

#: Every route the query API answers — the doc-coverage test holds
#: ``docs/SERVING.md`` to this list, so a new endpoint cannot ship
#: undocumented.
ROUTES = (
    "/healthz",
    "/readyz",
    "/packets",
    "/flow/<packet>",
    "/flows",
    "/report/<packet>",
    "/reports",
    "/summary",
    "/offsets",
    "/metrics",
    "/debug/trace",
    "/checkpoint",
    "/shutdown",
)


def build_summary(
    reports: Mapping[PacketKey, LossReport],
    *,
    pending: int,
    batches_ingested: int,
    lines_ingested: int,
    sources: int,
    metadata: Optional[StoreMetadata],
) -> dict[str, Any]:
    """The ``/summary`` payload at every ``--shards``.

    At ``--shards N`` the reports are merged and the counters summed over
    shards, so a probe cannot tell the shard counts apart.
    """
    lost = sum(1 for r in reports.values() if r.lost)
    summary: dict[str, Any] = {
        "packets": len(reports),
        "lost": lost,
        "cause_shares": {
            cause.value: share for cause, share in cause_shares(reports).items()
        },
        "pending": pending,
        "batches_ingested": batches_ingested,
        "lines_ingested": lines_ingested,
        "sources": sources,
    }
    if metadata is not None:
        summary["sink_split"] = sink_split(reports, metadata.sink)
    return summary


class QueryApi:
    """Routes HTTP requests against a :class:`~repro.serve.server.RefillServer`."""

    def __init__(self, server: RefillServer) -> None:
        self.server = server
        #: Live handler tasks; shutdown cancels them because from Python
        #: 3.12.1 ``Server.wait_closed()`` waits for in-flight handlers, and
        #: an idle client parked in the read timeout would stall it.
        self.handler_tasks: set[asyncio.Task] = set()

    def cancel_handlers(self) -> list[asyncio.Task]:
        """Cancel every live request handler; returns the tasks to reap."""
        tasks = [task for task in self.handler_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        return tasks

    # ------------------------------------------------------------------ #
    # transport

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self.handler_tasks.add(task)
        try:
            await self._handle(reader, writer)
        except asyncio.CancelledError:
            writer.close()
            raise
        finally:
            if task is not None:
                self.handler_tasks.discard(task)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            async with timeout(30.0):
                request = await self._read_request(reader)
        except (TimeoutError, ValueError, ConnectionError,
                asyncio.IncompleteReadError):
            writer.close()
            return
        if request is None:
            writer.close()
            return
        method, path, query, accept = request
        request_id = mint_request_id()
        route = self._route_label(path)
        registry = get_registry()
        started = time.perf_counter()
        with timer(registry.histogram("serve.request.seconds", route=route)):
            try:
                code, body, content_type = await self._dispatch(
                    method, path, query, accept
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - a query never kills the daemon
                _log.warning(
                    "http.handler-error",
                    path=path,
                    request=request_id,
                    error=str(exc),
                )
                code, body = 500, dumps_canonical({"error": "internal error"})
                content_type = _JSON_CONTENT_TYPE
        registry.counter("serve.requests", route=route, code=code).inc()
        _log.info(
            "http.access",
            request=request_id,
            method=method,
            path=path,
            code=code,
            seconds=round(time.perf_counter() - started, 6),
        )
        try:
            writer.write(
                _response_bytes(code, body, content_type, request_id=request_id)
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-response; their problem, not ours
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[tuple[str, str, dict[str, str], str]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        if len(request_line) > _MAX_REQUEST_LINE:
            raise ValueError("request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        content_length = 0
        accept = ""
        for _ in range(_MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, sep, value = header.decode("latin-1").partition(":")
            if not sep:
                continue
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ValueError("bad content-length") from None
            elif name == "accept":
                accept = value.strip()
        if content_length:
            await reader.readexactly(min(content_length, 1 << 20))
        path, _, raw_query = target.partition("?")
        query = {
            key: value
            for key, value in urllib.parse.parse_qsl(raw_query, keep_blank_values=True)
        }
        return method.upper(), path, query, accept

    # ------------------------------------------------------------------ #
    # routing

    @staticmethod
    def _route_label(path: str) -> str:
        """Low-cardinality metrics label for a request path."""
        head = path.strip("/").split("/", 1)[0]
        return head or "root"

    async def _dispatch(
        self, method: str, path: str, query: dict[str, str], accept: str
    ) -> tuple[int, str, str]:
        """Route one request; returns ``(code, body, content_type)``."""
        if method == "GET" and path == "/metrics":
            return await self._metrics_response(query, accept)
        if method == "GET" and path == "/debug/trace":
            return self._debug_trace(query)
        code, body = await self._dispatch_json(method, path, query)
        return code, body, _JSON_CONTENT_TYPE

    async def _metrics_response(
        self, query: dict[str, str], accept: str
    ) -> tuple[int, str, str]:
        """JSON by default; Prometheus text when the client asks for it."""
        snapshot = await self.server.api_metrics_snapshot()
        wants_text = query.get("format") == "prometheus" or (
            "text/plain" in accept or "openmetrics-text" in accept
        )
        if wants_text:
            return 200, render_snapshot(snapshot), PROM_CONTENT_TYPE
        return (
            200,
            json.dumps(snapshot.to_json(), sort_keys=True),
            _JSON_CONTENT_TYPE,
        )

    def _debug_trace(self, query: dict[str, str]) -> tuple[int, str, str]:
        """The flight recorder's recent records, newest first, filtered."""
        recorder = self.server.recorder
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                body = dumps_canonical(
                    {"error": f"bad limit {query['limit']!r}"}
                )
                return 400, body, _JSON_CONTENT_TYPE
        kind = query.get("kind")
        if kind not in (None, "span", "event"):
            body = dumps_canonical({"error": f"bad kind {kind!r}"})
            return 400, body, _JSON_CONTENT_TYPE
        records = recorder.snapshot(
            limit=limit,
            name=query.get("name"),
            trace_id=query.get("trace"),
            kind=kind,
        )
        body = json.dumps(
            {
                "records": records,
                "returned": len(records),
                "recorded": recorder.recorded,
                "dropped": recorder.dropped,
                "capacity": recorder.capacity,
            },
            sort_keys=True,
        )
        return 200, body, _JSON_CONTENT_TYPE

    async def _dispatch_json(
        self, method: str, path: str, query: dict[str, str]
    ) -> tuple[int, str]:
        server = self.server
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if path == "/healthz":
                return 200, dumps_canonical({"status": "ok"})
            if path == "/readyz":
                ready, detail = await server.api_readiness()
                return (200 if ready else 503), dumps_canonical(detail)
            if path == "/packets":
                return 200, await server.api_packets_body()
            if path == "/flows":
                return 200, await server.api_flows_body()
            if path == "/reports":
                return 200, await server.api_reports_body()
            if len(parts) == 2 and parts[0] in ("flow", "report"):
                try:
                    packet = PacketKey.parse(parts[1])
                except ValueError:
                    return 400, dumps_canonical(
                        {"error": f"bad packet key {parts[1]!r}"}
                    )
                return await server.api_packet_body(parts[0], packet)
            if path == "/summary":
                return 200, dumps_canonical(await server.api_summary())
            if path == "/offsets":
                return 200, dumps_canonical(await server.api_offsets())
        elif method == "POST":
            if path == "/checkpoint":
                epoch: Optional[int] = None
                if "epoch" in query:
                    try:
                        epoch = int(query["epoch"])
                    except ValueError:
                        return 400, dumps_canonical(
                            {"error": f"bad epoch {query['epoch']!r}"}
                        )
                code, payload = await server.api_checkpoint(epoch)
                return code, dumps_canonical(payload)
            if path == "/shutdown":
                server.request_shutdown()
                return 202, dumps_canonical({"status": "draining"})
        else:
            return 405, dumps_canonical({"error": f"method {method} not allowed"})
        return 404, dumps_canonical({"error": f"no route for {path}"})


def _response_bytes(
    code: int,
    body: str,
    content_type: str = _JSON_CONTENT_TYPE,
    *,
    request_id: Optional[str] = None,
) -> bytes:
    reason = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(code, "OK")
    if not body.endswith("\n"):
        body = body + "\n"
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {code} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if request_id is not None:
        head += f"X-Request-Id: {request_id}\r\n"
    head += "Connection: close\r\n\r\n"
    return head.encode("latin-1") + payload
