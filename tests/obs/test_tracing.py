"""Trace context: ids, contextvar isolation, and traced-span recording."""

import asyncio

import pytest

from repro.obs import MetricsRegistry, NullRegistry, use_registry
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.obs.tracing import (
    current_trace_id,
    mint_request_id,
    mint_trace_id,
    set_trace_id,
    traced,
    use_trace,
    valid_trace_id,
)


class TestIds:
    def test_minted_ids_are_wire_safe_and_distinct(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_trace_id(t) for t in ids)
        assert all(len(t) == 16 for t in ids)

    def test_request_ids_are_shorter(self):
        rid = mint_request_id()
        assert len(rid) == 8 and valid_trace_id(rid)

    @pytest.mark.parametrize(
        "bad", ["", "has space", "x" * 65, "tab\tid", "new\nline", "quote\"id"]
    )
    def test_invalid_ids_rejected(self, bad):
        assert not valid_trace_id(bad)

    @pytest.mark.parametrize("good", ["a", "A-b_c.d:e", "0" * 64])
    def test_valid_ids_accepted(self, good):
        assert valid_trace_id(good)


class TestContext:
    def test_default_is_none(self):
        assert current_trace_id() is None

    def test_use_trace_scopes_and_restores(self):
        with use_trace("outer"):
            assert current_trace_id() == "outer"
            with use_trace("inner"):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None

    def test_use_trace_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_trace("doomed"):
                raise RuntimeError("boom")
        assert current_trace_id() is None

    def test_interleaved_tasks_keep_their_own_trace(self):
        """Two tasks yielding control back and forth never see each other's
        trace id — the contextvar isolates them (the reader/consumer
        invariant the daemon relies on)."""

        observed: dict[str, list] = {"a": [], "b": []}

        async def worker(name, gate_in, gate_out):
            set_trace_id(name)
            for _ in range(3):
                await gate_in.wait()
                gate_in.clear()
                observed[name].append(current_trace_id())
                gate_out.set()

        async def main():
            gate_a, gate_b = asyncio.Event(), asyncio.Event()
            task_a = asyncio.create_task(worker("a", gate_a, gate_b))
            task_b = asyncio.create_task(worker("b", gate_b, gate_a))
            gate_a.set()
            await asyncio.gather(task_a, task_b)

        asyncio.run(main())
        assert observed == {"a": ["a", "a", "a"], "b": ["b", "b", "b"]}

    def test_tasks_inherit_trace_at_creation(self):
        result = {}

        async def child():
            result["trace"] = current_trace_id()

        async def main():
            with use_trace("parent"):
                task = asyncio.create_task(child())
            await task

        asyncio.run(main())
        assert result["trace"] == "parent"


class TestTraced:
    def test_noop_under_null_registry(self):
        recorder = FlightRecorder()
        with use_registry(NullRegistry()), use_recorder(recorder):
            with traced("stage") as inner:
                assert inner is None
        assert len(recorder) == 0

    def test_records_span_into_recorder_and_histogram(self):
        registry, recorder = MetricsRegistry(), FlightRecorder()
        with use_registry(registry), use_recorder(recorder):
            with use_trace("t-1"):
                with traced("serve.decode", source="s1") as inner:
                    assert inner is not None
        # the span's labels carry through to its histogram instrument
        assert registry.histogram("span.serve.decode", source="s1").count == 1
        [record] = recorder.snapshot()
        assert record["name"] == "serve.decode"
        assert record["status"] == "ok"
        assert record["trace"] == "t-1"
        assert record["labels"] == {"source": "s1"}
        assert record["duration"] >= 0.0

    def test_exception_recorded_as_error_and_reraised(self):
        registry, recorder = MetricsRegistry(), FlightRecorder()
        with use_registry(registry), use_recorder(recorder):
            with pytest.raises(ValueError):
                with traced("stage"):
                    raise ValueError("boom")
        [record] = recorder.snapshot()
        assert record["status"] == "error"

    def test_cancellation_recorded_and_propagates(self):
        """A reader cancelled mid-stage (daemon shutdown) must still leave a
        span record — and the CancelledError must escape untouched."""
        registry, recorder = MetricsRegistry(), FlightRecorder()

        async def stage():
            with traced("serve.enqueue"):
                await asyncio.sleep(30)

        async def main():
            task = asyncio.create_task(stage())
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        with use_registry(registry), use_recorder(recorder):
            asyncio.run(main())
        [record] = recorder.snapshot()
        assert record["status"] == "cancelled"

    def test_nesting_records_span_path(self):
        registry, recorder = MetricsRegistry(), FlightRecorder()
        with use_registry(registry), use_recorder(recorder):
            with traced("outer"):
                with traced("inner"):
                    pass
        outer, inner = recorder.snapshot()  # newest first — outer exits last
        assert inner["name"] == "inner" and inner["path"] == "outer/inner"
        assert outer["name"] == "outer" and "path" not in outer

    def test_without_recorder_only_histogram_records(self):
        registry = MetricsRegistry()
        with use_registry(registry), use_recorder(None):
            with traced("stage"):
                pass
        assert registry.histogram("span.stage").count == 1
