"""Tests for multi-core reconstruction (:mod:`repro.core.split`): every
split must give the reports, flows document and counters of the
in-process default session exactly."""

import errno
import os
import signal

import pytest

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core import split
from repro.core.serialize import document_parts, encode_flows
from repro.core.session import ReconstructionSession, RefillOptions
from repro.core.split import WorkerFailed, can_fork, reconstruct_slices
from repro.events.log import NodeLog
from repro.lognet.collector import collect_logs
from repro.obs import MetricsRegistry, use_registry
from repro.simnet.scenarios import citysee


@pytest.fixture(scope="module")
def collected_logs():
    params = citysee(n_nodes=60, days=1, seed=23)
    sim = run_simulation(params)
    return collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )


def in_process(logs, options=RefillOptions()):
    session = ReconstructionSession(options=options)
    flows = session.reconstruct(logs)
    return flows, session.diagnose(flows)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def document(run):
    return "".join(run.document_parts())


class TestParallelMatchesSerial:
    def test_identical_flows(self, collected_logs):
        flows, reports = in_process(collected_logs)
        run = reconstruct_slices(collected_logs, workers=2, encode=True)
        assert document(run) == encode_flows(flows)
        assert run.reports == reports
        if can_fork():
            assert run.processes == 2

    def test_small_inputs_run_serially(self, collected_logs):
        # a store with fewer packets than workers forks one worker per
        # packet at most, and an empty one forks none
        run = reconstruct_slices({}, workers=4, encode=True)
        assert (document(run), run.reports, run.processes) == ("{}", {}, 1)
        node, log = next((n, log) for n, log in sorted(collected_logs.items()) if log.packets())
        keep = sorted(log.packets())[:3]
        three = {node: NodeLog(node, [e for e in log if e.packet in keep])}
        few = reconstruct_slices(three, workers=6, encode=True)
        assert len(few.reports) == 3 and few.processes <= 3
        assert document(few) == encode_flows(ReconstructionSession().reconstruct(three))

    def test_options_forwarded(self, collected_logs):
        options = RefillOptions(enable_inter=False)
        flows, reports = in_process(collected_logs, options)
        run = reconstruct_slices(collected_logs, options=options, workers=2, encode=True)
        # options took effect in the workers: flows match the in-process
        # inter-disabled run (intra-jump inference may remain)
        assert document(run) == encode_flows(flows)
        assert run.reports == reports

    def test_strip_times_respected_in_workers(self, collected_logs):
        """Regression: a pooled path once forwarded only the reconstructor
        options, silently dropping ``strip_times`` — workers reconstructed
        from timestamped events while an in-process run did not."""
        options = RefillOptions(strip_times=True)
        flows, _ = in_process(collected_logs, options)
        run = reconstruct_slices(collected_logs, options=options, workers=2, encode=True)
        assert all(e.time is None for flow in flows.values() for e in flow.events)
        assert document(run) == encode_flows(flows)

    def test_single_worker_degrades_to_serial(self, collected_logs, monkeypatch):
        def no_fork():
            raise AssertionError("--workers 1 must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        flows, reports = in_process(collected_logs)
        run = reconstruct_slices(collected_logs, workers=1, encode=True)
        assert (document(run), run.reports, run.processes) == (
            encode_flows(flows), reports, 1
        )

    def test_one_process_keeps_its_flows_until_written(self, collected_logs):
        flows, _ = in_process(collected_logs)
        run = reconstruct_slices(collected_logs, workers=1, encode=True)
        # the flows themselves, not their bytes: the document streams
        assert [type(part) for part in run.parts] == [dict]
        assert document(run) == document(run) == encode_flows(flows)

    def test_workers_must_be_positive(self, collected_logs):
        with pytest.raises(ValueError, match="at least 1"):
            reconstruct_slices(collected_logs, workers=0)


class TestSlices:
    def test_slices_are_contiguous_in_document_order(self, collected_logs):
        from repro.events.merge import group_by_packet

        groups = group_by_packet(collected_logs)
        keys = sorted(groups, key=str)
        for processes in (2, 3, 7):
            slices = split._cut(keys, groups, processes)
            assert [k for chunk in slices for k in chunk] == keys
            assert all(slices) and len(slices) <= processes
            # about equal evidence: no slice holds twice its share
            weight = [sum(sum(map(len, groups[k].values())) for k in c) for c in slices]
            assert max(weight) <= 2 * sum(weight) / processes

    def test_document_framing_spans_runs(self):
        assert "".join(document_parts([[], ['"a":1'], [], ['"b":2', '"c":3']])) == (
            '{"a":1,"b":2,"c":3}'
        )
        assert "".join(document_parts([[], []])) == "".join(document_parts([])) == "{}"

    def test_no_fork_beside_other_threads(self, monkeypatch):
        monkeypatch.setattr(split.threading, "active_count", lambda: 2)
        assert not can_fork()


class TestWorkerMetricsMerge:
    def test_parallel_counters_equal_serial(self, collected_logs):
        """Worker registries merged back == one in-process registry, counter
        for counter (the memo's hit/miss split aside) — the split must not
        lose or double-count work."""
        with use_registry(MetricsRegistry()) as serial_reg:
            flows, _ = in_process(collected_logs)
        with use_registry(MetricsRegistry()) as parallel_reg:
            reconstruct_slices(collected_logs, workers=3)
        serial = serial_reg.snapshot().counters
        parallel = parallel_reg.snapshot().counters
        for counters in (serial, parallel):
            hits = counters.pop("refill.memo.hits")
            misses = counters.pop("refill.memo.misses")
            assert hits + misses == counters["refill.packets"]
        assert serial == parallel
        # and the run actually counted something
        assert serial["refill.packets"] == len(flows)
        assert serial["refill.events.logged"] > 0

    def test_span_observations_cover_every_packet(self, collected_logs):
        with use_registry(MetricsRegistry()) as reg:
            run = reconstruct_slices(collected_logs, workers=2, encode=True)
        histograms = reg.snapshot().histograms
        assert histograms["span.reconstruct.packet"].count == len(run.reports)
        # one reconstruct, diagnose and encode span per process, plus the
        # parent's grouping under analyze.reconstruct; a one-process run
        # encodes as its document is written, outside the call
        assert histograms["span.analyze.diagnose"].count == run.processes
        encoded = histograms.get("span.analyze.encode")
        assert (encoded.count if encoded else 0) == (run.processes if run.processes > 1 else 0)
        assert histograms["span.analyze.reconstruct"].count == run.processes + 1


class TestWorkerFailure:
    """A failed worker fails the whole call, and no worker outlives it."""

    @pytest.fixture(autouse=True)
    def forked(self, monkeypatch):
        """The pids of the workers a test forks."""
        if not can_fork():
            pytest.skip("forks only from a single-threaded process")
        fork, self.pids = os.fork, []

        def recording_fork():
            pid = fork()
            if pid:
                self.pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)

    def assert_no_children(self):
        assert self.pids, "no worker was forked"
        for pid in self.pids:  # every worker is reaped: none left to wait for
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def failing(self, monkeypatch, fail):
        parent = os.getpid()
        real = split.ReconstructionSession

        class Session(real):
            def reconstruct_groups(self, groups):
                if os.getpid() != parent:
                    fail()
                return super().reconstruct_groups(groups)

        monkeypatch.setattr(split, "ReconstructionSession", Session)

    def test_worker_raises(self, collected_logs, monkeypatch):
        def fail():
            raise RuntimeError("boom in a worker")

        self.failing(monkeypatch, fail)
        with pytest.raises(WorkerFailed, match="RuntimeError: boom in a worker"):
            reconstruct_slices(collected_logs, workers=3)
        self.assert_no_children()

    def test_worker_killed(self, collected_logs, monkeypatch):
        self.failing(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(WorkerFailed, match=f"killed by signal {int(signal.SIGKILL)}"):
            reconstruct_slices(collected_logs, workers=2)
        self.assert_no_children()

    def test_worker_exits_nonzero(self, collected_logs, monkeypatch):
        self.failing(monkeypatch, lambda: os._exit(3))
        with pytest.raises(WorkerFailed, match="exit status 3"):
            reconstruct_slices(collected_logs, workers=2)
        self.assert_no_children()

    def test_fork_failure_reaps_workers_and_closes_pipes(self, collected_logs, monkeypatch):
        recording_fork = os.fork

        def second_fork_fails():
            if self.pids:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return recording_fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        fds = open_fds()
        with pytest.raises(WorkerFailed, match="cannot start a worker: .*temporarily"):
            reconstruct_slices(collected_logs, workers=3)
        assert len(self.pids) == 1
        self.assert_no_children()
        assert open_fds() == fds

    def test_parent_failure_reaps_workers(self, collected_logs, monkeypatch):
        parent = os.getpid()
        real = split.ReconstructionSession

        class Session(real):
            def reconstruct_groups(self, groups):
                if os.getpid() == parent:
                    raise RuntimeError("the parent's own slice failed")
                return super().reconstruct_groups(groups)

        monkeypatch.setattr(split, "ReconstructionSession", Session)
        with pytest.raises(RuntimeError, match="parent's own slice"):
            reconstruct_slices(collected_logs, workers=3)
        self.assert_no_children()
