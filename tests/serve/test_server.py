"""The serve layer's correctness contract, end to end.

Every test here compares daemon output against the session-scoped
``batch_flows`` string — the canonical JSON a batch ``refill analyze
--backend incremental --flows-out`` produces over the same store.  The
contract is *byte identity*, including across a mid-ingest checkpoint
restore and across server restarts.
"""

import shutil

import pytest

from repro.events.store import read_complete_lines
from repro.serve import ServeConfig, ServerThread, load_manifest
from repro.serve.client import push_lines, push_store
from repro.serve.ingest import tail_node_bind
from tests.serve.util import http_json, http_req, wait_ready


def _config(store, tmp_path, **overrides):
    defaults = dict(
        store=str(store),
        checkpoint_path=str(tmp_path / "checkpoint.json"),
        flush_interval=0.05,
        tail_interval=0.05,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestPushEquivalence:
    def test_full_push_is_byte_identical_to_batch(
        self, store, batch_flows, tmp_path
    ):
        with ServerThread(_config(store, tmp_path)) as thread:
            results = push_store(store, port=thread.tcp_port)
            assert sum(r.sent for r in results.values()) > 0
            wait_ready(thread.http_port)
            status, served = http_req(thread.http_port, "/flows")
        assert status == 200
        assert served.strip() == batch_flows

    def test_repush_sends_nothing_and_changes_nothing(
        self, store, batch_flows, tmp_path
    ):
        with ServerThread(_config(store, tmp_path)) as thread:
            push_store(store, port=thread.tcp_port)
            wait_ready(thread.http_port)
            again = push_store(store, port=thread.tcp_port)
            assert sum(r.sent for r in again.values()) == 0
            assert all(r.skipped > 0 for r in again.values())
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows

    def test_interleaved_partial_pushes_converge(
        self, store, batch_flows, tmp_path
    ):
        """Shards delivered in halves, interleaved — per-node order is all
        the reconstruction needs."""
        shards = sorted(store.glob("node_*.log"))
        with ServerThread(_config(store, tmp_path)) as thread:
            for shard in shards:
                lines = read_complete_lines(shard)
                push_lines(
                    lines[: len(lines) // 2],
                    port=thread.tcp_port,
                    source=shard.name,
                    node=tail_node_bind(shard),
                )
            # second halves ride the offset: push the whole file, the
            # server's HELLO reply skips what it already has
            results = push_store(store, port=thread.tcp_port)
            assert sum(r.skipped for r in results.values()) > 0
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows


class TestCheckpointRestart:
    def test_restart_resumes_without_reprocessing(
        self, store, batch_flows, tmp_path
    ):
        config = _config(store, tmp_path)
        with ServerThread(config) as thread:
            push_store(store, port=thread.tcp_port)
            wait_ready(thread.http_port)
        # graceful stop wrote a checkpoint; a new server adopts it
        with ServerThread(config) as thread:
            assert thread.server.restored
            again = push_store(store, port=thread.tcp_port)
            assert sum(r.sent for r in again.values()) == 0
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
            _, metrics = http_json(thread.http_port, "/metrics")
        assert served.strip() == batch_flows
        # nothing was reconstructed on the restarted server: the engine
        # never ran, so its packet counter never appeared
        assert metrics["counters"].get("refill.packets", 0) == 0

    def test_kill_and_restore_mid_ingest(self, store, batch_flows, tmp_path):
        """A checkpoint taken mid-ingest + client offsets reconstruct the
        full corpus exactly, even though the first server never saw the
        second half."""
        shards = sorted(store.glob("node_*.log"))
        config = _config(store, tmp_path)
        with ServerThread(config) as thread:
            for shard in shards:
                lines = read_complete_lines(shard)
                push_lines(
                    lines[: len(lines) // 2],
                    port=thread.tcp_port,
                    source=shard.name,
                    node=tail_node_bind(shard),
                )
            wait_ready(thread.http_port)
            status, _ = http_req(thread.http_port, "/checkpoint", method="POST")
            assert status == 200
            # freeze the mid-ingest checkpoint — the manifest and the shard
            # file it names; the graceful-stop one that follows is
            # discarded, simulating a crash right after this point
            frozen = tmp_path / "frozen"
            frozen.mkdir()
            shard_file = load_manifest(tmp_path / "checkpoint.json").shard_files[0]
            for name in ("checkpoint.json", shard_file):
                shutil.copy(tmp_path / name, frozen / name)
        for name in ("checkpoint.json", shard_file):
            shutil.copy(frozen / name, tmp_path / name)

        with ServerThread(config) as thread:
            assert thread.server.restored
            results = push_store(store, port=thread.tcp_port)
            # the halves already checkpointed are skipped, the rest is sent
            assert sum(r.skipped for r in results.values()) > 0
            assert sum(r.sent for r in results.values()) > 0
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows


class TestOtherIngestDoors:
    def test_unix_socket_ingest(self, store, batch_flows, tmp_path):
        sock_path = str(tmp_path / "refill.sock")
        config = _config(store, tmp_path, unix_socket=sock_path)
        with ServerThread(config) as thread:
            push_store(store, unix_socket=sock_path)
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows

    def test_tailed_file_picks_up_completed_lines_only(
        self, store, batch_flows, tmp_path
    ):
        shards = sorted(store.glob("node_*.log"))
        live = tmp_path / "live"
        live.mkdir()
        copies = []
        for shard in shards:
            copy = live / shard.name
            text = shard.read_text()
            head, tail = text[: len(text) // 2], text[len(text) // 2 :]
            copy.write_text(head)  # typically ends mid-line
            copies.append((copy, tail))
        expected = {
            shard.name: len(read_complete_lines(shard)) for shard in shards
        }
        config = _config(
            store, tmp_path, tail=tuple(str(c) for c, _ in copies)
        )
        with ServerThread(config) as thread:
            for copy, tail in copies:
                with copy.open("a") as handle:
                    handle.write(tail)
            self._wait_tails(thread.http_port, expected)
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows

    @staticmethod
    def _wait_tails(port, expected, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, offsets = http_json(port, "/offsets")
            got = offsets["offsets"]
            if all(got.get(name, 0) >= want for name, want in expected.items()):
                return
            time.sleep(0.05)
        raise TimeoutError(f"tails never caught up: {offsets}")


class TestCollectToServer:
    def test_collector_door_matches_in_process_session(self, tmp_path):
        from repro.analysis.pipeline import default_loss_spec
        from repro.core.backends.incremental import IncrementalBackend
        from repro.core.serialize import dumps_canonical, flows_to_json
        from repro.core.session import ReconstructionSession
        from repro.lognet.collector import collect_into, collect_to_server
        from repro.simnet.scenarios import citysee, run_scenario

        sim = run_scenario(citysee(n_nodes=10, days=1, seed=5))
        spec = default_loss_spec(sim)
        local = ReconstructionSession(
            backend=IncrementalBackend(), delivery_node=sim.base_station_node
        )
        collect_into(local, sim.true_logs, spec, 99, rounds=3)

        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
            delivery_node=sim.base_station_node,
        )
        with ServerThread(config) as thread:
            collect_to_server(
                sim.true_logs, spec, 99, port=thread.tcp_port, rounds=3
            )
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
            # pushing the same collection again is a no-op (resumable source)
            result = collect_to_server(
                sim.true_logs, spec, 99, port=thread.tcp_port, rounds=3
            )
            del result
            _, offsets = http_json(thread.http_port, "/offsets")
        assert served.strip() == dumps_canonical(
            flows_to_json(local.flows())
        )
        assert offsets["offsets"]["collector"] == offsets["received"]["collector"]
