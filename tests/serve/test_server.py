"""The serve layer's correctness contract, end to end.

Every test here compares daemon output against the session-scoped
``batch_flows`` string — the canonical JSON a batch ``refill analyze
--backend incremental --flows-out`` produces over the same store.  The
contract is *byte identity*, including across a mid-ingest checkpoint
restore and across server restarts.
"""

import json
import pathlib
import shutil
import threading

from repro.cli import main
from repro.events.store import read_complete_lines, shard_node
from repro.serve import (
    RefillServer,
    ServeConfig,
    ServerThread,
    load_checkpoint,
    load_manifest,
)
from repro.serve.client import push_lines, push_store
from repro.serve.shard import ShardWorker
from tests.serve.util import http_json, http_req, wait_ready

#: A canonical-order line whose info key is named like an ``Event`` field.
COLLIDING_LINE = "node=2 type=recv src=1 dst=2 pkt=p1.1 time=5"


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
                    node=shard_node(shard),
                )
            # second halves ride the offset: push the whole file, the
            # server's HELLO reply skips what it already has
            results = push_store(store, port=thread.tcp_port)
            assert sum(r.skipped for r in results.values()) > 0
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows


#: A checkpoint in the format before session state held evidence only.
V1_FIXTURE = pathlib.Path(__file__).parents[1] / "fixtures" / "v1-shard-checkpoint"


class TestCheckpointRestart:
    def test_restart_derives_each_restored_packet_once(
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
        # the checkpoint holds evidence only: restore reconstructed every
        # restored packet exactly once, and the 0-line re-push added none
        restored = len(json.loads(served))
        assert metrics["counters"]["refill.packets"] == restored

    def test_version_1_shard_file_restores_byte_identical(self, tmp_path):
        """A shard file written before session state held evidence only
        (flows, reports and a non-empty dirty set included) restores to
        the answers that daemon gave, then resumes ingest like any other."""
        work = tmp_path / "v1"
        shutil.copytree(V1_FIXTURE, work)
        fixture_store = work / "store"
        config = ServeConfig(
            store=str(fixture_store),
            checkpoint_path=str(work / "cp.json"),
            checkpoint_interval=0.0,
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            assert thread.server.restored
            wait_ready(thread.http_port)
            _, flows = http_req(thread.http_port, "/flows")
            _, reports = http_req(thread.http_port, "/reports")
            _, metrics = http_json(thread.http_port, "/metrics")
            assert flows.strip() == (work / "flows.json").read_text().strip()
            assert reports.strip() == (work / "reports.json").read_text().strip()
            assert metrics["counters"]["refill.packets"] == len(json.loads(flows))

            manifest = load_manifest(work / "cp.json")
            results = push_store(fixture_store, port=thread.tcp_port)
            assert {s: r.skipped for s, r in results.items()} == manifest.offsets
            assert sum(r.sent for r in results.values()) > 0
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        batch = tmp_path / "batch.json"
        assert main(["analyze", "-q", "--logs", str(fixture_store), "--no-check",
                     "--backend", "incremental", "--flows-out", str(batch)]) == 0
        assert served.strip() == batch.read_text().strip()
        # the graceful stop rewrote the checkpoint at the current version
        shard_file = work / load_manifest(work / "cp.json").shard_files[0]
        session = load_checkpoint(shard_file).session_state
        assert session["version"] == 2
        assert set(session) == {"version", "batches_ingested", "backend"}
        assert set(session["backend"]) == {"events"}

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
                    node=shard_node(shard),
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

    def test_info_key_named_time_survives_a_restart(self, tmp_path):
        """The daemon must restore every checkpoint it writes: an info key
        named like an ``Event`` field is data, not a keyword."""
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"), flush_interval=0.05
        )
        with ServerThread(config) as thread:
            push_lines([COLLIDING_LINE], port=thread.tcp_port, source="s1")
            wait_ready(thread.http_port)
            _, before = http_req(thread.http_port, "/flows")
        assert '"info":{"time":"5"}' in before
        with ServerThread(config) as thread:
            assert thread.server.restored
            wait_ready(thread.http_port)
            _, after = http_req(thread.http_port, "/flows")
        assert after == before


class TestFailStop:
    def test_consumer_failure_stops_the_daemon(self, tmp_path, monkeypatch, capsys):
        """Any consumer exception fail-stops like a dead shard: one error
        line, no final checkpoint, ``run()`` returns 1."""
        real_ingest = ShardWorker.ingest_item

        def ingest_item(self, item):
            if any("boom=1" in line for line in item.lines):
                raise RuntimeError("injected consumer failure")
            real_ingest(self, item)

        monkeypatch.setattr(ShardWorker, "ingest_item", ingest_item)
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"), flush_interval=0.05
        )
        server = RefillServer(config)
        started = threading.Event()
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(server.run(ready=lambda _s: started.set())),
            daemon=True,
        )
        runner.start()
        try:
            assert started.wait(30)
            push_lines([COLLIDING_LINE], port=server.tcp_port, source="good")
            wait_ready(server.http_port)
            status, body = http_json(server.http_port, "/checkpoint", method="POST")
            assert status == 200
            push_lines(["node=3 type=gen boom=1"], port=server.tcp_port, source="bad")
            runner.join(30)
            assert not runner.is_alive(), "daemon kept serving with a dead consumer"
        finally:
            if runner.is_alive():
                server.request_shutdown()
                runner.join(30)
        assert codes == [1]
        assert load_manifest(tmp_path / "cp.json").epoch == body["epoch"]
        assert capsys.readouterr().err.count("event=serve.consumer-failed") == 1


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
