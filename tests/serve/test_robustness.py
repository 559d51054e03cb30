"""The daemon under hostile input: garbled corpora, broken peers, tiny
queues.  Reuses the stress harness's fault operators so "corrupt" means the
same thing here as in the fault-injection campaigns."""

import json
import random
import shutil
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.events.store import (
    StoreMetadata,
    load_store,
    read_complete_lines,
    save_store,
    shard_path,
)
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import push_store
from repro.stress.faults import GarbleLines
from tests.serve.util import http_json, http_req, wait_ready


@pytest.fixture(scope="module")
def garbled_store(store, tmp_path_factory):
    """The shared store with ~20% of lines damaged GarbleLines-style."""
    out = tmp_path_factory.mktemp("garbled") / "store"
    shutil.copytree(store, out)
    GarbleLines(p=0.2).apply(out, random.Random(23))
    return out


@pytest.fixture(scope="module")
def garbled_batch_flows(garbled_store, tmp_path_factory):
    out = tmp_path_factory.mktemp("garbled-batch") / "flows.json"
    code = main(["analyze", "-q", "--logs", str(garbled_store), "--no-check",
                 "--backend", "incremental", "--flows-out", str(out)])
    assert code == 0
    return out.read_text().strip()


class TestGarbledCorpus:
    def test_garbled_push_matches_garbled_batch(
        self, garbled_store, garbled_batch_flows, tmp_path
    ):
        """Corrupt lines are counted and skipped identically on both doors —
        including lines whose node field was garbled into a *different valid
        node id*, which the shard binding drops just like the store loader."""
        config = ServeConfig(
            store=str(garbled_store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            push_store(garbled_store, port=thread.tcp_port)
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
            _, offsets = http_json(thread.http_port, "/offsets")
        assert served.strip() == garbled_batch_flows
        batch_corrupt = sum(load_store(garbled_store).corrupt_lines.values())
        assert batch_corrupt > 0
        assert sum(offsets["corrupt_lines"].values()) == batch_corrupt

    def test_corrupt_lines_metric_is_exported(self, garbled_store, tmp_path):
        config = ServeConfig(
            store=str(garbled_store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            push_store(garbled_store, port=thread.tcp_port)
            wait_ready(thread.http_port)
            _, metrics = http_json(thread.http_port, "/metrics")
        corrupt = [
            value for name, value in metrics["counters"].items()
            if name.startswith("codec.corrupt_lines")
        ]
        assert corrupt and sum(corrupt) > 0


@pytest.fixture()
def undecodable_store(tmp_path):
    """A one-node store whose second line ends in bytes that are not UTF-8."""
    out = tmp_path / "store"
    events = []
    for seq in range(2):
        packet = PacketKey(1, seq)
        events += [
            Event.make("gen", 1, packet=packet, time=seq * 10.0),
            Event.make("trans", 1, src=1, dst=2, packet=packet, time=seq * 10.0 + 1),
        ]
    save_store(out, {1: NodeLog(1, events)}, StoreMetadata(2, 2, 10.0))
    shard = shard_path(out, 1)
    lines = shard.read_bytes().split(b"\n")
    lines[1] += b" x=\xff\xfe"
    shard.write_bytes(b"\n".join(lines))
    return out


class TestUndecodableBytes:
    """Both doors decode bytes with one replace rule: an undecodable byte
    is neither a crash in batch nor a silent divergence from the daemon."""

    def test_batch_flows_equal_served_flows(self, undecodable_store, tmp_path):
        flows_out = tmp_path / "flows.json"
        code = main(["analyze", "-q", "--logs", str(undecodable_store),
                     "--flows-out", str(flows_out)])
        assert code == 0
        config = ServeConfig(
            store=str(undecodable_store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            push_store(undecodable_store, port=thread.tcp_port)
            wait_ready(thread.http_port)
            status, served = http_req(thread.http_port, "/flows")
        assert status == 200
        assert json.loads(served).keys() == {"p1.0", "p1.1"}
        assert served.encode("utf-8") == flows_out.read_bytes()

    def test_check_reports_findings(self, undecodable_store, capsys):
        code = main(["check", "--logs", str(undecodable_store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "TP003" in out
        assert "corrupt=0, events=4" in out


@pytest.fixture(scope="module")
def damaged_store(store, tmp_path_factory):
    """The shared store with one shard damaged at line boundaries.

    Returns ``(store, shard name, {physical line: expected rule})``: an
    ``=`` turned into ``\\x1d`` (a character ``str.splitlines`` breaks at),
    a misfiled line, an undecodable byte, and a final record torn at a token
    boundary with its newline lost.
    """
    out = tmp_path_factory.mktemp("damaged") / "store"
    shutil.copytree(store, out)
    shard = max(out.glob("node_*.log"), key=lambda f: len(f.read_bytes()))
    node = int(shard.stem.split("_")[1])
    lines = shard.read_bytes().split(b"\n")[:-1]
    assert len(lines) >= 6
    lines[1] = lines[1].replace(b"=", b"\x1d", 1)
    lines[2] = lines[2].replace(b"node=%d " % node, b"node=%d " % (node + 1000), 1)
    lines[3] = b"\xff" + lines[3]
    last = lines[-1]
    assert b" pkt=" in last
    lines[-1] = last[: last.index(b" ", last.index(b" pkt=") + 1)]
    shard.write_bytes(b"\n".join(lines))
    expected = {2: "LC001", 3: "LC002", 4: "LC001", len(lines): "LC001"}
    return out, shard.name, expected


class TestDamagedLineBoundaries:
    """One line rule at every door: a line ends at ``\\n`` only, and a torn
    final record is not a line — counted by the loader, reported by the
    lint, never sent by the push client."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_batch_flows_equal_served_flows(self, damaged_store, tmp_path, shards):
        store, _name, _expected = damaged_store
        flows_out = tmp_path / "flows.json"
        assert main(["analyze", "-q", "--logs", str(store),
                     "--flows-out", str(flows_out)]) == 0
        config = ServeConfig(
            store=str(store),
            shards=shards,
            checkpoint_path=str(tmp_path / "cp.json"),
            checkpoint_interval=0.0,
            flush_interval=0.05,
        )
        with ServerThread(config) as thread:
            push_store(store, port=thread.tcp_port)
            wait_ready(thread.http_port)
            status, served = http_req(thread.http_port, "/flows")
        assert status == 200
        assert served.encode("utf-8") == flows_out.read_bytes()

    def test_check_names_each_physical_line(self, damaged_store, capsys):
        store, name, expected = damaged_store
        assert main(["check", "--logs", str(store), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        found = {
            int(f["location"].rsplit(":", 1)[1]): f["code"]
            for f in report["findings"]
            if f["location"].startswith(name + ":")
            and f["code"] in ("LC001", "LC002")
        }
        assert found == expected
        node = int(name[len("node_"):-len(".log")])
        assert load_store(store).corrupt_lines[node] == len(expected)


class TestBrokenPeers:
    @pytest.fixture()
    def server(self, tmp_path):
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"), flush_interval=0.05
        )
        with ServerThread(config) as thread:
            yield thread

    def test_mid_line_disconnect_drops_fragment_only(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.tcp_port), timeout=30
        ) as sock:
            sock.sendall(
                b"HELLO source=flaky\n"
                b"node=1 type=send pkt=p1.1\n"
                b"node=1 type=ack pkt=p1."  # cut mid-line, no newline
            )
            with sock.makefile("rb") as rfile:
                assert rfile.readline().strip() == b"OK offset=0"
            # abrupt close: no BYE, unterminated fragment in flight
        wait_ready(server.http_port)
        _, offsets = http_json(server.http_port, "/offsets")
        assert offsets["offsets"] == {"flaky": 1}  # the complete line only
        status, _ = http_req(server.http_port, "/healthz")
        assert status == 200

    def test_resume_after_mid_line_disconnect(self, server):
        lines = [
            "node=2 type=gen pkt=p9.2",
            "node=2 type=send pkt=p9.2 dst=1",
            "node=2 type=ack pkt=p9.2",
        ]
        with socket.create_connection(
            ("127.0.0.1", server.tcp_port), timeout=30
        ) as sock:
            payload = lines[0] + "\n" + lines[1][:10]  # dies mid-second-line
            sock.sendall(b"HELLO source=retry\n" + payload.encode())
            with sock.makefile("rb") as rfile:
                assert rfile.readline().strip() == b"OK offset=0"
        wait_ready(server.http_port)

        from repro.serve.client import push_lines

        result = push_lines(lines, port=server.tcp_port, source="retry")
        assert result.skipped == 1 and result.sent == 2
        wait_ready(server.http_port)
        _, summary = http_json(server.http_port, "/summary")
        assert summary["lines_ingested"] == 3

    def test_garbage_bytes_never_kill_the_daemon(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.tcp_port), timeout=30
        ) as sock:
            sock.sendall(b"\x00\xff\xfe garbage ===\n" * 50 + b"\x00\x01")
        time.sleep(0.2)
        wait_ready(server.http_port)
        status, _ = http_req(server.http_port, "/healthz")
        assert status == 200
        _, summary = http_json(server.http_port, "/summary")
        assert summary["lines_ingested"] == 50


class TestShutdownUnderLoad:
    def test_shutdown_completes_with_idle_peers_and_full_queue(self, tmp_path):
        """Shutdown must not deadlock when (a) readers are parked in
        _enqueue() on a full 1-batch queue — the old sequence cancelled the
        only drainer first — and (b) idle ingest/HTTP connections are open,
        which from Python 3.12.1 would stall ``Server.wait_closed()``."""
        config = ServeConfig(
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
            ingest_queue_batches=1,
            ingest_batch_lines=1,
        )
        thread = ServerThread(config).start()

        def spam(port: int) -> None:
            try:
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=30
                ) as sock:
                    for _ in range(500):
                        sock.sendall(b"node=1 type=send pkt=p1.1\n" * 50)
            except OSError:
                pass  # reset mid-shutdown is the expected outcome

        idle_ingest = socket.create_connection(
            ("127.0.0.1", thread.tcp_port), timeout=30
        )
        idle_http = socket.create_connection(
            ("127.0.0.1", thread.http_port), timeout=30
        )
        pusher = threading.Thread(
            target=spam, args=(thread.tcp_port,), daemon=True
        )
        pusher.start()
        time.sleep(0.2)  # let the queue fill and a reader block on it
        try:
            thread.stop(timeout=15.0)  # raises TimeoutError on deadlock
        finally:
            idle_ingest.close()
            idle_http.close()
        pusher.join(timeout=15.0)
        assert not pusher.is_alive()
        assert (tmp_path / "cp.json").exists()


class TestBackpressure:
    def test_tiny_queue_throttles_but_completes(
        self, store, batch_flows, tmp_path
    ):
        """queue=1 batch of 8 lines: the producer is throttled through the
        TCP window, never deadlocked, and the result is still exact."""
        config = ServeConfig(
            store=str(store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=0.05,
            ingest_queue_batches=1,
            ingest_batch_lines=8,
        )
        with ServerThread(config) as thread:
            results = push_store(store, port=thread.tcp_port)
            total = sum(len(read_complete_lines(s))
                        for s in store.glob("node_*.log"))
            assert sum(r.sent for r in results.values()) == total
            wait_ready(thread.http_port)
            _, served = http_req(thread.http_port, "/flows")
        assert served.strip() == batch_flows
