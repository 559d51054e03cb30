"""The sharded cluster's correctness contract.

The oracle is absolute: a ``--shards N`` cluster must serve the exact
bytes the single daemon serves, which are themselves the exact bytes a
batch ``refill analyze`` emits — including after a kill-and-restore cycle
through the manifest, which is the checkpoint format at every
``--shards``.  Everything else here (version-1 refusal and offline
conversion, shard mismatch fail-fast, ``--print-ports`` parsing, the push
``--workers`` path) guards the operational edges around that contract.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.events.store import read_complete_lines, shard_node
from repro.serve import (
    ServeConfig,
    ServerThread,
    ShardMismatchError,
    load_checkpoint,
    load_manifest,
    push_lines,
    push_store,
    reshard_manifest,
    save_checkpoint,
)
from repro.serve.runner import read_printed_ports
from tests.serve.util import http_json, http_req, wait_ready

REPO = pathlib.Path(__file__).resolve().parents[2]


def _collect_bodies(http_port: int) -> dict[str, str]:
    return {
        path: http_req(http_port, path)[1]
        for path in ("/flows", "/reports", "/packets", "/summary")
    }


@pytest.fixture(scope="session")
def single_bodies(store, tmp_path_factory):
    """The unsharded daemon's query bodies — the byte oracle for clusters."""
    config = ServeConfig(
        store=str(store),
        checkpoint_path=str(tmp_path_factory.mktemp("single") / "ckpt.json"),
        checkpoint_interval=0.0,
    )
    with ServerThread(config) as running:
        push_store(store, port=running.tcp_port)
        wait_ready(running.http_port)
        return _collect_bodies(running.http_port)


class TestCheckpointOffByDefault:
    def test_daemons_without_checkpoint_write_nothing_into_the_store(
        self, store, batch_flows, tmp_path
    ):
        """No ``--checkpoint``: no checkpoints, so a ``--shards 1`` and then
        a ``--shards 2`` daemon over one store both start, serve the batch
        bytes, and leave the store's files as they were."""
        before = sorted(p.name for p in store.iterdir())
        for shards in (1, 2):
            config = ServeConfig(store=str(store), shards=shards)
            assert config.resolved_checkpoint() is None
            with ServerThread(config) as running:
                push_store(store, port=running.tcp_port)
                wait_ready(running.http_port)
                assert http_req(running.http_port, "/flows")[1].strip() == batch_flows
                status, _ = http_req(running.http_port, "/checkpoint", method="POST")
                assert status == 409
        assert sorted(p.name for p in store.iterdir()) == before


class TestClusterByteIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_query_bodies_match_single_and_batch(
        self, store, batch_flows, single_bodies, tmp_path, shards
    ):
        config = ServeConfig(
            store=str(store),
            shards=shards,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            checkpoint_interval=0.0,
        )
        with ServerThread(config) as running:
            push_store(store, port=running.tcp_port, workers=min(4, shards + 1))
            wait_ready(running.http_port)
            bodies = _collect_bodies(running.http_port)
            _, offsets = http_json(running.http_port, "/offsets")
            # single-packet routes hit the owning shard and come back
            # byte-identical too
            packets = json.loads(bodies["/packets"])["packets"]
            probe = packets[len(packets) // 2]
            flow_status, flow_body = http_req(
                running.http_port, f"/flow/{probe}"
            )
        assert bodies["/flows"].strip() == batch_flows
        assert bodies["/flows"] == single_bodies["/flows"]
        assert bodies["/reports"] == single_bodies["/reports"]
        assert bodies["/packets"] == single_bodies["/packets"]
        # batches_ingested counts ingest() calls, which depend on network
        # chunking (nondeterministic even unsharded) — everything else in
        # the summary is part of the contract
        summary = json.loads(bodies["/summary"])
        oracle = json.loads(single_bodies["/summary"])
        summary.pop("batches_ingested")
        oracle.pop("batches_ingested")
        assert summary == oracle
        assert flow_status == 200
        assert json.loads(flow_body) == json.loads(bodies["/flows"])[probe]
        assert offsets["lines_ingested"] == summary["lines_ingested"]

    def test_unknown_packet_404_routes_through_shard(self, store, tmp_path):
        config = ServeConfig(
            store=str(store), shards=2,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            checkpoint_interval=0.0,
        )
        with ServerThread(config) as running:
            wait_ready(running.http_port)
            status, body = http_json(running.http_port, "/flow/p999.12345")
        assert status == 404
        assert "p999.12345" in body["error"]

    def test_checkpoint_misuse_answers_400(self, store, tmp_path):
        """``epoch`` belongs to the shard protocol: the public daemon refuses
        it, and a shard worker refuses a checkpoint without one — client
        errors, not handler failures."""
        config = ServeConfig(
            store=str(store), shards=2,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            checkpoint_interval=0.0,
        )
        with ServerThread(config) as running:
            shard_port = running.listeners()["shard0-http"]["port"]
            public = http_json(running.http_port, "/checkpoint?epoch=3", "POST")
            shard = http_json(shard_port, "/checkpoint", "POST")
        assert public == (400, {"error": "epoch is internal to shard workers"})
        assert shard == (
            400, {"error": "a shard worker checkpoints only at an epoch"}
        )

    def test_merged_metrics_have_shard_labels_and_summed_counters(
        self, store, tmp_path
    ):
        config = ServeConfig(
            store=str(store),
            shards=2,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            checkpoint_interval=0.0,
        )
        with ServerThread(config) as running:
            push_store(store, port=running.tcp_port)
            wait_ready(running.http_port)
            _, snap = http_json(running.http_port, "/metrics")
            _, offsets = http_json(running.http_port, "/offsets")
        counters = snap["counters"]
        gauges = snap["gauges"]
        # shard ingest counters sum unlabeled to the routed total
        assert counters["serve.ingest.lines"] == offsets["lines_ingested"]
        # per-shard gauges are relabeled, router health gauges stay unlabeled
        for shard in (0, 1):
            assert gauges[f"serve.shard.up{{shard={shard}}}"] == 1.0
            assert f"serve.ingest.lag_lines{{shard={shard}}}" in gauges
        assert (
            gauges[f"serve.shard.lines{{shard=0}}"]
            + gauges[f"serve.shard.lines{{shard=1}}"]
            == offsets["lines_ingested"]
        )
        assert gauges["serve.ingest.lag_lines"] == 0.0


class TestClusterCheckpointLifecycle:
    def _serve_cluster(self, store, ckpt, shards, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--logs", str(store),
                "--port", "0", "--http-port", "0",
                "--shards", str(shards),
                "--checkpoint", str(ckpt),
                "--checkpoint-interval", "0",
                "--print-ports",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=str(REPO),
            start_new_session=True,  # so killpg() reaches the shard children
        )
        try:
            ports = read_printed_ports(proc.stdout, expect={"ingest", "http"})
        except Exception:
            proc.kill()
            proc.wait()
            raise
        return proc, ports["ingest"]["port"], ports["http"]["port"]

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_kill_and_restore_mid_ingest(
        self, store, batch_flows, tmp_path, shards
    ):
        """Push half, checkpoint, SIGKILL the whole process group, restart
        from the manifest, re-push everything: the resumed cluster sends
        only the tail and still serves the batch-identical bytes."""
        ckpt = tmp_path / "ckpt.json"
        proc, ingest, http = self._serve_cluster(store, ckpt, shards)
        try:
            half_counts = {}
            for shard_log in sorted(store.glob("node_*.log")):
                lines = read_complete_lines(shard_log)
                half = lines[: len(lines) // 2]
                half_counts[shard_log.name] = len(half)
                push_lines(
                    half,
                    port=ingest,
                    source=shard_log.name,
                    node=shard_node(shard_log),
                )
            wait_ready(http)
            status, body = http_json(http, "/checkpoint", method="POST")
            assert status == 200
            assert body["epoch"] == 1
        finally:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)

        manifest = load_manifest(ckpt)
        assert manifest.shards == shards
        assert manifest.lines_routed == sum(half_counts.values())

        proc, ingest, http = self._serve_cluster(store, ckpt, shards)
        try:
            results = push_store(store, port=ingest, workers=2)
            assert {s: r.skipped for s, r in results.items()} == half_counts
            assert all(r.sent > 0 for r in results.values())
            wait_ready(http)
            _, flows = http_req(http, "/flows")
            assert flows.strip() == batch_flows
        finally:
            status, _ = http_req(http, "/shutdown", method="POST")
            assert status == 202
            assert proc.wait(timeout=60) == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sigterm_then_restart_re_push_sends_zero(
        self, store, batch_flows, tmp_path, shards
    ):
        """Graceful SIGTERM commits a final manifest; a restarted daemon
        resumes from it and a full re-push is a complete no-op."""
        ckpt = tmp_path / "ckpt.json"
        proc, ingest, http = self._serve_cluster(store, ckpt, shards)
        try:
            push_store(store, port=ingest)
            wait_ready(http)
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        total = sum(
            len(read_complete_lines(p)) for p in store.glob("node_*.log")
        )
        manifest = load_manifest(ckpt)
        assert manifest.shards == shards
        assert manifest.lines_routed == total

        proc, ingest, http = self._serve_cluster(store, ckpt, shards)
        try:
            results = push_store(store, port=ingest)
            assert sum(r.sent for r in results.values()) == 0
            assert sum(r.skipped for r in results.values()) == total
            wait_ready(http)
            _, flows = http_req(http, "/flows")
            assert flows.strip() == batch_flows
        finally:
            status, _ = http_req(http, "/shutdown", method="POST")
            assert status == 202
            assert proc.wait(timeout=60) == 0


class TestClusterMigrationAndGuards:
    def test_v1_checkpoint_needs_offline_conversion(
        self, store, batch_flows, tmp_path
    ):
        """A version-1 file at the checkpoint path stops start-up with a
        pointer to the offline converter; once converted, the daemon
        restores from it and a re-push sends nothing."""
        ckpt = tmp_path / "ckpt.json"
        single = ServeConfig(
            store=str(store),
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with ServerThread(single) as running:
            push_store(store, port=running.tcp_port)
            wait_ready(running.http_port)
        manifest = load_manifest(ckpt)
        save_checkpoint(
            ckpt, load_checkpoint(tmp_path / manifest.shard_files[0])
        )

        cluster = ServeConfig(
            store=str(store),
            shards=2,
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with pytest.raises(RuntimeError) as excinfo:
            ServerThread(cluster).start()
        assert "reshard_manifest" in str(excinfo.value.__cause__)

        reshard_manifest(ckpt, 2)
        with ServerThread(cluster) as running:
            assert running.server.restored
            results = push_store(store, port=running.tcp_port)
            assert sum(r.sent for r in results.values()) == 0
            wait_ready(running.http_port)
            _, flows = http_req(running.http_port, "/flows")
        assert flows.strip() == batch_flows
        assert load_manifest(ckpt).shards == 2

    def test_shard_count_mismatch_fails_fast(self, store, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        two = ServeConfig(
            store=str(store),
            shards=2,
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with ServerThread(two) as running:
            push_store(store, port=running.tcp_port)
            wait_ready(running.http_port)
        assert load_manifest(ckpt).shards == 2

        three = ServeConfig(
            store=str(store),
            shards=3,
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with pytest.raises(RuntimeError) as excinfo:
            ServerThread(three).start()
        cause = excinfo.value.__cause__
        assert isinstance(cause, ShardMismatchError)
        assert "--shards 2" in str(cause)
        assert "reshard" in str(cause)

    def test_single_shard_rejects_two_shard_manifest(self, store, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        two = ServeConfig(
            store=str(store),
            shards=2,
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with ServerThread(two) as running:
            push_store(store, port=running.tcp_port)
            wait_ready(running.http_port)

        single = ServeConfig(
            store=str(store),
            checkpoint_path=str(ckpt),
            checkpoint_interval=0.0,
        )
        with pytest.raises(RuntimeError) as excinfo:
            ServerThread(single).start()
        cause = excinfo.value.__cause__
        assert isinstance(cause, ShardMismatchError)
        assert "--shards 2" in str(cause)


class TestPrintedPorts:
    def test_read_printed_ports_skips_noise_and_stops_early(self):
        lines = iter(
            [
                "level=info logger=refill.serve event=serve.listening\n",
                json.dumps({"listener": "ingest", "transport": "tcp",
                            "host": "127.0.0.1", "port": 1234}) + "\n",
                "not json {\n",
                json.dumps({"listener": "http", "transport": "tcp",
                            "host": "127.0.0.1", "port": 5678}) + "\n",
                json.dumps({"listener": "shard0-http", "transport": "tcp",
                            "host": "127.0.0.1", "port": 9999}) + "\n",
            ]
        )
        ports = read_printed_ports(lines, expect={"ingest", "http"})
        assert ports["ingest"]["port"] == 1234
        assert ports["http"]["port"] == 5678
        # stopped as soon as the expected set was satisfied
        assert "shard0-http" not in ports
        assert "shard0-http" in next(lines)

    def test_read_printed_ports_raises_on_truncated_stream(self):
        with pytest.raises(ValueError, match="http"):
            read_printed_ports(
                [json.dumps({"listener": "ingest", "port": 1})],
                expect={"ingest", "http"},
            )

    def test_cli_emits_one_line_per_listener(self, store, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--logs", str(store),
                "--port", "0", "--http-port", "0",
                "--shards", "2",
                "--checkpoint", str(tmp_path / "ckpt.json"),
                "--checkpoint-interval", "0",
                "--print-ports",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=str(REPO),
            start_new_session=True,
        )
        try:
            ports = read_printed_ports(
                proc.stdout,
                expect={
                    "ingest", "http",
                    "shard0-ingest", "shard0-http",
                    "shard1-ingest", "shard1-http",
                },
            )
            for name, entry in ports.items():
                assert entry["transport"] == "tcp"
                assert entry["port"] > 0, name
            status, _ = http_req(ports["http"]["port"], "/shutdown", "POST")
            assert status == 202
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                proc.wait(timeout=30)
