"""Checkpoint format, atomic persistence, and session state round-trips."""

import json
import os
import pathlib
import shutil
import stat

import pytest

from repro.core.backends.incremental import IncrementalBackend
from repro.core.serialize import dumps_canonical, flows_to_json, reports_to_json
from repro.core.session import (
    ReconstructionSession,
    merge_session_states,
    split_session_state,
)
from repro.events.packet import PacketKey
from repro.events.store import load_store
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    MANIFEST_VERSION,
    Checkpoint,
    ClusterManifest,
    ShardMismatchError,
    gc_shard_files,
    load_checkpoint,
    load_manifest,
    merge_checkpoints,
    open_manifest,
    reshard_checkpoint,
    reshard_manifest,
    save_checkpoint,
    save_manifest,
    shard_checkpoint_path,
)
from repro.serve.sharding import shard_for_key, shard_for_line, shard_for_packet


def _session(store_dir, **kwargs):
    meta = load_store(store_dir).metadata
    return ReconstructionSession(
        backend=IncrementalBackend(),
        delivery_node=meta.base_station,
        **kwargs,
    )


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        checkpoint = Checkpoint(
            session_state={"version": 1, "flows": {}},
            offsets={"node_0001.log": 42},
            corrupt_lines={"node_0001.log": 3},
            lines_ingested=45,
        )
        path = save_checkpoint(tmp_path / "cp.json", checkpoint)
        assert load_checkpoint(path) == checkpoint

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "deep" / "cp.json"
        save_checkpoint(path, Checkpoint(session_state={}))
        assert path.exists()
        assert list(path.parent.glob("*.tmp")) == []

    @pytest.mark.parametrize("kind", ["checkpoint", "manifest"])
    def test_atomic_write_fsyncs_file_then_directory(
        self, tmp_path, monkeypatch, kind
    ):
        """The temp file is fsynced before the rename and the directory
        after it, for v1 checkpoints and v2 manifests alike."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "cp.json"
        if kind == "checkpoint":
            save_checkpoint(path, Checkpoint(session_state={}))
        else:
            save_manifest(
                path, ClusterManifest(shards=1, epoch=1, offsets={}, shard_files=())
            )
        assert calls == ["fsync-file", "replace", "fsync-dir"]

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        data = Checkpoint(session_state={}).to_json()
        data["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_torn_file_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text('{"version": 1, "session": {')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "data, problem",
        [
            ([], "not a JSON object"),
            ({"version": 1}, "missing or malformed field"),
            ({"version": 1, "session": []}, "session is not a JSON object"),
            ({"version": 1, "session": {}, "offsets": []}, "malformed field"),
            ({"version": 1, "session": {}, "lines_ingested": None}, "malformed field"),
        ],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, data, problem):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=problem):
            load_checkpoint(path)


class TestSessionStateRoundTrip:
    def test_export_restore_preserves_flows_and_reports(self, store):
        loaded = load_store(store)
        session = _session(store)
        session.ingest(
            {node: list(log) for node, log in loaded.logs.items()}
        )
        session.refresh()
        state = session.export_state()

        restored = _session(store)
        restored.restore_state(state)
        assert dumps_canonical(flows_to_json(restored.flows())) == dumps_canonical(
            flows_to_json(session.flows())
        )
        assert dumps_canonical(
            reports_to_json(restored.reports())
        ) == dumps_canonical(reports_to_json(session.reports()))
        assert restored.batches_ingested == session.batches_ingested

    def test_restore_mid_ingest_then_continue(self, store):
        """Export with dirty packets pending, restore, finish ingest —
        results must match a straight-through run."""
        loaded = load_store(store)
        nodes = sorted(loaded.logs)
        half = len(nodes) // 2

        straight = _session(store)
        straight.ingest({n: list(loaded.logs[n]) for n in nodes})

        first = _session(store)
        first.ingest({n: list(loaded.logs[n]) for n in nodes[:half]})
        state = first.export_state()  # dirty set intentionally non-empty

        second = _session(store)
        second.restore_state(state)
        second.ingest({n: list(loaded.logs[n]) for n in nodes[half:]})
        assert dumps_canonical(flows_to_json(second.flows())) == dumps_canonical(
            flows_to_json(straight.flows())
        )

    def test_unsupported_state_version_raises(self, store):
        session = _session(store)
        with pytest.raises(ValueError, match="version"):
            session.restore_state({"version": 999})

    def test_state_without_events_raises(self, store):
        session = _session(store)
        with pytest.raises(ValueError, match="backend events"):
            session.restore_state({"version": 2, "batches_ingested": 0})

    def test_export_holds_the_evidence_only(self, store):
        state = _store_checkpoint(store).session_state
        assert state["version"] == 2
        assert set(state) == {"version", "batches_ingested", "backend"}
        assert set(state["backend"]) == {"events"}

    def test_restore_derives_each_packet_exactly_once(self, store):
        """Every restored packet is pending; one refresh reconstructs each
        exactly once, and later queries reconstruct nothing more."""
        state = _store_checkpoint(store).session_state
        restored = _session(store)
        registry = MetricsRegistry()
        with use_registry(registry):
            restored.restore_state(state)
            packets = len(restored.packets())
            assert packets > 0
            assert restored.pending == packets
            restored.refresh()
            restored.flows()
            restored.reports()
        assert restored.pending == 0
        assert registry.snapshot().counters["refill.packets"] == packets


class TestShardHash:
    def test_deterministic_and_stable(self):
        # golden values: the hash is part of the on-disk contract (manifest
        # shard files were partitioned with it), so it must never drift
        assert shard_for_key(0, 0, 4) == shard_for_key(0, 0, 4)
        golden = [shard_for_key(o, s, 4) for o, s in [(1, 1), (1, 2), (2, 1), (7, 99)]]
        assert golden == [shard_for_key(o, s, 4) for o, s in [(1, 1), (1, 2), (2, 1), (7, 99)]]

    def test_single_shard_is_always_zero(self):
        assert shard_for_key(123, 456, 1) == 0
        assert shard_for_line("garbage", 1) == 0

    def test_spreads_across_shards(self):
        seen = {
            shard_for_key(origin, seq, 4)
            for origin in range(8)
            for seq in range(64)
        }
        assert seen == {0, 1, 2, 3}

    def test_line_packet_and_key_forms_agree(self):
        packet = PacketKey(origin=3, seq=17)
        line = "node=3 type=send src=3 dst=0 pkt=p3.17 t=12"
        assert shard_for_line(line, 4) == shard_for_packet(packet, 4)
        assert shard_for_packet(packet, 4) == shard_for_key(3, 17, 4)

    def test_keyless_lines_go_to_shard_zero(self):
        assert shard_for_line("node=3 type=boot t=0", 4) == 0
        # a pkt= substring inside another token is not a packet key
        assert shard_for_line("node=3 type=x blobpkt=p1.2", 4) == shard_for_line(
            "node=3 type=x", 4
        )


def _store_checkpoint(store_dir) -> Checkpoint:
    loaded = load_store(store_dir)
    session = _session(store_dir)
    session.ingest({node: list(log) for node, log in loaded.logs.items()})
    session.refresh()
    return Checkpoint(
        session_state=session.export_state(),
        offsets={"node_0001.log": 42, "node_0002.log": 7},
        corrupt_lines={"node_0001.log": 1},
        lines_ingested=49,
    )


class TestClusterManifest:
    @pytest.mark.parametrize(
        "data, problem",
        [
            ([], "not a JSON object"),
            ({"version": 2}, "missing or malformed field"),
            ({"version": 2, "shards": 1, "shard_files": ["a.json"]}, "missing or malformed field"),
            ({"version": 2, "shards": None, "epoch": 1}, "malformed field"),
            ({"version": 2, "shards": 1, "epoch": 1, "shard_files": ["a.json"],
              "offsets": 3}, "malformed field"),
        ],
    )
    def test_malformed_manifest_raises_value_error(self, tmp_path, data, problem):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=problem):
            load_manifest(path)
        with pytest.raises(ValueError, match=problem):
            open_manifest(path, 1)

    def test_round_trip(self, tmp_path):
        manifest = ClusterManifest(
            shards=2,
            epoch=3,
            offsets={"a.log": 10},
            lines_routed=10,
            shard_files=("cp.shard00.e3.json", "cp.shard01.e3.json"),
        )
        path = save_manifest(tmp_path / "cp.json", manifest)
        assert load_manifest(path) == manifest
        assert json.loads(path.read_text())["version"] == MANIFEST_VERSION

    def test_v1_file_is_not_a_manifest(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, Checkpoint(session_state={}))
        with pytest.raises(ValueError, match="manifest version 1"):
            load_manifest(path)

    def test_manifest_is_not_a_v1_checkpoint(self, tmp_path):
        path = save_manifest(
            tmp_path / "cp.json",
            ClusterManifest(shards=2, epoch=1, offsets={}, shard_files=()),
        )
        with pytest.raises(ValueError, match="checkpoint version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "shards, files, problem",
        [
            (0, [], "positive"),
            (2, ["cp.shard00.e1.json"], "1 shard files for 2 shards"),
            (1, ["/etc/passwd"], "bare file name"),
            (1, ["../cp.shard00.e1.json"], "bare file name"),
            (1, [".."], "bare file name"),
        ],
    )
    def test_untrusted_manifest_is_refused(self, tmp_path, shards, files, problem):
        """A manifest names exactly one bare file per shard, so every read
        stays inside the manifest's directory."""
        path = tmp_path / "cp.json"
        path.write_text(
            json.dumps(
                {"version": MANIFEST_VERSION, "shards": shards, "epoch": 1,
                 "shard_files": files}
            )
        )
        with pytest.raises(ValueError, match=problem):
            load_manifest(path)


    def test_shard_checkpoint_path_layout(self, tmp_path):
        path = shard_checkpoint_path(tmp_path / "refill-checkpoint.json", 3, 12)
        assert path.parent == tmp_path
        assert path.name == "refill-checkpoint.shard03.e12.json"

    def test_gc_treats_the_stem_as_a_literal_name(self, tmp_path):
        """A glob character in the checkpoint name neither matches another
        daemon's files nor hides this daemon's own stale epoch."""
        manifest_path = tmp_path / "cp[1].json"
        keep = shard_checkpoint_path(manifest_path, 0, 2)
        stale = shard_checkpoint_path(manifest_path, 0, 1)
        other = tmp_path / "cp1.shard00.e3.json"  # matched by cp[1] as a glob
        for p in (keep, stale, other):
            p.write_text("{}")
        manifest = ClusterManifest(
            shards=1, epoch=2, offsets={}, shard_files=(keep.name,)
        )
        assert gc_shard_files(manifest_path, manifest) == [stale]
        assert keep.exists() and other.exists() and not stale.exists()

    def test_gc_removes_only_stale_epochs(self, tmp_path):
        manifest_path = tmp_path / "cp.json"
        keep = shard_checkpoint_path(manifest_path, 0, 2)
        stale = shard_checkpoint_path(manifest_path, 0, 1)
        other = tmp_path / "unrelated.json"
        for p in (keep, stale, other):
            p.write_text("{}")
        manifest = ClusterManifest(
            shards=1, epoch=2, offsets={}, shard_files=(keep.name,)
        )
        save_manifest(manifest_path, manifest)
        removed = gc_shard_files(manifest_path, manifest)
        assert removed == [stale]
        assert keep.exists() and other.exists() and not stale.exists()


class TestOpenManifest:
    """The start-up restore check a daemon runs before it listens."""

    def test_missing_file_is_a_fresh_start(self, tmp_path):
        assert open_manifest(tmp_path / "cp.json", 1) is None

    def test_v1_file_names_the_converter(self, tmp_path):
        path = save_checkpoint(tmp_path / "cp.json", Checkpoint(session_state={}))
        with pytest.raises(ValueError, match=r"reshard_manifest\(.*cp\.json', 3\)"):
            open_manifest(path, 3)

    def test_shard_count_mismatch(self, tmp_path):
        path = save_manifest(
            tmp_path / "cp.json",
            ClusterManifest(shards=1, epoch=1, shard_files=("cp.shard00.e1.json",)),
        )
        with pytest.raises(ShardMismatchError, match="--shards 1"):
            open_manifest(path, 2)

    def test_missing_shard_file(self, tmp_path):
        path = save_manifest(
            tmp_path / "cp.json",
            ClusterManifest(shards=1, epoch=1, shard_files=("cp.shard00.e1.json",)),
        )
        with pytest.raises(ValueError, match="missing shard file"):
            open_manifest(path, 1)
        save_checkpoint(tmp_path / "cp.shard00.e1.json", Checkpoint(session_state={}))
        assert open_manifest(path, 1) == load_manifest(path)


class TestReshard:
    def test_split_then_merge_is_identity(self, store):
        checkpoint = _store_checkpoint(store)
        parts = reshard_checkpoint(checkpoint, 3)
        assert len(parts) == 3
        merged = merge_checkpoints(parts)
        assert merged.session_state == checkpoint.session_state
        assert merged.offsets == checkpoint.offsets
        assert merged.corrupt_lines == checkpoint.corrupt_lines
        assert merged.lines_ingested == checkpoint.lines_ingested

    def test_offsets_stay_on_shard_zero(self, store):
        checkpoint = _store_checkpoint(store)
        parts = reshard_checkpoint(checkpoint, 3)
        assert parts[0].offsets == checkpoint.offsets
        assert parts[0].lines_ingested == checkpoint.lines_ingested
        for part in parts[1:]:
            assert part.offsets == {}
            assert part.lines_ingested == 0

    def test_partition_follows_the_cluster_hash(self, store):
        checkpoint = _store_checkpoint(store)
        parts = reshard_checkpoint(checkpoint, 4)
        seen = 0
        for index, part in enumerate(parts):
            for packet in part.session_state["backend"]["events"]:
                assert shard_for_packet(PacketKey.parse(packet), 4) == index
                seen += 1
        assert seen == len(checkpoint.session_state["backend"]["events"]) > 0

    def test_split_session_state_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            split_session_state({"version": 99}, 2, lambda p: 0)

    def test_merge_session_states_restores_canonical_order(self, store):
        checkpoint = _store_checkpoint(store)
        state = checkpoint.session_state
        parts = split_session_state(
            state, 2, lambda p: shard_for_packet(p, 2)
        )
        merged = merge_session_states(list(reversed(parts)))
        assert dumps_canonical(merged) == dumps_canonical(state)

    def test_merging_version_1_states_writes_version_2(self, tmp_path):
        """Resharding a checkpoint written before session state held
        evidence only keeps its events and drops the derived caches."""
        fixture = pathlib.Path(__file__).parents[1] / "fixtures" / "v1-shard-checkpoint"
        for name in ("cp.json", "cp.shard00.e1.json"):
            shutil.copy(fixture / name, tmp_path / name)
        old = load_checkpoint(tmp_path / "cp.shard00.e1.json").session_state
        assert old["version"] == 1 and old["backend"]["dirty"]
        manifest = reshard_manifest(tmp_path / "cp.json", 2)
        merged = merge_checkpoints(
            [load_checkpoint(tmp_path / name) for name in manifest.shard_files]
        ).session_state
        assert merged == {
            "version": 2,
            "batches_ingested": old["batches_ingested"],
            "backend": {"events": old["backend"]["events"]},
        }

    def test_reshard_manifest_offline(self, store, tmp_path):
        """The documented rebalancing runbook: stop, reshard, restart."""
        path = tmp_path / "cp.json"
        save_checkpoint(path, _store_checkpoint(store))  # v1 input works too
        manifest = reshard_manifest(path, 3)
        assert manifest.shards == 3
        assert load_manifest(path) == manifest
        files = [tmp_path / name for name in manifest.shard_files]
        assert all(f.exists() for f in files)
        merged = merge_checkpoints([load_checkpoint(f) for f in files])
        assert merged.session_state == _store_checkpoint(store).session_state

        # rebalance again, manifest → manifest, and check the old epoch's
        # files are gone
        second = reshard_manifest(path, 2)
        assert second.shards == 2
        assert second.epoch == manifest.epoch + 1
        remaining = sorted(p.name for p in tmp_path.glob("cp.shard*.json"))
        assert remaining == sorted(second.shard_files)
