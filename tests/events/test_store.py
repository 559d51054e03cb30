"""Unit tests for the on-disk log store."""

import pytest

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.events.store import LoadedStore, StoreMetadata, load_store, save_store


@pytest.fixture()
def sample_logs():
    pkt = PacketKey(1, 0)
    return {
        1: NodeLog(1, [
            Event.make("gen", 1, packet=pkt, time=0.0),
            Event.make("trans", 1, src=1, dst=2, packet=pkt, time=1.0),
        ]),
        2: NodeLog(2, [Event.make("recv", 2, src=1, dst=2, packet=pkt, time=1.5)]),
    }


@pytest.fixture()
def metadata():
    return StoreMetadata(
        sink=2, base_station=3, gen_interval=60.0,
        outages=((10.0, 20.0),), extra={"seed": 9},
    )


class TestRoundTrip:
    def test_save_load(self, tmp_path, sample_logs, metadata):
        save_store(tmp_path / "store", sample_logs, metadata)
        store = load_store(tmp_path / "store")
        assert store.logs == sample_logs
        assert store.metadata.sink == 2
        assert store.metadata.outages == ((10.0, 20.0),)
        assert store.metadata.extra["seed"] == 9
        assert store.corrupt_lines == {}
        assert store.total_events == 3

    def test_metadata_json_round_trip(self, metadata):
        assert StoreMetadata.from_json(metadata.to_json()) == metadata


class TestTolerantLoading:
    def corrupt(self, tmp_path, sample_logs, metadata, extra_lines):
        path = save_store(tmp_path / "store", sample_logs, metadata)
        target = path / "node_0001.log"
        target.write_text(target.read_text() + extra_lines)
        return path

    def test_garbage_lines_skipped_and_counted(self, tmp_path, sample_logs, metadata):
        path = self.corrupt(tmp_path, sample_logs, metadata, "xx yy zz\n")
        store = load_store(path)
        assert store.corrupt_lines == {1: 1}
        assert len(store.logs[1]) == 2  # the good records survive

    def test_wrong_node_line_skipped(self, tmp_path, sample_logs, metadata):
        path = self.corrupt(tmp_path, sample_logs, metadata, "node=9 type=gen\n")
        store = load_store(path)
        assert store.corrupt_lines == {1: 1}

    def test_missing_metadata_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="operations.json"):
            load_store(tmp_path / "empty")
