"""Tests for collection-round splitting and the shard-at-a-time store reader."""

import pytest

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import split_collection_rounds
from repro.events.packet import PacketKey
from repro.events.store import StoreMetadata, iter_store_logs, save_store


def ev(etype, node, pkt=None, time=None):
    return Event.make(etype, node, packet=pkt, time=time)


@pytest.fixture()
def logs():
    packets = [PacketKey(n, s) for n in (1, 2, 3) for s in range(4)]
    out = {}
    for node in (1, 2, 3, 99):
        events = [ev("recv", node, pkt=p) for p in packets if p.origin != node]
        events.append(ev("beacon", node))  # packet-less, must be ignored
        out[node] = NodeLog(node, events)
    return out


class TestIterStoreLogs:
    def test_iter_store_logs_shard_at_a_time(self, tmp_path, logs):
        meta = StoreMetadata(sink=1, base_station=99, gen_interval=60.0)
        store_dir = save_store(tmp_path / "store", logs, meta)
        nodes = [node for node, _log, _bad in iter_store_logs(store_dir)]
        assert nodes == sorted(logs)


class TestSplitCollectionRounds:
    def test_concatenation_restores_logs(self, logs):
        rebuilt: dict[int, list] = {}
        for batch in split_collection_rounds(logs, rounds=4):
            for node, events in batch.items():
                rebuilt.setdefault(node, []).extend(events)
        assert rebuilt == {n: list(log) for n, log in logs.items()}

    def test_single_round_is_everything(self, logs):
        (batch,) = list(split_collection_rounds(logs, rounds=1))
        assert batch == {n: list(log) for n, log in logs.items()}

    def test_more_rounds_than_events(self):
        logs = {7: NodeLog(7, [ev("recv", 7, pkt=PacketKey(1, 0))])}
        batches = list(split_collection_rounds(logs, rounds=10))
        assert len(batches) == 1 and batches[0] == {7: list(logs[7])}

    def test_invalid_rounds(self, logs):
        with pytest.raises(ValueError):
            list(split_collection_rounds(logs, rounds=0))
