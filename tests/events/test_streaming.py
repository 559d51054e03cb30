"""Tests for the streaming merge layer and the shard-at-a-time store."""

import pytest

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import (
    LogSource,
    group_by_packet,
    iter_packet_groups,
    split_collection_rounds,
)
from repro.events.packet import PacketKey
from repro.events.store import (
    ShardedStore,
    StoreMetadata,
    iter_store_logs,
    load_store,
    save_store,
)


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


class TestIterPacketGroups:
    def test_union_equals_full_grouping(self, logs):
        full = group_by_packet(logs)
        streamed = {}
        for batch in iter_packet_groups(logs, batch_size=5):
            for packet, group in batch:
                streamed[packet] = group
        assert streamed == full

    def test_batches_bounded_and_sorted(self, logs):
        seen = []
        for batch in iter_packet_groups(logs, batch_size=5):
            assert 1 <= len(batch) <= 5
            seen.extend(packet for packet, _ in batch)
        assert seen == sorted(seen)
        assert len(seen) == len(group_by_packet(logs))

    def test_groups_are_complete_per_batch(self, logs):
        # every yielded group already holds ALL evidence for its packet
        full = group_by_packet(logs)
        for batch in iter_packet_groups(logs, batch_size=1):
            ((packet, group),) = batch
            assert group == full[packet]

    def test_invalid_batch_size(self, logs):
        with pytest.raises(ValueError):
            next(iter_packet_groups(logs, batch_size=0))


class TestShardedStore:
    @pytest.fixture()
    def store_dir(self, tmp_path, logs):
        meta = StoreMetadata(sink=1, base_station=99, gen_interval=60.0)
        return save_store(tmp_path / "store", logs, meta)

    def test_satisfies_log_source_protocol(self, store_dir):
        assert isinstance(ShardedStore(store_dir), LogSource)

    def test_iter_logs_matches_bulk_load(self, store_dir):
        sharded = dict(ShardedStore(store_dir).iter_logs())
        loaded = load_store(store_dir).logs
        assert set(sharded) == set(loaded)
        for node in loaded:
            assert list(sharded[node]) == list(loaded[node])

    def test_reiterable(self, store_dir):
        store = ShardedStore(store_dir)
        first = [node for node, _ in store.iter_logs()]
        second = [node for node, _ in store.iter_logs()]
        assert first == second == store.nodes()

    def test_streaming_groups_from_shards(self, store_dir, logs):
        # the whole point: bounded grouping straight off the disk store
        streamed = {}
        for batch in iter_packet_groups(ShardedStore(store_dir), batch_size=3):
            streamed.update(dict(batch))
        assert streamed == group_by_packet(load_store(store_dir).logs)

    def test_corrupt_lines_counted_per_pass(self, store_dir):
        shard = store_dir / "node_0001.log"
        shard.write_text(shard.read_text() + "@@@ not a log line\n")
        store = ShardedStore(store_dir)
        assert store.corrupt_lines == {}  # no pass completed yet
        list(store.iter_logs())
        assert store.corrupt_lines == {1: 1}
        list(store.iter_logs())
        assert store.corrupt_lines == {1: 1}  # per pass, not summed

    def test_load_node(self, store_dir, logs):
        store = ShardedStore(store_dir)
        assert list(store.load_node(2)) == list(logs[2])
        absent = store.load_node(12345)
        assert absent.node == 12345 and len(absent) == 0

    def test_iter_store_logs_shard_at_a_time(self, store_dir, logs):
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
