"""Event and log model (paper §II).

An event is a tuple ``E = (V, L, I)``: event type, location (the node that
recorded it) and related information (typically the sender/receiver pair and
the packet the event refers to).  Occurrence time is *optional* — REFILL's
inference never relies on it, matching the paper's assumption that nodes are
not synchronized.
"""

from repro.events.event import Event, EventType, SENDER_SIDE_EVENTS, RECEIVER_SIDE_EVENTS
from repro.events.packet import PacketKey
from repro.events.log import LogRecord, NodeLog
from repro.events.codec import encode_event, decode_event, encode_log, decode_log
from repro.events.merge import group_by_packet, split_collection_rounds
from repro.events.store import iter_store_logs, load_store, save_store

__all__ = [
    "split_collection_rounds",
    "iter_store_logs",
    "load_store",
    "save_store",
    "Event",
    "EventType",
    "SENDER_SIDE_EVENTS",
    "RECEIVER_SIDE_EVENTS",
    "PacketKey",
    "LogRecord",
    "NodeLog",
    "encode_event",
    "decode_event",
    "encode_log",
    "decode_log",
    "group_by_packet",
]
