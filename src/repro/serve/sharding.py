"""Deterministic packet-key → shard assignment.

The cluster's one invariant-bearing decision is *which shard owns a packet*:
the router assigns live lines, the checkpoint reshard assigns restored
state, and the scatter-gather layer routes single-packet queries — all three
must agree, across processes and across interpreter restarts.  So the hash
here is plain integer arithmetic (an xorshift-multiply mix of ``(origin,
seq)``), never the built-in ``hash()``: ``PYTHONHASHSEED`` randomizes
``hash(tuple)`` per process, which would scatter one packet's evidence over
different shards between the router and a restarted worker.

Routing happens on the *raw line*, before any decode: the codec's framing
puts the packet key on the wire as a ``pkt=p<origin>.<seq>`` token, and
:func:`~repro.events.codec.line_packet` parses that token exactly as the
decoder does (``p+1.2`` and ``p1_0.2`` included) without decoding the rest
of the line, so a packet's lines all reach the shard that owns its key.
Lines with no parseable key — packetless boot events, blank lines, corrupt
bytes — all go to shard 0, again deterministically, so corrupt-line
accounting stays reproducible.
"""

from __future__ import annotations

from repro.events.codec import line_packet
from repro.events.packet import PacketKey

#: Fixed multipliers for the integer mix (fractional parts of well-known
#: constants, as in splitmix/murmur finalizers).  Arbitrary but frozen:
#: changing them invalidates every v2 checkpoint manifest's shard layout.
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA77
_MIX_C = 0x045D9F3B


def shard_for_key(origin: int, seq: int, shards: int) -> int:
    """The shard index owning packet ``(origin, seq)`` in an N-shard cluster."""
    if shards <= 1:
        return 0
    h = (origin * _MIX_A + seq * _MIX_B) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * _MIX_C) & 0xFFFFFFFF
    h ^= h >> 16
    return h % shards


def shard_for_packet(packet: PacketKey, shards: int) -> int:
    """:func:`shard_for_key` over a parsed :class:`PacketKey`."""
    return shard_for_key(packet.origin, packet.seq, shards)


def shard_for_line(line: str, shards: int) -> int:
    """Route one raw log line without decoding it.

    Lines carrying no parseable ``pkt=`` token (packetless events, corrupt
    input) deterministically land on shard 0.
    """
    if shards <= 1:
        return 0
    packet = line_packet(line)
    return 0 if packet is None else shard_for_key(packet.origin, packet.seq, shards)
