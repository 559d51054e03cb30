"""Text codec for node logs.

The on-mote "event system" of the paper's implementation emits compact log
statements collected over CTP.  We mirror that with a line-oriented text
format so logs can be written to disk, shipped around and re-parsed:

``node=<L> type=<V> [src=<n1> dst=<n2>] [pkt=p<origin>.<seq>] [t=<time>] [k=v ...]``

Fields after ``type`` are optional; unknown keys round-trip through the
event's ``info`` mapping.

Decoding is one pass per line: :func:`decode_event` splits on whitespace,
cuts each token at its first ``=``, files the six codec fields into fixed
slots and every other key into ``info``, then converts the slots.  Field
order and spacing never change the result, and every malformed line is a
``ValueError`` — the first fault in token order, then missing
``node``/``type``, then the conversions in field order.

A store repeats line heads: the text before `` pkt=`` (``node=… type=…
src=… dst=…`` and any ``info``) recurs on every packet a link carries.  So
:func:`decode_event` decodes each head once and keeps it; a line whose
rest is exactly ``<pkt> t=<time>`` then costs two value parses.  Any
other line takes the full pass, so values and error messages are the
full pass's.

Every door — store loader, corpus lint, push client, file tailer, daemon
framing — turns bytes into text with :func:`decode_text`, cuts lines with
:func:`cut_lines` and decodes them with :func:`scan_lines`, so all of them
agree on what a surviving line is and which lines are corrupt or misfiled.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Union

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey

_RESERVED = ("node", "type", "src", "dst", "pkt", "t")
#: Codec field name → its slot in :func:`decode_event`.
_SLOTS = {key: i for i, key in enumerate(_RESERVED)}


@dataclass(frozen=True, slots=True)
class DecodeIssue:
    """One line that failed tolerant decoding; ``event`` is set when the
    line decoded but sits in another node's log (a misfiled line)."""

    lineno: int
    line: str
    error: str
    event: Optional[Event] = None


def decode_text(data: bytes) -> str:
    """The one bytes-to-text rule for log input: UTF-8, undecodable bytes
    replaced.  Damage then surfaces as a :class:`DecodeIssue` (or a U+FFFD
    in a field value) downstream instead of an exception here."""
    return data.decode("utf-8", errors="replace")


def cut_lines(text: str) -> tuple[list[str], str]:
    """The one text-to-lines rule: ``(lines, rest)``.

    A line is what comes before a ``\n``, with one trailing ``\r`` dropped;
    no other character ends a line.  ``rest``, the text after the last
    ``\n`` (a writer caught mid-append, a torn record), is not a line yet.
    """
    *lines, rest = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line[-1:] == "\r" else line for line in lines]
    return lines, rest


def scan_lines(
    lines: Iterable[str], node: Optional[int] = None
) -> Iterator[tuple[int, Union[Event, DecodeIssue]]]:
    """The one scanner: tolerantly decode lines cut by :func:`cut_lines`.

    Yields ``(lineno, Event)`` for lines that parse and
    ``(lineno, DecodeIssue)`` for lines that do not (1-based line numbers;
    blank lines are skipped).  Given ``node``, an event recorded for another
    node is a misfiled :class:`DecodeIssue` carrying that event: a node
    appends only to its own log.
    """
    decode = decode_event
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            event = decode(line)
        except ValueError as exc:
            yield lineno, DecodeIssue(lineno, line, str(exc))
            continue
        if node is not None and event.node != node:
            error = f"event recorded for node {event.node} inside the log file of node {node}"
            yield lineno, DecodeIssue(lineno, line, error, event)
        else:
            yield lineno, event


def scan_log_text(
    text: str, node: Optional[int] = None
) -> Iterator[tuple[int, Union[Event, DecodeIssue]]]:
    """:func:`scan_lines` over a whole shard file's text.  A non-blank
    torn final record (no newline after it) yields one :class:`DecodeIssue`
    at its line number: the push door never sends it, so no door decodes it.
    """
    lines, rest = cut_lines(text)
    yield from scan_lines(lines, node)
    if rest and not rest.isspace():
        lineno = len(lines) + 1
        yield lineno, DecodeIssue(
            lineno, rest, f"unterminated final line {rest!r}: no newline after it"
        )


class LineAssembler:
    """Reassemble complete text lines from an arbitrary byte-chunk stream.

    Network ingest reads whatever chunk sizes the transport hands over; this
    keeps the unterminated tail until its newline arrives.  :meth:`feed`
    returns the newly *completed* lines, decoded with :func:`decode_text`
    and cut by :func:`cut_lines`.
    A line still unterminated when the peer disconnects is simply never
    returned (mid-line disconnects drop the fragment, they do not corrupt
    the stream).
    """

    __slots__ = ("_tail",)

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, chunk: bytes) -> list[str]:
        data = self._tail + chunk
        end = data.rfind(b"\n") + 1
        self._tail = data[end:]
        return cut_lines(decode_text(data[:end]))[0]

    @property
    def partial(self) -> bool:
        """Whether a started-but-unterminated line is pending."""
        return bool(self._tail)


def _format_value(value: Any) -> str:
    text = str(value)
    if any(c.isspace() or c == "=" for c in text):
        raise ValueError(f"log value may not contain whitespace or '=': {value!r}")
    return text


def encode_event(event: Event) -> str:
    """Serialize one event to a single log line."""
    parts = [f"node={event.node}", f"type={event.etype}"]
    if event.src is not None:
        parts.append(f"src={event.src}")
    if event.dst is not None:
        parts.append(f"dst={event.dst}")
    if event.packet is not None:
        parts.append(f"pkt={event.packet}")
    if event.time is not None:
        parts.append(f"t={event.time!r}")
    for key, value in event.info:
        if key in _RESERVED:
            raise ValueError(f"info key {key!r} collides with a reserved field")
        parts.append(f"{key}={_format_value(value)}")
    return " ".join(parts)


#: Interned event-type vocabulary: every decoded label becomes the one
#: shared string object, so downstream ``(state, label)`` table lookups hit
#: pointer-equality fast paths.  Sessions pre-register their template's
#: labels via :func:`intern_vocabulary`.
_LABELS: dict[str, str] = {}

#: Memoized line heads (the text before a line's first `` pkt=``):
#: ``(etype, node, src, dst, info)``, or ``None`` for a head that does not
#: decode alone or holds a ``pkt``/``t`` token.  Bounded like ``_PACKETS``.
_HEADS: dict[str, Optional[tuple[Any, ...]]] = {}

#: Memoized ``p<origin>.<seq>`` parses.
#: A corpus mentions each packet on many lines; parsing each key once makes
#: the pkt field a dict hit.  Bounded defensively — a long-lived daemon
#: fed unbounded distinct keys must not grow without limit.
_PACKETS: dict[str, PacketKey] = {}
_PACKETS_MAX = 1 << 16


def intern_vocabulary(labels: Iterable[str]) -> None:
    """Pre-register event-type labels in the decoder's intern table."""
    for label in labels:
        label = sys.intern(label)
        _LABELS[label] = label


def _intern_label(text: str) -> str:
    label = _LABELS.get(text)
    if label is None:
        label = sys.intern(text)
        if len(_LABELS) < _PACKETS_MAX:
            _LABELS[text] = label
    return label


def _parse_packet(text: str) -> PacketKey:
    packet = _PACKETS.get(text)
    if packet is None:
        if len(_PACKETS) >= _PACKETS_MAX:
            _PACKETS.clear()
        packet = PacketKey.parse(text)  # ValueError falls through
        _PACKETS[text] = packet
    return packet


#: :class:`Event` built through its slot descriptors: the frozen
#: dataclass ``__init__`` pays an ``object.__setattr__`` call per field.
#: ``Event`` has no ``__post_init__``, so the two build equal events.
_new_event = object.__new__
(
    _set_etype, _set_node, _set_src, _set_dst, _set_packet, _set_time, _set_info
) = (
    Event.__dict__[name].__set__
    for name in ("etype", "node", "src", "dst", "packet", "time", "info")
)


def _event(etype, node, src, dst, packet, time, info) -> Event:
    event = _new_event(Event)
    _set_etype(event, etype)
    _set_node(event, node)
    _set_src(event, src)
    _set_dst(event, dst)
    _set_packet(event, packet)
    _set_time(event, time)
    _set_info(event, info)
    return event


_UNSEEN = object()


def decode_event(line: str) -> Event:
    """Parse one log line back into an :class:`Event`.

    Values of unknown keys are kept as strings in ``info``.  A malformed
    line raises ``ValueError``: a token without ``=`` or a repeated key
    (first in token order), then a missing ``node``/``type``, then a bad
    ``node``, ``src``, ``dst``, ``pkt`` or ``t`` value, in that order.
    """
    cut = line.find(" pkt=")
    if cut > 0:
        head = _HEADS.get(line[:cut], _UNSEEN)
        if head is _UNSEEN:
            head = _learn_head(line[:cut])
        if head is not None:
            # the fast path: the rest is exactly ``<pkt> t=<time>``, so the
            # full pass would read the same two values after the same head
            rest = line[cut + 5 :]
            tokens = rest.split()
            if len(tokens) == 2 and tokens[1][:2] == "t=" and not rest[0].isspace():
                try:
                    packet = _parse_packet(tokens[0])
                    time = float(tokens[1][2:])
                except ValueError:
                    pass  # the full pass raises its own message
                else:
                    etype, node, src, dst, info = head
                    return _event(etype, node, src, dst, packet, time, info)
    return _decode_line(line)


def _learn_head(head: str) -> Optional[tuple[Any, ...]]:
    """Decode and keep one line head (``None``: not fast-path material)."""
    try:
        event = _decode_line(head)
    except ValueError:
        entry = None
    else:
        entry = (
            None
            if event.packet is not None or event.time is not None
            else (event.etype, event.node, event.src, event.dst, event.info)
        )
    if len(_HEADS) >= _PACKETS_MAX:
        _HEADS.clear()
    _HEADS[head] = entry
    return entry


def _decode_line(line: str) -> Event:
    """The full pass :func:`decode_event` describes."""
    slots: list[Optional[str]] = [None] * 6
    info: dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed log token {token!r} in line {line!r}")
        slot = _SLOTS.get(key)
        if slot is None:
            if key in info:
                raise ValueError(f"duplicate key {key!r} in line {line!r}")
            info[key] = value
        elif slots[slot] is None:
            slots[slot] = value
        else:
            raise ValueError(f"duplicate key {key!r} in line {line!r}")
    node, etype, src, dst, pkt, t = slots
    if node is None or etype is None:
        raise ValueError(f"log line missing node/type: {line!r}")
    return _event(
        _intern_label(etype),
        int(node),
        None if src is None else int(src),
        None if dst is None else int(dst),
        None if pkt is None else _parse_packet(pkt),
        None if t is None else float(t),
        tuple(sorted(info.items())) if info else (),
    )


def line_packet(line: str) -> Optional[PacketKey]:
    """The packet key of a line's first ``pkt`` token, parsed as
    :func:`decode_event` parses it, without decoding the rest; ``None``
    when the line has no such token or its value is no packet key.  For
    every line that decodes, this is the decoded event's ``packet``."""
    if "pkt=" in line:
        for token in line.split():
            if token[:4] == "pkt=":
                try:
                    return _parse_packet(token[4:])
                except ValueError:
                    return None
    return None


def encode_log(log: NodeLog) -> str:
    """Serialize a whole node log, one event per line."""
    return "\n".join(encode_event(e) for e in log)


def decode_log(node: int, text: str) -> NodeLog:
    """Parse a node log as :func:`encode_log` writes it (lines cut by
    :func:`cut_lines`, the last one unterminated); blank lines are skipped."""
    lines, rest = cut_lines(text)
    lines.append(rest)
    events = (decode_event(line) for line in lines if line.strip())
    return NodeLog(node, events)
