"""Reference scanner: the differential oracle for the codec's decoder.

:func:`decode_event_legacy` is the original token-loop parser — a dict of
codec fields, a dict of info keys, then one ``Event`` built from both — and
:func:`scan_log_text_legacy` runs every line through it alone, with no
intern tables or packet cache.  The differential suites pin
:func:`repro.events.codec.decode_event` and
:func:`repro.events.codec.scan_log_text` against them line for line.

One deliberate departure from the parser as it once shipped: ``info`` is
frozen as a sorted tuple instead of being splatted into
:meth:`Event.make`, so an info key named ``time``, ``packet``, ``etype`` or
``cls`` decodes like any other key instead of raising ``TypeError``.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.events.codec import DecodeIssue
from repro.events.event import Event
from repro.events.packet import PacketKey

_RESERVED = ("node", "type", "src", "dst", "pkt", "t")


def decode_event_legacy(line: str) -> Event:
    """The token-loop parser: same events, same ``ValueError`` messages."""
    fields: dict[str, str] = {}
    info: dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed log token {token!r} in line {line!r}")
        target = fields if key in _RESERVED else info
        if key in target:
            raise ValueError(f"duplicate key {key!r} in line {line!r}")
        target[key] = value
    if "node" not in fields or "type" not in fields:
        raise ValueError(f"log line missing node/type: {line!r}")
    return Event(
        fields["type"],
        int(fields["node"]),
        src=int(fields["src"]) if "src" in fields else None,
        dst=int(fields["dst"]) if "dst" in fields else None,
        packet=PacketKey.parse(fields["pkt"]) if "pkt" in fields else None,
        time=float(fields["t"]) if "t" in fields else None,
        info=tuple(sorted(info.items())),
    )


def scan_log_text_legacy(
    text: str,
) -> Iterator[tuple[int, Union[Event, DecodeIssue]]]:
    """The reference scanner over :func:`decode_event_legacy`.

    Semantically identical to :func:`~repro.events.codec.scan_log_text`.
    Lines end at ``\n`` only (one trailing ``\r`` dropped); text after the
    last ``\n`` is a torn record and, unless blank, one issue.
    """
    pieces = text.split("\n")
    for lineno, line in enumerate(pieces[:-1], start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line.strip():
            continue
        try:
            yield lineno, decode_event_legacy(line)
        except ValueError as exc:
            yield lineno, DecodeIssue(lineno, line, str(exc))
    rest = pieces[-1]
    if rest.strip():
        yield len(pieces), DecodeIssue(
            len(pieces), rest, f"unterminated final line {rest!r}: no newline after it"
        )
