"""Reference scanner: the test oracle for the codec's tolerant decode.

:func:`scan_log_text_legacy` runs every line through the token-loop parser
alone — no fast tokenizer, no intern tables.  The differential suites pin
:func:`repro.events.codec.scan_log_text` against it line for line.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.events.codec import DecodeIssue, _decode_event_strict
from repro.events.event import Event


def scan_log_text_legacy(
    text: str,
) -> Iterator[tuple[int, Union[Event, DecodeIssue]]]:
    """The pre-tokenizer reference scanner (legacy token-loop parser only).

    Semantically identical to :func:`~repro.events.codec.scan_log_text`;
    the differential suites pin the fast tokenizer against it byte for byte.
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
            yield lineno, _decode_event_strict(line)
        except ValueError as exc:
            yield lineno, DecodeIssue(lineno, line, str(exc))
    rest = pieces[-1]
    if rest.strip():
        yield len(pieces), DecodeIssue(
            len(pieces), rest, f"unterminated final line {rest!r}: no newline after it"
        )
