"""Shared Hypothesis strategies for the event model and the stress harness.

Property tests (``tests/events/test_properties.py``) and the stress-harness
tests draw from one vocabulary, so "a random event" means the same thing
everywhere: codec-encodable events over safe identifier text, with the
codec's field names kept out of the info dict.

``garbled_lines`` mirrors the mutation modes of
:class:`repro.stress.faults.GarbleLines` — truncation, character flip,
noise insertion, separator loss — as a Hypothesis strategy, so the codec's
never-raise property is exercised over exactly the damage the fault
injector deals.
"""

import keyword
import string
from dataclasses import replace

from hypothesis import strategies as st

from repro.core.diagnosis import LossCause, LossReport
from repro.core.event_flow import EventFlow
from repro.events.codec import encode_event
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey

#: Identifier-safe text for labels and info values (codec-encodable).
SAFE_TEXT = st.text(
    string.ascii_lowercase + string.digits + "_", min_size=1, max_size=12
)

#: Keys an info dict may not use: the codec's encoded field names.
RESERVED_KEYS = ("node", "type", "src", "dst", "pkt", "t")

#: Info keys that are no codec field but name an :class:`Event` field or an
#: :meth:`Event.make` parameter.
COLLIDING_KEYS = ("etype", "packet", "time", "cls")

packet_keys = st.builds(
    PacketKey,
    origin=st.integers(min_value=0, max_value=10_000),
    seq=st.integers(min_value=0, max_value=10_000),
)

events = st.builds(
    lambda etype, node, src, dst, packet, time, info: Event(
        etype, node, src, dst, packet, time, tuple(sorted(info.items()))
    ),
    etype=SAFE_TEXT,
    node=st.integers(min_value=0, max_value=9999),
    src=st.none() | st.integers(min_value=0, max_value=9999),
    dst=st.none() | st.integers(min_value=0, max_value=9999),
    packet=st.none() | packet_keys,
    time=st.none() | st.floats(min_value=0, max_value=1e9, allow_nan=False),
    info=st.dictionaries(
        SAFE_TEXT.filter(lambda k: k not in RESERVED_KEYS),
        SAFE_TEXT,
        max_size=3,
    ),
)


def node_logs(node: int, *, max_events: int = 20):
    """A :class:`NodeLog` whose events all carry the given node id."""
    return st.lists(events, max_size=max_events).map(
        lambda evs: NodeLog(
            node,
            [
                Event.make(
                    e.etype, node, src=e.src, dst=e.dst, packet=e.packet, time=e.time
                )
                for e in evs
            ],
        )
    )


loss_reports = st.builds(
    LossReport,
    cause=st.sampled_from(list(LossCause)),
    position=st.none() | st.integers(min_value=0, max_value=9999),
    anchor=st.none() | events,
)


@st.composite
def event_flows(draw) -> EventFlow:
    """A populated :class:`EventFlow`: entries with provenance, order
    edges, omissions, anomalies and per-node engine state."""
    flow = EventFlow(draw(st.none() | packet_keys))
    for event in draw(st.lists(events, max_size=8)):
        flow.append(
            event,
            inferred=draw(st.booleans()),
            provenance=draw(st.sampled_from(["logged", "inferred", "premise"])),
        )
    n = len(flow.entries)
    if n >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            before = draw(st.integers(min_value=0, max_value=n - 1))
            after = draw(st.integers(min_value=0, max_value=n - 1))
            if before != after:
                flow.add_order(before, after)
    flow.omitted.extend(draw(st.lists(events, max_size=3)))
    flow.anomalies.extend(draw(st.lists(SAFE_TEXT, max_size=3)))
    for node in draw(
        st.lists(st.integers(min_value=0, max_value=9999), unique=True, max_size=4)
    ):
        states = draw(st.lists(SAFE_TEXT, min_size=1, max_size=4, unique=True))
        flow.visited_states[node] = frozenset(states)
        flow.final_states[node] = draw(st.sampled_from(states))
    return flow


#: Building blocks for :func:`python_modules`: statement templates the
#: code analyzer must survive, spanning every construct its rules touch.
_PY_IDENT = st.text(string.ascii_lowercase, min_size=1, max_size=8).filter(
    lambda s: s.isidentifier() and not keyword.iskeyword(s)
)

_PY_STATEMENTS = (
    "pass",
    "x = 1",
    "_ = asyncio.create_task(noop())",
    "asyncio.create_task(noop())",
    "await asyncio.sleep(0)",
    "time.sleep(0)",
    "time.time()",
    "random.random()",
    "asyncio.get_event_loop()",
    "try:\n    pass\nexcept asyncio.CancelledError:\n    pass",
    "try:\n    pass\nexcept asyncio.CancelledError:\n    raise",
    "try:\n    pass\nexcept:\n    pass",
    "for i in range(3):\n    time.time()",
    "while False:\n    datetime.datetime.now()",
    "writer.write(b'x')",
    "await writer.drain()",
    "writer.close()",
    "await writer.wait_closed()",
    "VAR.set('x')",
    "token = VAR.set('x')",
    "await asyncio.wait_for(noop(), timeout=1)",
)

_PY_PRAGMAS = (
    "",
    "# refill: module=deterministic\n",
    "# refill: module=hot-path\n",
    "# refill: no-cc011\n",
    "# refill: no-cc001 -- generated\n",
)


@st.composite
def python_modules(draw) -> str:
    """Syntactically valid Python that stresses every analyzer rule.

    Random-but-valid sources: a pragma prefix, imports, a ContextVar,
    and functions (sync/async, randomly nested in a class) whose bodies
    mix the statement templates — including suppression comments in
    arbitrary positions.  The analyzer must never raise on any of it.
    """
    parts = [draw(st.sampled_from(_PY_PRAGMAS))]
    parts.append(
        "import asyncio\nimport datetime\nimport random\nimport time\n"
        "from contextvars import ContextVar\n\n"
        "VAR = ContextVar('v', default=None)\n\n\n"
        "async def noop():\n    pass\n"
    )
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(_PY_IDENT)
        is_async = draw(st.booleans())
        in_class = draw(st.booleans())
        body_stmts = draw(
            st.lists(st.sampled_from(_PY_STATEMENTS), min_size=1, max_size=5)
        )
        if not is_async:  # await only parses inside async def
            body_stmts = [s for s in body_stmts if "await" not in s] or ["pass"]
        if draw(st.booleans()):
            body_stmts.append(
                "pass  # refill: no-cc0%02d%s"
                % (draw(st.integers(0, 14)), draw(st.sampled_from(["", " -- why"])))
            )
        indent = "        " if in_class else "    "
        body = "\n".join(
            indent + line
            for stmt in body_stmts
            for line in stmt.splitlines()
        )
        header = f"{'async ' if is_async else ''}def {name}(writer):\n"
        if in_class:
            parts.append(f"class C_{name}:\n    {header}{body}\n")
        else:
            parts.append(f"{header}{body}\n")
    return "\n\n".join(parts)


#: The garbler's injection alphabet (see ``repro.stress.faults._NOISE``).
NOISE_CHARS = "=\x00\x7fÿ  \t#"


#: Separators whose framing semantics differ between ``str.splitlines``
#: and byte-level ``\n`` splitting.
_EXOTIC_SEPARATORS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
)

#: Multi-byte UTF-8 encodings to truncate mid-sequence.
_MULTIBYTE = ("é", "λ", "丁", "🙂")


@st.composite
def log_line_bytes(draw) -> bytes:
    """One wire "line" as raw bytes, spanning the whole damage spectrum.

    Draws a valid encoded line, a GarbleLines-style mutated line, raw
    binary garbage, a line truncated mid-UTF-8-sequence, or a valid line
    with an embedded newline-class separator — everything the bytes route
    into the tolerant scanner must classify exactly like the legacy str
    scanner.
    """
    mode = draw(st.integers(min_value=0, max_value=4))
    if mode == 0:  # valid canonical line
        return encode_event(draw(events)).encode("utf-8")
    if mode == 1:  # garbled but still text
        return draw(garbled_lines()).encode("utf-8")
    if mode == 2:  # raw binary garbage
        return draw(st.binary(max_size=40))
    if mode == 3:  # truncated mid-UTF-8-sequence
        raw = (encode_event(draw(events)) + draw(st.sampled_from(_MULTIBYTE))).encode(
            "utf-8"
        )
        return raw[: draw(st.integers(min_value=1, max_value=len(raw) - 1))]
    # embedded newline-class separator inside an otherwise valid line
    line = encode_event(draw(events))
    i = draw(st.integers(min_value=0, max_value=len(line)))
    sep = draw(st.sampled_from(_EXOTIC_SEPARATORS))
    return (line[:i] + sep + line[i:]).encode("utf-8")


@st.composite
def shuffled_lines(draw) -> str:
    """An encoded event with its tokens permuted, half the time carrying
    an info key from ``COLLIDING_KEYS``: field order never matters."""
    event = draw(events)
    if draw(st.booleans()):
        info = dict(event.info)
        info[draw(st.sampled_from(COLLIDING_KEYS))] = draw(SAFE_TEXT)
        event = replace(event, info=tuple(sorted(info.items())))
    return " ".join(draw(st.permutations(encode_event(event).split(" "))))


@st.composite
def garbled_lines(draw) -> str:
    """A valid encoded log line damaged 1–3 times, GarbleLines-style."""
    line = encode_event(draw(events))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not line:
            break
        mode = draw(st.integers(min_value=0, max_value=3))
        if mode == 0:  # truncation
            line = line[: draw(st.integers(min_value=0, max_value=len(line) - 1))]
        elif mode == 1:  # character flip
            i = draw(st.integers(min_value=0, max_value=len(line) - 1))
            line = line[:i] + draw(st.sampled_from(NOISE_CHARS)) + line[i + 1 :]
        elif mode == 2:  # noise insertion
            i = draw(st.integers(min_value=0, max_value=len(line)))
            line = line[:i] + draw(st.sampled_from(NOISE_CHARS)) + line[i:]
        else:  # separator loss
            line = line.replace("=", " ")
    return line


#: A small protocol-flavored label vocabulary for learner property tests —
#: overlapping prefixes and repeats, the shapes k-tails has to fold.
TRACE_LABELS = ("gen", "recv", "trans", "ack_recvd", "dup", "overflow", "timeout")


def label_traces(
    *,
    alphabet=TRACE_LABELS,
    min_traces: int = 1,
    max_traces: int = 12,
    max_len: int = 8,
):
    """Corpora of non-empty label sequences for ``repro.learn`` properties.

    Draws lists of label tuples over a bounded alphabet; duplicates are
    deliberately allowed (support counting and the dedup-before-mining
    canonicalization both need them).
    """
    return st.lists(
        st.lists(
            st.sampled_from(alphabet), min_size=1, max_size=max_len
        ).map(tuple),
        min_size=min_traces,
        max_size=max_traces,
    )
