"""The line-head memo of :func:`repro.events.codec.decode_event`.

``decode_event`` keeps each decoded line head (the text before `` pkt=``)
and reads only ``<pkt> t=<time>`` after a known one; every other line
takes the full pass, ``codec._decode_line``.  The memo must be
invisible: on any line, a first (memo-learning) and a second (memo-hit)
``decode_event`` equal the memo-free full pass — equal events, or the
same ``ValueError`` message.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.events import codec
from repro.events.codec import decode_event
from repro.events.event import Event

#: Values that parse differently, or not at all, as ints, floats and keys.
VALUES = st.sampled_from([
    "0", "1", "17", "+1", "-3", "1_0", "007", "nan", "inf", "-inf", "1e3",
    "2.5", "", "x", "�", "p1.2", "p+1.2", "p1_0.2", "p1.2.3", "p1", "q1.2",
    "p�.1", "=", "a=b", "recv", "gen",
])
KEYS = st.sampled_from(["node", "type", "src", "dst", "pkt", "t", "info", "k", "x"])
#: Separators the whitespace split treats alike (``\x1d`` is whitespace to it).
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\x1d"])

tokens = st.one_of(
    st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]}={kv[1]}"),
    VALUES,  # a token without ``=``
)


@st.composite
def permuted_lines(draw):
    """Arbitrary token soups: permuted, duplicated, any separators."""
    parts = draw(st.lists(tokens, max_size=8))
    line = ""
    for part in parts:
        line += draw(SEPARATORS) + part if line else part
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(
        st.sampled_from(["", "", " ", "\t"])
    )


@st.composite
def near_canonical_lines(draw):
    """Lines shaped like a store's, mostly on the fast path: a head (node,
    type, maybe src/dst, ``info`` before ``pkt``), then ``pkt`` and ``t``,
    with occasional damage after the head."""
    head = [f"node={draw(VALUES)}", f"type={draw(VALUES)}"]
    if draw(st.booleans()):
        head += [f"src={draw(VALUES)}", f"dst={draw(VALUES)}"]
    head += [f"{k}={v}" for k, v in draw(st.lists(st.tuples(KEYS, VALUES), max_size=2))]
    head = draw(st.permutations(head))
    tail = [f"pkt={draw(VALUES)}", f"t={draw(VALUES)}"]
    tail += [f"{k}={v}" for k, v in draw(st.lists(st.tuples(KEYS, VALUES), max_size=2))]
    if draw(st.booleans()):
        tail = draw(st.permutations(tail))
    return " ".join(head) + draw(SEPARATORS) + draw(SEPARATORS).join(tail)


def outcome(decode, line):
    """An event's type and field reprs (``nan`` equals itself there), or
    the ``ValueError`` message."""
    try:
        event = decode(line)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return type(event), [repr(getattr(event, f.name)) for f in dataclasses.fields(Event)]


def assert_memo_invisible(line):
    expected = outcome(codec._decode_line, line)
    assert outcome(decode_event, line) == expected  # may learn the head
    assert outcome(decode_event, line) == expected  # may read it back


@settings(max_examples=400, deadline=None)
@given(permuted_lines())
@example("node=1 type=recv src=2 dst=1 pkt=p1.2 t=3.5")
@example("node=1 type=recv src=2 dst=1 pkt=p1.2  t=3.5")
@example("node=1 type=recv src=2 dst=1 pkt= p1.2 t=3.5")
@example("node=1 type=recv src=2 dst=1 pkt=p1.2 t=3.5 ")
@example("node=1 type=recv src=2 dst=1 pkt=p1.2\tt=3.5")
@example("node=1 type=recv pkt=p1.1 pkt=p1.2 t=3.5")
@example("node=1 t=1 type=recv pkt=p1.2 t=3.5")
@example("pkt=p1.1 node=1 type=recv pkt=p1.2 t=3.5")
@example("node=1 type=recv\tpkt=p1.1 pkt=p1.2 t=3.5")
@example("node=1 type=recv pkt=p+1.2 t=1_0")
@example("node=1 type=recv pkt=p1.2 t=nan")
@example("node=1 type=recv pkt=p1.2 t=")
@example("node=1 type=recv pkt=p1.2 t==1")
@example("node=1 type=recv pkt=p1.2 t=1 extra")
@example("node=x type=recv pkt=p1.2 t=1")
@example("node=1 type=recv info=� pkt=p1.2 t=1")
@example("node=1 type=recv info=a pkt=p1.2 t=1 info=b")
@example("node=1 type=recv pkt=p1.2 k=v t=1")
def test_memo_equals_the_full_pass_on_any_line(line):
    assert_memo_invisible(line)


@settings(max_examples=400, deadline=None)
@given(near_canonical_lines())
def test_memo_equals_the_full_pass_on_store_shaped_lines(line):
    assert_memo_invisible(line)


def test_a_known_head_takes_the_fast_path(monkeypatch):
    line = "node=4 type=trans src=4 dst=9 hop=2 pkt=p4.11 t=2.25"
    decode_event(line)
    assert codec._HEADS["node=4 type=trans src=4 dst=9 hop=2"] == (
        "trans", 4, 4, 9, (("hop", "2"),)
    )

    def full_pass(_line):
        raise AssertionError("the full pass ran on a known head")

    monkeypatch.setattr(codec, "_decode_line", full_pass)
    event = decode_event("node=4 type=trans src=4 dst=9 hop=2 pkt=p4.12 t=3")
    assert event == Event.make("trans", 4, src=4, dst=9, packet=event.packet, time=3.0, hop="2")
    assert str(event.packet) == "p4.12"


def test_heads_are_bounded(monkeypatch):
    monkeypatch.setattr(codec, "_PACKETS_MAX", 8)
    codec._HEADS.clear()
    for n in range(20):
        decode_event(f"node={n} type=gen pkt=p{n}.1 t=0")
        assert len(codec._HEADS) <= 8


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Event)])
def test_slot_built_events_match_the_dataclass(field):
    """The decoder builds events through the slot descriptors, which is
    only the dataclass's ``__init__`` while ``Event`` has no
    ``__post_init__``."""
    assert not hasattr(Event, "__post_init__")
    line = "node=2 type=recv src=1 dst=2 z=9 a=1 pkt=p1.5 t=7.5"
    built = decode_event(line)
    init = Event("recv", 2, 1, 2, built.packet, 7.5, (("a", "1"), ("z", "9")))
    assert getattr(built, field) == getattr(init, field)
    assert built == init and hash(built) == hash(init)
