"""Differential golden-corpus suite: the codec's scanner vs the oracle.

The codec's single-pass ``decode_event`` must be *observationally
identical* to the token-loop reference scanner (:mod:`tests.events.oracle`)
on every corpus the repo ships:
committed fixture stores, stress-garbled mutations of them, and a
simulated-deployment corpus like the ones ``examples/`` build.  "Identical"
means the full scan output — line numbers, event payloads, ``DecodeIssue``
errors — compared by ``repr`` (events can carry ``nan`` times, and
``nan != nan``).

The store loader's route — raw bytes through ``decode_text`` into
``scan_log_text`` — is additionally pinned against the legacy scanner on the
raw bytes of every corpus, and ``load_store``'s corrupt-line counts are
re-derived from the legacy scanner so the tolerant loader can never drift.
"""

import itertools
import pathlib
import random

import pytest

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.events.codec import (
    DecodeIssue,
    decode_event,
    decode_text,
    encode_event,
    scan_log_text,
)
from repro.events.store import load_store
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.stress.faults import GarbleLines
from tests.events.oracle import decode_event_legacy, scan_log_text_legacy

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

#: Every committed store directory with node shards.
STORE_DIRS = sorted(
    {f.parent for f in FIXTURES.glob("**/node_*.log")},
    key=lambda p: str(p),
)

LOG_FILES = sorted(FIXTURES.glob("**/node_*.log"), key=lambda p: str(p))


def _render(scan):
    """Scanner output as comparable text (repr handles nan times)."""
    out = []
    for lineno, decoded in scan:
        kind = "issue" if isinstance(decoded, DecodeIssue) else "event"
        out.append((lineno, kind, repr(decoded)))
    return out


def _assert_equivalent(text: str) -> None:
    """Both scanners agree on ``text`` (bytes route fed its encoding)."""
    reference = _render(scan_log_text_legacy(text))
    assert _render(scan_log_text(text)) == reference
    assert _render(scan_log_text(decode_text(text.encode("utf-8")))) == reference


@pytest.mark.parametrize(
    "log_file", LOG_FILES, ids=lambda p: f"{p.parent.name}-{p.name}"
)
def test_committed_fixture_logs_scan_identically(log_file):
    data = log_file.read_bytes()
    text = data.decode("utf-8")
    reference = _render(scan_log_text_legacy(text))
    assert _render(scan_log_text(text)) == reference
    assert _render(scan_log_text(decode_text(data))) == reference


@pytest.mark.parametrize("store_dir", STORE_DIRS, ids=lambda p: p.name)
def test_load_store_corrupt_counts_match_legacy_scanner(store_dir):
    """The tolerant loader's per-node bad-line counts are exactly the
    legacy scanner's issue count plus misfiled-node events."""
    if not (store_dir / "operations.json").exists():
        pytest.skip("not a loadable store (no operations.json)")
    store = load_store(store_dir)
    for file in sorted(store_dir.glob("node_*.log")):
        node = int(file.stem.split("_")[1])
        expected = 0
        for _lineno, decoded in scan_log_text_legacy(file.read_text()):
            if isinstance(decoded, DecodeIssue) or decoded.node != node:
                expected += 1
        assert store.corrupt_lines.get(node, 0) == expected


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stress_garbled_corpora_scan_identically(seed):
    """Fixture lines put through the stress garbler's mutation modes."""
    stream = random.Random(seed)
    lines = []
    for file in LOG_FILES:
        lines.extend(file.read_text().splitlines())
    garbled = [
        GarbleLines._mutate(line, stream) if line and stream.random() < 0.4 else line
        for line in lines
    ]
    _assert_equivalent("\n".join(garbled))


def test_simulated_deployment_corpus_scans_identically():
    """A collected simnet corpus — the kind every example script builds."""
    params = citysee(n_nodes=12, days=1, seed=20260809)
    sim = run_simulation(params)
    logs = collect_logs(sim.true_logs, default_loss_spec(sim), seed=7)
    text = "\n".join(
        encode_event(event) for node in sorted(logs) for event in logs[node]
    )
    _assert_equivalent(text)


def test_edge_corpus_scans_identically():
    """Hand-picked irregular lines: field order, spacing, duplicates,
    malformed values, and info keys named like ``Event`` fields."""
    lines = [
        "node=1 type=recv src=2 dst=1 pkt=p2.9 t=1.5",  # canonical
        "node=1 type=recv dst=1 src=2",                 # out-of-order fields
        "node=1 type=gen t=nan",                        # nan time
        "node=1 type=gen t=inf",
        "node=1 type=gen t=1e400",                      # overflow float
        "  node=3   type=gen  ",                        # non-canonical spacing
        "node=1 type=gen node=2",                       # duplicate field
        "node=01 type=gen",                             # non-canonical int
        "node=+1 type=gen",
        "node=1 type=gen pkt=p1.2 pkt=p1.3",
        "node=1 type=gen extra",                        # bare token
        "node=1",                                       # missing type
        "type=gen node=1",                              # reordered required
        "node=1 type=gen k=v k=w",                      # duplicate info key
        "node=1 type=gen t=",                           # empty value
        "node=1\ttype=gen",                             # tab separator
        "node=1 type=gen x=é",                     # non-ASCII info value
        "node=1 type=recv src=-2 dst=1",                # negative node
        "pkt=p1.1 node=1 type=fwd",
        "",
        "   ",
        "=",
        "====",
        "node==1 type=gen",
        "type=recv node=2 time=5",                      # colliding info keys,
        "pkt=p1.1 node=1 type=gen packet=x",            # out of order
        "type=gen node=1 etype=y",
        "type=gen node=1 cls=z",
        "node=2 type=recv src=1 dst=2 pkt=p1.1 time=5",  # and in order
        "time=5 node=2 type=recv dst=x src=y",          # which fault wins
        "node=x type=gen src=y t=z pkt=q",
    ]
    _assert_equivalent("\n".join(lines))
    # and interleaved with valid lines, repeated, in one buffer
    _assert_equivalent("\n".join(lines * 3))


@pytest.mark.parametrize(
    "line",
    [
        "type=recv node=2 time=5",
        "pkt=p1.1 node=1 type=gen packet=x",
        "type=gen node=1 etype=y",
        "type=gen node=1 cls=z",
    ],
)
def test_colliding_info_keys_decode_alike_in_every_field_order(line):
    """An info key named like an ``Event`` field or an ``Event.make``
    parameter is just an info key, whatever the field order."""
    expected = decode_event_legacy(line)
    assert dict(expected.info)
    for order in itertools.permutations(line.split()):
        assert decode_event(" ".join(order)) == expected
