"""Unit tests for the log-corpus lint."""

import json

import pytest

from repro.check import DeploymentSpec, check_corpus
from repro.check.findings import Severity
from repro.fsm.templates import chain_template


@pytest.fixture()
def spec():
    return DeploymentSpec(roles={"line": chain_template("line", ["gen", "e1", "e2"])})


def write_store(tmp_path, files, metadata=None):
    if metadata is not False:
        payload = metadata or {"sink": 1, "base_station": 1, "gen_interval": 60.0}
        (tmp_path / "operations.json").write_text(json.dumps(payload))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def by_code(findings, code):
    return [f for f in findings if f.code == code]


class TestCorpusLint:
    def test_clean_store_has_no_findings(self, tmp_path, spec):
        store = write_store(
            tmp_path,
            {"node_0001.log": "node=1 type=e1 pkt=p1.0 t=1.0\n"
                              "node=1 type=e2 pkt=p1.0 t=2.0\n"},
        )
        findings, stats = check_corpus(store, spec)
        assert findings == []
        assert stats == {"files": 1, "lines": 2, "events": 2, "corrupt": 0}

    def test_corrupt_lines_become_lc001_errors_with_line_numbers(
        self, tmp_path, spec
    ):
        store = write_store(
            tmp_path,
            {"node_0001.log": "node=1 type=e1\n@@@garbage@@@\nnode=1 type=e2\n"},
        )
        findings, stats = check_corpus(store, spec)
        lc001 = by_code(findings, "LC001")
        assert len(lc001) == 1
        assert lc001[0].severity is Severity.ERROR
        assert lc001[0].location == "node_0001.log:2"
        assert stats["corrupt"] == 1

    def test_node_mismatch_is_lc002(self, tmp_path, spec):
        store = write_store(
            tmp_path, {"node_0001.log": "node=9 type=e1\n"}
        )
        findings, _ = check_corpus(store, spec)
        assert by_code(findings, "LC002")

    def test_unknown_label_is_lc003_warning(self, tmp_path, spec):
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=wat\n"}
        )
        findings, _ = check_corpus(store, spec)
        lc003 = by_code(findings, "LC003")
        assert lc003 and lc003[0].severity is Severity.WARNING

    def test_aux_labels_are_known_vocabulary(self, tmp_path):
        aux_spec = DeploymentSpec(
            roles={"line": chain_template("line", ["gen", "e1", "e2"])},
            aux_labels=frozenset({"telemetry"}),
        )
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=telemetry\n"}
        )
        findings, _ = check_corpus(store, aux_spec)
        assert not by_code(findings, "LC003")

    def test_no_spec_skips_vocabulary_checks(self, tmp_path):
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=wat\n"}
        )
        findings, _ = check_corpus(store, None)
        assert not by_code(findings, "LC003")

    def test_gen_off_origin_is_lc004(self, tmp_path, spec):
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=gen pkt=p7.0\n"}
        )
        findings, _ = check_corpus(store, spec)
        lc004 = by_code(findings, "LC004")
        assert lc004 and "origin 7" in lc004[0].message

    def test_negative_packet_key_is_lc004(self, tmp_path, spec):
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=e1 pkt=p-2.0\n"}
        )
        findings, _ = check_corpus(store, spec)
        assert by_code(findings, "LC004")

    def test_timestamp_regression_is_lc005(self, tmp_path, spec):
        store = write_store(
            tmp_path,
            {"node_0001.log": "node=1 type=e1 t=5.0\nnode=1 type=e2 t=3.0\n"},
        )
        findings, _ = check_corpus(store, spec)
        lc005 = by_code(findings, "LC005")
        assert lc005 and "precedes" in lc005[0].message

    def test_gen_seq_must_increase_in_origin_log(self, tmp_path, spec):
        store = write_store(
            tmp_path,
            {"node_0001.log": "node=1 type=gen pkt=p1.3\nnode=1 type=gen pkt=p1.3\n"},
        )
        findings, _ = check_corpus(store, spec)
        assert by_code(findings, "LC005")

    def test_missing_metadata_is_lc006(self, tmp_path, spec):
        store = write_store(
            tmp_path, {"node_0001.log": "node=1 type=e1\n"}, metadata=False
        )
        findings, _ = check_corpus(store, spec)
        lc006 = by_code(findings, "LC006")
        assert lc006 and lc006[0].severity is Severity.ERROR

    def test_unreadable_metadata_is_lc006(self, tmp_path, spec):
        (tmp_path / "operations.json").write_text("{not json")
        (tmp_path / "node_0001.log").write_text("node=1 type=e1\n")
        findings, _ = check_corpus(tmp_path, spec)
        assert by_code(findings, "LC006")

    def test_cap_suppresses_floods_with_summary(self, tmp_path, spec):
        lines = "\n".join("@@@" for _ in range(30)) + "\n"
        store = write_store(tmp_path, {"node_0001.log": lines})
        findings, stats = check_corpus(store, spec, max_per_rule=5)
        assert len(by_code(findings, "LC001")) == 5
        lc007 = by_code(findings, "LC007")
        assert lc007 and "25 additional LC001" in lc007[0].message
        assert stats["corrupt"] == 30


class TestStoreAgreement:
    def test_corpus_corrupt_count_matches_load_store(self, tmp_path, spec):
        """The lint and the tolerant loader must agree on corruption."""
        from repro.events.store import load_store

        store = write_store(
            tmp_path,
            {
                "node_0001.log": "node=1 type=e1\nbroken line\nnode=2 type=e1\n",
                "node_0002.log": "node=2 type=e2\n???\n",
            },
        )
        findings, stats = check_corpus(store, spec)
        loaded = load_store(store)
        assert stats["corrupt"] == sum(loaded.corrupt_lines.values())

    def test_lint_riding_the_load_equals_a_standalone_pass(self, tmp_path, spec):
        """A tapped load lints exactly what check_corpus does, logs untouched."""
        from repro.check.corpus import CorpusLint
        from repro.events.store import load_store

        store = write_store(
            tmp_path,
            {
                "node_0001.log": "node=1 type=e1 pkt=p1.0 t=5.0\nbroken line\n"
                                 "node=2 type=e1\nnode=1 type=zz t=1.0\n",
                "node_0002.log": "node=2 type=gen pkt=p3.0 t=1.0\nnode=2 type=e2",
            },
        )
        lint = CorpusLint(spec)
        tapped = load_store(store, tap=lint.tap)
        plain = load_store(store)
        assert lint.result() == check_corpus(store, spec)
        assert tapped.logs == plain.logs
        assert tapped.corrupt_lines == plain.corrupt_lines
