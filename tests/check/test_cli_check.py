"""End-to-end tests for `refill check` and the analyze pre-flight gate."""

import json
import pathlib

import pytest

from repro.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DEFECTIVE_STORE = FIXTURES / "defective-deployment"
DEFECTIVE_SPEC = "tests.fixtures.defective_spec:build_spec"


@pytest.fixture(scope="module")
def clean_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("check-cli") / "logs"
    assert main(["simulate", "--nodes", "15", "--days", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    return out


class TestCheckCommand:
    def test_defective_deployment_fails_with_expected_codes(self, capsys):
        code = main(["check", "--logs", str(DEFECTIVE_STORE),
                     "--spec", DEFECTIVE_SPEC, "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        reported = set(data["by_code"])
        # the three planted defect families from the ISSUE
        assert "XF002" in reported   # prerequisite cycle
        assert "XF003" in reported   # nondeterministic (ambiguous) template
        assert "LC001" in reported   # corrupt log shard
        # plus the explicit-node resolver gap and corpus integrity rules
        assert "XF005" in reported
        assert {"LC002", "LC004", "LC005"} <= reported

    def test_clean_deployment_passes(self, clean_store, capsys):
        assert main(["check", "--logs", str(clean_store)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_templates_only_check_needs_no_logs(self, capsys):
        assert main(["check", "--spec", "dissemination"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, capsys):
        # the defective spec alone (no corpus) has errors; a clean spec
        # with warnings flips only under --strict
        assert main(["check", "--spec", "ctp"]) == 0
        assert main(["check", "--spec", "ctp", "--strict"]) == 1

    def test_unknown_spec_is_usage_error(self, capsys):
        assert main(["check", "--spec", "no-such-spec"]) == 2

    def test_json_report_is_deterministic(self, capsys):
        main(["check", "--logs", str(DEFECTIVE_STORE), "--spec", DEFECTIVE_SPEC,
              "--json"])
        first = capsys.readouterr().out
        main(["check", "--logs", str(DEFECTIVE_STORE), "--spec", DEFECTIVE_SPEC,
              "--json"])
        assert capsys.readouterr().out == first


class TestCheckCodeCommand:
    """`refill check --code`: the CC0xx analyzer behind the same CLI."""

    def test_self_scan_is_clean(self, capsys):
        assert main(["check", "--code", "src/repro"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_defect_fixtures_fail_with_exit_1(self, capsys):
        code = main(["check", "--code", str(FIXTURES / "cc_defects"), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        reported = set(data["by_code"])
        # every detection rule is proven live by its seeded defect
        expected = {f"CC{n:03d}" for n in range(14)}  # CC000..CC013
        assert expected <= reported, sorted(expected - reported)

    def test_default_path_is_src_repro(self, capsys):
        assert main(["check", "--code"]) == 0
        assert "files=" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self):
        assert main(["check", "--code", "no/such/dir"]) == 2

    def test_json_report_is_deterministic(self, capsys):
        main(["check", "--code", str(FIXTURES / "cc_defects"), "--json"])
        first = capsys.readouterr().out
        main(["check", "--code", str(FIXTURES / "cc_defects"), "--json"])
        assert capsys.readouterr().out == first

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        snippet = tmp_path / "warn_only.py"
        snippet.write_text(
            "import asyncio\n\n\ndef f():\n    return asyncio.get_event_loop()\n"
        )
        assert main(["check", "--code", str(tmp_path)]) == 0
        assert main(["check", "--code", str(tmp_path), "--strict"]) == 1

    def test_max_per_rule_caps_with_cc014(self, tmp_path, capsys):
        lines = ["import asyncio", "", "", "def f():"]
        lines += ["    asyncio.get_event_loop()"] * 5
        (tmp_path / "flood.py").write_text("\n".join(lines) + "\n")
        main(["check", "--code", str(tmp_path), "--max-per-rule", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["by_code"]["CC011"] == 2
        assert data["by_code"]["CC014"] == 1


class TestAnalyzePreflight:
    def test_analyze_runs_with_gate_on_clean_store(self, clean_store, capsys):
        assert main(["analyze", "--logs", str(clean_store)]) == 0
        assert "Loss cause shares" in capsys.readouterr().out

    def test_no_check_skips_gate(self, clean_store, capsys):
        assert main(["analyze", "--logs", str(clean_store), "--no-check"]) == 0
        assert "Loss cause shares" in capsys.readouterr().out

    def test_corpus_errors_do_not_block_analysis(self, clean_store, tmp_path, capsys):
        """Field data is dirty by assumption: the gate only stops on model errors."""
        import shutil

        dirty = tmp_path / "dirty"
        shutil.copytree(clean_store, dirty)
        first = sorted(dirty.glob("node_*.log"))[0]
        first.write_text(first.read_text() + "@@@ corrupt tail @@@\n")
        assert main(["analyze", "--logs", str(dirty)]) == 0
        assert "Loss cause shares" in capsys.readouterr().out


def broken_spec():
    """A uniform-role spec whose template has a model error (XF001)."""
    from repro.check import DeploymentSpec
    from repro.fsm.graph import TransitionGraph
    from repro.fsm.prerequisites import Peer, PrereqRule
    from repro.fsm.templates import FsmTemplate

    template = FsmTemplate(
        "broken",
        TransitionGraph(["a", "b"], [("a", "b", "e")], "a"),
        prereqs={"e": [PrereqRule(Peer.SRC, "GHOST")]},
    )
    return DeploymentSpec(roles={"broken": template})


@pytest.fixture()
def shard_reads(monkeypatch):
    """Count every ``node_*.log`` read, per file name."""
    reads: dict[str, int] = {}
    real = pathlib.Path.read_bytes

    def counting(self):
        if self.name.startswith("node_") and self.suffix == ".log":
            reads[self.name] = reads.get(self.name, 0) + 1
        return real(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counting)
    return reads


@pytest.fixture(scope="module")
def damaged_store(clean_store, tmp_path_factory):
    """The clean store with one of each line defect the lint reports."""
    import shutil

    store = tmp_path_factory.mktemp("check-cli") / "damaged"
    shutil.copytree(clean_store, store)
    shards = sorted(store.glob("node_*.log"))
    first = shards[0]
    node = int(first.stem.split("_")[1])
    other = node + 1000
    lines = first.read_bytes().split(b"\n")
    lines[3:3] = [
        b"garbled ### not a record",
        f"node={other} type=trans src={other} dst=9 pkt=p{other}.1 t=1.0".encode(),
        f"node={node} type=gen pkt=p{other}.2 t=2.0".encode(),
    ]
    lines[8] = lines[8].replace(b"=", b"\x1d", 1)
    first.write_bytes(b"\n".join(lines))
    last = shards[-1]
    last.write_bytes(last.read_bytes().rstrip(b"\n"))  # torn final record
    return store


class TestAnalyzeReadsEachShardOnce:
    """The corpus lint rides the store load: one read per shard per run."""

    def test_in_memory_analyze_reads_each_shard_once(
        self, clean_store, shard_reads
    ):
        assert main(["analyze", "-q", "--logs", str(clean_store)]) == 0
        shards = {f.name for f in clean_store.glob("node_*.log")}
        assert shard_reads == {name: 1 for name in shards}

    def test_model_error_aborts_before_any_shard_is_read(
        self, clean_store, shard_reads
    ):
        spec = "tests.check.test_cli_check:broken_spec"
        assert main(["analyze", "-q", "--logs", str(clean_store), "--spec", spec]) == 1
        assert shard_reads == {}


class TestAnalyzeLintParity:
    """The lint riding ``refill analyze`` reports what a standalone pass does."""

    @pytest.fixture(params=["defective", "damaged"])
    def store(self, request, damaged_store):
        return DEFECTIVE_STORE if request.param == "defective" else damaged_store

    def test_counters_and_warning_match_a_standalone_check(
        self, store, tmp_path, capsys
    ):
        from repro.check import load_spec, run_check
        from repro.events.store import load_store
        from repro.obs import MetricsRegistry, use_registry

        metrics = tmp_path / "metrics.json"
        argv = ["analyze", "--logs", str(store), "--spec", "ctp",
                "--metrics-out", str(metrics)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        counters = json.loads(metrics.read_text())["counters"]

        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_check(load_spec("ctp"), store)
        expected = dict(registry.snapshot().counters)
        assert {k: v for k, v in counters.items() if k.startswith("check.")} == expected

        loaded = load_store(store)
        assert {
            k: v for k, v in counters.items() if k.startswith("codec.corrupt_lines")
        } == {f"codec.corrupt_lines{{node={n}}}": c for n, c in loaded.corrupt_lines.items()}
        assert counters["analyze.events.parsed"] == loaded.total_events
        corpus_errors = sum(1 for f in report.errors if f.code.startswith("LC"))
        assert corpus_errors > 0
        assert f"event=analyze.preflight.corpus-findings errors={corpus_errors}" in err

    def test_damaged_store_reports_every_defect(self, damaged_store, capsys):
        code = main(["check", "--logs", str(damaged_store), "--spec", "ctp", "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["by_code"]["LC001"] == 3  # garbled, \x1d, torn final record
        assert data["by_code"]["LC002"] == 1
        assert data["by_code"]["LC004"] == 1

    def test_defective_fixture_check_json_is_pinned(self, capsys):
        main(["check", "--logs", str(DEFECTIVE_STORE), "--spec", "ctp", "--json"])
        golden = FIXTURES / "defective-deployment-ctp-check.json"
        assert capsys.readouterr().out == golden.read_text()
