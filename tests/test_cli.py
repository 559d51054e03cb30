"""End-to-end tests for the CLI (`refill` / `python -m repro`)."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "logs"
    code = main(["simulate", "--nodes", "20", "--days", "1", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_logs_and_metadata(self, log_dir):
        logs = list(log_dir.glob("node_*.log"))
        assert len(logs) >= 15  # some node logs may be lost entirely
        meta = json.loads((log_dir / "operations.json").read_text())
        assert meta["n_nodes"] == 20
        assert "sink" in meta and "outages" in meta

    def test_log_lines_parse(self, log_dir):
        from repro.events.codec import decode_log

        path = sorted(log_dir.glob("node_*.log"))[0]
        node = int(path.stem.split("_")[1])
        log = decode_log(node, path.read_text())
        assert all(e.node == node for e in log)


class TestAnalyze:
    def test_analyze_prints_breakdown(self, log_dir, capsys):
        assert main(["analyze", "--logs", str(log_dir)]) == 0
        out = capsys.readouterr().out
        assert "Loss cause shares" in out
        assert "received_sink" in out

    def test_metrics_out_has_required_counters(self, log_dir, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(["analyze", "--logs", str(log_dir),
                     "--metrics-out", str(metrics)]) == 0
        snap = json.loads(metrics.read_text())
        counters = snap["counters"]
        assert counters["analyze.events.parsed"] > 0
        assert counters["refill.packets"] > 0
        assert counters["refill.events.logged"] > 0
        assert "refill.events.inferred" in counters
        assert "refill.transitions.intra" in counters
        assert "refill.transitions.inter" in counters
        # per-stage wall-time histograms
        for stage in ("span.analyze.load", "span.analyze.reconstruct",
                      "span.analyze.diagnose", "span.reconstruct.packet"):
            assert snap["histograms"][stage]["count"] >= 1

    def test_corrupt_lines_surface_per_node(self, log_dir, tmp_path):
        import shutil

        corrupted = tmp_path / "corrupted-logs"
        shutil.copytree(log_dir, corrupted)
        victim = sorted(corrupted.glob("node_*.log"))[0]
        node = int(victim.stem.split("_")[1])
        with victim.open("a") as fh:
            fh.write("@@ totally not an event @@\nanother bad line\n")
        metrics = tmp_path / "metrics.json"
        assert main(["analyze", "--logs", str(corrupted),
                     "--metrics-out", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters[f"codec.corrupt_lines{{node={node}}}"] == 2

    def test_field_order_and_info_key_names_do_not_change_flows(
        self, log_dir, tmp_path, capsys
    ):
        """A line carrying an info key named ``time``, fields reordered,
        decodes like its canonical twin at every batch door."""
        import shutil

        flows = {}
        for name, order in (("canonical", 1), ("reversed", -1)):
            store = tmp_path / name
            shutil.copytree(log_dir, store)
            shard = sorted(store.glob("node_*.log"))[0]
            first = shard.read_text().split("\n", 1)[0]
            with shard.open("a") as fh:
                fh.write(" ".join(first.split()[::order]) + " time=5\n")
            out = tmp_path / f"{name}.json"
            assert main(["analyze", "-q", "--logs", str(store),
                         "--flows-out", str(out)]) == 0
            flows[name] = out.read_bytes()
            capsys.readouterr()
            assert main(["check", "--logs", str(store), "--json"]) in (0, 1)
            json.loads(capsys.readouterr().out)
        assert flows["reversed"] == flows["canonical"]
        assert b'"info":{"time":"5"}' in flows["canonical"]

    def test_profile_prints_stage_table(self, log_dir, capsys):
        assert main(["analyze", "--logs", str(log_dir), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "stage" in err and "p95_ms" in err
        assert "analyze.reconstruct" in err

    def test_encode_has_its_own_span(self, log_dir, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["analyze", "-q", "--logs", str(log_dir), "--profile",
                     "--flows-out", str(tmp_path / "flows.json"),
                     "--metrics-out", str(metrics)]) == 0
        assert "analyze.encode" in capsys.readouterr().err
        snapshot = json.loads(metrics.read_text())
        # each forked process encodes its slice, then the parent writes the
        # file; one process encodes as it writes
        processes = snapshot["gauges"]["analyze.processes"]
        encodes = processes + 1 if processes > 1 else 1
        assert snapshot["histograms"]["span.analyze.encode"]["count"] == encodes
        # no flows file, nothing to encode
        assert main(["analyze", "-q", "--logs", str(log_dir),
                     "--metrics-out", str(metrics)]) == 0
        assert "span.analyze.encode" not in json.loads(metrics.read_text())["histograms"]

    @pytest.mark.parametrize("collecting", [True, False])
    def test_analyze_pauses_the_collector_and_restores_it(
        self, log_dir, tmp_path, monkeypatch, collecting
    ):
        import gc

        import repro.cli

        seen = []
        diagnose_store = repro.cli._diagnose_store

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return diagnose_store(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "_diagnose_store", spy)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["analyze", "-q", "--logs", str(log_dir),
                         "--flows-out", str(tmp_path / "flows.json")]) == 0
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


class TestVerbosityFlags:
    def test_default_narrates_on_stderr(self, log_dir, capsys):
        assert main(["analyze", "--logs", str(log_dir)]) == 0
        err = capsys.readouterr().err
        assert "event=analyze.reconstructing" in err

    def test_quiet_silences_narration(self, log_dir, capsys):
        assert main(["analyze", "-q", "--logs", str(log_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Loss cause shares" in captured.out  # stdout unaffected

    def test_verbose_enables_debug(self, log_dir, capsys):
        assert main(["analyze", "-v", "--logs", str(log_dir)]) == 0
        assert "level=debug" in capsys.readouterr().err

    def test_log_json_lines(self, log_dir, capsys):
        assert main(["analyze", "--log-json", "--logs", str(log_dir)]) == 0
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines
        records = [json.loads(line) for line in err_lines]
        assert any(r["event"] == "analyze.reconstructing" for r in records)


class TestTrace:
    def test_trace_known_packet(self, log_dir, capsys):
        # find a packet that exists in the logs
        from repro.events.codec import decode_log

        packet = None
        for path in sorted(log_dir.glob("node_*.log")):
            node = int(path.stem.split("_")[1])
            for event in decode_log(node, path.read_text()):
                if event.packet is not None:
                    packet = event.packet
                    break
            if packet:
                break
        assert packet is not None
        assert main(["trace", "--logs", str(log_dir), str(packet)]) == 0
        out = capsys.readouterr().out
        assert "diagnosis:" in out

    def test_trace_prints_the_cause_analyze_counts(self, log_dir, capsys):
        """An outage window re-attributes losses; trace must agree with analyze."""
        from repro.cli import _diagnose_store
        from repro.core.diagnosis import LossCause
        from repro.events.store import load_store

        store = load_store(log_dir)
        assert store.metadata.outages
        _flows, reports, _est = _diagnose_store(store)
        outage = sorted(
            (p for p, r in reports.items() if r.cause is LossCause.SERVER_OUTAGE),
            key=str,
        )
        assert outage
        for packet in outage[:3]:
            assert main(["trace", "-q", "--logs", str(log_dir), str(packet)]) == 0
            report = reports[packet]
            expected = f"diagnosis: {report.cause} at node {report.position}"
            assert expected in capsys.readouterr().out

    def test_trace_unknown_packet(self, log_dir, capsys):
        assert main(["trace", "--logs", str(log_dir), "p9999.9999"]) == 1


class TestFigures:
    def test_figures_written(self, log_dir, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--logs", str(log_dir), "--out", str(out)]) == 0
        import xml.dom.minidom

        for name in ("fig4_sink_view.svg", "fig5_loss_positions.svg"):
            path = out / name
            assert path.exists()
            xml.dom.minidom.parse(str(path))


class TestServeBadInput:
    """Bad `refill serve` input is one error line and exit 2, like `check`
    and `analyze` — never a traceback, and never a daemon left running."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "0"],
            ["--flush-interval", "0"],
            ["--queue-batches", "0"],
            ["--tail", "/dev/null", "--tail-interval", "0"],
        ],
    )
    def test_bad_flags_exit_2(self, tmp_path, capsys, flags):
        code = main(["serve", "--port", "0", "--http-port", "0",
                     "--checkpoint", str(tmp_path / "cp.json"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "must be positive" in err
        assert "Traceback" not in err

    def test_version_1_checkpoint_exits_2_naming_the_converter(
        self, tmp_path, capsys
    ):
        from repro.serve import Checkpoint, save_checkpoint

        path = save_checkpoint(tmp_path / "cp.json", Checkpoint(session_state={}))
        code = main(["serve", "--port", "0", "--http-port", "0",
                     "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "reshard_manifest" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize(
        "manifest, shard_body",
        [
            ("names", '{"version": 1}'),  # shard file without a session
            ("names", '{"version": 1, "session": {'),  # torn shard file
            ("names", '{"version": 1, "session": {"version": 2}}'),
            ("[]", None),  # manifest that is not an object
        ],
        ids=["shard-without-session", "torn-shard", "session-without-events",
             "manifest-not-an-object"],
    )
    def test_malformed_checkpoint_exits_2(
        self, tmp_path, capsys, shards, manifest, shard_body
    ):
        """Every shard file is read before the daemon listens or spawns a
        shard, so a malformed one is bad input, not a crash."""
        path = tmp_path / "cp.json"
        if manifest == "names":
            names = [f"cp.shard{k:02d}.e1.json" for k in range(shards)]
            for name in names:
                (tmp_path / name).write_text(shard_body)
            manifest = json.dumps({"version": 2, "shards": shards, "epoch": 1,
                                   "shard_files": names})
        path.write_text(manifest)
        code = main(["serve", "--port", "0", "--http-port", "0",
                     "--shards", str(shards), "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("serve.bad-input") == 1
        assert "Traceback" not in err


class TestBadStore:
    """A store without readable metadata is one error line and exit 2 for
    every store command — never a traceback."""

    @pytest.mark.parametrize(
        "damage", ["missing-dir", "missing-file", "torn-file", "empty-object"]
    )
    @pytest.mark.parametrize(
        "command", ["analyze", "learn", "trace", "figures", "serve"]
    )
    def test_bad_store_exits_2(self, tmp_path, capsys, command, damage):
        store = tmp_path / "store"
        if damage != "missing-dir":
            store.mkdir()
            (store / "node_0001.log").write_text("node=1 type=gen pkt=p1.1\n")
        if damage == "torn-file":
            (store / "operations.json").write_text('{"sink": 1, "base_st')
        elif damage == "empty-object":
            (store / "operations.json").write_text("{}")
        argv = {
            "analyze": ["analyze", "--logs", str(store)],
            "learn": ["learn", str(store), "--out", str(tmp_path / "l.json")],
            "trace": ["trace", "--logs", str(store), "p1.1"],
            "figures": ["figures", "--logs", str(store),
                        "--out", str(tmp_path / "figs")],
            "serve": ["serve", "--logs", str(store), "--port", "0",
                      "--http-port", "0"],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        errors = [line for line in err.splitlines() if "level=error" in line]
        event = "serve.bad-input" if command == "serve" else f"{command}.bad-store"
        assert len(errors) == 1 and f"event={event}" in errors[0]
        assert "operations.json" in errors[0]
        assert "Traceback" not in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.nodes == 100 and args.days == 5


class TestVersion:
    def test_version_flag_prints_version_and_exits_zero(self, capsys):
        from repro.cli import _version_string

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(_version_string())
        assert out.split()[-1][0].isdigit()  # looks like a version number

    def test_version_string_falls_back_to_source_tree(self, monkeypatch):
        from importlib import metadata

        from repro import __version__
        from repro.cli import _version_string

        def missing(_name):
            raise metadata.PackageNotFoundError

        monkeypatch.setattr(metadata, "version", missing)
        assert _version_string() == __version__


class TestBrokenPipe:
    def test_broken_pipe_exits_with_sigpipe_status(self, monkeypatch, capsys):
        """`refill analyze | head` must die quietly with 128 + SIGPIPE.

        capsys keeps the handler's dup2-to-devnull away from pytest's
        fd-level capture (an in-memory stdout has no fileno, which the
        handler tolerates — same as an already-closed real stdout).
        """
        from repro import cli

        def reader_went_away(_args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_cmd_analyze", reader_went_away)
        assert main(["analyze", "-q", "--logs", "ignored"]) == 141

    def test_broken_pipe_in_real_pipeline(self, log_dir):
        """End to end: a reader that hangs up never produces a traceback."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "class Burst:\n"
            "    @staticmethod\n"
            "    def run(args):\n"
            "        for _ in range(100000):\n"
            "            print('x' * 80)\n"
            "        return 0\n"
            "import repro.cli as cli\n"
            "cli._cmd_analyze = Burst.run\n"
            f"sys.exit(main(['analyze', '-q', '--logs', {str(log_dir)!r}]))\n"
        )
        writer = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert writer.stdout is not None
        writer.stdout.read(80)  # take one line's worth, then hang up
        writer.stdout.close()
        _, err = writer.communicate(timeout=60)
        assert writer.returncode == 141
        assert b"Traceback" not in err
        assert b"Exception ignored" not in err
