"""Seeded-defect coverage for every ``CC0xx`` rule, plus suppressions.

Mirrors the defective-deployment pattern used for the XF/LC analyzers:
each fixture file in ``tests/fixtures/cc_defects`` plants exactly one
rule's defect, and this suite asserts the rule fires with the expected
code, severity and location — and that the live tree itself scans clean.
"""

import pathlib
import textwrap

import pytest

from repro.check.code import check_code, load_module, scan_module
from repro.check.findings import Severity

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "cc_defects"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: (fixture file, rule code, severity, line) — one planted defect each.
EXPECTED = [
    ("cc000_parse_error.py", "CC000", Severity.ERROR, 1),
    ("cc001_blocking_async.py", "CC001", Severity.ERROR, 6),
    ("cc002_dropped_task.py", "CC002", Severity.ERROR, 6),
    ("cc003_swallowed_cancel.py", "CC003", Severity.ERROR, 8),
    ("cc004_raw_timeout.py", "CC004", Severity.ERROR, 6),
    ("cc005_writer_close.py", "CC005", Severity.WARNING, 8),
    ("cc006_contextvar_token.py", "CC006", Severity.WARNING, 8),
    ("cc007_unawaited.py", "CC007", Severity.ERROR, 9),
    ("cc008_wallclock_det.py", "CC008", Severity.ERROR, 7),
    ("cc009_global_random.py", "CC009", Severity.ERROR, 7),
    ("cc010_hot_loop_clock.py", "CC010", Severity.WARNING, 9),
    ("cc011_get_event_loop.py", "CC011", Severity.WARNING, 6),
    ("cc012_bare_except_async.py", "CC012", Severity.WARNING, 8),
    ("cc013_bad_suppression.py", "CC013", Severity.WARNING, 10),
]


def scan_snippet(source: str, path: pathlib.Path, name: str = "snippet.py"):
    """Scan one inline snippet through the full pipeline."""
    target = path / name
    target.write_text(textwrap.dedent(source))
    return check_code([target])


class TestSeededDefects:
    @pytest.mark.parametrize(
        "filename,code,severity,line",
        EXPECTED,
        ids=[row[1] for row in EXPECTED],
    )
    def test_rule_fires_at_expected_location(self, filename, code, severity, line):
        report = check_code([FIXTURES / filename])
        hits = [
            f
            for f in report.findings
            if f.code == code and f.severity is severity
        ]
        assert hits, f"{code} did not fire on {filename}: {report.render_text()}"
        locations = {f.location for f in hits}
        assert f"{FIXTURES / filename}:{line}" in locations, locations

    def test_whole_fixture_dir_fails(self):
        report = check_code([FIXTURES])
        assert report.exit_code() == 1
        codes = {f.code for f in report.findings}
        assert {f"CC{n:03d}" for n in range(14)} <= codes

    def test_stale_suppression_is_flagged(self):
        report = check_code([FIXTURES / "cc013_bad_suppression.py"])
        stale = [
            f
            for f in report.findings
            if f.code == "CC013" and "matched no finding" in f.message
        ]
        assert len(stale) == 1
        assert stale[0].location.endswith(":13")

    def test_malformed_suppression_does_not_suppress(self):
        report = check_code([FIXTURES / "cc013_bad_suppression.py"])
        assert any(f.code == "CC011" for f in report.findings)


class TestSelfScan:
    def test_src_repro_is_clean(self):
        report = check_code([SRC])
        assert report.findings == [], report.render_text()
        assert report.exit_code(strict=True) == 0

    def test_self_scan_used_the_recorded_suppressions(self):
        # the three justified suppressions (2× CC010 ingest chunk
        # staleness, 1× CC001 shutdown unlink in the one daemon) must
        # stay live: if the code they guard is fixed, CC013 flags them
        # stale above
        report = check_code([SRC])
        assert report.stats["suppressions_used"] == 3

    def test_classification_sees_the_daemon(self):
        report = check_code([SRC])
        assert report.stats["async_daemons"] >= 3  # ingest, server, http
        assert report.stats["deterministic_modules"] >= 10  # stress + simnet
        assert report.stats["hot_path_modules"] >= report.stats["async_daemons"]


class TestSuppressions:
    def test_inline_suppression_with_reason_suppresses(self, tmp_path):
        report = scan_snippet(
            """\
            import asyncio


            def f():
                return asyncio.get_event_loop()  # refill: no-cc011 -- test scaffolding
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()
        assert report.stats["suppressions_used"] == 1

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        report = scan_snippet(
            """\
            import asyncio


            def f():
                # refill: no-cc011 -- test scaffolding
                return asyncio.get_event_loop()
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_suppression_is_rule_specific(self, tmp_path):
        # a no-cc001 pragma must not hide a CC011 on the same line
        report = scan_snippet(
            """\
            import asyncio


            def f():
                return asyncio.get_event_loop()  # refill: no-cc001 -- wrong code
            """,
            tmp_path,
        )
        codes = {f.code for f in report.findings}
        assert "CC011" in codes
        assert "CC013" in codes  # the no-cc001 pragma is stale

    def test_suppression_inside_string_literal_is_ignored(self, tmp_path):
        report = scan_snippet(
            '''\
            import asyncio

            DOC = "example:  # refill: no-cc011 -- not a comment"


            def f():
                return asyncio.get_event_loop()
            ''',
            tmp_path,
        )
        codes = {f.code for f in report.findings}
        assert codes == {"CC011"}, report.render_text()


class TestRulePrecision:
    """Compliant idioms — the shapes the live tree uses — stay silent."""

    def test_tracked_task_passes(self, tmp_path):
        report = scan_snippet(
            """\
            import asyncio


            async def spawn(tasks: set) -> None:
                task = asyncio.create_task(asyncio.sleep(0))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                await task
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_cancelled_with_reraise_passes(self, tmp_path):
        report = scan_snippet(
            """\
            import asyncio


            async def consume(q) -> None:
                try:
                    await q.get()
                except asyncio.CancelledError:
                    q.task_done()
                    raise
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_compat_shim_module_may_use_raw_timeout(self, tmp_path):
        shim = tmp_path / "_compat.py"
        shim.write_text(
            "import asyncio\n\n\n"
            "async def guard(coro):\n"
            "    return await asyncio.wait_for(coro, timeout=1.0)\n"
        )
        report = check_code([shim])
        assert not any(f.code == "CC004" for f in report.findings)

    def test_writer_with_wait_closed_passes(self, tmp_path):
        report = scan_snippet(
            """\
            import asyncio


            async def reply(writer) -> None:
                writer.write(b"ok\\n")
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_monotonic_clock_is_fine_everywhere(self, tmp_path):
        report = scan_snippet(
            """\
            # refill: module=deterministic
            import time


            def measure(lines):
                start = time.monotonic()
                for _line in lines:
                    pass
                return time.perf_counter() - start
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_seeded_random_instance_is_fine(self, tmp_path):
        report = scan_snippet(
            """\
            # refill: module=deterministic
            import random


            def draws(seed: int):
                rng = random.Random(seed)
                return [rng.random() for _ in range(3)]
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_blocking_call_in_sync_function_passes(self, tmp_path):
        report = scan_snippet(
            """\
            import time


            def backoff():
                time.sleep(0.1)
            """,
            tmp_path,
        )
        assert report.findings == [], report.render_text()

    def test_aliased_import_is_still_caught(self, tmp_path):
        report = scan_snippet(
            """\
            from asyncio import wait_for as wf


            async def fetch(reader):
                return await wf(reader.read(1), timeout=5.0)
            """,
            tmp_path,
        )
        assert any(f.code == "CC004" for f in report.findings)
