"""Oracle bundle semantics over real (tiny) stores."""

import pytest

from repro.check.findings import EXTRA_RULES, Finding, Severity, register_rules
from repro.events.store import load_store, shard_path
from repro.stress.campaign import lint_store
from repro.stress.faults import CorruptMetadata, GarbleLines
from repro.stress.oracles import (
    ORACLES,
    OracleConfig,
    StoreCase,
    evidence_fingerprints,
    run_store_oracles,
)
from repro.util.rng import RngStreams


def _case(store, tiny_sim, **overrides):
    _params, sim = tiny_sim
    kwargs = dict(
        label="t",
        corpus_dir=store,
        truth=sim.truth,
        lint_clean=lint_store(store).reconstructable,
        config=OracleConfig(),
    )
    kwargs.update(overrides)
    return StoreCase(**kwargs)


class TestRegistration:
    def test_oracle_ids_are_registered_findings_codes(self):
        for code in ORACLES:
            assert code in EXTRA_RULES
            Finding(Severity.ERROR, code, "x", "y")  # does not raise

    def test_reregistration_is_idempotent(self):
        register_rules(ORACLES)  # same content: fine

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered differently"):
            register_rules({"ST001": "something else"})
        with pytest.raises(ValueError, match="collides with a built-in"):
            register_rules({"LC001": "shadowing a built-in"})


class TestCleanStore:
    def test_no_violations_on_a_clean_store(self, clean_store, tiny_sim):
        outcome = run_store_oracles(_case(clean_store, tiny_sim))
        assert outcome.violated == []
        assert not outcome.rejected
        assert outcome.metrics["packets"] > 0
        assert outcome.metrics["cause_accuracy"] > 0.5

    def test_only_filter_limits_the_bundle(self, clean_store, tiny_sim):
        outcome = run_store_oracles(
            _case(clean_store, tiny_sim), only={"ST007"}
        )
        # differential metrics only come from ST006; the filter skipped it
        assert "cause_accuracy" not in outcome.metrics


class TestDifferentialOracle:
    def test_deleted_base_station_shard_trips_the_floor(
        self, clean_store, tiny_sim
    ):
        _params, sim = tiny_sim
        shard_path(clean_store, sim.base_station_node).unlink()
        outcome = run_store_oracles(
            _case(
                clean_store,
                tiny_sim,
                config=OracleConfig(min_cause_accuracy=0.5),
            )
        )
        assert "ST006" in outcome.violated
        assert outcome.metrics["cause_accuracy"] < 0.5

    def test_no_truth_no_differential(self, clean_store, tiny_sim):
        outcome = run_store_oracles(_case(clean_store, tiny_sim, truth=None))
        assert "cause_accuracy" not in outcome.metrics
        assert outcome.violated == []


class TestRouteOracle:
    def test_a_tampered_replay_trips_st003(self, clean_store, tiny_sim, monkeypatch):
        """Memo hits that hand back a wrong flow: the memo-free route sees it."""
        from repro.core import memo

        replay = memo.replay

        def tampered(*args, **kwargs):
            flow = replay(*args, **kwargs)
            flow.anomalies.append("tampered")
            return flow

        monkeypatch.setattr(memo, "replay", tampered)
        outcome = run_store_oracles(_case(clean_store, tiny_sim), only={"ST003"})
        assert outcome.violated == ["ST003"]
        # the ingest route replays other packets than the one-shot run does,
        # so it may diverge too; the memo-free route must
        assert "route 'per-packet'" in {
            f.message.split(" diverges")[0] for f in outcome.findings
        }

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown ST003 routes"):
            OracleConfig(backends=("serial",))


class TestRejection:
    def test_metadata_corrupt_store_is_rejected_not_violated(
        self, clean_store, tiny_sim
    ):
        CorruptMetadata(mode="bad_json").apply(
            clean_store, RngStreams(1).stream("m")
        )
        outcome = run_store_oracles(
            _case(clean_store, tiny_sim, lint_clean=False)
        )
        assert outcome.rejected
        assert outcome.violated == []
        assert outcome.reason

    def test_crash_on_lint_clean_store_is_st001(self, clean_store, tiny_sim):
        """Same unloadable store, but if the lint called it clean the crash
        is the harness's business: ST001."""
        CorruptMetadata(mode="bad_json").apply(
            clean_store, RngStreams(1).stream("m")
        )
        outcome = run_store_oracles(
            _case(clean_store, tiny_sim, lint_clean=True)
        )
        assert outcome.violated == ["ST001"]


class TestLocality:
    def test_garbling_one_node_leaves_other_packets_untouched(
        self, clean_store, tiny_sim, tmp_path
    ):
        import shutil

        corrupt = tmp_path / "corrupt"
        shutil.copytree(clean_store, corrupt)
        victim = max(
            (n for n in load_store(clean_store).logs),
            key=lambda n: len(load_store(clean_store).logs[n]),
        )
        text = shard_path(corrupt, victim).read_text()
        shard_path(corrupt, victim).write_text(text.replace("=", " ", 30))
        outcome = run_store_oracles(
            _case(corrupt, tiny_sim, base_dir=clean_store), only={"ST004"}
        )
        assert "ST004" not in outcome.violated
        assert outcome.metrics["untouched_packets"] > 0


class TestFingerprints:
    def test_evidence_fingerprints_cover_every_evidenced_packet(
        self, clean_store, tiny_sim
    ):
        logs = load_store(clean_store).logs
        fps = evidence_fingerprints(logs)
        evidenced = {
            e.packet for log in logs.values() for e in log if e.packet is not None
        }
        assert set(fps) == evidenced

    def test_garbling_changes_fingerprints(self, clean_store, tiny_sim):
        before = evidence_fingerprints(load_store(clean_store).logs)
        GarbleLines(p=0.6).apply(clean_store, RngStreams(2).stream("g"))
        after = evidence_fingerprints(load_store(clean_store).logs)
        assert before != after


class TestOracleConfig:
    def test_json_round_trip(self):
        cfg = OracleConfig(
            backends=("per-packet",),
            min_cause_accuracy=0.42,
            monotonicity_factors=(0.5, 1.0),
        )
        assert OracleConfig.from_json(cfg.to_json()) == cfg
