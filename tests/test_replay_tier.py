"""``RunSpec.tier`` plumbing: serde compat, dispatch, journal resume.

The tier field is additive: journals and traces recorded before it
existed must keep loading (missing tier means the cycle-accurate
tier), and both tiers must derive identical stimulus seeds so a TLM
survey can be confirmed cycle-accurately by flipping one field.
"""

import json

import pytest

from repro.faults import run_fault_campaign
from repro.replay import RunSpec, campaign_spec, execute

QUICK = dict(duration_us=5.0)


class TestTierSerde:
    def test_tier_round_trips_through_json(self):
        spec = campaign_spec("portable-audio-player", tier="tlm",
                             **QUICK)
        clone = RunSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.tier == "tlm"
        assert clone.to_dict() == spec.to_dict()

    def test_missing_tier_defaults_to_cycle(self):
        """A spec dict recorded before the tier field existed."""
        data = campaign_spec("portable-audio-player", **QUICK).to_dict()
        del data["tier"]
        assert RunSpec.from_dict(data).tier == "cycle"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            RunSpec("portable-audio-player", tier="rtl")

    def test_replace_can_flip_tier(self):
        spec = campaign_spec("portable-audio-player", **QUICK)
        flipped = spec.replace(tier="tlm")
        assert flipped.tier == "tlm"
        assert spec.tier == "cycle"

    def test_tier_does_not_perturb_seed_derivation(self):
        """Same stimulus on both tiers: the derived per-run seed must
        not depend on the execution tier."""
        cycle = campaign_spec("portable-audio-player", **QUICK)
        tlm = campaign_spec("portable-audio-player", tier="tlm",
                            **QUICK)
        assert cycle.seed == tlm.seed


class TestEngineSerde:
    def test_legacy_auto_engine_loads_as_compiled(self):
        """A spec dict recorded when ``auto`` was an engine choice."""
        data = campaign_spec("portable-audio-player", **QUICK).to_dict()
        data["engine"] = "auto"
        spec = RunSpec.from_dict(data)
        assert spec.engine == "compiled"
        assert spec.to_dict() == dict(data, engine="compiled")

    def test_auto_engine_rejected_for_new_specs(self):
        with pytest.raises(ValueError, match="engine"):
            RunSpec("portable-audio-player", engine="auto")


class TestTierDispatch:
    def test_execute_dispatches_to_tlm(self):
        spec = campaign_spec("portable-audio-player", tier="tlm",
                             **QUICK)
        system, outcome = execute(spec)
        assert outcome.outcome in ("completed", "recovered")
        # transaction-level: no event kernel underneath
        assert not hasattr(system, "sim")
        assert system.transactions_completed() > 0

    def test_cycle_tier_still_default_path(self):
        spec = campaign_spec("portable-audio-player", **QUICK)
        system, outcome = execute(spec)
        assert outcome.outcome in ("completed", "recovered")
        assert hasattr(system, "sim")


class TestJournalTierCompat:
    FAULTS = ("none", "always-retry")

    def _campaign(self, path, tier, resume=False):
        return run_fault_campaign(
            scenarios=("portable-audio-player",), faults=self.FAULTS,
            duration_us=5.0, tier=tier, journal=str(path),
            resume=resume)

    def test_tlm_journal_resumes_without_reexecution(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = self._campaign(path, "tlm")
        assert first.resumed == 0
        second = self._campaign(path, "tlm", resume=True)
        assert second.resumed == len(second.runs) == len(first.runs)
        assert [run.fingerprint for run in second.runs] \
            == [run.fingerprint for run in first.runs]

    def test_pre_tier_journal_resumes(self, tmp_path):
        """A journal written before the tier field existed: strip the
        field from every recorded spec/result and resume against it."""
        path = tmp_path / "journal.jsonl"
        first = self._campaign(path, "cycle")
        lines = []
        for line in path.read_text().splitlines():
            event = json.loads(line)
            result = event.get("result")
            if result:
                result.pop("tier", None)
                if isinstance(result.get("spec"), dict):
                    result["spec"].pop("tier", None)
            lines.append(json.dumps(event, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        second = self._campaign(path, "cycle", resume=True)
        assert second.resumed == len(second.runs) == len(first.runs)
