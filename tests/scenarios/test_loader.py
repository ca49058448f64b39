"""Scenario schema validation and error provenance."""

from pathlib import Path

import pytest

from repro.errors import CampaignConfigError, ScenarioError
from repro.faults.model import (
    BurstFaultModel,
    FaultModel,
    MemoryFaultModel,
    MultiBitFaultModel,
)
from repro.scenarios import scenario_from_dict
from repro.workloads.base import VirtMode

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.yaml"))


def mixed_dict():
    return {
        "name": "mixed",
        "faults": {
            "register": {"probability": 0.5},
            "multibit": {"probability": 0.2, "n_bits": 3},
            "burst": {"probability": 0.2, "n_flips": 3},
            "memory": {"probability": 0.1},
        },
    }


class TestParsing:
    def test_mixed_scenario_parses_every_kind(self):
        scenario = scenario_from_dict(mixed_dict())
        models = [type(c.model) for c in scenario.faults.components]
        assert models == [
            FaultModel, MultiBitFaultModel, BurstFaultModel, MemoryFaultModel
        ]
        assert [c.label for c in scenario.faults.components] == [
            "register", "multibit", "burst", "memory"
        ]

    def test_disabled_block_is_skipped(self):
        data = mixed_dict()
        data["faults"]["memory"]["enabled"] = False
        data["faults"]["register"]["probability"] = 0.6
        scenario = scenario_from_dict(data)
        assert [c.label for c in scenario.faults.components] == [
            "register", "multibit", "burst"
        ]

    def test_campaign_overrides_parse(self):
        data = mixed_dict()
        data["campaign"] = {
            "benchmarks": ["mcf", "postmark"],
            "mode": "hvm",
            "n_injections": 600,
        }
        scenario = scenario_from_dict(data)
        overrides = dict(scenario.campaign)
        assert overrides["benchmarks"] == ("mcf", "postmark")
        assert overrides["mode"] is VirtMode.HVM
        assert overrides["n_injections"] == 600

    def test_workload_override_parses(self):
        data = mixed_dict()
        data["workloads"] = {
            "mcf": {"reason_mix": {"mmu_update": 40.0},
                    "background_weight": 0.01},
        }
        scenario = scenario_from_dict(data)
        (override,) = scenario.workloads
        assert override.benchmark == "mcf"
        assert override.reason_mix == (("mmu_update", 40.0),)
        assert override.background_weight == 0.01


class TestValidation:
    """Every failure is a ScenarioError whose message carries the source tag
    and the dotted key path (the provenance satellite)."""

    def check(self, data, keypath):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data, source="test.yaml")
        assert err.value.source == "test.yaml"
        assert err.value.keypath == keypath
        assert "test.yaml" in str(err.value)
        assert keypath in str(err.value)
        return err.value

    def test_unknown_top_level_key(self):
        data = mixed_dict()
        data["fault"] = {}
        self.check(data, "fault")

    def test_missing_faults_section(self):
        self.check({"name": "x"}, "faults")

    def test_unknown_fault_kind(self):
        data = mixed_dict()
        data["faults"]["registers"] = {}
        self.check(data, "faults.registers")

    def test_unknown_block_key(self):
        data = mixed_dict()
        data["faults"]["register"]["register"] = ["rax"]
        self.check(data, "faults.register.register")

    def test_no_kind_enabled(self):
        data = {"name": "x", "faults": {
            "register": {"enabled": False},
        }}
        self.check(data, "faults")

    def test_probabilities_must_sum_to_one(self):
        data = mixed_dict()
        data["faults"]["memory"]["probability"] = 0.5
        err = self.check(data, "faults")
        assert "sum to 1.0" in str(err)

    def test_subsystem_rejected_on_register_kind(self):
        data = mixed_dict()
        data["faults"]["register"]["subsystem"] = "scheduler"
        self.check(data, "faults.register.subsystem")

    def test_unknown_subsystem(self):
        data = mixed_dict()
        data["faults"]["memory"]["subsystem"] = "vcpus"
        self.check(data, "faults.memory.subsystem")

    def test_model_constructor_errors_gain_provenance(self):
        data = mixed_dict()
        data["faults"]["multibit"]["n_bits"] = 1  # model demands >= 2
        err = self.check(data, "faults.multibit")
        assert "n_bits" in str(err)

    def test_bad_bits_pair(self):
        data = mixed_dict()
        data["faults"]["register"]["bits"] = [0, 63, 64]
        self.check(data, "faults.register.bits")

    def test_unknown_benchmark_in_workloads(self):
        data = mixed_dict()
        data["workloads"] = {"gcc": {}}
        self.check(data, "workloads.gcc")

    def test_unknown_reason_in_mix(self):
        data = mixed_dict()
        data["workloads"] = {"mcf": {"reason_mix": {"warp_drive": 1.0}}}
        self.check(data, "workloads.mcf.reason_mix.warp_drive")

    def test_negative_weight(self):
        data = mixed_dict()
        data["workloads"] = {"mcf": {"reason_mix": {"mmu_update": -1.0}}}
        self.check(data, "workloads.mcf.reason_mix.mmu_update")

    def test_unknown_campaign_key(self):
        data = mixed_dict()
        data["campaign"] = {"shards": 4}
        self.check(data, "campaign.shards")

    def test_campaign_minimum(self):
        data = mixed_dict()
        data["campaign"] = {"n_injections": 0}
        self.check(data, "campaign.n_injections")

    def test_bad_mode(self):
        data = mixed_dict()
        data["campaign"] = {"mode": "paravirt"}
        self.check(data, "campaign.mode")

    def test_unknown_campaign_benchmark(self):
        data = mixed_dict()
        data["campaign"] = {"benchmarks": ["gcc"]}
        self.check(data, "campaign.benchmarks")

    def test_scenario_error_is_a_campaign_config_error(self):
        with pytest.raises(CampaignConfigError):
            scenario_from_dict({"name": "x"})


class TestYamlFiles:
    def test_load_scenario_reads_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        del yaml
        from repro.scenarios import load_scenario

        path = tmp_path / "storm.yaml"
        path.write_text(
            "faults:\n  burst:\n    probability: 1.0\n    n_flips: 4\n"
        )
        scenario = load_scenario(path)
        # The name defaults to the file stem, the source to the path.
        assert scenario.name == "storm"
        assert scenario.source == str(path)

    def test_load_errors_carry_the_file_path(self, tmp_path):
        pytest.importorskip("yaml")
        from repro.scenarios import load_scenario

        path = tmp_path / "bad.yaml"
        path.write_text("faults:\n  register:\n    subsystem: scheduler\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert "faults.register.subsystem" in str(err.value)

    def test_non_mapping_yaml_rejected(self, tmp_path):
        pytest.importorskip("yaml")
        from repro.scenarios import load_scenario

        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)

    def test_every_example_scenario_validates(self):
        assert EXAMPLES, "examples/ should ship scenario files"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
    def test_example_scenario_loads(self, path):
        pytest.importorskip("yaml")
        from repro.scenarios import load_scenario

        assert load_scenario(path).describe()
