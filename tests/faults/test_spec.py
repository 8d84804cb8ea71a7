"""Unit tests for FaultSpec and the chaos-plan loading machinery."""

import pytest

from repro.faults import (
    BUILTIN_PLANS,
    FAULT_KINDS,
    ChaosPlan,
    FaultSpec,
    load_plan,
    resolve_plan,
)


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec(kind="link_flap", at=10.0, duration=5.0,
                         target="random:2")
        assert spec.kind == "link_flap"
        assert spec.at == 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor_strike", at=0.0, duration=1.0)

    def test_negative_at_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="link_flap", at=-1.0, duration=1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="link_flap", at=0.0, duration=0.0)

    def test_from_dict_extras_become_params(self):
        spec = FaultSpec.from_dict({"kind": "straggler", "at": 5.0,
                                    "duration": 10.0, "factor": 6.0})
        assert spec.params == {"factor": 6.0}


class TestChaosPlan:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="no faults"):
            ChaosPlan(name="void", description="", faults=())

    def test_builtins_are_well_formed(self):
        assert len(BUILTIN_PLANS) >= 5
        for name, plan in BUILTIN_PLANS.items():
            assert plan.name == name
            assert plan.description
            for spec in plan.faults:
                assert spec.kind in FAULT_KINDS

    def test_builtins_cover_every_fault_kind(self):
        used = {spec.kind for plan in BUILTIN_PLANS.values()
                for spec in plan.faults}
        assert used == FAULT_KINDS

    def test_resolve_builtin(self):
        assert resolve_plan("kitchen-sink") is BUILTIN_PLANS["kitchen-sink"]

    def test_resolve_unknown_lists_builtins(self):
        with pytest.raises(ValueError, match="kitchen-sink"):
            resolve_plan("no-such-plan")


class TestTomlLoading:
    TOML = """\
name = "custom"
description = "a test plan"

[[fault]]
kind = "dataserver_outage"
at = 60.0
duration = 120.0

[[fault]]
kind = "straggler"
at = 100.0
duration = 300.0
target = "random:2"
factor = 6.0
"""

    def test_load_plan(self, tmp_path):
        p = tmp_path / "plan.toml"
        p.write_text(self.TOML)
        plan = load_plan(p)
        assert plan.name == "custom"
        assert len(plan.faults) == 2
        assert plan.faults[1].params == {"factor": 6.0}

    def test_resolve_path(self, tmp_path):
        p = tmp_path / "plan.toml"
        p.write_text(self.TOML)
        assert resolve_plan(str(p)).name == "custom"

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.toml"
        p.write_text("name = 'x'\n")
        with pytest.raises(ValueError, match="no .*fault"):
            load_plan(p)

    @pytest.mark.parametrize("at,duration", [
        ("inf", "1.0"),     # would arm a fault that never fires
        ("-inf", "1.0"),
        ("nan", "1.0"),     # would raise from inside the run
        ("1.0", "nan"),
        ("1.0", "inf"),
    ])
    def test_non_finite_time_in_file_rejected(self, tmp_path, at, duration):
        p = tmp_path / "bad.toml"
        p.write_text(f"[[fault]]\nkind = 'link_flap'\nat = {at}\n"
                     f"duration = {duration}\n")
        with pytest.raises(ValueError, match="finite"):
            load_plan(p)

    def test_bad_kind_in_file_rejected(self, tmp_path):
        p = tmp_path / "bad.toml"
        p.write_text("[[fault]]\nkind = 'gremlins'\nat = 1.0\nduration = 1.0\n")
        with pytest.raises(ValueError, match="kind"):
            load_plan(p)
