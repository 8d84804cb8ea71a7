"""The one JSON engine both wires share (``repro.wire``).

The codec and the validator of the gateway's bodies are tested where
the gateway uses them (``tests/gateway/test_protocol.py``,
``test_validate_differential.py``); this file holds what the sharing
itself promises: one encoder with the bytes both old encoders wrote,
a scope per schema table, and a campaign package that does not load the
gateway.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import wire
from repro.campaign import canonical_json
from repro.gateway import protocol

VALUES = [
    {"b": [1, {"d": None, "c": True}], "a": "x"},
    {"é": "名前", "emoji": "\U0001f600"},
    [-0.0, 0.0, 1e300, 5e-324, 2**70, -1],
    "\x00\x1f\x7f\n\t\"\\",
    {"nested": {"deeper": {"deepest": [[], {}]}}},
]


@pytest.mark.parametrize("value", VALUES)
def test_one_encoder_with_the_bytes_of_both_old_ones(value):
    campaign_bytes = json.dumps(value, sort_keys=True, separators=(",", ":"),
                                ensure_ascii=True).encode("utf-8")
    gateway_bytes = json.dumps(value, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
    assert campaign_bytes == gateway_bytes
    assert canonical_json(value).encode() == campaign_bytes
    assert protocol.dumps(value) == wire.dumps(value) == campaign_bytes


def test_each_table_compiles_in_a_scope_of_its_own():
    first = wire.compile_checks({"Error": {"code": (("int",), True)},
                                 "Reply": {"error": (("Error",), True)}})
    second = wire.compile_checks({"Error": {"text": (("str",), True)}})
    assert first["Reply"]({"error": {"code": 5}}, "R") == []
    assert first["Reply"]({"error": {"text": "x"}}, "R") == [
        "R.error.text: unknown field", "R.error.code: missing required field"]
    assert second["Error"]({"text": "x"}, "E") == []
    assert protocol.validate("Error", {"error": "e", "detail": "d"}) == []


def test_importing_the_campaign_package_loads_no_gateway_module():
    code = ("import sys, repro.campaign; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.gateway')))")
    src = str(pathlib.Path(repro.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


#: A record that passes the ``RunRecord`` check.
RECORD = {"command": "run", "seed": 1, "wall_s": 0.5, "ok": True,
          "spec": {"nodes": 6}, "outcome": {"job_done": True},
          "audit": None, "faults": []}


def test_write_record_writes_indented_sorted_json(tmp_path):
    path = tmp_path / "record.json"
    wire.write_record(str(path), RECORD)
    text = path.read_text()
    assert json.loads(text) == RECORD
    assert text == json.dumps(RECORD, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("record,refusal", [
    ({**RECORD, "plan": "x"}, "RunRecord.plan: unknown field"),
    ({k: v for k, v in RECORD.items() if k != "ok"},
     "RunRecord.ok: missing required field"),
    ({**RECORD, "wall_s": float("nan")}, "Out of range float"),
    ({**RECORD, "outcome": {"p99": float("inf")}}, "Out of range float"),
], ids=["unknown-field", "missing-field", "nan", "nested-inf"])
def test_write_record_refuses(tmp_path, record, refusal):
    path = tmp_path / "record.json"
    with pytest.raises(ValueError, match=refusal):
        wire.write_record(str(path), record)
    assert not path.exists()  # no half-written record
