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
