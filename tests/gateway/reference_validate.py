"""Test oracle: the interpretive schema walker ``repro.gateway.protocol``
shipped through PR 26, kept verbatim.

``validate`` walked ``SCHEMAS`` at run time: a generator over each
field's kinds and one ``_kind_ok`` call per kind.  The product compiles
each schema once, at import, into one straight-line check and must return
exactly the list this walker returns — the same strings in the same
order — for every schema and every payload
(``test_validate_differential.py``).

``_kind_ok`` and ``validate`` are the parent's functions byte for byte;
only the schema table is read from the product, so both sides check the
same contract.
"""

from __future__ import annotations

import typing as _t

from repro.gateway.protocol import SCHEMAS


def _kind_ok(value: _t.Any, kind: str, problems: list[str],
             where: str) -> bool:
    """True when *value* conforms to one primitive/list/nested *kind*."""
    if kind == "null":
        return value is None
    if kind == "str":
        return isinstance(value, str)
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    if kind == "dict":
        return isinstance(value, dict)
    if kind.startswith("list[") and kind.endswith("]"):
        if not isinstance(value, list):
            return False
        inner = kind[5:-1]
        for i, item in enumerate(value):
            if inner in SCHEMAS:
                problems.extend(validate(inner, item,
                                         _where=f"{where}[{i}]"))
            elif not _kind_ok(item, inner, problems, f"{where}[{i}]"):
                problems.append(f"{where}[{i}]: expected {inner}, "
                                f"got {type(item).__name__}")
        return True
    if kind in SCHEMAS:
        problems.extend(validate(kind, value, _where=where))
        return True
    raise ValueError(f"unknown schema kind {kind!r}")


def validate(schema: str, payload: _t.Any, _where: str = "") -> list[str]:
    """Check *payload* against SCHEMAS[*schema*]; return a problem list.

    An empty list means the payload conforms.  Unknown fields, missing
    required fields, and type mismatches are all reported with a path so
    callers (and the docs tests) can print actionable failures.
    """
    spec = SCHEMAS[schema]
    where = _where or schema
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"{where}: expected object, got {type(payload).__name__}"]
    for field in payload:
        if field not in spec:
            problems.append(f"{where}.{field}: unknown field")
    for field, (kinds, required) in spec.items():
        if field not in payload:
            if required:
                problems.append(f"{where}.{field}: missing required field")
            continue
        value = payload[field]
        sub: list[str] = []
        if not any(_kind_ok(value, kind, sub, f"{where}.{field}")
                   for kind in kinds):
            problems.append(
                f"{where}.{field}: expected {' | '.join(kinds)}, "
                f"got {type(value).__name__}")
        problems.extend(sub)
    return problems
