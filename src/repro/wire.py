"""The one JSON engine of both wires: encoder, decoder, schema compiler.

The gateway (:mod:`repro.gateway.protocol`) and the campaign control
plane (:mod:`repro.campaign.coordinator`) encode with :func:`dumps`,
decode with :func:`loads` and check with what :func:`compile_checks`
builds from their schema tables; every command's run record is written
by :func:`write_record`.  Only the standard library is imported, so the
campaign package does not load the gateway.
"""

from __future__ import annotations

import json
import math
import typing as _t

__all__ = ["MAX_MESSAGE_BYTES", "RECORD_SCHEMAS", "canonical_json",
           "compile_checks", "dumps", "loads", "write_record"]

#: The largest message either wire takes: a gateway request body, or a
#: control line with its ``\n``.  Past it a peer is refused, not buffered.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: The one encoder: sorted keys, no whitespace, ASCII only.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: _t.Any) -> str:
    """Deterministic JSON: the same value always encodes to the same
    text, whatever its dict order or the process that built it (the
    campaign layer's byte-identity contract rests on this)."""
    return _ENCODER.encode(value)


def dumps(payload: _t.Any) -> bytes:
    """:func:`canonical_json` as bytes: every wire body and control line."""
    return _ENCODER.encode(payload).encode()


def _finite(token: str) -> float:
    """*token* as a float; ``ValueError`` unless it is finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


#: One decoder for everything that arrives: refuses ``NaN`` /
#: ``Infinity``, which RFC 8259 does not have, and a literal past the
#: double range (``1e400``).
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def loads(data: bytes) -> _t.Any:
    """Decode a JSON body or line.  Raises ``ValueError`` on malformed
    input, bytes that are not UTF-8, a number that is not finite, and
    nesting past the interpreter's recursion limit."""
    text = data.decode("utf-8")
    if text.startswith("\ufeff"):  # as json.loads words it
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


#: The test of each primitive kind, over the value named ``{v}``.
_PRIMITIVE = {"null": "{v} is None", "str": "isinstance({v}, str)",
              "bool": "isinstance({v}, bool)", "dict": "isinstance({v}, dict)",
              "int": "isinstance({v}, int) and not isinstance({v}, bool)",
              "number": "isinstance({v}, (int, float)) "
                        "and not isinstance({v}, bool)"}


def _kinds_source(schemas: _t.Mapping, kinds: tuple, v: str, where: str,
                  depth: int) -> list:
    """Lines checking the value named *v* against the union *kinds*, one
    branch per kind in declared order, that append to ``problems`` under
    the f-string path *where*.  A schema kind matches any value."""
    lines: list[str] = []
    for kind in kinds:
        test = "elif" if lines else "if"
        if kind in _PRIMITIVE:
            lines += [f"{test} {_PRIMITIVE[kind].format(v=v)}:", "    pass"]
        elif kind.startswith("list[") and kind.endswith("]"):
            i, item = f"i{depth}", f"v{depth + 1}"
            lines += [f"{test} isinstance({v}, list):",
                      f"    for {i}, {item} in enumerate({v}):"]
            lines += ["        " + line for line in _kinds_source(
                schemas, (kind[5:-1],), item, f"{where}[{{{i}}}]", depth + 1)]
        elif kind in schemas:  # always matches: later kinds never run
            call = f"problems.extend(check_{kind}({v}, f{where!r}))"
            return lines + ["else:", "    " + call] if lines else [call]
        else:
            raise ValueError(f"unknown schema kind {kind!r}")
    got = f"{where}: expected {' | '.join(kinds)}, got {{type({v}).__name__}}"
    return lines + ["else:", f"    problems.append(f{got!r})"]


def compile_checks(schemas: _t.Mapping[str, _t.Mapping[str, tuple]]
                   ) -> dict[str, _t.Callable[[_t.Any, str], list[str]]]:
    """One ``check(payload, where) -> problems`` per schema of a table
    ``{schema: {field: (kinds, required)}}``, kinds drawn from ``str``,
    ``int``, ``number``, ``bool``, ``null``, ``dict``, ``list[str]``,
    ``list[<Schema>]`` and the table's schemas, which call each other by
    name in a scope of the table's own.  Unknown fields come first."""
    scope: dict[str, _t.Any] = {}
    for schema, spec in schemas.items():
        lines = [f"def check_{schema}(payload, where, known="
                 f"{frozenset(spec)!r}):",
                 "    if not isinstance(payload, dict):",
                 "        return [f'{where}: expected object, got "
                 "{type(payload).__name__}']",
                 "    problems = [] if known.issuperset(payload) else "
                 "[f'{where}.{field}: unknown field' for field in payload "
                 "if field not in known]"]
        for field, (kinds, required) in spec.items():
            lines += [f"    if {field!r} in payload:",
                      f"        v0 = payload[{field!r}]"]
            lines += ["        " + line for line in _kinds_source(
                schemas, kinds, "v0", f"{{where}}.{field}", 0)]
            if required:
                lines += ["    else:", "        problems.append("
                          f"f{f'{{where}}.{field}: missing required field'!r})"]
        # One compile() per schema: one over all peaks six times higher.
        exec(compile("\n".join(lines + ["    return problems"]),
                     f"<schema {schema}>", "exec"), scope)
    return {schema: scope[f"check_{schema}"] for schema in schemas}


#: What a command did, in one shape for ``run``, ``campaign`` and
#: ``loadgen``: what was asked (``spec``), what happened (``outcome``),
#: the end-state audit and the fault log.  The exit status is 0 exactly
#: when ``ok`` is true.
RECORD_SCHEMAS: dict[str, dict[str, tuple]] = {"RunRecord": {
    "command": (("str",), True), "seed": (("int",), True),
    "wall_s": (("number",), True), "ok": (("bool",), True),
    "spec": (("dict",), True), "outcome": (("dict",), True),
    "audit": (("dict", "null"), True), "faults": (("list[dict]",), True)}}

_CHECK_RECORD = compile_checks(RECORD_SCHEMAS)["RunRecord"]


def write_record(path: str, record: dict[str, _t.Any]) -> None:
    """Write *record* to *path* as indented, key-sorted JSON.  Before
    opening *path*, raise ``ValueError`` if it breaks the ``RunRecord``
    schema or holds a ``NaN`` or ``Infinity``."""
    problems = _CHECK_RECORD(record, "RunRecord")
    if problems:
        raise ValueError("run record: " + "; ".join(problems))
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
