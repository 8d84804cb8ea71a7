"""Tier-1 gates for the documentation layer.

These enforcement points keep the docs from drifting away from the code:

- ``docs/check_docstrings.py`` — every public module/class documented,
  function coverage above its ratchet floor;
- ``docs/gen_api.py --check`` — the committed ``docs/api/*.md`` pages
  match a fresh render and no docstring cross-reference is broken;
- ``docs/gen_experiments.py --check`` — every study block of
  EXPERIMENTS.md equals a fresh render of the ``paper`` store;
- every ``examples/*.py`` runs;
- ``docs/protocol.md`` — every schema-annotated JSON example validates
  against :data:`repro.gateway.protocol.SCHEMAS`, in the control-plane
  section :data:`repro.campaign.coordinator.CONTROL_SCHEMAS`, and in the
  run-record section :data:`repro.wire.RECORD_SCHEMAS`; every served
  route, error code and control op is documented;
- the README quickstart doctests — run here with
  :class:`DeprecationWarning` promoted to an error, so the front-page
  examples can never show a deprecated API;
- ``DESIGN.md`` — every module a package section's ``Modules:`` list names
  exists under that package;
- every ``python -m repro …`` command line in README / EXPERIMENTS /
  DESIGN parses, and a documented ``campaign coordinate`` resolves its grid;
- a volunteer host's lifecycle has one owner: nothing outside
  ``boinc/client.py`` pokes at a ``Client``'s privates or reads a declared
  attribute defensively, in ``src/`` or in ``examples/``.
"""

from __future__ import annotations

import doctest
import importlib.util
import json
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from repro.campaign.coordinator import CONTROL_OPS, CONTROL_SCHEMAS
from repro.gateway import protocol
from repro.wire import RECORD_SCHEMAS, compile_checks

REPO = pathlib.Path(__file__).resolve().parent.parent

#: ``<!-- schema: Name -->`` (a gateway schema), ``<!-- control: Name
#: -->`` (a control-plane schema) or ``<!-- record: Name -->`` (a run
#: record schema) followed by a fenced JSON block.
_EXAMPLE_RE = re.compile(
    r"<!--\s*(?P<tag>schema|control|record):\s*(?P<schema>\w+)\s*-->\s*\n"
    r"\s*```json\n\s*(?P<body>.*?)\n\s*```",
    re.DOTALL)


def _protocol_doc() -> str:
    return (REPO / "docs" / "protocol.md").read_text(encoding="utf-8")


def _examples(tag: str = "schema") -> list[tuple[str, str]]:
    doc = _protocol_doc()
    return [(m.group("schema"), m.group("body"))
            for m in _EXAMPLE_RE.finditer(doc) if m.group("tag") == tag]


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=REPO,
                          capture_output=True, text=True)


def test_docstring_gate_passes():
    proc = _run(str(REPO / "docs" / "check_docstrings.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_api_reference_is_fresh_and_refs_resolve():
    proc = _run(str(REPO / "docs" / "gen_api.py"), "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_experiments_document_is_rendered_from_the_store(paper_store):
    proc = _run(str(REPO / "docs" / "gen_experiments.py"), "--check",
                "--store", str(paper_store))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def load_script(path: pathlib.Path):
    """Import a script that is not on ``sys.path`` (an example, a docs tool)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("example", sorted((REPO / "examples").glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_runs(example, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(example)])
    load_script(example).main()
    assert capsys.readouterr().out


def test_api_reference_pages_are_committed():
    pages = sorted(p.name for p in (REPO / "docs" / "api").glob("*.md"))
    assert "index.md" in pages
    assert "repro.campaign.md" in pages
    assert len(pages) >= 10


class TestProtocolSpec:
    """docs/protocol.md is schema-validated against repro.gateway.protocol."""

    def test_has_examples(self):
        examples = _examples()
        assert len(examples) >= 9, (
            "docs/protocol.md lost its annotated JSON examples")

    @pytest.mark.parametrize("schema,body", _examples(),
                             ids=[s for s, _ in _examples()])
    def test_every_example_validates(self, schema, body):
        assert schema in protocol.SCHEMAS, (
            f"example annotated with unknown schema {schema!r}")
        payload = json.loads(body)
        problems = protocol.validate(schema, payload)
        assert not problems, (
            f"docs/protocol.md example for {schema} does not conform: "
            f"{problems}")

    def test_every_endpoint_documented(self):
        # Declared <=> documented; declared <=> served is held by
        # construction (GatewayServer dispatches from ENDPOINTS, see
        # tests/gateway/test_server.py::TestRouteConformance).
        documented = set(re.findall(r"^### ([A-Z]+ /\S*)$", _protocol_doc(),
                                    flags=re.MULTILINE))
        declared = {f"{ep.method} {ep.path}" for ep in protocol.ENDPOINTS}
        assert declared - documented == set(), (
            "docs/protocol.md is missing a section for these endpoints")
        assert documented - declared == set(), (
            "docs/protocol.md documents routes protocol.ENDPOINTS does not "
            "declare (so the gateway does not serve them)")

    def test_every_error_code_documented(self):
        doc = _protocol_doc()
        for code, (status, _) in protocol.ERROR_CODES.items():
            assert f"`{code}`" in doc, (
                f"docs/protocol.md is missing error code {code!r}")
            assert str(status) in doc

    def test_reply_schemas_all_shown_as_examples(self):
        shown = {schema for schema, _ in _examples()}
        wire = {ep.request_schema for ep in protocol.ENDPOINTS}
        wire |= {ep.reply_schema for ep in protocol.ENDPOINTS}
        wire.discard(None)
        wire.add("Error")
        missing = wire - shown
        assert not missing, (
            f"docs/protocol.md has no JSON example for schema(s): "
            f"{sorted(missing)}")

    def test_checksum_examples_are_well_formed(self):
        for value in re.findall(r"crc32:[0-9a-f]+", _protocol_doc()):
            assert re.fullmatch(r"crc32:[0-9a-f]{8}", value), (
                f"malformed checksum literal {value!r} in protocol.md")

    def test_protocol_version_is_current(self):
        assert f"(v{protocol.PROTOCOL_VERSION})" in _protocol_doc()


class TestControlPlaneSpec:
    """docs/protocol.md's control-plane section is validated against
    repro.campaign.coordinator's table, as the gateway's is."""

    CHECKS = compile_checks(CONTROL_SCHEMAS)

    @pytest.mark.parametrize("schema,body", _examples("control"),
                             ids=[s for s, _ in _examples("control")])
    def test_every_example_validates(self, schema, body):
        assert schema in CONTROL_SCHEMAS, (
            f"example annotated with unknown control schema {schema!r}")
        assert self.CHECKS[schema](json.loads(body), schema) == []

    def test_every_schema_shown_as_an_example(self):
        shown = {schema for schema, _ in _examples("control")}
        assert shown == set(CONTROL_SCHEMAS), (
            f"docs/protocol.md has no control example for "
            f"{sorted(set(CONTROL_SCHEMAS) - shown)}")

    def test_every_op_documented(self):
        documented = set(re.findall(r"^### `(\w+)`$", _protocol_doc(),
                                    flags=re.MULTILINE))
        assert documented == set(CONTROL_OPS), (
            "docs/protocol.md's op sections differ from CONTROL_OPS")


class TestRunRecordSpec:
    """docs/protocol.md's run-record section is validated against
    repro.wire.RECORD_SCHEMAS: one example per command that writes one."""

    CHECKS = compile_checks(RECORD_SCHEMAS)

    @pytest.mark.parametrize("schema,body", _examples("record"),
                             ids=[s for s, _ in _examples("record")])
    def test_every_example_validates(self, schema, body):
        assert self.CHECKS[schema](json.loads(body), schema) == []

    def test_one_example_per_command(self):
        commands = [json.loads(body)["command"]
                    for _, body in _examples("record")]
        assert sorted(commands) == ["campaign", "loadgen", "run"]


def test_readme_doctests_clean_of_deprecations():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = doctest.testfile(str(REPO / "README.md"),
                                  module_relative=False,
                                  optionflags=doctest.ELLIPSIS)
    assert result.failed == 0, f"{result.failed} README doctest(s) failed"
    assert result.attempted >= 15, "README lost its executable examples"


#: ``### 3.2 `repro.net` — ...`` section headings of DESIGN.md.
_PACKAGE_HEADING_RE = re.compile(r"^### [\d.]+ `(repro\.\w+)`", re.MULTILINE)


def _design_modules() -> list[tuple[str, str]]:
    """``(package, module)`` for every name on a DESIGN.md ``Modules:`` list.

    A list runs from ``Modules:`` to the end of its sentence; the names
    are the backticked words outside parentheses (a parenthesis holds
    what the module contains, not further modules).
    """
    doc = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    _, *parts = _PACKAGE_HEADING_RE.split(doc)  # package, body, package, ...
    named = []
    for package, body in zip(parts[::2], parts[1::2]):
        for listing in re.findall(r"^Modules:(.*?)(?:\n\n|\Z)", body,
                                  re.MULTILINE | re.DOTALL):
            dropped = 1
            while dropped:  # innermost parentheses first, until none remain
                listing, dropped = re.subn(r"\([^()]*\)", "", listing)
            sentence = re.split(r"\.(?:\s|$)", listing)[0]
            named += [(package, name)
                      for name in re.findall(r"`(\w+)`", sentence)]
    return named


def test_design_module_lists_are_parsed():
    named = _design_modules()
    assert ("repro.net", "flows") in named
    assert ("repro.obs", "probes") in named
    assert len({package for package, _ in named}) >= 10
    # Parenthesised contents are not mistaken for modules.
    assert ("repro.sim", "Simulator") not in named


@pytest.mark.parametrize("package,module", _design_modules())
def test_design_names_only_modules_that_exist(package, module):
    assert importlib.util.find_spec(f"{package}.{module}") is not None, (
        f"DESIGN.md lists `{module}` under {package}, which has no such "
        "module")


def _documented_commands() -> list[tuple[str, list[str]]]:
    """``(file:line, argv)`` of every ``python -m repro …`` line in the
    prose docs: backslash continuations joined, cut at the closing backtick
    of inline code, a shell comment or a shell operator; brace lists of
    commands skipped."""
    found = []
    for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md"):
        lines = (REPO / name).read_text(encoding="utf-8").splitlines()
        for n, line in enumerate(lines):
            _, marker, command = line.partition("python -m repro ")
            while command.endswith("\\"):
                n += 1
                command = command[:-1] + lines[n]
            command = re.split(r"`|\s[#&|>]", command)[0]
            if marker and "{" not in command:
                found.append((f"{name}:{n + 1}", shlex.split(command)))
    return found


def test_documented_command_lines_parse(capsys):
    """A removed flag or an unsupported combination cannot be documented."""
    from repro import cli

    commands = _documented_commands()
    assert len(commands) >= 25
    # A continuation line belongs to its command.
    assert any("--kill-workers" in argv and "--out" in argv
               for _, argv in commands)
    problems = []
    for where, argv in commands:
        try:
            args = cli.build_parser().parse_args(argv)
            if argv[:2] == ["campaign", "coordinate"] \
                    and not args.grid.endswith(".toml"):
                cli._resolve_campaign_grid(args)  # e.g. --faults + wrong grid
        except SystemExit:
            usage = capsys.readouterr().err.strip().splitlines()
            problems.append(f"{where}: {usage[-1]}")
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    assert problems == []


def test_a_host_lifecycle_has_one_owner():
    """``Client.go_offline()`` / ``come_online()`` is the transition:
    ``volunteers`` and ``faults`` plug in from outside (DESIGN §2), only
    ``boinc/client.py`` assigns the process handles, and what ``Client`` and
    its strategies declare is read as a plain attribute."""
    src = REPO / "src" / "repro"
    outside = [*(src / "volunteers").glob("*.py"),
               src / "faults" / "injector.py"]
    declared = ("peer_store|corrupt_results|corrupt_serves|peer_fetches|"
                "server_fallbacks|relay_selector|_paused|_stopped")
    offences = []
    for path in sorted([*src.rglob("*.py"),
                        *(REPO / "examples").glob("*.py")]):
        for n, line in enumerate(path.read_text("utf-8").splitlines(), 1):
            if (path in outside and re.search(r"client\._[a-z]", line)
                    or re.search(rf"(getattr|hasattr)\(.*\b({declared})\b",
                                 line)
                    or path != src / "boinc" / "client.py" and re.search(
                        r"\b_(main_proc|task_procs)\s*=[^=]", line)):
                offences.append(f"{path.relative_to(REPO)}:{n}: {line.strip()}")
    assert offences == []
