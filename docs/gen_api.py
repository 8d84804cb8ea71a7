#!/usr/bin/env python
"""API-reference generator for the public ``repro`` surface.

Renders one markdown page per public module under ``docs/api/`` using
nothing but the standard library (:mod:`inspect` + :mod:`importlib`),
because the container has no sphinx/pdoc/mkdocs.  Every page is built
from live imports, so the reference cannot drift from the code without
``--check`` noticing.

Sphinx-style roles inside docstrings (``:class:`CloudSpec```,
``:mod:`repro.sim```, ``:func:`~repro.campaign.run_campaign```, ...)
are resolved against the live import graph: a role whose target cannot
be imported is a **broken cross-reference** and fails the build.  Roles
that resolve to a documented object are rendered as markdown links into
the generated pages; the rest render as plain code.

Usage::

    python docs/gen_api.py            # (re)write docs/api/*.md
    python docs/gen_api.py --check    # fail if pages are stale or refs broken
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
API_DIR = REPO_ROOT / "docs" / "api"

sys.path.insert(0, str(REPO_ROOT / "src"))

#: Modules that get a reference page, in index order.  One page per
#: public package facade plus the two module-level APIs the README and
#: EXPERIMENTS docs link into directly.
TARGETS = [
    ("repro", "Top-level facade: VolunteerCloud, CloudSpec, job specs."),
    ("repro.core.system", "The simulated volunteer cloud and its spec."),
    ("repro.campaign", "Parallel experiment campaigns over scenario grids."),
    ("repro.experiments", "Paper scenarios (Table 1, Fig. 4) and extensions."),
    ("repro.faults", "Deterministic fault injection and run auditing."),
    ("repro.faults.plans", "Named chaos plans (built-in + TOML loading)."),
    ("repro.obs", "Metrics, span timelines, Chrome traces, self-profiling."),
    ("repro.sim", "Discrete-event kernel: simulator, events, rng, tracer."),
    ("repro.analysis", "Trace analysis, statistics, tables, exports."),
    ("repro.runtime", "Real MapReduce runtime the live volunteers run."),
    ("repro.gateway",
     "Live asyncio volunteer gateway, client, and load harness."),
    ("repro.wire", "The JSON codec and schema compiler both wires share."),
]

ROLE_RE = re.compile(
    r":(?:class|func|meth|mod|attr|data|exc|obj):`([^`<>]+?)`")


def _clean_target(target: str) -> str:
    """Strip role sugar (``~`` prefix, trailing parens) off a target."""
    return target.strip().lstrip("~").removesuffix("()")


def _importable(target: str, home_module: str,
                home_obj: object = None) -> bool:
    """True when *target* resolves to a real object via import/getattr."""
    parts = target.split(".")
    # Same-class reference (``:meth:`finish``` inside a class docstring).
    if home_obj is not None:
        obj = home_obj
        for attr in parts:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                break
        else:
            return True
    for i in range(len(parts), 0, -1):
        modpath = ".".join(parts[:i])
        try:
            obj = importlib.import_module(modpath)
        except ImportError:
            continue
        for attr in parts[i:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                break
        else:
            return True
    # Unqualified name: resolve in the namespace the docstring lives in.
    try:
        obj = importlib.import_module(home_module)
    except ImportError:
        return False
    for attr in parts:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


class RefIndex:
    """Maps documented objects to page anchors and checks role targets."""

    def __init__(self) -> None:
        """Empty index; populated while pages are rendered."""
        self.anchors: dict[str, str] = {}   # fq name -> "page.md#anchor"
        self.broken: list[str] = []

    def register(self, fqname: str, page: str, heading: str) -> None:
        """Record that *fqname* is documented under *heading* on *page*."""
        anchor = re.sub(r"[^\w\- ]", "", heading.lower()).strip()
        anchor = re.sub(r"\s+", "-", anchor)
        self.anchors[fqname] = f"{page}#{anchor}"

    def link(self, target: str, home_module: str, page: str,
             home_obj: object = None) -> str:
        """Render one role target as a link, code, or record it broken."""
        name = _clean_target(target)
        if not _importable(name, home_module, home_obj):
            self.broken.append(f"{home_module}: unresolvable reference "
                               f"`{target}`")
            return f"`{name}`"
        hits = [fq for fq in self.anchors
                if fq == name or fq.endswith("." + name)]
        if len(hits) == 1:
            dest = self.anchors[hits[0]]
            if dest.startswith(page + "#"):
                dest = dest[len(page):]
            return f"[`{name}`]({dest})"
        return f"`{name}`"


def _render_doc(doc: str | None, home_module: str, page: str,
                index: RefIndex, home_obj: object = None) -> str:
    """Substitute roles in a docstring and normalise indentation."""
    if not doc:
        return "*Undocumented.*"
    text = inspect.cleandoc(doc)
    return ROLE_RE.sub(
        lambda m: index.link(m.group(1), home_module, page, home_obj), text)


def _signature(obj) -> str:
    """Best-effort signature string ('' when introspection fails)."""
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return ""


def _cell(text: str) -> str:
    """Escape pipes so annotations like ``str | None`` survive tables."""
    return text.replace("|", "\\|")


def _first_line(doc: str | None) -> str:
    """First docstring line, for method tables."""
    if not doc:
        return ""
    return inspect.cleandoc(doc).splitlines()[0]


def _class_members(cls) -> list[tuple[str, object, str]]:
    """Public (name, object, kind) members defined directly on *cls*."""
    out = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            out.append((name, member, "property"))
        elif isinstance(member, (staticmethod, classmethod)):
            out.append((name, member.__func__, "method"))
        elif inspect.isfunction(member):
            out.append((name, member, "method"))
    return out


def _render_class(name: str, cls, modname: str, page: str,
                  index: RefIndex) -> list[str]:
    """Markdown section for one exported class."""
    lines = [f"### {name}", ""]
    sig = _signature(cls)
    lines += ["```python", f"class {name}{sig}", "```", ""]
    lines.append(_render_doc(cls.__doc__, cls.__module__, page, index,
                             home_obj=cls))
    lines.append("")
    if dataclasses.is_dataclass(cls):
        rows = []
        for f in dataclasses.fields(cls):
            default = ""
            if f.default is not dataclasses.MISSING:
                default = f" = {f.default!r}"
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                default = f" = {f.default_factory.__name__}()"
            ftype = f.type if isinstance(f.type, str) else getattr(
                f.type, "__name__", str(f.type))
            rows.append(f"| `{f.name}` | {_cell(f'`{ftype}`{default}')} |")
        if rows:
            lines += ["| field | type / default |", "| --- | --- |",
                      *rows, ""]
    members = _class_members(cls)
    if members:
        lines += ["| member | summary |", "| --- | --- |"]
        for mname, member, kind in members:
            if kind == "property":
                label = f"`.{mname}`"
                doc = _first_line(member.fget.__doc__ if member.fget else "")
            else:
                label = f"`.{mname}{_signature(member) or '(...)'}`"
                doc = _first_line(member.__doc__)
            doc = ROLE_RE.sub(lambda m: f"`{_clean_target(m.group(1))}`", doc)
            lines.append(f"| {_cell(label)} | {_cell(doc)} |")
        lines.append("")
    return lines


def _render_function(name: str, fn, modname: str, page: str,
                     index: RefIndex) -> list[str]:
    """Markdown section for one exported function."""
    lines = [f"### {name}", "", "```python",
             f"{name}{_signature(fn) or '(...)'}", "```", ""]
    lines.append(_render_doc(fn.__doc__, fn.__module__, page, index))
    lines.append("")
    return lines


def _page_name(modname: str) -> str:
    """Markdown filename for a module page."""
    return modname + ".md"


def _exports(mod) -> list[str]:
    """Names a module page documents (``__all__`` or public attrs)."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names if n != "__version__"]


def build_pages() -> tuple[dict[str, str], RefIndex]:
    """Render every page; returns {filename: content} and the ref index."""
    index = RefIndex()
    modules = {}
    # Pass 1: register anchors so cross-page links resolve in pass 2.
    for modname, _blurb in TARGETS:
        mod = importlib.import_module(modname)
        modules[modname] = mod
        page = _page_name(modname)
        for name in _exports(mod):
            obj = getattr(mod, name)
            heading = f"### {name}" if not inspect.ismodule(obj) else None
            if heading:
                index.register(f"{modname}.{name}", page, name)
                real_mod = getattr(obj, "__module__", None)
                if real_mod and real_mod != modname:
                    index.register(f"{real_mod}.{name}", page, name)
    # Pass 2: render.
    pages: dict[str, str] = {}
    toc = ["# `repro` API reference", "",
           "Generated by `python docs/gen_api.py` — do not edit by hand.",
           "", "| module | contents |", "| --- | --- |"]
    for modname, blurb in TARGETS:
        mod = modules[modname]
        page = _page_name(modname)
        toc.append(f"| [`{modname}`]({page}) | {blurb} |")
        lines = [f"# `{modname}`", ""]
        lines.append(_render_doc(mod.__doc__, modname, page, index))
        lines.append("")
        for name in _exports(mod):
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                lines += _render_class(name, obj, modname, page, index)
            elif callable(obj):
                lines += _render_function(name, obj, modname, page, index)
            else:
                lines += [f"### {name}", "",
                          f"Constant of type `{type(obj).__name__}`.", ""]
        lines += ["---", "",
                  "*Generated by `python docs/gen_api.py` — do not edit.*",
                  ""]
        pages[page] = "\n".join(lines)
    toc.append("")
    pages["index.md"] = "\n".join(toc)
    return pages, index


def _first_diff(on_disk: str, fresh: str) -> str:
    """Locate where a committed page diverges from the fresh render.

    Returns a human-oriented one-liner — line number, the committed
    line, and what the generator now produces — so a ``--check`` failure
    says exactly *where* the page went stale instead of just which file.
    """
    old_lines = on_disk.splitlines()
    new_lines = fresh.splitlines()
    for i, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old != new:
            return (f"first diff at line {i}: committed "
                    f"{old[:60]!r} vs fresh {new[:60]!r}")
    if len(old_lines) != len(new_lines):
        longer = "committed" if len(old_lines) > len(new_lines) else "fresh"
        return (f"first diff at line {min(len(old_lines), len(new_lines)) + 1}: "
                f"the {longer} version has "
                f"{abs(len(old_lines) - len(new_lines))} extra line(s)")
    return "contents differ only in trailing whitespace"


def main(argv: list[str] | None = None) -> int:
    """Generate (or with ``--check`` verify) the API reference."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify pages on disk match a fresh render")
    args = parser.parse_args(argv)

    pages, index = build_pages()
    if index.broken:
        for msg in sorted(set(index.broken)):
            print(f"BROKEN REF: {msg}", file=sys.stderr)
        return 1

    if args.check:
        stale = []
        for fname, content in pages.items():
            path = API_DIR / fname
            if not path.exists():
                stale.append(f"missing: docs/api/{fname}")
            elif path.read_text(encoding="utf-8") != content:
                stale.append(f"stale: docs/api/{fname} "
                             f"({_first_diff(path.read_text(encoding='utf-8'), content)})")
        for fname in sorted(p.name for p in API_DIR.glob("*.md")):
            if fname not in pages:
                stale.append(f"orphaned: docs/api/{fname}")
        if stale:
            for msg in stale:
                print(f"FAIL: {msg} (re-run python docs/gen_api.py)",
                      file=sys.stderr)
            return 1
        print(f"docs/api up to date ({len(pages)} pages, "
              f"{len(index.anchors)} documented objects)")
        return 0

    API_DIR.mkdir(parents=True, exist_ok=True)
    for fname, content in pages.items():
        (API_DIR / fname).write_text(content, encoding="utf-8")
    print(f"wrote {len(pages)} pages to docs/api/ "
          f"({len(index.anchors)} documented objects)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
