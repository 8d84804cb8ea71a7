"""Render the paper's studies from a campaign store.

The ``paper`` grid (:func:`repro.experiments.paper_grid`) writes one
record per variant of every :class:`~repro.experiments.Study`;
:func:`study_payloads` folds a store's records back into ``{study:
{variant: payload}}`` and :func:`render_study` turns one study's payloads
into the Markdown block EXPERIMENTS.md carries: its table, its figure if
it has one, and every claim with a ✓ or ✗.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..campaign import CellRecord
    from ..experiments.study import Payloads, Study


def study_payloads(records: _t.Iterable["CellRecord"]
                   ) -> dict[str, "Payloads"]:
    """``{study name: {variant: payload}}`` for every declared study, in
    declaration order, from the successful records of a ``paper`` store.

    Raises ``ValueError`` naming every variant the store does not
    hold at its study's seed (an interrupted or partly failed campaign:
    re-run it with ``--resume``).
    """
    from ..experiments import STUDIES

    found: dict[tuple[str, str, int], _t.Mapping[str, _t.Any]] = {}
    for record in records:
        spec = record.spec
        if not record.ok or spec.get("faults"):
            continue
        if spec["kind"] == "study":
            name, variant = spec["params"]["study"], spec["params"]["variant"]
        elif spec["kind"] == "table1":
            name, variant = "table1", spec["group"]
        else:
            continue
        found[name, variant, spec["seed"]] = record.result
    missing = [f"{study.name}/{variant}" for study in STUDIES
               for variant in study.variants
               if (study.name, variant, study.seed) not in found]
    if missing:
        raise ValueError(
            f"store lacks {len(missing)} study variant(s): "
            f"{', '.join(missing)}")
    return {study.name: {variant: found[study.name, variant, study.seed]
                         for variant in study.variants}
            for study in STUDIES}


def render_study(study: "Study", payloads: "Payloads") -> str:
    """One study as Markdown: table, figure, then its claims, each marked
    ✓ or ✗ by its predicate over *payloads*."""
    lines = ["| " + " | ".join(header for header, _ in study.columns) + " |",
             "|" + "---|" * len(study.columns)]
    for variant, payload in payloads.items():
        row = {**payload, "variant": variant, "rows": payloads}
        lines.append("| " + " | ".join(cell(row) for _, cell in study.columns)
                     + " |")
    if study.figure is not None:
        lines += ["", "```", study.figure(payloads), "```"]
    lines.append("")
    lines += [f"- {'✓' if claim.holds(payloads) else '✗'} {claim.text}"
              for claim in study.claims]
    return "\n".join(lines)
