"""One declaration per paper claim: a study, its variants and its claims.

Every section of EXPERIMENTS.md is one :class:`Study`, declared beside
the experiment it reports.  The declaration is the only home of what the
section says: the ``paper`` campaign grid runs each variant as a
``study`` cell, ``tests/test_paper_claims.py`` checks each claim against
the resulting store, and :mod:`repro.analysis.studies` renders the
section's table and claim list from it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

#: One variant's result: a flat JSON-able dict that always has ``total``.
Payload = _t.Mapping[str, _t.Any]
#: A study's results, variant name -> payload.
Payloads = _t.Mapping[str, Payload]


@dataclasses.dataclass(frozen=True, slots=True)
class Claim:
    """One published (or quantified) statement and how to check it."""

    #: The sentence EXPERIMENTS.md prints under the study's table.
    text: str
    #: The predicate over ``{variant: payload}``.
    holds: _t.Callable[[Payloads], bool]


#: A table column: its header, and the cell text for one row.  The row is
#: the variant's payload plus ``variant`` (its name) and ``rows`` (every
#: variant's payload, for a ratio against a baseline), so the common
#: column is a bound ``"{total:.0f} s".format_map``.
Column = tuple[str, _t.Callable[[_t.Mapping[str, _t.Any]], str]]


@dataclasses.dataclass(frozen=True, slots=True)
class Study:
    """One EXPERIMENTS.md section: what to run, what to print, what holds."""

    name: str
    #: The seed the documented numbers use.
    seed: int
    #: Variant name -> a function of ``seed=`` that runs one simulation
    #: and returns its payload.
    variants: _t.Mapping[str, _t.Callable[..., dict[str, _t.Any]]]
    columns: tuple[Column, ...]
    claims: tuple[Claim, ...]
    #: Text rendered under the table from the payloads (Fig. 4's Gantt).
    figure: _t.Callable[[Payloads], str] | None = None


def col(header: str, template: str) -> Column:
    """A column whose cells are *template* formatted with the row."""
    return (header, template.format_map)


#: The first column of most tables.
VARIANT = col("variant", "{variant}")
