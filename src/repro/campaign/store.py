"""Resumable on-disk campaign result store (append-only JSONL).

One line per finished cell attempt, keyed by the content hash of the
cell spec (:func:`repro.campaign.cell_key`).  Append-only writes make
the store crash-safe: a campaign killed mid-run leaves at most one
truncated trailing line, which :meth:`ResultStore.load` skips, and the
next ``--resume`` run re-executes only the cells without an ``ok``
record.  Records for the same key supersede each other last-wins, so a
re-run of a previously failed cell simply appends its new outcome.
A campaign's store has one writer, its coordinator: workers report
outcomes over the control socket and keep nothing of their own.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t

from .grid import canonical_json


@dataclasses.dataclass(frozen=True, slots=True)
class CellRecord:
    """One stored cell outcome."""

    key: str
    spec: dict[str, _t.Any]
    status: str                      # "ok" | "failed"
    result: dict[str, _t.Any] | None
    #: Nondeterministic bookkeeping (wall seconds, attempts, worker id,
    #: error text).  Kept apart from ``result`` so the byte-identity
    #: guarantee covers exactly the deterministic payload.
    meta: dict[str, _t.Any]

    @property
    def ok(self) -> bool:
        """True when the cell completed (its payload is trustworthy)."""
        return self.status == "ok"

    def to_json(self) -> str:
        """Serialise to one canonical-JSON store line."""
        return canonical_json({
            "key": self.key, "spec": self.spec, "status": self.status,
            "result": self.result, "meta": self.meta,
        })

    @classmethod
    def from_json(cls, line: str) -> "CellRecord":
        """Parse one store line back into a record."""
        data = json.loads(line)
        return cls(key=data["key"], spec=data["spec"], status=data["status"],
                   result=data.get("result"), meta=data.get("meta", {}))


class ResultStore:
    """Append-only JSONL store of :class:`CellRecord` lines."""

    def __init__(self, path: str | pathlib.Path) -> None:
        """Bind to ``path``; the file is created on first append."""
        self.path = pathlib.Path(path)

    def append(self, record: CellRecord) -> None:
        """Durably append one record (open-write-close per record, so a
        crash can only ever truncate the final line)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
            fh.flush()

    def records(self) -> list[CellRecord]:
        """Every record in file order (duplicates kept).

        Tolerates a truncated/corrupt trailing line (the crash case — a
        coordinator killed mid-append); corruption anywhere else raises,
        because silently dropping completed results would quietly re-run
        work.
        """
        if not self.path.exists():
            return []
        records: list[CellRecord] = []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(CellRecord.from_json(line))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if i == len(lines) - 1:
                    break  # interrupted final write; resume re-runs the cell
                raise ValueError(
                    f"corrupt campaign store {self.path} at line {i + 1}: "
                    f"{exc}") from exc
        return records

    def load(self) -> dict[str, CellRecord]:
        """All records by key, last occurrence winning.

        Same tolerance/corruption contract as :meth:`records`.
        """
        return {record.key: record for record in self.records()}

    def completed_keys(self) -> set[str]:
        """Keys with a successful result (the resume skip-set)."""
        return {k for k, r in self.load().items() if r.ok}

    def clear(self) -> None:
        """Start the store over (a fresh, non-resumed campaign)."""
        if self.path.exists():
            self.path.unlink()


def diff_stores(left: str | pathlib.Path,
                right: str | pathlib.Path) -> list[str]:
    """Compare the successful per-key payloads of two campaign stores.

    Returns human-readable mismatch lines (empty list = the stores are
    result-equivalent): keys completed in one store but not the other,
    and keys whose deterministic ``result`` payloads differ.  ``meta``
    (wall time, attempts, worker id) is ignored by design — it is the
    nondeterministic half of a record — so a distributed run compares
    equal to a sequential one whenever the science matches.
    """
    a, b = ({k: r for k, r in ResultStore(path).load().items() if r.ok}
            for path in (left, right))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"{key}: only completed in {left}")
        elif key not in a:
            lines.append(f"{key}: only completed in {right}")
        elif canonical_json(a[key].result) != canonical_json(b[key].result):
            lines.append(f"{key}: payloads differ")
    return lines
