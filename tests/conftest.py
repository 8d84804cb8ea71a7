"""Session-wide fixtures."""

import pytest

from repro.campaign import run_campaign
from repro.experiments import paper_grid


@pytest.fixture
def pin(monkeypatch):
    """``pin(module, NAME=value, ...)``: the module's constants at those
    values for this test only."""
    def pin(module, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(module, name, value)
    return pin


@pytest.fixture(scope="session")
def paper_store(tmp_path_factory):
    """Path of a store holding the whole ``paper`` grid, run inline once
    (about eight seconds of simulation): what the claim tests, the
    EXPERIMENTS.md freshness gate and the aggregation tests all read."""
    path = tmp_path_factory.mktemp("paper") / "paper.jsonl"
    report = run_campaign(paper_grid(), str(path), workers=0)
    assert report.ok, report.render()
    return path
