"""Session-wide fixtures."""

import pytest

from repro.campaign import run_campaign
from repro.experiments import paper_grid


@pytest.fixture(scope="session")
def paper_store(tmp_path_factory):
    """Path of a store holding the whole ``paper`` grid, run inline once
    (about eight seconds of simulation): what the claim tests, the
    EXPERIMENTS.md freshness gate and the aggregation tests all read."""
    path = tmp_path_factory.mktemp("paper") / "paper.jsonl"
    report = run_campaign(paper_grid(), str(path), workers=0)
    assert report.ok, report.render()
    return path
