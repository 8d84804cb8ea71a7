"""Each mechanism the paper credits, knocked out, must break its claims.

A claim that still holds with the mechanism it credits switched off does
not test that mechanism.  Each knock-out below switches one mechanism off
with a ``monkeypatch`` (no product change, no flag) and names the claims,
as ``study:index`` in ``STUDIES`` order, that it must break.  Each listed
claim must hold at its study's documented seed (the ``paper`` store) and
fail with its mechanism knocked out.

Under a knock-out a study's variants run lazily, at the study's seed,
with the patch applied only while a variant runs: a claim runs only the
variants it reads, and nothing else in the session sees the patch.  The
lists were measured over every study; claims that no knock-out here
breaks are ROADMAP item 22(b)'s to sort.
"""

import collections.abc
import dataclasses
import typing as _t

import pytest

from repro.analysis import study_payloads
from repro.boinc import client as client_mod
from repro.boinc.client import ClientConfig
from repro.campaign import ResultStore
from repro.core.config import BoincMRConfig
from repro.experiments import STUDIES, Study


def _forcing(cls, **fields):
    """*cls*'s ``__init__``, with *fields* forced whatever the caller
    passes."""
    init = cls.__init__

    def forced(self, *args, **kwargs):
        init(self, *args, **{**kwargs, **fields})
    return forced


def no_backoff(mp):
    """Exponential backoff (§IV.B): every deferral is 1 s."""
    mp.setattr(client_mod, "backoff_delay",
               lambda rng, lo, hi, n, jitter: 1.0)


def report_immediately(mp):
    """Report at the next scheduler RPC (§IV.B): every client reports a
    finished task at once."""
    mp.setattr(ClientConfig, "__init__",
               _forcing(ClientConfig, report_immediately=True))


def no_compute_jitter(mp):
    """Per-task compute-time spread: every task takes its nominal time."""
    mp.setattr(client_mod, "COMPUTE_JITTER", 0.0)


def no_peer_fetch(mp):
    """Inter-client transfer (§IV.C): reducers fetch every map output from
    the server, which holds an uploaded copy."""
    mp.setattr(BoincMRConfig, "__init__",
               _forcing(BoincMRConfig, reduce_from_peers=False,
                        upload_map_outputs=True))


@dataclasses.dataclass(frozen=True)
class Knockout:
    patch: _t.Callable[[pytest.MonkeyPatch], None]
    #: The claims it must break.
    breaks: tuple[str, ...]


KNOCKOUTS = {
    "no_backoff": Knockout(no_backoff, (
        "table1:2", "fig4:0", "fig4:1", "delays:0", "delays:1",
        "ablations:0", "ablations:2", "adaptive:1", "node_scaling:0")),
    "report_immediately": Knockout(report_immediately, (
        "fig4:0", "fig4:1", "delays:0", "ablations:0", "ablations:2")),
    "no_compute_jitter": Knockout(no_compute_jitter, (
        "fig4:0", "apps:0", "adaptive:1")),
    "no_peer_fetch": Knockout(no_peer_fetch, (
        "nat:0", "nat:1", "nat:3", "planetlab:1", "planetlab:2",
        "supernode:0")),
}

CLAIMS = {f"{study.name}:{n}": (study, claim)
          for study in STUDIES for n, claim in enumerate(study.claims)}


class KnockedOut(collections.abc.Mapping):
    """A study's ``{variant: payload}`` with one mechanism knocked out,
    each variant run on its first read."""

    def __init__(self, study: Study, knockout: Knockout) -> None:
        self.study, self.knockout = study, knockout
        self._runs: dict[str, dict] = {}

    def __getitem__(self, variant):
        if variant not in self._runs:
            run = self.study.variants[variant]
            with pytest.MonkeyPatch.context() as mp:
                self.knockout.patch(mp)
                self._runs[variant] = run(seed=self.study.seed)
        return self._runs[variant]

    def __iter__(self):
        return iter(self.study.variants)

    def __len__(self):
        return len(self.study.variants)


@pytest.fixture(scope="module")
def knocked():
    """``knocked(knockout, study)``: the study's lazy payloads under the
    knock-out, shared by every claim of the module that reads them."""
    runs: dict[tuple[str, str], KnockedOut] = {}

    def knocked(name: str, study: Study) -> KnockedOut:
        key = (name, study.name)
        if key not in runs:
            runs[key] = KnockedOut(study, KNOCKOUTS[name])
        return runs[key]
    return knocked


@pytest.fixture(scope="module")
def baseline(paper_store):
    return study_payloads(ResultStore(paper_store).load().values())


@pytest.mark.parametrize("name,key", [
    (name, key) for name, knockout in KNOCKOUTS.items()
    for key in knockout.breaks], ids=lambda v: v)
def test_a_claim_fails_without_the_mechanism_it_credits(name, key, knocked,
                                                        baseline):
    study, claim = CLAIMS[key]
    assert claim.holds(baseline[study.name]), claim.text
    assert not claim.holds(knocked(name, study)), (
        f"claim {key} survives {name}: {claim.text}")
