"""Every claim EXPERIMENTS.md makes, checked against the ``paper`` store.

One parametrized test per :class:`repro.experiments.Claim`; a failure
names the published sentence that moved.
"""

import dataclasses

import pytest

from repro import experiments
from repro.analysis import render_study, study_payloads
from repro.campaign import ResultStore, execute_cell
from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import STUDIES, Claim, Study, run_scenario
from repro.experiments.study import col


@pytest.fixture(scope="session")
def payloads(paper_store):
    return study_payloads(ResultStore(paper_store).load().values())


def check(study: Study, claim: Claim, payloads) -> None:
    assert claim.holds(payloads[study.name]), (
        f"EXPERIMENTS.md claim of study {study.name!r} no longer holds: "
        f"{claim.text}")


@pytest.mark.parametrize(
    "study,claim",
    [(study, claim) for study in STUDIES for claim in study.claims],
    ids=[f"{study.name}:{n}" for study in STUDIES
         for n in range(len(study.claims))])
def test_claim(study, claim, payloads):
    check(study, claim, payloads)


def test_every_variant_completed(paper_store):
    """A variant that cannot finish its job raises, and so does one that
    leaves a deployment its audit flags: either way its cell fails.  The
    verdict itself stays out of the payload."""
    records = ResultStore(paper_store).load().values()
    assert len(records) == len(experiments.paper_grid()) == 50
    assert [r.key for r in records if not r.ok] == []
    assert all(r.result["total"] > 0 for r in records)
    assert not any("audit_ok" in r.result for r in records)


def test_a_variant_that_leaks_a_flow_fails_its_cell(monkeypatch):
    def leaky(seed):
        result = run_scenario(
            CloudSpec(seed=seed, n_nodes=4),
            MapReduceJobSpec("leak", n_maps=2, n_reducers=1, input_size=1e7))
        a, b = result.cloud.clients[:2]
        result.cloud.net.transfer(a.host, b.host, 1e15)  # nobody waits on it
        return {"total": result.total}

    study = dataclasses.replace(STUDIES[1], variants={"run": leaky})
    monkeypatch.setattr(experiments, "STUDIES",
                        tuple(study if s is STUDIES[1] else s for s in STUDIES))
    spec = {"kind": "study", "seed": 1, "group": "fig4/run",
            "params": {"study": "fig4", "variant": "run"}}
    with pytest.raises(RuntimeError, match=r"cell fig4/run failed its audit"
                       r"(.|\n)*FAIL \[flow\] node000->node001"):
        execute_cell(spec)


#: (label, map mean, reduce mean, total) of Table I at seed 1, recorded
#: at the commit before ``Scenario`` was folded into ``CloudSpec``.
PINNED_TABLE1_SEED1 = [
        ('boinc_10n_10m_2r', 429.36717511806876, 549.3282309196562, 1151.6746034550229),
        ('boinc_10n_20m_2r', 218.82037059602658, 511.2505496306419, 1212.069456084863),
        ('boinc_15n_15m_3r', 410.43606469435633, 343.0500560572705, 1467.9076304284274),
        ('boinc_15n_30m_3r', 325.30008084294093, 321.70364440615623, 1022.5886222502946),
        ('boinc_20n_20m_5r', 372.3684233104223, 360.36268824965896, 1132.4536058965653),
        ('boinc_20n_40m_5r', 313.76096429214306, 361.9022224160235, 1148.513092201701),
        ('boinc_30n_30m_7r', 478.091678538838, 256.5636544719731, 1500.781425246866),
        ('boinc_30n_40m_5r', 398.3980618337847, 323.20803188421496, 1563.0771531851433),
        ('boinc-mr_20n_20m_5r', 325.8247942514067, 244.28229021304196, 928.7905568172083),
]


def test_table1_values_equal_the_pinned_run(payloads):
    # from_spec must build exactly what build_cloud built: same
    # nodeNNN names (hence rng streams), flops and call order.
    assert [(label, row["map_mean"], row["reduce_mean"], row["total"])
            for label, row in payloads["table1"].items()] \
        == PINNED_TABLE1_SEED1


class TestAClaimThatMoves:
    """What a bent reproduction looks like, in tier-1 and in the document."""

    @pytest.fixture
    def broken(self, monkeypatch):
        study = STUDIES[1]
        claim = dataclasses.replace(study.claims[0], holds=lambda p: False)
        patched = dataclasses.replace(study,
                                      claims=(claim, *study.claims[1:]))
        monkeypatch.setattr(
            experiments, "STUDIES",
            tuple(patched if s is study else s for s in STUDIES))
        return patched, claim

    def test_the_test_fails_with_the_sentence(self, broken, payloads):
        study, claim = broken
        with pytest.raises(AssertionError, match="study 'fig4' no longer "
                           "holds: One node's report is delayed far beyond"):
            check(study, claim, payloads)

    def test_the_document_renders_a_cross(self, broken, paper_store, capsys):
        from .test_docs import REPO, load_script

        gen = load_script(REPO / "docs" / "gen_experiments.py")
        assert gen.main(["--check", "--store", str(paper_store)]) == 1
        out = capsys.readouterr().out
        assert "+- ✗ One node's report is delayed" in out


def test_render_study_from_hand_built_payloads():
    study = Study(
        name="toy", seed=0, variants={"a": None, "b": None},
        columns=(col("variant", "{variant}"), col("total", "{total:.0f} s"),
                 ("vs a", lambda r: f"x{r['total'] / r['rows']['a']['total']:.1f}")),
        claims=(Claim("b takes longer than a.",
                      lambda p: p["b"]["total"] > p["a"]["total"]),
                Claim("b is free.", lambda p: p["b"]["total"] == 0)))
    assert render_study(study, {"a": {"total": 10.0}, "b": {"total": 25.0}}) \
        == ("| variant | total | vs a |\n|---|---|---|\n"
            "| a | 10 s | x1.0 |\n| b | 25 s | x2.5 |\n\n"
            "- ✓ b takes longer than a.\n- ✗ b is free.")


def test_a_store_missing_a_variant_is_refused(paper_store):
    records = [r for r in ResultStore(paper_store).load().values()
               if r.spec["group"] != "churn/stable"]
    with pytest.raises(ValueError, match=r"lacks 1 study variant\(s\): "
                                         r"churn/stable"):
        study_payloads(records)
