import warnings
import weakref

import pytest

from truncbound import lyapunov, pipeline
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.pipeline import run_pipeline

MODELS = [GM1Model, lambda: ToggleSwitchModel(20.0, 1.0), lambda: ToggleSwitchModel(90.0, 1.0)]
MODEL_IDS = ["gm1", "toggle20", "toggle90"]


def without_timings(report) -> dict:
    doc = report.to_dict()
    doc.pop("timings")
    return doc


class TestSharedEnumeration:
    @pytest.mark.parametrize("envelopes", [["r", "e"], ["e", "r"]], ids=["r-first", "e-first"])
    def test_envelopes_share_one_enumeration_and_match_single_runs(self, envelopes,
                                                                   monkeypatch):
        calls = []
        enumerate_space = pipeline.enumerate_space

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_space(*args, **kwargs)

        gm1 = GM1Model()
        truncation = {"kind": "range", "max": 2000}
        monkeypatch.setattr(pipeline, "enumerate_space", counted)
        both = run_pipeline(gm1, truncation, envelopes=envelopes)
        assert len(calls) == 1
        # r and e have different return sets (|K| = 202 and 5)
        assert set(both.timings) == {"enumerate", "partition[r]", "partition[e]",
                                     "distribution", "total"}
        for env in envelopes:
            single = run_pipeline(gm1, truncation, envelopes=[env])
            assert without_timings(both.report(env)) == without_timings(single.report(env))
            if env == envelopes[0]:   # the distribution is the first envelope's
                assert both.distribution_mass.tobytes() == single.distribution_mass.tobytes()
                assert both.distribution_states == single.distribution_states


def tables_built(monkeypatch) -> list:
    """Weak references to every drift table built from now on."""
    built = []
    init = lyapunov._DriftTable.__init__

    def recorded(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(lyapunov._DriftTable, "__init__", recorded)
    return built


def certify(model, envelopes, staged: bool):
    """Each envelope's (return set, reports repr) and the warning texts, from
    one certificate stage or from a private drift table per check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if staged:
            certs = {env: cert for env, (cert, _) in
                     pipeline.verified_certificates(model, envelopes, None).items()}
        else:
            certs = {env: lyapunov.verify_certificate(model, model.certificate_for_envelope(env))
                     for env in envelopes}
    return ({env: (c.return_set, repr(c.reports)) for env, c in certs.items()},
            [str(w.message) for w in caught])


class TestSharedDriftTable:
    @pytest.mark.parametrize("make", MODELS, ids=MODEL_IDS)
    def test_one_table_per_certificate_stage_released_on_return(self, make, monkeypatch):
        built = tables_built(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            pipeline.verified_certificates(make(), ["r", "e"], None)
        assert len(built) == 1
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize("envelopes", [["r", "e"], ["e", "r"]])
    @pytest.mark.parametrize("make", MODELS, ids=MODEL_IDS)
    def test_shared_table_checks_what_private_tables_check(self, make, envelopes):
        # separate models, so the unshared run constructs its own return sets;
        # gm1 with "e" first grows the stage's table from the n2 to the n1 ball
        assert certify(make(), envelopes, staged=True) \
            == certify(make(), envelopes, staged=False)
