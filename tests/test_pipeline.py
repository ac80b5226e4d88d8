from truncbound import pipeline
from truncbound.models import GM1Model
from truncbound.pipeline import run_pipeline


def without_timings(report) -> dict:
    doc = report.to_dict()
    doc.pop("timings")
    return doc


class TestSharedEnumeration:
    def test_envelopes_share_one_enumeration_and_match_single_runs(self, monkeypatch):
        calls = []
        enumerate_space = pipeline.enumerate_space

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_space(*args, **kwargs)

        gm1 = GM1Model()
        truncation = {"kind": "range", "max": 2000}
        monkeypatch.setattr(pipeline, "enumerate_space", counted)
        both = run_pipeline(gm1, truncation, envelopes=["r", "e"])
        assert len(calls) == 1
        # r and e have different return sets (|K| = 202 and 5)
        assert set(both.timings) == {"enumerate", "partition[r]", "partition[e]",
                                     "distribution", "total"}
        for env in ("r", "e"):
            single = run_pipeline(gm1, truncation, envelopes=[env])
            assert without_timings(both.report(env)) == without_timings(single.report(env))
            if env == "r":
                assert both.distribution_mass.tobytes() == single.distribution_mass.tobytes()
