"""A model written the documented way runs through ``run_pipeline``:
independent immigration-death species as a plain ``JumpModel`` with drift
data (``immigration_death``), whose equilibrium Poisson(x*)^d is known
exactly, in two dimensions and in three."""

import pytest

from truncbound.pipeline import run_pipeline

from immigration_death import immigration_death, l1_to_equilibrium


def run(lam: float, level: int, d: int = 2):
    with pytest.warns(UserWarning, match="does not dominate the exit rate"):
        return run_pipeline(immigration_death(lam, d=d), {"kind": "simplex", "level": level},
                            envelopes=["r", "e"])


@pytest.mark.parametrize("level", [100, 200])
def test_jump_model_runs_through_the_pipeline_and_contains_the_truth(level):
    result = run(20.0, level)
    rep_r, rep_e = result.reports["r"], result.reports["e"]
    assert len(result.certificates["r"].return_set) == 188
    assert result.certificates["e"].return_set == result.certificates["r"].return_set
    assert rep_r.lower <= 40.0 <= rep_r.upper
    assert abs(rep_r.approx - 40.0) <= rep_r.tv_bound
    assert l1_to_equilibrium(result.distribution, 20.0) <= rep_e.tv_bound


def test_three_species_run_through_the_pipeline_and_contain_the_truth():
    # d = 3, lam = 5: |A| = 12,341 at level 40, |K| = 480; the truth is 3 lam = 15
    result = run(5.0, 40, d=3)
    rep_r, rep_e = result.reports["r"], result.reports["e"]
    assert (rep_r.provenance["a_size"], rep_r.provenance["k_size"]) == (12_341, 480)
    assert result.certificates["e"].return_set == result.certificates["r"].return_set
    assert rep_r.lower <= 15.0 <= rep_r.upper
    assert abs(rep_r.approx - 15.0) <= rep_r.tv_bound
    assert l1_to_equilibrium(result.distribution, 5.0) <= rep_e.tv_bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the certified interval "
                   "[119.99999999999991, 119.99999999999994] misses 120 by 4 ulps")
def test_jump_model_interval_contains_the_truth_at_scale():
    rep_r = run(60.0, 360).reports["r"]
    assert rep_r.lower <= 120.0 <= rep_r.upper
