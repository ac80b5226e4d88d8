import numpy as np
import pytest

from truncbound import DiscreteModel, TruncationWorkspace, enumerate_space
from truncbound.ctmc import embed
from truncbound.errors import EnumerationLimitError, ModelError
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.statespace import explicit_k_predicate, repartition

from conftest import (
    assert_partitions_identical,
    host_model,
    model_forms,
    random_stochastic,
)


def walk_row(x):
    """Row of the simple reflected walk on the nonnegative integers."""
    if x == 0:
        return [(0, 0.5), (1, 0.5)]
    return [(x - 1, 0.5), (x, 0.1), (x + 1, 0.4)]


def lattice_walk(n_max=None):
    return DiscreteModel(name="walk", seed=0, row=walk_row, norm=lambda s: float(s))


class TestEnumerate:
    def test_lattice_counting(self):
        space, part = enumerate_space(
            lattice_walk(), lambda s: s <= 10, lambda s: s <= 2
        )
        assert space.k_size == 3
        assert space.a_size - space.k_size == 8
        assert part.P11.shape == (3, 3)
        assert part.P22.shape == (8, 8)

    def test_simplex_closed_form_count(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        space, _ = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 200, lambda s: s == (0, 0)
        )
        assert space.a_size == 201 * 202 // 2  # 20301

    def test_gm1_reference_partition_sizes(self):
        gm1 = GM1Model()
        space, _ = enumerate_space(
            gm1, lambda s: s <= 10000, lambda s: s <= 201
        )
        assert space.k_size == 202
        assert space.a_size - space.k_size == 9799

    def test_round_trip_indexing(self, rng):
        P = random_stochastic(rng, 12)
        space, _ = enumerate_space(host_model(P), lambda s: True, lambda s: s < 4)
        for i in range(space.a_size):
            assert space.index_of(space.states[i]) == i

    def test_k_block_leads_and_is_sorted(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        k_states = [(3, 1), (0, 2), (1, 1)]
        space, _ = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 15, explicit_k_predicate(k_states)
        )
        assert space.states[:3] == ((0, 2), (1, 1), (3, 1))
        assert list(space.states[3:]) == sorted(space.states[3:])

    def test_boundary_rows_gm1(self):
        gm1 = GM1Model()
        space, part = enumerate_space(gm1, lambda s: s <= 500, lambda s: s == 0)
        # only the top state can leave A, in one step to 501
        ext = [(i, e) for i, e in enumerate(part.boundary) if e]
        assert len(ext) == 1
        i, entries = ext[0]
        assert space.states[i] == 500
        assert entries == ((501, pytest.approx(gm1.beta(0))),)

    def test_boundary_rows_toggle_level(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        space, part = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 30, lambda s: s == (0, 0)
        )
        for i, entries in enumerate(part.boundary):
            s = space.states[i]
            if s[0] + s[1] == 30:
                assert len(entries) == 2  # both synthesis channels leave A
            else:
                assert entries == ()

    def test_partition_row_sums_with_boundary(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        space, part = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 12, lambda s: s == (0, 0)
        )
        full = part.full_matrix().toarray().sum(axis=1)
        for i in range(space.a_size):
            full[i] += sum(p for _, p in part.boundary[i])
        assert np.abs(full - 1.0).max() < 1e-12

    def test_invalid_row_rejected(self):
        for bad in model_forms(lambda x: [(0, 0.6), (1, 0.5)]):
            with pytest.raises(ModelError, match="row of state 0 sums to 1.1, not 1"):
                enumerate_space(bad, lambda s: True, lambda s: s == 0)

    @pytest.mark.parametrize("form", [0, 1], ids=["per-state", "batch"])
    @pytest.mark.parametrize("mass, shown", [(float("nan"), "nan"), (-0.5, "-0.5")])
    def test_invalid_mass_rejected(self, form, mass, shown):
        # the bad row is the second of the frontier {3, 4}
        def row(x):
            if x == 4:
                return [(x + 1, mass), (0, 1.0 - mass)]
            return [(x + 1, 0.25), (x + 2, 0.25), (0, 0.5)]

        model = model_forms(row)[form]
        with pytest.raises(ModelError,
                           match=f"invalid transition probability {shown} from state 4$"):
            enumerate_space(model, lambda s: s <= 10, lambda s: s == 0)

    def test_enumeration_cap(self):
        for walk in model_forms(walk_row):
            with pytest.raises(EnumerationLimitError, match="cap of 100 states exceeded"):
                enumerate_space(walk, lambda s: s <= 10_000, lambda s: s == 0, cap=100)

    def test_empty_k_rejected(self):
        with pytest.raises(ModelError, match="K is empty"):
            enumerate_space(lattice_walk(), lambda s: s <= 10, lambda s: s > 99)


class TestRepartition:
    @pytest.mark.parametrize("case", ["gm1", "toggle"])
    def test_derived_partition_equals_fresh_enumeration(self, case):
        if case == "gm1":
            model, a_pred = GM1Model(), lambda s: s <= 2000
            k_first, k_second = (lambda s: s <= 201), (lambda s: s <= 4)
        else:
            model, a_pred = embed(ToggleSwitchModel(20.0, 1.0)), lambda s: s[0] + s[1] <= 30
            k_first = lambda s: s[0] + s[1] <= 6
            k_second = explicit_k_predicate([(5, 0), (0, 0), (2, 3), (0, 7)])
        _, first = enumerate_space(model, a_pred, k_first)
        _, derived = repartition(first, k_second)
        _, fresh = enumerate_space(model, a_pred, k_second)
        assert_partitions_identical(derived, fresh)

    def test_empty_k_rejected(self):
        _, part = enumerate_space(lattice_walk(), lambda s: s <= 10, lambda s: s == 0)
        with pytest.raises(ModelError, match="K is empty"):
            repartition(part, lambda s: s > 99)


class TestBlockExtremes:
    def test_k_equals_a_gives_empty_middle(self, rng):
        P = random_stochastic(rng, 6)
        space, part = enumerate_space(host_model(P), lambda s: s < 4, lambda s: s < 4)
        assert part.a_size - part.k_size == 0
        G = TruncationWorkspace(part).censored().G
        assert np.abs(G - P[:4, :4]).max() == 0.0
