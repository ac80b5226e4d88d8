import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import DiscreteModel, TruncationWorkspace, enumerate_space, statespace
from truncbound.ctmc import embed
from truncbound.errors import EnumerationLimitError, ModelError
from truncbound.lyapunov import verify_drift
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.statespace import cut, explicit_k_predicate, explore, repartition

from conftest import (
    assert_partitions_identical,
    batch_model,
    boundary_rows,
    host_model,
    random_stochastic,
)


def walk_row(x):
    """Row of the simple reflected walk on the nonnegative integers."""
    if x == 0:
        return [(0, 0.5), (1, 0.5)]
    return [(x - 1, 0.5), (x, 0.1), (x + 1, 0.4)]


def lattice_walk():
    return batch_model(walk_row, name="walk", norm=lambda s: float(s))


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
            assert space.states.index(space.states[i]) == i

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
        ext = [(i, e) for i, e in enumerate(boundary_rows(part)) if e]
        assert len(ext) == 1
        i, entries = ext[0]
        assert space.states[i] == 500
        assert entries == ((501, pytest.approx(float(gm1.beta_masses[0]))),)

    def test_boundary_rows_toggle_level(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        space, part = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 30, lambda s: s == (0, 0)
        )
        for i, entries in enumerate(boundary_rows(part)):
            s = space.states[i]
            if s[0] + s[1] == 30:
                assert len(entries) == 2  # both synthesis channels leave A
            else:
                assert entries == ()

    def test_partition_row_sums_with_boundary(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        _, part = enumerate_space(
            embed(ts), lambda s: s[0] + s[1] <= 12, lambda s: s == (0, 0)
        )
        full = part.full_matrix().toarray().sum(axis=1)
        for i, entries in enumerate(boundary_rows(part)):
            full[i] += sum(p for _, p in entries)
        assert np.abs(full - 1.0).max() < 1e-12

    def test_invalid_row_rejected(self):
        bad = batch_model(lambda x: [(0, 0.6), (1, 0.5)])
        with pytest.raises(ModelError, match="row of state 0 sums to 1.1, not 1"):
            enumerate_space(bad, lambda s: True, lambda s: s == 0)

    @pytest.mark.parametrize("form", ["host", "batch"])
    @pytest.mark.parametrize("mass, shown", [(float("nan"), "nan"), (-0.5, "-0.5")])
    def test_invalid_mass_rejected(self, form, mass, shown):
        # the bad row is the second of the frontier {3, 4}; the host model's
        # hook gives each row in column order with array targets, the batch
        # model's every row's first entry, then every second, ... as a list
        def row(x):
            if x == 4:
                return [(x + 1, mass), (0, 1.0 - mass)]
            return [(x + 1, 0.25), (x + 2, 0.25), (0, 0.5)]

        P = np.zeros((13, 13))
        for x in range(11):
            for y, q in row(x):
                P[x, y] = q
        model = host_model(P) if form == "host" else batch_model(row)
        with pytest.raises(ModelError,
                           match=f"invalid transition probability {shown} from state 4$"):
            enumerate_space(model, lambda s: s <= 10, lambda s: s == 0)

    @pytest.mark.parametrize("pos", [[0, 1], [0, -1], [0]], ids=["past-end", "negative", "short"])
    def test_hook_entries_must_match_its_states(self, pos):
        # two entries from the seed, the frontier's only state
        model = DiscreteModel(name="bad", seed=0, rows=lambda states: (pos, [1, 2], [0.5, 0.5]))
        with pytest.raises(ModelError, match="do not match its states"):
            enumerate_space(model, lambda s: s <= 10, lambda s: s == 0)
        with pytest.raises(ModelError, match="do not match its states"):   # and drift checks
            verify_drift(model, lambda s: 1.0, lambda s: 0.0, (), [0])

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(statespace, "DEFAULT_ENUMERATION_CAP", 100)
        with pytest.raises(EnumerationLimitError, match="cap of 100 states exceeded"):
            enumerate_space(lattice_walk(), lambda s: s <= 10_000, lambda s: s == 0)

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


def nested_case(seed: int, zero_mass_link: bool):
    """A random chain on 0..n-1 and a smaller predicate: ``s < a`` plus the
    state ``n - 1``, which the states below ``a`` reach only through a
    zero-mass entry when ``zero_mass_link`` is set, and otherwise not at
    all.  Every row lists its entries in its own shuffled order, some rows
    repeat a target (one mass split in two halves), and state ``a - 1`` has
    at least 3 exits from the smaller set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(7, 13))
    a = int(rng.integers(2, n - 3))
    P = random_stochastic(rng, n, zeros=0.3)
    P[:a, n - 1] = 0.0
    P[a - 1, a:n - 1] += 0.1
    P /= P.sum(axis=1)[:, None]
    entries = []
    for x in range(n):
        row = [(int(j), float(P[x, j])) for j in rng.permutation(n) if P[x, j] != 0.0]
        if rng.random() < 0.5:              # a repeated target
            j, q = row.pop(0)
            row[len(row) // 2:len(row) // 2] = [(j, q / 2)]
            row.append((j, q / 2))
        if zero_mass_link and x == a - 1:
            row.insert(1, (n - 1, 0.0))
        entries.append(row)
    return entries, a, n, lambda s: s < a or s == n - 1


class TestCut:
    @given(seed=st.integers(0, 10_000), zero_mass_link=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_level_cut_from_larger_exploration_equals_fresh_enumeration(
            self, seed, zero_mass_link):
        entries, a, n, smaller = nested_case(seed, zero_mass_link)
        exits = [y for y, _ in entries[a - 1] if not smaller(y)]
        assert len(exits) >= 3 and len(set(exits)) >= 3
        k_pred = lambda s: s == 0
        model = batch_model(lambda x: entries[x])
        exploration = explore(model, lambda s: True)
        _, derived = cut(exploration, smaller, k_pred)
        _, fresh = enumerate_space(model, smaller, k_pred)
        assert_partitions_identical(derived, fresh)
        # and an oracle from the rows: A, its masses and its exits in row order
        reached, stack = {0}, [0]
        while stack:
            for y, _ in entries[stack.pop()]:
                if smaller(y) and y not in reached:
                    reached.add(y)
                    stack.append(y)
        assert set(derived.space.states) == reached
        assert (n - 1 in reached) == zero_mass_link
        index = {x: i for i, x in enumerate(derived.space.states)}
        P_A = np.zeros((len(index), len(index)))
        for x, i in index.items():
            for y, q in entries[x]:
                if y in index:
                    P_A[i, index[y]] += q
        assert np.array_equal(derived.full_matrix().toarray(), P_A)
        assert boundary_rows(derived) == tuple(
            tuple((y, q) for y, q in entries[x] if y not in index and q != 0.0)
            for x in derived.space.states)
        # and a second cut from the same exploration, over its whole set
        _, whole = cut(exploration, lambda s: True, k_pred)
        assert_partitions_identical(whole, enumerate_space(model, lambda s: True, k_pred)[1])

    def test_levels_cut_from_largest_toggle_truncation(self):
        model = embed(ToggleSwitchModel(20.0, 1.0))
        k_pred = lambda s: s[0] + s[1] <= 6
        exploration = explore(model, lambda s: s[0] + s[1] <= 60)
        for level in (20, 40, 60):
            a_pred = lambda s, level=level: s[0] + s[1] <= level
            _, derived = cut(exploration, a_pred, k_pred)
            _, fresh = enumerate_space(model, a_pred, k_pred)
            assert_partitions_identical(derived, fresh)

    def test_truncation_outside_the_exploration_rejected(self):
        exploration = explore(lattice_walk(), lambda s: s <= 10)
        with pytest.raises(ModelError, match="not nested in the explored one"):
            cut(exploration, lambda s: s <= 20, lambda s: s == 0)
        with pytest.raises(ModelError, match="seed state does not satisfy"):
            cut(exploration, lambda s: 1 <= s <= 5, lambda s: s == 1)


def pair_chain(seed: int, scale: int, shift: int):
    """A random chain on the pair states ``shift + scale * (a, b)``, a and b
    in -4..4 (negative coordinates when ``shift`` allows): each row goes to
    1 to 4 distinct neighbours or itself, in a random order."""
    rng = np.random.default_rng(seed)
    moves = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    rows = {}
    for a in range(-4, 5):
        for b in range(-4, 5):
            picks = rng.permutation(5)[: int(rng.integers(1, 5))]
            p = rng.random(len(picks)) + 0.05
            rows[(a, b)] = [((min(4, max(-4, a + moves[i][0])), min(4, max(-4, b + moves[i][1]))),
                             float(q)) for i, q in zip(picks, p / p.sum())]
    to_state = lambda c: (shift + scale * c[0], shift + scale * c[1])
    index = {to_state(c): c for c in rows}
    merged = {}
    for c, row in rows.items():              # a target reached twice adds its masses
        out = {}
        for y, q in row:
            out[to_state(y)] = out.get(to_state(y), 0.0) + q
        merged[to_state(c)] = list(out.items())
    return merged, index


class TestKeyOrder:
    @given(seed=st.integers(0, 10_000), radius=st.integers(1, 3),
           scale=st.sampled_from([1, 7, 2**26]), shift=st.sampled_from([0, -5, 2**29]))
    @settings(max_examples=40, deadline=None)
    def test_partition_equals_tuple_sorted_reference(self, seed, radius, scale, shift):
        rows, index = pair_chain(seed, scale, shift)
        inside = lambda s: abs(index[s][0]) + abs(index[s][1]) <= radius if s in index else False
        seed_state = (shift, shift)
        k_set = {seed_state, *[s for s in rows if index[s][0] == 1 and inside(s)]}
        model = batch_model(lambda x: rows[x], seed=seed_state)
        space, part = enumerate_space(model, inside, lambda s: s in k_set)
        # reference: reachable set by a per-state search, sorted as Python tuples
        reached, stack = {seed_state}, [seed_state]
        while stack:
            for y, _ in rows[stack.pop()]:
                if inside(y) and y not in reached:
                    reached.add(y)
                    stack.append(y)
        order = sorted(s for s in reached if s in k_set) + \
            sorted(s for s in reached if s not in k_set)
        assert space.states == tuple(order) and space.k_size == len(k_set & reached)
        at = {s: i for i, s in enumerate(order)}
        P = np.zeros((len(order), len(order)))
        for x in order:
            for y, q in rows[x]:
                if y in at:
                    P[at[x], at[y]] += q
        assert np.array_equal(part.full_matrix().toarray(), P)
        assert boundary_rows(part) == tuple(tuple((y, q) for y, q in rows[x] if y not in at)
                                          for x in order)

    @pytest.mark.parametrize("first, ok", [(2**30 - 1, True), (-2**30, True),
                                           (2**30, False), (-2**30 - 1, False)])
    def test_coordinates_past_the_keyed_range_are_rejected(self, first, ok):
        for second in (0, first):
            model = batch_model(lambda x, y=(first, second):
                                [(y, 1.0)] if x == (0, 0) else [((0, 0), 1.0)], seed=(0, 0))
            if ok:
                assert enumerate_space(model, lambda s: True, lambda s: s == (0, 0))[0].a_size == 2
            else:
                with pytest.raises(ModelError, match="outside"):
                    enumerate_space(model, lambda s: True, lambda s: s == (0, 0))


class TestStatesRepr:
    @pytest.mark.parametrize("states", [(0, 1, 2, 10_000), ((0, 0), (3, 1), (1, 2)), (0,),
                                        ((-1, 2),), (-3, 0, 5), ((-1, -2), (4, -7)), ()])
    def test_join_equals_repr(self, states):
        from truncbound.statespace import StateSpace, _coords

        coords = _coords(states) if states else np.zeros((0, 1), dtype=np.int64)
        space = StateSpace(coords=coords, k_size=1)
        assert space.states == states
        assert space.states_repr == repr(states)


def test_rows_hook_weighs_the_set_by_coordinates():
    # a fourth array of a batch row hook holds the states' unit weights
    def weighted(weigh):
        def rows(coords):
            pos, targets, p = zip(*[(i, y, q) for i, x in enumerate(coords[:, 0].tolist())
                                    for y, q in walk_row(x)])
            return pos, targets, p, weigh(coords[:, 0])
        return DiscreteModel(name="weighted", seed=0, rows=rows)

    space, part = enumerate_space(weighted(lambda x: 1.0 + x), lambda s: s <= 10, lambda s: s <= 2)
    assert part.unit.tobytes() == (1.0 + np.array(space.states, dtype=float)).tobytes()
    with pytest.raises(ModelError, match="unit weights"):
        enumerate_space(weighted(lambda x: -x), lambda s: s <= 10, lambda s: s <= 2)


def ball_predicate(fn, radius):
    """``fn`` declaring that it describes the model's norm ball of ``radius``."""
    fn.radius = radius
    return fn


class TestBallStart:
    @given(seed=st.integers(0, 10_000), radius=st.integers(0, 3), ball=st.integers(0, 5),
           scale=st.sampled_from([1, 7]), shift=st.sampled_from([0, -5]))
    @settings(max_examples=40, deadline=None)
    def test_ball_started_cut_equals_seed_started(self, seed, radius, ball, scale, shift):
        # the ball of radius ``ball`` may be smaller or larger than the set,
        # and may hold states the seed cannot reach
        rows, index = pair_chain(seed, scale, shift)
        norm = lambda s: abs(index[s][0]) + abs(index[s][1])
        inside = lambda s: norm(s) <= radius if s in index else False
        model = batch_model(lambda x: rows[x], seed=(shift, shift),
                            states_within=lambda r: [s for s in rows if norm(s) <= r])
        k_pred = lambda s: s == (shift, shift)
        _, started = cut(explore(model, ball_predicate(lambda s: inside(s), ball)),
                         inside, k_pred)
        assert_partitions_identical(started, enumerate_space(model, inside, k_pred)[1])

    @given(seed=st.integers(0, 10_000), zero_mass_link=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_zero_mass_entries_reach_ball_states(self, seed, zero_mass_link):
        # the whole chain is the ball; its state n - 1 is reached only
        # through a zero-mass entry, or not at all
        entries, a, n, smaller = nested_case(seed, zero_mass_link)
        model = batch_model(lambda x: entries[x], states_within=lambda r: range(n))
        k_pred = lambda s: s == 0
        _, started = cut(explore(model, ball_predicate(lambda s: smaller(s), n)),
                         smaller, k_pred)
        assert (n - 1 in started.space.states) == zero_mass_link
        assert_partitions_identical(started, enumerate_space(model, smaller, k_pred)[1])

    @pytest.mark.parametrize("case", ["gm1", "toggle"])
    def test_shipped_truncations_equal_seed_started(self, case):
        from truncbound.pipeline import truncation_predicate

        if case == "gm1":
            model, spec, plain = GM1Model(), {"kind": "range", "max": 2000}, lambda s: s <= 2000
            k_pred = lambda s: s <= 201
        else:
            ts = ToggleSwitchModel(20.0, 1.0)
            model, spec = embed(ts), {"kind": "simplex", "level": 60}
            plain, k_pred = (lambda s: s[0] + s[1] <= 60), (lambda s: s[0] + s[1] <= 6)
        pred = truncation_predicate(model, spec)
        assert pred.radius == 2000 if case == "gm1" else pred.radius == 60
        assert_partitions_identical(enumerate_space(model, pred, k_pred)[1],
                                    enumerate_space(model, plain, k_pred)[1])

    @staticmethod
    def two_classes(bad_row: bool):
        """0 <-> 1 from the seed 0; 2 <-> 3 apart, with state 2's row summing
        to 1.1 when ``bad_row``; the ball of radius 3 holds all four."""
        rows = {0: [(1, 1.0)], 1: [(0, 0.5), (1, 0.5)],
                2: [(3, 0.6), (2, 0.5 if bad_row else 0.4)], 3: [(2, 1.0)]}
        return batch_model(lambda x: rows[x], states_within=lambda r: range(int(r) + 1))

    def test_unreachable_ball_states_are_dropped(self):
        model = self.two_classes(bad_row=False)
        exploration = explore(model, ball_predicate(lambda s: s <= 3, 3))
        assert exploration.coords[:, 0].tolist() == [0, 1]
        space, part = cut(exploration, lambda s: s <= 3, lambda s: s == 0)
        assert space.states == (0, 1)
        assert_partitions_identical(
            part, enumerate_space(model, lambda s: s <= 3, lambda s: s == 0)[1])

    def test_unreachable_ball_rows_are_still_checked(self):
        model = self.two_classes(bad_row=True)
        assert enumerate_space(model, lambda s: s <= 3, lambda s: s == 0)[0].a_size == 2
        with pytest.raises(ModelError, match="row of state 2 sums to 1.1"):
            explore(model, ball_predicate(lambda s: s <= 3, 3))

    def test_cap_counts_the_ball(self, monkeypatch):
        monkeypatch.setattr(statespace, "DEFAULT_ENUMERATION_CAP", 3)
        model = self.two_classes(bad_row=False)
        assert explore(model, lambda s: s <= 3).coords.shape == (2, 1)
        with pytest.raises(EnumerationLimitError, match="cap of 3 states exceeded"):
            explore(model, ball_predicate(lambda s: s <= 3, 3))

    def test_small_ball_still_yields_the_reachable_set(self):
        model = batch_model(walk_row, states_within=lambda r: range(int(r) + 1))
        exploration = explore(model, ball_predicate(lambda s: s <= 10, 3))
        assert sorted(exploration.coords[:11, 0].tolist()) == list(range(11))
        assert_partitions_identical(
            cut(exploration, lambda s: s <= 10, lambda s: s <= 2)[1],
            enumerate_space(model, lambda s: s <= 10, lambda s: s <= 2)[1])

    def test_seed_without_the_smallest_key_gets_id_0(self):
        model = batch_model(walk_row, seed=5, states_within=lambda r: range(int(r) + 1))
        exploration = explore(model, ball_predicate(lambda s: s <= 10, 10))
        assert exploration.coords[0, 0] == 5
        assert_partitions_identical(
            cut(exploration, lambda s: s <= 10, lambda s: s <= 2)[1],
            enumerate_space(model, lambda s: s <= 10, lambda s: s <= 2)[1])


class TestStateWidth:
    def test_row_hook_targets_of_another_width_rejected(self):
        # int states, but the hook gives each target as a pair
        model = DiscreteModel(name="wide", seed=0,
                              rows=lambda states: ([0], np.array([[1, 0]]), [1.0]))
        with pytest.raises(ModelError, match="batch row hook have 2 coordinates, not 1"):
            enumerate_space(model, lambda s: s <= 10, lambda s: s == 0)

    @pytest.mark.parametrize("targets", [[[1], [1, 0]], [[1, [0]]]], ids=["ragged", "nested"])
    def test_row_hook_targets_ragged_or_nested_rejected(self, targets):
        model = DiscreteModel(name="ragged", seed=0,
                              rows=lambda states: ([0, 0], targets, [0.5, 0.5]))
        with pytest.raises(ModelError, match="batch row hook must be ints or int tuples"):
            enumerate_space(model, lambda s: s <= 10, lambda s: s == 0)

    def test_ball_of_another_width_rejected(self):
        model = batch_model(lambda x: [(x, 1.0)], seed=(0, 0), states_within=lambda r: [0, 1])
        with pytest.raises(ModelError, match="states_within have 1 coordinates, not 2"):
            explore(model, ball_predicate(lambda s: True, 1))
