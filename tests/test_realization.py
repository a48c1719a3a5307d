"""Likelihood tempering and greedy subset selection."""

import csv
import dataclasses

import numpy as np
import pytest

from conftest import count_dividend_passes
from oracles import (
    select_subset_reference,
    select_subset_table_reference,
    tempered_predictive_reference,
)
from timereward import (
    Coalition,
    GpModel,
    MissingCoalition,
    TargetOutOfRange,
    conditional_ig_game,
    make_table_game,
    random_superadditive_game,
    select_subset,
    temper,
    tempered_value,
)
from timereward import experiment
from timereward.experiment import FriedmanConfig, SweepRow, run_friedman_experiment, write_rows_csv
from timereward.realization import _tempered_predictor, conditional_point_value
from timereward.synthdata import mnlp
from timereward.valuation import gp_ig, gp_predict, information_gain, se_kernel


def three_party_model(seed=0, points_per_party=5, noise=0.2) -> GpModel:
    rng = np.random.default_rng(seed)
    m = 3 * points_per_party
    X = rng.uniform(size=(m, 2))
    ownership = np.repeat([1, 2, 3], points_per_party)
    return GpModel(X, ownership, np.array([0.6, 0.6]), 1.0, noise)


def tempered_value_oracle(model: GpModel, party: int, kappa: float) -> float:
    """Independent check via the total-information identity.

    Splitting each donor observation into precision shares kappa and
    1 - kappa leaves the joint information unchanged, so the tempered
    value equals IG(everything) - IG(donors at noise / (1 - kappa)).
    """
    others = model.points_of(p for p in range(1, model.n_parties + 1) if p != party)
    total = conditional_ig_game(model).grand_value()
    if kappa >= 1.0:
        return total
    K = se_kernel(model.inputs[others], model.lengthscales, model.signal_variance)
    cond_noise = model.noise_vector()[others] / (1.0 - kappa)
    return total - information_gain(K, cond_noise)


class TestTemperedValue:
    def test_kappa_zero_is_solo_conditional_value(self):
        model = three_party_model()
        game = conditional_ig_game(model)
        for party in (1, 2, 3):
            assert tempered_value(model, party, 0.0) == pytest.approx(
                game.value([party]), abs=1e-10
            )

    def test_kappa_one_is_grand_value(self):
        model = three_party_model()
        grand = conditional_ig_game(model).grand_value()
        for party in (1, 2, 3):
            assert tempered_value(model, party, 1.0) == pytest.approx(grand, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_kappa(self, seed):
        model = three_party_model(seed)
        for party in (1, 2, 3):
            grid = [tempered_value(model, party, k) for k in np.linspace(0, 1, 17)]
            for a, b in zip(grid, grid[1:]):
                assert b >= a - 1e-10

    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9])
    def test_matches_identity_oracle(self, kappa):
        model = three_party_model(2)
        for party in (1, 2, 3):
            assert tempered_value(model, party, kappa) == pytest.approx(
                tempered_value_oracle(model, party, kappa), abs=1e-8
            )

    def test_all_points_ig_is_computed_once_per_model(self, monkeypatch):
        from timereward import realization

        alone = {}  # each party tempered on its own model: one all-points IG each
        for party in (1, 2, 3):
            alone[party] = [tempered_value(three_party_model(1), party, k) for k in (0.0, 0.3, 1.0)]
        model = three_party_model(1)
        everything = []
        gp_ig = realization.gp_ig

        def counted(m, points):
            if len(points) == m.n_points:
                everything.append(points)
            return gp_ig(m, points)

        monkeypatch.setattr(realization, "gp_ig", counted)
        for party in (1, 2, 3):
            assert [tempered_value(model, party, k) for k in (0.0, 0.3, 1.0)] == alone[party]
        assert len(everything) == 1

    def test_conditional_point_value_reuses_the_all_points_ig(self, monkeypatch):
        from timereward import realization

        fresh = three_party_model(2)
        expected = gp_ig(fresh, range(fresh.n_points)) - gp_ig(fresh, fresh.points_of([2, 3]))
        model = three_party_model(2)
        temper(model, 1, 0.5 * tempered_value(model, 1, 1.0))
        everything = []
        inner = realization.gp_ig

        def counted(m, points):
            if len(points) == m.n_points:
                everything.append(points)
            return inner(m, points)

        monkeypatch.setattr(realization, "gp_ig", counted)
        # bit-identical to the IG difference, with no second all-points IG
        assert conditional_point_value(model, model.points_of([1])) == expected
        assert everything == []

    def test_rejects_kappa_outside_unit_interval(self):
        with pytest.raises(ValueError):
            tempered_value(three_party_model(), 1, 1.5)


class TestTemper:
    def test_floor_target_returns_kappa_zero(self):
        model = three_party_model()
        game = conditional_ig_game(model)
        result = temper(model, 1, game.value([1]), tol=1e-6)
        assert result.kappa == pytest.approx(0.0, abs=1e-9)

    def test_ceiling_target_returns_kappa_one(self):
        model = three_party_model()
        grand = conditional_ig_game(model).grand_value()
        result = temper(model, 1, grand, tol=1e-6)
        assert result.kappa == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.8])
    def test_midpoint_targets_hit_within_tolerance(self, fraction):
        model = three_party_model(1)
        game = conditional_ig_game(model)
        for party in (1, 2, 3):
            lo, hi = game.value([party]), game.grand_value()
            target = lo + fraction * (hi - lo)
            result = temper(model, party, target, tol=1e-6)
            assert abs(result.achieved_value - target) <= 1e-6
            assert result.tolerance_met
            assert 0.0 < result.kappa < 1.0
            # independent recomputation of the heteroscedastic value
            assert tempered_value(model, party, result.kappa) == pytest.approx(
                result.achieved_value, abs=1e-12
            )

    def test_out_of_range_targets_rejected(self):
        model = three_party_model()
        game = conditional_ig_game(model)
        with pytest.raises(TargetOutOfRange):
            temper(model, 1, game.value([1]) - 0.5)
        with pytest.raises(TargetOutOfRange):
            temper(model, 1, game.grand_value() + 0.5)


class TestSelectSubsetTable:
    def test_floor_target_selects_own_only(self):
        g = random_superadditive_game(3, seed=5)
        result = select_subset(g, 2, g.value([2]), seed=0)
        assert result.selected == (2,)
        assert not result.saturated

    def test_grand_target_selects_everything_saturated(self):
        g = random_superadditive_game(3, seed=5)
        result = select_subset(g, 2, g.grand_value(), seed=0)
        assert set(result.selected) == {1, 2, 3}
        assert result.saturated

    @pytest.mark.parametrize("seed", range(5))
    def test_crossing_invariants(self, seed):
        g = random_superadditive_game(4, seed=seed + 10)
        rng = np.random.default_rng(seed)
        party = int(rng.integers(1, 5))
        lo, hi = g.value([party]), g.grand_value()
        target = lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)
        result = select_subset(g, party, target, seed=seed)
        assert result.achieved_value >= target or result.saturated
        if len(result.selected) > 1 and not result.saturated:
            predecessor = result.selected[:-1]
            assert g.value(predecessor) < target

    def test_deterministic_per_seed(self):
        g = random_superadditive_game(5, seed=3)
        target = 0.6 * g.grand_value()
        a = select_subset(g, 1, target, seed=11)
        b = select_subset(g, 1, target, seed=11)
        assert a == b

    def test_higher_targets_never_shrink_selection(self):
        g = random_superadditive_game(5, seed=4)
        lo, hi = g.value([1]), g.grand_value()
        sizes = []
        selections = []
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            result = select_subset(g, 1, lo + fraction * (hi - lo), seed=7)
            sizes.append(len(result.selected))
            selections.append(set(result.selected))
        assert sizes == sorted(sizes)
        for small, large in zip(selections, selections[1:]):
            assert small <= large

    def test_out_of_range_rejected(self):
        g = random_superadditive_game(3, seed=5)
        with pytest.raises(TargetOutOfRange):
            select_subset(g, 1, g.grand_value() + 1.0, seed=0)
        with pytest.raises(TargetOutOfRange):
            select_subset(g, 1, g.value([1]) - 1.0, seed=0)

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            select_subset(object(), 1, 0.5, seed=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_literal_prefix_scan(self, n):
        fractions = (0.0, 1e-9, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-9, 1.0)
        for game_seed in range(3):
            g = random_superadditive_game(n, game_seed)
            for party in range(1, n + 1):
                lo, hi = g.value([party]), g.grand_value()
                for seed in range(3):
                    for target in [lo + f * (hi - lo) for f in fractions] + [lo, hi]:
                        got = select_subset(g, party, target, seed)
                        want = select_subset_table_reference(g, party, target, seed)
                        assert got == want, (n, game_seed, party, seed, target)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_partial_game_missing_a_prefix_is_refused_whatever_the_target(self, fraction):
        # seed 0 joins 4, 2, 3 after party 1, so {1, 2, 4} is on the path; a target
        # below v(1, 4) used to stop the scan first and return (1, 4)
        full = random_superadditive_game(4, 3)
        table = full.table()
        values = {Coalition.from_mask(m, 4).key(): table[m] for m in range(1, 16)}
        del values["1,2,4"]
        g = make_table_game(4, values)
        lo, hi = full.value([1]), full.value([1, 4])
        with pytest.raises(MissingCoalition, match=r"^coalition '1,2,4' not in table$"):
            select_subset(g, 1, lo + fraction * (hi - lo), seed=0)


class TestSelectSubsetGp:
    def test_point_level_selection(self):
        model = three_party_model(2)
        game = conditional_ig_game(model)
        lo, hi = game.value([2]), game.grand_value()
        target = 0.5 * (lo + hi)
        result = select_subset(model, 2, target, seed=1)
        own = set(int(k) for k in model.points_of([2]))
        assert own <= set(result.selected)
        assert result.achieved_value > target
        assert not result.saturated
        # both crossing invariants recomputed from scratch
        assert conditional_point_value(model, result.selected) == pytest.approx(
            result.achieved_value, abs=1e-12
        )
        assert conditional_point_value(model, result.selected[:-1]) < target

    @pytest.mark.parametrize("points", [[99], [-1], [2, 2], [0.5]])
    def test_conditional_point_value_refuses_bad_indices(self, points):
        # [99] and [-1] used to give 0.0
        with pytest.raises(ValueError, match="^point ind"):
            conditional_point_value(three_party_model(2), points)

    def test_floor_keeps_own_points(self):
        model = three_party_model(2)
        game = conditional_ig_game(model)
        result = select_subset(model, 3, game.value([3]), seed=2)
        assert set(result.selected) == set(int(k) for k in model.points_of([3]))


class TestRequestValidation:
    @pytest.mark.parametrize("party", [0, 4, 7, -1])
    def test_gp_party_out_of_range(self, party):
        model = three_party_model()
        with pytest.raises(ValueError, match="party"):
            tempered_value(model, party, 0.5)
        with pytest.raises(ValueError, match="party"):
            temper(model, party, 0.5)
        with pytest.raises(ValueError, match="party"):
            select_subset(model, party, 0.5, seed=0)

    @pytest.mark.parametrize("party", [1.0, True])
    def test_non_integer_party_refused(self, party):
        # 1.0 used to raise TypeError from mask_of on a game
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        with pytest.raises(ValueError, match=f"^party {party!r} is not an integer$"):
            select_subset(g, party, 0.5, seed=0)
        with pytest.raises(ValueError, match=f"^party {party!r} is not an integer$"):
            select_subset(three_party_model(), party, 0.5, seed=0)

    @pytest.mark.parametrize("party", [0, 3])
    def test_game_party_out_of_range(self, party):
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        with pytest.raises(ValueError, match="party"):
            select_subset(g, party, 0.5, seed=0)

    def test_gp_party_without_points(self):
        rng = np.random.default_rng(2)
        model = GpModel(rng.uniform(size=(6, 1)), np.array([1, 1, 1, 3, 3, 3]), [1.0], 1.0, 0.5)
        total = tempered_value(model, 1, 1.0)
        with pytest.raises(ValueError, match="party 2 owns no points"):
            tempered_value(model, 2, 0.5)
        with pytest.raises(ValueError, match="party 2 owns no points"):
            temper(model, 2, 0.5 * total)
        with pytest.raises(ValueError, match="party 2 owns no points"):
            select_subset(model, 2, 0.5 * total, seed=0)
        # the parties that own points are still served
        assert temper(model, 3, 0.5 * total).party == 3
        assert select_subset(model, 1, 0.5 * total, seed=0).party == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance(self, tol):
        model = three_party_model()
        with pytest.raises(ValueError, match="tol"):
            temper(model, 1, 0.5 * tempered_value(model, 1, 1.0), tol)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target(self, target):
        model = three_party_model()
        with pytest.raises(ValueError, match="target"):
            temper(model, 1, target)
        with pytest.raises(ValueError, match="target"):
            select_subset(model, 1, target, seed=0)
        with pytest.raises(ValueError, match="target"):
            select_subset(random_superadditive_game(3, seed=5), 1, target, seed=0)

    def test_target_just_past_the_bound_is_printed_in_full(self):
        # %g printed both as 29.5347: the refusal read like target == bound
        model = three_party_model()
        floor, total = tempered_value(model, 1, 0.0), tempered_value(model, 1, 1.0)
        target = total + 1e-10
        message = f"target {target!r} outside achievable [{floor!r}, {total!r}]"
        assert repr(target) != repr(total)
        with pytest.raises(TargetOutOfRange) as raised:
            temper(model, 1, target, tol=0.0)
        assert str(raised.value) == message
        for select in (select_subset, select_subset_reference):
            with pytest.raises(TargetOutOfRange) as raised:
                select(model, 1, target, seed=0)
            assert str(raised.value).startswith(f"target {target!r} outside achievable [")
            assert str(raised.value).endswith(f", {total!r}]")


class TestFriedmanMnlp:
    def test_tempered_rewards_have_finite_mnlp(self):
        result = run_friedman_experiment(
            FriedmanConfig(
                count=100, sizes=(30, 30, 20), seed=0, betas=(1.0,), gammas=(1.0,), with_mnlp=True
            )
        )
        assert len(result.rows) == 2 * 5 * 3
        assert all(np.isfinite(row.mnlp) for row in result.rows)
        assert result.all_pass, result.witnesses


def test_reward_model_at_kappa_0_is_the_own_points_model():
    # kappa = 0 gives the others' points no weight, and both run one conditioning step
    model = three_party_model()
    rng = np.random.default_rng(5)
    targets = rng.normal(size=model.n_points)
    test_X = rng.uniform(size=(4, 2))
    for party in (1, 2, 3):
        own = gp_predict(model, targets, model.points_of([party]), test_X)
        got = _tempered_predictor(model, targets, party, test_X)(0.0)
        np.testing.assert_array_equal(got.mean, own.mean)
        np.testing.assert_array_equal(got.variance, own.variance)


def _models_for_the_tempered_predictive():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(13, 2))
    unequal = np.repeat([1, 2, 3], [2, 7, 4])
    yield "homoscedastic", three_party_model(3), (1, 2, 3)
    yield "heteroscedastic", GpModel(
        X, unequal, np.array([0.4, 0.7]), 1.3, rng.uniform(0.01, 0.5, size=13)
    ), (1, 2, 3)
    yield "unequal-sizes", GpModel(X, unequal, np.array([0.5, 0.5]), 1.0, 0.05), (1, 2, 3)
    # party 1 owns no points, so party 2's others own none either
    yield "no-others", GpModel(X[:5], np.full(5, 2), np.array([0.5, 0.5]), 1.0, 0.1), (2,)


@pytest.mark.parametrize(
    "name,model,parties", list(_models_for_the_tempered_predictive()),
    ids=[name for name, *_ in _models_for_the_tempered_predictive()],
)
@pytest.mark.parametrize("kappa", [0.0, 1e-12, 0.3, 1.0])
def test_closed_form_predictive_matches_the_joint_kernel(name, model, parties, kappa):
    rng = np.random.default_rng(7)
    targets = rng.normal(size=model.n_points)
    test_X, test_y = rng.uniform(size=(6, 2)), rng.normal(size=6)
    for party in parties:
        got = _tempered_predictor(model, targets, party, test_X)(kappa)
        want = tempered_predictive_reference(model, targets, party, kappa, test_X)
        np.testing.assert_allclose(
            got.mean, want.mean, rtol=0.0, atol=1e-9 * np.abs(want.mean).max()
        )
        np.testing.assert_allclose(got.variance, want.variance, rtol=1e-9)
        assert mnlp(got, test_y) == pytest.approx(mnlp(want, test_y), rel=1e-9)


def _record_decompositions(monkeypatch) -> list:
    """Names of the eigh and eigvalsh calls made from here on, in order."""
    from timereward import realization

    calls = []
    for name in ("eigh", "eigvalsh"):
        inner = getattr(realization.scipy.linalg, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(realization.scipy.linalg, name, counted)
    return calls


def test_sweep_decomposes_once_per_party_and_never_calls_gp_predict(monkeypatch):
    from timereward import valuation

    decompositions = _record_decompositions(monkeypatch)
    kappas = []
    inner_temper = experiment.temper

    def predict(*args, **kwargs):
        raise AssertionError("the tempered predictive called gp_predict")

    def temper_recorded(*args, **kwargs):
        realized = inner_temper(*args, **kwargs)
        if len(kappas) % 2:  # the sweep's own cells all realize kappa > 0
            realized = dataclasses.replace(realized, kappa=0.0)
        kappas.append((realized.party, realized.kappa))
        return realized

    monkeypatch.setattr(valuation, "gp_predict", predict)
    monkeypatch.setattr(experiment, "temper", temper_recorded)
    result = run_friedman_experiment(
        FriedmanConfig(count=100, sizes=(30, 30, 20), betas=(1.0,), gammas=(0.0,), with_mnlp=True)
    )
    # one eigh per party, shared by the bisection: no separate eigvalsh
    assert decompositions == ["eigh"] * 3
    assert len(kappas) == len(result.rows)
    # every party has a kappa = 0 cell, served by the same closed form
    assert {party for party, kappa in kappas if kappa == 0.0} == {1, 2, 3}
    assert all(np.isfinite(row.mnlp) for row in result.rows)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"t1_grid": (1, 2)}, "t1 grid must include 0"),
        ({"t1_grid": (-1, 0)}, "t1 grid entries must be non-negative"),
        # used to pass all four checks with no rows
        ({"betas": (), "gammas": ()}, "at least one beta or gamma"),
        ({"betas": (0.0,)}, "beta must be"),
        # used to pass all four checks vacuously
        ({"sizes": (0, 10)}, "party sizes must be at least 1"),
        # used to build the GP model first, then fail on the joining times
        ({"sizes": (10, 0)}, "party sizes must be at least 1"),
    ],
    ids=["grid-without-0", "grid-negative", "no-schemes", "beta-0", "empty-first", "empty-last"],
)
def test_bad_sweep_refused_before_gp_work(change, message, monkeypatch):
    def no_data(*args):
        raise AssertionError("generated data for a sweep it should have refused")

    monkeypatch.setattr(experiment, "gen_friedman", no_data)
    with pytest.raises(ValueError, match=message):
        run_friedman_experiment(FriedmanConfig(**change))


def test_trend_check_witnesses(monkeypatch):
    """Every check fails once the scaled rewards are flipped and halved.

    The grid repeats an out-of-order 0 and beta 1 appears twice, so the
    witness order covers the stable t1 sort, each t1 = 0 entry, and one
    entry per (scheme, param) column even when two columns coincide.
    """
    scale = experiment._scale

    def flipped(game, rewards, phi):
        scaled = scale(game, rewards, phi)
        return dataclasses.replace(scaled, scaled=-0.5 * scaled.scaled)

    monkeypatch.setattr(experiment, "_scale", flipped)
    result = run_friedman_experiment(
        FriedmanConfig(
            count=60, sizes=(24, 14, 6), seed=0, t1_grid=(2, 0, 1, 0),
            betas=(1.0, 1.0, 1000.0), gammas=(0.0, 1.0),
        )
    )
    rows = result.rows
    assert len(rows) == 5 * 4 * 3
    assert result.checks == dict.fromkeys(
        [
            "individual_rationality",
            "late_party_reward_non_increasing",
            "value_gap_preserved_at_zero",
            "weak_efficiency_at_zero",
        ],
        False,
    )
    w = result.witnesses
    assert w["individual_rationality"] == [
        (r.scheme, r.param, r.t1, r.party, r.scaled_reward, r.own_value) for r in rows
    ]
    # timeval with gamma 0 never discounts, so party 1's series is flat there
    assert w["late_party_reward_non_increasing"] == [
        ("cumulation", 1.0, 0, 1), ("cumulation", 1.0, 1, 2),
        ("cumulation", 1.0, 0, 1), ("cumulation", 1.0, 1, 2),
        ("cumulation", 1000.0, 0, 1), ("cumulation", 1000.0, 1, 2),
        ("timeval", 1.0, 0, 1), ("timeval", 1.0, 1, 2),
    ]
    # party 3 holds the fewest points, party 1 the most
    assert w["value_gap_preserved_at_zero"] == [
        (scheme, param, 3, 1)
        for scheme, param in [("cumulation", 1.0)] * 4
        + [("cumulation", 1000.0)] * 2 + [("timeval", 0.0)] * 2 + [("timeval", 1.0)] * 2
    ]
    # at all-zero times every scheme gives the same rewards
    top = max(r.scaled_reward for r in rows if r.t1 == 0)
    assert w["weak_efficiency_at_zero"] == [
        (scheme, param, top, result.grand_value)
        for scheme, param in [
            ("cumulation", 1.0), ("cumulation", 1.0), ("cumulation", 1000.0),
            ("timeval", 0.0), ("timeval", 1.0),
        ]
    ]
    # the CLI writes each entry with str(), so no numpy scalars
    assert {type(x) for ws in w.values() for witness in ws for x in witness} == {str, int, float}


def test_one_dividend_pass_per_sweep_cell(monkeypatch):
    # one for the Shapley values, then one per (scheme, t1) cell; each
    # cell used to run a second one to scale its rewards
    passes = count_dividend_passes(monkeypatch)
    run_friedman_experiment(
        FriedmanConfig(count=60, sizes=(24, 14, 6), t1_grid=(0, 2, 1), betas=(1.0,), gammas=(0.5,))
    )
    assert len(passes) == 1 + 2 * 3


def test_write_rows_csv_golden(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(
        [
            SweepRow("cumulation", 1000.0, 0, 1, 0.5, 2.0, 0.25),
            SweepRow("timeval", 0.1, 3, 2, 1 / 3, 0.1 + 0.2, 2 / 3, -0.1),
        ],
        path,
    )
    assert path.read_bytes() == (
        b"scheme,param,t1,party,reward,scaled_reward,own_value,mnlp\r\n"
        b"cumulation,1000,0,1,0.5,2,0.25,\r\n"
        b"timeval,0.10000000000000001,3,2,0.33333333333333331,0.30000000000000004,"
        b"0.66666666666666663,-0.10000000000000001\r\n"
    )


def test_write_rows_csv_matches_a_deep_copying_writer(tmp_path):
    # rows used to be deep-copied by dataclasses.astuple; the bytes must not move
    rows = run_friedman_experiment(
        FriedmanConfig(count=60, sizes=(24, 14, 6), t1_grid=(0, 2), betas=(1.0,), gammas=(0.5,),
                       with_mnlp=True)
    ).rows + [SweepRow("timeval", 0.1, 3, 2, 1 / 3, 0.1 + 0.2, 2 / 3)]
    path, reference = tmp_path / "rows.csv", tmp_path / "reference.csv"
    write_rows_csv(rows, path)

    def cell(x):
        return f"{x:.17g}" if isinstance(x, float) else "" if x is None else x

    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(SweepRow)])
        writer.writerows([cell(x) for x in dataclasses.astuple(row)] for row in rows)
    assert path.read_bytes() == reference.read_bytes()


def test_temper_alone_pays_for_eigenvalues_only(monkeypatch):
    # realize --method temper never predicts, so it needs no eigenvectors
    decompositions = _record_decompositions(monkeypatch)
    model = three_party_model()
    for target in (0.3, 0.6, 0.9):
        temper(model, 2, target * tempered_value(model, 2, 1.0))
    assert decompositions == ["eigvalsh"]
