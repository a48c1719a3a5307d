"""Interval weights, both reward schemes, dividends, and scaling."""

import decimal
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_times
from oracles import reward_cumulation_reference, time_aware_table_reference
from timereward import (
    AxiomViolation,
    Coalition,
    Game,
    RewardVector,
    TimeVector,
    TooLarge,
    check_axioms,
    harsanyi_dividends,
    interval_shapley_values,
    interval_weights,
    make_table_game,
    random_superadditive_game,
    reward_cumulation,
    reward_time_valuation,
    scale_rewards,
    shapley_exact,
    time_aware_game,
)
from timereward.rewards import _cumulation_discount, cooperative_abilities


def exact_tail(beta: float, start: int, horizon: int) -> float:
    """sum over start <= tau <= horizon of beta**tau / sum over 0 <= tau <= horizon, at 50 digits.

    The exponent range is widened so that beta**(10**6) neither
    overflows nor underflows; beta is the exact value of the float.
    """
    if start > horizon:
        return 0.0
    if beta == 1.0:
        return (horizon + 1 - start) / (horizon + 1)
    context = decimal.Context(prec=50, Emax=10**8, Emin=-(10**8))
    b = decimal.Decimal(beta)
    top = context.power(b, horizon + 1)
    tail = context.divide(context.subtract(context.power(b, start), top), context.subtract(1, top))
    return float(tail)


def dividend_array(game) -> np.ndarray:
    """harsanyi_dividends as an array indexed by bitmask."""
    d = np.zeros(1 << game.n)
    for coalition, value in harsanyi_dividends(game).items():
        d[coalition.mask] = value
    return d


class TestIntervalWeights:
    def test_uniform_for_beta_one(self):
        assert_allclose(interval_weights(TimeVector.of((4, 0)), 1.0), [0.2] * 5)

    def test_geometric_for_beta_two(self):
        assert_allclose(interval_weights(TimeVector.of((1, 0)), 2.0), [1 / 3, 2 / 3])

    def test_large_beta_concentrates_on_last(self):
        w = interval_weights(TimeVector.of((4, 0)), 1000.0)
        assert w[4] > 0.999

    @pytest.mark.parametrize("beta,horizon", [(0.5, 7), (3.0, 9), (1e6, 50), (1e-6, 50)])
    def test_sum_to_one_and_geometric(self, beta, horizon):
        w = interval_weights(TimeVector.of((horizon, 0)), beta)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(w))
        ratios = w[1:] / w[:-1]
        positive = w[:-1] > 1e-300
        assert_allclose(ratios[positive], beta, rtol=1e-9)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            interval_weights(TimeVector.of((2, 0)), beta)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 1000.0])
    @pytest.mark.parametrize("horizon", [0, 1, 5, 8, 10**6])
    def test_cumulation_discount_is_the_weight_tail(self, beta, horizon):
        # past the horizon a dividend is never credited
        latest = np.array([horizon, 0, horizon // 2, horizon + 1, horizon + 7, 1])
        want = [exact_tail(beta, int(s), horizon) for s in latest]
        assert np.max(np.abs(_cumulation_discount(beta)(latest, horizon) - want)) <= 1e-15

    @pytest.mark.parametrize("beta", [0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 1000.0])
    def test_cumulation_discount_relative_precision(self, beta):
        # every horizon and start at once, broadcast; tails below the
        # smallest normal float carry no relative precision
        horizon = np.array([0, 1, 7, 1000, 10**5, 10**6])[:, None]
        start = np.array([0, 1, 2, 5, 40, 700, 1000, 10**5 - 3, 5 * 10**5, 10**6])
        got = _cumulation_discount(beta)(start, horizon)
        for h, row in zip(horizon[:, 0], got):
            for s, tail in zip(start, row):
                want = exact_tail(beta, int(s), int(h))
                assert abs(tail - want) <= 1e-13 * want + 1e-300, (h, s)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_discount_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            _cumulation_discount(beta)


class TestRewardCumulation:
    def test_worked_example(self, ir_counterexample, late_first):
        r = reward_cumulation(ir_counterexample, late_first, 1.0).rewards
        assert_allclose(r, [0.26, 0.26], atol=1e-12)

    def test_zero_times_give_plain_shapley(self, ir_counterexample):
        for beta in (0.5, 1.0, 7.0):
            r = reward_cumulation(ir_counterexample, TimeVector.of((0, 0)), beta).rewards
            assert_allclose(r, [0.5, 0.5], atol=1e-12)

    def test_large_beta_approaches_plain_shapley(self, ir_counterexample, late_first):
        r = reward_cumulation(ir_counterexample, late_first, 1000.0).rewards
        assert np.max(np.abs(r - 0.5)) < 1e-3

    def test_interval_values_by_hand(self, ir_counterexample, late_first):
        per_interval = interval_shapley_values(ir_counterexample, late_first)
        # party 1 absent until tau=4: solo value; party 2 alone: its value
        assert_allclose(per_interval[:4], [[0.2, 0.2]] * 4, atol=1e-12)
        assert_allclose(per_interval[4], [0.5, 0.5], atol=1e-12)

    def test_subadditive_input_rejected(self, late_first):
        bad = make_table_game(2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        with pytest.raises(AxiomViolation):
            reward_cumulation(bad, late_first, 1.0)

    def test_negative_input_rejected(self, late_first):
        bad = make_table_game(2, {"1": -0.1, "2": 0.0, "1,2": 1.0})
        with pytest.raises(AxiomViolation):
            reward_cumulation(bad, late_first, 1.0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            reward_cumulation(Game(25, lambda m: 0.0), TimeVector.of((0,) * 25), 1.0)

    def test_unnormalized_times_accepted(self):
        # counterfactual sweeps can produce vectors whose minimum is > 0
        g = random_superadditive_game(3, seed=6)
        r = reward_cumulation(g, TimeVector.of((3, 2, 2)), 1.0).rewards
        assert np.all(np.isfinite(r))


class TestLinearityReduction:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interval_path(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = random_superadditive_game(n, seed)
        times = random_times(rng, n)
        beta = float(rng.choice([0.5, 1.0, 2.0, 1000.0]))
        a = reward_cumulation(g, times, beta).rewards
        b = reward_cumulation_reference(g, times, beta)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_all_zero_times_reduce_to_plain_shapley(self):
        g = random_superadditive_game(4, seed=2)
        r = reward_cumulation(g, TimeVector.of((0,) * 4), 3.0).rewards
        assert_allclose(r, shapley_exact(g).values, atol=1e-12)

    def test_worked_example(self, ir_counterexample, late_first):
        r = reward_cumulation(ir_counterexample, late_first, 1.0).rewards
        assert_allclose(r, [0.26, 0.26], atol=1e-12)


class TestHarsanyiDividends:
    def test_worked_example(self, ir_counterexample):
        d = {c.key(): v for c, v in harsanyi_dividends(ir_counterexample).items()}
        assert d[""] == 0.0
        assert d["1"] == pytest.approx(0.2, abs=1e-12)
        assert d["2"] == pytest.approx(0.2, abs=1e-12)
        assert d["1,2"] == pytest.approx(0.6, abs=1e-12)

    def test_additive_game_has_no_synergy(self):
        g = make_table_game(
            2, {"1": 0.3, "2": 0.4, "1,2": 0.7}
        )
        d = harsanyi_dividends(g)
        for coalition, value in d.items():
            if len(coalition) >= 2:
                assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,seed", [(3, 0), (5, 1), (8, 2)])
    def test_singletons_and_reconstruction(self, n, seed):
        g = random_superadditive_game(n, seed)
        d = dividend_array(g)
        singles = g.singleton_values()
        for i in range(n):
            assert d[1 << i] == pytest.approx(singles[i], abs=1e-12)
        for mask in range(1 << n):
            total = sum(d[s] for s in range(1 << n) if s & mask == s)
            assert total == pytest.approx(g.value_mask(mask), abs=1e-9)

    def test_recovers_generator_dividends(self):
        # random_superadditive_game synthesizes values from drawn dividends
        n, seed = 6, 31
        g = random_superadditive_game(n, seed)
        rng = np.random.default_rng(seed)
        drawn = rng.uniform(0.0, 1.0, size=1 << n)
        drawn[0] = 0.0
        assert_allclose(dividend_array(g), drawn, atol=1e-9)

    def test_recovers_generator_dividends_beyond_recursion_cap(self):
        # the O(3**n) recursion stopped at n = 12; the transform does not
        n, seed = 13, 32
        g = random_superadditive_game(n, seed)
        rng = np.random.default_rng(seed)
        drawn = rng.uniform(0.0, 1.0, size=1 << n)
        drawn[0] = 0.0
        assert_allclose(dividend_array(g), drawn, atol=1e-9)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            harsanyi_dividends(Game(25, lambda m: 0.0))


class TestTimeAwareValue:
    def test_gamma_zero_is_identity(self):
        g = random_superadditive_game(4, seed=3)
        times = TimeVector.of((3, 0, 2, 1))
        tg = time_aware_game(g, times, 0.0)
        for mask in range(1, 16):
            c = Coalition.from_mask(mask, 4)
            assert tg.value(c) == g.value_mask(mask)

    def test_discounted_pair_value(self, ir_counterexample, late_first):
        tg = time_aware_game(ir_counterexample, late_first, 1.0)
        val = tg.value(Coalition.of([1, 2], 2))
        assert val == pytest.approx(0.6 * math.exp(-4.0) + 0.4, abs=1e-12)

    def test_singletons_unaffected(self):
        g = random_superadditive_game(5, seed=9)
        times = TimeVector.of((4, 1, 0, 6, 2))
        for i in range(1, 6):
            for gamma in (0.0, 0.5, 3.0):
                got = time_aware_game(g, times, gamma).value(Coalition.of([i], 5))
                assert got == pytest.approx(g.value([i]), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_efficient_identity_matches_dividend_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = random_superadditive_game(n, seed + 50)
        times = random_times(rng, n)
        gamma = float(rng.choice([0.0, 0.5, 1.0]))
        reference = time_aware_table_reference(g, times, gamma)
        tg = time_aware_game(g, times, gamma)
        for mask in range(1, 1 << n):
            c = Coalition.from_mask(mask, n)
            fast = tg.value(c)
            slow = reference[mask]
            assert abs(fast - slow) <= 1e-9

    def test_ability_floor_keeps_positive(self):
        lam = cooperative_abilities(TimeVector.of((10**6, 0)), 1.0)
        assert lam[0] > 0.0
        assert lam[1] == 1.0

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            cooperative_abilities(TimeVector.of((0,)), -0.5)


class TestRewardTimeValuation:
    def test_worked_example(self, ir_counterexample, late_first):
        r = reward_time_valuation(ir_counterexample, late_first, 1.0).rewards
        expected = 0.2 + 0.3 * math.exp(-4.0)
        assert_allclose(r, [expected, expected], atol=1e-9)
        assert r[0] == pytest.approx(0.205495, abs=1e-6)

    def test_gamma_zero_equals_plain_shapley(self):
        g = random_superadditive_game(5, seed=12)
        times = TimeVector.of((4, 0, 2, 6, 1))
        r = reward_time_valuation(g, times, 0.0).rewards
        assert np.max(np.abs(r - shapley_exact(g).values)) <= 1e-12

    def test_zero_times_equal_plain_shapley(self):
        g = random_superadditive_game(4, seed=15)
        for gamma in (0.2, 1.0, 5.0):
            r = reward_time_valuation(g, TimeVector.of((0,) * 4), gamma).rewards
            assert np.max(np.abs(r - shapley_exact(g).values)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_time_aware_game_inherits_axioms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g = random_superadditive_game(n, seed + 70)
        times = random_times(rng, n)
        gamma = float(rng.choice([0.3, 0.5, 1.0]))
        modified = time_aware_game(g, times, gamma)
        report = check_axioms(modified, 1e-9)
        assert report.nonneg and report.superadditive

    def test_subadditive_input_rejected(self, late_first):
        bad = make_table_game(2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        with pytest.raises(AxiomViolation):
            reward_time_valuation(bad, late_first, 1.0)

    def test_gamma_past_the_float_range_floors_every_late_ability(self):
        # gamma * t used to overflow with a RuntimeWarning, an error under the test filter
        g = random_superadditive_game(4, seed=16)
        times = TimeVector.of((2, 0, 3, 1))
        huge, large = cooperative_abilities(times, 1e308), cooperative_abilities(times, 1e3)
        assert np.array_equal(huge, large)
        tiny = np.finfo(float).tiny
        assert huge.tolist() == [tiny, 1.0, tiny, tiny]
        assert np.array_equal(
            time_aware_game(g, times, 1e308).table(), time_aware_game(g, times, 1e3).table()
        )
        assert np.array_equal(
            reward_time_valuation(g, times, 1e308).rewards,
            reward_time_valuation(g, times, 1e3).rewards,
        )


@pytest.mark.parametrize(
    "values,message",
    [
        (
            {"1": 0.6, "2": 0.6, "1,2": 1.0},
            "game fails A3 at tol 1e-09; witnesses: {'superadditive': ['1', '2']}",
        ),
        (
            {"1": -0.5, "2": 0.4, "1,2": 0.1},
            "game fails A1 at tol 1e-09; witnesses: {'nonneg': ['1'], 'monotone': ['2', '1,2']}",
        ),
        (
            {"1": -0.1, "2": 0.6, "1,2": 0.3},
            "game fails A1+A3 at tol 1e-09; witnesses: "
            "{'nonneg': ['1'], 'monotone': ['2', '1,2'], 'superadditive': ['1', '2']}",
        ),
    ],
    ids=["A3", "A1-and-monotone", "A1+A3"],
)
@pytest.mark.parametrize("scheme", [reward_cumulation, reward_time_valuation])
def test_axiom_violation_message(values, message, scheme, late_first):
    """The refusal names the failing required axioms and lists every witness."""
    with pytest.raises(AxiomViolation) as raised:
        scheme(make_table_game(2, values), late_first, 1.0)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "scheme,param,message",
    [(reward_cumulation, 0.0, "beta must be positive"), (reward_time_valuation, -1.0, "gamma")],
)
def test_bad_parameter_is_refused_before_times_and_axioms(scheme, param, message):
    # the discount is built first; times and A1/A3 used to be checked before it
    game = make_table_game(2, {"1": 0.6, "2": 0.6, "1,2": 1.0})  # fails A3
    for times in (TimeVector.of((0, 1)), TimeVector.of((0, 1, 2))):
        with pytest.raises(ValueError, match=f"^{message}"):
            scheme(game, times, param)


class TestScaleRewards:
    def test_weak_efficiency_at_zero_times(self, ir_counterexample):
        rv = reward_cumulation(ir_counterexample, TimeVector.of((0, 0)), 1.0)
        scaled = scale_rewards(ir_counterexample, rv)
        assert scaled.rho == pytest.approx(2.0, abs=1e-12)
        assert_allclose(scaled.scaled, [1.0, 1.0], atol=1e-12)
        assert not scaled.degenerate

    def test_cumulation_scaling_example(self, ir_counterexample, late_first):
        rv = reward_cumulation(ir_counterexample, late_first, 1.0)
        scaled = scale_rewards(ir_counterexample, rv)
        assert_allclose(scaled.scaled, [0.52, 0.52], atol=1e-12)

    def test_degenerate_all_zero(self):
        g = make_table_game(2, {"1": 0.0, "2": 0.0, "1,2": 0.0})
        from timereward import RewardVector

        scaled = scale_rewards(g, RewardVector(np.zeros(2)))
        assert scaled.degenerate
        assert scaled.rho is None
        assert_allclose(scaled.scaled, [0.0, 0.0])

    def test_rho_uses_plain_shapley(self, ir_counterexample, late_first):
        rv = reward_time_valuation(ir_counterexample, late_first, 1.0)
        scaled = scale_rewards(ir_counterexample, rv)
        assert scaled.rho == pytest.approx(1.0 / 0.5, abs=1e-12)

    def test_rewards_of_wrong_length_rejected(self, ir_counterexample):
        # used to return three scaled values for a two-party game
        with pytest.raises(ValueError, match="rewards has 3 entries"):
            scale_rewards(ir_counterexample, RewardVector(np.array([0.5, 0.5, 0.5])))

    def test_plain_shapley_values_past_the_float_range_rejected(self):
        # the dividend of {1, 2} overflows, so phi = (inf, inf): rho used to come out 0
        g = Game(2, table=np.array([0.0, 1.7e308, -1.7e308, 1.7e308]))
        with pytest.raises(ValueError, match="plain Shapley values must be finite"):
            scale_rewards(g, RewardVector(np.array([1.0, 2.0])))

    @pytest.mark.parametrize(
        "table,r",
        [
            # rho = 2, and 2 * 1e308 overflows
            ([0.0, 0.5, 0.0, 1.7e308], [1e308, 1.0]),
            # rho = -1e308 / 1e-300 is -inf, and -inf * 0 is NaN
            ([0.0, 1e-300, -1e308, -1e308], [0.0, 1.0]),
        ],
        ids=["overflow", "zero-times-inf"],
    )
    def test_scaled_rewards_past_the_float_range_rejected(self, table, r):
        g = Game(2, table=np.array(table))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="scaled rewards must be finite"):
                scale_rewards(g, RewardVector(np.array(r)))


class TestBetaMonotoneResponse:
    def test_late_party_reward_sampled_over_beta(self):
        """Informal trend: larger beta should favour the late party.

        Not a theorem; counterexamples are surfaced as warnings rather
        than failures.
        """
        rng = np.random.default_rng(99)
        betas = [0.5, 1.0, 2.0, 8.0]
        violations = []
        for trial in range(20):
            n = int(rng.integers(2, 6))
            g = random_superadditive_game(n, int(rng.integers(0, 2**31)))
            times = random_times(rng, n)
            late = int(np.argmax(times.as_array())) + 1
            if times[late - 1] == 0:
                continue
            series = [
                reward_cumulation(g, times, b).rewards[late - 1] for b in betas
            ]
            for a, b in zip(series, series[1:]):
                if b < a - 1e-9:
                    violations.append((trial, late, series))
                    break
        if violations:
            warnings.warn(
                f"late-party reward decreased with beta in {len(violations)} of 20 samples"
            )
