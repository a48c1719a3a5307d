"""Exact Shapley against a brute-force oracle, Monte-Carlo behaviour, naive baseline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import brute_force_shapley
from timereward import (
    Game,
    TimeVector,
    TooLarge,
    naive_time_division,
    random_superadditive_game,
    shapley_exact,
    shapley_mc,
)
from timereward.games import subset_sums


def additive_game(values) -> Game:
    values = np.asarray(values, dtype=float)
    n = len(values)
    table = np.array(
        [sum(values[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    )
    return Game(n, table=table)


class TestShapleyExact:
    def test_necessity_game(self, necessity_counterexample):
        assert_allclose(shapley_exact(necessity_counterexample).values, [0.5, 0.5])

    def test_symmetric_two_party_game(self, ir_counterexample):
        assert_allclose(shapley_exact(ir_counterexample).values, [0.5, 0.5])

    def test_additive_game_returns_solo_values(self):
        a = np.array([3.0, 1.0, 4.0, 1.5])
        assert_allclose(shapley_exact(additive_game(a)).values, a)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
    def test_matches_permutation_brute_force(self, n, seed):
        g = random_superadditive_game(n, seed)
        assert_allclose(shapley_exact(g).values, brute_force_shapley(g), atol=1e-10)

    @pytest.mark.parametrize("n,seed", [(2, 5), (4, 6), (6, 7)])
    def test_efficiency(self, n, seed):
        g = random_superadditive_game(n, seed)
        assert abs(shapley_exact(g).values.sum() - g.grand_value()) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_individual_rationality_under_superadditivity(self, seed):
        g = random_superadditive_game(5, seed)
        phi = shapley_exact(g).values
        singles = g.singleton_values()
        assert np.all(phi >= singles - 1e-9)

    def test_symmetry_for_duplicated_parties(self):
        # parties 1 and 2 contribute identically to every coalition
        base = random_superadditive_game(2, seed=9)

        def oracle(mask):
            twins = int(bool(mask & 0b011))
            third = int(bool(mask & 0b100))
            inner = (0b01 if twins else 0) | (0b10 if third else 0)
            bonus = 0.5 if (mask & 0b011) == 0b011 else 0.0
            return base.value_mask(inner) + bonus

        g = Game(3, oracle)
        phi = shapley_exact(g).values
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)

    def test_useless_party_gets_zero(self):
        inner = random_superadditive_game(2, seed=4)
        g = Game(3, lambda mask: inner.value_mask(mask & 0b11))
        assert shapley_exact(g).values[2] == pytest.approx(0.0, abs=1e-12)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            shapley_exact(Game(25, lambda m: 0.0))

    def test_n21_known_values(self):
        # solo values plus a few drawn synergies: phi_i = v_i + sum d(T) / |T|
        n = 21
        rng = np.random.default_rng(21)
        dividends = np.zeros(1 << n)
        solo = rng.uniform(0.5, 2.0, size=n)
        dividends[1 << np.arange(n)] = solo
        expected = solo.copy()
        for _ in range(40):
            members = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            synergy = float(rng.uniform(0.0, 3.0))
            dividends[int(np.sum(1 << members))] += synergy
            expected[members] += synergy / len(members)
        table = subset_sums(dividends)
        phi = shapley_exact(Game(n, table=table)).values
        assert_allclose(phi, expected, rtol=1e-12, atol=0.0)


class TestShapleyMc:
    def test_additive_game_is_exact(self):
        a = np.array([3.0, 1.0, 4.0])
        result = shapley_mc(additive_game(a), permutations=50, seed=0)
        assert np.array_equal(result.values, a)
        assert np.array_equal(result.std_error, np.zeros(3))

    def test_within_three_standard_errors(self, ir_counterexample):
        result = shapley_mc(ir_counterexample, permutations=10_000, seed=1)
        exact = shapley_exact(ir_counterexample).values
        assert np.all(np.abs(result.values - exact) <= 3 * result.std_error + 1e-12)
        assert result.permutations_used == 10_000
        assert result.method == "monte_carlo"

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_non_integer_permutations_refused(self, bad, ir_counterexample):
        # 2.5 used to run 2 permutations and True 1
        with pytest.raises(ValueError, match=f"^permutations must be an integer, got {bad!r}$"):
            shapley_mc(ir_counterexample, bad, 0)
        assert shapley_mc(ir_counterexample, np.int64(3), 0).permutations_used == 3

    def test_deterministic_per_seed(self):
        g = random_superadditive_game(5, seed=8)
        a = shapley_mc(g, 500, seed=42)
        b = shapley_mc(g, 500, seed=42)
        assert np.array_equal(a.values, b.values)
        c = shapley_mc(g, 500, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_n8_accuracy(self):
        g = random_superadditive_game(8, seed=13)
        exact = shapley_exact(g).values
        est = shapley_mc(g, 20_000, seed=3).values
        assert np.max(np.abs(est - exact)) <= 0.02 * g.grand_value()

    def test_mean_over_seeds_near_exact(self):
        g = random_superadditive_game(5, seed=21)
        exact = shapley_exact(g).values
        runs = [shapley_mc(g, 2_000, seed=s) for s in range(30)]
        means = np.mean([r.values for r in runs], axis=0)
        pooled = np.sqrt(np.mean([r.std_error**2 for r in runs], axis=0) / len(runs))
        assert np.all(np.abs(means - exact) <= 3 * pooled + 1e-9)

    def test_oracle_game_matches_its_table_twin(self):
        # the oracle path asks for each visited prefix, the table path gathers them
        table = random_superadditive_game(6, seed=2).table()
        oracle = shapley_mc(Game(6, lambda mask: float(table[mask])), 300, seed=7)
        twin = shapley_mc(Game(6, table=table), 300, seed=7)
        assert np.array_equal(oracle.values, twin.values)
        assert np.array_equal(oracle.std_error, twin.std_error)

    def test_requires_positive_permutations(self):
        with pytest.raises(ValueError):
            shapley_mc(random_superadditive_game(2, 0), 0, seed=0)

    def test_single_permutation_has_zero_error(self):
        result = shapley_mc(random_superadditive_game(3, 0), 1, seed=5)
        assert np.array_equal(result.std_error, np.zeros(3))

    def test_too_large_for_int64_masks(self):
        # additive oracle game: every true value is 1, but 70-bit masks overflow int64
        g = Game(70, lambda mask: float(bin(mask).count("1")))
        with pytest.raises(TooLarge):
            shapley_mc(g, 10, seed=0)


class TestNaiveTimeDivision:
    def test_ir_violation_example(self, ir_counterexample, late_first):
        r = naive_time_division(ir_counterexample, late_first).rewards
        assert r[0] == pytest.approx(0.1, abs=1e-12)
        assert r[0] < ir_counterexample.value([1])

    def test_necessity_violation_example(self, necessity_counterexample, late_first):
        r = naive_time_division(necessity_counterexample, late_first).rewards
        assert_allclose(r, [0.1, 0.5], atol=1e-12)

    def test_zero_times_equal_plain_shapley(self):
        g = random_superadditive_game(4, seed=17)
        r = naive_time_division(g, TimeVector.of((0, 0, 0, 0))).rewards
        assert np.array_equal(r, shapley_exact(g).values)
