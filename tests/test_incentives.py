"""Incentive checkers F1-F8, predicates, and the scheme closures."""

import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_dividend_passes, random_times
from timereward.games import DEFAULT_TOL
from timereward.incentives import IncentiveCheck, RewardScheme
from timereward.shapley import _at_own_times
from timereward import (
    AxiomViolation,
    Game,
    PreconditionViolated,
    RewardVector,
    TimeVector,
    TooLarge,
    check_axioms,
    check_static,
    check_temporal,
    check_weak_efficiency,
    cumulation_scheme,
    full_incentive_report,
    make_table_game,
    naive_scheme,
    necessity_predicate,
    random_superadditive_game,
    reward_time_valuation,
    scale_rewards,
    shapley_scheme,
    strictness_predicate,
    time_valuation_scheme,
)


def symmetric_pair_game(seed=0, n=3):
    """Parties 1 and 2 are interchangeable in every coalition."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 1.0, size=1 << n)
    d[0] = 0.0
    swap = {0b001: 0b010, 0b010: 0b001}

    def swapped(mask):
        low = mask & 0b011
        rest = mask & ~0b011
        return swap.get(low, low) | rest

    for mask in range(1 << n):
        canon = min(mask, swapped(mask))
        d[mask] = d[canon]
    from timereward.games import subset_sums

    table = subset_sums(d)
    return Game(n, table=table)


class TestNecessityPredicate:
    def test_mutually_necessary_pair(self, necessity_counterexample):
        assert necessity_predicate(necessity_counterexample, 1, 2)

    def test_positive_solo_value_breaks_necessity(self, ir_counterexample):
        assert not necessity_predicate(ir_counterexample, 1, 2)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 3), (-1, 2)])
    def test_parties_out_of_range(self, necessity_counterexample, i, j):
        with pytest.raises(ValueError, match="parties"):
            necessity_predicate(necessity_counterexample, i, j)

    def test_additive_positive_game(self):
        g = make_table_game(2, {"1": 0.3, "2": 0.4, "1,2": 0.7})
        assert not necessity_predicate(g, 1, 2)

    @pytest.mark.parametrize("party", [1.5, 2.0, True])
    def test_non_integer_party_refused(self, necessity_counterexample, party):
        # 1.5 used to answer False
        with pytest.raises(ValueError, match=f"^party {party!r} is not an integer$"):
            necessity_predicate(necessity_counterexample, party, 2)
        assert necessity_predicate(necessity_counterexample, np.int64(1), np.int32(2))


class TestStrictnessPredicate:
    def test_fires_with_synergetic_predecessor(self, ir_counterexample, late_first):
        # C = {2}: v({1,2}) = 1 > 0.2 + 0.2
        assert strictness_predicate(ir_counterexample, late_first, 1)

    def test_additive_game_never_fires(self):
        g = make_table_game(2, {"1": 0.3, "2": 0.4, "1,2": 0.7})
        assert not strictness_predicate(g, TimeVector.of((4, 0)), 1)

    def test_earliest_party_has_no_predecessors(self, ir_counterexample, late_first):
        assert not strictness_predicate(ir_counterexample, late_first, 2)

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_party_out_of_range(self, ir_counterexample, i):
        # 0 and -1 used to answer for parties 2 and 1, 3 to raise IndexError
        with pytest.raises(ValueError, match="party"):
            strictness_predicate(ir_counterexample, TimeVector.of((0, 1)), i)

    @pytest.mark.parametrize("i", [2.0, 1.5, True])
    def test_non_integer_party_refused(self, ir_counterexample, late_first, i):
        # 2.0 used to raise IndexError
        with pytest.raises(ValueError, match=f"^party {i!r} is not an integer$"):
            strictness_predicate(ir_counterexample, late_first, i)
        assert strictness_predicate(ir_counterexample, late_first, np.int64(1))


class TestCheckStatic:
    def test_naive_fails_ir(self, ir_counterexample, late_first):
        from timereward import naive_time_division

        rewards = naive_time_division(ir_counterexample, late_first)
        report = check_static(ir_counterexample, late_first, rewards)
        assert report.status("F2") == "fail"
        assert report.checks["F2"].witnesses[0][0] == 1
        assert report.status("F1") == "pass"
        assert report.status("F6") == "pass"

    def test_naive_fails_necessity(self, necessity_counterexample, late_first):
        from timereward import naive_time_division

        rewards = naive_time_division(necessity_counterexample, late_first)
        report = check_static(necessity_counterexample, late_first, rewards)
        assert report.status("F6") == "fail"
        assert report.status("F2") == "pass"

    def test_f7_f8_not_applicable_without_scheme(self, ir_counterexample, late_first):
        report = check_static(ir_counterexample, late_first, np.array([0.5, 0.5]))
        assert report.status("F7") == "not_applicable"
        assert report.status("F8") == "not_applicable"

    @pytest.mark.parametrize("seed", range(5))
    def test_cumulation_passes_f1_to_f6(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g = random_superadditive_game(n, seed + 200)
        times = random_times(rng, n)
        rewards = cumulation_scheme(1.0)(g, times)
        report = check_static(g, times, rewards)
        assert not report.failures

    def test_f3_symmetric_pair_fires_and_passes(self):
        g = symmetric_pair_game(seed=1)
        times = TimeVector.of((2, 2, 0))
        rewards = reward_time_valuation(g, times, 1.0)
        report = check_static(g, times, rewards)
        assert report.checks["F3"].instances == 1
        assert report.status("F3") == "pass"

    def test_f3_catches_unequal_rewards(self):
        g = symmetric_pair_game(seed=1)
        times = TimeVector.of((2, 2, 0))
        report = check_static(g, times, np.array([0.3, 0.4, 0.5]))
        assert report.status("F3") == "fail"

    def test_f4_fires_for_dominant_party(self):
        # party 1 strictly better than party 2 in every coalition
        g = make_table_game(
            3,
            {
                "1": 0.5, "2": 0.2, "3": 0.1,
                "1,2": 0.9, "1,3": 0.8, "2,3": 0.4,
                "1,2,3": 1.4,
            },
        )
        times = TimeVector.of((0, 0, 0))
        from timereward import shapley_exact

        phi = shapley_exact(g).values
        report = check_static(g, times, phi)
        assert report.checks["F4"].instances >= 1
        assert report.status("F4") == "pass"
        report_bad = check_static(g, times, np.array([0.2, 0.2, 0.2]))
        assert report_bad.status("F4") == "fail"

    def test_f4_incomparable_pair_skipped(self):
        # party 1 better alone, party 2 better with party 3: no direction
        g = make_table_game(
            3,
            {
                "1": 0.5, "2": 0.2, "3": 0.1,
                "1,2": 0.9, "1,3": 0.7, "2,3": 0.9,
                "1,2,3": 1.6,
            },
        )
        times = TimeVector.of((0, 0, 0))
        # pairs (1,3) and (2,3) do fire, so parties 1 and 2 must outearn 3
        report = check_static(g, times, np.array([0.6, 0.55, 0.3]))
        assert (1, 2) in report.checks["F4"].skipped
        assert report.status("F4") == "pass"

    def test_f5_useless_party(self):
        inner = random_superadditive_game(2, seed=4)
        g = Game(3, lambda mask: inner.value_mask(mask & 0b11))
        times = TimeVector.of((0, 1, 2))
        report = check_static(g, times, np.array([0.4, 0.4, 0.0]))
        assert report.checks["F5"].instances == 1
        assert report.status("F5") == "pass"
        report_bad = check_static(g, times, np.array([0.4, 0.4, 0.1]))
        assert report_bad.status("F5") == "fail"

    def test_preconditions_that_never_fire_pass(self, ir_counterexample, late_first):
        report = check_static(ir_counterexample, late_first, np.array([0.3, 0.3]))
        # different joining times: no equal-time pair exists
        assert report.checks["F3"].instances == 0
        assert report.status("F3") == "pass"
        assert report.checks["F5"].instances == 0

    def test_rewards_of_wrong_length(self, ir_counterexample, late_first):
        with pytest.raises(ValueError, match="rewards has 3 entries for an n=2 game"):
            check_static(ir_counterexample, late_first, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rewards_refused(self, bad, ir_counterexample):
        # a NaN reward used to pass F1-F6 with no witness
        with pytest.raises(ValueError, match="rewards must be finite"):
            check_static(ir_counterexample, TimeVector.of((0, 0)), [bad, 0.5])

    def test_too_large(self):
        g = Game(25, lambda m: 0.0)
        with pytest.raises(TooLarge):
            check_static(g, TimeVector.of((0,) * 25), np.zeros(25))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_bad_tolerance_rejected(tol, ir_counterexample, late_first):
    # a NaN tol used to let check_static report no failures on rewards [-5, 3]
    with pytest.raises(ValueError, match="tol"):
        check_static(ir_counterexample, late_first, np.array([-5.0, 3.0]), tol)
    with pytest.raises(ValueError, match="tol"):
        check_temporal(ir_counterexample, late_first, naive_scheme(), tol)
    with pytest.raises(ValueError, match="tol"):
        full_incentive_report(ir_counterexample, late_first, naive_scheme(), tol)
    with pytest.raises(ValueError, match="tol"):
        necessity_predicate(ir_counterexample, 1, 2, tol)


@pytest.mark.parametrize(
    "check",
    [
        check_axioms, necessity_predicate, check_static,
        check_temporal, full_incentive_report, check_weak_efficiency,
    ],
    ids=lambda check: check.__name__,
)
def test_every_check_defaults_to_the_one_tolerance(check):
    assert inspect.signature(check).parameters["tol"].default == DEFAULT_TOL == 1e-9


class TestCheckTemporal:
    def test_late_party_moving_earlier_gains(self, ir_counterexample, late_first):
        scheme = time_valuation_scheme(1.0)
        report = check_temporal(ir_counterexample, late_first, scheme)
        assert report.status("F7") == "pass"
        assert report.status("F8") == "pass"
        assert report.checks["F7"].instances == 4  # t1' in {0,1,2,3}
        # moving t1 to 0 lifts the reward to plain Shapley
        moved = scheme(ir_counterexample, TimeVector.of((0, 0))).rewards
        assert moved[0] == pytest.approx(0.5, abs=1e-12)

    def test_useless_party_holds_with_equality(self):
        inner = random_superadditive_game(2, seed=4)
        table = np.array([inner.value_mask(mask & 0b11) for mask in range(8)])
        g = Game(3, table=table)
        times = TimeVector.of((0, 0, 3))
        report = check_temporal(g, times, time_valuation_scheme(1.0))
        assert report.status("F7") == "pass"
        # useless party's reward is pinned at zero: F8 must not fire for it
        assert all(w[0] != 3 for w in report.checks["F8"].witnesses)

    @pytest.mark.parametrize("seed", range(4))
    def test_cumulation_beta_one_passes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g = random_superadditive_game(n, seed + 300)
        times = random_times(rng, n)
        report = check_temporal(g, times, cumulation_scheme(1.0))
        assert report.status("F7") == "pass"
        assert report.status("F8") == "pass"

    def test_zero_times_pass_vacuously(self, ir_counterexample):
        report = check_temporal(
            ir_counterexample, TimeVector.of((0, 0)), cumulation_scheme(1.0)
        )
        assert report.checks["F7"].instances == 0
        assert report.status("F7") == "pass"

    def test_plain_shapley_fails_strict_monotonicity(self, ir_counterexample, late_first):
        report = check_temporal(ir_counterexample, late_first, shapley_scheme())
        assert report.status("F7") == "pass"
        assert report.status("F8") == "fail"

    @pytest.mark.parametrize(
        "scheme",
        [cumulation_scheme(1.0), time_valuation_scheme(1.0), shapley_scheme(), naive_scheme()],
        ids=["cumulation", "timeval", "shapley", "naive"],
    )
    def test_discounted_scheme_is_not_rerun(self, scheme, ir_counterexample, late_first):
        def rerun(game, times):
            raise AssertionError("check_temporal re-ran a scheme that gives its own-time reward")

        report = check_temporal(ir_counterexample, late_first, replace(scheme, fn=rerun))
        assert report.to_dict() == check_temporal(ir_counterexample, late_first, scheme).to_dict()
        assert report.checks["F7"].instances == 4

    @pytest.mark.parametrize(
        "scheme",
        [cumulation_scheme(1.0), time_valuation_scheme(1.0), shapley_scheme(), naive_scheme()],
        ids=["cumulation", "timeval", "shapley", "naive"],
    )
    def test_two_dividend_passes_per_report(self, scheme, ir_counterexample, late_first, monkeypatch):
        # one for the scheme's rewards, one for every F7/F8 counterfactual
        # and the Shapley values behind rho; a report plus scale_rewards
        # used to make three
        passes = count_dividend_passes(monkeypatch)
        rewards, report = full_incentive_report(ir_counterexample, late_first, scheme)
        assert len(passes) == 2
        assert report.checks["F7"].instances == 4
        assert rewards.rho is not None

    @staticmethod
    def _with_phi(phi):
        base = shapley_scheme()
        return replace(base, own_time=lambda g, t: (phi, base.own_time(g, t)[1]))

    @pytest.mark.parametrize("phi", [np.ones(3), np.ones((2, 1)), np.float64(1.0)])
    def test_own_time_shapley_values_of_another_shape_are_refused(
        self, phi, ir_counterexample, late_first
    ):
        with pytest.raises(ValueError, match="phi has shape"):
            full_incentive_report(ir_counterexample, late_first, self._with_phi(phi))

    def test_own_time_shapley_values_may_be_a_list(self, ir_counterexample, late_first):
        rewards, _ = full_incentive_report(ir_counterexample, late_first, self._with_phi([1.0, 0.5]))
        assert rewards.rho == ir_counterexample.grand_value()

    @pytest.mark.parametrize(
        "scheme", [cumulation_scheme(1.0), time_valuation_scheme(1.0)], ids=["cumulation", "timeval"]
    )
    @pytest.mark.parametrize(
        "values,axiom",
        [({"1": -0.1, "2": 0.2, "1,2": 1.0}, "A1"), ({"1": 0.6, "2": 0.6, "1,2": 1.0}, "A3")],
    )
    def test_axioms_gate_the_sweep(self, scheme, values, axiom, late_first):
        with pytest.raises(AxiomViolation, match=f"^game fails {axiom} at tol 1e-09; "):
            check_temporal(make_table_game(2, values), late_first, scheme)


    @pytest.mark.parametrize(
        "scheme",
        [cumulation_scheme(0.5), cumulation_scheme(2.0), naive_scheme()],
        ids=["cumulation-0.5", "cumulation-2", "naive"],
    )
    def test_long_horizon_matches_reruns(self, scheme):
        # 10**5 counterfactuals of party 1: one own-time call, checked
        # against the scheme re-run at a few of them
        g = random_superadditive_game(4, 7)
        times = TimeVector.of((10**5, 0, 1, 2))
        report = check_temporal(g, times, scheme)
        assert report.checks["F7"].instances == 100003
        base = scheme(g, times).rewards[0]
        sampled = [0, 1, 40, 1000, 50_000, 99_999]
        _, reward = scheme.own_time(g, times)
        own_time = reward(1, np.array(sampled))
        witnesses = {
            w[2]: w for key in ("F7", "F8") for w in report.checks[key].witnesses if w[0] == 1
        }
        assert any(t_new in witnesses for t_new in sampled) or scheme.name == "naive"
        for t_new, got in zip(sampled, own_time):
            want = scheme(g, times.with_time(1, t_new)).rewards[0]
            assert abs(got - want) <= 1e-12 * max(1.0, g.grand_value())
            if t_new in witnesses:
                _, _, _, w_base, w_shifted = witnesses[t_new]
                assert abs(w_base - base) <= 1e-12 * max(1.0, g.grand_value())
                assert abs(w_shifted - want) <= 1e-12 * max(1.0, g.grand_value())

    @pytest.mark.parametrize(
        "make,param",
        [(cumulation_scheme, beta) for beta in (-1.0, 0.0, math.nan, math.inf)]
        + [(time_valuation_scheme, gamma) for gamma in (-1.0, math.nan, math.inf)],
    )
    def test_bad_parameter_refused_when_built(self, make, param):
        with pytest.raises(ValueError, match="beta|gamma"):
            make(param)


class TestTimeBasedEqualValueDesirability:
    @pytest.mark.parametrize("seed", range(4))
    def test_earlier_symmetric_party_earns_at_least_as_much(self, seed):
        g = symmetric_pair_game(seed)
        times = TimeVector.of((1, 3, 0))  # party 1 earlier than its twin
        for scheme in (cumulation_scheme(1.0), time_valuation_scheme(1.0)):
            r = scheme(g, times).rewards
            assert r[0] >= r[1] - 1e-9


class TestFullReport:
    def test_merge_keeps_temporal_results(self, ir_counterexample, late_first):
        rewards, report = full_incentive_report(
            ir_counterexample, late_first, cumulation_scheme(1.0)
        )
        assert report.all_pass
        assert report.status("F7") == "pass"
        assert rewards.rewards == pytest.approx([0.26, 0.26])

    def test_naive_full_report_exits_with_failures(self, ir_counterexample, late_first):
        _, report = full_incentive_report(ir_counterexample, late_first, naive_scheme())
        assert "F2" in report.failures

    def test_to_dict_shape(self, ir_counterexample, late_first):
        _, report = full_incentive_report(
            ir_counterexample, late_first, cumulation_scheme(1.0)
        )
        doc = report.to_dict()
        assert set(doc) == {f"F{k}" for k in range(1, 9)}
        assert all("status" in v and "instances" in v for v in doc.values())

    @pytest.mark.parametrize("count", [1000, 1001])
    def test_to_dict_lists_at_most_1000_witnesses(self, count):
        check = IncentiveCheck(instances=count, witnesses=list(range(count)))
        doc = check.to_dict()
        assert doc["witnesses"] == list(range(1000))
        assert doc.get("witness_count") == (count if count > 1000 else None)
        assert len(check.witnesses) == count

    @pytest.mark.parametrize(
        "scheme",
        [cumulation_scheme(0.5), time_valuation_scheme(800.0), shapley_scheme(), naive_scheme()],
        ids=["cumulation", "timeval", "shapley", "naive"],
    )
    def test_witness_base_is_the_reported_reward(self, scheme):
        # the shapley scheme's witnesses used to re-sum the dividends in
        # another order and miss its own rewards in the last bits;
        # gamma = 800 floors every later ability, so timeval fails F8 too
        witnesses = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 5 + seed % 4
            times = random_times(rng, n, max_t=3)
            rewards, report = full_incentive_report(
                random_superadditive_game(n, seed), times, scheme
            )
            for key in ("F7", "F8"):
                for party, t, _, base, _ in report.checks[key].witnesses:
                    assert t == times[party - 1]
                    assert base == rewards.rewards[party - 1]
                    witnesses += 1
        # cumulation and naive pass F7/F8 on these games
        assert witnesses > 0 or scheme.name in ("cumulation", "naive")

    @pytest.mark.parametrize(
        "scheme", [cumulation_scheme(1.0), time_valuation_scheme(1.0)], ids=["cumulation", "timeval"]
    )
    def test_rho_is_within_a_few_ulps_of_scale_rewards(self, scheme):
        # rho takes phi from the own-time pass, scale_rewards from shapley_exact: the
        # two sum the dividends in other orders, so rho may differ in the last bits.
        # The largest gap measured over n = 3-12, 60 seeds and three schemes was
        # 14.2 ulps (at n = 12); the bound leaves twice that.
        bound = 32 * np.finfo(float).eps
        for n in range(3, 13):
            for seed in range(4):
                times = random_times(np.random.default_rng(seed), n, max_t=4)
                game = random_superadditive_game(n, seed)
                rewards, _ = full_incentive_report(game, times, scheme)
                want = scale_rewards(game, RewardVector(rewards.rewards))
                assert abs(rewards.rho - want.rho) <= bound * want.rho
                np.testing.assert_allclose(rewards.scaled, want.scaled, rtol=bound, atol=0)


ALL_SCHEMES = [
    cumulation_scheme(0.5),
    cumulation_scheme(2.0),
    time_valuation_scheme(0.7),
    naive_scheme(),
    shapley_scheme(),
]
SCHEME_IDS = ["cumulation-0.5", "cumulation-2", "timeval", "naive", "shapley"]


class TestSchemesAreOwnTimeAtRealTimes:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_rewards_are_own_time_at_real_times(self, scheme):
        rng = np.random.default_rng(23)
        for seed in range(100):
            n = int(rng.integers(2, 9))
            game, times = random_superadditive_game(n, seed), random_times(rng, n)
            _, reward = scheme.own_time(game, times)
            at_real_times = reward(np.arange(1, n + 1), times.as_array())
            assert np.array_equal(scheme(game, times).rewards, at_real_times)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_times_of_wrong_length_rejected(self, scheme, ir_counterexample):
        # the shapley scheme used to ignore its times and return phi
        with pytest.raises(ValueError, match="^times has 3 entries for an n=2 game$"):
            scheme(ir_counterexample, TimeVector.of((0, 0, 0)))


class TestEveryCheckFailing:
    """A game, times and a scheme on which all eight incentives fail."""

    @staticmethod
    def report():
        # v = 1[1, 2 in S] + 1[1, 2, 3 in S]: parties 1 and 2 are symmetric and
        # mutually necessary, party 1 outranks party 4, and party 4 is useless
        def value(mask):
            return float(mask & 0b011 == 0b011) + float(mask & 0b111 == 0b111)

        g = Game(4, table=[value(mask) for mask in range(16)])
        base = np.array([-1.0, 0.5, 0.0, 0.3])

        def own_time(game, times):
            # a reward that grows with the joining time fails F7 and F8
            return np.ones(4), lambda i, t: base[np.asarray(i) - 1] + np.asarray(t)

        scheme = RewardScheme("later-is-better", None, lambda g, t: _at_own_times(own_time, g, t), own_time)
        return full_incentive_report(g, TimeVector.of((0, 0, 2, 0)), scheme)

    def test_all_eight_fail(self):
        _, report = self.report()
        assert report.failures == [f"F{k}" for k in range(1, 9)]

    def test_witnesses_are_python_numbers(self):
        _, report = self.report()
        for key, check in report.checks.items():
            assert type(check.instances) is int, key
            for witness in check.witnesses + check.skipped:
                assert type(witness) is tuple, key
                assert all(type(x) in (int, float) for x in witness), (key, witness)
        # a numpy integer left in a witness would make this raise
        json.dumps(report.to_dict())


class TestWeakEfficiency:
    def test_scaled_rewards_reach_grand_value(self, ir_counterexample):
        from timereward import reward_cumulation

        rv = reward_cumulation(ir_counterexample, TimeVector.of((0, 0)), 1.0)
        scaled = scale_rewards(ir_counterexample, rv)
        assert check_weak_efficiency(ir_counterexample, scaled)

    def test_short_rewards_fail(self, ir_counterexample):
        assert not check_weak_efficiency(ir_counterexample, np.array([0.9, 0.8]))

    def test_single_party_game(self):
        g = make_table_game(1, {"1": 0.7})
        from timereward import RewardVector

        scaled = scale_rewards(g, RewardVector(np.array([0.7])))
        assert check_weak_efficiency(g, scaled)

    def test_nonzero_times_rejected(self, ir_counterexample, late_first):
        with pytest.raises(PreconditionViolated):
            check_weak_efficiency(
                ir_counterexample, np.array([1.0, 1.0]), times=late_first
            )

    def test_times_of_wrong_length_rejected(self, ir_counterexample):
        with pytest.raises(ValueError, match="times has 3 entries"):
            check_weak_efficiency(
                ir_counterexample, np.array([1.0, 1.0]), times=TimeVector.of((0, 0, 0))
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rewards_refused(self, bad):
        # a NaN reward used to answer False rather than be refused
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        with pytest.raises(ValueError, match="rewards must be finite"):
            check_weak_efficiency(g, [1.0, bad])
        with pytest.raises(ValueError, match="scaled rewards must be finite"):
            check_weak_efficiency(g, RewardVector([1.0, 0.5], scaled=[bad, 0.5]))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN or negative tol used to answer False for rewards that reach v(N) exactly
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        assert check_weak_efficiency(g, [1.0, 0.5], 1e-9)
        with pytest.raises(ValueError, match="tol"):
            check_weak_efficiency(g, [1.0, 0.5], tol)
