"""GP information gain, conditional-IG games, duals, and GP plumbing."""

import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_monotone_submodular
from oracles import conditional_ig_table_reference
from timereward import (
    Game,
    GpModel,
    NumericalFailure,
    check_axioms,
    conditional_ig_game,
    dual_game,
    gp_ig,
    gp_predict,
    ig_game,
    make_gp_model,
    shapley_exact,
)
from timereward.synthdata import Dataset
from timereward.valuation import (
    _robust_cholesky,
    information_gain,
    load_gp_config,
    se_kernel,
)


def three_party_model(seed=0, points_per_party=4, noise=0.1) -> GpModel:
    rng = np.random.default_rng(seed)
    m = 3 * points_per_party
    X = rng.uniform(size=(m, 2))
    ownership = np.repeat([1, 2, 3], points_per_party)
    return GpModel(X, ownership, np.array([0.5, 0.5]), 1.0, noise)


def ig_slogdet(model: GpModel, idx) -> float:
    """Independent log-det evaluation: 0.5 * log|I + Knoise^-1 K|."""
    idx = np.asarray(list(idx), dtype=int)
    if len(idx) == 0:
        return 0.0
    K = se_kernel(model.inputs[idx], model.lengthscales, model.signal_variance)
    noise = model.noise_vector()[idx]
    sign, logdet = np.linalg.slogdet(np.eye(len(idx)) + K / noise[:, None])
    assert sign > 0
    return 0.5 * logdet


class TestGpIg:
    def test_empty_set(self):
        assert gp_ig(three_party_model(), []) == 0.0

    def test_single_unit_point(self):
        m = GpModel(np.zeros((1, 1)), np.array([1]), np.array([1.0]), 1.0, 1.0)
        assert gp_ig(m, [0]) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_distant_points_decouple(self):
        X = np.arange(6, dtype=float)[:, None] * 200.0
        m = GpModel(X, np.ones(6, dtype=int), np.array([1.0]), 1.0, 1.0)
        expected = ig_slogdet(m, range(6))
        got = gp_ig(m, range(6))
        assert got == pytest.approx(expected, abs=1e-10)
        assert got == pytest.approx(6 * 0.5 * math.log(2.0), abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_slogdet_oracle(self, seed):
        m = three_party_model(seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(5):
            size = int(rng.integers(1, m.n_points + 1))
            idx = rng.choice(m.n_points, size=size, replace=False)
            assert gp_ig(m, idx) == pytest.approx(ig_slogdet(m, idx), abs=1e-9)

    def test_heteroscedastic_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(8, 2))
        noise = rng.uniform(0.05, 2.0, size=8)
        m = GpModel(X, np.repeat([1, 2], 4), np.array([0.7, 0.7]), 1.3, noise)
        idx = [0, 2, 5, 7]
        assert gp_ig(m, idx) == pytest.approx(ig_slogdet(m, idx), abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_set_inclusion(self, seed):
        m = three_party_model(seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m.n_points)
        prev = 0.0
        for size in range(1, m.n_points + 1):
            cur = gp_ig(m, perm[:size])
            assert cur >= prev - 1e-10
            prev = cur

    def test_rejects_bad_indices(self):
        m = three_party_model()
        with pytest.raises(ValueError):
            gp_ig(m, [0, 0])
        with pytest.raises(ValueError):
            gp_ig(m, [m.n_points])

    @pytest.mark.parametrize(
        "points,message",
        [
            ([12], "point index 12 is not one of the points 0..11"),
            ([-1], "point index -1 is not one of the points 0..11"),
            ([0, math.nan], "point index nan is not one of the points 0..11"),
            ([1, 3, 1], "point index 1 is given more than once"),
            ([1.7], "point index 1.7 is not a whole number"),
            (["1"], "point indices must be whole numbers, got ['1']"),
        ],
    )
    def test_gp_ig_and_gp_predict_share_one_index_check(self, points, message):
        # gp_predict used to read -1 as the last point, and gp_ig read 1.7 as point 1
        m = three_party_model()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gp_ig(m, points)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gp_predict(m, np.zeros(12), points, m.inputs)

    def test_whole_float_indices_are_taken(self):
        m = three_party_model()
        assert gp_ig(m, np.array([1.0, 4.0])) == gp_ig(m, [1, 4])


class TestConditionalIgGame:
    def test_grand_coalition_is_total_ig(self):
        m = three_party_model()
        game = conditional_ig_game(m)
        assert game.grand_value() == pytest.approx(
            gp_ig(m, range(m.n_points)), abs=1e-12
        )
        assert game.value([]) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_passes_axioms(self, seed):
        game = conditional_ig_game(three_party_model(seed))
        assert check_axioms(game, 1e-8).all_ok

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_dual_of_plain_ig(self, seed):
        m = three_party_model(seed)
        cond = conditional_ig_game(m)
        dual = dual_game(ig_game(m))
        for mask in range(1 << m.n_parties):
            assert cond.value_mask(mask) == pytest.approx(
                dual.value_mask(mask), abs=1e-9
            )

    def test_party_without_points_is_useless(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(6, 1))
        m = GpModel(X, np.array([1, 1, 1, 3, 3, 3]), np.array([1.0]), 1.0, 0.5)
        game = conditional_ig_game(m)
        assert game.n == 3
        for mask in (0b000, 0b001, 0b100, 0b101):
            assert game.value_mask(mask | 0b010) == pytest.approx(
                game.value_mask(mask), abs=1e-12
            )

    def test_near_singular_model_matches_per_coalition_ig(self):
        # points repeated within and across parties at noise 1e-9, and party 2 owns none
        rng = np.random.default_rng(0)
        base = rng.uniform(size=(4, 2))
        X = np.vstack([base, base[:2], base[1:], rng.uniform(size=(2, 2)), base[[0, 3]]])
        own = np.repeat([1, 3, 4, 5], [4, 5, 2, 2])
        m = GpModel(X, own, np.array([0.5, 0.5]), 1.0, 1e-9)
        table = ig_game(m).table()
        plain = np.array([gp_ig(m, m.points_of_mask(mask)) for mask in range(len(table))])
        assert np.max(np.abs(table - plain)) <= 1e-6 * np.max(np.abs(plain))

    def test_eight_parties_with_first_empty_match_reference(self):
        rng = np.random.default_rng(8)
        own = np.repeat(np.arange(2, 9), rng.integers(1, 5, size=7))
        X = rng.uniform(size=(len(own), 3))
        noise = rng.uniform(0.01, 0.5, size=len(own))
        m = GpModel(X, own, np.array([0.4, 0.6, 0.8]), 1.5, noise)
        reference = conditional_ig_table_reference(m)
        assert m.n_parties == 8 and len(m.points_of([1])) == 0
        got = conditional_ig_game(m).table()
        assert np.max(np.abs(got - reference)) <= 1e-10 * max(1.0, reference[-1])

    def test_table_holds_few_kernel_sized_arrays(self):
        # a new Schur complement per level would hold ~3.8 kernels at once here
        import tracemalloc

        rng = np.random.default_rng(0)
        own = np.repeat(np.arange(1, 9), 40)
        m = GpModel(rng.uniform(size=(len(own), 3)), own, np.ones(3), 1.0, 0.05)
        tracemalloc.start()
        try:
            ig_game(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * len(own) ** 2 * 8


class TestDualGame:
    def test_definition_and_type(self):
        base = random_monotone_submodular(np.random.default_rng(0), 4)
        dual = dual_game(base)
        assert type(dual) is Game
        assert dual.n == base.n
        assert dual.value([]) == 0.0
        assert dual.grand_value() == pytest.approx(base.grand_value(), abs=1e-12)
        full = base.grand_mask
        for mask in range(1 << 4):
            expected = base.grand_value() - base.value_mask(full ^ mask)
            assert dual.value_mask(mask) == pytest.approx(expected, abs=1e-12)

    def test_zero_when_complement_keeps_full_value(self):
        # party 3 adds nothing, so dropping it costs nothing
        table = {"1": 1.0, "2": 1.0, "3": 0.0, "1,2": 2.0, "1,3": 1.0, "2,3": 1.0, "1,2,3": 2.0}
        from timereward import make_table_game

        dual = dual_game(make_table_game(3, table))
        assert dual.value([3]) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_dual_of_submodular_passes_axioms(self, seed):
        base = random_monotone_submodular(np.random.default_rng(seed), 5)
        assert check_axioms(dual_game(base), 1e-9).all_ok

    def test_dual_of_plain_ig_passes_axioms(self):
        dual = dual_game(ig_game(three_party_model(1)))
        assert check_axioms(dual, 1e-8).all_ok

    @pytest.mark.parametrize("seed", range(6))
    def test_shapley_equivalence(self, seed):
        base = random_monotone_submodular(np.random.default_rng(seed), 6)
        phi_base = shapley_exact(base).values
        phi_dual = shapley_exact(dual_game(base)).values
        assert np.max(np.abs(phi_base - phi_dual)) <= 1e-9


class TestGpModelValidation:
    def test_bad_hyperparameters(self):
        X = np.zeros((2, 1))
        own = np.array([1, 2])
        with pytest.raises(ValueError):
            GpModel(X, own, np.array([0.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            GpModel(X, own, np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            GpModel(X, own, np.array([1.0]), 1.0, -1.0)
        with pytest.raises(ValueError):
            GpModel(X, np.array([0, 1]), np.array([1.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            GpModel(X, own, np.array([1.0]), 1.0, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field", ["inputs", "lengthscales", "signal_variance", "noise_variance", "point_noise"]
    )
    def test_non_finite_rejected(self, field, bad):
        # inf noise used to give every IG 0; NaN was only caught deep in a factorization
        args = {
            "inputs": np.zeros((2, 1)),
            "ownership": np.array([1, 2]),
            "lengthscales": np.array([1.0]),
            "signal_variance": 1.0,
            "noise_variance": 1.0,
        }
        if field == "inputs":
            args["inputs"][1, 0] = bad
        elif field == "lengthscales":
            args["lengthscales"][0] = bad
        elif field == "point_noise":
            args["noise_variance"] = np.array([1.0, bad])
        else:
            args[field] = bad
        with pytest.raises(ValueError, match="finite"):
            GpModel(**args)

    def test_arrays_are_read_only_copies(self):
        X = np.zeros((2, 1))
        noise = np.array([0.1, 0.2])
        m = GpModel(X, np.array([1, 2]), np.array([1.0]), 1.0, noise)
        X[0, 0] = 5.0
        noise[0] = 9.0
        assert m.inputs[0, 0] == 0.0 and m.noise_vector()[0] == 0.1
        with pytest.raises(ValueError):
            m.inputs[0, 0] = 1.0

    def test_points_of(self):
        m = three_party_model(points_per_party=2)
        assert list(m.points_of([2])) == [2, 3]
        assert list(m.points_of_mask(0b101)) == [0, 1, 4, 5]


class TestRobustCholesky:
    def test_jitter_rescues_semidefinite(self):
        singular = np.ones((3, 3))
        L = _robust_cholesky(singular)
        assert_allclose(L @ L.T, singular, atol=1e-3)

    def test_indefinite_fails(self):
        with pytest.raises(NumericalFailure):
            _robust_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_information_gain_of_duplicated_rows(self):
        # duplicated inputs give a singular kernel; IG must still work
        X = np.zeros((3, 1))
        K = se_kernel(X, np.array([1.0]), 1.0)
        got = information_gain(K, np.full(3, 0.5))
        expected = 0.5 * math.log(1.0 + 3.0 / 0.5)
        assert got == pytest.approx(expected, abs=1e-6)


class TestGpPlumbing:
    def test_make_gp_model_drops_unassigned(self):
        X = np.arange(8, dtype=float)[:, None]
        data = Dataset(X, np.zeros(8), np.array([1, 0, 2, 0, 1, 2, 0, 1]))
        m = make_gp_model(data, noise_variance=0.2)
        assert m.n_points == 5
        assert m.n_parties == 2

    @pytest.mark.parametrize("length", [5, 7])
    def test_make_gp_model_rejects_noise_list_of_wrong_length(self, length):
        # the list used to be indexed by the assignment mask first: IndexError
        X = np.arange(6, dtype=float)[:, None]
        data = Dataset(X, np.zeros(6), np.array([1, 0, 2, 2, 1, 0]))
        with pytest.raises(ValueError, match="noise_variance has"):
            make_gp_model(data, noise_variance=np.full(length, 0.1))
        m = make_gp_model(data, noise_variance=np.arange(1.0, 7.0))
        assert_allclose(m.noise_vector(), [1.0, 3.0, 4.0, 5.0])

    def test_load_gp_config(self, tmp_path):
        path = tmp_path / "gp.json"
        path.write_text(
            '{"lengthscales": [1.0, 2.0], "signal_variance": 1.5, "noise_variance": 0.1}'
        )
        config = load_gp_config(path)
        assert_allclose(config["lengthscales"], [1.0, 2.0])
        assert config["signal_variance"] == 1.5
        assert config["noise_variance"] == 0.1

    def test_load_gp_config_rejects_repeated_key(self, tmp_path):
        # json alone keeps the last value: signal variance 50 used to pass silently
        path = tmp_path / "gp.json"
        path.write_text('{"signal_variance": 1.0, "signal_variance": 50.0}')
        with pytest.raises(ValueError, match="GP config file names key 'signal_variance' twice"):
            load_gp_config(path)

    @pytest.mark.parametrize("key", ["signal_varianec", "lengthscale", "noise"])
    def test_load_gp_config_rejects_unknown_key(self, key, tmp_path):
        # a misspelled setting used to fall back to its default silently
        path = tmp_path / "gp.json"
        path.write_text(json.dumps({"signal_variance": 2.0, key: 50.0}))
        with pytest.raises(ValueError, match=f"GP config file has unknown field '{key}'"):
            load_gp_config(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_gp_predict_rejects_bad_point_noise(self, bad):
        m = three_party_model()
        y = np.zeros(m.n_points)
        with pytest.raises(ValueError, match="noise"):
            gp_predict(m, y, range(3), m.inputs[:2], point_noise=np.array([0.1, bad, 0.1]))

    def test_gp_predict_interpolates_with_tiny_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(10, 1))
        y = np.sin(3.0 * X[:, 0])
        m = GpModel(X, np.ones(10, dtype=int), np.array([0.5]), 1.0, 1e-8)
        pred = gp_predict(m, y, range(10), X)
        assert np.max(np.abs(pred.mean - y)) < 1e-4
        assert np.all(pred.variance > 0)
