"""GP information gain, conditional-IG games, duals, and GP plumbing."""

import json
import math
import re

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import random_monotone_submodular
from oracles import (
    conditional_ig_table_reference,
    gp_posterior_reference,
    ig_table_walk_reference,
    scipy_cholesky_reference,
)
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
from timereward import valuation
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
            # numpy reads [True, 2] as [1, 2], so the list is checked before it
            ([True, 2], "point indices must be whole numbers, got [True, 2]"),
            ((2, np.True_), "point indices must be whole numbers, got [2, np.True_]"),
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

    @pytest.mark.parametrize(
        "inputs,ownership,message",
        [
            (np.zeros(2), [1, 2], "inputs must be a 2-d design matrix"),
            (np.zeros((2, 1)), [1, 2, 2], "ownership must assign every design point"),
            (np.zeros((3, 1)), [1, 2], "ownership must assign every design point"),
        ],
        ids=["1-d-inputs", "ownership-too-long", "ownership-too-short"],
    )
    def test_shapes_refused(self, inputs, ownership, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GpModel(inputs, np.array(ownership), np.array([1.0]), 1.0, 1.0)

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

    @pytest.mark.parametrize(
        "signal,noise",
        [(1e300, 1e-300), (1.0, 5e-324), (1e307, np.array([1.0, 0.1]))],
        ids=["both-extreme", "subnormal-noise", "per-point-noise"],
    )
    def test_signal_to_noise_past_the_float_range_rejected(self, signal, noise):
        # the whitened kernel used to overflow, and its IG came out NaN
        with pytest.raises(ValueError, match="^signal_variance .* smallest noise_variance"):
            GpModel(np.zeros((2, 1)), np.array([1, 2]), np.array([1.0]), signal, noise)

    def test_signal_to_noise_inside_the_float_range_accepted(self):
        m = GpModel(np.array([[0.0], [10.0]]), np.array([1, 2]), np.array([1.0]), 1e305, 1.0)
        assert np.isfinite(ig_game(m).table()).all()

    @pytest.mark.parametrize(
        "ownership,message",
        [
            ([1.7, 2.2], "party index 1.7 is not a whole number"),
            ([1.0, np.nan], "party index nan is not a whole number"),
            (np.array([True, True]), "party indices must be whole numbers, got [True, True]"),
            # used to be read as parties [1, 2]
            ([True, 2], "party indices must be whole numbers, got [True, 2]"),
        ],
    )
    def test_ownership_of_whole_numbers_only(self, ownership, message):
        # [1.7, 2.2] used to be truncated to parties [1, 2], and True read as party 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GpModel(np.zeros((2, 1)), ownership, np.array([1.0]), 1.0, 1.0)
        whole = GpModel(np.zeros((2, 1)), [1.0, 2.0], np.array([1.0]), 1.0, 1.0)
        assert whole.ownership.tolist() == [1, 2]

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

    @pytest.mark.parametrize("party", [0, 4, -1, 1.0])
    def test_points_of_refuses_unknown_party(self, party):
        # 0 and 4 used to give an empty point set
        m = three_party_model(points_per_party=2)
        with pytest.raises(ValueError, match=f"^party {party!r} is not"):
            m.points_of([2, party])

    @pytest.mark.parametrize("mask", [True, 1.0])
    def test_points_of_mask_refuses_a_mask_that_is_not_an_integer(self, mask):
        # True used to give party 1's points
        m = three_party_model(points_per_party=2)
        with pytest.raises(ValueError, match=f"^mask {mask!r} is not an integer$"):
            m.points_of_mask(mask)

    @pytest.mark.parametrize("mask", [8, 16, -1])
    def test_points_of_mask_refuses_unknown_mask(self, mask):
        m = three_party_model(points_per_party=2)
        with pytest.raises(ValueError, match=f"^mask {mask} is not a coalition of the parties 1..3$"):
            m.points_of_mask(mask)
        assert list(m.points_of_mask(0)) == []


class TestRobustCholesky:
    def test_jitter_rescues_semidefinite(self):
        singular = np.ones((3, 3))
        L = _robust_cholesky(singular)
        assert_allclose(L @ L.T, singular, atol=1e-3)

    def test_indefinite_fails(self):
        with pytest.raises(NumericalFailure):
            _robust_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("diagonal", [[-1.0, -2.0], [0.0, 0.0], [1.0, -3.0]])
    def test_non_positive_diagonal_refused_before_any_jitter(self, diagonal):
        with pytest.raises(NumericalFailure, match="^matrix diagonal is not positive$"):
            _robust_cholesky(np.diag(diagonal))

    def test_factor_is_lapack_potrf_bit_for_bit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 30))
        spd = X @ X.T + np.eye(30)
        assert np.array_equal(_robust_cholesky(spd), scipy.linalg.cholesky(spd, lower=True))
        # a view of a block, as the IG walk passes it
        assert np.array_equal(
            _robust_cholesky(spd[5:20, 5:20]), scipy.linalg.cholesky(spd[5:20, 5:20], lower=True)
        )
        singular = np.ones((3, 3))
        assert np.array_equal(_robust_cholesky(singular), scipy_cholesky_reference(singular))

    def test_information_gain_of_duplicated_rows(self):
        # duplicated inputs give a singular kernel; IG must still work
        X = np.zeros((3, 1))
        K = se_kernel(X, np.array([1.0]), 1.0)
        got = information_gain(K, np.full(3, 0.5))
        expected = 0.5 * math.log(1.0 + 3.0 / 0.5)
        assert got == pytest.approx(expected, abs=1e-6)


class TestInformationGainInput:
    @pytest.mark.parametrize(
        "K,noise,message",
        [
            # an infinite noise was read as "contributes nothing"
            (np.eye(2), [1.0, math.inf], "noise variances must be positive and finite, got inf"),
            # a negative noise raised a numpy RuntimeWarning, then scipy's error
            (np.eye(2), [1.0, -0.5], "noise variances must be positive and finite, got -0.5"),
            (np.eye(2), [0.0, 1.0], "noise variances must be positive and finite, got 0.0"),
            (np.eye(2), [math.nan, 1.0], "noise variances must be positive and finite, got nan"),
            (np.eye(2), [1.0], "need one noise variance per row of K: (1,) for 2 rows"),
            (np.eye(2), 1.0, "need one noise variance per row of K: () for 2 rows"),
            (np.array([[1.0, math.nan], [math.nan, 1.0]]), [1.0, 1.0], "K must be finite"),
            (np.ones((2, 3)), [1.0, 1.0], "K must be a square matrix, got shape (2, 3)"),
            (np.ones(2), [1.0, 1.0], "K must be a square matrix, got shape (2,)"),
        ],
        ids=["inf-noise", "negative-noise", "zero-noise", "nan-noise", "short-noise",
             "scalar-noise", "nan-K", "non-square-K", "vector-K"],
    )
    def test_refused_at_entry(self, K, noise, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            information_gain(K, noise)

    def test_empty_and_valid_inputs(self):
        assert information_gain(np.zeros((0, 0)), np.zeros(0)) == 0.0
        assert information_gain(np.eye(2), [1.0, 1.0]) == pytest.approx(math.log(2.0))


class TestIgTableWalk:
    @pytest.mark.parametrize("parties,points", [(8, 80), (12, 5)])
    def test_equals_the_scipy_wrapper_walk_bit_for_bit(self, parties, points):
        rng = np.random.default_rng(parties)
        own = np.repeat(np.arange(1, parties + 1), points)
        noise = rng.uniform(0.02, 0.3, size=len(own))
        m = GpModel(rng.uniform(size=(len(own), 3)), own, np.array([0.5, 0.8, 1.1]), 1.2, noise)
        assert np.array_equal(ig_game(m).table(), ig_table_walk_reference(m))

    def test_reads_only_the_lower_triangle_of_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(5)
        own = np.repeat(np.arange(1, 6), [6, 0, 4, 9, 3])
        m = GpModel(rng.uniform(size=(len(own), 2)), own, np.array([0.4, 0.7]), 1.3, 0.05)
        clean = ig_game(m).table()
        whitened = valuation._whitened_kernel

        def poisoned(model, idx):
            K = whitened(model, idx)
            K[np.triu_indices_from(K, 1)] = np.nan
            return K

        monkeypatch.setattr(valuation, "_whitened_kernel", poisoned)
        assert np.array_equal(ig_game(m).table(), clean)

    def test_uneven_parties_match_per_coalition_ig(self):
        # an empty middle party and a 3-point party among large ones
        rng = np.random.default_rng(11)
        own = np.repeat(np.arange(1, 6), [40, 7, 0, 90, 3])
        X = rng.uniform(size=(len(own), 3))
        m = GpModel(X, own, np.array([0.5, 0.8, 1.1]), 1.2, rng.uniform(0.02, 0.3, size=len(own)))
        table = ig_game(m).table()
        plain = np.array([gp_ig(m, m.points_of_mask(mask)) for mask in range(len(table))])
        assert np.max(np.abs(table - plain)) <= 1e-10 * np.max(np.abs(plain))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gp_predict_refuses_a_non_finite_conditioning_target(self, bad):
        # used to be refused only by scipy's finite scan inside a triangular solve
        m = three_party_model()
        y = np.zeros(m.n_points)
        y[1] = bad
        with pytest.raises(ValueError, match=r"^targets must be finite at the conditioning points"):
            gp_predict(m, y, range(3), m.inputs[:2])

    def test_gp_predict_reads_no_target_outside_the_conditioning_set(self):
        m = three_party_model()
        y = np.zeros(m.n_points)
        y[5] = np.nan
        pred = gp_predict(m, y, range(3), m.inputs[:2])
        assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gp_predict_refuses_a_non_finite_x_test(self, bad):
        m = three_party_model()
        X_test = np.zeros((2, 2))
        X_test[1, 0] = bad
        with pytest.raises(ValueError, match="^X_test must be finite$"):
            gp_predict(m, np.zeros(m.n_points), range(3), X_test)

    @pytest.mark.parametrize("length", [0, 11, 13])
    def test_gp_predict_needs_one_target_per_model_point(self, length):
        # a longer vector used to be read by point index, a shorter one to fail inside numpy
        m = three_party_model()
        with pytest.raises(ValueError, match=r"^targets has shape .*one target per model point"):
            gp_predict(m, np.zeros(length), range(3), m.inputs)

    def test_gp_predict_refuses_a_target_matrix(self):
        m = three_party_model()
        with pytest.raises(ValueError, match=r"^targets has shape \(12, 1\)"):
            gp_predict(m, np.zeros((12, 1)), range(3), m.inputs)

    @pytest.mark.parametrize(
        "shape", [(4, 3), (4, 1), (2,), (1, 2, 2)], ids=["3-cols", "1-col", "1-d", "3-d"]
    )
    def test_gp_predict_names_a_misshapen_x_test(self, shape):
        # a wrong feature count used to fail inside numpy's matmul, naming no input
        m = three_party_model()
        message = rf"^X_test has shape {re.escape(str(shape))}, expected 2-d with 2 columns$"
        with pytest.raises(ValueError, match=message):
            gp_predict(m, np.zeros(12), range(3), np.zeros(shape))

    def test_gp_predict_interpolates_with_tiny_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(10, 1))
        y = np.sin(3.0 * X[:, 0])
        m = GpModel(X, np.ones(10, dtype=int), np.array([0.5]), 1.0, 1e-8)
        pred = gp_predict(m, y, range(10), X)
        assert np.max(np.abs(pred.mean - y)) < 1e-4
        assert np.all(pred.variance > 0)


def _models_for_gp_predict():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(13, 2))
    unequal = np.repeat([1, 2, 3], [2, 7, 4])
    yield "heteroscedastic", GpModel(
        X, unequal, np.array([0.4, 0.7]), 1.3, rng.uniform(0.01, 0.5, size=13)
    )
    yield "unequal-sizes", GpModel(X, unequal, np.array([0.5, 0.5]), 1.0, 0.05)


@pytest.mark.parametrize(
    "name,model", list(_models_for_gp_predict()), ids=[name for name, _ in _models_for_gp_predict()]
)
def test_gp_predict_matches_the_joint_kernel_solve(name, model):
    rng = np.random.default_rng(7)
    targets = rng.normal(size=model.n_points)
    test_X = rng.uniform(size=(6, 2))
    noise = model.noise_vector()
    for points in (*(model.points_of([p]) for p in (1, 2, 3)), np.arange(model.n_points)):
        got = gp_predict(model, targets, points, test_X)
        want = gp_posterior_reference(model, targets, points, noise[points], test_X)
        assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-9 * np.abs(want.mean).max())
        assert_allclose(got.variance, want.variance, rtol=1e-9)
