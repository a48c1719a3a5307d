"""Friedman generation, partitioning, standardization, MNLP, CSV round-trips."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timereward import (
    Dataset,
    LengthMismatch,
    PredictiveDistribution,
    SizesExceedData,
    ZeroVariance,
    gen_friedman,
    mnlp,
    partition,
    standardize,
    train_test_split,
)
from timereward.synthdata import friedman_signal, load_dataset_csv, save_dataset_csv


class TestFriedman:
    def test_midpoint_value(self):
        x = np.full((1, 6), 0.5)
        expected = 10.0 * math.sin(math.pi * 0.25) + 5.0 + 2.5
        assert friedman_signal(x)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(14.5711, abs=1e-4)

    def test_zero_response_point(self):
        x = np.array([[0.0, 0.3, 0.5, 0.0, 0.0, 0.9]])
        assert friedman_signal(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_sixth_feature_is_inert(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(20, 6))
        perturbed = x.copy()
        perturbed[:, 5] = rng.uniform(size=20)
        assert_allclose(friedman_signal(x), friedman_signal(perturbed), atol=0)

    def test_noiseless_targets_match_formula(self):
        data = gen_friedman(1000, noise_std=0.0, seed=5)
        X = data.features
        expected = (
            10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3]
            + 5.0 * X[:, 4]
        )
        assert np.max(np.abs(data.targets - expected)) <= 1e-12

    def test_deterministic_and_noise_scales(self):
        a = gen_friedman(200, noise_std=1.0, seed=9)
        b = gen_friedman(200, noise_std=1.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        clean = gen_friedman(200, noise_std=0.0, seed=9)
        noise = a.targets - clean.targets
        assert 0.5 < noise.std() < 1.5

    def test_features_in_unit_cube(self):
        data = gen_friedman(500, seed=1)
        assert data.features.shape == (500, 6)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_friedman(0, seed=0)
        with pytest.raises(ValueError):
            gen_friedman(10, noise_std=-1.0, seed=0)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                gen_friedman(10, noise_std=noise, seed=0)

    def test_noise_past_the_float_range_refused(self):
        # infinite targets used to be drawn, with a RuntimeWarning
        message = r"^noise_std 1e\+308 gives targets past the float range$"
        with pytest.raises(ValueError, match=message):
            gen_friedman(50, noise_std=1e308, seed=0)
        assert np.isfinite(gen_friedman(50, noise_std=1e200, seed=0).targets).all()

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
    def test_count_is_an_integer(self, count):
        # 2.5 used to raise a bare TypeError, and True to draw one point
        message = f"^count must be an integer, got {re.escape(repr(count))}$"
        with pytest.raises(ValueError, match=message):
            gen_friedman(count, seed=0)
        assert len(gen_friedman(np.int64(3), seed=0)) == 3


class TestPartition:
    def test_uneven_three_party_sizes(self):
        data = gen_friedman(1000, seed=2)
        split = partition(data, (300, 300, 200), seed=3)
        counts = np.bincount(split.party, minlength=4)
        assert list(counts) == [200, 300, 300, 200]
        assert split.n_parties == 3

    def test_single_party_takes_all(self):
        data = gen_friedman(50, seed=2)
        split = partition(data, (50,), seed=0)
        assert np.all(split.party == 1)

    def test_deterministic(self):
        data = gen_friedman(100, seed=2)
        a = partition(data, (40, 30), seed=7)
        b = partition(data, (40, 30), seed=7)
        assert np.array_equal(a.party, b.party)

    def test_sizes_exceed_data(self):
        data = gen_friedman(10, seed=2)
        with pytest.raises(SizesExceedData):
            partition(data, (6, 6), seed=0)

    @pytest.mark.parametrize("sizes", [[2.7, 3.2], [True, 2], ["2", 3]])
    def test_sizes_are_integers(self, sizes):
        # each used to be truncated or cast: [2.7, 3.2] assigned 2 and 3 points
        data = gen_friedman(10, seed=2)
        message = f"^sizes must be integers, got {re.escape(repr(sizes[0]))}$"
        with pytest.raises(ValueError, match=message):
            partition(data, sizes, seed=0)
        assert np.bincount(partition(data, [np.int64(2), 3], seed=0).party).tolist() == [5, 2, 3]

    def test_disjoint_assignment(self):
        data = gen_friedman(100, seed=4)
        split = partition(data, (30, 30, 30), seed=1)
        assigned = np.flatnonzero(split.party > 0)
        assert len(assigned) == 90
        assert len(set(assigned)) == 90


class TestTrainTestSplit:
    def test_eighty_twenty(self):
        data = gen_friedman(1000, seed=0)
        train, test = train_test_split(data, 0.2, seed=1)
        assert len(train) == 800 and len(test) == 200

    def test_deterministic_partition_of_rows(self):
        data = gen_friedman(100, seed=0)
        train_a, test_a = train_test_split(data, 0.2, seed=5)
        train_b, test_b = train_test_split(data, 0.2, seed=5)
        assert np.array_equal(train_a.features, train_b.features)
        assert np.array_equal(test_a.targets, test_b.targets)
        combined = len(train_a) + len(test_a)
        assert combined == len(data)


class TestStandardize:
    def test_two_point_example(self):
        out, mean, std = standardize(np.array([0.0, 2.0]))
        assert mean == 1.0 and std == 1.0
        assert_allclose(out, [-1.0, 1.0])

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVariance):
            standardize(np.full(5, 3.3))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        y = rng.normal(5.0, 2.0, size=100)
        out, mean, std = standardize(y)
        assert np.max(np.abs(out * std + mean - y)) <= 1e-12

    def test_output_moments(self):
        rng = np.random.default_rng(9)
        out, _, _ = standardize(rng.uniform(size=500) * 7 + 3)
        assert abs(out.mean()) <= 1e-9
        assert abs(np.mean(out**2) - 1.0) <= 1e-9


class TestMnlp:
    def test_zero_at_matching_variance(self):
        pred = PredictiveDistribution(np.array([1.0]), np.array([1.0 / (2 * math.pi)]))
        assert mnlp(pred, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_perfect_mean(self):
        pred = PredictiveDistribution(np.zeros(3), np.ones(3))
        assert mnlp(pred, np.zeros(3)) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)
        assert mnlp(pred, np.zeros(3)) == pytest.approx(0.918939, abs=1e-6)

    def test_widening_variance_increases_mnlp(self):
        narrow = PredictiveDistribution(np.zeros(4), np.ones(4))
        wide = PredictiveDistribution(np.zeros(4), 2.0 * np.ones(4))
        truths = np.zeros(4)
        assert mnlp(wide, truths) > mnlp(narrow, truths)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=10)
        var = rng.uniform(0.5, 2.0, size=10)
        y = rng.normal(size=10)
        base = mnlp(PredictiveDistribution(mu, var), y)
        shifted = mnlp(PredictiveDistribution(mu + 11.5, var), y + 11.5)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        pred = PredictiveDistribution(np.zeros(3), np.ones(3))
        with pytest.raises(LengthMismatch):
            mnlp(pred, np.zeros(4))

    def test_no_points_rejected(self):
        # the mean over no points used to be nan, with two RuntimeWarnings
        pred = PredictiveDistribution(np.zeros(0), np.ones(0))
        with pytest.raises(ValueError, match="MNLP needs at least one point"):
            mnlp(pred, np.zeros(0))

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            PredictiveDistribution(np.zeros(2), np.array([1.0, 0.0]))


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        data = partition(gen_friedman(40, seed=3), (15, 15), seed=4)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path)
        assert_allclose(loaded.features, data.features, atol=0)
        assert_allclose(loaded.targets, data.targets, atol=0)
        assert np.array_equal(loaded.party, data.party)

    def test_byte_identical_writes(self, tmp_path):
        data = gen_friedman(25, seed=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(data, p1)
        save_dataset_csv(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x0,y,party\n\n0.1,0.5,1\n\n\n0.2,0.3,2\n\n")
        data = load_dataset_csv(path)
        assert data.features.tolist() == [[0.1], [0.2]]
        assert data.targets.tolist() == [0.5, 0.3]
        assert data.party.tolist() == [1, 2]

    def test_party_column_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n0.1,0.2\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_column_named_twice_rejected(self, tmp_path):
        # the second party column used to be taken as the target
        path = tmp_path / "dup.csv"
        path.write_text("x0,y,party,party\n0.1,0.5,1,1\n")
        with pytest.raises(ValueError, match="dataset CSV names column 'party' twice"):
            load_dataset_csv(path)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("0.1,0.5,1.5\n", "line 3 column 'party' is not an integer: '1.5'"),
            ("abc,0.5,1\n", "line 3 column 'x0' is not a number: 'abc'"),
            ("0.1,,1\n", "line 3 column 'y' is not a number: ''"),
        ],
        ids=["party", "feature", "target"],
    )
    def test_cell_not_a_number_names_line_and_column(self, rows, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y,party\n0.2,0.3,2\n" + rows)
        with pytest.raises(ValueError, match=f"dataset CSV {message}"):
            load_dataset_csv(path)

    def test_dataset_validation(self):
        with pytest.raises(LengthMismatch):
            Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros(3, dtype=int))

    @pytest.mark.parametrize(
        "party,message",
        [
            ([1.5, 0.2], "party index 1.5 is not a whole number"),
            (np.array([True, False]), "party indices must be whole numbers, got [True, False]"),
            # used to be read as parties [1, 2]
            ([True, 2], "party indices must be whole numbers, got [True, 2]"),
        ],
    )
    def test_dataset_party_of_whole_numbers_only(self, party, message):
        # [1.5, 0.2] used to be truncated to [1, 0], and True read as party 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((2, 1)), np.zeros(2), party)
        assert Dataset(np.zeros((2, 1)), np.zeros(2), [2.0, 0.0]).party.tolist() == [2, 0]
