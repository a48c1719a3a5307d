"""CLI subcommands, exit codes, and report formats."""

import base64
import contextlib
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_dividend_passes
from oracles import canonical_masks
from timereward import (
    Coalition, cli, games, load_game_json, random_superadditive_game, save_game_json,
)
from timereward.cli import (
    EXIT_CHECK_FAILED,
    EXIT_ERROR,
    EXIT_OK,
    REALIZATION_REPORT_SCHEMA,
    REWARD_REPORT_SCHEMA,
    main,
)
from timereward.games import DEFAULT_TOL


# a Friedman sweep small enough to run in a unit test, without its output flags
SMALL_SWEEP = [
    "experiment-friedman", "--seed", "0", "--count", "40", "--sizes", "10,10",
    "--t1-grid", "0,1", "--betas", "1", "--gammas", "1",
]

# a run of each command that writes a file, without the flag given last
EACH_OUTPUT_FLAG = pytest.mark.parametrize(
    "argv,flag",
    [
        (["rewards", "--game", "{game}", "--scheme", "naive"], "--out"),
        (["check", "--game", "{game}"], "--out"),
        (["shapley", "--game", "{game}"], "--out"),
        (["gen", "friedman", "--count", "20"], "--out"),
        (["realize", "--method", "subset", "--game", "{game}", "--party", "1",
          "--target", "0.5"], "--out"),
        (SMALL_SWEEP + ["--out-csv", "{dir}/rows.csv"], "--out"),
        (SMALL_SWEEP, "--out-csv"),
    ],
    ids=["rewards", "check", "shapley", "gen", "realize", "sweep-out", "sweep-out-csv"],
)


@pytest.fixture
def ir_game_file(tmp_path):
    path = tmp_path / "ir.json"
    save_game_json(path, 2, {"1": 0.2, "2": 0.2, "1,2": 1.0}, times=(4, 0))
    return str(path)


@pytest.fixture
def necessity_game_file(tmp_path):
    path = tmp_path / "nec.json"
    save_game_json(path, 2, {"1": 0.0, "2": 0.0, "1,2": 1.0}, times=(4, 0))
    return str(path)


class TestRewardsCommand:
    def test_naive_flags_ir_violation_and_exits_2(self, ir_game_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["rewards", "--game", ir_game_file, "--scheme", "naive", "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REWARD_REPORT_SCHEMA)
        assert doc["rewards"][0] == pytest.approx(0.1, abs=1e-12)
        assert doc["incentive_report"]["F2"]["status"] == "fail"

    def test_schema_lists_exactly_the_fields_a_report_writes(self, ir_game_file, tmp_path):
        # the schema used to allow a "seed" that no report wrote: rewards draws nothing
        out = tmp_path / "report.json"
        main(["rewards", "--game", ir_game_file, "--scheme", "naive", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == set(REWARD_REPORT_SCHEMA["properties"])
        assert doc["tol"] == DEFAULT_TOL

    def test_naive_flags_necessity_violation(self, necessity_game_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["rewards", "--game", necessity_game_file, "--scheme", "naive", "--out", str(out)]
        )
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out.read_text())
        assert doc["rewards"] == pytest.approx([0.1, 0.5], abs=1e-12)
        assert doc["incentive_report"]["F6"]["status"] == "fail"

    def test_timeval_passes_and_exits_0(self, ir_game_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "rewards", "--game", ir_game_file,
                "--scheme", "timeval", "--gamma", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REWARD_REPORT_SCHEMA)
        assert doc["rewards"] == pytest.approx([0.205495, 0.205495], abs=1e-6)
        assert all(
            v["status"] in ("pass", "not_applicable")
            for v in doc["incentive_report"].values()
        )

    def test_cumulation_beta_one(self, ir_game_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "rewards", "--game", ir_game_file,
                "--scheme", "cumulation", "--beta", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["rewards"] == pytest.approx([0.26, 0.26], abs=1e-12)
        assert doc["scaled_rewards"] == pytest.approx([0.52, 0.52], abs=1e-12)
        assert doc["rho"] == pytest.approx(2.0, abs=1e-12)

    def test_times_flag_overrides_file(self, ir_game_file, capsys):
        code = main(["rewards", "--game", ir_game_file, "--scheme", "shapley", "--times", "0,0"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["times"] == [0, 0]
        assert doc["rewards"] == pytest.approx([0.5, 0.5])

    def test_parameter_scheme_mismatch_is_an_error(self, ir_game_file):
        assert main(
            ["rewards", "--game", ir_game_file, "--scheme", "timeval", "--beta", "2"]
        ) == EXIT_ERROR
        assert main(
            ["rewards", "--game", ir_game_file, "--scheme", "cumulation", "--gamma", "1"]
        ) == EXIT_ERROR

    @pytest.mark.parametrize(
        "flags",
        [("cumulation", "--beta", "-1"), ("cumulation", "--beta", "nan"),
         ("timeval", "--gamma", "-1"), ("timeval", "--gamma", "inf")],
    )
    def test_bad_scheme_parameter_is_an_error(self, ir_game_file, flags):
        scheme, flag, value = flags
        args = ["rewards", "--game", ir_game_file, "--scheme", scheme, flag, value]
        assert main(args + ["--times", "0,0"]) == EXIT_ERROR

    def test_timeval_gamma_past_the_float_range_raises_no_warning(self, ir_game_file):
        # gamma * t used to overflow with a RuntimeWarning; every late ability is floored
        argv = ["rewards", "--game", ir_game_file, "--scheme", "timeval", "--times", "3,0"]
        code, stdout, stderr, caught = _run_quietly([*argv, "--gamma", "1e308"])
        assert (code, stderr, caught) == (EXIT_CHECK_FAILED, "", [])
        # the report equals the one at gamma = 1e3, whose late abilities are floored too
        doc, reference = json.loads(stdout), json.loads(_run_quietly([*argv, "--gamma", "1e3"])[1])
        assert (doc.pop("param"), reference.pop("param")) == (1e308, 1e3)
        assert doc == reference

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_time_past_int64_exits_1(self, source, tmp_path, capsys):
        # used to end in an OverflowError traceback
        huge = 10**20
        path = tmp_path / "late.json"
        times = [huge, 0] if source == "file" else None
        # written with json: save_game_json refuses the time, as load_game_json does
        doc = {"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "times": times}
        path.write_text(json.dumps(doc))
        args = ["rewards", "--game", str(path), "--scheme", "naive"]
        if source == "flag":
            args += ["--times", f"{huge},0"]
        assert main(args) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: joining time {huge} is past the int64 range (at most {2**63 - 1})\n"
        )

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_wrong_count_of_times_exits_1(self, source, tmp_path, capsys):
        # the flag used to give "times has 3 entries for an n=2 game", another line than a file's
        path = tmp_path / "three.json"
        times = [1, 0, 0] if source == "file" else None
        # written with json: save_game_json refuses the count, as load_game_json does
        doc = {"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "times": times}
        path.write_text(json.dumps(doc))
        args = ["rewards", "--game", str(path), "--scheme", "naive"]
        if source == "flag":
            args += ["--times", "1,0,0"]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: expected 2 times, got 3\n")

    @pytest.mark.parametrize("late", [2**63 - 1, 2**62])
    @pytest.mark.parametrize("scheme", ["naive", "cumulation"])
    def test_sweep_past_one_array_exits_1(self, ir_game_file, late, scheme, capsys):
        # 2**63 - 1 used to wrap in t + 1 ("repeats may not contain negative
        # values"), 2**62 to end in numpy's "array is too big"
        args = ["rewards", "--game", ir_game_file, "--scheme", scheme, "--times", f"{late},0"]
        assert main(args) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: joining times {late}, 0 need {late + 2} rewards in the F7/F8 sweep, "
            "more than one float64 array can hold\n"
        )

    def test_sweep_allocation_failure_exits_1(self, ir_game_file, capsys):
        # within the one-array bound, but the 8 EiB sweep cannot be
        # allocated: it used to end in a MemoryError traceback
        late = 2**60 - 3
        args = ["rewards", "--game", ir_game_file, "--scheme", "naive", "--times", f"{late},0"]
        assert main(args) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")

    @pytest.mark.parametrize("scheme", ["cumulation", "timeval", "naive", "shapley"])
    def test_two_dividend_passes_per_run(self, scheme, ir_game_file, monkeypatch, capsys):
        # the scheme's rewards, then the F7/F8 sweep, which also gives rho
        passes = count_dividend_passes(monkeypatch)
        assert main(["rewards", "--game", ir_game_file, "--scheme", scheme]) in (
            EXIT_OK, EXIT_CHECK_FAILED
        )
        assert len(passes) == 2

    def test_missing_file_is_an_error(self, tmp_path):
        assert main(
            ["rewards", "--game", str(tmp_path / "nope.json"), "--scheme", "naive"]
        ) == EXIT_ERROR

    def test_report_round_trips(self, ir_game_file, tmp_path):
        out = tmp_path / "report.json"
        main(["rewards", "--game", ir_game_file, "--scheme", "cumulation", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert json.loads(json.dumps(doc)) == doc

    def test_long_f8_witness_list_is_cut_to_1000(self, tmp_path):
        # listing all 99,962 F8 witnesses used to write a 9.8 MB report
        from timereward import TimeVector, check_temporal, cumulation_scheme, load_game_json

        path = tmp_path / "game.json"
        save_game_json(path, 2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        out = tmp_path / "long.json"
        args = ["--scheme", "cumulation", "--beta", "0.5", "--times", "100000,0"]
        assert main(["rewards", "--game", str(path), *args, "--out", str(out)]) == EXIT_CHECK_FAILED
        assert out.stat().st_size < 200_000
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REWARD_REPORT_SCHEMA)
        game, _ = load_game_json(path)
        report = check_temporal(game, TimeVector.of([100000, 0]), cumulation_scheme(0.5))
        witnesses = report.checks["F8"].witnesses
        f8 = doc["incentive_report"]["F8"]
        assert f8["witnesses"] == [list(w) for w in witnesses[:1000]]
        assert f8["witness_count"] == len(witnesses)

    def test_padded_and_canonical_keys_give_one_report(self, tmp_path):
        table = random_superadditive_game(12, 1).table()
        reports = []
        for name, pad in (("canonical", ""), ("padded", " ")):
            values = {
                pad + key.replace(",", f"{pad},{pad}") + pad: float(table[mask])
                for key, mask in canonical_masks(12).items()
            }
            path, out = tmp_path / f"{name}.json", tmp_path / f"rewards-{name}.json"
            save_game_json(path, 12, values, times=[i % 3 for i in range(12)])
            args = ["--scheme", "cumulation", "--beta", "1", "--out", str(out)]
            assert main(["rewards", "--game", str(path), *args]) == EXIT_OK
            reports.append(out.read_bytes())
        assert '" 1 , 2 "' in (tmp_path / "padded.json").read_text()
        assert reports[0] == reports[1]

    def test_long_horizon_counts_every_f7_instance(self, ir_game_file, tmp_path):
        # the F7/F8 sweep stays linear in a party's joining time
        out = tmp_path / "long.json"
        args = ["--scheme", "cumulation", "--beta", "1", "--times", "100000,0", "--out", str(out)]
        assert main(["rewards", "--game", ir_game_file, *args]) == EXIT_OK
        assert json.loads(out.read_text())["incentive_report"]["F7"]["instances"] == 100000

    def test_axiom_gate_names_its_tolerance(self, tmp_path, capsys):
        # a gap of 5e-9 passes check at --tol 1e-8, but the cumulation and
        # timeval schemes require A3 at the library default whatever --tol is
        path = tmp_path / "game.json"
        save_game_json(path, 2, {"1": 0.2, "2": 0.2, "1,2": 0.4 - 5e-9})
        assert main(["check", "--game", str(path), "--tol", "1e-8"]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "report.json"
        args = ["--scheme", "cumulation", "--tol", "1e-8", "--out", str(out)]
        assert main(["rewards", "--game", str(path), *args]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: game fails A3 at tol 1e-09; witnesses: {'superadditive': ['1', '2']}\n"
        )

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the table path calls no BLAS; GP values move in the last bits with the thread count
        n = 12
        game = tmp_path / "game.json"
        save_game_json(game, n, random_superadditive_game(n, 1), [i % 5 for i in range(n)])
        root = os.path.dirname(os.path.dirname(cli.__file__))
        run = "import sys; from timereward.cli import main; sys.exit(main(sys.argv[1:]))"
        reports = []
        for threads in ("1", "2"):
            blas = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
            env = {**os.environ, "PYTHONPATH": root, **dict.fromkeys(blas, threads)}
            out = tmp_path / f"report-{threads}.json"
            args = ["rewards", "--game", str(game), "--scheme", "cumulation", "--out", str(out)]
            subprocess.run([sys.executable, "-c", run, *args], env=env, check=True, timeout=120)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestCheckCommand:
    def test_good_game(self, ir_game_file, capsys):
        assert main(["check", "--game", ir_game_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["superadditive"] is True

    def test_cut_game_witness_has_the_largest_gap(self, tmp_path):
        # the cut fails the certificate, so the blocked 3**n scan picks the witness
        table = random_superadditive_game(12, 1).table().copy()
        table[-1] *= 0.3
        path, out = tmp_path / "cut.json", tmp_path / "report.json"
        masks = canonical_masks(12)
        save_game_json(path, 12, {key: float(table[mask]) for key, mask in masks.items()})
        assert main(["check", "--game", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        every = np.arange(1 << 12)
        largest = max(
            float((table[b] + table[s] - table[b | s]).max())
            for b in range(1, 1 << 12)
            for s in [every[every & b == 0]]
        )
        b, s = (masks[key] for key in json.loads(out.read_text())["witnesses"]["superadditive"])
        assert table[b] + table[s] - table[b | s] == largest

    def test_subadditive_game_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_game_json(path, 2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        assert main(["check", "--game", str(path)]) == EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["superadditive"] is False
        assert doc["witnesses"]["superadditive"] == ["1", "2"]

    def test_value_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        # used to end in an OverflowError traceback
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "values": {"1": 1' + "0" * 400 + "}}")
        assert main(["check", "--game", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: coalition '1' has a value too large for a float")


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "command",
        [["check"], ["shapley"], ["rewards", "--scheme", "shapley"]],
        ids=["check", "shapley", "rewards"],
    )
    def test_rejected_with_exit_1_and_no_report(self, bad, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # written with json: save_game_json refuses the value, as load_game_json does
        path.write_text(json.dumps({"n": 2, "values": {"1": 0.2, "2": bad, "1,2": 1.0}}))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        out = tmp_path / "report.json"
        code = main([*command, "--game", str(path), "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestOverflowingValues:
    """Finite values whose sums or differences overflow give the usual verdict, and no warning."""

    @pytest.mark.parametrize(
        "values,codes",
        [
            # v(1, 2) - v(2) overflows, but the dividend of {1, 2} is 1e308: the
            # transform runs on a scaled table, so naive and Shapley rewards are finite
            ({"1": 1e308, "2": -1e308, "1,2": 1e308}, (2, 2, 1, 1, 2, 0)),
            # the same with Shapley values 1.75e308 and -7.5e307 (checked in test_games)
            ({"1": 1.5e308, "2": -1e308, "1,2": 1e308}, (2, 2, 1, 1, 2, 0)),
            # v(1) + v(2) overflows: an A3 witness
            ({"1": 1e308, "2": 1e308, "1,2": 1e308}, (2, 2, 1, 1, 2, 0)),
        ],
        ids=["dividend", "intermediate", "pair-sum"],
    )
    def test_one_error_line_or_none(self, values, codes, tmp_path):
        # exit codes of the four schemes, check and shapley; 1 = EXIT_ERROR
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "values": values}))
        schemes = ("naive", "shapley", "cumulation", "timeval")
        commands = [["rewards", "--scheme", s] for s in schemes] + [["check"], ["shapley"]]
        for command, expected in zip(commands, codes, strict=True):
            code, stdout, stderr, caught = _run_quietly([*command, "--game", str(path)])
            assert (code, caught) == (expected, []), command
            assert stderr.count("\n") == (code == EXIT_ERROR), command
            assert stderr.startswith("error: ") == (code == EXIT_ERROR), command
            assert (stdout == "") == (code == EXIT_ERROR), command

    def test_games_near_the_float_range_raise_no_warning(self, tmp_path):
        # inf - inf in the Moebius transform, and overflowing differences, sums and
        # products in the axiom, incentive, scaling and Shapley steps used to warn
        entries = np.array([1e308, -1e308, 1.7e308, 9e307, 0.0, 1.0])
        rng = np.random.default_rng(2029)
        path = tmp_path / "huge.json"
        schemes = ("naive", "shapley", "cumulation", "timeval")
        commands = [["rewards", "--scheme", s] for s in schemes] + [["check"], ["shapley"]]
        for _ in range(300):
            n = int(rng.integers(2, 5))
            table = rng.choice(entries, size=1 << n)
            values = {Coalition.from_mask(m, n).key(): table[m] for m in range(1, 1 << n)}
            path.write_text(json.dumps({"n": n, "values": values}))
            for command in commands:
                code, stdout, stderr, caught = _run_quietly([*command, "--game", str(path)])
                assert caught == [], (values, command)
                assert stderr.count("\n") == (code == EXIT_ERROR), (values, command)
                assert stderr.startswith("error: ") == (code == EXIT_ERROR), (values, command)
                assert (stdout == "") == (code == EXIT_ERROR), (values, command)


class TestMalformedGameFile:
    # each used to end in a traceback or, for times and n, to be truncated
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "values": {"1": 0.2, "2": None, "1,2": 1.0}},
            {"n": 2, "values": {"1": 0.2, "2": [0.2], "1,2": 1.0}},
            {"n": 2, "values": [0.2, 0.2, 1.0]},
            {"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "times": 5},
            {"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "times": [0.5, 1]},
            {"n": 2.7, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}},
            {"n": 2, "values": {"١": 0.2, "2": 0.2, "1,2": 1.0}},
            {"n": 2, "values": {"²": 0.2, "2": 0.2, "1,2": 1.0}},
            {"values": {"1": 0.2, "2": 0.2, "1,2": 1.0}},
            {"n": 2},
            {"n": 2, "values": {"1": 0.2, "1,2": 1.0}},
        ],
        ids=[
            "null-value", "list-value", "values-list", "times-scalar", "times-float", "n-float",
            "arabic-indic-key", "superscript-key", "no-n", "no-values", "missing-coalition",
        ],
    )
    @pytest.mark.parametrize(
        "command", [["check"], ["rewards", "--scheme", "timeval"]], ids=["check", "rewards"]
    )
    def test_rejected_with_exit_1_and_no_report(self, doc, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main([*command, "--game", str(path), "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestBadTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["rewards", "--scheme", "naive"],
            ["check"],
            ["realize", "--method", "subset", "--party", "1", "--target", "0.7"],
        ],
        ids=["rewards", "check", "realize"],
    )
    def test_rejected_with_exit_1_and_no_report(self, tol, command, tmp_path, capsys):
        path = tmp_path / "subadditive.json"
        save_game_json(path, 2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        out = tmp_path / "report.json"
        code = main([*command, "--game", str(path), "--tol", tol, "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestShapleyCommand:
    def test_exact_values(self, necessity_game_file, capsys):
        assert main(["shapley", "--game", necessity_game_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == pytest.approx([0.5, 0.5])
        assert doc["method"] == "exact"

    def test_monte_carlo_deterministic(self, ir_game_file, capsys):
        main(["shapley", "--game", ir_game_file, "--permutations", "200", "--seed", "4"])
        first = json.loads(capsys.readouterr().out)
        main(["shapley", "--game", ir_game_file, "--permutations", "200", "--seed", "4"])
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["method"] == "monte_carlo"
        assert first["permutations_used"] == 200

    @pytest.mark.parametrize("permutations", ["0", "-1"])
    def test_non_positive_permutations_exit_1(self, ir_game_file, permutations, capsys):
        # 0 used to be read as "no --permutations" and give exact values
        code = main(["shapley", "--game", ir_game_file, "--permutations", permutations])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: permutations")

    def test_monte_carlo_on_a_partial_game_names_the_missing_coalition(self, tmp_path, capsys):
        # an oracle game is asked only for the prefixes it visits: coalition 2 is one
        path = tmp_path / "partial.json"
        path.write_text('{"n": 2, "values": {"1": 0.2, "1,2": 1.0}}')
        code = main(["shapley", "--game", str(path), "--permutations", "20"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coalition '2' not in table\n"

    def test_seed_without_permutations_exits_1(self, ir_game_file, tmp_path, capsys):
        # exact values draw nothing: the seed used to be ignored
        out = tmp_path / "shapley.json"
        code = main(["shapley", "--game", ir_game_file, "--seed", "5", "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seed is only valid with --permutations\n"


class TestAtomicOutput:
    """A writer that fails midway leaves the old file as it was and no temp file."""

    @staticmethod
    def half_then_fail(fd):
        with open(fd, "w") as fh:
            fh.write("half")
        raise OSError("disk full")

    def test_helper(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(str(target), self.half_then_fail)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize(
        "module,writer,argv",
        [
            ("synthdata", "save_dataset_csv", ["gen", "friedman", "--count", "60", "--out"]),
            (
                "experiment",
                "write_rows_csv",
                [
                    "experiment-friedman", "--seed", "0", "--count", "60", "--sizes", "10,10",
                    "--t1-grid", "0,1", "--betas", "1", "--gammas", "1", "--out-csv",
                ],
            ),
        ],
        ids=["gen", "experiment-friedman"],
    )
    def test_csv_outputs(self, module, writer, argv, tmp_path, monkeypatch, capsys):
        # both used to write in place, leaving a half-written file
        fail = self.half_then_fail
        monkeypatch.setattr(f"timereward.{module}.{writer}", lambda _, fd: fail(fd))
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        assert main([*argv, str(target)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: disk full\n"
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @EACH_OUTPUT_FLAG
    def test_missing_directory_names_the_path(self, argv, flag, ir_game_file, tmp_path, capsys):
        # the error used to name the temp file beside the path, never given by the user
        path = str(tmp_path / "missing" / "out")
        argv = [a.format(game=ir_game_file, dir=tmp_path) for a in argv]
        assert main([*argv, flag, path]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"
        assert not any(p.suffix == ".tmp" for p in tmp_path.rglob("*"))

    def test_path_that_is_a_directory_is_named(self, ir_game_file, tmp_path, capsys):
        # the rename onto it used to name the temp file too
        out = tmp_path / "reports"
        out.mkdir()
        assert main(["check", "--game", ir_game_file, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ir.json", "reports"]
        assert not any(out.iterdir())

    @pytest.fixture
    def umask(self, request):
        old = os.umask(request.param)
        yield request.param
        os.umask(old)

    @pytest.mark.parametrize("umask", [0o022, 0o027], indirect=True, ids=["022", "027"])
    def test_outputs_follow_the_umask(self, umask, ir_game_file, tmp_path):
        # mkstemp made every output 0600 whatever the umask
        report, data = tmp_path / "report.json", tmp_path / "data.csv"
        assert main(["check", "--game", ir_game_file, "--out", str(report)]) == EXIT_OK
        assert main(["gen", "friedman", "--count", "60", "--out", str(data)]) == EXIT_OK
        for path in (report, data):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


class TestOutputOverInput:
    """An output naming a file the command reads exits 1 and leaves that file alone."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["rewards", "--game", "{input}", "--scheme", "naive"], "--game"),
            (["check", "--game", "{input}"], "--game"),
            (["shapley", "--game", "{input}"], "--game"),
            (["realize", "--method", "subset", "--game", "{input}", "--party", "1",
              "--target", "0.5"], "--game"),
            (["realize", "--method", "temper", "--data", "{input}", "--party", "1",
              "--target", "0.5"], "--data"),
            (["realize", "--method", "temper", "--data", "{other}", "--gp-config", "{input}",
              "--party", "1", "--target", "0.5"], "--gp-config"),
        ],
        ids=["rewards", "check", "shapley", "realize-game", "realize-data", "realize-gp-config"],
    )
    @pytest.mark.parametrize("link", [False, True], ids=["same", "symlink"])
    def test_exits_1_naming_both_paths(self, argv, flag, link, ir_game_file, tmp_path, capsys):
        # check used to write its axiom report over the game, which then failed to load
        before = Path(ir_game_file).read_bytes()
        given = ir_game_file
        if link:
            given = str(tmp_path / "link.json")
            os.symlink(ir_game_file, given)
        argv = [a.format(input=given, other=tmp_path / "data.csv") for a in argv]
        assert main([*argv, "--out", ir_game_file]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: --out {ir_game_file!r} names the same file as {flag} {given!r}\n"
        )
        assert Path(ir_game_file).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ir.json"] + ["link.json"] * link


class TestGenCommand:
    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["gen", "friedman", "--count", "60", "--seed", "1", "--out", str(path)]
            ) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_partitioned_output(self, tmp_path):
        path = tmp_path / "parts.csv"
        assert main(
            [
                "gen", "friedman", "--count", "50", "--seed", "2",
                "--sizes", "20,20", "--out", str(path),
            ]
        ) == EXIT_OK
        from timereward.synthdata import load_dataset_csv

        data = load_dataset_csv(path)
        assert list(np.bincount(data.party)) == [10, 20, 20]

    def test_env_seed_changes_no_output(self, ir_game_file, tmp_path, monkeypatch, capsys):
        # TIMEREWARD_SEED used to set the default seed: --seed is now the one source
        def outputs():
            path = tmp_path / "a.csv"
            main(["gen", "friedman", "--count", "30", "--out", str(path)])
            main(["shapley", "--game", ir_game_file, "--permutations", "50"])
            return path.read_bytes(), capsys.readouterr().out

        plain = outputs()
        monkeypatch.setenv("TIMEREWARD_SEED", "7")
        assert outputs() == plain

    @pytest.mark.parametrize("raw", ["²", "١", "abc", "--7", ""])
    def test_env_seed_other_than_ascii_digits_means_0(self, raw, tmp_path, monkeypatch):
        # no variable sets the seed, whatever its value: the default is 0
        monkeypatch.setenv("TIMEREWARD_SEED", raw)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "friedman", "--count", "30", "--out", str(a)]) == EXIT_OK
        main(["gen", "friedman", "--count", "30", "--seed", "0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_noise_std_default_is_the_library_default(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "friedman", "--count", "30", "--out", str(a)]) == EXIT_OK
        assert main(
            ["gen", "friedman", "--count", "30", "--noise-std", "1", "--out", str(b)]
        ) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_negative_size_exits_1(self, tmp_path):
        path = tmp_path / "x.csv"
        argv = ["gen", "friedman", "--count", "10", "--sizes", "2,-1", "--out", str(path)]
        assert _run_quietly(argv) == (EXIT_ERROR, "", "error: sizes must be non-negative\n", [])
        assert not path.exists()

    def test_noise_std_past_the_float_range_exits_1(self, tmp_path):
        # used to warn and write inf targets
        path = tmp_path / "x.csv"
        argv = ["gen", "friedman", "--count", "50", "--noise-std", "1e308", "--out", str(path)]
        code, stdout, stderr, caught = _run_quietly(argv)
        assert (code, stdout, caught) == (EXIT_ERROR, "", [])
        assert stderr == "error: noise_std 1e+308 gives targets past the float range\n"
        assert not path.exists()
        argv[5] = "1e200"
        assert _run_quietly(argv) == (EXIT_OK, "", "", [])
        assert path.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf", "-1"])
    def test_noise_std_not_finite_and_non_negative_exits_1(self, noise, tmp_path, capsys):
        # NaN used to pass the `< 0` test and write nan targets
        path = tmp_path / "x.csv"
        code = main(["gen", "friedman", f"--noise-std={noise}", "--count", "10", "--out", str(path)])
        assert code == EXIT_ERROR
        assert not path.exists()
        assert capsys.readouterr().err.startswith("error: noise_std must be finite and >= 0")


class TestRealizeCommand:
    @pytest.fixture
    def gp_files(self, tmp_path):
        from timereward import gen_friedman, partition, standardize
        from timereward.synthdata import Dataset, save_dataset_csv

        data = partition(gen_friedman(30, seed=3), (10, 10, 10), seed=4)
        std_y, _, _ = standardize(data.targets)
        csv_path = tmp_path / "data.csv"
        save_dataset_csv(Dataset(data.features, std_y, data.party), csv_path)
        config_path = tmp_path / "gp.json"
        config_path.write_text(
            json.dumps(
                {
                    "lengthscales": [1.0] * 6,
                    "signal_variance": 1.0,
                    "noise_variance": 0.2,
                }
            )
        )
        return str(csv_path), str(config_path)

    def test_subset_floor_target_keeps_own_points(self, tmp_path, ir_game_file, capsys):
        code = main(
            [
                "realize", "--method", "subset", "--game", ir_game_file,
                "--party", "1", "--target", "0.2", "--seed", "0",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, REALIZATION_REPORT_SCHEMA)
        assert doc["parties"]["1"]["selected"] == [1]

    def test_temper_hits_target(self, gp_files, tmp_path):
        csv_path, config_path = gp_files
        from timereward import conditional_ig_game, make_gp_model
        from timereward.synthdata import load_dataset_csv
        from timereward.valuation import load_gp_config

        model = make_gp_model(load_dataset_csv(csv_path), **load_gp_config(config_path))
        game = conditional_ig_game(model)
        target = 0.5 * (game.value([1]) + game.grand_value())
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", config_path, "--party", "1",
                "--target", f"{target:.12g}", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REALIZATION_REPORT_SCHEMA)
        assert doc["seed"] is None
        record = doc["parties"]["1"]
        assert abs(record["achieved"] - record["target"]) <= 1e-6
        assert 0.0 < record["kappa"] < 1.0
        assert record["flags"] == []

    @pytest.mark.parametrize(
        "config,target,kappa_above",
        [
            # the bracket shrinks below 1e-14 first: achieved 2999.99998 against tol 1e-6
            ({"noise_variance": 1e-12}, "3000", 0.9999999),
            # kappa runs into 1 while the value is still ~12000 short
            ({"signal_variance": 1e305, "noise_variance": 1.0}, "5e4", 0.9999999),
        ],
        ids=["tiny-noise", "huge-signal"],
    )
    def test_temper_flags_a_result_outside_its_tolerance(
        self, config, target, kappa_above, tmp_path
    ):
        # both used to be reported with no flag
        csv_path, config_path = tmp_path / "data.csv", tmp_path / "gp.json"
        main(["gen", "friedman", "--count", "300", "--sizes", "100,100,100", "--seed", "1",
              "--out", str(csv_path)])
        config_path.write_text(json.dumps(config))
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", str(csv_path),
                "--gp-config", str(config_path), "--party", "1",
                "--target", target, "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REALIZATION_REPORT_SCHEMA)
        record = doc["parties"]["1"]
        assert abs(record["achieved"] - record["target"]) > 1e-6
        assert record["kappa"] > kappa_above
        assert record["flags"] == ["tolerance_not_met"]

    def test_temper_rejects_seed(self, tmp_path, capsys):
        # tempering draws nothing: --seed used to be accepted and echoed in the report;
        # the data file is missing, so the refusal comes before any file is read
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", str(tmp_path / "missing.csv"),
                "--party", "1", "--target", "0.1", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seed is only valid with --method subset\n"

    def test_temper_without_data_exits_1(self, tmp_path, capsys):
        out = tmp_path / "real.json"
        code = main(
            ["realize", "--method", "temper", "--party", "1", "--target", "0.1", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: --data CSV is required for GP-backed realization\n"

    def test_gp_config_repeated_key_exits_1(self, gp_files, tmp_path, capsys):
        # json alone keeps the last value: signal variance 50 used to be used silently
        csv_path, _ = gp_files
        config_path = tmp_path / "config.json"
        config_path.write_text('{"signal_variance": 1.0, "signal_variance": 50.0}')
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "50", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: GP config file names key 'signal_variance' twice\n"

    @pytest.mark.parametrize(
        "method,party,target",
        [
            ("temper", "1", "nan"),
            ("subset", "1", "nan"),
            ("temper", "7", "0.5"),
            ("subset", "0", "0.5"),
            ("temper", "1", "0"),
        ],
        ids=["temper-nan-target", "subset-nan-target", "temper-party-7", "subset-party-0",
             "temper-below-own-value"],
    )
    def test_bad_request_exits_1_without_report(
        self, gp_files, method, party, target, tmp_path, capsys
    ):
        csv_path, config_path = gp_files
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", method, "--data", csv_path,
                "--gp-config", config_path, "--party", party,
                "--target", target, "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", ["temper", "subset"])
    def test_overflowing_signal_to_noise_exits_1(self, gp_files, method, tmp_path):
        # subset used to write "achieved": NaN, temper to print scipy's "Internal Error."
        csv_path, _ = gp_files
        config_path = tmp_path / "huge.json"
        config_path.write_text(json.dumps({"signal_variance": 1e300, "noise_variance": 1e-300}))
        out = tmp_path / "real.json"
        code, stdout, stderr, caught = _run_quietly(
            [
                "realize", "--method", method, "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "1.0", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists() and stdout == "" and caught == []
        assert stderr.startswith("error: signal_variance 1e+300 over the smallest noise_variance")
        assert stderr.count("\n") == 1

    def test_non_finite_report_is_refused(self, capsys):
        # a NaN used to be written as the bare token NaN, which is not JSON
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"achieved": float("nan")}, None)
        assert capsys.readouterr().out == ""

    def test_noise_list_of_wrong_length_exits_1(self, gp_files, tmp_path, capsys):
        csv_path, _ = gp_files
        config_path = tmp_path / "short.json"
        config_path.write_text(json.dumps({"noise_variance": [0.1, 0.2]}))
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise_variance" in captured.err

    @pytest.mark.parametrize("config", ["5", "[1, 2]"], ids=["number", "list"])
    def test_gp_config_not_an_object_exits_1(self, gp_files, config, tmp_path, capsys):
        # a number used to end in a TypeError traceback, a list to mean "the defaults"
        csv_path, _ = gp_files
        config_path = tmp_path / "config.json"
        config_path.write_text(config)
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: GP config must be a JSON object")

    @pytest.mark.parametrize(
        "config",
        [
            {"signal_variance": None},
            {"signal_variance": [1.0]},
            {"signal_variance": {"value": 1.0}},
            {"signal_variance": True},
            {"noise_variance": None},
            {"noise_variance": {"value": 0.2}},
            {"noise_variance": False},
        ],
        ids=["signal-null", "signal-list", "signal-object", "signal-bool",
             "noise-null", "noise-object", "noise-bool"],
    )
    def test_gp_config_field_of_wrong_type_exits_1(self, gp_files, config, tmp_path, capsys):
        # null, a list or an object used to end in a TypeError traceback, a boolean to mean 1 or 0
        csv_path, _ = gp_files
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        (key,) = config
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"error: GP config {key} must be a number")

    def test_gp_config_number_too_large_for_a_float_exits_1(self, gp_files, tmp_path, capsys):
        # used to end in an OverflowError traceback
        csv_path, _ = gp_files
        config_path = tmp_path / "config.json"
        config_path.write_text('{"signal_variance": 1' + "0" * 400 + "}")
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", csv_path,
                "--gp-config", str(config_path), "--party", "1",
                "--target", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: GP config signal_variance is too large for a float")

    @pytest.mark.parametrize("method", ["temper", "subset"])
    def test_empty_dataset_file_exits_1(self, method, tmp_path, capsys):
        # a zero-byte file used to end in a StopIteration traceback
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("")
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", method, "--data", str(csv_path), "--party", "1",
                "--target", "0.1", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: dataset CSV is empty")

    @pytest.mark.parametrize("method", ["temper", "subset"])
    def test_ragged_dataset_row_exits_1(self, method, tmp_path, capsys):
        # a short row used to end in an IndexError traceback
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text("x0,y,party\n0.1,0.5,1\n0.2,0.3\n0.4,0.1,2\n")
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", method, "--data", str(csv_path), "--party", "1",
                "--target", "0.1", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: dataset CSV line 3 has 2 cells")

    @pytest.mark.parametrize(
        "data,message",
        [
            ("y,party\n0.5,1\n0.3,2\n", "dataset CSV needs feature columns and a target column"),
            ("x0,y,party\n0.1,0.5,0\n0.2,0.3,0\n", "dataset has no assigned points"),
        ],
        ids=["no-feature-column", "no-assigned-points"],
    )
    def test_dataset_that_gives_no_model_exits_1(self, data, message, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(data)
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--data", str(csv_path), "--party", "1",
                "--target", "0.1", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subset_on_gp_data(self, gp_files, tmp_path):
        csv_path, config_path = gp_files
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "subset", "--data", csv_path, "--gp-config", config_path,
                "--party", "1", "--target", "5", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REALIZATION_REPORT_SCHEMA)
        record = doc["parties"]["1"]
        assert doc["seed"] == 1 and record["achieved"] > record["target"] == 5.0

    def test_subset_on_a_partial_game_names_the_missing_prefix(self, tmp_path):
        # seed 0 joins 4, 2, 3 after party 1; the target is crossed at {1, 4}, so the
        # search used to stop there and never ask for the missing {1, 2, 4}
        game = random_superadditive_game(4, 3)
        table = game.table()
        values = {Coalition.from_mask(m, 4).key(): table[m] for m in range(1, 16)}
        del values["1,2,4"]
        path = tmp_path / "partial.json"
        save_game_json(path, 4, values)
        target = 0.5 * (game.value([1]) + game.value([1, 4]))
        out = tmp_path / "real.json"
        code, stdout, stderr, caught = _run_quietly(
            [
                "realize", "--method", "subset", "--game", str(path), "--party", "1",
                "--target", repr(target), "--seed", "0", "--out", str(out),
            ]
        )
        assert (code, stdout, caught) == (EXIT_ERROR, "", [])
        assert stderr == "error: coalition '1,2,4' not in table\n"
        assert not out.exists()

    def test_subset_rejects_tol(self, ir_game_file, tmp_path, capsys):
        # select_subset has no tolerance; --tol used to be accepted and ignored
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "subset", "--game", ir_game_file,
                "--party", "1", "--target", "1.05", "--tol", "5", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert "--tol" in capsys.readouterr().err

    def test_temper_rejects_game(self, gp_files, ir_game_file, tmp_path, capsys):
        # tempering reads only the GP data: --game used to be ignored
        csv_path, _ = gp_files
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "temper", "--game", ir_game_file, "--data", csv_path,
                "--party", "1", "--target", "10", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: --game is only valid with --method subset\n"

    def test_subset_game_rejects_data_and_gp_config(self, ir_game_file, tmp_path, capsys):
        # the table game is the source: the two paths used to be ignored unread
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", "subset", "--game", ir_game_file,
                "--data", str(tmp_path / "missing.csv"),
                "--gp-config", str(tmp_path / "missing.json"),
                "--party", "1", "--target", "0.2", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: --data and --gp-config are not read with --game\n"

    @pytest.mark.parametrize("method", ["temper", "subset"])
    def test_gp_party_without_points_exits_1(self, method, tmp_path, capsys):
        from timereward.synthdata import Dataset, save_dataset_csv

        rng = np.random.default_rng(2)
        csv_path = tmp_path / "gap.csv"
        save_dataset_csv(
            Dataset(rng.uniform(size=(6, 1)), rng.normal(size=6), np.array([1, 1, 1, 3, 3, 3])),
            csv_path,
        )
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", method, "--data", str(csv_path), "--party", "2",
                "--target", "0.1", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        assert "owns no points" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["temper", "subset"])
    def test_non_finite_feature_exits_1(self, method, tmp_path, capsys):
        from timereward.synthdata import Dataset, save_dataset_csv

        rng = np.random.default_rng(2)
        features = rng.uniform(size=(6, 2))
        features[4, 1] = np.nan
        csv_path = tmp_path / "nan.csv"
        save_dataset_csv(Dataset(features, rng.normal(size=6), np.array([1, 1, 1, 2, 2, 2])), csv_path)
        assert "nan" in csv_path.read_text()
        out = tmp_path / "real.json"
        code = main(
            [
                "realize", "--method", method, "--data", str(csv_path), "--party", "1",
                "--target", "0.1", "--out", str(out),
            ]
        )
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_out_of_range_target_is_an_error(self, ir_game_file):
        code = main(
            [
                "realize", "--method", "subset", "--game", ir_game_file,
                "--party", "1", "--target", "5.0", "--seed", "0",
            ]
        )
        assert code == EXIT_ERROR


class TestExperimentCommand:
    def test_small_run_passes_trend_checks(self, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code = main(
            [
                "experiment-friedman", "--seed", "0", "--count", "200",
                "--sizes", "60,60,40", "--t1-grid", "0,1,2",
                "--betas", "1,1000", "--gammas", "0,1",
                "--out-csv", str(csv_out), "--out", str(summary),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(summary.read_text())
        assert all(doc["checks"].values())
        lines = csv_out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == [
            "scheme", "param", "t1", "party", "reward", "scaled_reward", "own_value",
        ]
        # 4 columns x 3 times x 3 parties
        assert len(lines) - 1 == 4 * 3 * 3

    @staticmethod
    def _config_of(argv, tmp_path, monkeypatch):
        """The FriedmanConfig that experiment-friedman hands the sweep for argv."""
        from timereward import experiment

        class Stop(Exception):
            pass

        def capture(config):
            seen.append(config)
            raise Stop

        seen = []
        monkeypatch.setattr(experiment, "run_friedman_experiment", capture)
        with pytest.raises(Stop):
            main(["experiment-friedman", *argv, "--out-csv", str(tmp_path / "sweep.csv")])
        return seen[0]

    def test_flag_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        from timereward import FriedmanConfig

        assert self._config_of([], tmp_path, monkeypatch) == FriedmanConfig()

    @pytest.mark.parametrize(
        "argv,field,value",
        [
            (["--seed", "3"], "seed", 3),
            (["--count", "50"], "count", 50),
            (["--sizes", "5,6"], "sizes", (5, 6)),
            (["--t1-grid", "0,2"], "t1_grid", (0, 2)),
            (["--betas", "2"], "betas", (2.0,)),
            (["--gammas", "0.5"], "gammas", (0.5,)),
            (["--mnlp"], "with_mnlp", True),
        ],
        ids=["seed", "count", "sizes", "t1-grid", "betas", "gammas", "mnlp"],
    )
    def test_each_flag_sets_only_its_field(self, argv, field, value, tmp_path, monkeypatch):
        from timereward import FriedmanConfig

        config = self._config_of(argv, tmp_path, monkeypatch)
        assert config == dataclasses.replace(FriedmanConfig(), **{field: value})

    def test_gamma_past_the_float_range_raises_no_warning(self, tmp_path):
        # gamma * t used to overflow with a RuntimeWarning at t1 = 2
        csv_out = tmp_path / "sweep.csv"
        code, _, stderr, caught = _run_quietly(
            [
                "experiment-friedman", "--count", "60", "--sizes", "10,10", "--t1-grid", "0,2",
                "--betas", "1", "--gammas", "1e308", "--out-csv", str(csv_out),
            ]
        )
        assert (code, stderr, caught) == (EXIT_OK, "", [])

    def test_empty_test_split_refused_with_mnlp(self, tmp_path, monkeypatch, capsys):
        # 20% of 2 points rounds to none: every MNLP cell used to be nan, with
        # two RuntimeWarnings and exit 0
        from timereward import experiment

        argv = [
            "experiment-friedman", "--seed", "1", "--count", "2", "--sizes", "1",
            "--t1-grid", "0,1", "--betas", "1", "--gammas", "1",
        ]
        csv_out = tmp_path / "sweep.csv"
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.setattr(experiment, "make_gp_model", None)  # refused before any GP work
            code = main([*argv, "--mnlp", "--out-csv", str(csv_out)])
        assert code == EXIT_ERROR
        assert not csv_out.exists()
        assert capsys.readouterr().err == (
            "error: 2 points leave an empty 20% test split: MNLP needs one\n"
        )
        # without --mnlp no test point is scored, so the split may be empty
        assert main([*argv, "--out-csv", str(csv_out)]) == EXIT_OK
        assert csv_out.exists()

    @pytest.mark.parametrize("spelling", ["sweep.csv", "sub/../sweep.csv"], ids=["same", "dot-dot"])
    def test_out_naming_the_rows_csv_exits_1(self, spelling, tmp_path, monkeypatch, capsys):
        # the summary used to replace the rows CSV that its rows_csv names, with exit 0
        from timereward import experiment

        # refused before any GP work
        monkeypatch.setattr(experiment, "run_friedman_experiment", None)
        (tmp_path / "sub").mkdir()
        rows, out = str(tmp_path / "sweep.csv"), str(tmp_path / spelling)
        assert main([*SMALL_SWEEP, "--out-csv", rows, "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: --out {out!r} names the same file as --out-csv {rows!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_mnlp_run_exits_0(self, tmp_path):
        csv_out, summary = tmp_path / "sweep.csv", tmp_path / "summary.json"
        code = main(
            [
                "experiment-friedman", "--seed", "1", "--count", "100", "--sizes", "30,30,20",
                "--betas", "1", "--gammas", "1", "--mnlp",
                "--out-csv", str(csv_out), "--out", str(summary),
            ]
        )
        assert code == EXIT_OK
        assert all(json.loads(summary.read_text())["checks"].values())
        header, *rows = [line.split(",") for line in csv_out.read_text().splitlines()]
        mnlp = header.index("mnlp")
        assert rows and all(np.isfinite(float(row[mnlp])) for row in rows)

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            # the all-zero-times checks need t1 = 0; this used to end in
            # "error: max() arg is an empty sequence" after the whole sweep
            ("--t1-grid", "1,2", "error: t1 grid must include 0"),
            ("--betas", "1,0", "error: beta must be"),
            ("--gammas", "nan", "error: gamma must be"),
            # used to build the whole model first, then fail on the joining times
            ("--t1-grid", "-1,0", "error: t1 grid entries must be non-negative"),
            # used to exit 0 with every trend check vacuously true
            ("--sizes", "0,10", "error: party sizes must be at least 1, got (0, 10)"),
        ],
        ids=["t1-grid-without-0", "beta-0", "gamma-nan", "t1-grid-negative", "sizes-0"],
    )
    def test_bad_sweep_exits_1(self, flag, value, message, tmp_path, capsys):
        csv_out = tmp_path / "sweep.csv"
        code = main(
            [
                "experiment-friedman", "--seed", "0", "--count", "60",
                "--sizes", "10,10", f"{flag}={value}", "--out-csv", str(csv_out),
            ]
        )
        assert code == EXIT_ERROR
        assert not csv_out.exists()
        assert capsys.readouterr().err.startswith(message)


def _dense(table) -> str:
    return base64.b64encode(np.asarray(table, dtype="<f8").tobytes()).decode("ascii")


# float64 entries a dense and a keyed file must carry alike: signed zeros, subnormals, extremes
EDGE_VALUES = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308, 0.1]


@st.composite
def edge_tables(draw):
    """An n = 1-8 table: a random superadditive game with a few entries set to edge values."""
    n = draw(st.integers(min_value=1, max_value=8))
    table = random_superadditive_game(n, draw(st.integers(0, 2**32 - 1))).table().copy()
    edits = draw(st.dictionaries(
        st.integers(min_value=1, max_value=(1 << n) - 1),
        st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
        max_size=3,
    ))
    for mask, value in edits.items():
        table[mask] = value
    times = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, table, times


def _run_quietly(argv) -> tuple:
    """main's exit code, stdout, stderr and the warnings it raised, as strings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestDenseGameFile:
    """A "table_f64le" file loads as its keyed twin, and every malformed one exits 1."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=edge_tables())
    def test_dense_and_keyed_files_give_the_same_game_and_reports(self, case):
        n, table, times = case
        values = {Coalition.from_mask(m, n).key(): table[m] for m in range(1, 1 << n)}
        with tempfile.TemporaryDirectory() as tmp:
            keyed, dense = Path(tmp, "keyed.json"), Path(tmp, "dense.json")
            save_game_json(keyed, n, values, times)
            save_game_json(dense, n, table, times)
            assert "values" not in json.loads(dense.read_text())
            (g_keyed, t_keyed), (g_dense, t_dense) = load_game_json(keyed), load_game_json(dense)
            assert g_keyed.table().tobytes() == g_dense.table().tobytes() == table.tobytes()
            assert t_keyed == t_dense
            for scheme in (["cumulation", "--beta", "0.9"], ["timeval", "--gamma", "0.5"],
                           ["naive"], ["shapley"]):
                runs = []
                for path in (keyed, dense):
                    out = Path(tmp, f"{path.stem}-report.json")
                    result = _run_quietly(
                        ["rewards", "--game", str(path), "--scheme", *scheme, "--out", str(out)]
                    )
                    runs.append((result, out.read_bytes() if out.exists() else None))
                    out.unlink(missing_ok=True)
                assert runs[0] == runs[1]

    @pytest.mark.parametrize("order", ["written", "descending"])
    def test_keyed_file_of_twelve_parties_is_filled_in_bulk(self, order, tmp_path, monkeypatch):
        # from n = 10 on, the keys "10".."12" sort before "2": descending mask order
        # is neither the order save_game_json writes nor numeric order
        def by_key(*args):
            raise AssertionError("read key by key")

        monkeypatch.setattr(games, "_fill_by_key", by_key)
        n = 12
        times = [i % 5 for i in range(n)]
        table = random_superadditive_game(n, 1).table()
        keyed, dense = tmp_path / "keyed.json", tmp_path / "dense.json"
        descending = range((1 << n) - 1, 0, -1)
        values = {Coalition.from_mask(m, n).key(): float(table[m]) for m in descending}
        if order == "written":  # sorted, as save_game_json writes any mapping
            save_game_json(keyed, n, values, times)
        else:
            keyed.write_text(json.dumps({"n": n, "values": values, "times": times}))
        save_game_json(dense, n, table, times)
        reports = []
        for path in (keyed, dense):
            out = tmp_path / f"{path.stem}-report.json"
            argv = ["rewards", "--game", str(path), "--scheme", "cumulation", "--out", str(out)]
            assert main(argv) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_negative_zero_at_the_empty_coalition_is_stored_as_zero(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "table_f64le": _dense([-0.0, 0.2, 0.2, 1.0])}))
        game, times = load_game_json(path)
        assert game.table().tobytes() == np.array([0.0, 0.2, 0.2, 1.0]).tobytes()
        assert times is None

    def test_check_reads_a_dense_file(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "table_f64le": _dense([0.0, 0.2, 0.2, 1.0])}))
        assert main(["check", "--game", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["superadditive"] is True

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0},
              "table_f64le": _dense([0.0, 0.2, 0.2, 1.0])},
             "game file must contain 'n' and exactly one of 'values' and 'table_f64le'"),
            ({"n": 2},
             "game file must contain 'n' and exactly one of 'values' and 'table_f64le'"),
            ({"n": 2, "table_f64le": [0.0, 0.2, 0.2, 1.0]},
             "game file 'table_f64le' must be a base64 string, got list"),
            ({"n": 2, "table_f64le": None},
             "game file 'table_f64le' must be a base64 string, got NoneType"),
            ({"n": 2, "table_f64le": "not base64!"},
             "game file 'table_f64le' is not valid base64"),
            ({"n": 2, "table_f64le": _dense([0.0, 0.2, 0.2, 1.0]).rstrip("=")},
             "game file 'table_f64le' is not valid base64"),
            ({"n": 2, "table_f64le": "é" + _dense([0.0, 0.2, 0.2, 1.0])},
             "game file 'table_f64le' is not valid base64"),
            ({"n": 2, "table_f64le": _dense([0.0, 0.2, 0.2, 1.0])[:-4]},
             "game file 'table_f64le' decodes to 30 bytes, expected 32 (2**2 float64 values)"),
            ({"n": 2, "table_f64le": _dense([0.0, 0.2, 0.2, 1.0, 2.0])},
             "game file 'table_f64le' decodes to 40 bytes, expected 32 (2**2 float64 values)"),
            ({"n": 2, "table_f64le": _dense([0.0, 0.2, np.nan, 1.0])},
             "coalition value nan at mask 2 is not finite"),
            ({"n": 2, "table_f64le": _dense([0.0, 0.2, 0.2, -np.inf])},
             "coalition value -inf at mask 3 is not finite"),
            ({"n": 2, "table_f64le": _dense([0.5, 0.2, 0.2, 1.0])},
             "the empty coalition must have value 0, got 0.5"),
            # the party count is checked before a byte is decoded
            ({"n": 25, "table_f64le": "not base64!"}, "party count 25 outside [1, 24]"),
            ({"n": 0, "table_f64le": ""}, "party count must be an integer >= 1, got 0"),
        ],
        ids=["both-fields", "neither-field", "list", "null", "bad-base64", "unpadded", "non-ascii", "short", "long",
             "nan", "infinite", "non-zero-empty", "n-too-large", "n-zero"],
    )
    def test_refused_with_exit_1_and_no_report(self, doc, message, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["rewards", "--game", str(path), "--scheme", "naive", "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestRepeatedCoalition:
    @pytest.mark.parametrize(
        "values,message",
        [
            # json keeps the last value: check used to judge the game by v({1}) = 5.0
            ('"1": 0.2, "2": 0.2, "1,2": 1.0, "1": 5.0', "game file names key '1' twice"),
            # the later spelling used to win silently
            ('"1": 0.2, " 1": 3.0, "2": 0.2, "1,2": 1.0', "coalition '1' is named twice, as '1' and ' 1'"),
            ('"01": 3.0, "1": 0.2, "2": 0.2, "1,2": 1.0', "coalition '1' is named twice, as '01' and '1'"),
        ],
        ids=["repeated-json-key", "padded-spelling", "zero-led-spelling"],
    )
    @pytest.mark.parametrize("command", ["check", "shapley"])
    def test_exits_1_naming_the_coalition(self, values, message, command, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(f'{{"n": 2, "values": {{{values}}}}}')
        out = tmp_path / "report.json"
        assert main([command, "--game", str(path), "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUnreadInput:
    """A field or column a loader would not read exits 1 and names it."""

    def test_game_file_unknown_field(self, tmp_path, capsys):
        # "time" was skipped: the naive report at times [0, 0] passed with exit 0
        path = tmp_path / "game.json"
        path.write_text('{"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "time": [3, 0]}')
        out = tmp_path / "report.json"
        code = main(["rewards", "--game", str(path), "--scheme", "naive", "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: game file has unknown field 'time'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "config,data,target,message",
        [
            # signal variance 1 was used silently
            (
                '{"signal_varianec": 50.0}', "x0,y,party\n0.1,0.5,1\n0.2,0.3,2\n", "0.5",
                "error: GP config file has unknown field 'signal_varianec'",
            ),
            # the second party column was the target and y a feature
            (
                None, "x0,y,party,party\n0.1,0.5,1,1\n0.2,0.3,2,2\n", "0.6",
                "error: dataset CSV names column 'party' twice",
            ),
        ],
        ids=["gp-unknown-field", "csv-dup-column"],
    )
    def test_realize_input(self, config, data, target, message, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(data)
        argv = ["realize", "--method", "temper", "--data", str(csv_path)]
        if config is not None:
            config_path = tmp_path / "gp.json"
            config_path.write_text(config)
            argv += ["--gp-config", str(config_path)]
        out = tmp_path / "real.json"
        code = main([*argv, "--party", "1", "--target", target, "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    def test_file_that_is_not_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text('{"n": 2,')
        assert main(["check", "--game", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: Expecting")


class TestParserReuse:
    def test_one_parser_serves_every_call(self, ir_game_file, capsys):
        cli._build_parser.cache_clear()
        assert main(["check", "--game", ir_game_file]) == EXIT_OK
        assert main(["shapley", "--game", ir_game_file]) == EXIT_OK
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        check = "import timereward.cli as c; assert c._build_parser.cache_info().currsize == 0"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=120)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--scheme", "bogus"], "argument --scheme: invalid choice"),
            ([], "the following arguments are required: --scheme"),
            # empty items used to be dropped, so 1,,0 ran as 1,0 and "," crashed in min()
            (["--scheme", "naive", "--times", "1,,0"], "argument --times: empty item"),
            (["--scheme", "naive", "--times", ","], "argument --times: empty item"),
            (["--scheme", "naive", "--times="], "argument --times: empty item"),
            (["--scheme", "naive", "--times", "1,x"], "argument --times: invalid"),
        ],
        ids=["bad-choice", "missing-scheme", "times-gap", "times-comma", "times-empty", "times-word"],
    )
    def test_rewards_usage_error_exits_1(self, argv, message, ir_game_file, tmp_path, capsys):
        # argparse exits 2, which the CLI keeps for "a check failed"
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["rewards", "--game", ir_game_file, "--out", str(out), *argv])
        assert exc.value.code == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage: timereward rewards")
        assert f"timereward rewards: error: {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # argparse reads -inf as an option
            ["gen", "friedman", "--noise-std", "-inf"],
            ["gen", "friedman", "--sizes="],
            # no beta and no gamma used to pass all four checks with no rows
            ["experiment-friedman", "--betas=", "--gammas="],
            ["experiment-friedman", "--t1-grid", "0,,1"],
        ],
        ids=["noise-minus-inf", "gen-sizes-empty", "sweep-no-schemes", "sweep-grid-gap"],
    )
    def test_usage_error_exits_1_without_output(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        flag = "--out" if argv[0] == "gen" else "--out-csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(out)])
        assert exc.value.code == EXIT_ERROR
        assert not out.exists()
        assert f"timereward {argv[0]}: error: argument " in capsys.readouterr().err

    @EACH_OUTPUT_FLAG
    def test_empty_output_path_is_a_usage_error(self, argv, flag, ir_game_file, tmp_path, capsys):
        # check used to print its report to stdout and exit 0, gen to fail opening ''
        argv = [a.format(game=ir_game_file, dir=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, ""])
        assert exc.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"timereward {argv[0]}: error: argument {flag}: empty path\n")
        assert [p.name for p in tmp_path.iterdir()] == ["ir.json"]

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["gen", "friedman", "--count", "10", "--seed", "-3", "--out", "{out}"], "-3"),
            (["shapley", "--game", "{game}", "--permutations", "5", "--seed", "-1"], "-1"),
            (
                ["realize", "--method", "subset", "--game", "{game}", "--party", "1",
                 "--target", "0.5", "--seed", "-1", "--out", "{out}"],
                "-1",
            ),
            (["experiment-friedman", "--seed", "-1", "--out-csv", "{out}"], "-1"),
        ],
        ids=["gen", "shapley", "realize", "experiment-friedman"],
    )
    def test_negative_seed_is_a_usage_error_naming_the_flag(
        self, argv, value, ir_game_file, tmp_path, capsys
    ):
        # numpy used to refuse a negative seed with a bare "error: expected non-negative integer"
        out = tmp_path / "out"
        argv = [arg.format(game=ir_game_file, out=out) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err.endswith(
            f"timereward {argv[0]}: error: argument --seed: invalid non-negative int value: '{value}'\n"
        )

    @pytest.mark.parametrize("argv", [["--help"], ["rewards", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: timereward")
