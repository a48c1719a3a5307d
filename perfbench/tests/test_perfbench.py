"""Tests of the benchmark itself: its reference, its guard, its tracer and its runs.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy is used)

run.import_program()

import clock  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from timereward import cli, incentives  # noqa: E402
from timereward.games import RewardVector, TimeVector, random_superadditive_game  # noqa: E402
from timereward.rewards import reward_cumulation, reward_time_valuation  # noqa: E402
from timereward.shapley import naive_time_division, shapley_exact  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=workloads.REL_TOL * scale)


@pytest.mark.parametrize("n", range(2, 9))
def test_oracle_matches_library(n):
    rng = np.random.default_rng(n)
    for trial in range(3):
        game = random_superadditive_game(n, 100 * n + trial)
        table = np.array(game.table())
        times = [int(t) for t in rng.integers(0, 4, size=n)]
        times[int(rng.integers(n))] = 0
        tv = TimeVector.of(times)
        _close(oracle.plain_shapley(table, n), shapley_exact(game).values)
        _close(oracle.naive_rewards(table, times), naive_time_division(game, tv).rewards)
        for beta in (0.5, 1.0, 2.0):
            _close(oracle.cumulation_rewards(table, times, beta), reward_cumulation(game, tv, beta).rewards)
        for gamma in (0.0, 0.5, 1.0):
            _close(oracle.timeval_rewards(table, times, gamma), reward_time_valuation(game, tv, gamma).rewards)


def test_lowered_gaps_match_enumeration():
    n = 6
    table = np.array(random_superadditive_game(n, 7).table())
    mask = 0b101101
    low = table.copy()
    low[mask] = 0.3 * table[mask]
    full = (1 << n) - 1
    mono = max(low[b] - low[c] for c in range(1, full + 1) for b in range(1, c) if b & ~c == 0)
    sup = max(
        low[b] + low[s] - low[b | s]
        for b, s in itertools.product(range(1, full + 1), repeat=2)
        if not b & s
    )
    gaps = oracle.lowered_coalition_gaps(table, mask, low[mask])
    assert gaps["monotone"] == pytest.approx(mono, abs=1e-12)
    assert gaps["superadditive"] == pytest.approx(sup, abs=1e-12)


def _tiny_staggered_jobs(tmp_path):
    workload = workloads.WORKLOADS["table-staggered"]
    inputs = workload.generate(5, tmp_path, workloads.TINY)
    return workload.jobs(inputs, tmp_path, 5, workloads.TINY)


def test_guard_passes_the_library(tmp_path):
    jobs = _tiny_staggered_jobs(tmp_path)
    runs = run.run_batch(jobs, cli, tmp_path, clock.Meter("python"), None, 0)
    assert [error for _, _, error in runs] == [None] * len(jobs)


def test_corrupted_rewards_count_as_failed_jobs(tmp_path, monkeypatch):
    def corrupted(game, times, beta):
        r = reward_cumulation(game, times, beta).rewards.copy()
        r[0] += 1e-6
        return RewardVector(r)

    monkeypatch.setattr(incentives, "reward_cumulation", corrupted)
    jobs = _tiny_staggered_jobs(tmp_path)
    runs = run.run_batch(jobs, cli, tmp_path, clock.Meter("python"), None, 0)
    failed = [kind for kind, _, error in runs if error is not None]
    assert failed == [job.kind for job in jobs if job.kind == "rewards_cumulation"]
    assert all("reference" in error for _, _, error in runs if error is not None)


def test_tracer_self_time_and_rebinding():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t._enter("incentives.check_temporal")
    t._enter("rewards.reward_cumulation")
    t._leave()
    t._leave()
    assert t.counterfactual_reruns == 1
    assert t.total["incentives.check_temporal"] == 10.0
    assert t.self_time["incentives.check_temporal"] == 7.0
    assert t.self_time["rewards.reward_cumulation"] == 3.0

    from timereward import experiment, games, rewards

    originals = (incentives.reward_cumulation, rewards.check_axioms, experiment.temper, games.Game.table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        now = (incentives.reward_cumulation, rewards.check_axioms, experiment.temper, games.Game.table)
        assert all(a is not b for a, b in zip(originals, now))
    finally:
        tracer.uninstall()
    assert (incentives.reward_cumulation, rewards.check_axioms, experiment.temper, games.Game.table) == originals


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_of_each_workload(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "gp-friedman", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["realization.temper.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "table-staggered", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
