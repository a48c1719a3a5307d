"""The benchmark's workloads: inputs made from a seed, and the CLI jobs run on them.

A workload's ``generate`` step makes every input from the seed and
writes it to files; it is what ``setup_s`` times.  Its ``jobs`` step
computes the expected outputs with the reference in ``oracle.py`` and
returns the job list, each job with a check of its outputs.  The CLI
sees only the files and its argument list.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

import oracle
from timereward import cli
from timereward.games import random_superadditive_game, save_game_json
from timereward.realization import conditional_point_value
from timereward.synthdata import gen_friedman, partition, save_dataset_csv
from timereward.valuation import make_gp_model

# Reference rewards must match to this share of the largest reward.
REL_TOL = 1e-9
# The tolerance the CLI applies to incentive and axiom checks by default.
CLI_TOL = 1e-9

_REWARD_SCHEMA = jsonschema.Draft202012Validator(cli.REWARD_REPORT_SCHEMA)
_REALIZATION_SCHEMA = jsonschema.Draft202012Validator(cli.REALIZATION_REPORT_SCHEMA)


@dataclass
class Job:
    """One CLI call.  ``check`` maps its exit code to None, or to why its outputs are wrong."""

    kind: str
    argv: list[str]
    check: Callable[[int], "str | None"]


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TINY is for its own tests."""

    staggered_n: int
    staggered_games: int
    staggered_time_total: int
    wide_n: int
    mnlp_count: int
    mnlp_sizes: tuple[int, ...]
    sweep_count: int
    sweep_sizes: tuple[int, ...]
    realize_count: int
    realize_sizes: tuple[int, ...]


FULL = Scale(
    staggered_n=10,
    staggered_games=8,
    staggered_time_total=20,
    wide_n=14,
    mnlp_count=500,
    mnlp_sizes=(150, 150, 100),
    sweep_count=800,
    sweep_sizes=(80,) * 8,
    realize_count=500,
    realize_sizes=(150, 150, 100),
)
TINY = Scale(
    staggered_n=5,
    staggered_games=2,
    staggered_time_total=6,
    wide_n=6,
    mnlp_count=100,
    mnlp_sizes=(30, 30, 20),
    sweep_count=120,
    sweep_sizes=(20,) * 4,
    realize_count=100,
    realize_sizes=(30, 30, 20),
)


# --- files -------------------------------------------------------------------


def _key(mask: int, n: int) -> str:
    return ",".join(str(i + 1) for i in range(n) if mask >> i & 1)


def _mask(key: str) -> int:
    return sum(1 << (int(tok) - 1) for tok in key.split(",") if tok.strip())


def _write_game(path: Path, table: np.ndarray, times, superadditive):
    n = len(table).bit_length() - 1
    values = {_key(m, n): float(table[m]) for m in range(1, len(table))}
    save_game_json(path, n, values, times, superadditive)


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _first_error(validator, doc) -> "str | None":
    error = next(iter(validator.iter_errors(doc)), None)
    return None if error is None else f"schema: {error.message}"


# --- checks ------------------------------------------------------------------


def _rewards_check(out: Path, scheme: str, times, table, param, exit_codes) -> Callable:
    expected = oracle.expected_rewards(table, times, scheme, param)

    def check(code: int) -> "str | None":
        if code not in exit_codes:
            return f"exit code {code}, expected one of {sorted(exit_codes)}"
        doc = _load(out)
        problem = _first_error(_REWARD_SCHEMA, doc)
        if problem:
            return problem
        if doc["scheme"] != scheme or doc["times"] != list(times):
            return "report names another scheme or other joining times"
        want = expected["rewards"]
        atol = REL_TOL * max(1.0, float(np.abs(want).max()))
        got = np.asarray(doc["rewards"], dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
            return f"rewards differ from the reference by {np.abs(got - want).max():.3g}"
        if doc["rho"] is None or abs(doc["rho"] - expected["rho"]) > REL_TOL * abs(expected["rho"]):
            return f"rho {doc['rho']} differs from the reference {expected['rho']}"
        scaled = np.asarray(doc["scaled_rewards"], dtype=float)
        if not np.allclose(scaled, expected["rho"] * want, rtol=0.0, atol=atol * expected["rho"]):
            return "scaled rewards differ from rho times the reference rewards"
        report = doc["incentive_report"]
        if report.get("F7", {}).get("instances") != sum(times):
            return f"F7 ran {report.get('F7', {}).get('instances')} instances, expected {sum(times)}"
        any_fail = any(c["status"] == "fail" for c in report.values())
        if any_fail != (code == cli.EXIT_CHECK_FAILED):
            return f"exit code {code} disagrees with the incentive report"
        return None

    return check


def _axiom_check(out: Path, table: np.ndarray, gaps: dict) -> Callable:
    scale = max(1.0, float(np.abs(table).max()))

    def gap_of(axiom: str, keys) -> "float | str":
        if len(keys) != 2:
            return f"{axiom} witness is not a pair"
        a, b = (_mask(k) for k in keys)
        if axiom == "monotone":
            if not a or a == b or a & ~b:
                return "monotone witness is not a proper non-empty subset pair"
            return table[a] - table[b]
        if not a or not b or a & b:
            return "superadditive witness is not a disjoint non-empty pair"
        return table[a] + table[b] - table[a | b]

    def check(code: int) -> "str | None":
        if code != cli.EXIT_CHECK_FAILED:
            return f"exit code {code}, expected {cli.EXIT_CHECK_FAILED}"
        doc = _load(out)
        if (doc.get("nonneg"), doc.get("monotone"), doc.get("superadditive")) != (True, False, False):
            return "axiom verdicts differ from nonneg only"
        for axiom, best in gaps.items():
            gap = gap_of(axiom, doc.get("witnesses", {}).get(axiom, []))
            if isinstance(gap, str):
                return gap
            if gap <= CLI_TOL or abs(gap - best) > REL_TOL * scale:
                return f"{axiom} witness gap {gap:.6g} is not the largest gap {best:.6g}"
        return None

    return check


def _friedman_check(out: Path, rows_csv: Path, rows: int, with_mnlp: bool) -> Callable:
    def check(code: int) -> "str | None":
        if code != cli.EXIT_OK:
            return f"exit code {code}, expected {cli.EXIT_OK}"
        doc = _load(out)
        if not doc.get("checks") or not all(doc["checks"].values()):
            return f"trend checks failed: {doc.get('checks')}"
        with open(rows_csv, newline="") as fh:
            table = list(csv.DictReader(fh))
        if len(table) != rows:
            return f"{len(table)} sweep rows, expected {rows}"
        if with_mnlp:
            if not all(r["mnlp"] and math.isfinite(float(r["mnlp"])) for r in table):
                return "an MNLP value is missing or not finite"
        elif any(r["mnlp"] for r in table):
            return "MNLP reported without --mnlp"
        return None

    return check


def _realize_check(out: Path, party: int, target: float) -> Callable:
    def check(code: int) -> "str | None":
        if code != cli.EXIT_OK:
            return f"exit code {code}, expected {cli.EXIT_OK}"
        doc = _load(out)
        problem = _first_error(_REALIZATION_SCHEMA, doc)
        if problem:
            return problem
        record = doc["parties"].get(str(party))
        if record is None:
            return f"no record for party {party}"
        if record["target"] != target:
            return f"target {record['target']!r} differs from the requested {target!r}"
        if not record["achieved"] >= target:
            return f"achieved {record['achieved']!r} is below the target {target!r}"
        return None

    return check


# --- workloads ---------------------------------------------------------------


def _staggered_times(rng, n: int, total: int) -> list[int]:
    """Times in 0..4 with at least one party at 0 and a fixed sum.

    The fixed sum gives every game the same number of counterfactual
    re-runs, so the cost of a batch does not depend on the seed.
    """
    while True:
        t = rng.integers(0, 5, size=n)
        if t.min() == 0 and int(t.sum()) == total:
            return [int(x) for x in t]


def _wide_times(rng, n: int) -> list[int]:
    times = [0] * n
    late = rng.choice(n, size=2, replace=False)
    times[late[0]], times[late[1]] = 1, 2
    return times


def _lowered(rng, table: np.ndarray, n: int) -> tuple[np.ndarray, dict]:
    """A copy with one coalition's value cut, breaking monotonicity and superadditivity.

    Returns the copy and the largest gap of each broken axiom.
    """
    while True:
        size = int(rng.integers(min(4, n), min(8, n) + 1))
        mask = sum(1 << int(i) for i in rng.choice(n, size=size, replace=False))
        low = table.copy()
        low[mask] = float(rng.uniform(0.2, 0.4)) * table[mask]
        gaps = oracle.lowered_coalition_gaps(table, mask, low[mask])
        if min(gaps.values()) > 100 * CLI_TOL:
            return low, gaps


def _game_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, size=count)]


def generate_staggered(seed: int, workdir: Path, scale: Scale) -> dict:
    rng = np.random.default_rng([seed, 2])
    games = []
    for k, game_seed in enumerate(_game_seeds(seed, scale.staggered_games)):
        table = np.array(random_superadditive_game(scale.staggered_n, game_seed).table())
        times = _staggered_times(rng, scale.staggered_n, scale.staggered_time_total)
        path = workdir / f"game{k}.json"
        _write_game(path, table, times, True)
        games.append({"path": path, "table": table, "times": times})
    return {"games": games}


def jobs_staggered(inputs: dict, workdir: Path, seed: int, scale: Scale) -> list[Job]:
    jobs = []
    for k, g in enumerate(inputs["games"]):
        for scheme, flag in (("cumulation", "--beta"), ("timeval", "--gamma")):
            out = workdir / f"out-{k}-{scheme}.json"
            argv = ["rewards", "--game", str(g["path"]), "--scheme", scheme, flag, "1", "--out", str(out)]
            check = _rewards_check(out, scheme, g["times"], g["table"], 1.0, {cli.EXIT_OK})
            jobs.append(Job(f"rewards_{scheme}", argv, check))
    return jobs


def generate_wide(seed: int, workdir: Path, scale: Scale) -> dict:
    rng = np.random.default_rng([seed, 3])
    (game_seed,) = _game_seeds(seed, 1)
    table = np.array(random_superadditive_game(scale.wide_n, game_seed).table())
    times = _wide_times(rng, scale.wide_n)
    low, gaps = _lowered(rng, table, scale.wide_n)
    path, low_path = workdir / "game0.json", workdir / "game0-lowered.json"
    _write_game(path, table, times, True)
    _write_game(low_path, low, None, None)
    return {"path": path, "table": table, "times": times, "low_path": low_path, "low": low, "gaps": gaps}


def jobs_wide(g: dict, workdir: Path, seed: int, scale: Scale) -> list[Job]:
    jobs = []
    for scheme, flag, codes in (
        ("cumulation", ["--beta", "1"], {cli.EXIT_OK}),
        ("timeval", ["--gamma", "1"], {cli.EXIT_OK}),
        ("naive", [], {cli.EXIT_OK, cli.EXIT_CHECK_FAILED}),
    ):
        out = workdir / f"out-{scheme}.json"
        argv = ["rewards", "--game", str(g["path"]), "--scheme", scheme, *flag, "--out", str(out)]
        check = _rewards_check(out, scheme, g["times"], g["table"], 1.0, codes)
        jobs.append(Job(f"rewards_{scheme}", argv, check))
    out = workdir / "out-check.json"
    argv = ["check", "--game", str(g["low_path"]), "--out", str(out)]
    jobs.append(Job("check", argv, _axiom_check(out, g["low"], g["gaps"])))
    return jobs


REALIZE_PARTY = 1


def generate_gp(seed: int, workdir: Path, scale: Scale) -> dict:
    data = gen_friedman(scale.realize_count, 1.0, seed)
    data = partition(data, scale.realize_sizes, seed + 1)
    path = workdir / "friedman.csv"
    save_dataset_csv(data, path)
    model = make_gp_model(data)
    own = conditional_point_value(model, model.points_of([REALIZE_PARTY]))
    full = conditional_point_value(model, range(model.n_points))
    return {"data": path, "target": 0.5 * (own + full)}


def jobs_gp(inputs: dict, workdir: Path, seed: int, scale: Scale) -> list[Job]:
    def sweep(kind, count, sizes, t1_grid, betas, gammas, mnlp):
        out, rows_csv = workdir / f"out-{kind}.json", workdir / f"out-{kind}.csv"
        argv = [
            "experiment-friedman", "--seed", str(seed), "--count", str(count),
            "--sizes", ",".join(map(str, sizes)), "--t1-grid", t1_grid,
            "--betas", betas, "--gammas", gammas, "--out-csv", str(rows_csv), "--out", str(out),
        ] + (["--mnlp"] if mnlp else [])
        rows = len(sizes) * len(t1_grid.split(",")) * (len(betas.split(",")) + len(gammas.split(",")))
        return Job(kind, argv, _friedman_check(out, rows_csv, rows, mnlp))

    out = workdir / "out-realize.json"
    target = inputs["target"]
    realize = Job(
        "realize_subset",
        ["realize", "--method", "subset", "--data", str(inputs["data"]),
         "--party", str(REALIZE_PARTY), "--target", repr(target), "--seed", str(seed),
         "--out", str(out)],
        _realize_check(out, REALIZE_PARTY, target),
    )
    return [
        sweep("friedman_mnlp", scale.mnlp_count, scale.mnlp_sizes, "0,2", "1", "1", True),
        sweep("friedman", scale.sweep_count, scale.sweep_sizes, "0,1,2", "0.5,1,2", "0.5,1", False),
        realize,
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path, Scale], dict]
    jobs: Callable[[dict, Path, int, Scale], list[Job]]
    # the calibration kernel of clock.py that matches where the time goes
    kernel: str
    # (traced function, job kind or None for the whole batch, least share of its time)
    reasons: tuple[tuple[str, "str | None", float], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-staggered",
            "n=10 games with staggered joining times: counterfactual re-runs for F7/F8 dominate",
            generate_staggered,
            jobs_staggered,
            "python",
            (("incentives.check_temporal", None, 0.70),),
        ),
        Workload(
            "table-wide",
            "n=14 games where nearly all join at once: 3^n axiom and 2^n static checks dominate",
            generate_wide,
            jobs_wide,
            "python",
            (("games.check_axioms", "rewards_cumulation", 0.60),),
        ),
        Workload(
            "gp-friedman",
            "GP valuation: information-gain tables, tempering bisection and greedy subsets",
            generate_gp,
            jobs_gp,
            "lapack",
            (("valuation.gp_ig", "friedman", 0.80), ("realization.temper", "friedman_mnlp", 0.80)),
        ),
    )
}
