"""Batch command-line interface.

Subcommands: rewards, check, shapley, gen, realize, experiment-friedman.
Exit codes: 0 = success, 1 = usage, I/O or validation error, 2 = a
check failed (an incentive, axiom, or experiment trend), so CI can
assert that the naive baseline fails and the time-aware schemes pass.

A flag the chosen command or method would not read is refused with
exit 1 rather than ignored.  Every seed is --seed, 0 when not given.
An output path that names an input file or the other output is refused
too.  The parser is built on the first main() call and reused by later
ones.  BLAS thread counts follow the standard OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS, which must be set before the
process starts: importing this module loads numpy.  The table commands
(rewards, check, shapley) and gen load numpy only; realize and
experiment-friedman import the GP modules, and so scipy, when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import fields

from .errors import TimeRewardError
from .games import DEFAULT_TOL, TimeVector, _game_times, check_axioms, load_game_json
from .incentives import (
    cumulation_scheme,
    full_incentive_report,
    naive_scheme,
    shapley_scheme,
    time_valuation_scheme,
)
from .shapley import shapley_exact, shapley_mc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

# each --scheme name and the scheme it builds from the rewards command's flags
SCHEMES = {
    "cumulation": lambda args: cumulation_scheme(1.0 if args.beta is None else args.beta),
    "timeval": lambda args: time_valuation_scheme(1.0 if args.gamma is None else args.gamma),
    "naive": lambda args: naive_scheme(),
    "shapley": lambda args: shapley_scheme(),
}

REWARD_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scheme", "param", "times", "rewards", "scaled_rewards", "rho", "incentive_report"],
    "properties": {
        "scheme": {"enum": list(SCHEMES)},
        "param": {"type": ["number", "null"]},
        "times": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "rewards": {"type": "array", "items": {"type": "number"}},
        "scaled_rewards": {"type": "array", "items": {"type": "number"}},
        "rho": {"type": ["number", "null"]},
        "degenerate": {"type": "boolean"},
        "n": {"type": "integer", "minimum": 1},
        "grand_value": {"type": "number"},
        "tol": {"type": "number"},
        "incentive_report": {
            "type": "object",
            "patternProperties": {
                "^F[1-8]$": {
                    "type": "object",
                    "required": ["status", "instances"],
                    "properties": {
                        "status": {"enum": ["pass", "fail", "not_applicable"]},
                        "instances": {"type": "integer", "minimum": 0},
                        "witnesses": {"type": "array"},
                        "witness_count": {"type": "integer", "minimum": 0},
                        "skipped": {"type": "array"},
                    },
                }
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

REALIZATION_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["method", "parties"],
    "properties": {
        "method": {"enum": ["temper", "subset"]},
        "seed": {"type": ["integer", "null"]},
        "parties": {
            "type": "object",
            "patternProperties": {
                "^[0-9]+$": {
                    "type": "object",
                    "required": ["achieved", "target"],
                    "properties": {
                        "kappa": {"type": "number"},
                        "selected": {"type": "array", "items": {"type": "integer"}},
                        "achieved": {"type": "number"},
                        "target": {"type": "number"},
                        "flags": {"type": "array", "items": {"type": "string"}},
                    },
                }
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _write_atomic(path: str, write):
    """Have write(fd) fill a temp file beside path, then rename it over path.

    write gets the temp file's descriptor, which ``open`` takes in place
    of a path and closes when its with block ends (reopening the temp
    file by name slowed a batch of small reports by about a tenth).  If
    write raises, path is left as it was and the temp file is removed.
    ``mkstemp`` creates the file 0600 whatever the umask, so it is given
    the mode a plain ``open`` would: 0666 less the umask.  An error that
    names the temp file (a missing directory, a path that is a
    directory) is raised naming path instead.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        write(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
        return

    def write(fd: int):
        with open(fd, "w") as fh:
            fh.write(text)

    _write_atomic(out, write)


def _list_of(item):
    """An argparse type for a comma-separated tuple with no empty item."""

    def parse(raw: str) -> tuple:
        tokens = raw.split(",")
        if not all(tok.strip() for tok in tokens):
            raise argparse.ArgumentTypeError(f"empty item in the list {raw!r}")
        return tuple(item(tok) for tok in tokens)

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


_int_list = _list_of(int)
_float_list = _list_of(float)


def _seed(raw: str) -> int:
    """An argparse type for a seed: numpy draws only from a non-negative int."""
    seed = int(raw)
    if seed < 0:
        raise ValueError(raw)  # argparse names the flag and the value
    return seed


_seed.__name__ = "non-negative int"


def _out_path(raw: str) -> str:
    """An argparse type for an output path: an empty one names no file."""
    if not raw:
        raise argparse.ArgumentTypeError("empty path")
    return raw


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1 like any other bad input: 2 means a check failed."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The six-command parser; built once, since parse_args leaves it unchanged."""
    parser = _Parser(
        prog="timereward",
        description="Time-aware reward values for collaborative data sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewards", help="compute rewards and check incentives")
    p.set_defaults(handler=_cmd_rewards)
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument(
        "--times", type=_int_list, help="comma-separated joining times (overrides the file)"
    )
    p.add_argument("--scheme", required=True, choices=list(SCHEMES))
    p.add_argument("--beta", type=float, help="cumulation weight base (scheme=cumulation only)")
    p.add_argument("--gamma", type=float, help="ability decay rate (scheme=timeval only)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", type=_out_path, help="report JSON path (stdout when omitted)")

    p = sub.add_parser("check", help="run the axiom checks on a game file")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("--game", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", type=_out_path)

    p = sub.add_parser("shapley", help="exact or Monte-Carlo Shapley values")
    p.set_defaults(handler=_cmd_shapley)
    p.add_argument("--game", required=True)
    p.add_argument("--permutations", type=int, help="use Monte-Carlo estimation")
    # None when not given, so a command that draws nothing can refuse it
    p.add_argument("--seed", type=_seed, help="Monte-Carlo seed (default 0)")
    p.add_argument("--out", type=_out_path)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("dataset", choices=["friedman"])
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--noise-std", type=float, help="standard deviation of the target noise")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sizes", type=_int_list, help="comma-separated per-party sizes to partition")
    p.add_argument("--out", type=_out_path, required=True, help="CSV path")

    p = sub.add_parser("realize", help="realize a target reward value")
    p.set_defaults(handler=_cmd_realize)
    p.add_argument("--method", required=True, choices=["temper", "subset"])
    p.add_argument("--game", help="table game JSON (subset method)")
    p.add_argument("--data", help="dataset CSV (GP-backed methods)")
    p.add_argument("--gp-config", help="GP config JSON")
    p.add_argument("--party", type=int, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--seed", type=_seed, help="subset shuffle seed (method=subset only; 0)")
    p.add_argument("--tol", type=float, help="bisection tolerance (method=temper only)")
    p.add_argument("--out", type=_out_path)

    # each sweep flag is named after its FriedmanConfig field and left out
    # of the namespace when not given, so the config's defaults apply
    p = sub.add_parser("experiment-friedman", help="end-to-end Friedman sweep")
    p.set_defaults(handler=_cmd_experiment)
    unset = argparse.SUPPRESS
    p.add_argument("--seed", type=_seed, default=unset)
    p.add_argument("--count", type=int, default=unset)
    p.add_argument("--sizes", type=_int_list, default=unset)
    p.add_argument("--t1-grid", type=_int_list, default=unset)
    p.add_argument("--betas", type=_float_list, default=unset)
    p.add_argument("--gammas", type=_float_list, default=unset)
    p.add_argument(
        "--mnlp", dest="with_mnlp", action="store_true", default=unset,
        help="also realize rewards and report MNLP",
    )
    p.add_argument("--out-csv", type=_out_path, required=True, help="tidy sweep CSV path")
    p.add_argument("--out", type=_out_path, help="summary JSON path")

    return parser


def _cmd_rewards(args) -> int:
    if args.beta is not None and args.scheme != "cumulation":
        raise ValueError("--beta is only valid with --scheme cumulation")
    if args.gamma is not None and args.scheme != "timeval":
        raise ValueError("--gamma is only valid with --scheme timeval")

    game, times = load_game_json(args.game)
    if args.times is not None:
        times = _game_times(game.n, args.times).normalize()
    elif times is None:
        times = TimeVector.of([0] * game.n)
    scheme = SCHEMES[args.scheme](args)
    rewards, report = full_incentive_report(game, times, scheme, args.tol)
    doc = {
        "scheme": scheme.name,
        "param": scheme.param,
        "times": list(times.times),
        "rewards": [float(x) for x in rewards.rewards],
        "scaled_rewards": [float(x) for x in rewards.scaled],
        "rho": rewards.rho,
        "degenerate": rewards.degenerate,
        "n": game.n,
        "grand_value": game.grand_value(),
        "tol": args.tol,
        "incentive_report": report.to_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_check(args) -> int:
    game, _ = load_game_json(args.game)
    report = check_axioms(game, args.tol)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def _cmd_shapley(args) -> int:
    if args.seed is not None and args.permutations is None:
        raise ValueError("--seed is only valid with --permutations")
    game, _ = load_game_json(args.game)
    if args.permutations is not None:
        result = shapley_mc(game, args.permutations, args.seed or 0)
    else:
        result = shapley_exact(game)
    doc = {
        "method": result.method,
        "values": [float(x) for x in result.values],
        "permutations_used": result.permutations_used,
        "std_error": None
        if result.std_error is None
        else [float(x) for x in result.std_error],
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .synthdata import gen_friedman, partition, save_dataset_csv

    noise = {} if args.noise_std is None else {"noise_std": args.noise_std}
    data = gen_friedman(args.count, seed=args.seed, **noise)
    if args.sizes:
        data = partition(data, args.sizes, args.seed + 1)
    _write_atomic(args.out, lambda fd: save_dataset_csv(data, fd))
    return EXIT_OK


def _cmd_realize(args) -> int:
    from .realization import select_subset, temper
    from .synthdata import load_dataset_csv
    from .valuation import load_gp_config, make_gp_model

    if args.tol is not None and args.method != "temper":
        raise ValueError("--tol is only valid with --method temper")
    if args.game is not None and args.method != "subset":
        raise ValueError("--game is only valid with --method subset")
    if args.seed is not None and args.method != "subset":
        raise ValueError("--seed is only valid with --method subset")
    if args.game is not None and (args.data is not None or args.gp_config is not None):
        raise ValueError("--data and --gp-config are not read with --game")

    def gp_source():
        if not args.data:
            raise ValueError("--data CSV is required for GP-backed realization")
        dataset = load_dataset_csv(args.data)
        config = load_gp_config(args.gp_config) if args.gp_config else {}
        return make_gp_model(dataset, **config)

    if args.method == "temper":
        tol = {} if args.tol is None else {"tol": args.tol}
        result = temper(gp_source(), args.party, args.target, **tol)
        seed = None
        record = {
            "kappa": result.kappa,
            "achieved": result.achieved_value,
            "target": result.target_value,
            "flags": [] if result.tolerance_met else ["tolerance_not_met"],
        }
    else:
        source = load_game_json(args.game)[0] if args.game is not None else gp_source()
        seed = args.seed or 0
        result = select_subset(source, args.party, args.target, seed)
        record = {
            "selected": [int(k) for k in result.selected],
            "achieved": result.achieved_value,
            "target": result.target_value,
            "flags": ["saturated"] if result.saturated else [],
        }
    doc = {"method": args.method, "seed": seed, "parties": {str(args.party): record}}
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiment import FriedmanConfig, run_friedman_experiment, write_rows_csv

    given = vars(args)
    config = FriedmanConfig(
        **{f.name: given[f.name] for f in fields(FriedmanConfig) if f.name in given}
    )
    result = run_friedman_experiment(config)
    _write_atomic(args.out_csv, lambda fd: write_rows_csv(result.rows, fd))
    doc = {
        "seed": config.seed,
        "checks": result.checks,
        "witnesses": {k: [list(map(str, w)) for w in v] for k, v in result.witnesses.items()},
        "own_values": [float(x) for x in result.own_values],
        "shapley_values": [float(x) for x in result.shapley_values],
        "grand_value": result.grand_value,
        "rows_csv": args.out_csv,
    }
    _emit(doc, args.out)
    return EXIT_OK if result.all_pass else EXIT_CHECK_FAILED


# (flag, argparse dest) of the files a command writes, and of those it reads
_OUTPUTS = (("--out", "out"), ("--out-csv", "out_csv"))
_INPUTS = (("--game", "game"), ("--data", "data"), ("--gp-config", "gp_config"))


def _refuse_shared_paths(args):
    """Refuse an output that names an input or another output, before any work.

    A report written over its own game file, or a summary over the rows
    CSV that its rows_csv names, would replace what the run read or wrote.
    """

    def given(pairs):
        paths = [(flag, getattr(args, dest, None)) for flag, dest in pairs]
        return [(flag, path) for flag, path in paths if path is not None]

    outputs, inputs = given(_OUTPUTS), given(_INPUTS)
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ValueError(f"{flag} {path!r} names the same file as {other} {other_path!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _refuse_shared_paths(args)
        return args.handler(args)
    except (TimeRewardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
