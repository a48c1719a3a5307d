#!/usr/bin/env python3
"""Benchmark of the timereward CLI: one workload per process, one job at a time.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload table-staggered --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The program is imported from ``src/`` and driven through
``timereward.cli.main`` in-process, as a single client in a closed loop:
each job starts when the previous one returns.  The workload's job list
(a batch) is repeated while the next batch should end within half a
batch of ``--seconds``.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs untraced for half the time, then traces the public
functions of every module for the other half and prints the per-layer
metrics.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

Times are CPU seconds normalized by a calibration kernel (see clock.py).
Results, per-job failures, the environment and the spans of a traced
run are written under ``.perfbench_out/`` at the root of the checkout.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("table-staggered", "table-wide", "gp-friedman")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import the library from this checkout's ``src``, and nowhere else."""
    if not (SRC / "timereward" / "__init__.py").is_file():
        raise BenchError(f"no timereward sources under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("timereward.cli")
    if SRC not in Path(module.__file__).resolve().parents:
        raise BenchError(f"timereward was imported from {module.__file__}, not from {SRC}")


def import_in_fresh_interpreter():
    """What a user's run of the CLI pays before its first job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import timereward.cli"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_batch(jobs, cli, workdir: Path, meter, tracer, batch_index: int) -> list:
    """Run the job list once, one job after another; then check every job's outputs.

    Returns (kind, Timing, error) per job.
    """

    def call(job):
        try:
            return cli.main(job.argv), None
        except Exception as exc:  # a crash in the program is a failed job
            return None, f"raised {type(exc).__name__}: {exc}"

    for stale in workdir.glob("out-*"):
        stale.unlink()
    runs = []
    with contextlib.redirect_stdout(sys.stderr):
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id, tracer.job_kind = f"{batch_index}:{index}:{job.kind}", job.kind
            (code, error), timing = meter.measure(lambda: call(job))
            runs.append((job, code, timing, error))
    out = []
    for job, code, timing, error in runs:
        if error is None:
            try:
                error = job.check(code)
            except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                error = f"outputs unreadable: {type(exc).__name__}: {exc}"
        out.append((job.kind, timing, error))
    return out


def run_for(seconds: float, jobs, cli, workdir, meter, tracer, record: dict):
    """Repeat the job list while the next batch should end within half a batch of ``seconds``."""
    start = time.perf_counter()
    while True:
        runs = run_batch(jobs, cli, workdir, meter, tracer, len(record["batches"]))
        batch = clock.Timing(*(sum(getattr(t, f) for _, t, _ in runs) for f in ("seconds", "cpu", "wall")))
        record["batches"].append(batch)
        for kind, timing, error in runs:
            record["jobs"].setdefault(kind, []).append(timing)
            record["attempted"] += 1
            if error is not None:
                record["failed"] += 1
                record["failures"].append(f"{kind}: {error}")
        if time.perf_counter() - start + batch.wall / 2 > seconds:
            return


def new_record() -> dict:
    return {"batches": [], "jobs": {}, "attempted": 0, "failed": 0, "failures": []}


def median_of(timings, field: str = "seconds") -> float:
    return statistics.median(getattr(t, field) for t in timings)


def end_to_end(record: dict, setup: list) -> dict:
    """The end-to-end metrics of BENCHMARK.json as (value, unit).

    Set-up is mostly a fresh interpreter reading and importing modules,
    which neither calibration kernel resembles, so it is raw CPU time.
    """
    return {
        "setup_s": (median_of(setup, "cpu"), "s"),
        "batch_s": (median_of(record["batches"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def print_row(name: str, value, unit: str, note: str = ""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {shown:>12} {unit:<6} {note}")


def print_end_to_end(record: dict, metrics: dict, setup: list):
    print("  end-to-end: median normalized CPU s (setup_s: raw CPU s), samples; raw medians:")

    def timed(name, timings, value):
        raw = f"cpu {median_of(timings, 'cpu'):.6g}  wall {median_of(timings, 'wall'):.6g}"
        print_row(name, value, "s", f"n={len(timings):<4} {raw}")

    timed("setup_s", setup, metrics["setup_s"][0])
    timed("batch_s", record["batches"], metrics["batch_s"][0])
    for kind, timings in record["jobs"].items():
        timed(f"{kind}_s", timings, median_of(timings))
    print_row("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", "ru_maxrss")
    print_row("failed_ratio", record["failed"] / record["attempted"], "1", f"of {record['attempted']} jobs")


def print_layers(metrics: dict, tracer, batches: int):
    print(f"  per layer, CPU s per traced batch ({batches} batches):")
    print(f"  {'function':<40} {'calls':>10} {'total_s':>12} {'self_s':>12}")
    for name in tracing.TRACED:
        if name in tracer.absent:
            print(f"  {name:<40} {'absent':>10}")
            continue
        calls, total, own = (metrics[f"{name}.{m}"][0] for m in ("calls", "total_s", "self_s"))
        print(f"  {name:<40} {calls:>10.6g} {total:>12.6g} {own:>12.6g}")
    for name in (
        "incentives.counterfactual_reruns",
        "realization.evals_per_temper",
        "shapley.shapley_exact.calls_per_report",
        "trace_overhead_ratio",
    ):
        print_row(name, metrics[name][0], metrics[name][1])


def reason_shares(workload, tracer, record: dict) -> list[dict]:
    """Each workload's stated reason, as the traced share of the CPU time it claims."""
    out = []
    for name, kind, least in workload.reasons:
        if kind is None:
            part = tracer.total[name]
            whole, of = sum(t.cpu for t in record["batches"]), "batch_s"
        else:
            part = tracer.total_by_kind.get(kind, {}).get(name, 0.0)
            whole, of = sum(t.cpu for t in record["jobs"].get(kind, [])), f"{kind}_s"
        share = part / whole if whole else 0.0
        out.append({"function": name, "of": of, "share": share, "least": least, "holds": share >= least})
    return out


def run_workload(args) -> int:
    import_program()
    import workloads
    from timereward import cli

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.TINY if args.tiny else workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"inputs-{label}-{os.getpid()}"
    workdir.mkdir()
    try:
        meter = clock.Meter(workload.kernel)

        def set_up():
            import_in_fresh_interpreter()
            return workload.generate(args.seed, workdir, scale)

        setup = []
        for _ in range(SETUP_REPEATS):
            inputs, timing = meter.measure(set_up)
            setup.append(timing)
        jobs = workload.jobs(inputs, workdir, args.seed, scale)

        env = environment(args.seed)
        result = {"workload": args.workload, "environment": env, "setup": setup}
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        print(f"  why: {workload.why}")
        print(
            f"  env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
            f"numpy={env['numpy']} scipy={env['scipy']} threads={env['threads']}"
        )
        if env["blas"]:
            print(f"  blas: {env['blas'].get('name')} {env['blas'].get('version')}")

        untraced = new_record()
        if not args.trace:
            run_for(args.seconds, jobs, cli, workdir, meter, None, untraced)
            metrics = end_to_end(untraced, setup)
            print_end_to_end(untraced, metrics, setup)
            records = [untraced]
        else:
            run_for(args.seconds / 2, jobs, cli, workdir, meter, None, untraced)
            tracer = tracing.Tracer(clock=time.process_time)
            traced = new_record()
            tracer.install()
            try:
                quiet = clock.Meter(workload.kernel, sample=False)
                run_for(args.seconds / 2, jobs, cli, workdir, quiet, tracer, traced)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT_DIR / f"{label}-spans.jsonl")
            metrics = tracer.layer_metrics(len(traced["batches"]))
            overhead = median_of(traced["batches"]) / median_of(untraced["batches"])
            metrics["trace_overhead_ratio"] = (overhead, "ratio")
            print_end_to_end(untraced, end_to_end(untraced, setup), setup)
            print_layers(metrics, tracer, len(traced["batches"]))
            result["reasons"] = reason_shares(workload, tracer, traced)
            for r in result["reasons"]:
                verdict = "holds" if r["holds"] else "DOES NOT HOLD"
                print(
                    f"  reason: {r['function']} is {r['share']:.1%} of {r['of']}"
                    f" (at least {r['least']:.0%}: {verdict})"
                )
            result["traced"] = traced
            records = [untraced, traced]

        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        for failure in [f for r in records for f in r["failures"]][:10]:
            print(f"  FAILED {failure}")
        result.update(untraced=untraced, metrics={k: v[0] for k, v in metrics.items()})
        (OUT_DIR / f"{label}.json").write_text(json.dumps(result, indent=1, default=vars) + "\n")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; untraced, and traced too with ``--trace 1``."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                print("\n".join(lines))
                raise BenchError(f"{name} (trace {trace}) exited with {proc.returncode}")
            print("\n".join(lines[:-1]))
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    summary = {k: {f: r[f] for f in ("correct", "attempted", "failed")} for k, r in results.items()}
    print(json.dumps({"correct": correct, "results": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
