"""Outside-in spans around the public functions of each ``timereward`` module.

``Tracer.install`` rebinds every traced name, in every ``timereward``
module that holds it, to a wrapper that records a span: name, start,
end and the span that was open when it began.  Nothing under ``src``
changes; ``uninstall`` puts the originals back.  A name a later version
of the library no longer has is listed in ``absent`` and reported as
zero, not as a failure.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = (
    "cli.main",
    "games.load_game_json",
    "games.check_axioms",
    "games.Game.table",
    "shapley.shapley_exact",
    "shapley.naive_time_division",
    "rewards.reward_cumulation",
    "rewards.interval_shapley_values",
    "rewards.reward_time_valuation",
    "rewards.time_aware_game",
    "rewards.scale_rewards",
    "incentives.full_incentive_report",
    "incentives.check_static",
    "incentives.check_temporal",
    "incentives.strictness_predicate",
    "incentives.necessity_predicate",
    "valuation.gp_ig",
    "valuation.information_gain",
    "valuation.conditional_ig_game",
    "valuation.gp_predict",
    "realization.temper",
    "realization.tempered_value",
    "realization.select_subset",
    "synthdata.gen_friedman",
    "synthdata.partition",
    "synthdata.mnlp",
    "experiment.run_friedman_experiment",
)

# The functions a reward scheme closure calls; one called straight from
# check_temporal is a counterfactual re-run.
SCHEME_FUNCTIONS = frozenset(
    {
        "rewards.reward_cumulation",
        "rewards.reward_time_valuation",
        "shapley.naive_time_division",
        "shapley.shapley_exact",
    }
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans kept in memory, with per-function call counts, total and self time.

    Total time counts only the outermost active call of a name, so a
    function that re-enters itself is not counted twice.  Self time is a
    span's duration minus the time its direct child spans cover.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id, job id, name, start, end)
        self.calls = dict.fromkeys(TRACED, 0)
        self.total = dict.fromkeys(TRACED, 0.0)
        self.self_time = dict.fromkeys(TRACED, 0.0)
        self.total_by_kind: dict[str, dict[str, float]] = {}
        self.counterfactual_reruns = 0
        self.absent: list[str] = []
        self.job_id: str | None = None
        self.job_kind: str | None = None
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installing ------------------------------------------------------

    def install(self):
        modules = [
            m for key, m in sys.modules.items() if key == "timereward" or key.startswith("timereward.")
        ]
        for name in TRACED:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"timereward.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                self._rebind(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # -- recording -------------------------------------------------------

    def _enter(self, name: str):
        if (
            name in SCHEME_FUNCTIONS
            and self._stack
            and self._stack[-1][1] == "incentives.check_temporal"
        ):
            self.counterfactual_reruns += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def _leave(self):
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if not any(frame[1] == name for frame in self._stack):
            self.total[name] += duration
            by_kind = self.total_by_kind.setdefault(self.job_kind, {})
            by_kind[name] = by_kind.get(name, 0.0) + duration
        self.spans.append(
            (span_id, None if parent is None else parent[0], self.job_id, name, start, end)
        )

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, batches: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), counts and times per traced batch."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name] / batches, "count")
            out[f"{name}.total_s"] = (self.total[name] / batches, "s")
            out[f"{name}.self_s"] = (self.self_time[name] / batches, "s")
        out["incentives.counterfactual_reruns"] = (self.counterfactual_reruns / batches, "count")
        out["realization.evals_per_temper"] = (
            _ratio(self.calls["realization.tempered_value"], self.calls["realization.temper"]),
            "ratio",
        )
        out["shapley.shapley_exact.calls_per_report"] = (
            _ratio(self.calls["shapley.shapley_exact"], self.calls["incentives.full_incentive_report"]),
            "ratio",
        )
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "job": job,
                         "name": name, "start": start, "end": end}
                    )
                )
                fh.write("\n")
