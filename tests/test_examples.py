"""The demo scripts and the README's library tour run as written."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timereward

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted(REPO.glob("demos/*.py"))

# a numpy warning from any module fails a demo; with current numpy/scipy so does a
# deprecation, while the declared floors (numpy 1.24, scipy 1.10) may raise ones the
# library cannot act on without dropping them
DEMO_FLAGS = ["-W", "error::RuntimeWarning"]
if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
    DEMO_FLAGS += ["-W", "error::DeprecationWarning", "-W", "error::FutureWarning"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo, tmp_path):
    # from an empty directory, since a demo may write its output to the working
    # directory, and against the copy of the package under test, whether from the
    # source tree or installed
    root = os.path.dirname(os.path.dirname(timereward.__file__))
    run = subprocess.run(
        [sys.executable, *DEMO_FLAGS, str(demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": root},
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr


def _tour_values() -> list:
    """(source, value) of each bare expression in the README's library tour, in order."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
            shown.append((ast.unparse(node.value), value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    return shown


def test_library_tour_verdicts():
    shown = _tour_values()
    # cumulation at beta = 1 passes every incentive; the halved scheme fails F2 alone
    assert [value for source, value in shown if source == "report.all_pass"] == [True]
    assert [value for source, value in shown if source == "report.failures"] == [["F2"]]
