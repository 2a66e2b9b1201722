"""quality/run.py's one-run mode on tiny configs.  The harness reads private
parts of ``train`` (``_forward_times`` and the trace it returns beside the
output times, None on the analytic path), so a change there that breaks the
accuracy runs fails here first."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "quality" / "run.py"
TINY = {"dataset.n_train": "64", "dataset.n_test": "32", "network.n_hidden": "20"}


def load_harness():
    # importing the harness pins the BLAS thread counts in os.environ
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("quality_run", RUN)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cell", ["eventprop:numeric:1", "eventprop:mock:1", "fud:numeric:1"])
def test_one_run_prints_every_field_in_range_and_writes_nothing(tmp_path, cell):
    keys = load_harness().cell_keys(cell, 1, TINY)
    done = subprocess.run(
        [sys.executable, str(RUN), "--one", json.dumps(keys)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    (line,) = done.stdout.splitlines()
    run = json.loads(line)
    assert sorted(run) == sorted([
        "best_test_acc", "best_epoch", "final_test_acc", "final_no_decision_rate",
        "final_silent_output_frac", "final_budget_fill_rate", "final_class_counts",
        "epochs_run", "wall_s",
    ])
    for key in (
        "best_test_acc", "final_test_acc", "final_no_decision_rate", "final_silent_output_frac"
    ):
        assert 0.0 <= run[key] <= 1.0, key
    assert run["final_test_acc"] <= run["best_test_acc"]
    assert run["best_epoch"] == 0 and run["epochs_run"] == 1  # epochs count from 0
    fill = run["final_budget_fill_rate"]
    assert fill is None if cell.startswith("fud") else 0.0 <= fill <= 1.0
    counts = run["final_class_counts"]
    assert len(counts) == 3 and all(c >= 0 for c in counts) and sum(counts) == 32
    assert run["wall_s"] > 0.0
    assert not any(tmp_path.iterdir())
