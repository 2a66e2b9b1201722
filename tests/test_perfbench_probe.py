"""The benchmark probe binds eventsnn functions by name: every name it
traces must exist, and uninstalling must restore every original.  The
benchmark's own self-test runs each workload on tiny sizes, so a changed
call shape fails here too."""
import importlib.util
import subprocess
import sys
import time
from pathlib import Path

import eventsnn

ROOT = Path(__file__).resolve().parents[1]
PROBE_PATH = ROOT / "perfbench" / "probe.py"


def load_probe_module():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_installs_and_uninstalls_on_eventsnn():
    probe_mod = load_probe_module()
    homes = {
        qual: importlib.import_module(f"eventsnn.{qual.split('.')[0]}")
        for qual in probe_mod.TRACED
    }
    originals = {qual: getattr(homes[qual], qual.split(".")[1]) for qual in probe_mod.TRACED}
    package_simulate = eventsnn.simulate
    probe = probe_mod.Probe(time.perf_counter)
    try:
        probe.install()
        for qual, home in homes.items():
            wrapper = getattr(home, qual.split(".")[1])
            assert wrapper is not originals[qual]
            assert wrapper.__wrapped__ is originals[qual]
        assert eventsnn.simulate.__wrapped__ is package_simulate
    finally:
        probe.uninstall()
    for qual, home in homes.items():
        assert getattr(home, qual.split(".")[1]) is originals[qual]
    assert eventsnn.simulate is package_simulate


def test_perfbench_selftest_runs_every_workload():
    # the wall-clock test (TestProbeAndClock) is left to the benchmark's own runs
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "TestSpec", "TestWorkloads"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
