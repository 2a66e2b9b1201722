"""eventsnn benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports eventsnn from ``src/`` of that
checkout, sets the workload up several times, runs its closed loop for S
seconds, checks the outputs, sets it up again, prints a readable report
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones in BENCHMARK.json; with ``--trace 1`` the loop runs S/2
seconds untraced and then S/2 seconds traced, and the metrics are the
per-layer ones.  Times are in reference seconds (see ``refclock.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

# BLAS threads are pinned before numpy loads: one thread keeps runs steady
# and the process on a single core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs before the loop (at least twice) and after it (at least
# once), each time until a second is spent; setup_s is the median of all.
# The set-ups cycle through SETUP_SEEDS seeds, the run's own first and then
# seed + 1000, seed + 2000, ...: the init probe's cost depends on the seed
# (one to twelve probe passes), and a single seed's cost would make the
# median over a set of runs depend on which seeds the set drew.
SETUPS_BEFORE, SETUPS_AFTER, SETUPS_MAX, SETUP_SECONDS = 2, 1, 15, 1.0
SETUP_SEEDS = 4

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.setup_ms": "ms",
    "train.init_probe_ms": "ms",
    "sim.events_per_sample": "count",
    "sim.budget_hit_rate": "ratio",
    "sim.inputs_dropped_per_sample": "count",
    "sim.useful_iter_frac": "ratio",
    "sim.self_us_per_event": "us",
    "lif.lanes_per_event": "count",
    "lif.ns_per_lane": "ns",
    "lif.self_ms_per_sample": "ms",
    "lif.share_of_forward": "ratio",
    "grad.reconstruct_us_per_event": "us",
    "grad.backward_self_us_per_event": "us",
    "grad.degenerate_frac": "ratio",
    "grad.fud_forward_ms_per_sample": "ms",
    "grad.fud_grads_ms_per_sample": "ms",
    "backend.mock_self_us_per_event": "us",
    "backend.replay_parse_ms_per_sample": "ms",
    "backend.replay_block_ms_per_sample": "ms",
    "backend.export_write_ms_per_sample": "ms",
    "train.loss_us_per_sample": "us",
    "train.adam_ms_per_step": "ms",
    "train.loop_self_ms_per_step": "ms",
    "train.test_acc": "ratio",
    "train.no_decision_rate": "ratio",
    "cli.self_ms_per_command": "ms",
    "trace.overhead_frac": "ratio",
}

# Workload-specific names for the end-to-end figures, per workload kind:
# name -> (key in the report's figures or counts, unit).
NAMED = {
    "train": {
        "train_samples_per_s": ("op_samples_per_s", "1/s"),
        "train_step_ms_p50": ("op_ms_p50", "ms"),
        "train_step_ms_p90": ("op_ms_p90", "ms"),
        "epoch_s": ("cycle_s", "s"),
        "eval_samples_per_s": ("eval_samples_per_s", "1/s"),
    },
    "eval": {
        "eval_samples_per_s": ("op_samples_per_s", "1/s"),
        "eval_batch_ms_p50": ("op_ms_p50", "ms"),
        "eval_batch_ms_p90": ("op_ms_p90", "ms"),
        "eval_pass_s": ("cycle_s", "s"),
    },
    "replay": {
        "replay_samples_per_s": ("replay_samples_per_s", "1/s"),
        "export_samples_per_s": ("export_samples_per_s", "1/s"),
        "replay_sample_ms_p50": ("op_ms_p50", "ms"),
        "replay_sample_ms_p90": ("op_ms_p90", "ms"),
        "cli_cycle_s": ("cycle_s", "s"),
    },
}
COMMON = {
    "test_acc": ("train.test_acc", "ratio"),
    "no_decision_rate": ("train.no_decision_rate", "ratio"),
    "error_rate": ("error_rate", "ratio"),
    "raw_op_ms_p50": ("raw_op_ms_p50", "ms"),
    "ref_kernel_ms_p50": ("ref_kernel_ms_p50", "ms"),
}


def _import_eventsnn():
    """Import eventsnn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "eventsnn" / "__init__.py").is_file():
        sys.exit(f"no eventsnn sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import eventsnn

    if Path(eventsnn.__file__).resolve().parent != (src / "eventsnn").resolve():
        sys.exit(f"eventsnn imported from {eventsnn.__file__}, not from {src}")
    return eventsnn


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def deterministic_counts(frozen, seg) -> dict:
    """Counts over the run's prefix; they repeat exactly, traced or not."""
    c = frozen or {}
    events = c.get("sim.events", 0)
    return {
        "sim.events_per_sample": _ratio(events, c.get("sim.samples", 0)),
        "sim.budget_hit_rate": _ratio(c.get("sim.budget_hits", 0), c.get("sim.samples", 0)),
        "sim.inputs_dropped_per_sample": _ratio(
            c.get("sim.inputs_dropped", 0), c.get("sim.samples", 0)
        ),
        "sim.useful_iter_frac": _ratio(events, c.get("sim.iterations", 0)),
        "lif.lanes_per_event": _ratio(c.get("lif.lanes", 0), events),
        "grad.degenerate_frac": _ratio(c.get("grad.degenerate", 0), c.get("grad.internal", 0)),
        "train.test_acc": seg.test_acc if seg.test_acc is not None else 0.0,
        "train.no_decision_rate": _ratio(c.get("eval.no_decision", 0), c.get("eval.rows", 0)),
    }


def per_layer(probe, seg_counts, setup_totals, setups, overhead) -> dict:
    """Per-layer metrics from the traced segment's spans and counts."""
    total, self_t, child = probe.span_totals()
    c = seg_counts
    setup_total, _, _ = setup_totals
    events = c["sim.events"]
    sim_total = total["sim.simulate_batch"]
    in_sim = child["sim.simulate_batch"]
    lif_in_sim = in_sim["lif.next_crossing_safe"] + in_sim["lif.propagate_arrays"]
    loss_fns = (
        "train.first_spike_times_batch", "train.ttfs_from_times", "train.scatter_slot_grads"
    )
    loss_time = sum(total[f] - child["train.evaluate"][f] for f in loss_fns)
    per_setup = 1e3 / setups
    return {
        "data.setup_ms": per_setup * sum(
            setup_total[f] for f in ("data.generate", "data.encode_dataset", "train.pack_samples")
        ),
        "train.init_probe_ms": per_setup * setup_total["train.init_network"],
        "sim.self_us_per_event": 1e6 * _ratio(self_t["sim.simulate_batch"], events),
        "lif.ns_per_lane": 1e9 * _ratio(in_sim["lif.next_crossing_safe"], c["lif.lanes"]),
        "lif.self_ms_per_sample": 1e3 * _ratio(lif_in_sim, c["sim.samples"]),
        "lif.share_of_forward": _ratio(lif_in_sim, sim_total),
        "grad.reconstruct_us_per_event": 1e6
        * _ratio(total["grad.reconstruct_currents_batch"], c["grad.events"]),
        "grad.backward_self_us_per_event": 1e6
        * _ratio(self_t["grad.eventprop_backward_batch"], c["grad.events"]),
        "grad.fud_forward_ms_per_sample": 1e3
        * _ratio(total["grad.fud_feedforward"], c["grad.fud_forward_rows"]),
        "grad.fud_grads_ms_per_sample": 1e3
        * _ratio(total["grad.fud_feedforward_grads"], c["grad.fud_grads_rows"]),
        "backend.mock_self_us_per_event": 1e6 * _ratio(self_t["backend.forward_batch"], events),
        "backend.replay_parse_ms_per_sample": 1e3
        * _ratio(total["backend.read_replay_file"], c["replay.parsed"]),
        "backend.replay_block_ms_per_sample": 1e3
        * _ratio(total["backend.replay_block_to_trace"], c["replay.blocks"]),
        "backend.export_write_ms_per_sample": 1e3
        * _ratio(total["backend.write_replay_file"], c["replay.written"]),
        "train.loss_us_per_sample": 1e6 * _ratio(loss_time, c["loss.rows"]),
        "train.adam_ms_per_step": 1e3 * _ratio(total["train.adam_step"], c["train.steps"]),
        "train.loop_self_ms_per_step": 1e3 * _ratio(self_t["train.train"], c["train.steps"]),
        "cli.self_ms_per_command": 1e3 * _ratio(self_t["cli.main"], c["cli.commands"]),
        "trace.overhead_frac": overhead,
    }


def figures(clock, setups, seg) -> dict:
    """The gated END_TO_END figures and the workload-specific ones, from
    spans converted to reference seconds."""
    ops = [clock.ref_seconds(span) for span in seg.ops]
    cycle_s = statistics.median(clock.ref_seconds(span) for span in seg.cycles)
    out = {
        "setup_s": statistics.median(clock.ref_seconds(span) for span in setups),
        "samples_per_s": seg.cycle_samples / cycle_s,
        "op_ms_p50": 1e3 * statistics.median(ops),
        "op_ms_p90": 1e3 * _percentile(ops, 90),
        "op_samples_per_s": seg.op_samples / statistics.median(ops),
        "cycle_s": cycle_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_op_ms_p50": 1e3 * statistics.median(b - a for a, b in seg.ops),
        "ref_kernel_ms_p50": 1e3 * statistics.median(d for _, d in clock.samples),
    }
    for name, (samples, spans) in seg.phases.items():
        out[f"{name}_samples_per_s"] = samples / statistics.median(
            clock.ref_seconds(span) for span in spans
        )
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _setups(wls, done: int, minimum: int) -> list:
    """Time set-ups, cycling through ``wls`` from set-up number ``done``."""
    spans = []
    while len(spans) < minimum or (
        sum(b - a for a, b in spans) < SETUP_SECONDS and len(spans) < SETUPS_MAX
    ):
        wl = wls[(done + len(spans)) % len(wls)]
        t0 = wl.now()
        wl.setup()
        spans.append((t0, wl.now()))
    return spans


def run(name, seed, seconds, trace, overrides=None) -> dict:
    """Run one workload in this process; returns the full report."""
    from probe import Probe
    from refclock import RefClock
    from workloads import WHY, WORKLOADS, pinned

    clock = RefClock()
    probe = Probe(clock.now)
    probe.install()
    clock.start()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            # the run's own workload is set up first, and the loop uses it
            wls = [
                WORKLOADS[name](name, s, overrides, Path(tmp) / f"seed{s}", clock)
                for s in range(seed, seed + 1000 * SETUP_SEEDS, 1000)
            ]
            wl = wls[0]
            probe.tracing = bool(trace)
            setups = _setups(wls, 0, SETUPS_BEFORE)
            traced_setups = len(setups)
            setup_totals = probe.span_totals()
            probe.tracing = False
            probe.reset()
            overhead = 0.0
            if trace:
                plain = wl.segment(probe, seconds / 2)
                probe.install()
                probe.reset()
                probe.tracing = True
                seg = wl.segment(probe, seconds / 2)
                probe.tracing = False
                overhead = statistics.median(map(clock.ref_seconds, seg.ops)) / statistics.median(
                    map(clock.ref_seconds, plain.ops)
                ) - 1.0
                seg.attempted += plain.attempted
                seg.failed += plain.failed
                seg.errors += plain.errors
            else:
                seg = wl.segment(probe, seconds)
            seg_counts = probe.counts.copy()
            checks = {k: bool(v) for k, v in wl.checks(probe).items()}
            setups += _setups(wls, len(setups), SETUPS_AFTER)
    finally:
        clock.stop()
        probe.uninstall()

    failed = seg.failed + sum(not ok for ok in checks.values())
    report = {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "config": pinned(name, seed, overrides),
        "machine": machine(),
        "setups": len(setups),
        "ops": len(seg.ops),
        "cycles": len(seg.cycles),
        "kernel_samples": len(clock.samples),
        "checks": checks,
        "errors": seg.errors,
        "attempted": seg.attempted + len(checks),
        "failed": failed,
        "error_rate": _ratio(failed, seg.attempted + len(checks)),
        "figures": figures(clock, setups, seg),
        "counts": deterministic_counts(probe.frozen, seg),
    }
    if trace:
        layers = per_layer(probe, seg_counts, setup_totals, traced_setups, overhead)
        report["per_layer"] = {**layers, **report["counts"]}
    return report


def named(report):
    """(name, value, unit) for the end-to-end figures that apply here."""
    flat = {**report["figures"], **report["counts"], "error_rate": report["error_rate"]}
    kind = report["workload"].split("-")[0]
    gated = {k: (k, u) for k, u in END_TO_END.items()}
    return [(n, flat[k], u) for n, (k, u) in {**gated, **NAMED[kind], **COMMON}.items()]


def result_line(report) -> dict:
    """The JSON object the benchmark prints last."""
    if report["trace"]:
        metrics = {k: {"value": report["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report["figures"][k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": report["failed"] == 0 and all(report["checks"].values()),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_eventsnn()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    report = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['ops']} operations, {report['cycles']} cycles, checks {report['checks']}")
    for name, value, unit in named(report):
        print(f"  {name:<24} {value:.6g} {unit}")
    print("report " + json.dumps(report))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
