"""The benchmark's workloads: pinned configs, set-up, timed loop and checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  Every size-setting config key is pinned
here, so a later change of an eventsnn default does not change what a
workload measures.  The seed argument sets ``dataset.seed`` and
``train.seed``; nothing else varies between runs.

A workload's loop starts with a fixed amount of work (its *prefix*: the
first ``ACC_EPOCHS`` epochs, the first evaluation, the first CLI cycle) and
then repeats operations until its time is up.  Counts and accuracies are
taken over the prefix only, so they repeat exactly; timings are taken after
it, once the probe has frozen its counts and dropped the wrappers no
listener needs.  Timings are ``(start, end)`` spans on the run's
``RefClock``, converted to reference seconds in ``run.py``.
"""
from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("eventsnn.cli")
core = importlib.import_module("eventsnn.core")
data = importlib.import_module("eventsnn.data")
grad = importlib.import_module("eventsnn.grad")
sim = importlib.import_module("eventsnn.sim")
backend = importlib.import_module("eventsnn.backend")
train = importlib.import_module("eventsnn.train")
config = importlib.import_module("eventsnn.config")

# Epochs of a train run whose counts and test accuracy are reported.
ACC_EPOCHS = 2

WHY = {
    "train-eventprop": "5-120-3 EventProp training at B=64, m=138: sim forward, lif solver "
    "and adjoint backward carry the cost; every trace hits the budget",
    "train-fud": "same net and data on the analytic estimator: no simulate_batch or "
    "adjoint in the steps, so a sim or adjoint change must not move it",
    "eval-wide-mock": "forward-only 5-500-3 mock backend, m=2000, untruncated: wide solves, "
    "about a quarter of loop iterations on finished rows, per-row mock noise",
    "replay-cli": "export-traces then replay-train through cli.main: the B=1 path, "
    "replay parsing and per-call overhead; no other workload runs them",
}

# Keys starting with "bench." are workload parameters, the rest config keys.
PINNED = {
    "train-eventprop": {
        "network.n_hidden": 120,
        "network.n_out": 3,
        "sim.m": 138,
        "sim.t_max": 4.0,
        "backend.kind": "numeric",
        "train.estimator": "eventprop",
        "train.batch": 64,
        "train.epochs": 100000,
        "train.patience": 100000,
        "dataset.n_train": 1280,
        "dataset.n_test": 512,
    },
    "train-fud": {
        "network.n_hidden": 120,
        "network.n_out": 3,
        "sim.m": 138,
        "sim.t_max": 4.0,
        "backend.kind": "numeric",
        "train.estimator": "fud",
        "train.batch": 64,
        "train.epochs": 100000,
        "train.patience": 100000,
        "dataset.n_train": 1280,
        "dataset.n_test": 512,
    },
    "eval-wide-mock": {
        "network.n_hidden": 500,
        "network.n_out": 3,
        "sim.m": 2000,
        "sim.t_max": 4.0,
        "backend.kind": "mock",
        "train.estimator": "eventprop",
        "train.batch": 64,
        # evaluate() batches by max(train.batch, 256), so 64 test rows make
        # one batch of 64
        "dataset.n_train": 64,
        "dataset.n_test": 64,
    },
    "replay-cli": {
        "network.n_hidden": 120,
        "network.n_out": 3,
        "sim.m": 138,
        "sim.t_max": 4.0,
        "backend.kind": "numeric",
        "train.estimator": "eventprop",
        "train.batch": 64,
        # the CLI generates both sets on every command; these are the defaults
        "dataset.n_train": 5000,
        "dataset.n_test": 3000,
        "bench.samples": 64,
    },
}


def pinned(name: str, seed: int, overrides=None) -> dict:
    keys = dict(PINNED[name])
    keys.update(overrides or {})
    keys["dataset.seed"] = seed
    keys["train.seed"] = seed
    return keys


@dataclass
class Segment:
    """Timings and outcomes of one timed loop; spans are (start, end)."""

    op_samples: int = 0  # samples one operation processes
    cycle_samples: int = 0  # samples one cycle processes
    ops: list = field(default_factory=list)  # operations after the prefix
    cycles: list = field(default_factory=list)  # cycles after the prefix
    # name -> (samples per span, spans): the phases of a cycle
    phases: dict = field(default_factory=dict)
    test_acc: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def phase(self, name: str, samples: int, span) -> None:
        self.phases.setdefault(name, (samples, []))[1].append(span)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


class Workload:
    def __init__(self, name, seed, overrides, workdir: Path, clock):
        keys = pinned(name, seed, overrides)
        self.name = name
        self.params = {k[6:]: v for k, v in keys.items() if k.startswith("bench.")}
        self.cfg = config.load_config(
            None, {k: str(v) for k, v in keys.items() if not k.startswith("bench.")}
        )
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.now = clock.now
        self.enc = data.EncodingConfig(
            t_early=self.cfg.dataset.t_early,
            t_late=self.cfg.dataset.t_late,
            t_bias=self.cfg.dataset.t_bias,
            bias_enabled=self.cfg.dataset.bias_enabled,
        )
        n_total = self.cfg.network.n_hidden + self.cfg.network.n_out
        self.m = self.cfg.sim.budget(self.enc.n_inputs, n_total)
        self.last_forward = None

    def _points(self):
        d = self.cfg.dataset
        return data.generate(d.seed, d.n_train, d.r_small), data.generate(
            d.seed + 1, d.n_test, d.r_small
        )

    def _init(self, ds):
        return train.init_network(
            self.cfg, ds, np.random.default_rng(self.cfg.train.seed), self.m
        )

    def keep_last_forward(self, probe) -> None:
        def keep(args, result, start):
            self.last_forward = (args, result)

        probe.listen("backend.forward_batch", keep)

    def setup(self) -> None:
        raise NotImplementedError

    def segment(self, probe, seconds: float) -> Segment:
        raise NotImplementedError

    def checks(self, probe) -> dict:
        return {}


class TrainWorkload(Workload):
    """train.train() on pinned data, stopped after the first epoch past the
    prefix that ends past the deadline.  An operation is a train step, a
    cycle an epoch (its steps and its evaluation)."""

    def setup(self) -> None:
        train_pts, test_pts = self._points()
        ds = train.pack_samples(data.encode_dataset(train_pts, self.enc))
        train.pack_samples(data.encode_dataset(test_pts, self.enc))
        self._init(ds)

    def segment(self, probe, seconds):
        now = self.now
        batch = self.cfg.train.batch
        seg = Segment(op_samples=batch, cycle_samples=self.cfg.dataset.n_train)
        deadline = now() + seconds
        state = {"mark": 0.0, "epoch": 0.0, "epochs": 0, "loss_ok": True}

        class Stop(Exception):
            pass

        def on_init(args, result, start):
            state["mark"] = state["epoch"] = now()

        def on_loss(args, result, start):
            state["loss_ok"] = _finite(result[0], result[1])

        def on_step(args, result, start):
            t = now()
            if probe.frozen is not None:
                seg.ops.append((state["mark"], t))
            state["mark"] = t
            seg.attempted += 1
            if not (state["loss_ok"] and _finite(*args[1])):
                seg.fail(f"step {seg.attempted}: non-finite loss or gradient")

        def on_eval(args, result, start):
            t = now()
            seg.attempted += 1
            state["epochs"] += 1
            if probe.frozen is not None:
                seg.phase("eval", len(args[2]), (state["mark"], t))
                seg.cycles.append((state["epoch"], t))
            elif state["epochs"] == ACC_EPOCHS:
                seg.test_acc = result
                probe.freeze()
            state["mark"] = state["epoch"] = now()
            if seg.cycles and t >= deadline:
                raise Stop

        probe.listen("train.init_network", on_init)
        probe.listen("train.ttfs_from_times", on_loss)
        probe.listen("train.adam_step", on_step)
        probe.listen("train.evaluate", on_eval)
        self.keep_last_forward(probe)
        try:
            train.train(self.cfg)
        except Stop:
            pass
        except Exception as e:  # noqa: BLE001 - a failed step is counted, not fatal
            seg.attempted += 1
            seg.fail(f"train raised {type(e).__name__}: {e}")
        finally:
            probe.clear_listeners()
        return seg

    def checks(self, probe):
        if self.cfg.train.estimator != "eventprop" or self.last_forward is None:
            return {}
        return {"batched_equals_single": self._batched_equals_single()}

    def _batched_equals_single(self, rows: int = 4) -> bool:
        """The batched traces of a training forward pass equal B=1 simulate()."""
        args, batch = self.last_forward
        net, in_neurons, in_times, m, t_max = args[1:6]
        for b in range(min(rows, batch.batch_size)):
            inputs = [
                core.Spike(int(n), float(t), core.SpikeKind.INPUT)
                for n, t in zip(in_neurons[b], in_times[b])
            ]
            single = sim.simulate(net, inputs, m, t_max)
            if not (
                np.array_equal(single.neurons, batch.neurons[b])
                and np.array_equal(single.times, batch.times[b])
                and np.array_equal(single.kinds, batch.kinds[b])
            ):
                return False
        return True


class EvalWideMock(Workload):
    """read_checkpoint -> evaluate of a wide untrained net on the mock backend."""

    def setup(self) -> None:
        train_pts, test_pts = self._points()
        ds = train.pack_samples(data.encode_dataset(train_pts, self.enc))
        self.ds_test = train.pack_samples(data.encode_dataset(test_pts, self.enc))
        self.checkpoint = self.workdir / "checkpoint.txt"
        train.write_checkpoint(self.checkpoint, self._init(ds), self.cfg.network.n_hidden)

    def segment(self, probe, seconds):
        now = self.now
        n = len(self.ds_test)
        seg = Segment(op_samples=n, cycle_samples=n)
        self.keep_last_forward(probe)
        deadline = now() + seconds
        try:
            while not seg.cycles or now() < deadline:
                seg.attempted += 1
                t0 = now()
                try:
                    net, _ = train.read_checkpoint(self.checkpoint)
                    t1 = now()
                    acc = train.evaluate(self.cfg, net, self.ds_test, self.m)
                except Exception as e:  # noqa: BLE001
                    seg.fail(f"evaluate raised {type(e).__name__}: {e}")
                    break
                t2 = now()
                if probe.frozen is None:
                    seg.test_acc = acc
                    probe.freeze()
                else:
                    seg.ops.append((t1, t2))
                    seg.cycles.append((t0, t2))
        finally:
            probe.clear_listeners()
        return seg

    def checks(self, probe):
        frozen = probe.frozen or {}
        return {
            "trace_invariants": self.last_forward is not None
            and trace_invariants(self.last_forward[1], self.cfg.sim.t_max),
            "no_budget_hits": frozen.get("sim.calls", 0) > 0
            and frozen.get("sim.budget_hits", 0) == 0,
        }


def trace_invariants(batch, t_max: float) -> bool:
    """Real spikes form a time-sorted prefix of each row, within t_max."""
    real = batch.kinds != int(core.SpikeKind.DUMMY)
    # dummies read as the largest float, so diffs between them are 0, not nan
    times = np.where(real, batch.times, np.finfo(np.float64).max)
    return bool(
        np.all(real[:, 1:] <= real[:, :-1])
        and np.all(np.diff(times, axis=1)[real[:, 1:]] >= 0.0)
        and np.all(batch.times[real] <= t_max)
        and np.all(batch.neurons[~real] == core.DUMMY_NEURON)
        and np.all(np.isinf(batch.times[~real]))
    )


class ReplayCli(Workload):
    """cli.main export-traces, then replay-train from the exported file."""

    def __init__(self, *a):
        super().__init__(*a)
        self.n = self.params["samples"]
        self.config_path = self.workdir / "config.txt"
        config.save_config(self.cfg, self.config_path)
        self.export_dir = self.workdir / "export"
        self.replay_dir = self.workdir / "replay"

    def setup(self) -> None:
        train_pts, _ = self._points()
        self.samples = data.encode_dataset(train_pts, self.enc)[: self.n]
        self._init(train.pack_samples(self.samples))

    def _command(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--config", str(self.config_path)])

    def segment(self, probe, seconds):
        now = self.now
        seg = Segment(op_samples=1, cycle_samples=self.n)
        state = {"start": 0.0}

        # one operation is one replayed sample: rebuilding its trace from the
        # file block, then its loss and EventProp gradient
        def on_block(args, result, start):
            state["start"] = start

        def on_grad(args, result, start):
            if probe.frozen is not None:
                seg.ops.append((state["start"], now()))
            seg.attempted += 1
            if not _finite(*result):
                seg.fail(f"replayed sample {seg.attempted}: non-finite loss or gradient")

        probe.listen("backend.replay_block_to_trace", on_block)
        probe.listen("train.gradient_from_trace", on_grad)
        traces = self.export_dir / "traces.replay"
        deadline = now() + seconds
        try:
            while not seg.cycles or now() < deadline:
                t0 = now()
                rc_export = self._command(
                    ["export-traces", "--samples", str(self.n), "--out", str(self.export_dir)]
                )
                t1 = now()
                rc_replay = self._command(
                    [
                        "replay-train",
                        "--traces", str(traces),
                        "--checkpoint", str(self.export_dir / "checkpoint.txt"),
                        "--out", str(self.replay_dir),
                    ]
                )
                t2 = now()
                seg.attempted += 2
                if rc_export or rc_replay:
                    seg.fail(f"exit codes export={rc_export} replay={rc_replay}")
                    break
                if probe.frozen is None:
                    probe.freeze()
                else:
                    seg.cycles.append((t0, t2))
                    seg.phase("export", self.n, (t0, t1))
                    seg.phase("replay", self.n, (t1, t2))
        finally:
            probe.clear_listeners()
        return seg

    def checks(self, probe):
        net, _ = train.read_checkpoint(self.export_dir / "checkpoint.txt")
        ds = train.pack_samples(self.samples)
        batch = sim.simulate_batch(
            net, ds.sorted_neurons, ds.sorted_times, self.m, self.cfg.sim.t_max
        )
        rf = backend.read_replay_file(self.export_dir / "traces.replay")
        neurons = np.array([[r[0] for r in block] for block in rf.blocks])
        times = np.array([[r[1] for r in block] for block in rf.blocks])
        return {
            "replay_times_roundtrip": np.array_equal(neurons, batch.neurons)
            and np.array_equal(times, batch.times),
            "replay_gradients_match": self._gradients_match(net, ds, batch),
        }

    def _gradients_match(self, net, ds, batch) -> bool:
        """replay-train's gradients equal the batched in-memory EventProp ones
        on the same traces, up to summation order."""
        cfg = self.cfg
        t_first, slots = train.first_spike_times_batch(
            batch.neurons, batch.times, batch.kinds, net.output_set
        )
        loss_cfg = train.TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
        _, g_times = train.ttfs_from_times(t_first, ds.labels, loss_cfg, cfg.sim.t_max)
        g_w, g_w_in = grad.eventprop_backward_batch(
            batch.neurons, batch.times, batch.kinds, net,
            train.scatter_slot_grads(slots, g_times, self.m), strict=False,
        )
        mask_w, mask_w_in = train.structure_masks(
            self.enc.n_inputs, cfg.network.n_hidden, cfg.network.n_out
        )
        got_w, got_w_in = _read_gradients(self.replay_dir / "gradients.txt")
        return all(
            np.allclose(got, want, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(want).max()))
            for got, want in (
                (got_w, g_w * mask_w / len(ds)),
                (got_w_in, g_w_in * mask_w_in / len(ds)),
            )
        )


def _read_gradients(path):
    """(grad_w, grad_w_in) from replay-train's gradients.txt."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n_in = int(lines[1].split()[1])

    def rows(part):
        return np.array([[float(x) for x in ln.split()] for ln in part])

    return rows(lines[4 + n_in :]), rows(lines[3 : 3 + n_in])


WORKLOADS = {
    "train-eventprop": TrainWorkload,
    "train-fud": TrainWorkload,
    "eval-wide-mock": EvalWideMock,
    "replay-cli": ReplayCli,
}
