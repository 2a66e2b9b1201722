"""Counters and spans around calls into eventsnn, recorded from outside it.

``Probe.install`` replaces each function in ``TRACED`` with a wrapper in
every eventsnn namespace that binds it (``from .x import y`` copies a
function into the importing module, so patching the defining module alone
would miss those callers).  The wrappers feed the counters below; they
record spans only while ``probe.tracing`` is true.  ``freeze`` snapshots
the counters at the end of a run's fixed-work prefix and, in an untraced
run, restores the originals of every wrapper no listener needs, so the
timed operations after it carry only those few.  ``uninstall`` restores
all originals.

Counters are integer counts of work done (events, lanes, rows), so they
repeat exactly from run to run.  Spans are kept in memory as
``[name, start, end, parent]`` and summarised at the end; a span's self
time is its duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict

import numpy as np

# The public functions whose calls are timed, named "<module>.<function>".
# Per-record helpers (format_time, parse_spike_record, ...) are left out:
# a wrapper around a 1 us call would time the wrapper, not the call.
TRACED = (
    "lif.next_crossing_safe",
    "lif.propagate_arrays",
    "sim.simulate_batch",
    "sim.simulate",
    "backend.forward_batch",
    "backend.forward",
    "backend.read_replay_file",
    "backend.write_replay_file",
    "backend.replay_block_to_trace",
    "core.classify_records",
    "grad.reconstruct_currents_batch",
    "grad.eventprop_backward_batch",
    "grad.eventprop_backward",
    "grad.replay_state",
    "grad.fud_feedforward",
    "grad.fud_feedforward_grads",
    "data.generate",
    "data.encode_dataset",
    "train.pack_samples",
    "train.init_network",
    "train.train",
    "train.evaluate",
    "train.predict_from_times",
    "train.first_spike_times_batch",
    "train.ttfs_from_times",
    "train.scatter_slot_grads",
    "train.ttfs_loss",
    "train.adam_step",
    "train.gradient_from_trace",
    "train.replace_weights",
    "train.read_checkpoint",
    "train.write_checkpoint",
    "cli.main",
)

MODULES = ("core", "lif", "sim", "grad", "data", "backend", "train", "cli")


class Probe:
    def __init__(self, clock):
        self.clock = clock  # the clock spans and listener starts are read from
        self.tracing = False
        self.counts = Counter()
        self.frozen = None
        self.spans = []
        self._stack = []
        self._patched = []
        self._listeners = defaultdict(list)
        self._in_sim = 0
        self._in_eval = 0
        self._kinds = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        self.uninstall()
        # eventsnn.train is shadowed by the train() function on the package,
        # so submodules are looked up by their full name.
        mods = {m: importlib.import_module(f"eventsnn.{m}") for m in MODULES}
        mods[""] = importlib.import_module("eventsnn")
        self._kinds = mods["core"].SpikeKind
        self._eps_vdot = mods["grad"].EPS_VDOT
        for qual in TRACED:
            home, fname = qual.split(".")
            original = getattr(mods[home], fname)
            wrapper = self._wrap(qual, original)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    self._patched.append((qual, mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self, keep=()) -> None:
        """Restore the originals, except of the functions named in ``keep``."""
        kept = []
        for entry in reversed(self._patched):
            qual, mod, fname, original = entry
            if qual in keep:
                kept.append(entry)
            else:
                setattr(mod, fname, original)
        self._patched = kept[::-1]
        if not keep:
            self._listeners.clear()

    def listen(self, name: str, after) -> None:
        """Call ``after(args, result, start)`` when a call to ``name`` returns.

        ``start`` is the clock reading taken on entry.
        """
        self._listeners[name].append(after)

    def clear_listeners(self) -> None:
        self._listeners.clear()

    def _wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack, listeners = self.spans, self._stack, self._listeners
        clock = self.clock

        def wrapper(*args, **kwargs):
            start = clock() if name in listeners else 0.0
            if name == "sim.simulate_batch":
                self._in_sim += 1
            elif name == "train.evaluate":
                self._in_eval += 1
            if self.tracing:
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                    self._leave(name)
            else:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leave(name)
            if count is not None:
                count(args, kwargs, result)
            for after in listeners.get(name, ()):
                after(args, result, start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leave(self, name):
        if name == "sim.simulate_batch":
            self._in_sim -= 1
        elif name == "train.evaluate":
            self._in_eval -= 1

    # -- counters ---------------------------------------------------------

    def reset(self) -> None:
        self.counts = Counter()
        self.frozen = None
        del self.spans[:]
        del self._stack[:]

    def freeze(self) -> None:
        """Snapshot the counters at the end of a run's fixed-work prefix and,
        unless tracing, drop the wrappers that no listener needs."""
        if self.frozen is None:
            self.frozen = Counter(self.counts)
            if not self.tracing:
                self.uninstall(keep=set(self._listeners))

    def _count_sim_simulate_batch(self, args, kwargs, trace):
        in_times, m, t_max = args[2], args[3], args[4]
        kinds = trace.kinds
        real = kinds != int(self._kinds.DUMMY)
        c = self.counts
        c["sim.calls"] += 1
        c["sim.samples"] += kinds.shape[0]
        c["sim.iterations"] += kinds.size
        c["sim.events"] += int(real.sum())
        c["sim.budget_hits"] += int(real[:, m - 1].sum())
        eligible = int(np.sum(np.asarray(in_times) <= t_max))
        consumed = int(np.sum(kinds == int(self._kinds.INPUT)))
        c["sim.inputs_dropped"] += eligible - consumed

    def _count_lif_next_crossing_safe(self, args, kwargs, result):
        if self._in_sim:
            self.counts["lif.lanes"] += np.size(args[0])

    def _count_grad_reconstruct_currents_batch(self, args, kwargs, result):
        kinds, net = args[2], args[3]
        internal = kinds == int(self._kinds.INTERNAL)
        vdot = result[0] - net.params.v_th / net.params.tau_mem
        c = self.counts
        c["grad.events"] += int(np.sum(kinds != int(self._kinds.DUMMY)))
        c["grad.internal"] += int(internal.sum())
        c["grad.degenerate"] += int(np.sum(internal & (np.abs(vdot) < self._eps_vdot)))

    def _count_grad_fud_feedforward(self, args, kwargs, result):
        self.counts["grad.fud_forward_rows"] += np.shape(args[0])[0]

    def _count_grad_fud_feedforward_grads(self, args, kwargs, result):
        self.counts["grad.fud_grads_rows"] += np.shape(args[0])[0]

    def _count_train_predict_from_times(self, args, kwargs, result):
        if self._in_eval:
            t_first = args[0]
            self.counts["eval.batches"] += 1
            self.counts["eval.rows"] += t_first.shape[0]
            self.counts["eval.no_decision"] += int(np.isinf(t_first).all(axis=1).sum())

    def _count_train_ttfs_from_times(self, args, kwargs, result):
        self.counts["loss.rows"] += np.shape(args[0])[0]

    def _count_train_adam_step(self, args, kwargs, result):
        self.counts["train.steps"] += 1

    def _count_backend_read_replay_file(self, args, kwargs, result):
        self.counts["replay.parsed"] += len(result.blocks)

    def _count_backend_replay_block_to_trace(self, args, kwargs, result):
        self.counts["replay.blocks"] += 1

    def _count_backend_write_replay_file(self, args, kwargs, result):
        self.counts["replay.written"] += len(args[1])

    def _count_cli_main(self, args, kwargs, result):
        self.counts["cli.commands"] += 1

    # -- span summary -----------------------------------------------------

    def span_totals(self):
        """Per name: total time, self time, and time per direct-child name."""
        total, self_t = Counter(), Counter()
        child = defaultdict(Counter)
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            total[name] += d
            self_t[name] += d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_t[pname] -= d
                child[pname][name] += d
        return total, self_t, child
