"""Spans around the public functions of each vesselflow module.

A `Recorder` patches functions and methods in place and restores them on
`uninstall`; nothing under `src/` changes. With `detail=False` it wraps
only the boundaries the end-to-end metrics need (loss-graph replay,
`AdamState.step`, `Trainer.run` and each time-slice read of
`analysis.speed_field`); with `detail=True` it wraps every layer behind
the per-layer metrics of BENCHMARK.json. Spans are kept in memory as
`[name, key, cpu0, cpu1, wall0, wall1, parent]`, where `parent` is the
index of the enclosing span or -1. With `detail=False` a "calibrate" span
follows each epoch and each `analysis.speed_field` slice. Clocks are `time.process_time` (CPU)
and `time.perf_counter` (wall).
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

NAME, KEY, CPU0, CPU1, WALL0, WALL1, PARENT = range(7)

# The host flips between a fast mode and a ~1.6x slower one, from a
# fraction of a second to minutes at a time. Untraced operations time this
# fixed pure-Python loop after every epoch and every speed_field slice, and the
# harness scales CPU times to a host on which it takes REFERENCE_MS.
CALIBRATION_LOOP = 120_000
REFERENCE_MS = 10.0


def calibration_loop() -> int:
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i % 7
    return x


def record_mib(tape) -> float:
    """Bytes held by the values of a record, in MiB (float nodes count 8)."""
    total = 0
    for v in tape._vals:
        total += v.nbytes if isinstance(v, np.ndarray) else 8
    return total / 2**20


class Recorder:
    def __init__(self, detail: bool = False, perturb: bool = False):
        self.detail = detail
        self.perturb = perturb  # self-test only: nudge theta after each step
        self.spans: list[list] = []
        self.facts: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._optimizer_names: dict[int, str] = {}
        self._last_tape = None

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name, key):
        parent = self._stack[-1] if self._stack else -1
        span = [name, key, time.process_time(), None, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[CPU1] = time.process_time()
        span[WALL1] = time.perf_counter()
        self._stack.pop()

    def fact(self, name, value):
        self.facts.setdefault(name, []).append(value)

    def timed(self, name, fn, key_fn=None, after=None):
        """`fn` wrapped in a span; `after(result, args, kwargs)` runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, key_fn(*args, **kwargs) if key_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, key_fn=None, after=None):
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), key_fn, after))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- installation -----------------------------------------------------

    def install(self):
        from vesselflow import analysis, autodiff, cli, config, nets, optim, physics, trainer

        self.wrap(physics.FluidLossGraph, "replay", "autodiff.replay.fluid")
        self.wrap(physics.SolidLossGraph, "replay", "autodiff.replay.solid")

        def after_step(result, args, kwargs):
            if self.perturb:
                np.nextafter(args[1], np.inf, out=args[1])
            self._calibrate()

        self.wrap(optim.AdamState, "step", "optim.step",
                  key_fn=lambda opt, *a, **k: self._optimizer_names.get(id(opt)),
                  after=after_step)
        self.wrap(trainer.Trainer, "run", "trainer.run")

        def after_slice(result, args, kwargs):
            self._field_nodes()
            self._calibrate()

        def speed_field(flow, displacement):
            return self.timed("analysis.speed_field", original_speed_field(flow, displacement),
                              after=after_slice)

        original_speed_field = analysis.speed_field
        self._patch(analysis, "speed_field", speed_field)

        def after_trainer_init(result, args, kwargs):
            for name, opt in args[0].optimizers.items():
                self._optimizer_names[id(opt)] = name

        # Untimed: learns which optimizer belongs to which network.
        self._patch(trainer.Trainer, "__init__",
                    self._after(trainer.Trainer.__init__, after_trainer_init))
        if not self.detail:
            return

        def remember_tape(result, args, kwargs):
            self._last_tape = args[0]

        self._patch(autodiff.Tape, "__init__", self._after(autodiff.Tape.__init__, remember_tape))

        def graph_facts(kind):
            def after(result, args, kwargs):
                tape = args[0].tape
                self.fact(f"nodes.{kind}", len(tape))
                self.fact(f"record_mib.{kind}", record_mib(tape))
            return after

        self.wrap(physics.FluidLossGraph, "__init__", "physics.build.fluid",
                  after=graph_facts("fluid"))
        self.wrap(physics.SolidLossGraph, "__init__", "physics.build.solid",
                  after=graph_facts("solid"))
        group_key = lambda graph, groups, *a, **k: ",".join(groups)
        self.wrap(physics.FluidLossGraph, "param_grads", "autodiff.backward", key_fn=group_key)
        self.wrap(physics.SolidLossGraph, "param_grads", "autodiff.backward", key_fn=group_key)

        # trainer and cli import these by name, so patch those namespaces.
        self.wrap(trainer, "draw_samples", "domain.sample")
        self.wrap(config, "load_config", "config.load")
        self.wrap(cli, "load_config", "config.load")

        def file_size(fact):
            return lambda result, args, kwargs: self.fact(fact, os.path.getsize(args[0]))

        # np.savez adds the .npz suffix when the path lacks it; the trainer
        # always passes it.
        self.wrap(nets, "save_networks", "nets.checkpoint_write",
                  after=file_size("checkpoint_bytes"))
        self.wrap(nets, "load_networks", "nets.checkpoint_load")
        self.wrap(trainer.Trainer, "fluid_block", "trainer.stage")
        self.wrap(trainer.Trainer, "solid_phase", "trainer.stage")
        self.wrap(trainer.TrainingHistory, "write_csv", "trainer.history_write")
        self.wrap(analysis, "export_fields", "analysis.export", after=file_size("export_bytes"))
        self.wrap(analysis, "probe", "analysis.probe")
        self.wrap(analysis, "outlet_flux", "analysis.outlet_flux")

    def _after(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, kwargs)
            return result
        return wrapper

    def _calibrate(self):
        # Traced operations skip it: their layer spans would contain it.
        if not self.detail:
            self.timed("calibrate", calibration_loop)()

    def _field_nodes(self):
        if self.detail and self._last_tape is not None:
            self.fact("nodes.field", len(self._last_tape))

    # -- derived quantities ---------------------------------------------

    def named(self, name, key=None):
        return [s for s in self.spans
                if s[NAME] == name and (key is None or s[KEY] == key) and s[CPU1] is not None]

    def epochs(self) -> list[list]:
        """Epoch spans: first replay of the epoch to the return of its step.

        Collocation draws and graph builds between stages fall outside."""
        out, start = [], None
        for s in self.spans:
            if s[CPU1] is None:
                continue
            if s[NAME].startswith("autodiff.replay") and start is None:
                start = s
            elif s[NAME] == "optim.step" and start is not None:
                out.append(["epoch", s[KEY], start[CPU0], s[CPU1], start[WALL0], s[WALL1], -1])
                start = None
        return out


def durations(spans) -> list[float]:
    """CPU seconds of each span."""
    return [s[CPU1] - s[CPU0] for s in spans]


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer values from a detailed recording; None where not called."""
    def median(name, key=None, unit=1e3):
        spans = rec.named(name, key)
        return statistics.median(durations(spans)) * unit if spans else None

    def first(fact):
        return rec.facts[fact][0] if fact in rec.facts else None

    m = {}
    m["autodiff.replay_ms.fluid"] = median("autodiff.replay.fluid")
    m["autodiff.replay_ms.solid"] = median("autodiff.replay.solid")
    for net in "upd":
        m[f"autodiff.backward_ms.{net}"] = median("autodiff.backward", net)
        m[f"optim.step_us.{net}"] = median("optim.step", net, 1e6)
        m[f"trainer.epochs.{net}"] = len(rec.named("optim.step", net))
    m["autodiff.nodes.fluid"] = first("nodes.fluid")
    m["autodiff.nodes.solid"] = first("nodes.solid")
    m["autodiff.nodes.field"] = first("nodes.field")
    m["autodiff.record_mb.fluid"] = first("record_mib.fluid")
    m["autodiff.record_mb.solid"] = first("record_mib.solid")
    if m["autodiff.nodes.fluid"] and m["autodiff.replay_ms.fluid"]:
        m["autodiff.replay_nodes_per_ms"] = m["autodiff.nodes.fluid"] / m["autodiff.replay_ms.fluid"]
    else:
        m["autodiff.replay_nodes_per_ms"] = None
    m["physics.build_s.fluid"] = median("physics.build.fluid", unit=1.0)
    m["physics.build_s.solid"] = median("physics.build.solid", unit=1.0)
    m["physics.builds"] = (len(rec.named("physics.build.fluid"))
                           + len(rec.named("physics.build.solid")))
    m["domain.sample_ms"] = median("domain.sample")
    m["nets.evaluate_ms"] = median("nets.evaluate")
    m["nets.checkpoint_write_ms"] = median("nets.checkpoint_write")
    m["nets.checkpoint_bytes"] = first("checkpoint_bytes")
    m["nets.checkpoint_load_ms"] = median("nets.checkpoint_load")

    epochs = rec.epochs()
    if epochs:
        inner = [s for s in rec.spans if s[CPU1] is not None and s[NAME] in (
            "autodiff.replay.fluid", "autodiff.replay.solid", "autodiff.backward", "optim.step")]
        selfs = []
        for e, total in zip(epochs, durations(epochs)):
            parts = [s for s in inner if s[CPU0] >= e[CPU0] and s[CPU1] <= e[CPU1]]
            selfs.append((total - sum(durations(parts))) * 1e3)
        m["trainer.self_ms"] = statistics.median(selfs)
    else:
        m["trainer.self_ms"] = None
    m["trainer.history_write_ms"] = median("trainer.history_write")
    m["analysis.speed_field_ms"] = median("analysis.speed_field")
    m["analysis.export_s"] = median("analysis.export", unit=1.0)
    m["analysis.export_mb"] = (max(rec.facts["export_bytes"]) / 2**20
                               if "export_bytes" in rec.facts else None)
    m["analysis.probe_ms"] = median("analysis.probe")
    m["analysis.outlet_flux_ms"] = median("analysis.outlet_flux")
    m["config.load_ms"] = median("config.load")
    return m
