"""Staged training scheduler.

The schedule has three stages. First the flow networks are fitted to
boundary and initial data alone (momentum weight zero). Then the
momentum-residual weight climbs a factor-of-ten ladder, with a capped
block of flow epochs at each rung. Finally the wall and flow problems
alternate: a solid phase updates the displacement network against the
ring model while flow quantities enter as constants, then a flow block
re-fits velocity and pressure on the moved domain.

Inside every flow block the velocity and pressure optimizers take turns
in fixed-size runs, so exactly one parameter vector changes per epoch.
Collocation points are drawn once per stage from stage-indexed seeds;
the ladder is one stage, so all its rungs share one draw. Every block or
phase builds its own loss records, with its weights fixed in them, and
frees them when it ends.
Any phase stops early once the best loss improvement over a full
trailing window drops below the threshold.

Every count, cap and threshold of the schedule is read from the
scenario's `training` section, which `ScenarioConfig` validates on
construction, so a saved config reproduces the run. `Trainer` checks its
own arguments before it creates the run directory. A non-finite loss or
gradient aborts with `TrainingDiverged`, naming the epoch, stage and
network, once history.csv holds every epoch up to that one. Checkpoints
hold the networks only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nets as nets_mod
from .config import ScenarioConfig
from .optim import AdamState, GradientError
from .physics import (
    CollocationSamples, FluidLossGraph, LossBreakdown, LossWeights,
    NetworkDisplacement, NetworkFlow, SolidLossGraph, ZeroDisplacement,
    draw_samples,
)


class PlanError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Loss or gradient left the finite range; carries the last good
    checkpoint path."""

    def __init__(self, message: str, checkpoint: "str | None"):
        super().__init__(message)
        self.checkpoint = checkpoint


# First momentum weight of the ladder; each rung multiplies it by ten.
LADDER_START = 1e-8


def converged(losses: Sequence[float], threshold: float, window: int) -> bool:
    """True once a full window of history shows best improvement below the
    threshold and ends within the threshold of its best, so a window that
    rises is not converged. Short histories never count as converged."""
    if len(losses) < window:
        return False
    tail = losses[-window:]
    best = min(tail)
    return tail[0] - best < threshold and tail[-1] - best < threshold


# ----------------------------------------------------------------------
# history

HISTORY_COLUMNS = ["epoch", "stage", "phase", "alpha_ns",
                   *FluidLossGraph.terms, *SolidLossGraph.terms]


@dataclass
class EpochRecord:
    epoch: int
    stage: str
    phase: str
    alpha_ns: float
    breakdown: LossBreakdown


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise PlanError("epochs must strictly increase")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def stages(self) -> list[str]:
        out = []
        for rec in self.records:
            if not out or out[-1] != rec.stage:
                out.append(rec.stage)
        return out

    def alpha_sequence(self) -> list[float]:
        """Distinct momentum weights of flow stages, in first-use order."""
        out = []
        for rec in self.records:
            if rec.phase in ("u", "p") and (not out or rec.alpha_ns != out[-1]):
                out.append(rec.alpha_ns)
        return out

    def fluid_totals(self, stage: "str | None" = None) -> list[float]:
        return [r.breakdown.fluid_total for r in self.records
                if r.phase in ("u", "p") and (stage is None or r.stage == stage)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_COLUMNS)
            for rec in self.records:
                b = rec.breakdown
                row = [rec.epoch, rec.stage, rec.phase, repr(rec.alpha_ns)]
                for name in HISTORY_COLUMNS[4:]:
                    v = getattr(b, name)
                    row.append("" if isinstance(v, float) and math.isnan(v) else repr(v))
                writer.writerow(row)

    @classmethod
    def read_csv(cls, path) -> "TrainingHistory":
        history = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                kwargs = {}
                for name in HISTORY_COLUMNS[4:]:
                    raw = row[name]
                    kwargs[name] = float(raw) if raw else float("nan")
                history.append(EpochRecord(
                    epoch=int(row["epoch"]), stage=row["stage"], phase=row["phase"],
                    alpha_ns=float(row["alpha_ns"]), breakdown=LossBreakdown(**kwargs),
                ))
        return history


# ----------------------------------------------------------------------
# the scheduler

class Trainer:
    """Runs the staged scheme for one scenario over one network triple."""

    def __init__(self, config: ScenarioConfig, networks: dict, seed: int = 0,
                 out_dir: "str | None" = None, checkpoint_interval: int = 0):
        if checkpoint_interval < 0:
            raise PlanError(
                f"checkpoint interval cannot be negative, got {checkpoint_interval}")
        self.config = config
        self.networks = networks
        self.seed = seed
        self.out_dir = out_dir
        self.checkpoint_interval = checkpoint_interval
        rates = config.learning_rates()
        self.optimizers = {
            name: AdamState(len(net.theta), learning_rate=rates[name])
            for name, net in networks.items()
        }
        self.flow = NetworkFlow(networks["u"], networks["p"])
        # A rigid wall pins the displacement to zero: the displacement
        # network never enters any record and solid stages are skipped.
        self.displacement = (ZeroDisplacement() if config.training.rigid_wall
                             else NetworkDisplacement(networks["d"]))
        self.history = TrainingHistory()
        self.epoch = 0
        self.last_checkpoint: "str | None" = None
        self._stage_counter = 0
        if out_dir:
            os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)

    # -- public entry ---------------------------------------------------

    def run(self) -> TrainingHistory:
        """Train through every stage, then write the final checkpoint and
        history.csv. A diverged run writes history.csv, through the
        non-finite epoch, before `TrainingDiverged` leaves."""
        t = self.config.training
        nets_mod.zero_init_output(self.networks["d"])

        try:
            self.fluid_block("fluid-init", alpha_ns=0.0)
            alpha = self.ladder()
            if not t.rigid_wall:
                for i in range(1, t.max_alternations + 1):
                    solid_quick = self.solid_phase(f"couple-{i}-solid")
                    fluid_quick = self.fluid_block(f"couple-{i}-fluid", alpha_ns=alpha)
                    if solid_quick and fluid_quick:
                        break
        except TrainingDiverged:
            self._write_history()
            raise
        self._checkpoint(force=True)
        self._write_history()
        return self.history

    def _write_history(self) -> None:
        if self.out_dir:
            self.history.write_csv(os.path.join(self.out_dir, "history.csv"))

    # -- stages ----------------------------------------------------------

    def _stage_samples(self) -> CollocationSamples:
        t = self.config.training
        samples = draw_samples(self.config.vessel_geometry(), t.interior_points,
                               t.wall_points, t.port_points,
                               seed=self.seed + 1000 * self._stage_counter)
        self._stage_counter += 1
        return samples

    def _fluid_graph(self, samples: CollocationSamples,
                     alpha_ns: float) -> FluidLossGraph:
        weights_stage = LossWeights(
            ns=alpha_ns,
            fluid_bdr=self.config.weights.fluid_boundary,
            fluid_init=self.config.weights.fluid_initial,
        )
        return FluidLossGraph(self.flow, self.displacement, samples,
                              self.config.vessel_geometry(),
                              self.config.fluid_properties(),
                              self.config.inlet_factor(), weights_stage,
                              self.config.eps_r)

    def ladder(self) -> float:
        """The momentum-weight ladder, one sampling stage: a single
        collocation draw on which each rung builds its own records at its
        own weight, so each raise strictly lifts the recorded loss before
        optimization pulls it back down. Returns the last weight."""
        t = self.config.training
        alpha = LADDER_START
        if not t.ladder_steps:
            return alpha
        samples = self._stage_samples()
        for rung in range(1, t.ladder_steps + 1):
            alpha = 10.0 * alpha
            self.fluid_block(f"ladder-{rung}", alpha_ns=alpha, samples=samples)
        return alpha

    def fluid_block(self, stage: str, alpha_ns: float,
                    samples: "CollocationSamples | None" = None) -> bool:
        """One capped block of alternating velocity/pressure epochs on
        records built at momentum weight `alpha_ns`, over `samples` or,
        without them, a fresh stage draw. Returns True when the block
        stopped early on convergence."""
        t = self.config.training
        if samples is None:
            samples = self._stage_samples()
        graph = self._fluid_graph(samples, alpha_ns)
        losses: list[float] = []
        rounds = t.fluid_epochs // (t.velocity_epochs + t.pressure_epochs)
        for _ in range(rounds):
            for phase, count in (("u", t.velocity_epochs), ("p", t.pressure_epochs)):
                for _ in range(count):
                    if self._epoch(stage, phase, graph, losses):
                        return True
        return False

    def solid_phase(self, stage: str) -> bool:
        """Displacement updates against the wall problem; flow frozen.
        Returns True when stopped early on convergence."""
        t = self.config.training
        graph = SolidLossGraph(self.flow, self.displacement, self._stage_samples(),
                               self.config.vessel_geometry(),
                               self.config.wall_segments(),
                               self.config.fluid_properties(),
                               self.config.loss_weights(), self.config.eps_r)
        losses: list[float] = []
        for _ in range(t.solid_epochs):
            if self._epoch(stage, "d", graph, losses):
                return True
        return False

    def _epoch(self, stage, phase, graph, losses) -> bool:
        """One epoch of network `phase` ("u", "p" or "d") on the stage's loss
        graph: replay, record the breakdown, step. Appends the weighted total
        to `losses`; returns True once it has converged."""
        t = self.config.training
        graph.replay()
        breakdown = graph.breakdown()
        self._record(stage, phase, 0.0 if phase == "d" else graph.alpha_ns, breakdown)
        self._guard_finite(stage, phase, breakdown, graph.terms)
        self._step(stage, phase, graph.param_grads([phase])[phase])
        losses.append(getattr(breakdown, graph.terms[-1]))
        return converged(losses, t.convergence_threshold, t.convergence_window)

    # -- bookkeeping ------------------------------------------------------

    def _record(self, stage, phase, alpha_ns, breakdown) -> None:
        self.history.append(EpochRecord(self.epoch, stage, phase, alpha_ns, breakdown))
        self.epoch += 1
        if (self.checkpoint_interval and self.out_dir
                and self.epoch % self.checkpoint_interval == 0):
            self._checkpoint()

    def _guard_finite(self, stage: str, phase: str, breakdown: LossBreakdown,
                      terms: Sequence[str]) -> None:
        """Abort when the weighted total, the last of the phase's `terms`, is
        not finite, naming the stage, the network and every non-finite term."""
        if not math.isfinite(getattr(breakdown, terms[-1])):
            bad = [name for name in terms if not math.isfinite(getattr(breakdown, name))]
            raise TrainingDiverged(
                f"loss became non-finite at epoch {self.epoch - 1} in stage "
                f"{stage!r} while training network {phase!r}; non-finite "
                f"terms: {', '.join(bad)}",
                checkpoint=self.last_checkpoint)

    def _step(self, stage: str, phase: str, grad: np.ndarray) -> None:
        """Adam step of network `phase`; a non-finite gradient aborts the run
        the way a non-finite loss does."""
        try:
            self.optimizers[phase].step(self.networks[phase].theta, grad)
        except GradientError as exc:
            raise TrainingDiverged(
                f"step failed at epoch {self.epoch - 1} in stage {stage!r} "
                f"while training network {phase!r}: {exc}",
                checkpoint=self.last_checkpoint) from exc

    def _checkpoint(self, force: bool = False) -> None:
        if not self.out_dir:
            return
        path = os.path.join(self.out_dir, "checkpoints",
                            "final.npz" if force else f"epoch{self.epoch:07d}.npz")
        nets_mod.save_networks(path, self.networks)
        self.last_checkpoint = path


def network_shapes(config: ScenarioConfig) -> dict:
    """(depth, hidden width, inputs, outputs) of the velocity, pressure and
    displacement networks of a scenario, the arguments of ``nets.build``."""
    t = config.training
    return {"u": (t.network_depth, t.velocity_width, 3, 2),
            "p": (t.network_depth, t.pressure_width, 3, 1),
            "d": (t.network_depth, t.displacement_width, 3, 1)}


def build_networks(config: ScenarioConfig, seed: int) -> dict:
    """Fresh velocity/pressure/displacement triple for a scenario, seeded
    with seed, seed + 1 and seed + 2."""
    return {name: nets_mod.build(*shape, seed=seed + k, name=name)
            for k, (name, shape) in enumerate(network_shapes(config).items())}
