"""Schedule structure, phase isolation, convergence and the training history."""

import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from vesselflow import trainer as trainer_mod
from vesselflow.config import (
    ConfigError, ScenarioConfig, TrainingSettings, WeightSettings, preset,
)
from vesselflow.domain import SampleSet
from vesselflow.physics import (
    CollocationSamples, FluidLossGraph, LossWeights, NetworkFlow, SolidLossGraph,
    ZeroDisplacement, draw_samples,
)
from vesselflow.trainer import (
    Trainer, TrainingDiverged, TrainingHistory, build_networks, converged,
)


def tiny_config(**training_overrides) -> ScenarioConfig:
    defaults = dict(
        interior_points=24, wall_points=12, port_points=8,
        fluid_epochs=10, solid_epochs=4, velocity_epochs=8, pressure_epochs=2,
        ladder_steps=2, max_alternations=1, convergence_threshold=0.0,
        convergence_window=100, network_depth=3, velocity_width=6,
        pressure_width=4, displacement_width=6,
    )
    defaults.update(training_overrides)
    return ScenarioConfig(name="tiny", training=TrainingSettings(**defaults))


def equal_parts(samples: CollocationSamples, parts: int) -> list[CollocationSamples]:
    """`parts` equal contiguous pieces of every collocation set of a draw:
    the draws a data-parallel trainer would hand its workers."""
    def piece(s, k):
        size, rest = divmod(len(s), parts)
        assert rest == 0, f"{s.region} count {len(s)} does not split into {parts}"
        sl = slice(k * size, (k + 1) * size)
        return SampleSet(s.r[sl], s.z[sl], s.t[sl], s.region)
    return [CollocationSamples(**{f.name: piece(getattr(samples, f.name), k)
                                  for f in fields(samples)})
            for k in range(parts)]


class TestConverged:
    def test_constant_loss_over_full_window(self):
        assert converged([5.0] * 100, threshold=0.1, window=100)

    def test_steadily_decreasing_loss(self):
        losses = [100.0 - i for i in range(150)]
        assert not converged(losses, threshold=0.1, window=100)

    def test_window_not_yet_filled(self):
        assert not converged([1.0] * 99, threshold=0.1, window=100)

    def test_zero_threshold_never_converges_on_flat(self):
        assert not converged([1.0] * 200, threshold=0.0, window=100)

    def test_rising_window_not_converged(self):
        # its first loss is its minimum, so the best improvement is 0
        losses = [12.3 + 0.25 * i for i in range(100)]
        assert not converged(losses, threshold=0.1, window=100)

    def test_fell_then_flat_window_converged(self):
        losses = [10.0 - 0.001 * i for i in range(50)] + [9.95] * 50
        assert converged(losses, threshold=0.1, window=100)


class TestPlan:
    """The schedule lives in `config.training` and is checked there."""

    def test_default_plan_accepted(self):
        t = ScenarioConfig().training
        assert t.fluid_epochs == 2000 and t.ladder_steps == 5

    def test_uneven_round_split_rejected(self):
        with pytest.raises(ConfigError, match="whole u/p rounds"):
            tiny_config(fluid_epochs=150, velocity_epochs=80, pressure_epochs=20)

    def test_negative_ladder_rejected(self):
        with pytest.raises(ConfigError, match="training.ladder_steps must be non-negative"):
            tiny_config(ladder_steps=-1)

    def test_non_positive_epoch_count_rejected(self):
        with pytest.raises(ConfigError, match="must be positive"):
            tiny_config(solid_epochs=0)


class TestParallelGrad:
    """Every loss term is a mean over its points, so records built on equal
    parts of one draw average to the record of the whole draw."""

    def test_equal_shards_average_equals_full_gradient(self):
        config = tiny_config(ladder_steps=0, max_alternations=0)
        networks = build_networks(config, seed=3)
        trainer = Trainer(config, networks, seed=3)
        samples = trainer._stage_samples()
        full = trainer._fluid_graph(samples, alpha_ns=1e-4)
        want = full.param_grads(["p"])["p"]
        scale = np.maximum(np.abs(want), 1e-30)
        for parts in (2, 4):
            graphs = [trainer._fluid_graph(s, alpha_ns=1e-4)
                      for s in equal_parts(samples, parts)]
            averaged = sum(g.param_grads(["p"])["p"] for g in graphs) / parts
            assert np.max(np.abs(averaged - want) / scale) < 1e-12
            for term in ("ns", "fluid_bdr", "fluid_init", "fluid_total"):
                mean = sum(getattr(g.breakdown(), term) for g in graphs) / parts
                assert mean == pytest.approx(getattr(full.breakdown(), term), rel=1e-12)


class TestScheduleStructure:
    def test_degenerate_plan_single_stage(self):
        config = tiny_config(ladder_steps=0, max_alternations=0)
        networks = build_networks(config, seed=0)
        history = Trainer(config, networks, seed=0).run()
        assert history.stages() == ["fluid-init"]
        assert len(history) == 10

    def test_default_ladder_alpha_sequence(self):
        config = tiny_config(ladder_steps=5, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=1)
        history = Trainer(config, networks, seed=1).run()
        seq = history.alpha_sequence()
        assert seq[0] == 0.0
        assert seq[1:] == pytest.approx([1e-7, 1e-6, 1e-5, 1e-4, 1e-3], rel=1e-12)

    def test_alpha_ladder_monotone_in_history(self):
        config = tiny_config(ladder_steps=3, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=2)
        history = Trainer(config, networks, seed=2).run()
        alphas = [r.alpha_ns for r in history.records if r.phase in ("u", "p")]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_u_p_phase_partition(self):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=20,
                             velocity_epochs=8, pressure_epochs=2)
        networks = build_networks(config, seed=3)
        history = Trainer(config, networks, seed=3).run()
        phases = [r.phase for r in history.records]
        assert phases == (["u"] * 8 + ["p"] * 2) * 2

    def test_alternation_stages_bounded(self):
        config = tiny_config(ladder_steps=1, max_alternations=2)
        networks = build_networks(config, seed=4)
        history = Trainer(config, networks, seed=4).run()
        stages = history.stages()
        couples = [s for s in stages if s.startswith("couple-")]
        assert 0 < len(couples) <= 4  # solid+fluid per alternation
        assert stages[0] == "fluid-init"
        assert any(s.startswith("ladder-") for s in stages)

    def test_rigid_wall_skips_solid_stages(self):
        config = preset("poiseuille-rigid")
        config = ScenarioConfig(
            name=config.name, inlet=config.inlet, weights=config.weights,
            training=TrainingSettings(
                interior_points=16, wall_points=8, port_points=8,
                fluid_epochs=10, velocity_epochs=8, pressure_epochs=2,
                ladder_steps=1, max_alternations=3,
                convergence_threshold=0.0, network_depth=3, velocity_width=6,
                pressure_width=4, displacement_width=6, rigid_wall=True,
            ))
        networks = build_networks(config, seed=5)
        d_before = networks["d"].theta.copy()
        history = Trainer(config, networks, seed=5).run()
        assert all(not s.startswith("couple-") for s in history.stages())
        assert all(r.phase != "d" for r in history.records)
        # the displacement network was never touched (only its output zeroed)
        assert np.array_equal(networks["d"].theta[:-7], d_before[:-7])


class TestLadder:
    def test_rungs_share_one_draw_each_at_its_own_weight(self, monkeypatch):
        config = tiny_config(ladder_steps=3, max_alternations=0)
        trainer = Trainer(config, build_networks(config, seed=17), seed=17)
        draws, builds = [], []
        original = Trainer._fluid_graph

        def draw(*args, **kwargs):
            draws.append(draw_samples(*args, **kwargs))
            return draws[-1]

        def fluid_graph(self, samples, alpha_ns):
            graph = original(self, samples, alpha_ns)
            builds.append((samples, alpha_ns, graph))
            return graph

        monkeypatch.setattr(trainer_mod, "draw_samples", draw)
        monkeypatch.setattr(Trainer, "_fluid_graph", fluid_graph)
        assert trainer.ladder() == builds[-1][1]
        assert len(draws) == 1
        assert [alpha for _, alpha, _ in builds] == pytest.approx([1e-7, 1e-6, 1e-5],
                                                                  rel=1e-12)
        w = config.weights
        for samples, alpha, graph in builds:
            assert samples is draws[0]
            assert graph.alpha_ns == alpha
            # the record's total weights its momentum term by the rung's weight
            b = graph.breakdown()
            assert b.fluid_total == ((alpha * b.ns + w.fluid_boundary * b.fluid_bdr)
                                     + w.fluid_initial * b.fluid_init)


class TestStageLifetimes:
    def test_no_finished_fluid_record_alive_when_solid_record_builds(self, monkeypatch):
        # Each stage's record is freed by reference counting when the stage
        # ends: no gc.collect() is needed before the next record is built.
        fluid_tapes = []
        alive_at_solid_build = []
        fluid_init, solid_init = FluidLossGraph.__init__, SolidLossGraph.__init__

        def track_fluid(graph, *args, **kwargs):
            fluid_init(graph, *args, **kwargs)
            fluid_tapes.append(weakref.ref(graph.tape))

        def check_solid(graph, *args, **kwargs):
            alive_at_solid_build.append(sum(ref() is not None for ref in fluid_tapes))
            solid_init(graph, *args, **kwargs)

        monkeypatch.setattr(FluidLossGraph, "__init__", track_fluid)
        monkeypatch.setattr(SolidLossGraph, "__init__", check_solid)
        cylinder = preset("cylinder")
        config = replace(cylinder, training=replace(
            cylinder.training, interior_points=16, wall_points=8, port_points=8,
            fluid_epochs=5, velocity_epochs=4, pressure_epochs=1, solid_epochs=2,
            ladder_steps=1, max_alternations=1, network_depth=3, velocity_width=6,
            pressure_width=4, displacement_width=6))
        history = Trainer(config, build_networks(config, seed=14), seed=14).run()
        assert history.stages() == ["fluid-init", "ladder-1", "couple-1-solid",
                                    "couple-1-fluid"]
        # fluid-init and ladder-1 had finished when the solid record was built
        assert len(fluid_tapes) == 3
        assert alive_at_solid_build == [0]


class TestPhaseIsolation:
    def test_pressure_frozen_during_velocity_epochs_and_vice_versa(self):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=10,
                             velocity_epochs=8, pressure_epochs=2)
        networks = build_networks(config, seed=6)
        trainer = Trainer(config, networks, seed=6)

        snapshots = {"u": [], "p": [], "d": []}
        original = trainer._epoch

        def spy(stage, phase, graph, losses):
            for name in snapshots:
                snapshots[name].append(networks[name].theta.copy())
            return original(stage, phase, graph, losses)

        trainer._epoch = spy
        trainer.run()
        # epochs 0..7 are u-phase: p and d stay bitwise frozen
        for k in range(1, 8):
            assert np.array_equal(snapshots["p"][k], snapshots["p"][0])
            assert np.array_equal(snapshots["d"][k], snapshots["d"][0])
            assert not np.array_equal(snapshots["u"][k], snapshots["u"][0])
        # epochs 8..9 are p-phase: u frozen at its epoch-8 state
        assert np.array_equal(snapshots["u"][9], snapshots["u"][8])
        assert not np.array_equal(snapshots["p"][9], snapshots["p"][8])

    def test_zero_weight_block_leaves_parameters_unchanged(self):
        config = ScenarioConfig(
            name="zeroed",
            weights=WeightSettings(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            training=TrainingSettings(
                interior_points=12, wall_points=8, port_points=8,
                fluid_epochs=10, solid_epochs=2, velocity_epochs=8,
                pressure_epochs=2, ladder_steps=0, max_alternations=0,
                convergence_threshold=0.0, network_depth=3, velocity_width=5,
                pressure_width=4, displacement_width=5,
            ))
        networks = build_networks(config, seed=7)
        before = {k: v.theta.copy() for k, v in networks.items()}
        trainer = Trainer(config, networks, seed=7)
        trainer.fluid_block("zero-weights", alpha_ns=0.0)
        # every term weight is 0, so all gradients vanish and Adam never moves
        assert np.array_equal(networks["u"].theta, before["u"])
        assert np.array_equal(networks["p"].theta, before["p"])


class TestHistory:
    def test_stage_a_makes_progress_on_boundary_data(self):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=120,
                             velocity_epochs=8, pressure_epochs=2,
                             convergence_threshold=0.1)
        networks = build_networks(config, seed=8)
        history = Trainer(config, networks, seed=8).run()
        totals = history.fluid_totals("fluid-init")
        assert totals[-1] <= totals[0]

    def test_csv_round_trip(self, tmp_path):
        config = tiny_config(ladder_steps=1, max_alternations=1)
        networks = build_networks(config, seed=9)
        history = Trainer(config, networks, seed=9, out_dir=str(tmp_path)).run()
        loaded = TrainingHistory.read_csv(tmp_path / "history.csv")
        assert len(loaded) == len(history)
        assert loaded.stages() == history.stages()
        assert loaded.alpha_sequence() == history.alpha_sequence()
        got = [r.breakdown.fluid_total for r in loaded.records if r.phase == "u"]
        want = [r.breakdown.fluid_total for r in history.records if r.phase == "u"]
        assert got == want

    def test_reproducible_bitwise(self):
        def run_once():
            config = tiny_config(ladder_steps=1, max_alternations=1)
            networks = build_networks(config, seed=10)
            history = Trainer(config, networks, seed=10).run()
            return ([r.breakdown.fluid_total for r in history.records],
                    networks["u"].theta.copy())

        (totals_a, theta_a) = run_once()
        (totals_b, theta_b) = run_once()
        assert totals_a == totals_b
        assert np.array_equal(theta_a, theta_b)

    def test_epochs_strictly_increase(self):
        config = tiny_config(ladder_steps=1, max_alternations=1)
        networks = build_networks(config, seed=11)
        history = Trainer(config, networks, seed=11).run()
        epochs = [r.epoch for r in history.records]
        assert epochs == sorted(set(epochs))


class TestShardedTraining:
    def test_two_shards_match_serial_gradients(self):
        config = tiny_config(interior_points=24, wall_points=12, port_points=8,
                             ladder_steps=0, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=12)
        trainer = Trainer(config, networks, seed=12)
        samples = trainer._stage_samples()
        serial = trainer._fluid_graph(samples, alpha_ns=1e-4).param_grads(["u"])["u"]
        halves = [trainer._fluid_graph(s, alpha_ns=1e-4).param_grads(["u"])["u"]
                  for s in equal_parts(samples, 2)]
        averaged = (halves[0] + halves[1]) / 2
        scale = np.maximum(np.abs(serial), 1e-30)
        assert np.max(np.abs(averaged - serial) / scale) < 1e-12


class TestLearningRates:
    def test_shared_default(self):
        config = tiny_config()
        assert config.learning_rates() == {"u": 1e-3, "p": 1e-3, "d": 1e-3}

    def test_per_network_overrides(self):
        config = tiny_config(learning_rate=1e-2, pressure_learning_rate=0.2,
                             displacement_learning_rate=5e-4)
        assert config.learning_rates() == {"u": 1e-2, "p": 0.2, "d": 5e-4}

    def test_trainer_uses_per_network_rates(self):
        config = tiny_config(learning_rate=1e-2, pressure_learning_rate=0.2)
        trainer = Trainer(config, build_networks(config, seed=0), seed=0)
        assert trainer.optimizers["u"].learning_rate == 1e-2
        assert trainer.optimizers["p"].learning_rate == 0.2


# the planted inf and NaN parameters reach the layer products
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestDivergenceGuard:
    def test_non_finite_loss_aborts_with_checkpoint_reference(self, tmp_path):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=14)
        networks["u"].theta[:] = np.inf
        trainer = Trainer(config, networks, seed=14, out_dir=str(tmp_path))
        with pytest.raises(TrainingDiverged) as err:
            trainer.run()
        assert err.value.checkpoint is None or "checkpoints" in err.value.checkpoint

    def test_divergence_names_stage_network_and_terms(self):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=14)
        networks["p"].theta[:] = np.nan
        trainer = Trainer(config, networks, seed=14)
        with pytest.raises(TrainingDiverged) as err:
            trainer.run()
        message = str(err.value)
        assert "'fluid-init'" in message
        assert "network 'u'" in message
        assert "fluid_total" in message and "fluid_bdr" in message

    def test_non_finite_gradient_names_epoch_stage_and_network(self, tmp_path,
                                                               monkeypatch):
        config = tiny_config(ladder_steps=0, max_alternations=0, fluid_epochs=10)
        networks = build_networks(config, seed=15)
        original = FluidLossGraph.param_grads

        def poisoned(self, groups):
            grads = original(self, groups)
            for g in grads.values():
                g[3] = np.nan
            return grads

        monkeypatch.setattr(FluidLossGraph, "param_grads", poisoned)
        trainer = Trainer(config, networks, seed=15, out_dir=str(tmp_path),
                          checkpoint_interval=1)
        with pytest.raises(TrainingDiverged) as err:
            trainer.run()
        message = str(err.value)
        assert "parameter index 3" in message
        assert "epoch 0" in message and "'fluid-init'" in message
        assert "network 'u'" in message
        # epoch 0 was recorded (and checkpointed) before its step failed
        assert err.value.checkpoint == trainer.last_checkpoint
        assert err.value.checkpoint.endswith("epoch0000001.npz")


class TestCheckpoint:
    def test_checkpoint_holds_only_the_networks(self, tmp_path):
        config = tiny_config(ladder_steps=0, max_alternations=1)
        networks = build_networks(config, seed=16)
        Trainer(config, networks, seed=16, out_dir=str(tmp_path)).run()
        with np.load(tmp_path / "checkpoints" / "final.npz") as data:
            assert sorted(data.files) == ["header", "theta_d", "theta_p", "theta_u"]
            for name, net in networks.items():
                assert np.array_equal(data[f"theta_{name}"], net.theta)
