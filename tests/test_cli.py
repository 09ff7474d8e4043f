"""Presets, config round trip and command orchestration."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vesselflow import analysis, cli, nets
from vesselflow.cli import main
from vesselflow.config import (
    ConfigError, FluidSettings, GeometrySettings, PRESET_NAMES, PlaqueSettings,
    ScenarioConfig, TrainingSettings, WallSettings, WeightSettings, load_config, preset,
)
from vesselflow.domain import RegionTag, VesselGeometry
from vesselflow.physics import (
    FluidLossGraph, FluidProperties, LossWeights, WallProperties, network_fields,
)
from vesselflow.trainer import TrainingHistory, build_networks


class TestPresets:
    def test_cylinder_material_values(self):
        cfg = preset("cylinder")
        assert cfg.fluid.density_g_per_cm3 == 1.025
        assert cfg.fluid.viscosity_poise == 0.035
        assert cfg.geometry.length_cm == 2.0
        assert cfg.geometry.radius_cm == 0.25
        assert cfg.geometry.wall_thickness_cm == 0.05
        assert cfg.geometry.horizon_s == 2.0
        assert cfg.wall.density_g_per_cm3 == 1.2
        assert cfg.wall.youngs_modulus_dyn_per_cm2 == 0.5e6
        assert cfg.wall.poisson_ratio == 0.5
        assert cfg.plaque is None

    def test_plaque_moderate_values(self):
        cfg = preset("plaque-moderate")
        assert cfg.plaque.long_radius_cm == 0.15
        assert cfg.plaque.short_radius_cm == 0.1
        assert cfg.plaque.density_g_per_cm3 == 1.1
        assert cfg.plaque.youngs_modulus_dyn_per_cm2 == 1.0e6
        assert cfg.plaque.poisson_ratio == 0.5

    def test_plaque_severity_ladder(self):
        assert preset("plaque-mild").plaque.short_radius_cm == 0.05
        assert preset("plaque-moderate").plaque.short_radius_cm == 0.1
        assert preset("plaque-severe").plaque.short_radius_cm == 0.15

    def test_one_pulse_values(self):
        cfg = preset("one-pulse")
        assert cfg.geometry.length_cm == 25.0
        assert cfg.geometry.radius_cm == 1.0
        assert cfg.geometry.wall_thickness_cm == 0.2
        assert cfg.geometry.horizon_s == 0.2
        assert cfg.wall.youngs_modulus_dyn_per_cm2 == 0.8e7
        # factor(t) = 10 - 10 cos(20 pi t): one full pulse inside 0.1 s
        factor = cfg.inlet_factor()
        assert factor(np.array([0.05]))[0] == pytest.approx(20.0)
        assert factor(np.array([0.1]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_poiseuille_rigid_is_steady_and_rigid(self):
        cfg = preset("poiseuille-rigid")
        assert cfg.training.rigid_wall
        assert cfg.inlet.mode == "steady"
        assert cfg.weights.fluid_initial == 0.0
        factor = cfg.inlet_factor()
        assert np.all(factor(np.linspace(0, 2, 5)) == 20.0)

    def test_all_presets_validate(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            cfg.vessel_geometry()

    def test_default_weights_match_training_recipe(self):
        cfg = preset("cylinder")
        w = cfg.loss_weights()
        assert (w.fluid_bdr, w.fluid_init) == (1.0, 0.1)
        assert (w.stress, w.harmonic, w.solid_bdr, w.solid_init) == (1.0, 10.0, 0.1, 0.01)

    def test_default_config_makes_runtime_defaults(self):
        # each section's defaults are read from the object it makes
        cfg = ScenarioConfig()
        assert cfg.vessel_geometry() == VesselGeometry()
        assert cfg.fluid_properties() == FluidProperties()
        assert cfg.wall_segments() == {RegionTag.WALL: WallProperties()}
        assert cfg.loss_weights() == LossWeights()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("bogus")


class TestConfigIO:
    def test_round_trip_value_identical(self, tmp_path):
        cfg = preset("plaque-severe")
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "turbulence": {}}))
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": {"radius_m": 0.25}}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)

    def test_plaque_exceeding_lumen_rejected(self):
        data = preset("plaque-moderate").to_dict()
        data["plaque"]["short_radius_cm"] = 0.3
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict(data)
        assert str(info.value) == "plaque.short_radius_cm must lie inside the lumen, got 0.3"

    @pytest.mark.parametrize("key", [
        f"{section}.{key}" for section, cls in (
            ("geometry", GeometrySettings), ("fluid", FluidSettings),
            ("wall", WallSettings), ("plaque", PlaqueSettings),
            ("weights", WeightSettings), ("training", TrainingSettings))
        for key in cls.__dataclass_fields__
        if key not in ("convergence_threshold", "rigid_wall")])
    def test_rejected_constant_named_by_its_key(self, key):
        # -1 breaks the rule of every geometry, material, weight and training
        # constant (the convergence threshold and the rigid-wall switch have
        # none); a config built directly is checked as one read from a file is
        cfg = preset("plaque-moderate")
        section, name = key.split(".")
        bad = replace(getattr(cfg, section), **{name: -1.0})
        with pytest.raises(ConfigError) as info:
            replace(cfg, **{section: bad})
        assert str(info.value).startswith(f"{key} must ")

    def test_uneven_round_split_rejected_on_load(self, tmp_path):
        data = preset("cylinder").to_dict()
        data["training"]["fluid_epochs"] = 150  # rounds of 80 + 20 epochs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="training.fluid_epochs must divide"):
            load_config(path)

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_message(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("section,key,value,message", [
        ("training", "rigid_wall", "false", 'training.rigid_wall must be true or false, got "false"'),
        ("training", "interior_points", 256.0, "training.interior_points must be an integer, got 256.0"),
        ("training", "ladder_steps", 1.5, "training.ladder_steps must be an integer, got 1.5"),
        ("training", "network_depth", True, "training.network_depth must be an integer, got true"),
        ("training", "fluid_epochs", None, "training.fluid_epochs must be an integer, got null"),
        ("training", "learning_rate", False, "training.learning_rate must be a number, got false"),
        ("training", "velocity_learning_rate", "1e-3",
         'training.velocity_learning_rate must be a number or null, got "1e-3"'),
        ("inlet", "mode", 1, "inlet.mode must be a string, got 1"),
    ], ids=["bool-as-string", "int-as-float", "int-as-fraction", "int-as-bool", "int-as-null",
            "float-as-bool", "optional-as-string", "str-as-int"])
    def test_value_of_wrong_type_rejected(self, section, key, value, message):
        data = preset("cylinder").to_dict()
        data[section][key] = value
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("section,key,value,text", [
        ("training", "learning_rate", "nan", "NaN"),
        ("training", "convergence_threshold", "-inf", "-Infinity"),
        ("geometry", "radius_cm", "inf", "Infinity"),
    ])
    def test_non_finite_number_rejected_on_load(self, tmp_path, section, key, value, text):
        # Python's JSON reader takes NaN and Infinity, which JSON itself lacks
        data = preset("cylinder").to_dict()
        data[section][key] = float(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert f'"{key}": {text}' in path.read_text()
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{section}.{key} must be a finite number, got {text}"

    def test_name_of_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="name must be a string, got 5"):
            ScenarioConfig.from_dict({"name": 5})

    def test_float_key_takes_an_integer_and_optional_key_null(self):
        data = preset("cylinder").to_dict()
        data["training"].update(learning_rate=1, velocity_learning_rate=None)
        loaded = ScenarioConfig.from_dict(data)
        assert loaded.learning_rates()["u"] == 1

    def test_nonzero_navier_stokes_weight_rejected(self):
        data = preset("cylinder").to_dict()
        data["weights"]["navier_stokes"] = 5.0
        with pytest.raises(ConfigError, match="schedule sets the momentum weight"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("scenario", ["flow-train", "fsi-train", "field-eval"])
    def test_benchmark_scenarios_load(self, scenario):
        path = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / f"{scenario}.json"
        assert load_config(path).weights.navier_stokes == 0.0


class TestParamCountCommand:
    def test_split_architecture(self, capsys):
        assert main(["param-count", "12x30-split"]) == 0
        assert capsys.readouterr().out.strip() == "5473"

    def test_single_architecture(self, capsys):
        assert main(["param-count", "12x30-single"]) == 0
        assert capsys.readouterr().out.strip() == "9513"

    def test_wide_split(self, capsys):
        assert main(["param-count", "12x60-split"]) == 0
        assert capsys.readouterr().out.strip() == "20943"

    def test_garbage_arch_fails(self, capsys):
        assert main(["param-count", "banana"]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestGradCheckCommand:
    def test_default_seed_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "discrepancy" in out


def _small_training_args(tmp_path, extra=()):
    cfg = preset("poiseuille-rigid").to_dict()
    cfg["training"].update({
        "interior_points": 16, "wall_points": 8, "port_points": 8,
        "fluid_epochs": 10, "velocity_epochs": 8, "pressure_epochs": 2,
        "ladder_steps": 0, "network_depth": 3, "velocity_width": 6,
        "pressure_width": 4, "displacement_width": 6,
        "convergence_threshold": 0.0,
    })
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    return cfg_path, out_dir, ["--config", str(cfg_path), "--out-dir", str(out_dir), *extra]


@pytest.fixture
def checkpoint_args(tmp_path):
    """Config and seeded-checkpoint arguments of the small training scenario."""
    cfg_path, _, _ = _small_training_args(tmp_path)
    ckpt = tmp_path / "seeded.npz"
    nets.save_networks(ckpt, build_networks(load_config(cfg_path), seed=0))
    return ["--config", str(cfg_path), "--checkpoint", str(ckpt)]


class TestTrainCommand:
    def test_produces_run_artifacts(self, tmp_path, capsys):
        cfg_path, out_dir, argv = _small_training_args(tmp_path)
        assert main(["train", *argv, "--seed", "3"]) == 0
        assert (out_dir / "config.json").exists()
        assert (out_dir / "history.csv").exists()
        assert (out_dir / "probes.csv").exists()
        assert (out_dir / "flux.csv").exists()
        assert (out_dir / "fields" / "snapshot.csv").exists()
        assert (out_dir / "checkpoints" / "final.npz").exists()
        history_lines = (out_dir / "history.csv").read_text().strip().splitlines()
        assert len(history_lines) == 1 + 10  # header + one stage-A block

    def test_evaluate_probe_export_roundtrip(self, tmp_path, capsys):
        cfg_path, out_dir, argv = _small_training_args(tmp_path)
        assert main(["train", *argv]) == 0
        ckpt = str(out_dir / "checkpoints" / "final.npz")
        base = ["--config", str(cfg_path), "--checkpoint", ckpt]

        assert main(["evaluate", *base, "--grid-r", "8", "--grid-z", "8",
                     "--grid-t", "3"]) == 0
        assert "relative velocity-magnitude error" in capsys.readouterr().out

        probe_out = str(tmp_path / "probes_cli.csv")
        assert main(["probe", *base, "--times", "4", "--out", probe_out]) == 0
        assert "wrote 3 probe series" in capsys.readouterr().out

        fields_out = str(tmp_path / "fields_cli.csv")
        assert main(["export-fields", *base, "--out", fields_out,
                     "--grid-r", "4", "--grid-z", "4", "--grid-t", "2"]) == 0
        capsys.readouterr()

        assert main(["evaluate", *base, "--reference", fields_out,
                     "--grid-r", "4", "--grid-z", "4", "--grid-t", "2"]) == 0
        out = capsys.readouterr().out
        # trained fields compared against their own export: error exactly 0
        assert "0.000000e+00" in out

    def test_architecture_mismatch_names_dims(self, tmp_path, capsys):
        cfg_path, out_dir, argv = _small_training_args(tmp_path)
        assert main(["train", *argv]) == 0
        wrong = preset("poiseuille-rigid").to_dict()
        wrong["training"].update({"network_depth": 4, "velocity_width": 7,
                                  "pressure_width": 4, "displacement_width": 7})
        wrong_path = tmp_path / "wrong.json"
        wrong_path.write_text(json.dumps(wrong))
        code = main(["evaluate", "--config", str(wrong_path), "--checkpoint",
                     str(out_dir / "checkpoints" / "final.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "mismatch" in err and "expected widths" in err

    def test_overrides_recorded_and_config_reproduces_run(self, tmp_path, capsys):
        _, out_dir, argv = _small_training_args(
            tmp_path, ["--fluid-epochs", "20", "--ladder-steps", "1"])
        assert main(["train", *argv, "--seed", "4"]) == 0
        saved = json.loads((out_dir / "config.json").read_text())["training"]
        assert saved["fluid_epochs"] == 20 and saved["ladder_steps"] == 1
        rerun = tmp_path / "rerun"
        assert main(["train", "--config", str(out_dir / "config.json"),
                     "--out-dir", str(rerun), "--seed", "4"]) == 0
        history = (out_dir / "history.csv").read_bytes()
        assert len(history.strip().splitlines()) == 1 + 40  # two 20-epoch blocks
        assert (rerun / "history.csv").read_bytes() == history
        assert (rerun / "config.json").read_bytes() == (out_dir / "config.json").read_bytes()


    @pytest.mark.parametrize("interval,last", [
        (0, "no checkpoint was written"),
        (1, "last checkpoint {out}/checkpoints/epoch0000003.npz"),
    ], ids=["no-checkpoint", "checkpoint"])
    def test_diverged_run_exits_2_and_keeps_its_history(self, tmp_path, capsys, monkeypatch,
                                                        interval, last):
        # a NaN total at the third epoch, as the benchmark's nan-loss fault plants it
        original = FluidLossGraph.breakdown
        calls = []

        def poisoned(self):
            b = original(self)
            calls.append(1)
            if len(calls) == 3:
                b.fluid_total = float("nan")
            return b

        monkeypatch.setattr(FluidLossGraph, "breakdown", poisoned)
        _, out_dir, argv = _small_training_args(
            tmp_path, ["--checkpoint-interval", str(interval)])
        with pytest.raises(SystemExit) as info:
            main(["train", *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == (f"error: loss became non-finite at epoch 2 in stage 'fluid-init' while "
                       f"training network 'u'; non-finite terms: fluid_total; "
                       f"{last.format(out=out_dir)}\n")
        history = TrainingHistory.read_csv(out_dir / "history.csv")
        assert len(history) == 3 and math.isnan(history.fluid_totals()[-1])
        assert not (out_dir / "checkpoints" / "final.npz").exists()


class TestProbeCommand:
    def test_negative_first_point_after_a_space(self, tmp_path, checkpoint_args, capsys):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        points = "-0.1,0.5;0.1,1"
        assert main(["probe", *checkpoint_args, "--points", points, "--times", "2",
                     "--out", str(spaced)]) == 0
        assert main(["probe", *checkpoint_args, f"--points={points}", "--times", "2",
                     "--out", str(joined)]) == 0
        rows = spaced.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["-0.1", "0.5"]] * 2 + [["0.1", "1.0"]] * 2
        assert spaced.read_bytes() == joined.read_bytes()


class TestUfuncBuffer:
    """A command runs with numpy's ufunc buffer at the CLI's size and hands
    back the size it found, on a return, an error line and a diverged run."""

    @pytest.fixture
    def caller_size(self):
        # a size of the caller's own, so restoring it is not restoring the default
        with np.errstate():
            np.setbufsize(4096)
            yield 4096

    def test_probe_runs_with_the_command_buffer(self, tmp_path, checkpoint_args, capsys,
                                                monkeypatch, caller_size):
        seen = []

        def spy(*args, _probe=analysis.probe):
            seen.append(np.getbufsize())
            return _probe(*args)

        monkeypatch.setattr(analysis, "probe", spy)
        assert main(["probe", *checkpoint_args, "--times", "2",
                     "--out", str(tmp_path / "probes.csv")]) == 0
        assert seen == [cli._UFUNC_BUFSIZE]
        assert np.getbufsize() == caller_size

    def test_restored_after_an_error_line(self, tmp_path, checkpoint_args, capsys, caller_size):
        assert main(["probe", *checkpoint_args, "--points", "",
                     "--out", str(tmp_path / "probes.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse probe point ''")
        assert np.getbufsize() == caller_size

    def test_restored_after_a_diverged_run(self, tmp_path, capsys, monkeypatch, caller_size):
        def poisoned(self, _breakdown=FluidLossGraph.breakdown):
            return replace(_breakdown(self), fluid_total=float("nan"))

        monkeypatch.setattr(FluidLossGraph, "breakdown", poisoned)
        _, _, argv = _small_training_args(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", *argv])
        assert info.value.code == 2
        assert "loss became non-finite" in capsys.readouterr().err
        assert np.getbufsize() == caller_size

    def test_export_fields_same_bytes_as_the_library(self, tmp_path, checkpoint_args, capsys):
        # 24 x 24 cells: blocks of 576 points, above the command's buffer
        cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "library.csv"
        assert main(["export-fields", *checkpoint_args, "--grid-r", "24", "--grid-z", "24",
                     "--grid-t", "2", "--out", str(cli_out)]) == 0
        config = load_config(checkpoint_args[1])
        networks, _ = nets.load_networks(checkpoint_args[3])
        flow, disp = network_fields(networks, config.training.rigid_wall)
        grid = analysis.EvaluationGrid.build(config.vessel_geometry(), 24, 24, 2)
        analysis.export_fields(lib_out, flow, disp, grid)
        assert cli_out.read_bytes() == lib_out.read_bytes()


class TestEvaluateCommand:
    def test_own_export_scores_zero_across_blocks(self, tmp_path, checkpoint_args, capsys,
                                                  monkeypatch):
        # 16 x 16 cells in blocks of 60: four whole blocks and a remainder
        monkeypatch.setattr(nets, "READ_BLOCK", 60)
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "16", "--grid-z", "16", "--grid-t", "3"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 0
        assert capsys.readouterr().out == (
            f"relative velocity-magnitude error vs {fields}: 0.000000e+00\n")

    def test_reference_columns_by_name_and_blank_lines_skipped(self, tmp_path,
                                                                checkpoint_args, capsys):
        # columns in another order, one more column, and blank lines read
        # as the export itself
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "3", "--grid-z", "3", "--grid-t", "2"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in fields.read_text().splitlines()]
        order = [4, 3, 6, 0, 2, 1, 5]
        lines = [",".join(["0", *(row[i] for i in order)]) for row in rows]
        lines.insert(3, "")
        fields.write_text("\n".join(lines) + "\n\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 0
        assert capsys.readouterr().out == (
            f"relative velocity-magnitude error vs {fields}: 0.000000e+00\n")

    def test_reference_rows_shuffled_and_quoted(self, tmp_path, checkpoint_args, capsys):
        # the nodes are found by key, not by their place in the file
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "4", "--grid-z", "5", "--grid-t", "3"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        header, *rows = fields.read_text().splitlines()
        np.random.default_rng(7).shuffle(rows)
        quoted = [",".join(f'"{cell}"' for cell in row.split(",")) for row in rows]
        fields.write_text("\n".join([header, *quoted]) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 0
        assert capsys.readouterr().out == (
            f"relative velocity-magnitude error vs {fields}: 0.000000e+00\n")

    @pytest.mark.parametrize("right_row", ["later", "earlier"])
    def test_reference_repeated_node_last_row_counts(self, tmp_path, checkpoint_args, capsys,
                                                     right_row):
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "3", "--grid-z", "3", "--grid-t", "2"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        lines = fields.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) + 1.0)  # u_z_cm_per_s
        lines.insert(1 if right_row == "later" else len(lines), ",".join(cells))
        fields.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 0
        prefix, error = capsys.readouterr().out.rsplit(" ", 1)
        assert prefix == f"relative velocity-magnitude error vs {fields}:"
        if right_row == "later":
            assert error == "0.000000e+00\n"
        else:
            assert float(error) > 0.0


class TestBadInput:
    """Input a command cannot use is reported as one `error:` line with
    exit code 2, not as a traceback."""

    def test_fluid_epochs_not_whole_rounds(self, tmp_path, capsys):
        _, _, argv = _small_training_args(tmp_path)
        assert main(["train", *argv, "--fluid-epochs", "7"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: training.fluid_epochs must divide into whole u/p rounds")

    def test_rejected_run_creates_no_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "orphan"
        argv = ["train", "--preset", "poiseuille-rigid", "--out-dir", str(out_dir),
                "--checkpoint-interval", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: checkpoint interval cannot be negative, got -1")
        assert not out_dir.exists()

    def test_checkpoint_interval_negative(self, tmp_path, capsys):
        _, out_dir, argv = _small_training_args(tmp_path)
        assert main(["train", *argv, "--checkpoint-interval", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint interval cannot be negative")
        assert not (out_dir / "history.csv").exists()

    @pytest.mark.parametrize("times", ["0", "-3"])
    def test_probe_times_not_positive(self, tmp_path, checkpoint_args, capsys, times):
        out = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--times", times, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: probe times must be positive")
        assert not out.exists()

    def test_zero_grid_resolution(self, checkpoint_args, capsys):
        assert main(["evaluate", *checkpoint_args, "--grid-r", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: grid resolutions must be positive")

    def test_probe_point_without_z(self, tmp_path, checkpoint_args, capsys):
        out = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--points", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse probe point '0.1'")
        assert not out.exists()

    def test_empty_probe_points(self, tmp_path, checkpoint_args, capsys):
        out = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--points", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse probe point ''; expected r,z\n")
        assert not out.exists()

    def test_empty_reference(self, checkpoint_args, capsys):
        # an empty path names no file; it does not mean the parabolic oracle
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", ""]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")

    def test_checkpoint_directory_that_is_a_file(self, tmp_path, capsys):
        _, out_dir, argv = _small_training_args(tmp_path)
        out_dir.mkdir()
        (out_dir / "checkpoints").write_text("")
        assert main(["train", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 17] File exists: '{out_dir / 'checkpoints'}'\n")
        assert not (out_dir / "history.csv").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("interior_points", 0, "training.interior_points must be positive, got 0"),
        ("network_depth", 1, "training.network_depth must be at least 2 affine layers, got 1"),
        ("velocity_width", 0, "training.velocity_width must be positive, got 0"),
        ("pressure_learning_rate", -1.0,
         "training.pressure_learning_rate must be positive or null, got -1.0"),
        ("displacement_learning_rate", 0.0,
         "training.displacement_learning_rate must be positive or null, got 0.0"),
        ("convergence_window", 0, "training.convergence_window must be positive, got 0"),
    ], ids=["points", "depth", "width", "negative-rate", "zero-rate", "window"])
    def test_config_that_cannot_train(self, tmp_path, capsys, key, value, message):
        cfg = preset("poiseuille-rigid").to_dict()
        cfg["training"][key] = value
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("section,key,value,message", [
        ("fluid", "viscosity_poise", -0.035, "fluid.viscosity_poise must be positive, got -0.035"),
        ("wall", "poisson_ratio", 1.5, "wall.poisson_ratio must lie in (-1, 1), got 1.5"),
        ("plaque", "poisson_ratio", 1.5,
         "plaque.poisson_ratio must lie in (-1, 1), got 1.5"),
        ("weights", "fluid_boundary", -1.0,
         "weights.fluid_boundary must be non-negative, got -1.0"),
        ("weights", "harmonic_extension", -1.0,
         "weights.harmonic_extension must be non-negative, got -1.0"),
    ], ids=["viscosity", "poisson-ratio", "plaque-poisson-ratio", "fluid-boundary-weight",
            "harmonic-weight"])
    def test_config_with_bad_physics(self, tmp_path, capsys, section, key, value, message):
        # a deformable wall, whose solid phase reads the wall material and
        # the harmonic weight: the whole scenario is checked on load
        cfg_path, out_dir, argv = _small_training_args(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg.setdefault("plaque", preset("plaque-moderate").to_dict()["plaque"])
        cfg[section][key] = value
        cfg["training"].update(rigid_wall=False, max_alternations=1, solid_epochs=2)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("u_max", ["nan", "inf", "-inf"])
    def test_u_max_not_finite(self, checkpoint_args, capsys, u_max):
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["evaluate", *checkpoint_args, *grid, f"--u-max={u_max}"]) == 2
        assert capsys.readouterr().err == f"error: --u-max {float(u_max)} is not finite\n"

    # the oracle is so small that the ratio overflows: an error line, not
    # an inf with exit 0
    @pytest.mark.parametrize("u_max,message", [("1e-155", "the error ratio overflows")])
    def test_u_max_whose_error_overflows(self, checkpoint_args, capsys, u_max, message):
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", *checkpoint_args, *grid, "--u-max", u_max]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message} on the slice t=")

    def test_u_max_whose_squares_overflow(self, checkpoint_args, capsys):
        # the oracle's squares overflow, the ratio does not: the error the
        # fields have against an oracle of 1e150, far above them, whose
        # squares are finite
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        printed = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u_max in ("1e308", "1e150"):
                assert main(["evaluate", *checkpoint_args, *grid, "--u-max", u_max]) == 0
                out, err = capsys.readouterr()
                assert err == ""
                printed.append(out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("relative velocity-magnitude error vs parabolic oracle: ")

    def test_u_max_whose_squares_underflow(self, checkpoint_args, capsys):
        # the oracle is 1e-170 on the axis, so its squares underflow to 0:
        # the reference does not vanish, the ratio overflows
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", *checkpoint_args, *grid, "--u-max", "1e-170"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the error ratio overflows on the slice t=")

    def test_config_with_non_finite_number(self, tmp_path, capsys):
        cfg = preset("poiseuille-rigid").to_dict()
        cfg["training"]["learning_rate"] = float("nan")
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: training.learning_rate must be a finite number, got NaN\n")
        assert not out_dir.exists()

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        # a quoted "false" would otherwise train a rigid wall
        cfg = preset("cylinder").to_dict()
        cfg["training"]["rigid_wall"] = "false"
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: training.rigid_wall must be true or false")
        assert not out_dir.exists()

    @pytest.mark.parametrize("arch", ["1x30-split", "12x1-split", "12x0-single"])
    def test_architecture_that_cannot_be_built(self, capsys, arch):
        assert main(["param-count", arch]) == 2
        assert capsys.readouterr().err.startswith(f"error: '{arch}' needs depth >= 2")

    def test_negative_seed(self, tmp_path, capsys):
        _, out_dir, argv = _small_training_args(tmp_path)
        for command in (["train", *argv], ["grad-check"]):
            assert main([*command, "--seed", "-1"]) == 2
            assert capsys.readouterr().err.startswith("error: seed must be non-negative")
        assert not out_dir.exists()

    @pytest.mark.parametrize("points", ["nan,1.0", "0.1,inf", "0,0.5;0.1,-nan"])
    def test_probe_point_not_finite(self, tmp_path, checkpoint_args, capsys, points):
        # abs(nan) > R is False, so the bounds check alone would pass a NaN
        out = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--points", points, "--out", str(out)]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["5,1;0,-3", "0.3,1", "0,2.5"])
    def test_probe_point_outside_vessel(self, tmp_path, checkpoint_args, capsys, points):
        # R = 0.25 cm and L = 2 cm: each set holds a point past the wall or an end
        out = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--points", points, "--out", str(out)]) == 2
        assert "lies outside the vessel" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["truncated", "empty", "no-header"])
    def test_checkpoint_that_cannot_be_read(self, tmp_path, checkpoint_args, capsys, kind):
        seeded = tmp_path / "seeded.npz"
        bad = tmp_path / f"{kind}.npz"
        if kind == "truncated":
            bad.write_bytes(seeded.read_bytes()[:500])
        elif kind == "empty":
            bad.write_bytes(b"")
        else:
            with np.load(seeded) as data:
                np.savez(bad, **{key: data[key] for key in data.files if key != "header"})
        args = [*checkpoint_args[:2], "--checkpoint", str(bad)]
        out = tmp_path / "out.csv"
        for command in (["evaluate"], ["probe", "--out", str(out)],
                        ["export-fields", "--out", str(out)]):
            assert main([*command, *args]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot load checkpoint {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("recast", [lambda theta: theta.astype(np.float32),
                                        lambda theta: theta.reshape(-1, 1)],
                             ids=["float32", "2-d"])
    def test_parameter_vector_not_1d_float64(self, tmp_path, checkpoint_args, capsys, recast):
        seeded = tmp_path / "seeded.npz"
        bad = tmp_path / "recast.npz"
        with np.load(seeded) as data:
            np.savez(bad, **{key: recast(data[key]) if key == "theta_u" else data[key]
                             for key in data.files})
        args = [*checkpoint_args[:2], "--checkpoint", str(bad)]
        out = tmp_path / "out.csv"
        for command in (["evaluate"], ["probe", "--out", str(out)],
                        ["export-fields", "--out", str(out)]):
            assert main([*command, *args]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot load checkpoint {bad}: u: parameter vector")
            assert err.endswith("not 1-d float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("name,index,poison", [("u", 5, "one-nan"), ("d", 0, "all-inf")])
    def test_parameter_vector_not_finite(self, tmp_path, checkpoint_args, capsys,
                                         name, index, poison):
        # a non-finite parameter would otherwise print a finite error or
        # write NaN speeds with exit code 0
        seeded = tmp_path / "seeded.npz"
        bad = tmp_path / f"{poison}.npz"
        with np.load(seeded) as data:
            arrays = {key: data[key] for key in data.files}
        theta = arrays[f"theta_{name}"]
        if poison == "one-nan":
            theta[index] = np.nan
        else:
            theta[:] = np.inf
        np.savez(bad, **arrays)
        args = [*checkpoint_args[:2], "--checkpoint", str(bad)]
        out = tmp_path / "out.csv"
        for command in (["evaluate"], ["probe", "--out", str(out)],
                        ["export-fields", "--out", str(out)]):
            assert main([*command, *args]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot load checkpoint {bad}: {name}: parameter {index} is "
                f"{theta[index]}, not finite\n")
        assert not out.exists()

    def test_config_that_is_not_text(self, checkpoint_args, capsys):
        # a checkpoint passed where the config belongs
        ckpt = checkpoint_args[3]
        assert main(["evaluate", "--config", ckpt, "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err == f"error: config file {ckpt} is not UTF-8 text\n"

    def test_reference_that_is_not_text(self, checkpoint_args, capsys):
        ckpt = checkpoint_args[3]
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", ckpt]) == 2
        assert capsys.readouterr().err == f"error: reference file {ckpt} is not UTF-8 text\n"

    def test_reference_without_field_columns(self, tmp_path, checkpoint_args, capsys):
        # a probe CSV has t_s, r_cm and z_cm but no velocity components
        probes = tmp_path / "probes.csv"
        assert main(["probe", *checkpoint_args, "--times", "2", "--out", str(probes)]) == 0
        capsys.readouterr()
        assert main(["evaluate", *checkpoint_args, "--reference", str(probes)]) == 2
        assert capsys.readouterr().err == (f"error: reference file {probes} is missing columns: "
                                           "u_z_cm_per_s, u_r_cm_per_s\n")

    def test_reference_cell_not_a_number(self, tmp_path, checkpoint_args, capsys):
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        lines = fields.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "fast"  # u_z_cm_per_s
        lines[2] = ",".join(cells)
        fields.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 2
        assert capsys.readouterr().err == (f"error: reference file {fields}, line 3: "
                                           "a cell is not a number\n")

    def test_reference_row_too_short(self, tmp_path, checkpoint_args, capsys):
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        lines = fields.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:4])  # no u_r_cm_per_s
        fields.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 2
        assert capsys.readouterr().err == (f"error: reference file {fields}, line 3: "
                                           "a cell is not a number\n")

    @pytest.mark.parametrize("column, cell", [(3, "nan"), (4, "inf")],
                             ids=["u_z-nan", "u_r-inf"])
    def test_reference_cell_not_finite(self, tmp_path, checkpoint_args, capsys, column, cell):
        # float() reads both, and the error would print as nan
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        lines = fields.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        fields.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 2
        assert capsys.readouterr().err == (f"error: reference file {fields}, line 3: "
                                           "a cell is not finite\n")

    def test_reference_speed_overflows(self, tmp_path, checkpoint_args, capsys):
        # each component is finite, but their magnitude is not
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        lines = fields.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3] + ["1.7e308", "1.7e308"])
        fields.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 2
        assert capsys.readouterr().err == (f"error: reference file {fields}, line 3: "
                                           "the speed overflows\n")

    @pytest.mark.parametrize("command", [["evaluate", "--reference"],
                                         ["export-fields", "--out"], ["probe", "--out"]],
                             ids=["evaluate", "export-fields", "probe"])
    def test_path_that_is_a_directory(self, tmp_path, checkpoint_args, capsys, command):
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        if command[0] == "probe":
            grid = ["--times", "2"]
        assert main([command[0], *checkpoint_args, *grid, command[1], str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("header", [
        lambda meta: {**meta, "u": {**meta["u"], "depth": meta["u"]["depth"] + 1}},
        lambda meta: {**meta, "u": {**meta["u"], "depth": float(meta["u"]["depth"])}},
        lambda meta: list(meta),
    ], ids=["depth-and-widths-disagree", "depth-not-an-integer", "not-an-object"])
    def test_checkpoint_header_of_no_network(self, tmp_path, checkpoint_args, capsys, header):
        seeded = tmp_path / "seeded.npz"
        bad = tmp_path / "bad.npz"
        with np.load(seeded) as data:
            meta = json.loads(bytes(data["header"]).decode())
            payload = {key: data[key] for key in data.files if key != "header"}
        text = json.dumps(header(meta)).encode()
        np.savez(bad, header=np.frombuffer(text, dtype=np.uint8), **payload)
        args = [*checkpoint_args[:2], "--checkpoint", str(bad)]
        out = tmp_path / "out.csv"
        for command in (["evaluate"], ["probe", "--out", str(out)],
                        ["export-fields", "--out", str(out)]):
            assert main([*command, *args]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot load checkpoint {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("[]", "config root must be an object"),
        ('{"training": [16, 8, 8]}', "section 'training' must be an object"),
    ], ids=["root", "section"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_checkpoint_without_a_network(self, tmp_path, checkpoint_args, capsys):
        # the rigid-wall scenario never reads d, but its checkpoints hold it
        cfg_path = checkpoint_args[1]
        networks = build_networks(load_config(cfg_path), seed=0)
        del networks["d"]
        ckpt = tmp_path / "no-d.npz"
        nets.save_networks(ckpt, networks)
        out = tmp_path / "out.csv"
        for command in (["evaluate"], ["probe", "--out", str(out)],
                        ["export-fields", "--out", str(out)]):
            assert main([*command, "--config", cfg_path, "--checkpoint", str(ckpt)]) == 2
            assert capsys.readouterr().err == "error: checkpoint is missing the 'd' network\n"
        assert not out.exists()

    def test_reference_without_a_grid_node(self, tmp_path, checkpoint_args, capsys):
        fields = tmp_path / "fields.csv"
        grid = ["--grid-r", "2", "--grid-z", "2", "--grid-t", "1"]
        assert main(["export-fields", *checkpoint_args, *grid, "--out", str(fields)]) == 0
        capsys.readouterr()
        text = fields.read_text()
        for row in (-1, 2):  # the last node of the file, and one between others
            lines = text.splitlines()
            t, r, z = (round(float(cell), 12) for cell in lines.pop(row).split(",")[:3])
            fields.write_text("\n".join(lines) + "\n")
            assert main(["evaluate", *checkpoint_args, *grid, "--reference", str(fields)]) == 2
            assert capsys.readouterr().err == f"error: reference file has no node at {(t, r, z)}\n"

    def test_checkpoint_naming_other_activations(self, tmp_path, capsys):
        cfg_path, _, _ = _small_training_args(tmp_path)
        networks = build_networks(load_config(cfg_path), seed=0)
        header = {name: {"depth": net.depth, "widths": net.widths, "schedule": "sigmoid"}
                  for name, net in networks.items()}
        ckpt = tmp_path / "sigmoid.npz"
        np.savez(ckpt, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **{f"theta_{name}": net.theta for name, net in networks.items()})
        assert main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot load checkpoint {ckpt}")
