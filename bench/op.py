"""One benchmark operation, run in a process of its own.

    python3 bench/op.py train --config CFG --seed S --out-dir DIR --result FILE
    python3 bench/op.py field --config CFG --checkpoint CKPT --out-dir DIR --result FILE
    python3 bench/op.py table --seed S --result FILE

`train` runs `vesselflow train` through the CLI entry point; `field` loads a
checkpoint and runs `evaluate`, `export-fields` and `probe`; `table`
constructs the fluid and solid records of the cylinder scenario at
n in {128, 1000} x depth in {6, 12} and sizes them. `--trace` wraps every
layer (see spans.py); `--check` runs the output checks, and for `train`
the training-progress value, after the measured part; `--inject` plants a
fault for the self-test. The result is a JSON file; vesselflow must be
importable (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import time

WALL_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from spans import CPU0, CPU1, KEY, WALL0, WALL1, Recorder, layer_metrics, record_mib  # noqa: E402

FAULTS = ("grad-scale", "nan-loss", "trace-perturb", "adam-frozen", "skip-solid",
          "field-shift", "error-scale", "export-short")
# Peak speed of the parabolic profile `evaluate` compares against.
U_MAX = 20.0


def _cli(argv) -> str:
    """Run a vesselflow command in this process; returns what it printed."""
    from vesselflow import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"vesselflow {argv[0]} exited with {code}")
    return out.getvalue()


def _plant(fault):
    """Self-test faults: each must surface as a failed operation."""
    from vesselflow import analysis, optim, physics, trainer

    if fault == "grad-scale":
        for cls in (physics.FluidLossGraph, physics.SolidLossGraph):
            def scaled(self, groups, _orig=cls.param_grads):
                return {k: 1.01 * v for k, v in _orig(self, groups).items()}
            cls.param_grads = scaled
    elif fault == "nan-loss":
        orig = physics.FluidLossGraph.breakdown
        calls = []

        def poisoned(self):
            b = orig(self)
            calls.append(1)
            if len(calls) == 3:
                b.fluid_total = float("nan")
            return b
        physics.FluidLossGraph.breakdown = poisoned
    elif fault == "adam-frozen":
        optim.AdamState.step = lambda self, theta, grad: None
    elif fault == "skip-solid":
        trainer.Trainer.solid_phase = lambda self, stage: False
    elif fault == "error-scale":
        orig_error = analysis.relative_error
        analysis.relative_error = lambda *a, **k: orig_error(*a, **k) * (1.0 + 1e-5)
    elif fault == "field-shift":
        orig_field = analysis.speed_field
        analysis.speed_field = lambda flow, disp: (
            lambda r, z, t: orig_field(flow, disp)(r, z, t) * (1.0 + 1e-9))
    elif fault == "export-short":
        orig_export = analysis.export_fields

        def short(path, flow, disp, grid):
            from dataclasses import replace
            return orig_export(path, flow, disp, replace(grid, times=grid.times[:-1]))
        analysis.export_fields = short


def _timings(rec, setup, command, export, steps) -> dict:
    """CPU and wall seconds of each window, a (cpu0, cpu1, wall0, wall1),
    less the calibration spans inside it, and the calibration time (ms)
    that goes with each window and step: the mean of the window's own, or
    of the whole operation's when it holds none; for a step, the mean of
    the one right after it and the two either side of that. A single loop
    misjudges some steps' mode, and the 90th percentile picks exactly
    those."""
    calib = rec.named("calibrate")
    starts = [c[CPU0] for c in calib]
    ms = [(c[CPU1] - c[CPU0]) * 1e3 for c in calib]

    def near(step):
        after = bisect.bisect_left(starts, step[CPU1])
        return statistics.mean(ms[max(after - 2, 0):after + 3])

    out = {"step_cpu_ms": [(s[CPU1] - s[CPU0]) * 1e3 for s in steps],
           "step_wall_ms": [(s[WALL1] - s[WALL0]) * 1e3 for s in steps],
           "step_calibration_ms": [near(s) if calib else None for s in steps],
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for name, (c0, c1, w0, w1) in (("setup", setup), ("command", command), ("export", export)):
        inside = [c for c in calib if c0 <= c[CPU0] and c[CPU1] <= c1]
        out[f"{name}_cpu"] = c1 - c0 - sum(c[CPU1] - c[CPU0] for c in inside)
        out[f"{name}_wall"] = w1 - w0 - sum(c[WALL1] - c[WALL0] for c in inside)
        own = [(c[CPU1] - c[CPU0]) * 1e3 for c in inside] or ms
        out[f"{name}_calibration_ms"] = statistics.mean(own) if own else None
    return out


def _now():
    return time.process_time(), time.perf_counter()


def run_train(args, rec: Recorder) -> dict:
    argv = ["train", "--config", args.config, "--seed", str(args.seed),
            "--out-dir", args.out_dir]
    if args.checkpoint_interval:
        argv += ["--checkpoint-interval", str(args.checkpoint_interval)]
    c0, w0 = _now()
    _cli(argv)
    c1, w1 = _now()
    epochs = rec.epochs()
    (run_span,) = rec.named("trainer.run")
    out = _timings(rec, setup=(0.0, epochs[0][CPU0], WALL_START, epochs[0][WALL0]),
                   command=(c0, c1, w0, w1),
                   export=(run_span[CPU1], c1, run_span[WALL1], w1), steps=epochs)
    out["step_keys"] = [e[KEY] for e in epochs]
    return out


def train_outputs(args) -> dict:
    """Checks at the final parameters, and the training progress."""
    from vesselflow import nets
    from vesselflow.config import load_config
    from vesselflow.trainer import build_networks

    import checks

    config = load_config(args.config)
    networks, _ = nets.load_networks(os.path.join(args.out_dir, "checkpoints", "final.npz"))
    alpha = checks.last_alpha(os.path.join(args.out_dir, "history.csv"))
    # The trainer starts from these: build_networks, then a zeroed d output.
    initial = build_networks(config, args.seed)
    nets.zero_init_output(initial["d"])
    trained = ["u", "p"] + ([] if config.training.rigid_wall else ["d"])
    out = {"checks": checks.parameters_moved(initial, networks, trained)}
    out["checks"].update(checks.gradient_checks(config, networks, alpha, args.seed))
    # Last: this puts the initial parameters into `networks`.
    out["progress"] = checks.training_progress(config, networks, initial, alpha)
    return out


def _field_setup(args):
    """What every field read needs: networks, evaluation grid and adapters."""
    from vesselflow import analysis, nets
    from vesselflow.config import load_config
    from vesselflow.physics import NetworkDisplacement, NetworkFlow, ZeroDisplacement

    config = load_config(args.config)
    networks, _ = nets.load_networks(args.checkpoint)
    rigid = config.training.rigid_wall
    grid = analysis.EvaluationGrid.build(config.vessel_geometry(), *args.grid)
    flow = NetworkFlow(networks["u"], networks["p"])
    disp = ZeroDisplacement() if rigid else NetworkDisplacement(networks["d"])
    return config, networks, rigid, grid, flow, disp


def run_field(args, rec: Recorder) -> dict:
    import checks

    _, networks, rigid, grid, _, _ = _field_setup(args)
    setup_cpu, setup_wall = _now()

    base = ["--config", args.config, "--checkpoint", args.checkpoint]
    grid_args = ["--grid-r", str(args.grid[0]), "--grid-z", str(args.grid[1]),
                 "--grid-t", str(args.grid[2])]
    c0, w0 = _now()
    printed = _cli(["evaluate", *base, *grid_args, "--u-max", str(U_MAX)])
    c1, w1 = _now()
    slices = rec.named("analysis.speed_field")
    _cli(["export-fields", *base, *grid_args,
          "--out", os.path.join(args.out_dir, "fields.csv")])
    c2, w2 = _now()
    _cli(["probe", *base, "--out", os.path.join(args.out_dir, "probes.csv")])
    if rec.detail:
        # The floor for a field read: plain forward of u, p and d per slice.
        read = rec.timed("nets.evaluate", checks.plain_fields)
        for t in grid.times:
            read(networks, rigid, grid.r_centers, grid.z_centers, t)
    out = _timings(rec, setup=(0.0, setup_cpu, WALL_START, setup_wall),
                   command=(c0, c1, w0, w1), export=(c1, c2, w1, w2), steps=slices)
    out.update(evaluate_error=float(printed.rsplit(":", 1)[1]),
               cells=len(grid), times=len(grid.times))
    return out


def field_outputs(args, printed_error: float) -> dict:
    from vesselflow import analysis

    import checks

    config, networks, rigid, grid, flow, disp = _field_setup(args)
    # First, middle and last slice: the record path costs ~0.1 s a slice.
    times = grid.times[[0, len(grid.times) // 2, -1]]
    return {"checks": {
        "field_read": checks.speed_matches(
            analysis.speed_field(flow, disp), networks, rigid, grid, times),
        "evaluate_error": checks.evaluate_error_matches(
            printed_error, networks, rigid, grid, config.vessel_geometry().radius, U_MAX)}}


def run_table(args) -> dict:
    """Record sizes from construction only (counts are exact)."""
    from vesselflow.config import ScenarioConfig, preset
    from vesselflow.physics import draw_samples
    from vesselflow.trainer import build_networks

    import checks

    rows = []
    for n in (128, 1000):
        for depth in (6, 12):
            base = preset("cylinder").to_dict()
            base["training"].update(interior_points=n, wall_points=n, port_points=n,
                                    network_depth=depth)
            config = ScenarioConfig.from_dict(base)
            networks = build_networks(config, args.seed)
            samples = draw_samples(config.vessel_geometry(), n, n, n, seed=args.seed)
            for kind in ("fluid", "solid"):
                graph = (checks.fluid_graph(config, networks, samples, 1e-7) if kind == "fluid"
                         else checks.solid_graph(config, networks, samples))
                rows.append({"graph": kind, "n": n, "depth": depth, "nodes": len(graph.tape),
                             "record_mib": record_mib(graph.tape)})
                del graph
    return {"table": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("train", "field", "table"))
    parser.add_argument("--config")
    parser.add_argument("--checkpoint")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir")
    parser.add_argument("--checkpoint-interval", type=int, default=0)
    parser.add_argument("--grid", type=int, nargs=3, default=(64, 64, 50))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--inject", choices=FAULTS)
    args = parser.parse_args(argv)

    result: dict = {"error": None}
    rec = Recorder(detail=args.trace, perturb=args.inject == "trace-perturb")
    try:
        if args.mode == "table":
            result.update(run_table(args))
        else:
            if args.inject:
                _plant(args.inject)  # before install, so it outlives uninstall
            rec.install()
            try:
                result.update((run_train if args.mode == "train" else run_field)(args, rec))
            finally:
                rec.uninstall()
            if args.trace:
                result["layers"] = layer_metrics(rec)
                result["spans"] = rec.spans
            if args.check:
                result.update(train_outputs(args) if args.mode == "train"
                              else field_outputs(args, result["evaluate_error"]))
    except Exception:  # reported to the harness, which counts a failed operation
        result["error"] = traceback.format_exc()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
