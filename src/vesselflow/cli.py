"""Command-line entry points: training runs, evaluation and diagnostics."""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import zipfile
from dataclasses import replace

import numpy as np

from . import analysis, autodiff as ad, nets as nets_mod
from .config import ConfigError, PRESET_NAMES, ScenarioConfig, load_config, preset
from .domain import reference_radius
from .physics import network_fields
from .trainer import PlanError, Trainer, TrainingDiverged, build_networks, network_shapes


class CliError(RuntimeError):
    pass


def _scenario_from_args(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return preset(args.preset)


def _add_scenario_options(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=PRESET_NAMES, default="cylinder",
                       help="built-in scenario")
    group.add_argument("--config", help="path to a scenario config JSON file")


def _add_grid_options(parser):
    parser.add_argument("--grid-r", type=int, default=64)
    parser.add_argument("--grid-z", type=int, default=64)
    parser.add_argument("--grid-t", type=int, default=50)


def _load_run_fields(args, config: ScenarioConfig):
    """The flow and displacement adapters of the checkpoint `args` names,
    checked against the networks of `config`."""
    # What np.load and the archive lookups raise on a file that is no
    # checkpoint: a missing or unreadable file, an empty one, one that is no
    # zip archive, an archive without the header or a parameter vector, or
    # a header that is not the JSON `save_networks` writes or whose depth
    # and widths do not describe a network.
    try:
        loaded, _ = nets_mod.load_networks(args.checkpoint)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CliError(f"cannot load checkpoint {args.checkpoint}: {exc}")
    # the shapes `train` builds, not the networks: building them would
    # import numpy.random (about 5 MiB resident) only to read widths
    for name, shape in network_shapes(config).items():
        widths = nets_mod.layer_widths(*shape)
        if name not in loaded:
            raise CliError(f"checkpoint is missing the {name!r} network")
        if loaded[name].widths != widths:
            raise CliError(
                f"checkpoint/architecture mismatch for {name!r}: "
                f"expected widths {widths}, found {loaded[name].widths}")
    return network_fields(loaded, config.training.rigid_wall)


# ----------------------------------------------------------------------
# commands

def _cmd_train(args) -> int:
    config = _scenario_from_args(args)
    overrides = {name: value for name, value in (
        ("fluid_epochs", args.fluid_epochs), ("solid_epochs", args.solid_epochs),
        ("ladder_steps", args.ladder_steps), ("max_alternations", args.alternations))
        if value is not None}
    # The overrides go into the config, so DIR/config.json records the run.
    config = replace(config, training=replace(config.training, **overrides))
    networks = build_networks(config, args.seed)
    # Trainer rejects bad arguments before it creates DIR, so a rejected run
    # leaves nothing behind.
    trainer = Trainer(config, networks, seed=args.seed,
                      out_dir=args.out_dir,
                      checkpoint_interval=args.checkpoint_interval)
    config.save(os.path.join(args.out_dir, "config.json"))
    history = trainer.run()
    geometry = config.vessel_geometry()
    flow, disp = trainer.flow, trainer.displacement
    times = np.linspace(geometry.horizon / 50, geometry.horizon, 50)
    analysis.write_probe_csv(
        os.path.join(args.out_dir, "probes.csv"),
        analysis.probe(analysis.default_probes(geometry), times, flow, disp))
    analysis.write_flux_csv(os.path.join(args.out_dir, "flux.csv"),
                            flow, disp, geometry, times)
    fields_dir = os.path.join(args.out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    grid = analysis.EvaluationGrid.build(geometry, 32, 32, 5)
    analysis.export_fields(os.path.join(fields_dir, "snapshot.csv"),
                           flow, disp, grid)
    print(f"trained {len(history)} epochs; artifacts in {args.out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    if not np.isfinite(args.u_max):
        raise CliError(f"--u-max {args.u_max} is not finite")
    config = _scenario_from_args(args)
    flow, disp = _load_run_fields(args, config)
    geometry = config.vessel_geometry()
    grid = analysis.EvaluationGrid.build(geometry, args.grid_r, args.grid_z,
                                         args.grid_t)
    speed_field = analysis.speed_field(flow, disp)

    if args.reference is not None:
        ref_field = analysis.read_speed_reference(args.reference)
        err = analysis.relative_error(speed_field, ref_field, grid)
        print(f"relative velocity-magnitude error vs {args.reference}: {err:.6e}")
    else:
        u_max = args.u_max
        r0 = geometry.radius

        def oracle(r, z, t):
            return np.abs(analysis.poiseuille_oracle(r, u_max, r0))

        err = analysis.relative_error(speed_field, oracle, grid)
        print(f"relative velocity-magnitude error vs parabolic oracle: {err:.6e}")
    return 0


def _cmd_probe(args) -> int:
    config = _scenario_from_args(args)
    flow, disp = _load_run_fields(args, config)
    geometry = config.vessel_geometry()
    if args.points is not None:
        points = []
        for chunk in args.points.split(";"):
            try:
                r_str, z_str = chunk.split(",")
                points.append((float(r_str), float(z_str)))
            except ValueError:
                raise CliError(f"cannot parse probe point {chunk!r}; expected r,z")
            if not np.isfinite(points[-1]).all():
                raise CliError(f"probe point {chunk!r} is not finite")
        for r, z in points:
            if not 0.0 <= z <= geometry.length or abs(r) > reference_radius(geometry, z):
                raise CliError(f"probe point {r},{z} lies outside the vessel")
    else:
        points = analysis.default_probes(geometry)
    if args.times < 1:
        raise CliError(f"probe times must be positive, got {args.times}")
    times = np.linspace(geometry.horizon / args.times, geometry.horizon, args.times)
    series = analysis.probe(points, times, flow, disp)
    analysis.write_probe_csv(args.out, series)
    print(f"wrote {len(series)} probe series to {args.out}")
    return 0


def _cmd_export_fields(args) -> int:
    config = _scenario_from_args(args)
    flow, disp = _load_run_fields(args, config)
    geometry = config.vessel_geometry()
    grid = analysis.EvaluationGrid.build(geometry, args.grid_r, args.grid_z,
                                         args.grid_t)
    analysis.export_fields(args.out, flow, disp, grid)
    print(f"wrote field snapshots to {args.out}")
    return 0


def _cmd_param_count(args) -> int:
    spec = args.arch.strip().lower()
    single = spec.endswith("-single")
    trimmed = spec.removesuffix("-single").removesuffix("-split")
    try:
        depth_str, width_str = trimmed.split("x")
        depth, width = int(depth_str), int(width_str)
    except ValueError:
        raise CliError(
            f"cannot parse architecture {args.arch!r}; "
            "expected e.g. 12x30-split or 12x30-single")
    least = 1 if single else 3  # a split width gives the pressure network a third
    if depth < 2 or width < least:
        raise CliError(f"{args.arch!r} needs depth >= 2 and width >= {least}")
    count = (nets_mod.single_param_count(depth, width) if single
             else nets_mod.split_param_count(depth, width))
    print(count)
    return 0


def _cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)

    def composite(x, y, z):
        return ad.exp(x * y * 0.3) + ad.sqrt(z + 3.0) * ad.sin(x) + ad.relu(y) / (z + 4.0)

    worst_primitive = 0.0
    for _ in range(10):
        pt = rng.uniform(-1.5, 1.5, size=3)
        if min(abs(pt[1]), abs(np.sin(pt[0]))) < 1e-3:
            continue
        worst_primitive = max(worst_primitive, ad.fd_check(composite, pt, 1e-5))

    net = nets_mod.build(12, 20, 3, 2, seed=args.seed, name="u")

    def net_second(pt, i):
        """d2 u_z / dx_i^2 at one point, from the network's jet."""
        tape = ad.Tape()
        (u_z, _) = net.jet(tape, [tape.batch([v]) for v in pt], (i,), laplacian=(i,))
        return float(u_z.laplacian.value[0])

    def feval(pt):
        return float(net.evaluate(np.asarray(pt)[None, :])[0, 0])

    worst_second = 0.0
    checked = 0
    while checked < 5:
        pt = rng.uniform(-1.0, 1.0, size=3)
        if net.relu_margin(pt) < 1e-6:
            continue
        for i in range(3):
            got = net_second(pt, i)
            h = 1e-4
            hi, lo = pt.copy(), pt.copy()
            hi[i] += h
            lo[i] -= h
            fd = (feval(hi) - 2 * feval(pt) + feval(lo)) / h**2
            rel = abs(got - fd) / max(abs(got), abs(fd), 1.0)
            worst_second = max(worst_second, rel)
        checked += 1

    worst = max(worst_primitive, worst_second)
    print(f"max first/second-derivative discrepancy vs finite differences: {worst:.3e}")
    if worst >= 1e-3:
        print("FAIL: discrepancy above 1e-3", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselflow",
        description="Mesh-free neural solver for flow in deformable axisymmetric vessels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the staged training schedule")
    _add_scenario_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--fluid-epochs", type=int, default=None)
    p.add_argument("--solid-epochs", type=int, default=None)
    p.add_argument("--ladder-steps", type=int, default=None)
    p.add_argument("--alternations", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="relative error on the evaluation grid")
    _add_scenario_options(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference", help="field snapshot CSV to compare against")
    p.add_argument("--u-max", type=float, default=20.0,
                   help="oracle peak velocity when no reference file is given")
    _add_grid_options(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("probe", help="field histories at reference points")
    _add_scenario_options(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--points", help="semicolon-separated r,z pairs")
    p.add_argument("--times", type=int, default=50)
    p.add_argument("--out", default="probes.csv")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("export-fields", help="field snapshot CSV on a grid")
    _add_scenario_options(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="fields.csv")
    _add_grid_options(p)
    p.set_defaults(func=_cmd_export_fields)

    p = sub.add_parser("param-count", help="parameter count of an architecture")
    p.add_argument("arch", help="e.g. 12x30-split, 12x60-split, 12x30-single")
    p.set_defaults(func=_cmd_param_count)

    p = sub.add_parser("grad-check", help="finite-difference derivative check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_grad_check)

    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Keep freed heap memory for reuse instead of returning it to the OS.

    Field reads and training records allocate and free the same arrays
    over and over. A field read's layer array is 320 KiB per block of at
    most `nets.READ_BLOCK` points at width 20, in a plain read and in
    each record of `evaluate`'s `speed_field` alike, above glibc's
    default 128 KiB mmap threshold. By default each such array is mapped
    fresh and page-faulted in, or the trimmed heap is faulted back in for
    the next one. Counted over the whole process, on the cylinder
    networks at the default grid, without this setting `evaluate` takes
    36,900 minor page faults instead of 11,300 and about 10% more CPU
    time, and an fsi-train `train` 27,700 instead of 17,000;
    `export-fields` takes about 11,400 either way, since glibc raises its
    mmap threshold to the size of the first block array freed. Whether
    trimming happens depends on incidental heap layout, so the cost
    would come and go with unrelated code changes. Arrays up to 32 MB now
    come from the heap, and it is trimmed only beyond 256 MB free. No-op
    without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _attach_points(argv: list[str]) -> list[str]:
    """`--points VALUE` rewritten as `--points=VALUE`: argparse reads a
    separate value that begins with '-', such as a negative first r, as an
    option."""
    out = []
    k = 0
    while k < len(argv):
        if argv[k] == "--points" and k + 1 < len(argv):
            out.append(f"--points={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def main(argv=None) -> int:
    _retain_freed_memory()
    parser = build_parser()
    args = parser.parse_args(_attach_points(sys.argv[1:] if argv is None else list(argv)))
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (CliError, ConfigError, PlanError, analysis.AnalysisError,
            FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        # The run directory keeps its history. Exit, as argparse does on a
        # bad option, rather than return: a caller running commands in
        # process (bench/op.py) then fails with this line, not a bare status.
        last = (f"last checkpoint {exc.checkpoint}" if exc.checkpoint
                else "no checkpoint was written")
        parser.exit(2, f"error: {exc}; {last}\n")


if __name__ == "__main__":
    sys.exit(main())
