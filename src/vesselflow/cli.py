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
from .physics import NetworkDisplacement, NetworkFlow, ZeroDisplacement
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


def _load_run_networks(args, config: ScenarioConfig):
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
    return loaded


def _adapters(networks, config: ScenarioConfig):
    flow = NetworkFlow(networks["u"], networks["p"])
    disp = (ZeroDisplacement() if config.training.rigid_wall
            else NetworkDisplacement(networks["d"]))
    return flow, disp


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
                      checkpoint_interval=args.checkpoint_interval,
                      shards=args.workers)
    config.save(os.path.join(args.out_dir, "config.json"))
    history = trainer.run()
    geometry = config.vessel_geometry()
    flow, disp = _adapters(networks, config)
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
    config = _scenario_from_args(args)
    networks = _load_run_networks(args, config)
    geometry = config.vessel_geometry()
    flow, disp = _adapters(networks, config)
    grid = analysis.EvaluationGrid.build(geometry, args.grid_r, args.grid_z,
                                         args.grid_t)
    speed_field = analysis.speed_field(flow, disp)

    if args.reference:
        ref_field = _reference_from_csv(args.reference)
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


_REFERENCE_COLUMNS = ("t_s", "r_cm", "z_cm", "u_z_cm_per_s", "u_r_cm_per_s")


def _reference_from_csv(path):
    """Nodal lookup for a field snapshot written by export-fields."""
    import csv as _csv

    table = {}
    try:
        with open(path, encoding="utf-8") as fh:
            reader = _csv.DictReader(fh)
            missing = [c for c in _REFERENCE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise CliError(f"reference file {path} is missing columns: "
                               f"{', '.join(missing)}")
            for row in reader:
                try:
                    t, r, z, u_z, u_r = (float(row[c]) for c in _REFERENCE_COLUMNS)
                except (TypeError, ValueError):  # a short row reads None
                    raise CliError(f"reference file {path}, line {reader.line_num}: "
                                   "a cell is not a number")
                table[(round(t, 12), round(r, 12), round(z, 12))] = np.hypot(u_z, u_r)
    except UnicodeDecodeError:
        raise CliError(f"reference file {path} is not UTF-8 text")

    def field(r, z, t):
        out = np.empty(len(r))
        for k, (ri, zi) in enumerate(zip(r, z)):
            key = (round(float(t), 12), round(float(ri), 12), round(float(zi), 12))
            if key not in table:
                raise CliError(f"reference file has no node at {key}")
            out[k] = table[key]
        return out

    return field


def _cmd_probe(args) -> int:
    config = _scenario_from_args(args)
    networks = _load_run_networks(args, config)
    geometry = config.vessel_geometry()
    flow, disp = _adapters(networks, config)
    if args.points:
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
    networks = _load_run_networks(args, config)
    geometry = config.vessel_geometry()
    flow, disp = _adapters(networks, config)
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
    p.add_argument("--workers", type=int, default=1,
                   help="gradient-averaging shards (deterministic)")
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

    Every field read allocates and frees the same arrays once per time
    slice: a layer's (width, points) array is 640 KiB at the default
    64 x 64 grid, above glibc's default 128 KiB mmap threshold, and the
    `speed_field` record of `evaluate` keeps only the outputs of its
    whole-network layer runs (0.56 MiB a slice), so nearly all of that
    memory is transient. By default each such array is mapped fresh and
    page-faulted in, or the trimmed heap is faulted back in for the next
    slice. On the cylinder networks at the default grid, without this
    setting `evaluate` takes 35,100 minor page faults instead of 6,300
    and 20-45% more CPU time, `export-fields` 35,300 instead of 6,400 and
    about 20% more, and an fsi-train `train` 25,000-38,000 instead of
    11,900 and 6-10% more. Whether trimming happens depends on incidental
    heap layout, so the cost would come and go with unrelated code
    changes. Arrays up to 32 MB now come from the heap, and it is trimmed
    only beyond 256 MB free. No-op without glibc."""
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
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
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
