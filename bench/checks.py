"""Output checks. Each returns (ok, detail); a failed check counts as a
failed operation in the benchmark result.

The finite-difference and field-read checks import vesselflow and run in
the workload process after its measured part; the file checks run in the
harness.
"""

from __future__ import annotations

import csv
import filecmp
import math

import numpy as np

# No one step is accurate everywhere. A step of 1e-4 crosses relu kinks
# often enough to reach 1e-4 relative error on a correct u gradient
# (flow-train, seed 409; 5e-9 at 1e-5). A step of 1e-5 loses the p
# directional derivative, ~1e-6 against a loss of ~46, to rounding
# (flow-train, seed 809: 1.5e-4 at 1e-5, 3.4e-5 at 1e-4, 2.1e-6 at 1e-3).
# The check passes when the central difference at one of these steps
# agrees; a wrong gradient agrees at none (a 1% scaling reads 1e-2 at all).
FD_STEPS = (1e-3, 1e-4, 1e-5)
# Relative error of the directional derivative at the final parameters.
FD_TOLERANCE = {"u": 1e-4, "p": 1e-4, "d": 1e-6}
FIELD_TOLERANCE = 1e-12
# `vesselflow evaluate` prints its error with seven significant digits.
PRINTED_TOLERANCE = 1e-6
# Largest last-over-first fluid_total of a flow stage. Working training
# reads 0.97-0.99 per stage; parameters that never move read exactly 1.
STAGE_RATIO_LIMIT = 0.999
FD_POINTS = 128
VALIDATION_SEED = 20231209

ACTIVE_COLUMNS = {
    "u": ("ns", "fluid_bdr", "fluid_init", "fluid_total"),
    "p": ("ns", "fluid_bdr", "fluid_init", "fluid_total"),
    "d": ("stress", "harmonic", "solid_bdr", "solid_init", "solid_total"),
}


# ----------------------------------------------------------------------
# files

def history_finite(path) -> tuple[bool, str]:
    """Every loss of the network trained in each epoch is present and finite.

    history.csv writes NaN as an empty cell, so an empty active column is
    a failure too."""
    rows = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            for col in ACTIVE_COLUMNS[row["phase"]]:
                cell = row[col]
                if not cell or not math.isfinite(float(cell)):
                    return False, f"epoch {row['epoch']}: {col}={cell!r}"
    if not rows:
        return False, "history is empty"
    return True, f"{rows} epochs finite"


def fluid_stages_descend(path) -> tuple[bool, str]:
    """Each flow stage ends with a lower fluid_total than it began with.

    A stage replays one collocation draw at one momentum weight, so a
    working optimizer lowers its loss. Solid stages are left out: from the
    zero-output start their first steps raise solid_total by orders of
    magnitude."""
    first, last = {}, {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["phase"] in ("u", "p"):
                loss = float(row["fluid_total"] or "nan")
                first.setdefault(row["stage"], loss)
                last[row["stage"]] = loss
    if not first:
        return False, "no flow stage in the history"
    ratios = {stage: last[stage] / first[stage] for stage in first}
    bad = [stage for stage, ratio in ratios.items() if not ratio < STAGE_RATIO_LIMIT]
    shown = ", ".join(f"{stage} {ratio:.4f}" for stage, ratio in ratios.items())
    return not bad, f"last/first fluid_total: {shown} (limit {STAGE_RATIO_LIMIT})"


def last_alpha(path) -> float:
    with open(path, newline="") as fh:
        alphas = [row["alpha_ns"] for row in csv.DictReader(fh) if row["phase"] in ("u", "p")]
    return float(alphas[-1])


def same_bytes(a, b) -> tuple[bool, str]:
    if filecmp.cmp(a, b, shallow=False):
        return True, "byte-identical"
    return False, "contents differ"


def data_rows(path, expected: int) -> tuple[bool, str]:
    with open(path) as fh:
        rows = sum(1 for _ in fh) - 1
    return rows == expected, f"{rows} rows, expected {expected}"


# ----------------------------------------------------------------------
# gradients (needs vesselflow)

def fluid_graph(config, networks, samples, alpha_ns):
    """The trainer's flow-problem record at momentum weight alpha_ns."""
    from vesselflow.physics import FluidLossGraph, LossWeights, NetworkFlow

    weights = LossWeights(ns=alpha_ns, fluid_bdr=config.weights.fluid_boundary,
                          fluid_init=config.weights.fluid_initial)
    return FluidLossGraph(NetworkFlow(networks["u"], networks["p"]),
                          _displacement(config, networks), samples,
                          config.vessel_geometry(), config.fluid_properties(),
                          config.inlet_factor(), weights, config.eps_r)


def solid_graph(config, networks, samples):
    """The trainer's wall-problem record."""
    from vesselflow.physics import NetworkFlow, SolidLossGraph

    return SolidLossGraph(NetworkFlow(networks["u"], networks["p"]),
                          _displacement(config, networks), samples,
                          config.vessel_geometry(), config.wall_segments(),
                          config.fluid_properties(), config.loss_weights(), config.eps_r)


def _displacement(config, networks):
    from vesselflow.physics import NetworkDisplacement, ZeroDisplacement

    if config.training.rigid_wall:
        return ZeroDisplacement()
    return NetworkDisplacement(networks["d"])


def parameters_moved(initial, final, names) -> dict:
    """Each trained network ends away from the parameters it started from."""
    out = {}
    for name in names:
        change = float(np.max(np.abs(final[name].theta - initial[name].theta)))
        out[f"trained.{name}"] = (change > 0.0, f"largest parameter change {change:.3e}")
    return out


def training_progress(config, networks, initial, alpha_ns: float) -> float:
    """fluid_total at the final parameters over fluid_total at the initial
    ones, both at momentum weight alpha_ns on one fixed collocation draw of
    the scenario's sizes.

    The run's own draws spread the last history loss by ~20% across seeds,
    and the initial networks' output offsets spread the final loss on a
    fixed draw about as much; the ratio on a fixed draw removes most of
    both."""
    from vesselflow.physics import draw_samples

    t = config.training
    samples = draw_samples(config.vessel_geometry(), t.interior_points, t.wall_points,
                           t.port_points, seed=VALIDATION_SEED)
    graph = fluid_graph(config, networks, samples, alpha_ns)
    final = float(graph.total.value)
    for name, net in networks.items():
        net.theta[:] = initial[name].theta
    graph.replay()
    return final / float(graph.total.value)


def fd_relative_error(graph, net, group: str, rng) -> tuple[float, float]:
    """Directional central difference of graph.total along a random unit
    direction, against param_grads projected on the same direction.
    Returns the smallest relative error over FD_STEPS and its step."""
    theta0 = net.theta.copy()
    direction = rng.standard_normal(theta0.size)
    direction /= np.linalg.norm(direction)
    analytic = float(graph.param_grads([group])[group] @ direction)
    errors = []
    try:
        for step in FD_STEPS:
            losses = []
            for sign in (1.0, -1.0):
                net.theta[:] = theta0 + sign * step * direction
                graph.replay()
                losses.append(float(graph.total.value))
            numeric = (losses[0] - losses[1]) / (2.0 * step)
            errors.append((abs(numeric - analytic)
                           / max(abs(analytic), abs(numeric), 1e-300), step))
    finally:
        net.theta[:] = theta0
        graph.replay()
    return min(errors)


def gradient_checks(config, networks, alpha_ns: float, seed: int) -> dict:
    """FD check of param_grads for each network the scenario trains."""
    from vesselflow.physics import draw_samples

    samples = draw_samples(config.vessel_geometry(), FD_POINTS, FD_POINTS, FD_POINTS,
                           seed=seed + 7919)
    fluid = fluid_graph(config, networks, samples, alpha_ns)
    trained = [("u", fluid), ("p", fluid)]
    if not config.training.rigid_wall:
        trained.append(("d", solid_graph(config, networks, samples)))
    rng = np.random.default_rng(seed)
    out = {}
    for group, graph in trained:
        err, step = fd_relative_error(graph, networks[group], group, rng)
        out[f"fd_grad.{group}"] = (err <= FD_TOLERANCE[group],
                                   f"relative error {err:.3e} at step {step:.0e} "
                                   f"(limit {FD_TOLERANCE[group]:.0e})")
    return out


# ----------------------------------------------------------------------
# field reads (needs vesselflow)

def plain_fields(networks, rigid: bool, r, z, t):
    """u_z, u_r, p and eta at the current-frame images of reference points
    (r, z) at time t, through FieldNetwork.evaluate and the ALE shift."""
    from vesselflow.domain import radial_direction

    n = len(r)
    tt = np.full(n, float(t))
    eta = (np.zeros(n) if rigid
           else networks["d"].evaluate(np.column_stack([r, z, tt]))[:, 0])
    at = np.column_stack([r + radial_direction(r) * eta, z, tt])
    u = networks["u"].evaluate(at)
    p = networks["p"].evaluate(at)[:, 0]
    return u[:, 0], u[:, 1], p, eta


def speed_matches(speed_field, networks, rigid: bool, grid, times) -> tuple[bool, str]:
    """analysis.speed_field against the plain forward, slice by slice."""
    worst = 0.0
    for t in times:
        got = speed_field(grid.r_centers, grid.z_centers, t)
        u_z, u_r, _, _ = plain_fields(networks, rigid, grid.r_centers, grid.z_centers, t)
        want = np.hypot(u_z, u_r)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst <= FIELD_TOLERANCE, f"max relative difference {worst:.3e} over {len(times)} slices"


def evaluate_error_matches(printed: float, networks, rigid: bool, grid, radius: float,
                           u_max: float) -> tuple[bool, str]:
    """The error `evaluate` printed against the volume-weighted relative
    error of the plain forward's speed from the parabolic profile, summed
    over every slice and scaled by the time step."""
    reference = np.abs(u_max * (1.0 - grid.r_centers**2 / radius**2))
    total = 0.0
    for t in grid.times:
        u_z, u_r, _, _ = plain_fields(networks, rigid, grid.r_centers, grid.z_centers, t)
        speed = np.hypot(u_z, u_r)
        total += (np.sum(grid.volumes * (speed - reference) ** 2)
                  / np.sum(grid.volumes * reference**2))
    want = grid.time_step * float(total)
    diff = abs(printed - want) / abs(want)
    return diff <= PRINTED_TOLERANCE, (f"printed {printed!r}, recomputed {want:.9e}, "
                                       f"relative difference {diff:.1e}")
