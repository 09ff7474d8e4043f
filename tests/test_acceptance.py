"""Acceptance gate: one test per criterion, each printing a pass line.

Criterion 4 (the Poiseuille check) trains three runs, so it is `slow`; it
is a strict expected failure until training meets it. Criteria 7 (the
momentum-weight ladder) and 9 (plaque-severity ordering) are not yet
tests.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from vesselflow import analysis, autodiff as ad, nets, physics
from vesselflow.config import (
    InletSettings, ScenarioConfig, TrainingSettings, WeightSettings, preset,
)
from vesselflow.domain import RegionTag, SampleSet, VesselGeometry, radial_direction
from vesselflow.physics import (
    AnalyticDisplacement, AnalyticFlow, CollocationSamples, FluidProperties, NetworkFlow,
    SolidLossGraph, WallProperties, ZeroDisplacement, draw_samples,
    harmonic_residual, ns_residual_axisym, stress_continuity_residual,
)
from vesselflow.trainer import Trainer, build_networks


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def on_tape(point):
    """A fresh record and batches (r, z, t) on it of points given as arrays
    or as floats (one point, a batch of one)."""
    tape = ad.Tape()
    return (tape, *(tape.batch(np.atleast_1d(v)) for v in point))


# ----------------------------------------------------------------------
# 1. architecture size table

def test_criterion_1_parameter_counts():
    t0 = time.time()
    split_sizes = {
        (6, 60): 8583, (8, 60): 12703, (10, 60): 16823, (12, 60): 20943,
        (14, 60): 25063, (6, 30): 2293, (8, 30): 3353, (10, 30): 4413,
        (12, 30): 5473, (14, 30): 6533,
    }
    for (depth, width), want in split_sizes.items():
        assert nets.split_param_count(depth, width) == want
    assert nets.split_param_count(12, 30) == 5473
    assert nets.split_param_count(12, 30) == (
        len(nets.build(12, 20, 3, 2, 0).theta) + len(nets.build(12, 10, 3, 1, 0).theta))
    assert nets.single_param_count(12, 30) == 9513
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"13 architecture sizes reproduced exactly in {elapsed:.3f}s")


# ----------------------------------------------------------------------
# 2. derivative engine vs finite differences

def test_criterion_2_autodiff_fd_suite():
    t0 = time.time()
    primitives = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y,
        "div": lambda x, y: x / (y + 3.0),
        "exp": lambda x, y: ad.exp(0.5 * x) * y,
        "sqrt": lambda x, y: ad.sqrt(x + 2.5) + y,
        "relu": lambda x, y: ad.relu(x) * y,
        "sigmoid": lambda x, y: ad.sigmoid(x + y),
        "composed": lambda x, y: ad.exp(-(x * x)) / (ad.sqrt(y + 3.0) + 1.0),
    }
    rng = np.random.default_rng(202)

    def feval(f, pt):
        tape = ad.Tape()
        return f(*[tape.batch([v]) for v in pt]).value.item()

    worst_first = worst_second = 0.0
    for name, f in primitives.items():
        checked = 0
        while checked < 100:
            pt = rng.uniform(-2, 2, size=2)
            if name == "relu" and min(abs(pt[0]), abs(pt[1])) < 1e-3:
                continue
            g = ad.grad_inputs(f, pt)
            for i in range(2):
                h = 1e-5
                hi, lo = list(pt), list(pt)
                hi[i] += h
                lo[i] -= h
                fd = (feval(f, hi) - feval(f, lo)) / (2 * h)
                rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1.0)
                worst_first = max(worst_first, rel)
                assert rel < 1e-5
            checked += 1

    # second derivatives through a velocity-size network pair (12x30 split)
    net = nets.build(12, 20, 3, 2, seed=7, name="u")

    def second0(pt, i):
        """d2 out0 / dx_i^2 at one point, from the network's jet."""
        tape = ad.Tape()
        (out0, _) = net.jet(tape, [tape.batch([v]) for v in pt], (i,), laplacian=(i,))
        return float(out0.laplacian.value[0])

    def neteval(pt):
        return float(net.evaluate(np.asarray(pt)[None, :])[0, 0])

    checked = 0
    while checked < 100:
        pt = rng.uniform(-1, 1, size=3)
        if net.relu_margin(pt) < 1e-6:
            continue
        i = checked % 3
        got = second0(pt, i)
        h = 1e-4
        hi, lo = pt.copy(), pt.copy()
        hi[i] += h
        lo[i] -= h
        fd = (neteval(hi) - 2 * neteval(pt) + neteval(lo)) / h**2
        rel = abs(got - fd) / max(abs(got), abs(fd), 1.0)
        worst_second = max(worst_second, rel)
        assert rel < 1e-3
        checked += 1

    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, f"first/second derivative discrepancies {worst_first:.2e}/"
              f"{worst_second:.2e} over 100-point suites in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. manufactured solutions

def test_criterion_3_manufactured_solutions():
    t0 = time.time()
    geometry = VesselGeometry()
    fluid = FluidProperties()
    wall = WallProperties()
    eps_r = geometry.radius / 100.0
    u_max, r0 = 20.0, geometry.radius
    flow = AnalyticFlow(
        lambda r, z, t: u_max * (1.0 - (r * r) * (1.0 / r0**2)),
        lambda r, z, t: 0.0,
        lambda r, z, t: 100.0 - (4.0 * fluid.viscosity * u_max / r0**2) * z,
    )
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 1000:
        r = rng.uniform(-r0, r0)
        if abs(r) < 2 * eps_r:
            continue
        pts.append((r, rng.uniform(0, geometry.length), rng.uniform(0, geometry.horizon)))
    arrays = tuple(np.array(c) for c in zip(*pts))
    res = ns_residual_axisym(*on_tape(arrays), flow, ZeroDisplacement(), fluid, eps_r)
    worst_ns = max(float(np.max(np.abs(c.value))) for c in res)
    assert worst_ns < 1e-8

    b = wall.restoring_at_radius(r0)
    osc = AnalyticDisplacement(lambda r, z, t: ad.cos(np.sqrt(b) * t))
    quiet = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
    worst_sc = 0.0
    for time_s in np.linspace(0, geometry.horizon, 60):
        tape, r, z, t = on_tape((r0, 0.9, time_s))
        direction = tape.batch(radial_direction(r.value))
        res = stress_continuity_residual(tape, z, t, direction, quiet, osc, geometry, wall, fluid)
        worst_sc = max(worst_sc, abs(res.value.item()))
    assert worst_sc < 1e-8

    linear = AnalyticDisplacement(lambda r, z, t: 0.3 * z + 0.05)
    worst_he = 0.0
    for point in pts[:200]:
        res = harmonic_residual(*on_tape(point), linear, eps_r)
        worst_he = max(worst_he, abs(res.value.item()))
    assert worst_he < 1e-10

    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, f"max residuals: momentum/mass {worst_ns:.2e}, ring {worst_sc:.2e}, "
              f"harmonic {worst_he:.2e} in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 4. the Poiseuille check: poiseuille-rigid trained from scratch

# `analysis.relative_error` is dt * sum over times of a volume-weighted
# squared mismatch ratio, over the 2 s horizon: a zero field scores 2.0,
# and 1e-3 is an RMS relative error of about sqrt(1e-3 / 2) = 2.2%.
CRITERION_4_ERROR = 1e-3
CRITERION_4_TOLERANCE = 0.02  # relative, on the outlet flux and the axis pressure drop


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 1, 12, 13, 2 and 9: the flow loss does not have the oracle "
    "as its zero, and the pressure network goes dead"))
def test_criterion_4_poiseuille():
    config = preset("poiseuille-rigid")
    geometry, fluid = config.vessel_geometry(), config.fluid_properties()
    u_max, r0, length = config.inlet.steady_value_cm_per_s, geometry.radius, geometry.length
    grid = analysis.EvaluationGrid.build(geometry, 32, 32, 8)
    flux_oracle = np.pi * u_max * r0**2 / 2.0
    drop_oracle = -float(analysis.pressure_drop_oracle(length, u_max, r0, fluid.viscosity))
    failures = []
    for seed in (0, 1, 2):  # one test: a pass at one seed is a fail
        networks = build_networks(config, seed)
        start = time.perf_counter()
        history = Trainer(config, networks, seed=seed).run()
        wall = time.perf_counter() - start
        flow = NetworkFlow(networks["u"], networks["p"])
        error = analysis.relative_error(
            analysis.speed_field(flow, ZeroDisplacement()),
            lambda r, z, t: analysis.poiseuille_oracle(r, u_max, r0), grid)
        flux = analysis.outlet_flux(flow, ZeroDisplacement(), np.array([1.0]), geometry)[0]
        p_in, p_out = networks["p"].evaluate(np.array([[0.0, 0.0, 1.0], [0.0, length, 1.0]]))[:, 0]
        ratio, drop = flux / flux_oracle, p_in - p_out
        print(f"seed {seed}: {len(history)} epochs, {wall:.1f} s, error {error:.6f}, "
              f"flux ratio {ratio:.5f}, dP {drop:.4g} (oracle {drop_oracle:.4g})")
        if not (error <= CRITERION_4_ERROR
                and abs(ratio - 1.0) <= CRITERION_4_TOLERANCE
                and abs(drop - drop_oracle) <= CRITERION_4_TOLERANCE * drop_oracle):
            failures.append(seed)
    assert not failures, f"seeds {failures} miss criterion 4"
    report(4, "poiseuille-rigid meets the error, flux and pressure-drop thresholds "
              "at seeds 0, 1 and 2")


# ----------------------------------------------------------------------
# 5. schedule conformance (structural, from the history file)

def test_criterion_5_schedule_conformance(tmp_path):
    config = ScenarioConfig(
        name="schedule-check",
        training=TrainingSettings(
            interior_points=16, wall_points=8, port_points=8,
            fluid_epochs=100, solid_epochs=20, velocity_epochs=80,
            pressure_epochs=20, ladder_steps=5, max_alternations=2,
            convergence_threshold=0.0, network_depth=3, velocity_width=6,
            pressure_width=4, displacement_width=6,
        ))
    networks = build_networks(config, seed=0)
    Trainer(config, networks, seed=0, out_dir=str(tmp_path)).run()

    from vesselflow.trainer import TrainingHistory
    history = TrainingHistory.read_csv(tmp_path / "history.csv")

    seq = history.alpha_sequence()
    assert seq[0] == 0.0
    assert seq[1:] == pytest.approx([1e-7, 1e-6, 1e-5, 1e-4, 1e-3], rel=1e-12)
    assert len(seq) == 6

    # 80/20 velocity/pressure partition inside each flow block
    for stage in history.stages():
        phases = [r.phase for r in history.records if r.stage == stage]
        if phases[0] == "d":
            continue
        assert phases == ["u"] * 80 + ["p"] * 20

    couples = [s for s in history.stages() if s.startswith("couple-")]
    alternations = len([s for s in couples if s.endswith("-solid")])
    assert alternations <= 6
    report(5, f"ladder {seq}, 80/20 u/p rounds, {alternations} alternations <= 6")


# ----------------------------------------------------------------------
# 6. detach policy and phase freezing

def test_criterion_6_detach_invariants():
    t0 = time.time()
    config = ScenarioConfig(
        name="detach-check",
        training=TrainingSettings(
            interior_points=20, wall_points=12, port_points=8,
            fluid_epochs=10, solid_epochs=4, velocity_epochs=8, pressure_epochs=2,
            ladder_steps=0, max_alternations=0, convergence_threshold=0.0,
            network_depth=4, velocity_width=8, pressure_width=4,
            displacement_width=8,
        ))
    networks = build_networks(config, seed=1)
    samples = draw_samples(config.vessel_geometry(), 20, 12, 8, seed=3)
    graph = SolidLossGraph(
        NetworkFlow(networks["u"], networks["p"]),
        physics.NetworkDisplacement(networks["d"]), samples,
        config.vessel_geometry(), config.wall_segments(),
        config.fluid_properties(), config.loss_weights(), config.eps_r)
    grads = graph.param_grads(["u", "p", "d"])
    assert np.all(grads["u"] == 0.0)
    assert np.all(grads["p"] == 0.0)
    assert np.any(grads["d"] != 0.0)

    # bitwise freeze of theta_p during u-phase epochs
    trainer = Trainer(config, networks, seed=1)
    p_before = networks["p"].theta.copy()
    d_before = networks["d"].theta.copy()
    graph = trainer._fluid_graph(trainer._stage_samples(), alpha_ns=1e-5)
    losses = []
    for _ in range(8):
        trainer._epoch("check", "u", graph, losses)
    assert np.array_equal(networks["p"].theta, p_before)
    assert np.array_equal(networks["d"].theta, d_before)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(6, f"solid-loss flow gradients exactly zero; theta_p bitwise frozen "
              f"through u-phase ({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 8. the split property of the loss records

def _split_draw(samples: CollocationSamples, parts: int) -> list[CollocationSamples]:
    """`parts` equal contiguous pieces of every collocation set of a draw."""
    def piece(s, k):
        size, rest = divmod(len(s), parts)
        assert rest == 0, f"a count of {len(s)} does not split into {parts}"
        sl = slice(k * size, (k + 1) * size)
        return SampleSet(s.r[sl], s.z[sl], s.t[sl])
    return [CollocationSamples(**{f.name: piece(getattr(samples, f.name), k)
                                  for f in dataclasses.fields(samples)})
            for k in range(parts)]


def _worst_split_error(build, samples, name):
    """Largest relative gap, over 2 and 4 equal parts, between the mean of
    the parts' gradients of network `name` and the whole draw's gradient."""
    want = build(samples).param_grads([name])[name]
    scale = np.maximum(np.abs(want), 1e-30)
    worst = 0.0
    for parts in (2, 4):
        total = None
        for part in _split_draw(samples, parts):
            g = build(part).param_grads([name])[name]
            total = g if total is None else total + g
        worst = max(worst, float(np.max(np.abs(total / parts - want) / scale)))
    return worst


def test_criterion_8_parallel_gradient_equivalence():
    # Each loss term of a record is a mean over its points, so records built
    # on equal parts of a draw average to the record of the whole draw: the
    # gradient a data-parallel trainer would assemble from its workers.
    t0 = time.time()
    training = TrainingSettings(
        interior_points=32, wall_points=16, port_points=8,
        fluid_epochs=10, velocity_epochs=8, pressure_epochs=2,
        ladder_steps=0, max_alternations=0, convergence_threshold=0.0,
        network_depth=4, velocity_width=8, pressure_width=4,
        displacement_width=8,
    )
    config = ScenarioConfig(name="split-check", training=training)
    networks = build_networks(config, seed=4)
    trainer = Trainer(config, networks, seed=4)
    samples = trainer._stage_samples()
    for name in ("u", "p"):
        worst = _worst_split_error(lambda s: trainer._fluid_graph(s, alpha_ns=1e-4),
                                   samples, name)
        assert worst < 1e-12, f"fluid record, {name}: {worst}"

    # The wall record over a plaque: every quarter of the draw holds wall
    # points off and on the plaque, and 64 wall points give 16 endpoints.
    plaque = preset("plaque-moderate")
    geometry = plaque.vessel_geometry()
    samples = draw_samples(geometry, 32, 64, 8, seed=5)
    for part in _split_draw(samples, 4):
        on = physics.on_plaque(geometry, part.wall.z)
        assert 0 < np.count_nonzero(on) < len(on)

    def solid_graph(s):
        return SolidLossGraph(trainer.flow, physics.NetworkDisplacement(networks["d"]), s,
                              geometry, plaque.wall_segments(), plaque.fluid_properties(),
                              plaque.loss_weights(), plaque.eps_r)

    worst = _worst_split_error(solid_graph, samples, "d")
    assert worst < 1e-12, f"solid record, d: {worst}"
    elapsed = time.time() - t0
    assert elapsed < 60
    report(8, f"u, p (fluid) and d (solid, plaque) gradients of 2 and 4 equal parts "
              f"average to the whole draw's within 1e-12 ({elapsed:.1f}s)")
