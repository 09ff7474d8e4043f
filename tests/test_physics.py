"""Residual verification against closed-form manufactured fields."""

from dataclasses import fields

import numpy as np
import pytest

from vesselflow import autodiff as ad
from vesselflow import nets
from vesselflow.config import preset
from vesselflow.domain import (
    PlaqueShape, RegionTag, VesselGeometry, plaque_slope, radial_direction, reference_radius,
)
from vesselflow.optim import AdamState
from vesselflow.physics import (
    T, AnalyticDisplacement, AnalyticFlow, FluidLossGraph, FluidProperties, LossWeights,
    NetworkDisplacement, NetworkFlow, PhysicsError, SolidLossGraph, WallProperties,
    ZeroDisplacement, current_velocity, draw_samples, harmonic_residual, inlet_residual,
    interface_residual, mean_square, ns_residual_axisym, outlet_residual,
    stress_continuity_residual,
)
from vesselflow.trainer import build_networks

GEOM = VesselGeometry()
FLUID = FluidProperties()
WALL = WallProperties()
EPS_R = GEOM.radius / 100.0  # axis clamp width
U_MAX, R0 = 20.0, 0.25

REST_FLOW = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 7.0)
ZERO_DISP = ZeroDisplacement()


def poiseuille_flow(u_max=U_MAX, r0=R0, mu=FLUID.viscosity, p0=100.0):
    dpdz = -4.0 * mu * u_max / r0**2
    return AnalyticFlow(
        lambda r, z, t: u_max * (1.0 - (r * r) * (1.0 / r0**2)),
        lambda r, z, t: 0.0,
        lambda r, z, t: p0 + dpdz * z,
    )


def on_tape(point):
    """A fresh record and batches (r, z, t) on it of points given as arrays
    or as floats (one point, a batch of one)."""
    tape = ad.Tape()
    return (tape, *(tape.batch(np.atleast_1d(v)) for v in point))


def read_on_tape(point, flow, disp):
    """A fresh record with batches (r, z, t) of points and the flow's
    value-only read there: (tape, r, z, t, r_t, u_z, u_r)."""
    tape, r, z, t = on_tape(point)
    return (tape, r, z, t, *current_velocity(tape, r, z, t, flow, disp))


def inlet_at(point, flow, disp, inlet_factor):
    tape, _, _, t, *read = read_on_tape(point, flow, disp)
    return inlet_residual(tape, t, *read, GEOM, inlet_factor)


def interface_at(point, flow, disp):
    tape, r, z, t, _, u_z, u_r = read_on_tape(point, flow, disp)
    return interface_residual(tape, r, z, t, u_z, u_r, disp)


def initial_at(point, flow, disp):
    """The flow record's rest-state residual: the velocity (u_z, u_r) at t = 0."""
    *_, u_z, u_r = read_on_tape(point, flow, disp)
    return u_z, u_r


def wall_residual(flow, disp, point, wall, geometry=GEOM):
    """Ring-model residual at wall points given as (r, z, t)."""
    tape, r, z, t = on_tape(point)
    direction = tape.batch(radial_direction(r.value))
    return stress_continuity_residual(tape, z, t, direction, flow, disp, geometry, wall, FLUID)


def interior_points(count, seed, min_abs_r=2 * EPS_R):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        r = rng.uniform(-R0, R0)
        if abs(r) < min_abs_r:
            continue
        pts.append((r, rng.uniform(0, 2.0), rng.uniform(0, 2.0)))
    return pts


class TestAxisymmetricResiduals:
    def test_rest_state_vanishes(self):
        for point in interior_points(20, seed=0):
            res = ns_residual_axisym(*on_tape(point), REST_FLOW, ZERO_DISP, FLUID, EPS_R)
            assert all(abs(c.value) == 0.0 for c in res)

    def test_poiseuille_annihilates_residual(self):
        flow = poiseuille_flow()
        worst = 0.0
        for point in interior_points(200, seed=1):
            res = ns_residual_axisym(*on_tape(point), flow, ZERO_DISP, FLUID, EPS_R)
            worst = max(worst, max(abs(c.value) for c in res))
        assert worst < 1e-8

    def test_linear_axial_field_hand_values(self):
        # u_z = z, u_r = 0, P = 0: divergence 1, axial residual rho*z.
        flow = AnalyticFlow(lambda r, z, t: z, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        point = (0.1, 0.73, 0.2)
        res_z, res_r, res_div = ns_residual_axisym(*on_tape(point), flow, ZERO_DISP, FLUID, EPS_R)
        assert res_div.value == pytest.approx(1.0, abs=1e-14)
        assert res_z.value == pytest.approx(FLUID.density * 0.73, rel=1e-14)
        assert res_r.value == pytest.approx(0.0, abs=1e-14)

    def test_batched_matches_per_point(self):
        flow = poiseuille_flow()
        pts = interior_points(16, seed=3)
        arr = tuple(np.array(col) for col in zip(*pts))
        batched = ns_residual_axisym(*on_tape(arr), flow, ZERO_DISP, FLUID, EPS_R)
        for k, point in enumerate(pts):
            single = ns_residual_axisym(*on_tape(point), flow, ZERO_DISP, FLUID, EPS_R)
            for bc, sc in zip(batched, single):
                assert bc.value[k] == pytest.approx(sc.value, abs=1e-12)


class TestHarmonicResidual:
    def test_zero_displacement(self):
        assert harmonic_residual(*on_tape((0.1, 0.5, 0.2)), ZERO_DISP, EPS_R).value == 0.0

    def test_linear_field_is_harmonic(self):
        disp = AnalyticDisplacement(lambda r, z, t: z)
        for point in interior_points(50, seed=4):
            assert abs(harmonic_residual(*on_tape(point), disp, EPS_R).value) < 1e-10

    def test_quadratic_field_hand_value(self):
        disp = AnalyticDisplacement(lambda r, z, t: z * z)
        res = harmonic_residual(*on_tape((0.12, 0.8, 0.1)), disp, EPS_R)
        assert res.value == pytest.approx(2.0, abs=1e-12)


class TestStressContinuity:
    def test_all_quiet_vanishes(self):
        disp = AnalyticDisplacement(lambda r, z, t: 0.0)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = wall_residual(flow, disp, (R0, 1.0, 0.4), WALL)
        assert res.value == 0.0

    def test_free_oscillation_mode(self):
        b = WALL.restoring_at_radius(R0)
        omega = np.sqrt(b)
        disp = AnalyticDisplacement(lambda r, z, t: ad.cos(omega * t))
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        worst = 0.0
        for t in np.linspace(0.0, 2.0, 40):
            res = wall_residual(flow, disp, (R0, 0.7, t), WALL)
            worst = max(worst, abs(res.value))
        assert worst < 1e-8

    def test_constant_displacement_gives_restoring_term(self):
        # b = E / (rho (1-xi^2) R0^2) = 5e5 / (1.2 * 0.75 * 0.0625)
        b_by_hand = 5e5 / (1.2 * 0.75 * 0.0625)
        assert b_by_hand == pytest.approx(8888888.888888889)
        c = 3e-4
        disp = AnalyticDisplacement(lambda r, z, t: c)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = wall_residual(flow, disp, (-R0, 1.3, 0.9), WALL)
        assert res.value == pytest.approx(b_by_hand * c, rel=1e-12)

    def test_pressure_load_sign_and_scale(self):
        # Static wall, uniform pressure: residual = -(R/R0) P / (rho_s h0) with R = R0.
        p0 = 1000.0
        disp = AnalyticDisplacement(lambda r, z, t: 0.0)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: p0)
        res = wall_residual(flow, disp, (R0, 1.0, 0.1), WALL)
        want = -p0 / (WALL.density * WALL.thickness)
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_plaque_segment_uses_dented_radius(self):
        geom = VesselGeometry(plaque=PlaqueShape(0.15, 0.1, 1.0))
        plaque_wall = WallProperties(density=1.1, youngs_modulus=1e6,
                                     poisson_ratio=0.5, thickness=0.05)
        c = 1e-3
        disp = AnalyticDisplacement(lambda r, z, t: c)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        z = 1.0  # apex, R_p = 0.15
        res = wall_residual(flow, disp, (0.15, z, 0.2), plaque_wall, geom)
        want = 1e6 / (1.1 * 0.75 * 0.15**2) * c
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_plaque_wall_slope_chain_rule(self):
        # eta = e r and u_z = k r: the shear load reads the wall's total
        # slope R0'(z) (1 + e direction), R0' = -plaque_slope, through eta's
        # r-derivative at the dented radius
        geom = VesselGeometry(plaque=PlaqueShape(0.15, 0.1, 1.0))
        e, k = 0.02, 3.0
        z = np.array([0.9, 0.97, 1.0, 1.04, 1.12])
        direction = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        radius0 = reference_radius(geom, z)
        disp = AnalyticDisplacement(lambda r, z, t: e * r)
        flow = AnalyticFlow(lambda r, z, t: k * r, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = wall_residual(flow, disp, (direction * radius0, z, np.full(5, 0.3)), WALL, geom)
        ratio = 1.0 + e * direction
        slope = -plaque_slope(geom.plaque, z) * ratio
        load = ratio * FLUID.viscosity * k * slope / (WALL.density * WALL.thickness)
        want = WALL.restoring_at_radius(radius0) * e * direction * radius0 - load
        np.testing.assert_allclose(res.value, want, rtol=1e-12)


class TestFluidBoundaryResiduals:
    def inlet_factor(self, ts):
        return 10.0 - 10.0 * np.cos(2.0 * np.pi * ts)

    def test_inlet_peak_on_centerline(self):
        flow = AnalyticFlow(lambda r, z, t: 20.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = inlet_at((0.0, 0.0, 0.5), flow, ZERO_DISP, self.inlet_factor)
        assert all(abs(c.value) < 1e-12 for c in res)

    def test_inlet_wall_edge_zero_velocity(self):
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = inlet_at((R0, 0.0, 0.77), flow, ZERO_DISP, self.inlet_factor)
        assert all(abs(c.value) < 1e-12 for c in res)

    def test_outlet_traction_free_for_poiseuille_shearless_axis(self):
        # On the centerline the parabolic profile has zero shear; the normal
        # stress balance needs P = 2 mu du_z/dz = 0.
        flow = poiseuille_flow(p0=4.0 * FLUID.viscosity * U_MAX / R0**2 * GEOM.length)
        res_r, res_z = outlet_residual(*on_tape((0.0, GEOM.length, 0.3)), flow, ZERO_DISP,
                                       FLUID)
        assert abs(res_r.value) < 1e-12
        assert abs(res_z.value) < 1e-10  # P(l) = 0 by the chosen inlet pressure

    def test_interface_rest_wall(self):
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        disp = AnalyticDisplacement(lambda r, z, t: 0.01)  # time-constant
        res = interface_at((R0, 0.6, 0.2), flow, disp)
        assert all(abs(c.value) < 1e-14 for c in res)

    def test_interface_moving_wall_matches_velocity(self):
        speed = 0.35
        disp = AnalyticDisplacement(lambda r, z, t: speed * t)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: speed, lambda r, z, t: 0.0)
        res = interface_at((R0, 0.6, 0.2), flow, disp)
        assert all(abs(c.value) < 1e-14 for c in res)
        # mirrored side needs the signed radial component
        flow_neg = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: -speed, lambda r, z, t: 0.0)
        res = interface_at((-R0, 0.6, 0.2), flow_neg, disp)
        assert all(abs(c.value) < 1e-14 for c in res)


class TestInitialResiduals:
    def test_rest_fluid(self):
        res = initial_at((0.1, 0.3, 0.0), REST_FLOW, ZERO_DISP)
        assert [c.value for c in res] == [0.0, 0.0]

    def test_rest_solid(self):
        tape, r, z, t = on_tape((R0, 0.3, 0.0))
        res = ZERO_DISP.radial(tape, r, z, t).value  # the wall problem's rest mismatch
        assert res.value == 0.0

    def test_unit_axial_start(self):
        flow = AnalyticFlow(lambda r, z, t: 1.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        res = initial_at((0.1, 0.3, 0.0), flow, ZERO_DISP)
        assert np.hypot(res[0].value, res[1].value) == pytest.approx(1.0)


class TestDiscreteNorm:
    """`mean_square`, the discrete norm every loss term takes: the mean over
    a batch of the squared magnitude of the residual components."""

    @staticmethod
    def norm(*components):
        tape = ad.Tape()
        return mean_square(tape, [tape.batch(np.array(c)) for c in components]).value

    def test_constant_scalar(self):
        assert self.norm([3.0, 3.0, 3.0]) == 9.0

    def test_hand_case(self):
        assert self.norm([1.0, 2.0]) == 2.5

    def test_vector_magnitudes(self):
        assert self.norm([3.0], [4.0]) == 25.0


def make_nets(seed=0):
    u = nets.build(4, 8, 3, 2, seed=seed, name="u")
    p = nets.build(4, 4, 3, 1, seed=seed + 1, name="p")
    d = nets.build(4, 8, 3, 1, seed=seed + 2, name="d")
    return u, p, d


def tiny_samples(geometry=GEOM, seed=0):
    return draw_samples(geometry, interior_count=12, wall_count=8, port_count=8,
                        seed=seed)


def steady_factor(ts):
    return np.full_like(ts, 20.0)


class TestLossAssembly:
    def test_all_weights_zero_total_zero(self):
        weights = LossWeights(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        u, p, d = make_nets()
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        fluid = FluidLossGraph(flow, disp, samples, GEOM, FLUID,
                               steady_factor, weights, EPS_R).breakdown()
        solid = SolidLossGraph(flow, disp, samples, GEOM,
                               {RegionTag.WALL: WALL}, FLUID, weights, EPS_R).breakdown()
        assert fluid.fluid_total == 0.0
        assert solid.solid_total == 0.0

    def test_perfect_bc_satisfaction_zeroes_fluid_total(self):
        # alpha_ns = 0 and fields that satisfy boundary and initial data
        # exactly: rest flow with zero inlet drive.
        weights = LossWeights(ns=0.0, fluid_bdr=1.0, fluid_init=0.1)
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        samples = tiny_samples()
        breakdown = FluidLossGraph(flow, ZERO_DISP, samples, GEOM, FLUID,
                                   lambda ts: np.zeros_like(ts), weights, EPS_R).breakdown()
        assert breakdown.fluid_total == 0.0

    def test_doubling_harmonic_weight_doubles_contribution(self):
        u, p, d = make_nets(seed=5)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        w1 = LossWeights(harmonic=10.0, stress=0.0, solid_bdr=0.0, solid_init=0.0)
        w2 = LossWeights(harmonic=20.0, stress=0.0, solid_bdr=0.0, solid_init=0.0)
        s1 = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL},
                            FLUID, w1, EPS_R).breakdown()
        s2 = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL},
                            FLUID, w2, EPS_R).breakdown()
        assert s2.solid_total == pytest.approx(2.0 * s1.solid_total, rel=1e-15)
        assert s2.harmonic == s1.harmonic

    def test_breakdown_totals_recompute_exactly(self):
        u, p, d = make_nets(seed=9)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        weights = LossWeights(ns=1e-5)
        fluid = FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                               weights, EPS_R)
        got = fluid.breakdown()
        # the weighted sums in the order the record adds them
        assert got.fluid_total == ((weights.ns * got.ns + weights.fluid_bdr * got.fluid_bdr)
                                   + weights.fluid_init * got.fluid_init)
        assert got.fluid_total == float(fluid.total.value)

        solid = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL},
                               FLUID, weights, EPS_R)
        sgot = solid.breakdown()
        assert sgot.solid_total == (((weights.stress * sgot.stress
                                      + weights.harmonic * sgot.harmonic)
                                     + weights.solid_bdr * sgot.solid_bdr)
                                    + weights.solid_init * sgot.solid_init)
        assert sgot.solid_total == float(solid.total.value)

    def test_each_record_fills_exactly_its_breakdown_fields(self):
        u, p, d = make_nets(seed=4)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        fluid = FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                               LossWeights(ns=1e-5), EPS_R)
        solid = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL},
                               FLUID, LossWeights(), EPS_R)
        for graph, names in (
                (fluid, ["ns", "fluid_bdr", "fluid_init", "fluid_total"]),
                (solid, ["stress", "harmonic", "solid_bdr", "solid_init", "solid_total"])):
            assert list(graph.losses) == names
            got = graph.breakdown()
            filled = [f.name for f in fields(got) if not np.isnan(getattr(got, f.name))]
            assert filled == names

    def test_per_point_residuals_invariant_under_permutation(self):
        flow = poiseuille_flow()
        pts = interior_points(10, seed=8)
        arr = tuple(np.array(col) for col in zip(*pts))
        res = ns_residual_axisym(*on_tape(arr), flow, ZERO_DISP, FLUID, EPS_R)
        perm = np.random.default_rng(0).permutation(10)
        arr_p = tuple(col[perm] for col in arr)
        res_p = ns_residual_axisym(*on_tape(arr_p), flow, ZERO_DISP, FLUID, EPS_R)
        for a, b in zip(res, res_p):
            assert np.array_equal(np.asarray(a.value)[perm], np.asarray(b.value))


class TestOracleIsALossZero:
    """The verification preset's closed-form oracle must zero the flow loss
    it is meant to verify, up to rounding, on the preset's own draws."""

    # Mean squares of residuals whose terms are O(20) in CGS units: rounding
    # leaves them near 1e-28, while a residual of 22.4 dyn/cm^3 at one point
    # of 256 gives about 2.
    TOLERANCE = 1e-20

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 12: the stress outlet charges the exact solution's "
        "shear mu du_z/dr, and the axis clamp misreads (1/r) du_z/dr at |r| < eps_r"))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poiseuille_zeroes_ns_and_fluid_bdr(self, seed):
        config = preset("poiseuille-rigid")
        geometry, fluid, t = config.vessel_geometry(), config.fluid_properties(), config.training
        u_max, r0, length = config.inlet.steady_value_cm_per_s, geometry.radius, geometry.length
        flow = AnalyticFlow(
            lambda r, z, t: u_max * (1.0 - (r * r) * (1.0 / r0**2)),
            lambda r, z, t: 0.0,
            lambda r, z, t: 4.0 * fluid.viscosity * u_max / r0**2 * (length - z),
        )
        samples = draw_samples(geometry, t.interior_points, t.wall_points, t.port_points, seed)
        # fluid_init is left out: the preset weighs it 0, and a steady flow
        # is not at rest at t = 0
        got = FluidLossGraph(flow, ZERO_DISP, samples, geometry, fluid, config.inlet_factor(),
                             LossWeights(ns=1e-3, fluid_init=0.0), config.eps_r).breakdown()
        assert got.ns <= self.TOLERANCE and got.fluid_bdr <= self.TOLERANCE, (
            f"seed {seed}: ns {got.ns:.3g}, fluid_bdr {got.fluid_bdr:.3g}")


class ExactVelocity:
    """A flow whose velocity is a closed-form flow's and whose pressure is
    a network flow's."""

    def __init__(self, closed_form, network):
        self.velocity = closed_form.velocity
        self.pressure = network.pressure


class TestPressureSubproblem:
    """The pressure path alone: the pressure network of `poiseuille-rigid`,
    trained on the flow record against the exact velocity, must learn the
    Poiseuille pressure 4 mu U (L - z) / R^2. The budget and bounds were
    fixed before the first run."""

    EPOCHS = 2000
    TOLERANCE = 0.02  # of 4 mu U L / R^2, on the drop and on the RMS error

    @pytest.mark.slow
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 18, 13, 15 and 16: the pressure network's units go dead "
        "and its relu layers make the loss discontinuous"))
    def test_pressure_learned_against_exact_velocity(self):
        config = preset("poiseuille-rigid")
        geometry, fluid, t = config.vessel_geometry(), config.fluid_properties(), config.training
        u_max, r0, length = config.inlet.steady_value_cm_per_s, geometry.radius, geometry.length
        scale = 4.0 * fluid.viscosity * u_max * length / r0**2
        exact = AnalyticFlow(lambda r, z, t: u_max * (1.0 - (r * r) * (1.0 / r0**2)),
                             lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        rr, zz = (a.ravel() for a in np.meshgrid(np.linspace(0.0, r0, 9),
                                                 np.linspace(0.0, length, 21), indexing="ij"))
        grid = np.stack([rr, zz, np.ones_like(rr)], axis=-1)
        oracle = scale * (1.0 - zz / length)
        failures = []
        for seed in (0, 1, 2):
            p = build_networks(config, seed)["p"]
            samples = draw_samples(geometry, t.interior_points, t.wall_points, t.port_points, seed)
            graph = FluidLossGraph(ExactVelocity(exact, NetworkFlow(None, p)), ZERO_DISP, samples,
                                   geometry, fluid, config.inlet_factor(),
                                   LossWeights(ns=1.0, fluid_bdr=1.0, fluid_init=0.0),
                                   config.eps_r)
            adam = AdamState(len(p.theta), learning_rate=config.learning_rates()["p"])
            for _ in range(self.EPOCHS):
                graph.replay()
                adam.step(p.theta, graph.param_grads(["p"])["p"])
            p_in, p_out = p.evaluate(np.array([[0.0, 0.0, 1.0], [0.0, length, 1.0]]))[:, 0]
            drop = p_in - p_out
            rms = float(np.sqrt(np.mean((p.evaluate(grid)[:, 0] - oracle) ** 2)))
            print(f"seed {seed}: dP {drop:.4g} (oracle {scale:.4g}), RMS {rms / scale:.3%}")
            if not (abs(drop - scale) <= self.TOLERANCE * scale and rms <= self.TOLERANCE * scale):
                failures.append(seed)
        assert not failures, f"seeds {failures} miss the pressure"


class TestDetachPolicy:
    def test_solid_total_has_zero_flow_gradients(self):
        u, p, d = make_nets(seed=2)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        graph = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL},
                               FLUID, LossWeights(), EPS_R)
        grads = graph.param_grads(["u", "p", "d"])
        assert np.all(grads["u"] == 0.0)
        assert np.all(grads["p"] == 0.0)
        assert np.any(grads["d"] != 0.0)

    def test_interface_target_detached_in_fluid_loss(self):
        # Zero the flow networks so the velocity-matching residual reduces to
        # the wall-velocity target alone. Detached, it contributes no
        # displacement gradient, though the target itself has one.
        u, p, d = make_nets(seed=3)
        nets.zero_init_output(u)
        nets.zero_init_output(p)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        point = (np.array([R0, -R0, R0]), np.array([0.2, 0.9, 1.7]), np.array([0.1, 0.4, 0.8]))

        def d_gradient(residual):
            tape, r, z, t = on_tape(point)
            loss = mean_square(tape, residual(tape, r, z, t))
            return tape.backward_values(loss, ["d"])["d"]

        def interface(tape, r, z, t):
            _, u_z, u_r = current_velocity(tape, r, z, t, flow, disp)
            return interface_residual(tape, r, z, t, u_z, u_r, disp)

        assert np.all(d_gradient(interface) == 0.0)
        assert np.any(d_gradient(lambda *rzt: [disp.radial(*rzt, (T,)).grads[0]]) != 0.0)

    def test_coordinate_path_stays_live(self):
        # With live flow networks the displacement still steers where the
        # fields are evaluated, so its fluid-loss gradient is nonzero.
        u, p, d = make_nets(seed=4)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        graph = FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                               LossWeights(ns=1e-3), EPS_R)
        grads = graph.param_grads(["d", "u", "p"])
        assert np.any(grads["d"] != 0.0)
        assert np.any(grads["u"] != 0.0)
        assert np.any(grads["p"] != 0.0)


class TestLossGraphReplay:
    def test_replay_tracks_parameter_updates(self):
        u, p, d = make_nets(seed=6)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()
        graph = FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                               LossWeights(ns=1e-4), EPS_R)
        before = float(graph.total.value)
        u.theta += 1e-3
        graph.replay()
        after = float(graph.total.value)
        assert after != before

        fresh = FluidLossGraph(NetworkFlow(u, p), disp, samples, GEOM, FLUID,
                               steady_factor, LossWeights(ns=1e-4), EPS_R)
        assert float(fresh.total.value) == pytest.approx(after, rel=1e-12)

    def test_alpha_ladder_updates_total(self):
        # a rung of the ladder is a record built at its own weight
        u, p, d = make_nets(seed=7)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples()

        def breakdown(alpha):
            return FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                                  LossWeights(ns=alpha), EPS_R).breakdown()

        base, raised = breakdown(0.0), breakdown(1e-3)
        assert raised.fluid_total > base.fluid_total
        assert raised.ns == base.ns  # the unweighted term itself is unchanged


def ancestors(tape, node):
    """Record indices that `node`'s value reads, through any operand,
    `node` included."""
    seen, todo = set(), [node.index]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(ad._operands(tape._ops[i], tape._args[i]))
    return seen


class TestZeroWeightedTerms:
    """At alpha_ns = 0 the backward pass never reads the momentum
    residual's nodes, and the gradients are those of a total without it."""

    GROUPS = ("u", "p", "d")

    def graph(self, alpha_ns):
        u, p, d = make_nets(seed=12)
        return FluidLossGraph(NetworkFlow(u, p), NetworkDisplacement(d), tiny_samples(seed=3),
                              GEOM, FLUID, steady_factor, LossWeights(ns=alpha_ns), EPS_R)

    def poison_ns(self, graph):
        """Overwrite with NaN every value that only the momentum term reads."""
        tape = graph.tape
        losses = graph.losses
        others = ancestors(tape, losses["fluid_bdr"]) | ancestors(tape, losses["fluid_init"])
        for i in ancestors(tape, losses["ns"]) - others:
            tape._vals[i] = np.full_like(tape._vals[i], np.nan)

    @pytest.mark.parametrize("group", GROUPS)
    def test_gradient_equals_total_without_ns(self, group):
        graph = self.graph(alpha_ns=0.0)
        got = graph.param_grads([group])[group]
        # a second record whose total has no momentum term at all
        other = self.graph(alpha_ns=0.0)
        tape, w = other.tape, LossWeights()
        total = (tape.constant(w.fluid_bdr) * other.losses["fluid_bdr"]
                 + tape.constant(w.fluid_init) * other.losses["fluid_init"])
        want = tape.backward_values(total, [group])[group]
        assert np.any(want != 0.0)
        assert got.tobytes() == want.tobytes()

    def test_ns_nodes_never_read(self):
        graph = self.graph(alpha_ns=0.0)
        clean = graph.param_grads(self.GROUPS)
        self.poison_ns(graph)
        poisoned = graph.param_grads(self.GROUPS)
        for group in self.GROUPS:
            assert np.all(np.isfinite(poisoned[group]))
            assert poisoned[group].tobytes() == clean[group].tobytes()

    def test_weighted_ns_nodes_are_read(self):
        # two records on the same draw and networks: only the one built at a
        # nonzero weight reads the momentum term in its backward pass
        for alpha_ns, read in ((0.0, False), (1e-3, True)):
            graph = self.graph(alpha_ns=alpha_ns)
            self.poison_ns(graph)
            poisoned = graph.param_grads(["u", "p"])
            for group in ("u", "p"):
                assert np.all(np.isfinite(poisoned[group])) != read


def full_replay(tape):
    """The values a replay that recomputes every non-input node gives,
    computed on a copy: the tape keeps its own, and each layer run gets a
    new array."""
    own = tape._vals
    tape._vals = list(own)
    try:
        for i, (op, args) in enumerate(zip(tape._ops, tape._args)):
            if op != ad._CONST:
                tape._vals[i] = tape._eval(i, op, args)
        return tape._vals
    finally:
        tape._vals = own


def assert_same_values(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), i


class TestIncrementalReplay:
    """A replay re-evaluates only what a changed parameter vector reaches;
    every stored value must still equal a full replay's and a record built
    from scratch at the new parameters."""

    @staticmethod
    def fluid_graph(u, p, d, alpha):
        return FluidLossGraph(NetworkFlow(u, p), NetworkDisplacement(d), tiny_samples(),
                              GEOM, FLUID, steady_factor, LossWeights(ns=alpha), EPS_R)

    @staticmethod
    def solid_graph(u, p, d):
        return SolidLossGraph(NetworkFlow(u, p), NetworkDisplacement(d), tiny_samples(),
                              GEOM, {RegionTag.WALL: WALL}, FLUID, LossWeights(), EPS_R)

    @pytest.mark.parametrize("changed", ["u", "p", "d"])
    def test_fluid_record_matches_fresh_build(self, changed):
        u, p, d = make_nets(seed=4)
        graph = self.fluid_graph(u, p, d, 1e-3)
        net = {"u": u, "p": p, "d": d}[changed]
        for step in range(2):
            net.theta += 1e-2 * np.random.default_rng(step).standard_normal(net.theta.size)
            graph.replay()
            assert_same_values(graph.tape._vals, full_replay(graph.tape))
            assert_same_values(graph.tape._vals, self.fluid_graph(u, p, d, 1e-3).tape._vals)

    @pytest.mark.parametrize("changed", ["u", "p", "d"])
    def test_solid_record_matches_fresh_build(self, changed):
        u, p, d = make_nets(seed=5)
        graph = self.solid_graph(u, p, d)
        net = {"u": u, "p": p, "d": d}[changed]
        for step in range(2):
            net.theta += 1e-2 * np.random.default_rng(step).standard_normal(net.theta.size)
            graph.replay()
            assert_same_values(graph.tape._vals, full_replay(graph.tape))
            assert_same_values(graph.tape._vals, self.solid_graph(u, p, d).tape._vals)

    @pytest.mark.parametrize("record", ["fluid", "solid"])
    def test_full_replay_computes_runs_into_new_arrays(self, record):
        # the comparisons above would pass trivially if the full replay
        # wrote over the tape's own arrays
        u, p, d = make_nets(seed=7)
        graph = (self.fluid_graph(u, p, d, 1e-3) if record == "fluid"
                 else self.solid_graph(u, p, d))
        tape = graph.tape
        held = list(tape._vals)
        runs = [i for i, op in enumerate(tape._ops) if op == ad._LAYERS]
        assert {len(tape._args[i][2]) for i in runs} == {1, d.depth}  # per-layer and whole reads
        got = full_replay(tape)
        assert all(tape._vals[i] is held[i] for i in range(len(held)))
        for i in runs:
            assert not any(np.shares_memory(got[i], v) for v in held
                           if isinstance(v, np.ndarray)), i
        assert_same_values(got, held)

    @pytest.mark.parametrize("record", ["fluid", "solid"])
    @pytest.mark.parametrize("changed", ["u", "p", "d"])
    def test_replay_keeps_each_layer_array(self, record, changed):
        # a replay writes each stale run's jet over the array it holds
        u, p, d = make_nets(seed=7)
        build = {"fluid": lambda: self.fluid_graph(u, p, d, 1e-3),
                 "solid": lambda: self.solid_graph(u, p, d)}[record]
        graph = build()
        tape = graph.tape
        runs = {i: tape._vals[i] for i, op in enumerate(tape._ops) if op == ad._LAYERS}
        assert runs
        net = {"u": u, "p": p, "d": d}[changed]
        net.theta += 1e-2 * np.random.default_rng(7).standard_normal(net.theta.size)
        graph.replay()
        for i, held in runs.items():
            assert tape._vals[i] is held, i
        assert_same_values(tape._vals, build().tape._vals)

    def test_activation_slopes_are_shared(self):
        # the residuals differentiate each network several times; no slope
        # is recorded: every layer run computes its activations'
        # derivatives from their own outputs, and no step or product reads
        # a layer
        u, p, d = make_nets(seed=6)
        tape = self.fluid_graph(u, p, d, alpha=1.0).tape
        ops = tape._ops
        layers = {i for i, op in enumerate(ops) if op == ad._LAYERS}
        assert layers
        for i, op in enumerate(ops):
            if op not in (ad._LAYERS, ad._SELECT):
                assert not layers.intersection(ad._operands(op, tape._args[i])), i

    @staticmethod
    def fsi_tape(record):
        """An fsi-shaped record (cylinder preset, depth 12) at a small n."""
        config = preset("cylinder")
        networks = build_networks(config, seed=1)
        flow = NetworkFlow(networks["u"], networks["p"])
        disp = NetworkDisplacement(networks["d"])
        samples = draw_samples(config.vessel_geometry(), 16, 16, 16, seed=1)
        if record == "fluid":
            graph = FluidLossGraph(flow, disp, samples, config.vessel_geometry(),
                                   config.fluid_properties(), config.inlet_factor(),
                                   LossWeights(ns=1.0), config.eps_r)
        else:
            graph = SolidLossGraph(flow, disp, samples, config.vessel_geometry(),
                                   config.wall_segments(), config.fluid_properties(),
                                   LossWeights(), config.eps_r)
        return graph.tape

    @pytest.mark.parametrize("record", ["fluid", "solid"])
    def test_no_node_is_recorded_twice(self, record):
        # no two non-input nodes compute the same op on the same operands
        tape = self.fsi_tape(record)
        keys = [(op, tape._args[i]) for i, op in enumerate(tape._ops)
                if op != ad._CONST]
        assert len(set(keys)) == len(keys)

    @staticmethod
    def jets_of(tape, derivatives=True):
        """Each network's per-layer reads as chains of one-layer runs, keyed
        by group: the reads that carry input derivatives, or those that
        carry values alone."""
        ops, args = tape._ops, tape._args
        chains = {}
        for i, op in enumerate(ops):
            if (op == ad._LAYERS and ops[args[i][0]] != ad._LAYERS
                    and len(args[i][2]) == 1 and bool(args[i][3]) == derivatives):
                chain, node = [i], i
                while True:
                    nxt = [j for j in range(node + 1, len(ops))
                           if ops[j] == ad._LAYERS and args[j][0] == node]
                    if not nxt:
                        break
                    (node,) = nxt
                    chain.append(node)
                chains.setdefault(args[i][1], []).append(chain)
        return chains

    # jets each record takes per trained network, as chains of one-layer
    # runs: the fluid record differentiates u at the interior and the
    # outlet and p at the interior; the solid record d at the wall and in
    # the interior
    JETS = {"fluid": {"u": 2, "p": 1}, "solid": {"d": 2}}
    # and the chains that read values alone, one per network: the fluid
    # record's u over the inlet, wall and initial points together, p at the
    # outlet; the solid record's d over the endpoints and the initial
    # points together
    VALUES = {"fluid": {"u": 1, "p": 1}, "solid": {"d": 1}}
    # reads of the networks a record does not train, each one run of
    # every layer:
    # the fluid record's d in the current frame of the interior, the
    # outlet and the joined value-only points, and along t at the wall;
    # the solid record's u and p at the wall
    FROZEN = {"fluid": {"d": 4}, "solid": {"u": 1, "p": 1}}

    @pytest.mark.parametrize("record", ["fluid", "solid"])
    def test_relu_tangent_stores_no_bare_product(self, record):
        # no bias-free or activation-free layer product is stored: every
        # derivative row of a layer is a row of that layer's run, one run
        # per layer per jet of a trained network, and a network the record
        # does not train stores no layer at all
        tape = self.fsi_tape(record)
        ops, args = tape._ops, tape._args
        chains = self.jets_of(tape)
        values = self.jets_of(tape, derivatives=False)
        assert {g: len(c) for g, c in chains.items()} == self.JETS[record]
        assert {g: len(c) for g, c in values.items()} == self.VALUES[record]
        one_layer = [i for i, op in enumerate(ops) if op == ad._LAYERS and len(args[i][2]) == 1]
        every = [chain for jets in (chains, values) for c in jets.values() for chain in c]
        assert sorted(i for chain in every for i in chain) == one_layer
        for chain in every:
            assert len(chain) == 12
            offsets = [args[i][2][0][0] for i in chain]
            assert offsets == sorted(offsets)
        whole = [i for i, op in enumerate(ops) if op == ad._LAYERS and len(args[i][2]) > 1]
        counts = {}
        for i in whole:
            assert len(args[i][2]) == 12 and ops[args[i][0]] != ad._LAYERS
            counts[args[i][1]] = counts.get(args[i][1], 0) + 1
        assert counts == self.FROZEN[record]
        assert not set(counts) & (set(chains) | set(values))

    @pytest.mark.parametrize("record", ["fluid", "solid"])
    def test_relu_layer_tangents_share_its_step(self, record):
        # every derivative of a relu layer, along any direction and of
        # either order, is in that layer's run, which reads its own step:
        # the record holds no step of a layer
        tape = self.fsi_tape(record)
        ops, args = tape._ops, tape._args
        layers = {i for i, op in enumerate(ops) if op == ad._LAYERS}
        assert not any(op == ad._STEP and args[i][0] in layers for i, op in enumerate(ops))
        relu_jets = [i for i in layers if [act for *_, act in args[i][2]] == ["relu"]]
        per_network = {}
        for derivatives in (True, False):
            for group, c in self.jets_of(tape, derivatives).items():
                per_network[group] = per_network.get(group, 0) + len(c)
        for group, jets in per_network.items():
            # depth 12: 5 relu layers per jet
            assert sum(args[i][1] == group for i in relu_jets) == 5 * jets


class TestFrozenReads:
    """Each loss record trains some networks and reads the others as frozen
    reads, which keep no layer values: its values and every parameter
    gradient equal those of the same record with every read kept."""

    @staticmethod
    def graph(kind, networks, samples, config):
        flow = NetworkFlow(networks["u"], networks["p"])
        disp = NetworkDisplacement(networks["d"])
        if kind == "fluid":
            return FluidLossGraph(flow, disp, samples, config.vessel_geometry(),
                                  config.fluid_properties(), config.inlet_factor(),
                                  LossWeights(ns=1.0, fluid_bdr=0.5), config.eps_r)
        return SolidLossGraph(flow, disp, samples, config.vessel_geometry(),
                              config.wall_segments(), config.fluid_properties(),
                              LossWeights(), config.eps_r)

    @pytest.mark.parametrize("kind", ["fluid", "solid"])
    def test_gradients_equal_those_with_every_read_kept(self, kind, monkeypatch):
        config = preset("cylinder")  # depth 12
        networks = build_networks(config, seed=2)
        samples = draw_samples(config.vessel_geometry(), 16, 16, 16, seed=2)
        frozen = self.graph(kind, networks, samples, config)
        owner = FluidLossGraph if kind == "fluid" else SolidLossGraph
        monkeypatch.setattr(owner, "trained", None)
        kept = self.graph(kind, networks, samples, config)
        def run_lengths(tape):
            return {len(a[2]) for op, a in zip(tape._ops, tape._args) if op == ad._LAYERS}

        assert run_lengths(frozen.tape) == {1, 12} and run_lengths(kept.tape) == {1}
        assert float(frozen.total.value) == float(kept.total.value)
        got = frozen.param_grads(["u", "p", "d"])
        want = kept.param_grads(["u", "p", "d"])
        for group in ("u", "p", "d"):
            assert got[group].tobytes() == want[group].tobytes(), group
        # the fluid record's d gradient runs through its frozen d reads; the
        # solid record reads u and p only as detached loads
        untrained = ("d",) if kind == "fluid" else ("u", "p")
        for group in untrained:
            assert np.any(got[group] != 0.0) == (kind == "fluid"), group

    def test_replay_after_untrained_change_equals_fresh_build(self):
        # the trainer's d steps change the fluid record's frozen reads
        config = preset("cylinder")
        networks = build_networks(config, seed=3)
        samples = draw_samples(config.vessel_geometry(), 16, 16, 16, seed=3)
        graph = self.graph("fluid", networks, samples, config)
        d = networks["d"]
        d.theta += 1e-2 * np.random.default_rng(3).standard_normal(d.theta.size)
        graph.replay()
        assert_same_values(graph.tape._vals, full_replay(graph.tape))
        assert_same_values(graph.tape._vals,
                           self.graph("fluid", networks, samples, config).tape._vals)


def record_mib(tape):
    """Bytes the values of a record hold, in MiB, a float node counting 8."""
    return sum(v.nbytes if isinstance(v, np.ndarray) else 8 for v in tape._vals) / 2**20


@pytest.mark.parametrize("record", ["fluid", "solid"])
def test_paper_scale_record_budget(record):
    # cylinder at n = 1000, depth 12: 19.6 and 16.5 MiB (50.0 and 49.5
    # with a tangent of a tangent through every layer, 28.1 and 22.4 with
    # the layer values of every network read kept)
    config = preset("cylinder")
    networks = build_networks(config, seed=1)
    samples = draw_samples(config.vessel_geometry(), 1000, 1000, 1000, seed=1)
    flow, disp = NetworkFlow(networks["u"], networks["p"]), NetworkDisplacement(networks["d"])
    if record == "fluid":
        graph = FluidLossGraph(flow, disp, samples, config.vessel_geometry(),
                               config.fluid_properties(), config.inlet_factor(),
                               LossWeights(ns=1e-7), config.eps_r)
    else:
        graph = SolidLossGraph(flow, disp, samples, config.vessel_geometry(),
                               config.wall_segments(), config.fluid_properties(),
                               config.loss_weights(), config.eps_r)
    assert record_mib(graph.tape) <= {"fluid": 22.0, "solid": 18.0}[record]


FD_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)


def directional_fd_error(graph, net, grad, rng):
    """Smallest relative error over FD_STEPS between `grad` (net's part of
    graph.param_grads) along a random unit direction and the central
    difference of graph.total along it. Large steps may cross relu kinks
    and small ones lose digits to rounding, so one good step suffices."""
    theta0 = net.theta.copy()
    direction = rng.standard_normal(theta0.size)
    direction /= np.linalg.norm(direction)
    analytic = float(grad @ direction)
    errors = []
    try:
        for h in FD_STEPS:
            net.theta[:] = theta0 + h * direction
            graph.replay()
            hi = float(graph.total.value)
            net.theta[:] = theta0 - h * direction
            graph.replay()
            lo = float(graph.total.value)
            numeric = (hi - lo) / (2.0 * h)
            errors.append(abs(numeric - analytic) / max(abs(analytic), abs(numeric)))
    finally:
        net.theta[:] = theta0
        graph.replay()
    return min(errors)


class TestLossGraphGradients:
    """Parameter gradients of whole loss graphs against central differences:
    the momentum residual holds second space-derivatives and the ring model
    second time-derivatives, so these are third-order paths through every
    network layer."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fluid_param_grads(self, seed):
        # _interface detaches the wall-velocity target d eta/dt by design, so
        # d's gradient is the derivative of the total only without the
        # boundary term: d is checked on a second graph that leaves it out.
        u, p, d = make_nets(seed=seed)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        networks = {"u": u, "p": p, "d": d}
        rng = np.random.default_rng(seed)
        for weights, checked in ((LossWeights(ns=1.0), ("u", "p")),
                                 (LossWeights(ns=1.0, fluid_bdr=0.0), ("d",))):
            graph = FluidLossGraph(flow, disp, tiny_samples(seed=seed), GEOM, FLUID,
                                   steady_factor, weights, EPS_R)
            grads = graph.param_grads(["u", "p", "d"])
            for group in checked:
                err = directional_fd_error(graph, networks[group], grads[group], rng)
                assert err < 1e-6, group

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solid_param_grads(self, seed):
        u, p, d = make_nets(seed=seed)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        graph = SolidLossGraph(flow, disp, tiny_samples(seed=seed), GEOM,
                               {RegionTag.WALL: WALL}, FLUID, LossWeights(), EPS_R)
        rng = np.random.default_rng(seed)
        assert directional_fd_error(graph, d, graph.param_grads(["d"])["d"], rng) < 1e-6


# Most of the wall on the plaque, so a small draw has points on and off it.
LONG_PLAQUE = VesselGeometry(plaque=PlaqueShape(long_radius=0.6, short_radius=0.1, center_z=1.0))
PLAQUE_WALL = WallProperties(density=1.1, youngs_modulus=1e6, poisson_ratio=0.5, thickness=0.05)
PLAQUE_MATERIALS = {RegionTag.WALL: WALL, RegionTag.WALL_PLAQUE: PLAQUE_WALL}
QUIET_FLOW = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0, lambda r, z, t: 0.0)


def dented(geometry, z):
    return reference_radius(geometry, z) < geometry.radius


class TestPlaqueWall:
    """The ring model on a plaqued wall reads each point's undeformed radius
    from z and records the plaque's points as their own batch."""

    @pytest.mark.parametrize("name", ["plaque-mild", "plaque-moderate"])
    def test_recorded_radius_is_reference_radius(self, name):
        # every plaque point of the preset's wall draw at seed 1: the solid
        # record holds the radius the sampler put it at, bit for bit
        config = preset(name)
        geometry = config.vessel_geometry()
        samples = draw_samples(geometry, 4, config.training.wall_points, 4, seed=1)
        u, p, d = make_nets()
        graph = SolidLossGraph(NetworkFlow(u, p), NetworkDisplacement(d), samples, geometry,
                               config.wall_segments(), FLUID, LossWeights(), EPS_R)
        z = samples.wall.z
        want = reference_radius(geometry, z[dented(geometry, z)])
        assert want.size > 100
        assert any(np.asarray(v).tobytes() == want.tobytes() for v in graph.tape._vals)

    def test_plaque_batch_reads_radius_from_z(self):
        # constant displacement c and no flow leave the restoring term
        # b(R_p(z)) c, at each point's dented radius without being told
        geometry = preset("plaque-moderate").vessel_geometry()
        wall = draw_samples(geometry, 4, 1000, 4, seed=1).wall
        on = dented(geometry, wall.z)
        c = 1e-3
        res = wall_residual(QUIET_FLOW, AnalyticDisplacement(lambda r, z, t: c),
                            (wall.r[on], wall.z[on], wall.t[on]), PLAQUE_WALL, geometry)
        want = PLAQUE_WALL.restoring_at_radius(reference_radius(geometry, wall.z[on])) * c
        assert res.value.tobytes() == want.tobytes()

    def test_batch_straddling_plaque_edge_refused(self):
        z = np.array([0.2, 1.0])
        point = (reference_radius(LONG_PLAQUE, z), z, np.array([0.3, 0.3]))
        with pytest.raises(PhysicsError):
            wall_residual(QUIET_FLOW, ZERO_DISP, point, WALL, LONG_PLAQUE)

    def test_stress_term_is_union_of_off_and_on_plaque_records(self):
        u, p, d = make_nets(seed=3)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = draw_samples(LONG_PLAQUE, 12, 16, 8, seed=3)
        graph = SolidLossGraph(flow, disp, samples, LONG_PLAQUE, PLAQUE_MATERIALS, FLUID,
                               LossWeights(), EPS_R)
        wall = samples.wall
        on = dented(LONG_PLAQUE, wall.z)
        assert 0 < on.sum() < len(wall)
        want = 0.0
        for mask, props in ((~on, WALL), (on, PLAQUE_WALL)):
            res = wall_residual(flow, disp, (wall.r[mask], wall.z[mask], wall.t[mask]),
                                props, LONG_PLAQUE)
            want += float(mask.sum()) * float(mean_square(res.tape, [res]).value)
        assert float(graph.losses["stress"].value) == want * (1.0 / len(wall))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plaque_solid_param_grads(self, seed):
        u, p, d = make_nets(seed=seed)
        samples = draw_samples(LONG_PLAQUE, 12, 16, 8, seed=seed)
        on = dented(LONG_PLAQUE, samples.wall.z)
        assert 0 < on.sum() < len(on)
        graph = SolidLossGraph(NetworkFlow(u, p), NetworkDisplacement(d), samples, LONG_PLAQUE,
                               PLAQUE_MATERIALS, FLUID, LossWeights(), EPS_R)
        rng = np.random.default_rng(seed)
        assert directional_fd_error(graph, d, graph.param_grads(["d"])["d"], rng) < 1e-6


def builder_mean(residual, sample_set, *args):
    """Mean square of a residual on a fresh record at a collocation set: the
    residual's components, or its one component."""
    tape, r, z, t = on_tape((sample_set.r, sample_set.z, sample_set.t))
    res = residual(tape, r, z, t, *args)
    return float(mean_square(tape, res if isinstance(res, tuple) else [res]).value)


def joined_on_tape(sets):
    """A fresh record with batches (r, z, t) over the union of collocation
    `sets`, in order, and the parts of a batch over it at each set."""
    tape, r, z, t = on_tape([np.concatenate([getattr(s, k) for s in sets]) for k in "rzt"])
    ends = np.cumsum([len(s) for s in sets]).tolist()
    parts = [lambda *xs, lo=lo, hi=hi: [tape.part(x, lo, hi) for x in xs]
             for lo, hi in zip([0] + ends[:-1], ends)]
    return (tape, r, z, t), parts


class TestRecordTerms:
    """Every term of a loss record is the mean square of its public
    residual on the same points, bit for bit: the records build their terms
    from the same functions the residual tests check, the value-only ones
    on one read over the union of their point sets."""

    def test_fluid_terms(self):
        u, p, d = make_nets(seed=8)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples(seed=8)
        graph = FluidLossGraph(flow, disp, samples, GEOM, FLUID, steady_factor,
                               LossWeights(ns=1e-3), EPS_R)
        assert float(graph.losses["ns"].value) == builder_mean(
            ns_residual_axisym, samples.interior, flow, disp, FLUID, EPS_R)

        (tape, r, z, t), (inlet, wall, init) = joined_on_tape(
            (samples.inlet, samples.wall, samples.interior_t0))
        r_t, u_z, u_r = current_velocity(tape, r, z, t, flow, disp)
        means = {
            "inlet": mean_square(tape, inlet_residual(
                tape, *inlet(t, r_t, u_z, u_r), GEOM, steady_factor)).value,
            "outlet": builder_mean(outlet_residual, samples.outlet, flow, disp, FLUID),
            "wall": mean_square(tape, interface_residual(
                tape, *wall(r, z, t, u_z, u_r), disp)).value,
        }
        want = 0.0
        for name, mean in means.items():
            want += float(len(getattr(samples, name))) * float(mean)
        size = sum(len(getattr(samples, name)) for name in means)
        assert float(graph.losses["fluid_bdr"].value) == want * (1.0 / size)
        assert float(graph.losses["fluid_init"].value) == float(
            mean_square(tape, init(u_z, u_r)).value)

        # each part of the joined read is the read of its set alone, up to
        # the last bits of a wider product
        def alone(sample_set):
            tape, r, z, t = on_tape((sample_set.r, sample_set.z, sample_set.t))
            return current_velocity(tape, r, z, t, flow, disp)

        for parts, sample_set in ((inlet, samples.inlet), (wall, samples.wall),
                                  (init, samples.interior_t0)):
            for got, want in zip(parts(r_t, u_z, u_r), alone(sample_set)):
                np.testing.assert_allclose(got.value, want.value, rtol=1e-13, atol=1e-15)

    def test_solid_terms(self):
        u, p, d = make_nets(seed=8)
        flow, disp = NetworkFlow(u, p), NetworkDisplacement(d)
        samples = tiny_samples(seed=8)
        graph = SolidLossGraph(flow, disp, samples, GEOM, {RegionTag.WALL: WALL}, FLUID,
                               LossWeights(), EPS_R)
        assert float(graph.losses["harmonic"].value) == builder_mean(
            harmonic_residual, samples.interior, disp, EPS_R)

        (tape, r, z, t), (ends, init) = joined_on_tape((samples.endpoints, samples.wall_t0))
        eta = disp.radial(tape, r, z, t).value
        assert float(graph.losses["solid_bdr"].value) == float(mean_square(tape, ends(eta)).value)
        assert float(graph.losses["solid_init"].value) == float(mean_square(tape, init(eta)).value)
