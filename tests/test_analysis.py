"""Error metric, flux quadrature, traction and probes against hand values."""

import csv

import numpy as np
import pytest

from vesselflow import autodiff as ad, nets
from vesselflow.analysis import (
    AnalysisError, EvaluationGrid, ProbeSeries, _read_current, default_probes,
    export_fields, outlet_flux, poiseuille_oracle, pressure_drop_oracle, probe,
    relative_error, speed_field, traction_norm, write_flux_csv, write_probe_csv,
)
from vesselflow.domain import VesselGeometry, reference_radius
from vesselflow.physics import (
    AnalyticFlow, FluidProperties, NetworkDisplacement, NetworkFlow, ZeroDisplacement,
    current_frame,
)

GEOM = VesselGeometry()
FLUID = FluidProperties()
U_MAX, R0 = 20.0, 0.25
ZERO_DISP = ZeroDisplacement()


def poiseuille_flow():
    return AnalyticFlow(
        lambda r, z, t: U_MAX * (1.0 - (r * r) * (1.0 / R0**2)),
        lambda r, z, t: 0.0,
        lambda r, z, t: 0.0,
    )


def recorded_fields(flow, displacement, r, z, t):
    """u_z, u_r, p and eta as the record computes them: current_frame,
    then velocity_pressure."""
    tape = ad.Tape()
    r_t, z_t, t_p, eta = current_frame(tape, tape.batch(r), tape.batch(z), tape.batch(t),
                                       displacement)
    return [*(v.value for v in flow.velocity_pressure(tape, r_t, z_t, t_p)), eta.value]


def export_fields_csv_writer(path, flow, displacement, grid):
    """Reference export: the recorded read, written by csv.writer over the
    repr of each cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "r_cm", "z_cm", "u_z_cm_per_s", "u_r_cm_per_s",
                         "p_dyn_per_cm2", "eta_cm"])
        n = len(grid.r_centers)
        for t in grid.times:
            cols = [np.broadcast_to(np.asarray(c, dtype=np.float64), (n,))
                    for c in recorded_fields(flow, displacement, grid.r_centers,
                                             grid.z_centers, np.full(n, t))]
            for k in range(n):
                writer.writerow([repr(float(t)), repr(float(grid.r_centers[k])),
                                 repr(float(grid.z_centers[k])),
                                 repr(float(cols[0][k])), repr(float(cols[1][k])),
                                 repr(float(cols[2][k])), repr(float(cols[3][k]))])


class TestEvaluationGrid:
    def test_volumes_tile_the_cylinder(self):
        grid = EvaluationGrid.build(GEOM, n_r=32, n_z=16, n_t=5)
        want = np.pi * R0**2 * GEOM.length
        assert np.sum(grid.volumes) == pytest.approx(want, rel=1e-12)
        assert np.all(grid.volumes > 0)

    def test_time_sampling(self):
        grid = EvaluationGrid.build(GEOM, n_t=50)
        assert grid.time_step == pytest.approx(GEOM.horizon / 50)
        assert len(grid.times) == 50
        assert grid.times[-1] == pytest.approx(GEOM.horizon)


class TestRelativeError:
    def test_identical_fields_give_zero(self):
        grid = EvaluationGrid.build(GEOM, n_r=8, n_z=8, n_t=3)

        def f(r, z, t):
            return 1.0 + r + z * t

        assert relative_error(f, f, grid) == 0.0

    def test_two_cell_hand_case(self):
        # Brute-force oracle on a two-cell, one-time grid.
        grid = EvaluationGrid(
            r_centers=np.array([0.1, 0.2]), z_centers=np.array([0.5, 0.5]),
            volumes=np.array([2.0, 3.0]), times=np.array([1.0]), time_step=0.25,
        )
        got = relative_error(lambda r, z, t: np.array([1.0, 2.0]),
                             lambda r, z, t: np.array([2.0, 4.0]), grid)
        want = 0.25 * (2.0 * 1.0 + 3.0 * 4.0) / (2.0 * 4.0 + 3.0 * 16.0)
        assert got == pytest.approx(want, rel=1e-15)

    def test_uniform_cells_reduce_to_plain_ratio(self):
        rng = np.random.default_rng(0)
        n = 40
        grid = EvaluationGrid(
            r_centers=rng.uniform(0.01, R0, n), z_centers=rng.uniform(0, 2, n),
            volumes=np.full(n, 0.37), times=np.array([0.5, 1.0]), time_step=0.5,
        )
        a = rng.normal(size=n)
        b = rng.normal(size=n) + 3.0
        got = relative_error(lambda r, z, t: a, lambda r, z, t: b, grid)
        want = 0.5 * 2 * np.sum((a - b) ** 2) / np.sum(b**2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_vanishing_reference_slice_rejected(self):
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with pytest.raises(AnalysisError):
            relative_error(lambda r, z, t: r, lambda r, z, t: 0.0 * r, grid)

    def test_nonnegative(self):
        grid = EvaluationGrid.build(GEOM, n_r=6, n_z=6, n_t=2)
        got = relative_error(lambda r, z, t: r + t, lambda r, z, t: 1.0 + 0 * r, grid)
        assert got > 0


class TestTraction:
    def test_static_pressure_gives_pressure_magnitude(self):
        p0 = 250.0
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0,
                            lambda r, z, t: p0)
        got = traction_norm(flow, (R0, 1.0, 0.1), (1.0, 0.0), FLUID)
        assert got == pytest.approx(p0, rel=1e-12)

    def test_poiseuille_wall_shear(self):
        # |sigma . n| at the wall with zero pressure: mu |du_z/dr| = 2 mu u_max / r0
        got = traction_norm(poiseuille_flow(), (R0, 1.0, 0.0), (1.0, 0.0), FLUID)
        want = 2.0 * FLUID.viscosity * U_MAX / R0
        assert got == pytest.approx(want, rel=1e-12)

    def test_viscosity_scales_viscous_part(self):
        thick = FluidProperties(density=1.025, viscosity=2 * FLUID.viscosity)
        a = traction_norm(poiseuille_flow(), (R0, 1.0, 0.0), (1.0, 0.0), FLUID)
        b = traction_norm(poiseuille_flow(), (R0, 1.0, 0.0), (1.0, 0.0), thick)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_normal_sign_flip_invariant(self):
        flow = poiseuille_flow()
        a = traction_norm(flow, (R0, 0.5, 0.0), (1.0, 0.2), FLUID)
        b = traction_norm(flow, (R0, 0.5, 0.0), (-1.0, -0.2), FLUID)
        assert a == pytest.approx(b, rel=1e-15)

    def test_zero_normal_rejected(self):
        with pytest.raises(AnalysisError):
            traction_norm(poiseuille_flow(), (R0, 0.5, 0.0), (0.0, 0.0), FLUID)


class TestOutletFlux:
    def test_rest_flow(self):
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        assert outlet_flux(flow, ZERO_DISP, 0.5, GEOM) == 0.0

    def test_poiseuille_flux_analytic_value(self):
        # integral of u_max (1 - r^2/r0^2) 2 pi r dr = pi u_max r0^2 / 2;
        # the squared-radius rule integrates the parabola exactly
        got = outlet_flux(poiseuille_flow(), ZERO_DISP, 0.1, GEOM)
        assert got == pytest.approx(0.625 * np.pi, rel=1e-12)

    def test_plug_flow(self):
        c = 7.0
        flow = AnalyticFlow(lambda r, z, t: c, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        got = outlet_flux(flow, ZERO_DISP, 0.1, GEOM)
        assert got == pytest.approx(c * np.pi * R0**2, rel=1e-12)

    def test_quadrature_convergence(self):
        a = outlet_flux(poiseuille_flow(), ZERO_DISP, 0.1, GEOM, n_quad=256)
        b = outlet_flux(poiseuille_flow(), ZERO_DISP, 0.1, GEOM, n_quad=512)
        assert abs(b - a) / abs(b) < 1e-6

    def test_cycle_integral(self, tmp_path):
        # the last running integral of the flux export is the cycle's volume
        c = 2.0
        flow = AnalyticFlow(lambda r, z, t: c, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        times = np.linspace(0, 1, 11)
        path = tmp_path / "flux.csv"
        write_flux_csv(path, flow, ZERO_DISP, GEOM, times)
        got = float(path.read_text().strip().splitlines()[-1].split(",")[2])
        assert got == pytest.approx(c * np.pi * R0**2 * 1.0, rel=1e-12)


class TestOracles:
    def test_poiseuille_centerline(self):
        assert poiseuille_oracle(0.0, U_MAX, R0) == U_MAX

    def test_poiseuille_wall(self):
        assert poiseuille_oracle(R0, U_MAX, R0) == 0.0

    def test_poiseuille_half_radius(self):
        assert poiseuille_oracle(R0 / 2, U_MAX, R0) == pytest.approx(0.75 * U_MAX)

    def test_pressure_drop_slope(self):
        dz = 0.3
        drop = pressure_drop_oracle(dz, U_MAX, R0, FLUID.viscosity)
        assert drop == pytest.approx(-4 * FLUID.viscosity * U_MAX / R0**2 * dz)


class TestProbe:
    def test_rest_state_zeros(self):
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        series = probe(default_probes(GEOM), np.linspace(0.01, 2, 5), flow, ZERO_DISP)
        assert len(series) == 3
        for s in series:
            assert np.all(s.velocity_magnitude == 0.0)
            assert np.all(s.pressure == 0.0)

    def test_default_probe_locations(self):
        assert default_probes(GEOM) == [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]

    def test_zero_displacement_keeps_coordinates(self):
        flow = AnalyticFlow(lambda r, z, t: z, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        series = probe([(0.0, 1.5)], np.array([0.2, 0.4]), flow, ZERO_DISP)
        assert series[0].velocity_magnitude == pytest.approx([1.5, 1.5])

    def test_non_monotone_times_rejected(self):
        with pytest.raises(AnalysisError):
            ProbeSeries((0, 0), np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))


class TestExports:
    def test_field_export_schema(self, tmp_path):
        grid = EvaluationGrid.build(GEOM, n_r=3, n_z=3, n_t=2)
        path = tmp_path / "fields.csv"
        export_fields(path, poiseuille_flow(), ZERO_DISP, grid)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_s,r_cm,z_cm,u_z_cm_per_s,u_r_cm_per_s,p_dyn_per_cm2,eta_cm"
        assert len(lines) == 1 + 2 * 9

    def test_field_export_matches_csv_writer(self, tmp_path):
        """The hand-joined rows are byte-identical to csv.writer over the
        repr of each cell."""
        flow = AnalyticFlow(
            lambda r, z, t: U_MAX * (1.0 - (r * r) * (1.0 / R0**2)),
            lambda r, z, t: -1e-7 * r * z,
            lambda r, z, t: 100.0 - 3e5 * z * t,
        )
        grid = EvaluationGrid.build(GEOM, n_r=24, n_z=24, n_t=2)  # rows span two blocks
        path = tmp_path / "fields.csv"
        export_fields(path, flow, ZERO_DISP, grid)

        reference = tmp_path / "reference.csv"
        export_fields_csv_writer(reference, flow, ZERO_DISP, grid)
        assert path.read_bytes() == reference.read_bytes()

    def test_probe_export(self, tmp_path):
        flow = poiseuille_flow()
        series = probe([(0.0, 1.0)], np.array([0.1, 0.2]), flow, ZERO_DISP)
        path = tmp_path / "probes.csv"
        write_probe_csv(path, series)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r_cm,z_cm,t_s,speed_cm_per_s,p_dyn_per_cm2"
        assert len(lines) == 3

    def test_flux_export(self, tmp_path):
        path = tmp_path / "flux.csv"
        write_flux_csv(path, poiseuille_flow(), ZERO_DISP, GEOM,
                       np.array([0.0, 0.5, 1.0]), n_quad=64)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_s,flux_cm3_per_s,integrated_flux_cm3"
        assert len(lines) == 4
        last = float(lines[-1].split(",")[2])
        assert last == pytest.approx(0.625 * np.pi * 1.0, rel=1e-3)


def network_adapters(wall):
    """Small untrained u, p (and d) networks; the "moving" wall's
    displacement network is not zeroed, so the ALE shift moves points."""
    flow = NetworkFlow(nets.build(4, 8, 3, 2, seed=1, name="u"),
                       nets.build(4, 6, 3, 1, seed=2, name="p"))
    if wall == "rigid":
        return flow, ZERO_DISP
    return flow, NetworkDisplacement(nets.build(4, 8, 3, 1, seed=3, name="d"))


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def recorded_flux(flow, displacement, t, geometry, n_quad=256):
    """outlet_flux with the wall displacement read from scalar leaves and
    the profile from a recorded batch."""
    tape = ad.Tape()
    eta = displacement.radial(tape, tape.scalar(geometry.radius),
                              tape.scalar(geometry.length), tape.scalar(t))
    s = np.linspace(0.0, (reference_radius(geometry, geometry.length) + float(eta.value)) ** 2,
                    n_quad)
    tape = ad.Tape()
    u_z, _ = flow.velocity(tape, tape.batch(np.sqrt(s)),
                           tape.batch(np.full(n_quad, geometry.length)),
                           tape.batch(np.full(n_quad, t)))
    return float(np.trapezoid(np.pi * u_z.value, s))


@pytest.mark.parametrize("wall", ["rigid", "moving"])
class TestPlainReads:
    """export_fields, probe and the outlet flux read network fields without
    a record, bit for bit equal to the recorded read."""

    def test_no_record_is_built(self, tmp_path, monkeypatch, wall):
        flow, disp = network_adapters(wall)
        made = []

        class CountingTape(ad.Tape):
            def __init__(self):
                made.append(1)
                super().__init__()

        monkeypatch.setattr(ad, "Tape", CountingTape)
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        export_fields(tmp_path / "fields.csv", flow, disp, grid)
        probe(default_probes(GEOM), np.array([0.5, 1.0]), flow, disp)
        write_flux_csv(tmp_path / "flux.csv", flow, disp, GEOM, np.array([0.5, 1.0]))
        assert made == []

    def test_export_matches_record(self, tmp_path, wall):
        flow, disp = network_adapters(wall)
        grid = EvaluationGrid.build(GEOM, n_r=24, n_z=24, n_t=2)
        path, reference = tmp_path / "fields.csv", tmp_path / "reference.csv"
        export_fields(path, flow, disp, grid)
        export_fields_csv_writer(reference, flow, disp, grid)
        assert path.read_bytes() == reference.read_bytes()

    def test_probe_matches_record(self, wall):
        flow, disp = network_adapters(wall)
        times = np.linspace(0.1, 2.0, 7)
        points = [(0.0, 0.0), (-0.2, 0.7), (0.1, 2.0)]
        for (r0, z0), got in zip(points, probe(points, times, flow, disp)):
            u_z, u_r, p, _ = recorded_fields(flow, disp, np.full(7, r0), np.full(7, z0), times)
            assert same_bits(got.velocity_magnitude, np.hypot(u_z, u_r))
            assert same_bits(got.pressure, p)

    def test_outlet_flux_matches_record(self, wall):
        flow, disp = network_adapters(wall)
        for t in (0.0, 0.3, 1.7):
            if wall == "moving":
                assert disp.read(GEOM.radius, GEOM.length, t) != 0.0
            assert same_bits(outlet_flux(flow, disp, t, GEOM), recorded_flux(flow, disp, t, GEOM))

    def test_recorded_speed_field_matches_plain_read(self, wall):
        flow, disp = network_adapters(wall)
        grid = EvaluationGrid.build(GEOM, n_r=16, n_z=16, n_t=2)
        field = speed_field(flow, disp)
        for t in grid.times:
            u_z, u_r, _, _ = _read_current(flow, disp, grid.r_centers, grid.z_centers,
                                           np.full(len(grid), t))
            assert same_bits(field(grid.r_centers, grid.z_centers, t), np.hypot(u_z, u_r))
