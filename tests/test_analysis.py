"""Error metric, flux quadrature and probes against hand values."""

import csv
import re
import warnings

import numpy as np
import pytest

from vesselflow import autodiff as ad, nets
from vesselflow.analysis import (
    AnalysisError, EvaluationGrid, ProbeSeries, _read_current, default_probes,
    export_fields, outlet_flux, poiseuille_oracle, pressure_drop_oracle, probe,
    relative_error, speed_field, write_flux_csv, write_probe_csv,
)
from vesselflow.domain import PlaqueShape, VesselGeometry, reference_radius
from vesselflow.physics import (
    AnalyticFlow, FluidProperties, NetworkDisplacement, NetworkFlow, ZeroDisplacement,
    current_frame,
)

GEOM = VesselGeometry()
PLAQUED = VesselGeometry(plaque=PlaqueShape(long_radius=0.15, short_radius=0.1,
                                              center_z=1.0))
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
    then velocity and pressure."""
    tape = ad.Tape()
    r, z, t = tape.batch(r), tape.batch(z), tape.batch(t)
    r_t = current_frame(tape, r, z, t, displacement)
    eta = displacement.radial(tape, r, z, t).value
    jets = (*flow.velocity(tape, r_t, z, t), flow.pressure(tape, r_t, z, t))
    return [v.value for v in (*(jet.value for jet in jets), eta)]


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
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=50)
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

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_reference_named_as_vanishing(self, zero):
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with pytest.raises(AnalysisError,
                           match=re.escape(f"vanishes on the slice t={grid.times[0]}")):
            relative_error(lambda r, z, t: r, lambda r, z, t: zero * r, grid)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_reference_whose_squares_underflow(self, scale):
        # the squares of both fields underflow to subnormals or to 0:
        # the ratio is the one at scale 1, not a vanishing reference
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(lambda r, z, t: (1.1 + r) * scale,
                                 lambda r, z, t: (1.0 + r) * scale, grid)
        want = relative_error(lambda r, z, t: 1.1 + r, lambda r, z, t: 1.0 + r, grid)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_reference_whose_squares_overflow(self, scale):
        # the squares of both fields overflow: the ratio is the one at
        # scale 1, not an error
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(lambda r, z, t: (1.1 + r) * scale,
                                 lambda r, z, t: (1.0 + r) * scale, grid)
        want = relative_error(lambda r, z, t: 1.1 + r, lambda r, z, t: 1.0 + r, grid)
        assert got == pytest.approx(want, rel=1e-12)

    def test_field_against_a_reference_whose_squares_overflow(self):
        # r is below half an ulp of 1e200, so each slice's ratio is 1
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(lambda r, z, t: r, lambda r, z, t: 1e200 + 0 * r, grid)
        assert got == grid.time_step * 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_field_that_is_not_finite_rejected(self, bad, scale):
        # a nan or an inf on one cell is not rescaled away, whether or not
        # the reference's squares overflow
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)

        def field(r, z, t):
            out = (1.1 + r) * scale
            out[3] = bad
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError,
                               match=re.escape(f"not finite on the slice t={grid.times[0]}")):
                relative_error(field, lambda r, z, t: (1.0 + r) * scale, grid)

    def test_ratio_that_overflows_after_rescaling_rejected(self):
        # the field's squares overflow, the reference's do not: rescaled to
        # the reference, the ratio is still beyond the largest float
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError,
                               match=re.escape(f"ratio overflows on the slice t={grid.times[0]}")):
                relative_error(lambda r, z, t: 1e200 + 0 * r, lambda r, z, t: 1.0 + r, grid)

    def test_ratio_that_overflows_rejected(self):
        # a reference so small that its squares are subnormal: finite sums
        # whose ratio is inf
        grid = EvaluationGrid.build(GEOM, n_r=4, n_z=4, n_t=2)
        with pytest.raises(AnalysisError,
                           match=re.escape(f"ratio overflows on the slice t={grid.times[0]}")):
            relative_error(lambda r, z, t: 1.0 + 0 * r, lambda r, z, t: 1e-155 + 0 * r, grid)

    def test_nonnegative(self):
        grid = EvaluationGrid.build(GEOM, n_r=6, n_z=6, n_t=2)
        got = relative_error(lambda r, z, t: r + t, lambda r, z, t: 1.0 + 0 * r, grid)
        assert got > 0


class TestOutletFlux:
    # seven times: with 256 nodes a profile, they are read as blocks of 4 + 3 times
    TIMES = np.linspace(0.1, 2.0, 7)

    def test_rest_flow(self):
        flow = AnalyticFlow(lambda r, z, t: 0.0, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        assert np.all(outlet_flux(flow, ZERO_DISP, np.array([0.5]), GEOM) == 0.0)

    def test_poiseuille_flux_analytic_value(self):
        # integral of u_max (1 - r^2/r0^2) 2 pi r dr = pi u_max r0^2 / 2;
        # the squared-radius rule integrates the parabola exactly
        got = outlet_flux(poiseuille_flow(), ZERO_DISP, self.TIMES, GEOM)
        assert got == pytest.approx(np.full(7, 0.625 * np.pi), rel=1e-12)

    def test_plug_flow(self):
        c = 7.0
        flow = AnalyticFlow(lambda r, z, t: c, lambda r, z, t: 0.0,
                            lambda r, z, t: 0.0)
        got = outlet_flux(flow, ZERO_DISP, self.TIMES, GEOM)
        assert got == pytest.approx(np.full(7, c * np.pi * R0**2), rel=1e-12)

    def test_fluxes_follow_the_order_of_times(self):
        # a plug whose speed grows with t, read at unsorted times over 4 + 3 blocks
        flow = AnalyticFlow(lambda r, z, t: 3.0 * (1.0 + t) + 0.0 * r,
                            lambda r, z, t: 0.0, lambda r, z, t: 0.0)
        times = np.array([1.5, 0.2, 0.9, 2.0, 0.0, 1.1, 0.4])
        got = outlet_flux(flow, ZERO_DISP, times, GEOM)
        assert got == pytest.approx(3.0 * (1.0 + times) * np.pi * R0**2, rel=1e-12)

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
                       np.array([0.0, 0.5, 1.0]))
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


def recorded_flux(flow, displacement, times, geometry):
    """outlet_flux, whose profiles have 256 nodes, with the wall
    displacement read from one recorded batch of every time, and the
    profiles of all times from one recorded batch per block of
    `nets.READ_BLOCK` points, so that the products are those of the plain
    read's blocks."""
    n_quad = 256
    tape = ad.Tape()
    z_w = np.full(len(times), geometry.length)
    eta = displacement.radial(tape, tape.batch(np.full(len(times), geometry.radius)),
                              tape.batch(z_w), tape.batch(times)).value
    radius = reference_radius(geometry, z_w) + eta.value
    s = np.stack([np.linspace(0.0, r**2, n_quad) for r in radius])
    r_all, t_all = np.sqrt(s).ravel(), np.repeat(times, n_quad)
    u_z = []
    for lo in range(0, s.size, nets.READ_BLOCK):
        block = slice(lo, lo + nets.READ_BLOCK)
        tape = ad.Tape()
        u, _ = flow.velocity(tape, tape.batch(r_all[block]),
                             tape.batch(np.full(len(r_all[block]), geometry.length)),
                             tape.batch(t_all[block]))
        u_z.extend(u.value.value)
    return np.trapezoid(np.pi * np.reshape(u_z, s.shape), s, axis=1)


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

    # the plaque grid drops 62 of 36 x 36 cells, so its 1,234 cells make
    # two whole blocks of `_EXPORT_BLOCK` rows and a short last block
    @pytest.mark.parametrize("geometry, cells", [(GEOM, 24), (PLAQUED, 36)],
                             ids=["cylinder", "plaque"])
    def test_export_matches_record(self, tmp_path, wall, geometry, cells):
        flow, disp = network_adapters(wall)
        grid = EvaluationGrid.build(geometry, n_r=cells, n_z=cells, n_t=2)
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

    def test_outlet_flux_matches_record(self, monkeypatch, wall):
        flow, disp = network_adapters(wall)
        times = np.array([0.0, 0.3, 1.7, 0.9, 2.0, 0.55, 1.2])
        if wall == "moving":
            assert np.all(disp.read(np.full(7, GEOM.radius), np.full(7, GEOM.length),
                                    times) != 0.0)
        read, sizes = flow.read, []
        monkeypatch.setattr(flow, "read", lambda r, z, t, pressure=True: (
            sizes.append(len(r)) or read(r, z, t, pressure)))
        # blocks smaller than the seven profiles, which cut through a profile
        monkeypatch.setattr(nets, "READ_BLOCK", 640)
        got = outlet_flux(flow, disp, times, GEOM)
        assert sizes == [7 * 256]
        assert same_bits(got, recorded_flux(flow, disp, times, GEOM))

    def test_speed_field_reads_in_blocks(self, monkeypatch, wall):
        # 256 cells in blocks of 100: two whole blocks and a remainder of 56,
        # each one record with the nodes of a whole slice's (a rigid wall
        # reads no displacement network), bit for bit the plain read's blocks
        flow, disp = network_adapters(wall)
        made = []

        class KeptTape(ad.Tape):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                made.append(self)

        monkeypatch.setattr(ad, "Tape", KeptTape)  # the plain read builds none
        monkeypatch.setattr(nets, "READ_BLOCK", 100)
        grid = EvaluationGrid.build(GEOM, n_r=16, n_z=16, n_t=2)
        assert len(grid) == 256
        field = speed_field(flow, disp)
        for t in grid.times:
            u_z, u_r, _, _ = _read_current(flow, disp, grid.r_centers, grid.z_centers,
                                           np.full(len(grid), t))
            assert same_bits(field(grid.r_centers, grid.z_centers, t), np.hypot(u_z, u_r))
        assert [len(tape) for tape in made] == [{"rigid": 11, "moving": 13}[wall]] * 6

    def test_recorded_speed_field_matches_plain_read(self, wall):
        flow, disp = network_adapters(wall)
        grid = EvaluationGrid.build(GEOM, n_r=16, n_z=16, n_t=2)
        field = speed_field(flow, disp)
        for t in grid.times:
            u_z, u_r, _, _ = _read_current(flow, disp, grid.r_centers, grid.z_centers,
                                           np.full(len(grid), t))
            assert same_bits(field(grid.r_centers, grid.z_centers, t), np.hypot(u_z, u_r))
