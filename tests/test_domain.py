"""Geometry, sampling and coordinate-map behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselflow import autodiff as ad
from vesselflow import domain
from vesselflow.domain import (
    PlaqueShape, RegionTag, VesselGeometry, clamp_radius,
    radial_direction, reference_radius, sample,
)
from vesselflow.physics import AnalyticDisplacement, current_frame

CYLINDER = VesselGeometry()
PLAQUED = VesselGeometry(plaque=PlaqueShape(long_radius=0.15, short_radius=0.1, center_z=1.0))


class TestReferenceRadius:
    def test_no_plaque_constant(self):
        for z in (0.0, 0.7, 2.0):
            assert reference_radius(CYLINDER, z) == 0.25

    def test_plaque_apex(self):
        assert reference_radius(PLAQUED, 1.0) == pytest.approx(0.15)

    def test_ellipse_endpoint(self):
        assert reference_radius(PLAQUED, 1.0 + 0.15) == pytest.approx(0.25)

    def test_continuity_at_ellipse_edges(self):
        for edge in (1.0 - 0.15, 1.0 + 0.15):
            left = reference_radius(PLAQUED, edge - 1e-13)
            right = reference_radius(PLAQUED, edge + 1e-13)
            assert abs(left - right) < 1e-6

    def test_exact_value_at_ellipse_endpoint(self):
        # Geometry chosen with exactly representable binary fractions so the
        # endpoint lands exactly on the ellipse boundary.
        g = VesselGeometry(radius=0.5, length=2.0,
                           plaque=PlaqueShape(long_radius=0.25, short_radius=0.125, center_z=1.0))
        for edge in (0.75, 1.25):
            assert abs(reference_radius(g, edge) - 0.5) < 1e-12

    def test_vectorized(self):
        zs = np.array([0.0, 1.0, 2.0])
        out = reference_radius(PLAQUED, zs)
        assert out == pytest.approx([0.25, 0.15, 0.25])


class TestPlaqueSlope:
    def test_matches_central_difference_of_reference_radius(self):
        z = np.linspace(0.86, 1.14, 57)  # inside the plaque, edges excluded
        h = 1e-6
        fd = (reference_radius(PLAQUED, z + h) - reference_radius(PLAQUED, z - h)) / (2 * h)
        np.testing.assert_allclose(-domain.plaque_slope(PLAQUED.plaque, z), fd,
                                   rtol=1e-7, atol=1e-8)

    def test_closed_form(self):
        # -b (z - c) / (a^2 sqrt(1 - ((z - c) / a)^2)) with a = 0.15, b = 0.1
        z = np.array([0.9, 1.0, 1.1])
        s = (z - 1.0) / 0.15
        want = -0.1 * (z - 1.0) / (0.15**2 * np.sqrt(1.0 - s * s))
        np.testing.assert_allclose(domain.plaque_slope(PLAQUED.plaque, z), want, rtol=1e-14)

    def test_zero_off_the_plaque(self):
        # exactly representable ends, as in test_exact_value_at_ellipse_endpoint
        plaque = PlaqueShape(long_radius=0.25, short_radius=0.125, center_z=1.0)
        z = np.array([0.0, 0.5, 0.75, 1.25, 1.5, 2.0])
        assert domain.plaque_slope(plaque, z).tolist() == [0.0] * 6


class TestGeometryValidation:
    def test_plaque_taller_than_lumen_rejected(self):
        with pytest.raises(domain.GeometryError):
            VesselGeometry(plaque=PlaqueShape(0.15, 0.3, 1.0))

    def test_plaque_outside_segment_rejected(self):
        with pytest.raises(domain.GeometryError):
            VesselGeometry(plaque=PlaqueShape(0.15, 0.1, 0.1))

    def test_negative_radius_rejected(self):
        with pytest.raises(domain.GeometryError):
            VesselGeometry(radius=-1.0)


class TestSampling:
    def test_inlet_points_on_inlet_plane(self):
        s = sample(CYLINDER, RegionTag.INLET, 50, seed=0)
        assert np.all(s.z == 0.0)
        assert np.all(np.abs(s.r) <= 0.25)

    def test_outlet_points_on_outlet_plane(self):
        s = sample(CYLINDER, RegionTag.OUTLET, 50, seed=0)
        assert np.all(s.z == 2.0)

    def test_interior_rejects_plaque_region(self):
        # Oracle: rejection boundary from the dented reference radius.
        s = sample(PLAQUED, RegionTag.FLUID_INTERIOR, 400, seed=7)
        bound = reference_radius(PLAQUED, s.z)
        assert np.all(np.abs(s.r) < bound)

    def test_interior_strictly_inside_straight_tube(self):
        s = sample(CYLINDER, RegionTag.FLUID_INTERIOR, 400, seed=3)
        assert np.all(np.abs(s.r) < 0.25)
        assert np.all((s.z >= 0) & (s.z <= 2.0))

    def test_same_seed_reproduces_points(self):
        a = sample(PLAQUED, RegionTag.FLUID_INTERIOR, 100, seed=11)
        b = sample(PLAQUED, RegionTag.FLUID_INTERIOR, 100, seed=11)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.t, b.t)

    def test_wall_points_sit_on_wall_both_sides(self):
        s = sample(PLAQUED, RegionTag.WALL, 200, seed=5)
        assert np.allclose(np.abs(s.r), reference_radius(PLAQUED, s.z))
        assert (s.r > 0).any() and (s.r < 0).any()

    def test_wall_points_on_plaque_are_dented(self):
        # a wall point is on the plaque exactly where the reference radius is
        # below R, which is strictly inside the plaque's axial extent
        s = sample(PLAQUED, RegionTag.WALL, 300, seed=5)
        on = domain.on_plaque(PLAQUED, s.z)
        assert np.array_equal(on, reference_radius(PLAQUED, s.z) < PLAQUED.radius)
        assert np.array_equal(on, np.abs(s.r) < PLAQUED.radius)
        assert np.array_equal(on, np.abs(s.z - 1.0) < 0.15)
        assert on.any() and not on.all()

    def test_endpoints_at_corner_circles(self):
        s = sample(CYLINDER, RegionTag.WALL_ENDPOINTS, 64, seed=2)
        assert set(np.round(np.abs(s.r), 12)) == {0.25}
        assert set(s.z) <= {0.0, 2.0}

    def test_initial_time_slice(self):
        s = sample(CYLINDER, RegionTag.FLUID_INTERIOR, 20, seed=1, at_initial_time=True)
        assert np.all(s.t == 0.0)

    def test_times_within_horizon(self):
        s = sample(CYLINDER, RegionTag.WALL, 100, seed=1)
        assert np.all((s.t >= 0) & (s.t <= 2.0))

    def test_bad_count_rejected(self):
        with pytest.raises(domain.GeometryError):
            sample(CYLINDER, RegionTag.INLET, 0, seed=0)


class TestAleMap:
    """`physics.current_frame`, the map from reference to current
    coordinates that every residual and field read goes through."""

    @staticmethod
    def current(r, z, t, eta):
        tape = ad.Tape()
        leaves = [tape.batch(np.asarray(v, dtype=np.float64)) for v in (r, z, t)]
        r_t = current_frame(tape, *leaves, AnalyticDisplacement(lambda *_: eta))
        return r_t.value, leaves[1].value

    def test_zero_displacement_is_identity(self):
        s = sample(CYLINDER, RegionTag.FLUID_INTERIOR, 50, seed=0)
        r_t, z_t = self.current(s.r, s.z, s.t, 0.0)
        assert np.array_equal(r_t, s.r) and np.array_equal(z_t, s.z)

    def test_outward_on_positive_side(self):
        r_t, z_t = self.current([0.25], [1.0], [0.5], 0.01)
        assert (r_t[0], z_t[0]) == (0.26, 1.0)

    def test_outward_on_negative_side(self):
        r_t, z_t = self.current([-0.25], [1.0], [0.5], 0.01)
        assert (r_t[0], z_t[0]) == (-0.26, 1.0)


class TestClampRadius:
    def test_outside_band_unchanged(self):
        assert clamp_radius(0.1, 0.0025) == 0.1

    def test_small_positive_clamped(self):
        assert clamp_radius(0.001, 0.0025) == 0.0025

    def test_small_negative_clamped(self):
        assert clamp_radius(-0.001, 0.0025) == -0.0025

    def test_axis_maps_to_positive_band(self):
        assert clamp_radius(0.0, 0.0025) == 0.0025

    @given(st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_symmetry(self, r):
        eps = 0.0025
        assert clamp_radius(-r, eps) == -clamp_radius(r, eps)

    def test_bound_holds(self):
        rs = np.linspace(-0.2, 0.2, 1001)
        eps = 0.0025
        clamped = np.array([clamp_radius(r, eps) for r in rs])
        assert np.all(np.abs(1.0 / clamped) <= 1.0 / eps + 1e-12)

    def test_recorded_variant_matches(self):
        from vesselflow import autodiff as ad

        tape = ad.Tape()
        for r in (-0.1, -0.001, 0.0, 0.002, 0.3):
            node = tape.batch([r])
            assert clamp_radius(node, 0.0025).value.item() == clamp_radius(r, 0.0025)

    def test_recorded_sign_follows_replay(self):
        # r is read through a 1x1 layer whose weight flips sign, as the
        # current-frame radius follows the displacement parameters
        from vesselflow import autodiff as ad

        tape = ad.Tape()
        theta = np.array([1.0])
        tape.register_params("w", theta)
        row = tape.stack([tape.batch([0.3, -0.2, 0.001, 0.0])])
        r = tape.select(tape.layers(row, "w", [(0, (1, 1), None, None)]), 0, 0)
        clamped = clamp_radius(r, 0.0025)
        theta[0] = -1.0
        tape.replay()
        moved = [-0.3, 0.2, -0.001, 0.0]
        assert r.value.tolist() == moved
        assert clamped.value.tolist() == [clamp_radius(v, 0.0025) for v in moved]

    def test_direction_at_zero_is_positive(self):
        assert radial_direction(0.0) == 1.0
