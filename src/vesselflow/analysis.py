"""Post-processing: error metric, physical observables and field export.

Everything here treats trained networks as immutable functions accessed
through the same field adapters the residuals use. Reads that take no
derivative (`export_fields`, `probe`, `outlet_flux`) use the adapters'
plain `read`, so they build no record; their values are bitwise equal
to the recorded ones. `speed_field` still records, but trains no
network, so each of its network reads is one frozen read that keeps only
its output, not its layers.
Reference solutions are closed-form oracles or saved field files, never
a live solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .domain import VesselGeometry, radial_direction, reference_radius
from .physics import current_frame


class AnalysisError(ValueError):
    pass


# ----------------------------------------------------------------------
# evaluation grid and the relative error metric

@dataclass(frozen=True)
class EvaluationGrid:
    """Cell-centred (r, z) tiling of the reference fluid meridian with
    annular volume weights, plus a uniform time sampling."""

    r_centers: np.ndarray
    z_centers: np.ndarray
    volumes: np.ndarray      # flattened cell volumes, len n_r * n_z
    times: np.ndarray
    time_step: float

    @classmethod
    def build(cls, geometry: VesselGeometry, n_r: int = 64, n_z: int = 64,
              n_t: int = 50) -> "EvaluationGrid":
        if min(n_r, n_z, n_t) < 1:
            raise AnalysisError("grid resolutions must be positive")
        r_edges = np.linspace(0.0, geometry.radius, n_r + 1)
        z_edges = np.linspace(0.0, geometry.length, n_z + 1)
        r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
        z_mid = 0.5 * (z_edges[:-1] + z_edges[1:])
        dz = z_edges[1] - z_edges[0]
        ring = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2) * dz
        rr, zz = np.meshgrid(r_mid, z_mid, indexing="ij")
        vol = np.repeat(ring[:, None], n_z, axis=1)
        # drop cells whose centre lies outside a dented lumen
        inside = rr <= reference_radius(geometry, zz)
        time_step = geometry.horizon / n_t
        times = time_step * np.arange(1, n_t + 1)
        return cls(rr[inside], zz[inside], vol[inside], times, time_step)

    def __len__(self):
        return len(self.volumes)


def relative_error(field: Callable, reference: Callable, grid: EvaluationGrid) -> float:
    """Volume-weighted squared mismatch ratio, summed over time slices and
    scaled by the time step.

    `field` and `reference` map (r array, z array, t) to nodal values.
    Identical fields give exactly zero. A reference that vanishes on a
    whole slice is rejected."""
    total = 0.0
    for t in grid.times:
        got = np.asarray(field(grid.r_centers, grid.z_centers, t), dtype=np.float64)
        ref = np.asarray(reference(grid.r_centers, grid.z_centers, t), dtype=np.float64)
        num = float(np.sum(grid.volumes * (got - ref) ** 2))
        den = float(np.sum(grid.volumes * ref**2))
        if den == 0.0:
            raise AnalysisError(f"reference field vanishes on the slice t={t}")
        total += num / den
    return grid.time_step * total


# ----------------------------------------------------------------------
# closed-form oracles

def poiseuille_oracle(r, u_max: float, r0: float):
    """Axial velocity of the parabolic profile."""
    return u_max * (1.0 - np.asarray(r, dtype=np.float64) ** 2 / r0**2)


def pressure_drop_oracle(z, u_max: float, r0: float, mu: float):
    """Pressure relative to the inlet for fully developed tube flow."""
    return -4.0 * mu * u_max / r0**2 * np.asarray(z, dtype=np.float64)


# ----------------------------------------------------------------------
# observables

def outlet_flux(flow, displacement, t: float, geometry: VesselGeometry,
                n_quad: int = 256) -> float:
    """Volumetric flux through the current outlet section.

    Composite trapezoid in the squared-radius variable: with s = r^2 the
    integral is pi * int u_z(sqrt(s)) ds, so parabolic profiles integrate
    exactly and the annular area weighting is built into the substitution."""
    # the wall point as a one-row batch, as a record of it would be
    r_w, z_w, t_w = (np.array([v]) for v in (geometry.radius, geometry.length, float(t)))
    radius_now = float((reference_radius(geometry, z_w) + displacement.read(r_w, z_w, t_w))[0])
    s = np.linspace(0.0, radius_now**2, n_quad)
    u_z, _ = flow.read(np.sqrt(s), np.full(n_quad, geometry.length),
                       np.full(n_quad, t), pressure=False)
    integrand = np.pi * np.broadcast_to(
        np.asarray(u_z, dtype=np.float64), (n_quad,))
    return float(np.trapezoid(integrand, s))


@dataclass
class ProbeSeries:
    location: tuple[float, float]
    times: np.ndarray
    velocity_magnitude: np.ndarray
    pressure: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise AnalysisError("probe times must strictly increase")


def default_probes(geometry: VesselGeometry) -> list[tuple[float, float]]:
    """Centerline probes at the inlet, middle and outlet."""
    return [(0.0, 0.0), (0.0, geometry.length / 2.0), (0.0, geometry.length)]


def probe(points: Sequence[tuple], times: np.ndarray, flow, displacement) -> list[ProbeSeries]:
    """Field histories at the current-frame images of reference points."""
    times = np.asarray(times, dtype=np.float64)
    out = []
    for (r0_pt, z0_pt) in points:
        u_z, u_r, p, _ = _read_current(flow, displacement, np.full(len(times), r0_pt),
                                       np.full(len(times), z0_pt), times)
        speed = np.hypot(np.asarray(u_z, dtype=np.float64),
                         np.asarray(u_r, dtype=np.float64))
        out.append(ProbeSeries((r0_pt, z0_pt), times, speed,
                               np.asarray(p, dtype=np.float64) + np.zeros(len(times))))
    return out


def _read_current(flow, displacement, r, z, t):
    """(u_z, u_r, p, eta) at the current-frame images of reference points
    (r, z, t), with no record: the ALE shift is computed in the order
    `physics.current_frame` records it, so the values are bitwise equal."""
    eta = displacement.read(r, z, t)
    return (*flow.read(r + radial_direction(r) * eta, z, t), eta)


def speed_field(flow, displacement) -> Callable:
    """(r array, z array, t) -> velocity magnitude at the current-frame
    images of the reference points; one record per time slice."""

    # Still recorded, unlike `_read_current`: the benchmark's traced run
    # measures `autodiff.nodes.field` from this record, and retiring that
    # metric belongs with a change to the benchmark itself. The record
    # trains no network, so each network read is one frozen read that
    # keeps no layer values.
    def field(r_arr, z_arr, t):
        n = len(r_arr)
        tape = ad.Tape(trained=())
        r = tape.batch(r_arr)
        z = tape.batch(z_arr)
        tt = tape.batch(np.full(n, float(t)))
        r_t = current_frame(tape, r, z, tt, displacement)
        u_z, u_r = (u.value for u in flow.velocity(tape, r_t, z, tt))
        return np.hypot(np.broadcast_to(np.asarray(u_z.value, dtype=np.float64), (n,)),
                        np.broadcast_to(np.asarray(u_r.value, dtype=np.float64), (n,)))

    return field


# ----------------------------------------------------------------------
# exports

_EXPORT_BLOCK = 512  # rows formatted together by export_fields


def export_fields(path, flow, displacement, grid: EvaluationGrid) -> None:
    """Field snapshot CSV: one row per (t, cell centre).

    Each row is written as the ``repr`` of its cells joined by commas and
    ended with CRLF, which is what ``csv.writer`` emits for these cells."""
    n = len(grid.r_centers)
    cells = [f"{r!r},{z!r}" for r, z in zip(grid.r_centers.tolist(),
                                               grid.z_centers.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t_s,r_cm,z_cm,u_z_cm_per_s,u_r_cm_per_s,p_dyn_per_cm2,eta_cm\r\n")
        for t in grid.times:
            values = _read_current(flow, displacement, grid.r_centers, grid.z_centers,
                                   np.full(n, t))
            cols = [np.broadcast_to(np.asarray(c, dtype=np.float64), (n,)) for c in values]
            t_text = repr(float(t))
            # a block of rows at a time, so that the Python floats of a
            # whole slice never exist at once (1.4 MB at the default grid)
            for lo in range(0, n, _EXPORT_BLOCK):
                block = [col[lo:lo + _EXPORT_BLOCK].tolist() for col in cols]
                fh.writelines(f"{t_text},{rz},{a!r},{b!r},{c!r},{d!r}\r\n"
                              for rz, a, b, c, d in zip(cells[lo:lo + _EXPORT_BLOCK], *block))


def write_probe_csv(path, series: Sequence[ProbeSeries]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_cm", "z_cm", "t_s", "speed_cm_per_s", "p_dyn_per_cm2"])
        for s in series:
            for t, v, p in zip(s.times, s.velocity_magnitude, s.pressure):
                writer.writerow([repr(s.location[0]), repr(s.location[1]),
                                 repr(float(t)), repr(float(v)), repr(float(p))])


def write_flux_csv(path, flow, displacement, geometry: VesselGeometry,
                   times: np.ndarray, n_quad: int = 256) -> None:
    """Outlet flux over time plus its running cycle integral."""
    times = np.asarray(times, dtype=np.float64)
    series = np.array([outlet_flux(flow, displacement, t, geometry, n_quad)
                       for t in times])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "flux_cm3_per_s", "integrated_flux_cm3"])
        running = 0.0
        for k, t in enumerate(times):
            if k:
                running += 0.5 * (series[k] + series[k - 1]) * (times[k] - times[k - 1])
            writer.writerow([repr(float(t)), repr(float(series[k])), repr(float(running))])
