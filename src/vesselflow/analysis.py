"""Post-processing: error metric, physical observables and field export.

Everything here treats trained networks as immutable functions accessed
through the same field adapters the residuals use. Reads that take no
derivative (`export_fields`, `probe`, `outlet_flux`) use the adapters'
plain `read`, so they build no record; `FieldNetwork.evaluate` bounds
how many points a read takes through the layers at once, and each of
its blocks is bitwise equal to a recorded read of that block.
`outlet_flux` takes all its times at once: one read of the outlet wall
point at every time, then one read of every profile. `probe` keeps one
read per probe point: one read of all three default probes changed 5 of
150 rows of a train run's `probes.csv` in the last digit, since a matrix
product's last bits can depend on the batch width, and saved about 1 ms.
`speed_field` still records, but trains no network, so each of its
network reads is one layer run of the whole network, which keeps only
its output, not its layers; it records a slice in the plain read's
blocks of at most `nets.READ_BLOCK` points, one record per block, so
its speeds equal the plain read's bit for bit and its memory does not
grow with the grid.
Reference solutions are closed-form oracles or saved field files, never
a live solve.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad, nets
from .domain import VesselGeometry, radial_direction, reference_radius
from .physics import current_velocity


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
    def build(cls, geometry: VesselGeometry, n_r: int, n_z: int,
              n_t: int) -> "EvaluationGrid":
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


_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def _error_sums(volumes, got, ref) -> tuple:
    """The volume-weighted sums of (got - ref)^2 and ref^2, as floats;
    inf or nan where they overflow, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.sum(volumes * (got - ref) ** 2)),
                float(np.sum(volumes * ref**2)))


def relative_error(field: Callable, reference: Callable, grid: EvaluationGrid) -> float:
    """Volume-weighted squared mismatch ratio, summed over time slices and
    scaled by the time step.

    `field` and `reference` map (r array, z array, t) to nodal values.
    Identical fields give exactly zero. A slice whose fields hold a nan or
    an inf, whose ratio overflows, or whose reference is zero throughout
    is rejected. A slice whose sums overflow, or whose reference squares
    sum to a subnormal or zero (an underflow, if the reference is not
    zero), is summed again with both fields scaled by the power of two
    that brings the reference's largest magnitude into [0.5, 1): exact
    short of subnormals, so the ratio is the unscaled one without the
    overflow or underflow. Other slices are summed unscaled."""
    total = 0.0
    for t in grid.times:
        got = np.asarray(field(grid.r_centers, grid.z_centers, t), dtype=np.float64)
        ref = np.asarray(reference(grid.r_centers, grid.z_centers, t), dtype=np.float64)
        num, den = _error_sums(grid.volumes, got, ref)
        overflow = not (math.isfinite(num) and math.isfinite(den))
        if overflow and not (np.isfinite(got).all() and np.isfinite(ref).all()):
            raise AnalysisError(f"the error sums are not finite on the slice t={t}")
        if overflow or (den < _SMALLEST_NORMAL and np.any(ref)):
            shift = -math.frexp(float(np.max(np.abs(ref))))[1]
            with np.errstate(over="ignore"):
                num, den = _error_sums(grid.volumes, np.ldexp(got, shift), np.ldexp(ref, shift))
        if den == 0.0:
            raise AnalysisError(f"reference field vanishes on the slice t={t}")
        ratio = num / den
        if not math.isfinite(ratio):
            raise AnalysisError(f"the error ratio overflows on the slice t={t}")
        total += ratio
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

def outlet_flux(flow, displacement, times, geometry: VesselGeometry) -> np.ndarray:
    """Volumetric flux through the current outlet section at each of the
    1-d array `times`, in their order.

    Composite trapezoid in the squared-radius variable: with s = r^2 the
    integral is pi * int u_z(sqrt(s)) ds, so parabolic profiles integrate
    exactly and the annular area weighting is built into the substitution.
    The outlet wall point is read once at every time, and the profiles, of
    `_FLUX_NODES` nodes each, in one read of all times, integrated along
    their rows at once."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise AnalysisError("outlet_flux takes a 1-d array of times")
    z_w = np.full(len(times), geometry.length)
    radius_now = reference_radius(geometry, z_w) + displacement.read(
        np.full(len(times), geometry.radius), z_w, times)
    s = np.linspace(0.0, radius_now ** 2, _FLUX_NODES, axis=1)
    u_z, _ = flow.read(np.sqrt(s).ravel(), np.full(s.size, geometry.length),
                       np.repeat(times, _FLUX_NODES), pressure=False)
    integrand = np.pi * np.broadcast_to(
        np.asarray(u_z, dtype=np.float64), (s.size,)).reshape(s.shape)
    return np.trapezoid(integrand, s, axis=1)


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
    `physics.current_velocity` records it, so the values are bitwise equal
    to a recorded read's."""
    eta = displacement.read(r, z, t)
    return (*flow.read(r + radial_direction(r) * eta, z, t), eta)


def speed_field(flow, displacement) -> Callable:
    """(r array, z array, t) -> velocity magnitude at the current-frame
    images of the reference points; one record per block of at most
    `nets.READ_BLOCK` points of a time slice."""

    # Still recorded, unlike `_read_current`: the benchmark's traced run
    # measures `autodiff.nodes.field` from the last record, and retiring
    # that metric belongs with a change to the benchmark itself. The
    # record trains no network, so each network read is one layer run of
    # the whole network, which keeps no layer values. A block is the
    # plain read's, so the speeds equal `_read_current`'s bit for bit and
    # the layer arrays do not grow with the slice.
    def field(r_arr, z_arr, t):
        out = np.empty(len(r_arr))
        block = nets.READ_BLOCK
        for lo in range(0, len(r_arr), block):
            r, z = r_arr[lo:lo + block], z_arr[lo:lo + block]
            n = len(r)
            tape = ad.Tape(trained=())
            _, u_z, u_r = current_velocity(tape, tape.batch(r), tape.batch(z),
                                           tape.batch(np.full(n, float(t))), flow, displacement)
            np.hypot(np.broadcast_to(np.asarray(u_z.value, dtype=np.float64), (n,)),
                     np.broadcast_to(np.asarray(u_r.value, dtype=np.float64), (n,)),
                     out=out[lo:lo + block])
        return out

    return field


# ----------------------------------------------------------------------
# exports

_EXPORT_BLOCK = 512  # rows formatted together by export_fields
_FLUX_NODES = 256    # quadrature nodes of one outlet profile

# the field snapshot CSV's columns, which `export_fields` writes and
# `read_speed_reference` reads the first five of
FIELD_COLUMNS = ("t_s", "r_cm", "z_cm", "u_z_cm_per_s", "u_r_cm_per_s",
                 "p_dyn_per_cm2", "eta_cm")


def export_fields(path, flow, displacement, grid: EvaluationGrid) -> None:
    """Field snapshot CSV: one row per (t, cell centre).

    Each row is written as the ``repr`` of its cells joined by commas and
    ended with CRLF, which is what ``csv.writer`` emits for these cells.
    The rows of a block of `_EXPORT_BLOCK` cells are joined into one
    string and written with one ``write``; the ``t,`` text of a slice and
    the ``r,z,`` text of each cell are made once."""
    n = len(grid.r_centers)
    cells = [f"{r!r},{z!r}," for r, z in zip(grid.r_centers.tolist(),
                                               grid.z_centers.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FIELD_COLUMNS) + "\r\n")
        for t in grid.times:
            values = _read_current(flow, displacement, grid.r_centers, grid.z_centers,
                                   np.full(n, t))
            cols = [np.broadcast_to(np.asarray(c, dtype=np.float64), (n,)) for c in values]
            t_text = f"{float(t)!r},"
            # a block of rows at a time, so that the Python floats of a
            # whole slice never exist at once (1.4 MB at the default grid)
            for lo in range(0, n, _EXPORT_BLOCK):
                block = [col[lo:lo + _EXPORT_BLOCK].tolist() for col in cols]
                fh.write("".join([f"{t_text}{rz}{a!r},{b!r},{c!r},{d!r}\r\n"
                                  for rz, a, b, c, d in zip(cells[lo:lo + _EXPORT_BLOCK],
                                                            *block)]))


def _rounded_keys(values: np.ndarray) -> np.ndarray:
    """``round(v, 12)`` of each value, as Python rounds a float, computed
    once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([round(v, 12) for v in distinct.tolist()],
                    dtype=np.float64)[inverse.ravel()]


def _line_of_row(path, k: int) -> int:
    """The line on which the k-th row of a field snapshot CSV that is not
    blank ends, counting from 0 after the header."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _ in islice(filter(None, reader), k + 1):
            pass
        return reader.line_num


def read_speed_reference(path) -> Callable:
    """(r array, z array, t) -> velocity magnitude at the nodes of a field
    snapshot CSV written by `export_fields`. The columns are found by
    name in the header, whose last cell of a name counts, and blank lines
    are skipped, as ``csv.DictReader`` reads them.

    Each row's five numbers go to one float64 buffer, and each row's speed
    is taken there; the first row with a cell that is not finite, or whose
    speed overflows, is named by its line in the error. The nodes are keyed
    by (t, r, z), each rounded to 12 decimals as ``round`` rounds it, and
    sorted once by key with a stable sort; of rows with the same key the
    last one counts. A slice finds its nodes with ``searchsorted`` among
    the rows of its time and checks each for an exact match; the first
    node of the slice that is missing is named in the error."""
    columns = FIELD_COLUMNS[:5]
    buf = array("d")
    stop = None  # why the reading stopped early: the message after the path
    try:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = {name: i for i, name in enumerate(next(reader, ()))}
            missing = [c for c in columns if c not in header]
            if missing:
                raise AnalysisError(f"reference file {path} is missing columns: "
                                    f"{', '.join(missing)}")
            cells = map(itemgetter(*(header[c] for c in columns)), filter(None, reader))
            try:
                # one pass in C; it takes a row only when the last is
                # stored, so the reader stands at the row that raises
                buf.extend(map(float, chain.from_iterable(cells)))
            except UnicodeDecodeError:
                stop = " is not UTF-8 text"
            except (IndexError, ValueError):  # a short row, or a cell that is no number
                stop = f", line {reader.line_num}: a cell is not a number"
    except UnicodeDecodeError:
        raise AnalysisError(f"reference file {path} is not UTF-8 text")
    # the whole rows read; a row with a cell that is not finite or a speed
    # that overflows lies before the row that stopped the reading, if any,
    # so the first such row is the error to report
    rows = np.frombuffer(buf, dtype=np.float64)[:len(buf) - len(buf) % 5].reshape(-1, 5)
    with np.errstate(over="ignore"):
        speed = np.hypot(rows[:, 3], rows[:, 4])
    finite = np.isfinite(rows).all(axis=1)
    usable = finite & np.isfinite(speed)
    if not usable.all():
        k = int(np.argmin(usable))
        why = "a cell is not finite" if not finite[k] else "the speed overflows"
        raise AnalysisError(f"reference file {path}, line {_line_of_row(path, k)}: {why}")
    if stop is not None:
        raise AnalysisError(f"reference file {path}{stop}")

    t, r, z = (_rounded_keys(c) for c in rows.T[:3])
    # the distinct r and z keys, each closed by an inf that no key equals;
    # a node's (r, z) is one integer, ordered as the pairs are
    r_keys, z_keys = (np.append(np.unique(c), np.inf) for c in (r, z))
    node = np.searchsorted(r_keys, r) * len(z_keys) + np.searchsorted(z_keys, z)
    order = np.lexsort((node, t))
    t, node = t[order], node[order]
    last = np.ones(len(t), dtype=bool)  # the last row of each key
    last[:-1] = (t[1:] != t[:-1]) | (node[1:] != node[:-1])
    # closed by a -1 that no node equals, so a search past the last row
    # can be read
    t, node = t[last], np.append(node[last], -1)
    speed = speed[order][last]

    def field(r_arr, z_arr, t_value):
        t_key = round(float(t_value), 12)
        lo = int(np.searchsorted(t, t_key, side="left"))
        hi = int(np.searchsorted(t, t_key, side="right"))
        r_want, z_want = _rounded_keys(r_arr), _rounded_keys(z_arr)
        r_at, z_at = np.searchsorted(r_keys, r_want), np.searchsorted(z_keys, z_want)
        want = r_at * len(z_keys) + z_at
        at = lo + np.searchsorted(node[lo:hi], want)
        found = ((r_keys[r_at] == r_want) & (z_keys[z_at] == z_want)
                 & (at < hi) & (node[at] == want))
        if not found.all():
            k = int(np.argmin(found))  # the first node missing
            key = (t_key, round(float(r_arr[k]), 12), round(float(z_arr[k]), 12))
            raise AnalysisError(f"reference file has no node at {key}")
        return speed[at]

    return field


def write_probe_csv(path, series: Sequence[ProbeSeries]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_cm", "z_cm", "t_s", "speed_cm_per_s", "p_dyn_per_cm2"])
        for s in series:
            for t, v, p in zip(s.times, s.velocity_magnitude, s.pressure):
                writer.writerow([repr(s.location[0]), repr(s.location[1]),
                                 repr(float(t)), repr(float(v)), repr(float(p))])


def write_flux_csv(path, flow, displacement, geometry: VesselGeometry,
                   times: np.ndarray) -> None:
    """Outlet flux over time plus its running cycle integral."""
    times = np.asarray(times, dtype=np.float64)
    series = outlet_flux(flow, displacement, times, geometry)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "flux_cm3_per_s", "integrated_flux_cm3"])
        running = 0.0
        for k, t in enumerate(times):
            if k:
                running += 0.5 * (series[k] + series[k - 1]) * (times[k] - times[k - 1])
            writer.writerow([repr(float(t)), repr(float(series[k])), repr(float(running))])
