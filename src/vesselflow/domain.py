"""Reference geometry, collocation sampling and the near-axis clamp.

The axisymmetric vessel is described in a signed-radius meridian plane:
the physical annulus 0 <= rho <= R(z) at each axial station maps to the
strip -R(z) <= r <= R(z). Wall samples sit on both signed sides. The
radial unit direction at signed coordinate r points away from the axis,
so it is +1 for r >= 0 and -1 for r < 0.

The plaque is defined here only: `plaque_depth` is its one formula and
`plaque_slope` that formula's derivative along z, and a wall point is on
the plaque exactly where `reference_radius` is below R (`on_plaque`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad


class GeometryError(ValueError):
    """A geometry or sample request that cannot be met. For a rejected
    constant of a `VesselGeometry`, `field` names it and the message reads
    `field` then `rule`."""

    def __init__(self, rule: str, field: "str | None" = None):
        super().__init__(rule if field is None else f"{field} {rule}")
        self.rule = rule
        self.field = field


@dataclass(frozen=True)
class PlaqueShape:
    """Half-elliptical wall deposit bulging into the lumen."""

    long_radius: float   # cm, axial half-extent
    short_radius: float  # cm, radial protrusion
    center_z: float      # cm


@dataclass(frozen=True)
class VesselGeometry:
    """Straight reference vessel segment, CGS units."""

    radius: float = 0.25       # cm
    length: float = 2.0        # cm
    wall_thickness: float = 0.05  # cm
    horizon: float = 2.0       # s
    plaque: PlaqueShape | None = None

    def __post_init__(self):
        for name in ("radius", "length", "wall_thickness", "horizon"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"must be positive, got {getattr(self, name)!r}", name)
        p = self.plaque
        if p is not None:
            if not 0 < p.short_radius < self.radius:
                raise GeometryError(f"must lie inside the lumen, got {p.short_radius!r}",
                                    "plaque.short_radius")
            if p.long_radius <= 0:
                raise GeometryError(f"must be positive, got {p.long_radius!r}",
                                    "plaque.long_radius")
            if p.center_z - p.long_radius <= 0 or p.center_z + p.long_radius >= self.length:
                raise GeometryError("must keep the plaque strictly inside the segment, "
                                    f"got {p.center_z!r}", "plaque.center_z")


class RegionTag(Enum):
    FLUID_INTERIOR = "fluid_interior"
    WALL = "wall"              # whole interface; off-plaque wall material
    WALL_PLAQUE = "wall_plaque"  # on-plaque wall material
    INLET = "inlet"
    OUTLET = "outlet"
    WALL_ENDPOINTS = "wall_endpoints"


def plaque_depth(plaque: PlaqueShape, z):
    """Depth b sqrt(1 - ((z - c) / a)^2) of the plaque at axial positions z
    in its extent (a square rounded below 0 at an end reads as 0)."""
    offset = z - plaque.center_z
    ratio = (plaque.short_radius / plaque.long_radius) ** 2
    square = plaque.short_radius**2 - ratio * (offset * offset)
    return np.sqrt(np.maximum(square, 0.0))


def plaque_slope(plaque: PlaqueShape, z) -> np.ndarray:
    """Derivative of `plaque_depth` along z,
    -b (z - c) / (a^2 sqrt(1 - ((z - c) / a)^2)), written as
    -(b / a)^2 (z - c) / depth; 0 where the depth is 0 (off the plaque)."""
    z = np.asarray(z, dtype=np.float64)
    depth = plaque_depth(plaque, z)
    ratio = (plaque.short_radius / plaque.long_radius) ** 2
    dented = depth > 0.0
    return np.where(dented, -ratio * (z - plaque.center_z) / np.where(dented, depth, 1.0), 0.0)


def reference_radius(geometry: VesselGeometry, z) -> np.ndarray:
    """Lumen radius of the undeformed wall at axial positions z, shaped
    like z."""
    z = np.asarray(z, dtype=np.float64)
    p = geometry.plaque
    if p is None:
        return np.full_like(z, geometry.radius)
    inside = np.abs(z - p.center_z) <= p.long_radius
    return geometry.radius - np.where(inside, plaque_depth(p, z), 0.0)


def on_plaque(geometry: VesselGeometry, z) -> np.ndarray:
    """Whether the wall at axial positions z is dented by the plaque."""
    return reference_radius(geometry, z) < geometry.radius


@dataclass(frozen=True)
class SampleSet:
    """Collocation points of one region, reference coordinates, one time each."""

    r: np.ndarray
    z: np.ndarray
    t: np.ndarray

    def __len__(self):
        return len(self.r)


def sample(geometry: VesselGeometry, region: RegionTag, count: int, seed: int,
           at_initial_time: bool = False) -> SampleSet:
    """Uniform independent draws over a region, paired one-to-one with
    uniform times over [0, horizon] (or all zeros for initial-condition sets).

    Interior points are rejection-sampled from the bounding strip so they
    fall strictly inside the undeformed lumen even past a plaque."""
    if count <= 0:
        raise GeometryError("sample count must be positive")
    rng = np.random.default_rng(seed)
    r0, length = geometry.radius, geometry.length
    if region == RegionTag.FLUID_INTERIOR:
        rs = np.empty(count)
        zs = np.empty(count)
        filled = 0
        while filled < count:
            cand_r = rng.uniform(-r0, r0, size=2 * (count - filled))
            cand_z = rng.uniform(0.0, length, size=2 * (count - filled))
            keep = np.abs(cand_r) < reference_radius(geometry, cand_z)
            kept = min(int(keep.sum()), count - filled)
            idx = np.flatnonzero(keep)[:kept]
            rs[filled:filled + kept] = cand_r[idx]
            zs[filled:filled + kept] = cand_z[idx]
            filled += kept
    elif region == RegionTag.WALL:
        zs = rng.uniform(0.0, length, size=count)
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        rs = signs * reference_radius(geometry, zs)
    elif region == RegionTag.INLET:
        zs = np.zeros(count)
        rs = rng.uniform(-r0, r0, size=count)
    elif region == RegionTag.OUTLET:
        zs = np.full(count, length)
        rs = rng.uniform(-r0, r0, size=count)
    elif region == RegionTag.WALL_ENDPOINTS:
        corner = rng.integers(0, 4, size=count)
        rs = np.where(corner % 2 == 0, r0, -r0)
        zs = np.where(corner < 2, 0.0, length)
    else:
        raise GeometryError(f"unknown sampling region {region}")
    ts = np.zeros(count) if at_initial_time else rng.uniform(0.0, geometry.horizon, size=count)
    return SampleSet(rs, zs, ts)


def radial_direction(r) -> np.ndarray:
    """Outward unit direction along the signed radial coordinates r, shaped
    like r; +1 at r=0."""
    return np.where(np.asarray(r) >= 0.0, 1.0, -1.0)


def clamp_radius(r, eps_r: float):
    """Signed radius pushed away from the axis: |1/clamp| <= 1/eps_r.

    Equal to r when |r| >= eps_r. The sign at exactly 0 is taken as +1 so
    the clamp never returns 0. Works on numbers, arrays and recorded
    batches; for a recorded batch the sign is recorded as 1 - 2 step(-r), a
    function of r with zero derivative, so a replay that moves r (through
    the parameters it reads) takes the new sign."""
    if eps_r <= 0:
        raise GeometryError("eps_r must be positive")
    if isinstance(r, ad.DiffScalar):
        direction = 1.0 - 2.0 * ad.step(-r)
        return direction * (ad.relu(direction * r - eps_r) + eps_r)
    direction = radial_direction(r)
    return direction * (np.maximum(direction * r - eps_r, 0.0) + eps_r)
