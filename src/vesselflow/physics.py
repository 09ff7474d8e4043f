"""PDE residuals, boundary/initial functionals and weighted loss assembly.

All residuals are written against field adapters, so the same code path
serves trained networks and closed-form manufactured fields. Velocity
and pressure are functions of current-frame coordinates; those
coordinates are produced by displacing reference points radially. The
time fed to the flow fields is a separate leaf carrying the same value
as the reference time, which makes its derivative the current-frame
partial rather than a material derivative.

Derivative bookkeeping at a point uses three independent roots: the
displaced radius node, a fresh axial leaf and the duplicated time leaf.
Reading derivatives at the displaced radius treats it as an independent
coordinate, as the moving-frame equations require, while its value keeps
the recorded dependence on the displacement parameters so those still
steer where the fields are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .domain import (
    RegionTag, SampleSet, VesselGeometry, clamp_radius, radial_direction, WALL_SUBTAGS,
)


class PhysicsError(ValueError):
    pass


# ----------------------------------------------------------------------
# material properties and loss bookkeeping

@dataclass(frozen=True)
class FluidProperties:
    density: float = 1.025   # g/cm^3
    viscosity: float = 0.035  # poise

    def __post_init__(self):
        if self.density <= 0 or self.viscosity <= 0:
            raise PhysicsError("fluid density and viscosity must be positive")


@dataclass(frozen=True)
class WallProperties:
    density: float = 1.2               # g/cm^3
    youngs_modulus: float = 0.5e6      # dyn/cm^2
    poisson_ratio: float = 0.5
    thickness: float = 0.05            # cm

    def __post_init__(self):
        if abs(self.poisson_ratio) >= 1.0:
            raise PhysicsError("poisson ratio magnitude must be below 1")
        if min(self.density, self.youngs_modulus, self.thickness) <= 0:
            raise PhysicsError("wall material constants must be positive")

    def restoring_at_radius(self, radius) -> "float | np.ndarray":
        """Ring-model restoring coefficient E / (rho (1 - xi^2) radius^2), in
        1/s^2, at an undeformed wall radius."""
        return self.youngs_modulus / (
            self.density * (1.0 - self.poisson_ratio**2) * radius**2
        )


@dataclass(frozen=True)
class LossWeights:
    ns: float = 0.0
    fluid_bdr: float = 1.0
    fluid_init: float = 0.1
    stress: float = 1.0
    harmonic: float = 10.0
    solid_bdr: float = 0.1
    solid_init: float = 0.01

    def __post_init__(self):
        for name in ("ns", "fluid_bdr", "fluid_init", "stress", "harmonic",
                     "solid_bdr", "solid_init"):
            if getattr(self, name) < 0:
                raise PhysicsError(f"loss weight {name} must be non-negative")


@dataclass
class LossBreakdown:
    """Per-term residual values plus the weighted totals, each read from
    the loss record that computed it."""

    ns: float = np.nan
    fluid_bdr: float = np.nan
    fluid_init: float = np.nan
    stress: float = np.nan
    harmonic: float = np.nan
    solid_bdr: float = np.nan
    solid_init: float = np.nan
    fluid_total: float = np.nan
    solid_total: float = np.nan


# ----------------------------------------------------------------------
# field adapters

class NetworkFlow:
    """Velocity/pressure fields read from the two flow networks. Callers
    that need no pressure use `velocity`, which records no pressure network.

    Every adapter also has `read`, the same fields as plain values at
    points given as arrays (a batch) or floats (one point), bitwise equal
    to what its recorded methods compute there, with no record."""

    def __init__(self, velocity_net, pressure_net):
        self.velocity_net = velocity_net
        self.pressure_net = pressure_net

    def velocity(self, tape, r, z, t):
        u_z, u_r = self.velocity_net.forward(tape, [r, z, t])
        return u_z, u_r

    def velocity_pressure(self, tape, r, z, t):
        u_z, u_r = self.velocity(tape, r, z, t)
        (p,) = self.pressure_net.forward(tape, [r, z, t])
        return u_z, u_r, p

    def read(self, r, z, t, pressure: bool = True):
        """(u_z, u_r, p), or (u_z, u_r) without `pressure`, which then
        evaluates no pressure network."""
        u_z, u_r = _read_network(self.velocity_net, r, z, t)
        if not pressure:
            return u_z, u_r
        (p,) = _read_network(self.pressure_net, r, z, t)
        return u_z, u_r, p


class AnalyticFlow:
    """Closed-form substitute fields for residual verification."""

    def __init__(self, u_z: Callable, u_r: Callable, pressure: Callable):
        self.u_z = u_z
        self.u_r = u_r
        self.pressure = pressure

    def velocity(self, tape, r, z, t):
        return _ensure(tape, self.u_z(r, z, t)), _ensure(tape, self.u_r(r, z, t))

    def velocity_pressure(self, tape, r, z, t):
        return (*self.velocity(tape, r, z, t), _ensure(tape, self.pressure(r, z, t)))

    def read(self, r, z, t, pressure: bool = True):
        u_z, u_r = self.u_z(r, z, t), self.u_r(r, z, t)
        return (u_z, u_r, self.pressure(r, z, t)) if pressure else (u_z, u_r)


class NetworkDisplacement:
    def __init__(self, displacement_net):
        self.displacement_net = displacement_net

    def radial(self, tape, r, z, t):
        (eta,) = self.displacement_net.forward(tape, [r, z, t])
        return eta

    def read(self, r, z, t):
        (eta,) = _read_network(self.displacement_net, r, z, t)
        return eta


class AnalyticDisplacement:
    def __init__(self, eta: Callable):
        self.eta = eta

    def radial(self, tape, r, z, t):
        return _ensure(tape, self.eta(r, z, t))

    def read(self, r, z, t):
        return self.eta(r, z, t)


class ZeroDisplacement:
    def radial(self, tape, r, z, t):
        return tape.constant(0.0)

    def read(self, r, z, t):
        return 0.0


def _read_network(net, r, z, t):
    """Plain outputs of `net` at (r, z, t), stacked into rows as
    `FieldNetwork.forward` stacks its inputs: arrays give an (n, 3) batch
    and floats a 1-d row, the layout of the record's scalar leaves, so the
    products are the same products."""
    return tuple(net.evaluate(np.stack(np.broadcast_arrays(r, z, t), axis=-1)).T)


def _ensure(tape, v):
    if isinstance(v, ad.DiffScalar):
        return v
    if isinstance(v, np.ndarray):
        return tape.batch_constant(v)
    return tape.constant(float(v))


def _fresh_copy(tape, leaf: ad.DiffScalar) -> ad.DiffScalar:
    """Independent leaf carrying the same value (the duplicated-time trick)."""
    v = leaf.value
    return tape.batch(v) if isinstance(v, np.ndarray) else tape.scalar(v)


def _direction_node(tape, r: ad.DiffScalar):
    d = radial_direction(r.value)
    return tape.batch_constant(d) if isinstance(d, np.ndarray) else tape.constant(d)


def current_frame(tape, r, z, t, displacement):
    """Displaced coordinates plus the duplicated time leaf.

    Returns (r_t, z_t, t_prime, eta): r_t carries the displacement
    dependence; z_t and t_prime are independent leaves so derivatives at
    them are current-frame partials."""
    eta = displacement.radial(tape, r, z, t)
    r_t = r + _direction_node(tape, r) * eta
    z_t = _fresh_copy(tape, z)
    t_prime = _fresh_copy(tape, t)
    return r_t, z_t, t_prime, eta


# ----------------------------------------------------------------------
# residual builders (shared by per-point operations and loss graphs)

def _axisym_ns(tape, r, z, t, flow, displacement, fluid: FluidProperties, eps_r):
    r_t, z_t, t_p, _ = current_frame(tape, r, z, t, displacement)
    u_z, u_r, p = flow.velocity_pressure(tape, r_t, z_t, t_p)
    duz_dr, duz_dz, duz_dt = tape.grad(u_z, [r_t, z_t, t_p])
    dur_dr, dur_dz, dur_dt = tape.grad(u_r, [r_t, z_t, t_p])
    dp_dr, dp_dz = tape.grad(p, [r_t, z_t])
    d2uz_drr = tape.grad(duz_dr, [r_t])[0]
    d2uz_dzz = tape.grad(duz_dz, [z_t])[0]
    d2ur_drr = tape.grad(dur_dr, [r_t])[0]
    d2ur_dzz = tape.grad(dur_dz, [z_t])[0]
    r_prime = clamp_radius(r_t, eps_r)
    rho, mu = fluid.density, fluid.viscosity
    res_z = (rho * duz_dt + rho * (u_r * duz_dr + u_z * duz_dz) + dp_dz
             - mu * (duz_dr / r_prime + d2uz_drr + d2uz_dzz))
    res_r = (rho * dur_dt + rho * (u_r * dur_dr + u_z * dur_dz) + dp_dr
             - mu * (dur_dr / r_prime + d2ur_drr + d2ur_dzz
                     - u_r / (r_prime * r_prime)))
    res_div = u_r / r_prime + dur_dr + duz_dz
    return res_z, res_r, res_div


def ns_residual_axisym(flow, displacement, point, fluid: FluidProperties,
                       eps_r: float):
    """Axisymmetric momentum and mass residuals at one reference point
    (or a lockstep batch of points). Returns (res_z, res_r, res_div)."""
    tape = ad.Tape()
    r, z, t = _point_leaves(tape, point)
    return _axisym_ns(tape, r, z, t, flow, displacement, fluid, eps_r)


def _harmonic(tape, r, z, t, displacement, eps_r):
    eta = displacement.radial(tape, r, z, t)
    deta_dr, deta_dz = tape.grad(eta, [r, z])
    d2_rr = tape.grad(deta_dr, [r])[0]
    d2_zz = tape.grad(deta_dz, [z])[0]
    r_prime = clamp_radius(r, eps_r)
    return deta_dr / r_prime + d2_rr + d2_zz


def harmonic_residual(displacement, point, eps_r: float):
    """Axisymmetric Laplacian of the radial displacement extension,
    evaluated in reference coordinates."""
    tape = ad.Tape()
    r, z, t = _point_leaves(tape, point)
    return _harmonic(tape, r, z, t, displacement, eps_r)


def _radius_expr(tape, geometry: VesselGeometry, z, segment: RegionTag):
    """Undeformed wall radius as a recorded function of the axial leaf."""
    p = geometry.plaque
    if p is None or segment not in (RegionTag.WALL_PLAQUE,):
        return _ensure(tape, np.full_like(np.asarray(z.value, dtype=np.float64),
                                          geometry.radius)
                       if isinstance(z.value, np.ndarray) else geometry.radius)
    ratio = p.short_radius**2 / p.long_radius**2
    offset = z - p.center_z
    return geometry.radius - ad.sqrt(p.short_radius**2 - ratio * offset * offset)


def _stress_continuity(tape, z, t, direction, segment, flow, displacement,
                       geometry, wall: WallProperties, fluid: FluidProperties,
                       detach_fluid: bool):
    radius0 = _radius_expr(tape, geometry, z, segment)
    r_w = direction * radius0
    eta = displacement.radial(tape, r_w, z, t)
    deta_dt = tape.grad(eta, [t])[0]
    d2eta_dtt = tape.grad(deta_dt, [t])[0]
    radius = radius0 + eta
    dradius_dz = tape.grad(radius, [z])[0]
    stretch = ad.sqrt(1.0 + dradius_dz * dradius_dz)
    ratio = radius / radius0

    r_t = direction * radius
    z_t = _fresh_copy(tape, z)
    t_p = _fresh_copy(tape, t)
    u_z, u_r, p = flow.velocity_pressure(tape, r_t, z_t, t_p)
    duz_dr, duz_dz = tape.grad(u_z, [r_t, z_t])
    dur_dr, dur_dz = tape.grad(u_r, [r_t, z_t])
    # ((grad u + grad u^T) . n) . e_r for the outward normal of the current
    # wall curve; the signed-direction factors cancel pairwise.
    shear = (2.0 * dur_dr - (dur_dz + duz_dr) * dradius_dz) / stretch
    if detach_fluid:
        p = tape.detach(p)
        shear = tape.detach(shear)
    load = (ratio * p - ratio * stretch * fluid.viscosity * shear) \
        / (wall.density * wall.thickness)

    restoring = wall.restoring_at_radius(
        np.asarray(radius0.value, dtype=np.float64)
        if isinstance(radius0.value, np.ndarray) else radius0.value
    )
    b_node = _ensure(tape, restoring)
    return d2eta_dtt + b_node * eta - load


def stress_continuity_residual(flow, displacement, point, wall: WallProperties,
                               fluid: FluidProperties, geometry: VesselGeometry,
                               segment: RegionTag = RegionTag.WALL,
                               detach_fluid: bool = True):
    """Ring-model residual at a wall point: radial acceleration plus the
    elastic restoring force minus the fluid load. Fluid quantities inside
    the load enter as constants when `detach_fluid` is set (solid-problem
    assembly)."""
    tape = ad.Tape()
    r, z, t = _point_leaves(tape, point)
    direction = _direction_node(tape, r)
    return _stress_continuity(tape, z, t, direction, segment, flow,
                              displacement, geometry, wall, fluid, detach_fluid)


def _inlet(tape, r, z, t, flow, displacement, geometry, inlet_factor):
    r_t, z_t, t_p, _ = current_frame(tape, r, z, t, displacement)
    u_z, u_r = flow.velocity(tape, r_t, z_t, t_p)
    factor = inlet_factor(np.asarray(t.value, dtype=np.float64))
    profile = 1.0 - (r_t * r_t) * (1.0 / geometry.radius**2)
    target = _ensure(tape, factor if isinstance(t.value, np.ndarray) else float(factor)) * profile
    return u_z - target, u_r


def _outlet(tape, r, z, t, flow, displacement, fluid):
    r_t, z_t, t_p, _ = current_frame(tape, r, z, t, displacement)
    u_z, u_r, p = flow.velocity_pressure(tape, r_t, z_t, t_p)
    duz_dr, duz_dz = tape.grad(u_z, [r_t, z_t])
    dur_dz = tape.grad(u_r, [z_t])[0]
    mu = fluid.viscosity
    # traction on the plane with outward normal +z
    res_r = mu * (dur_dz + duz_dr)
    res_z = 2.0 * mu * duz_dz - p
    return res_r, res_z


def _interface(tape, r, z, t, flow, displacement, detach_target: bool):
    eta = displacement.radial(tape, r, z, t)
    deta_dt = tape.grad(eta, [t])[0]
    if detach_target:
        deta_dt = tape.detach(deta_dt)
    direction = _direction_node(tape, r)
    r_t = r + direction * eta
    z_t = _fresh_copy(tape, z)
    t_p = _fresh_copy(tape, t)
    u_z, u_r = flow.velocity(tape, r_t, z_t, t_p)
    return u_r - direction * deta_dt, u_z


def fluid_bc_residual(flow, displacement, point, tag: RegionTag,
                      geometry: VesselGeometry, fluid: FluidProperties,
                      inlet_factor: Callable, detach_interface_target: bool = True):
    """Boundary residual components for an inlet, outlet or interface point."""
    tape = ad.Tape()
    r, z, t = _point_leaves(tape, point)
    if tag == RegionTag.INLET:
        return _inlet(tape, r, z, t, flow, displacement, geometry, inlet_factor)
    if tag == RegionTag.OUTLET:
        return _outlet(tape, r, z, t, flow, displacement, fluid)
    if tag in (RegionTag.WALL, *WALL_SUBTAGS):
        return _interface(tape, r, z, t, flow, displacement, detach_interface_target)
    raise PhysicsError(f"no boundary residual for region {tag}")


def _initial_fluid(tape, r, z, t, flow, displacement):
    r_t, z_t, t_p, _ = current_frame(tape, r, z, t, displacement)
    return flow.velocity(tape, r_t, z_t, t_p)


def initial_residuals(flow, displacement, point, which: str = "fluid"):
    """Rest-state mismatch at t=0: velocity components for the fluid
    problem, radial displacement for the solid problem."""
    tape = ad.Tape()
    r, z, t = _point_leaves(tape, point)
    if which == "fluid":
        return _initial_fluid(tape, r, z, t, flow, displacement)
    if which == "solid":
        return (displacement.radial(tape, r, z, t),)
    raise PhysicsError("which must be 'fluid' or 'solid'")


def _point_leaves(tape, point):
    r, z, t = point
    return _leaf(tape, r), _leaf(tape, z), _leaf(tape, t)


def _leaf(tape, v):
    if isinstance(v, np.ndarray):
        return tape.batch(v)
    return tape.scalar(float(v))


def mean_square(tape, components: Sequence[ad.DiffScalar]) -> ad.DiffScalar:
    """Recorded mean of the squared residual magnitude over a batch."""
    acc = None
    for c in components:
        sq = c * c
        acc = sq if acc is None else acc + sq
    return tape.mean(acc)


# ----------------------------------------------------------------------
# collocation bundles and loss graphs

@dataclass
class CollocationSamples:
    interior: SampleSet
    inlet: SampleSet
    outlet: SampleSet
    wall: SampleSet
    interior_t0: SampleSet
    wall_t0: SampleSet
    endpoints: SampleSet


def sample_counts(interior_count: int, wall_count: int,
                  port_count: int) -> dict[str, int]:
    """Point count of each collocation set that `draw_samples` draws."""
    half_port = max(port_count // 2, 1)
    return {"interior": interior_count, "inlet": half_port, "outlet": half_port,
            "wall": wall_count, "interior_t0": interior_count,
            "wall_t0": wall_count, "endpoints": max(wall_count // 4, 4)}


def draw_samples(geometry: VesselGeometry, interior_count: int, wall_count: int,
                 port_count: int, seed: int) -> CollocationSamples:
    """One fresh draw of every collocation set from a base seed."""
    from .domain import sample

    n = sample_counts(interior_count, wall_count, port_count)
    return CollocationSamples(
        interior=sample(geometry, RegionTag.FLUID_INTERIOR, n["interior"], seed),
        inlet=sample(geometry, RegionTag.INLET, n["inlet"], seed + 1),
        outlet=sample(geometry, RegionTag.OUTLET, n["outlet"], seed + 2),
        wall=sample(geometry, RegionTag.WALL, n["wall"], seed + 3),
        interior_t0=sample(geometry, RegionTag.FLUID_INTERIOR, n["interior_t0"],
                           seed + 4, at_initial_time=True),
        wall_t0=sample(geometry, RegionTag.WALL, n["wall_t0"], seed + 5,
                       at_initial_time=True),
        endpoints=sample(geometry, RegionTag.WALL_ENDPOINTS, n["endpoints"], seed + 6),
    )


def _batch_leaves(tape, sample_set: SampleSet):
    return tape.batch(sample_set.r), tape.batch(sample_set.z), tape.batch(sample_set.t)


def _weighted_union(tape, parts: list[tuple[int, ad.DiffScalar]]) -> ad.DiffScalar:
    """Size-weighted combination of sub-means, equal to the mean over the
    union of the sub-batches."""
    total = sum(n for n, _ in parts)
    acc = None
    for n, m in parts:
        term = tape.constant(float(n)) * m
        acc = term if acc is None else acc + term
    return acc * tape.constant(1.0 / total)


class FluidLossGraph:
    """Recorded flow-problem loss over one collocation draw.

    The momentum-residual weight is a leaf so the staged schedule can
    raise it without rebuilding the record."""

    def __init__(self, flow, displacement, samples: CollocationSamples,
                 geometry: VesselGeometry, fluid: FluidProperties,
                 inlet_factor: Callable, weights: LossWeights, eps_r: float):
        tape = ad.Tape()
        self.tape = tape

        r, z, t = _batch_leaves(tape, samples.interior)
        res = _axisym_ns(tape, r, z, t, flow, displacement, fluid, eps_r)
        self.term_ns = mean_square(tape, res)

        r, z, t = _batch_leaves(tape, samples.inlet)
        inlet_res = _inlet(tape, r, z, t, flow, displacement, geometry, inlet_factor)
        inlet_mean = mean_square(tape, inlet_res)

        r, z, t = _batch_leaves(tape, samples.outlet)
        outlet_res = _outlet(tape, r, z, t, flow, displacement, fluid)
        outlet_mean = mean_square(tape, outlet_res)

        r, z, t = _batch_leaves(tape, samples.wall)
        wall_res = _interface(tape, r, z, t, flow, displacement, detach_target=True)
        wall_mean = mean_square(tape, wall_res)

        self.term_bdr = _weighted_union(tape, [
            (len(samples.inlet), inlet_mean),
            (len(samples.outlet), outlet_mean),
            (len(samples.wall), wall_mean),
        ])

        r, z, t = _batch_leaves(tape, samples.interior_t0)
        init_res = _initial_fluid(tape, r, z, t, flow, displacement)
        self.term_init = mean_square(tape, init_res)

        self._alpha_ns = tape.scalar(weights.ns)
        self.total = ((self._alpha_ns * self.term_ns
                       + tape.constant(weights.fluid_bdr) * self.term_bdr)
                      + tape.constant(weights.fluid_init) * self.term_init)

    @property
    def alpha_ns(self) -> float:
        return float(self._alpha_ns.value)

    def set_alpha_ns(self, value: float) -> None:
        self.tape.set_value(self._alpha_ns, value)

    def replay(self) -> None:
        self.tape.replay()

    def breakdown(self) -> LossBreakdown:
        return LossBreakdown(
            ns=float(self.term_ns.value), fluid_bdr=float(self.term_bdr.value),
            fluid_init=float(self.term_init.value), fluid_total=float(self.total.value))

    def param_grads(self, groups: Sequence[str]) -> dict[str, np.ndarray]:
        return self.tape.backward_values(self.total, list(groups))


class SolidLossGraph:
    """Recorded wall-problem loss: ring model, harmonic extension,
    endpoint pinning and the rest start. Fluid quantities inside the ring
    load are recorded as constants."""

    def __init__(self, flow, displacement, samples: CollocationSamples,
                 geometry: VesselGeometry,
                 wall_by_segment: "dict[RegionTag, WallProperties]",
                 fluid: FluidProperties, weights: LossWeights, eps_r: float):
        tape = ad.Tape()
        self.tape = tape

        parts = []
        for segment, idx in _split_wall(samples.wall):
            props = wall_by_segment.get(segment) or wall_by_segment[RegionTag.WALL]
            z = tape.batch(samples.wall.z[idx])
            t = tape.batch(samples.wall.t[idx])
            direction = tape.batch_constant(radial_direction(samples.wall.r[idx]))
            res = _stress_continuity(tape, z, t, direction, segment, flow,
                                     displacement, geometry, props, fluid,
                                     detach_fluid=True)
            parts.append((len(idx), mean_square(tape, [res])))
        self.term_stress = _weighted_union(tape, parts)

        r, z, t = _batch_leaves(tape, samples.interior)
        self.term_harmonic = mean_square(
            tape, [_harmonic(tape, r, z, t, displacement, eps_r)])

        r, z, t = _batch_leaves(tape, samples.endpoints)
        self.term_bdr = mean_square(tape, [displacement.radial(tape, r, z, t)])

        r, z, t = _batch_leaves(tape, samples.wall_t0)
        self.term_init = mean_square(tape, [displacement.radial(tape, r, z, t)])

        self.total = (((tape.constant(weights.stress) * self.term_stress
                        + tape.constant(weights.harmonic) * self.term_harmonic)
                       + tape.constant(weights.solid_bdr) * self.term_bdr)
                      + tape.constant(weights.solid_init) * self.term_init)

    def replay(self) -> None:
        self.tape.replay()

    def breakdown(self) -> LossBreakdown:
        return LossBreakdown(
            stress=float(self.term_stress.value), harmonic=float(self.term_harmonic.value),
            solid_bdr=float(self.term_bdr.value), solid_init=float(self.term_init.value),
            solid_total=float(self.total.value))

    def param_grads(self, groups: Sequence[str]) -> dict[str, np.ndarray]:
        return self.tape.backward_values(self.total, list(groups))


def _split_wall(wall: SampleSet):
    """Contiguous index groups per wall segment (plaque-aware)."""
    if wall.subtags is None or all(tag == RegionTag.WALL for tag in wall.subtags):
        yield RegionTag.WALL, np.arange(len(wall))
        return
    tags = np.array([tag.value for tag in wall.subtags])
    for segment in WALL_SUBTAGS:
        idx = np.flatnonzero(tags == segment.value)
        if idx.size:
            yield segment, idx
