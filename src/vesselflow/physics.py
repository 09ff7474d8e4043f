"""PDE residuals, boundary/initial functionals and weighted loss assembly.

Each residual is one public function that records its components on a
given record from batches of input nodes. Each loss record calls these
same functions and declares its terms once, by the names `LossWeights`
and `LossBreakdown` share; `_losses` derives from that declaration each
term's mean square, the weighted total and the record's values by name.
The residuals that read the velocity's value alone take it as an
argument: a loss record reads each network once per jet shape, so one
value-only read (``current_velocity``) serves all those point sets and
each residual takes its part of it (``ad.Tape.part``). All residuals are
written against field adapters, so the same code path serves trained
networks and closed-form manufactured fields. Velocity and pressure are
functions of current-frame coordinates; those coordinates are produced
by displacing reference points radially.

Every derivative a residual reads is a partial derivative of a field
with respect to its own inputs (r, z, t): a first derivative, or the sum
of pure second derivatives along r and z (a Laplacian) or along t alone.
The field adapters return each field as an ``ad.Jet``: network fields
carry it through a chain of layer runs (one run per layer, or one run of
the whole network when the loss record does not train it), closed-form
fields through jet arithmetic on the jets of their inputs. So the time
derivative of a flow field is the current-frame partial, not a material
derivative. Reading derivatives at the displaced radius treats it as an
independent coordinate, as the moving-frame equations require, while its
value keeps the recorded dependence on the displacement parameters so
those still steer where the fields are evaluated.

The plaque enters only through `domain`: the ring model reads a wall
point's undeformed radius from its z, equal to `reference_radius` bit for
bit, with its slope from `plaque_slope`, and the wall loss records the
points off and on the plaque apart.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .domain import (
    RegionTag, SampleSet, VesselGeometry, clamp_radius, on_plaque, plaque_slope,
    radial_direction, reference_radius, sample,
)

# Input index of each coordinate in every field: jet directions name these.
R, Z, T = 0, 1, 2


class PhysicsError(ValueError):
    pass


# ----------------------------------------------------------------------
# material properties and loss bookkeeping
#
# Plain values: a scenario's are checked by `ScenarioConfig`, which names a
# bad one by the config key it was read from.

@dataclass(frozen=True)
class FluidProperties:
    density: float = 1.025   # g/cm^3
    viscosity: float = 0.035  # poise


@dataclass(frozen=True)
class WallProperties:
    density: float = 1.2               # g/cm^3
    youngs_modulus: float = 0.5e6      # dyn/cm^2
    poisson_ratio: float = 0.5
    thickness: float = VesselGeometry.wall_thickness  # cm

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


@dataclass
class LossBreakdown:
    """Per-term residual values plus the weighted totals, each read by
    name from the loss record that computed it, in `history.csv`'s
    column order."""

    ns: float = np.nan
    fluid_bdr: float = np.nan
    fluid_init: float = np.nan
    fluid_total: float = np.nan
    stress: float = np.nan
    harmonic: float = np.nan
    solid_bdr: float = np.nan
    solid_init: float = np.nan
    solid_total: float = np.nan


# ----------------------------------------------------------------------
# field adapters

class NetworkFlow:
    """Velocity/pressure fields read from the two flow networks as jets:
    values, and the input derivatives a caller names (see
    ``nets.FieldNetwork.jet``).

    Every adapter also has `read`, the same fields as plain values at a
    batch of points given as arrays, bitwise equal to what its recorded
    methods compute there, with no record."""

    def __init__(self, velocity_net, pressure_net):
        self.velocity_net = velocity_net
        self.pressure_net = pressure_net

    def velocity(self, tape, r, z, t, directions=(), laplacian=()):
        return tuple(self.velocity_net.jet(tape, [r, z, t], directions, laplacian))

    def pressure(self, tape, r, z, t, directions=()):
        return self.pressure_net.jet(tape, [r, z, t], directions)[0]

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
        self.p = pressure

    def velocity(self, tape, r, z, t, directions=(), laplacian=()):
        return tuple(ad.closed_form(tape, u, (r, z, t), directions, laplacian)
                     for u in (self.u_z, self.u_r))

    def pressure(self, tape, r, z, t, directions=()):
        return ad.closed_form(tape, self.p, (r, z, t), directions)

    def read(self, r, z, t, pressure: bool = True):
        u_z, u_r = self.u_z(r, z, t), self.u_r(r, z, t)
        return (u_z, u_r, self.p(r, z, t)) if pressure else (u_z, u_r)


class NetworkDisplacement:
    def __init__(self, displacement_net):
        self.displacement_net = displacement_net

    def radial(self, tape, r, z, t, directions=(), laplacian=()):
        return self.displacement_net.jet(tape, [r, z, t], directions, laplacian)[0]

    def read(self, r, z, t):
        (eta,) = _read_network(self.displacement_net, r, z, t)
        return eta


class AnalyticDisplacement:
    def __init__(self, eta: Callable):
        self.eta = eta

    def radial(self, tape, r, z, t, directions=(), laplacian=()):
        return ad.closed_form(tape, self.eta, (r, z, t), directions, laplacian)

    def read(self, r, z, t):
        return self.eta(r, z, t)


class ZeroDisplacement(AnalyticDisplacement):
    def __init__(self):
        super().__init__(lambda r, z, t: 0.0)


def network_fields(networks: dict, rigid_wall: bool):
    """The flow and displacement adapters of a network triple. A rigid wall
    pins the displacement to zero, so the displacement network is never read."""
    flow = NetworkFlow(networks["u"], networks["p"])
    return flow, ZeroDisplacement() if rigid_wall else NetworkDisplacement(networks["d"])


def _read_network(net, r, z, t):
    """Plain outputs of `net` at a batch (r, z, t), stacked into (n, 3)
    rows, whose (3, n) transpose `FieldNetwork.evaluate` computes on as
    `FieldNetwork.jet` stacks its inputs, a block of `nets.READ_BLOCK`
    rows at a time; so each block equals a recorded read of that block,
    bit for bit."""
    return tuple(net.evaluate(np.stack(np.broadcast_arrays(r, z, t), axis=-1)).T)


def _direction_node(tape, r: ad.DiffScalar):
    return tape.batch(radial_direction(r.value))


def current_frame(tape, r, z, t, displacement):
    """Current-frame radius of reference points (r, z, t), which carries the
    displacement dependence; z and t are the same in both frames."""
    return r + _direction_node(tape, r) * displacement.radial(tape, r, z, t).value


def current_velocity(tape, r, z, t, flow, displacement):
    """The flow's value-only read at reference points (r, z, t): their
    current-frame radius r_t and the velocity (u_z, u_r) there."""
    r_t = current_frame(tape, r, z, t, displacement)
    u_z, u_r = (jet.value for jet in flow.velocity(tape, r_t, z, t))
    return r_t, u_z, u_r


# ----------------------------------------------------------------------
# residuals
#
# Each reads batches (r, z, t) of reference points, but for the wall
# residual, which takes z, t and the points' radial direction and reads
# their radius from z.

def ns_residual_axisym(tape, r, z, t, flow, displacement, fluid: FluidProperties, eps_r):
    """Axisymmetric momentum and mass residuals at a batch of reference
    points. Returns (res_z, res_r, res_div)."""
    r_t = current_frame(tape, r, z, t, displacement)
    jz, jr = flow.velocity(tape, r_t, z, t, (R, Z, T), laplacian=(R, Z))
    dp_dr, dp_dz = flow.pressure(tape, r_t, z, t, (R, Z)).grads
    u_z, (duz_dr, duz_dz, duz_dt) = jz.value, jz.grads
    u_r, (dur_dr, dur_dz, dur_dt) = jr.value, jr.grads
    r_prime = clamp_radius(r_t, eps_r)
    rho, mu = fluid.density, fluid.viscosity
    res_z = (rho * duz_dt + rho * (u_r * duz_dr + u_z * duz_dz) + dp_dz
             - mu * (duz_dr / r_prime + jz.laplacian))
    res_r = (rho * dur_dt + rho * (u_r * dur_dr + u_z * dur_dz) + dp_dr
             - mu * (dur_dr / r_prime + jr.laplacian - u_r / (r_prime * r_prime)))
    res_div = u_r / r_prime + dur_dr + duz_dz
    return res_z, res_r, res_div


def harmonic_residual(tape, r, z, t, displacement, eps_r):
    """Axisymmetric Laplacian of the radial displacement extension,
    evaluated in reference coordinates."""
    eta = displacement.radial(tape, r, z, t, (R, Z), laplacian=(R, Z))
    r_prime = clamp_radius(r, eps_r)
    return eta.grads[0] / r_prime + eta.laplacian


def _wall_radius(tape, geometry: VesselGeometry, z):
    """Undeformed radius of a batch of wall points at their axial input z,
    and its slope along z, as batches: R and no slope (None) off the
    plaque, `reference_radius` and minus `plaque_slope` on it; a batch
    across an edge is refused."""
    on = on_plaque(geometry, z.value)
    radius0 = tape.batch(reference_radius(geometry, z.value))
    if not on.any():
        return radius0, None
    if not on.all():
        raise PhysicsError("wall batch straddles a plaque edge")
    return radius0, tape.batch(-plaque_slope(geometry.plaque, z.value))


def stress_continuity_residual(tape, z, t, direction, flow, displacement, geometry,
                               wall: WallProperties, fluid: FluidProperties):
    """Ring-model residual at wall points: radial acceleration plus the
    elastic restoring force minus the fluid load. Points on the plaque take
    its dented radius; a batch that is not all on or all off the plaque
    raises `PhysicsError`. Fluid quantities inside the load enter as
    constants (detached), as the wall problem takes them."""
    radius0, slope0 = _wall_radius(tape, geometry, z)
    r_w = direction * radius0
    # total z-derivative of radius0(z) + eta(direction radius0(z), z, t);
    # off the plaque radius0 is constant and only eta's own z-derivative is left
    if slope0 is None:
        eta = displacement.radial(tape, r_w, z, t, (Z, T), laplacian=(T,))
        dradius_dz = eta.grads[0]
    else:
        eta = displacement.radial(tape, r_w, z, t, (R, Z, T), laplacian=(T,))
        deta_dr, deta_dz, _ = eta.grads
        dradius_dz = slope0 + deta_dr * direction * slope0 + deta_dz
    radius = radius0 + eta.value
    stretch = ad.sqrt(1.0 + dradius_dz * dradius_dz)
    ratio = radius / radius0

    r_t = direction * radius
    jz, jr = flow.velocity(tape, r_t, z, t, (R, Z))
    p = flow.pressure(tape, r_t, z, t).value
    duz_dr = jz.grads[0]
    dur_dr, dur_dz = jr.grads
    # ((grad u + grad u^T) . n) . e_r for the outward normal of the current
    # wall curve; the signed-direction factors cancel pairwise.
    shear = (2.0 * dur_dr - (dur_dz + duz_dr) * dradius_dz) / stretch
    # the fluid enters the wall problem as a given load: no derivative
    # reaches u or p through it
    p, shear = ad.detach(p), ad.detach(shear)
    load = (ratio * p - ratio * stretch * fluid.viscosity * shear) \
        / (wall.density * wall.thickness)

    b_node = tape.batch(wall.restoring_at_radius(radius0.value))
    return eta.laplacian + b_node * eta.value - load


def inlet_residual(tape, t, r_t, u_z, u_r, geometry, inlet_factor):
    """Inlet mismatch at a batch of inlet points at times t, given their
    current-frame radius r_t and the velocity (u_z, u_r) there: the axial
    velocity less the parabolic profile scaled by `inlet_factor(t)`, and
    the radial velocity."""
    profile = 1.0 - (r_t * r_t) * (1.0 / geometry.radius**2)
    target = tape.batch(inlet_factor(t.value)) * profile
    return u_z - target, u_r


def outlet_residual(tape, r, z, t, flow, displacement, fluid):
    """Traction on the outlet plane, whose outward normal is +z: its
    radial and axial components."""
    r_t = current_frame(tape, r, z, t, displacement)
    jz, jr = flow.velocity(tape, r_t, z, t, (R, Z))
    p = flow.pressure(tape, r_t, z, t).value
    duz_dr, duz_dz = jz.grads
    dur_dz = jr.grads[1]
    mu = fluid.viscosity
    res_r = mu * (dur_dz + duz_dr)
    res_z = 2.0 * mu * duz_dz - p
    return res_r, res_z


def interface_residual(tape, r, z, t, u_z, u_r, displacement):
    """No-slip on the moving wall at a batch of wall points, given the
    velocity (u_z, u_r) at their current-frame images: the fluid's radial
    velocity less the wall's, and its axial velocity. The wall velocity
    d eta/dt is a detached target, so the flow loss steers the
    displacement network only through where the fields are read."""
    deta_dt = ad.detach(displacement.radial(tape, r, z, t, (T,)).grads[0])
    return u_r - _direction_node(tape, r) * deta_dt, u_z


def _sum(xs: Sequence[ad.DiffScalar]) -> ad.DiffScalar:
    """Recorded sum of `xs`, added left to right."""
    return functools.reduce(operator.add, xs)


def mean_square(tape, components: Sequence[ad.DiffScalar]) -> ad.DiffScalar:
    """Recorded mean of the squared residual magnitude over a batch."""
    return tape.mean(_sum([c * c for c in components]))


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


def draw_samples(geometry: VesselGeometry, interior_count: int, wall_count: int,
                 port_count: int, seed: int) -> CollocationSamples:
    """One fresh draw of every collocation set from a base seed."""
    half_port = max(port_count // 2, 1)
    return CollocationSamples(
        interior=sample(geometry, RegionTag.FLUID_INTERIOR, interior_count, seed),
        inlet=sample(geometry, RegionTag.INLET, half_port, seed + 1),
        outlet=sample(geometry, RegionTag.OUTLET, half_port, seed + 2),
        wall=sample(geometry, RegionTag.WALL, wall_count, seed + 3),
        interior_t0=sample(geometry, RegionTag.FLUID_INTERIOR, interior_count,
                           seed + 4, at_initial_time=True),
        wall_t0=sample(geometry, RegionTag.WALL, wall_count, seed + 5,
                       at_initial_time=True),
        endpoints=sample(geometry, RegionTag.WALL_ENDPOINTS, max(wall_count // 4, 4),
                         seed + 6),
    )


def _joined_inputs(tape, sets: Sequence[SampleSet]):
    """Batches (r, z, t) over the union of one or more collocation `sets`,
    in order, and each set's points (lo, hi) in it."""
    inputs = tuple(tape.batch(np.concatenate([getattr(s, k) for s in sets])) for k in "rzt")
    ends = np.cumsum([len(s) for s in sets]).tolist()
    return inputs, list(zip([0] + ends[:-1], ends))


def _parts(tape, points: tuple, *xs) -> list:
    """The parts at `points` (lo, hi) of batches over a union of sets."""
    return [tape.part(x, *points) for x in xs]


def _losses(tape, terms: dict, weights: LossWeights, total: str) -> dict:
    """A record's loss values by name, from its `terms` keyed by their
    `LossWeights` names: each term's mean square in declaration order, then
    under `total` their weighted sum, added in that order. A term is its
    residual components, or a list of (point count, components) over
    several point sets, whose size-weighted mean squares give the mean
    over their union."""
    losses = {}
    for name, term in terms.items():
        if isinstance(term[0], tuple):  # (point count, components) pairs
            parts = [tape.constant(float(n)) * mean_square(tape, c) for n, c in term]
            losses[name] = _sum(parts) * tape.constant(1.0 / sum(n for n, _ in term))
        else:
            losses[name] = mean_square(tape, term)
    losses[total] = _sum([tape.constant(getattr(weights, name)) * loss
                          for name, loss in losses.items()])
    return losses


def _breakdown(graph) -> LossBreakdown:
    """The record's loss values, each in the `LossBreakdown` field of its
    name; the fields of the other record stay nan."""
    return LossBreakdown(**{name: float(loss.value) for name, loss in graph.losses.items()})


class FluidLossGraph:
    """Recorded flow-problem loss over one collocation draw.

    Every term weight, the momentum weight `alpha_ns` included, is a
    constant of the record: a stage that raises the momentum weight
    builds a new record on the same draw. The record trains the flow
    networks u and p: each of its reads of the displacement network is
    one layer run of the whole network, which keeps no layer values. It
    reads each network once per jet shape: the inlet, wall and t = 0
    points, which need the velocity's value alone, share one
    `current_velocity` over their union, and each set's residual takes
    its part (at t = 0, the rest-state residual is that velocity). Its
    `losses`: ns, fluid_bdr (inlet, outlet, wall), fluid_init, fluid_total."""

    trained = ("u", "p")

    def __init__(self, flow, displacement, samples: CollocationSamples,
                 geometry: VesselGeometry, fluid: FluidProperties,
                 inlet_factor: Callable, weights: LossWeights, eps_r: float):
        tape = ad.Tape(trained=self.trained)
        self.tape = tape

        (r, z, t), _ = _joined_inputs(tape, [samples.interior])
        ns = ns_residual_axisym(tape, r, z, t, flow, displacement, fluid, eps_r)

        (r, z, t), (inlet, wall, init) = _joined_inputs(
            tape, (samples.inlet, samples.wall, samples.interior_t0))
        r_t, u_z, u_r = current_velocity(tape, r, z, t, flow, displacement)
        inlet_res = inlet_residual(
            tape, *_parts(tape, inlet, t, r_t, u_z, u_r), geometry, inlet_factor)
        wall_res = interface_residual(tape, *_parts(tape, wall, r, z, t, u_z, u_r), displacement)
        init_res = _parts(tape, init, u_z, u_r)

        (r, z, t), _ = _joined_inputs(tape, [samples.outlet])
        outlet_res = outlet_residual(tape, r, z, t, flow, displacement, fluid)

        self.losses = _losses(tape, {
            "ns": ns,
            "fluid_bdr": [(len(samples.inlet), inlet_res), (len(samples.outlet), outlet_res),
                          (len(samples.wall), wall_res)],
            "fluid_init": init_res,
        }, weights, "fluid_total")
        self.total = self.losses["fluid_total"]
        self.alpha_ns = weights.ns

    def replay(self) -> None:
        self.tape.replay()

    breakdown = _breakdown

    def param_grads(self, groups: Sequence[str]) -> dict[str, np.ndarray]:
        return self.tape.backward_values(self.total, list(groups))


class SolidLossGraph:
    """Recorded wall-problem loss: ring model, harmonic extension,
    endpoint pinning and the rest start. The ring model is two batches, off
    and on the plaque, with materials `wall_by_segment[WALL]` and
    `[WALL_PLAQUE]`, combined by size into one term, a union even over
    one batch. Fluid quantities inside the ring load are constants.
    The record trains the displacement network d: each of its reads of u
    and p is one layer run of the whole network, which keeps no layer
    values. The endpoint and t = 0 terms share one value-only read of d
    over their union, each taking its part as its residual. Its `losses`:
    stress, harmonic, solid_bdr, solid_init, solid_total."""

    trained = ("d",)

    def __init__(self, flow, displacement, samples: CollocationSamples,
                 geometry: VesselGeometry,
                 wall_by_segment: "dict[RegionTag, WallProperties]",
                 fluid: FluidProperties, weights: LossWeights, eps_r: float):
        tape = ad.Tape(trained=self.trained)
        self.tape = tape

        stress = []
        for segment, idx in _split_wall(samples.wall, geometry):
            z = tape.batch(samples.wall.z[idx])
            t = tape.batch(samples.wall.t[idx])
            direction = tape.batch(radial_direction(samples.wall.r[idx]))
            stress.append((len(idx), [stress_continuity_residual(
                tape, z, t, direction, flow, displacement, geometry,
                wall_by_segment[segment], fluid)]))

        (r, z, t), _ = _joined_inputs(tape, [samples.interior])
        harmonic = [harmonic_residual(tape, r, z, t, displacement, eps_r)]

        (r, z, t), (ends, init) = _joined_inputs(tape, (samples.endpoints, samples.wall_t0))
        eta = displacement.radial(tape, r, z, t).value

        self.losses = _losses(tape, {
            "stress": stress, "harmonic": harmonic,
            "solid_bdr": _parts(tape, ends, eta), "solid_init": _parts(tape, init, eta),
        }, weights, "solid_total")
        self.total = self.losses["solid_total"]

    def replay(self) -> None:
        self.tape.replay()

    breakdown = _breakdown

    def param_grads(self, groups: Sequence[str]) -> dict[str, np.ndarray]:
        return self.tape.backward_values(self.total, list(groups))


def _split_wall(wall: SampleSet, geometry: VesselGeometry):
    """Indices of the wall points off the plaque (key `WALL`) and on it
    (key `WALL_PLAQUE`), in increasing order; an empty group is left out."""
    on = on_plaque(geometry, wall.z)
    for segment, mask in ((RegionTag.WALL, ~on), (RegionTag.WALL_PLAQUE, on)):
        idx = np.flatnonzero(mask)
        if idx.size:
            yield segment, idx
