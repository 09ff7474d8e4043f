"""Scenario configuration in CGS units, presets and file round trip.

Config files are JSON with one object per section (geometry, fluid,
wall, optional plaque, inlet, weights, training). Keys carry their units
so a file can never silently mix systems. Unknown keys, values of the
wrong JSON type for their key, and constants out of their range are
rejected; a value out of range is named in the message as `section.key`,
with the rule it breaks and the value, e.g.
`training.interior_points must be positive, got 0`.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .domain import GeometryError, PlaqueShape, RegionTag, VesselGeometry
from .physics import FluidProperties, LossWeights, WallProperties


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GeometrySettings:
    radius_cm: float = VesselGeometry.radius
    length_cm: float = VesselGeometry.length
    wall_thickness_cm: float = VesselGeometry.wall_thickness
    horizon_s: float = VesselGeometry.horizon


@dataclass(frozen=True)
class FluidSettings:
    density_g_per_cm3: float = FluidProperties.density
    viscosity_poise: float = FluidProperties.viscosity


@dataclass(frozen=True)
class WallSettings:
    density_g_per_cm3: float = WallProperties.density
    youngs_modulus_dyn_per_cm2: float = WallProperties.youngs_modulus
    poisson_ratio: float = WallProperties.poisson_ratio


@dataclass(frozen=True)
class PlaqueSettings:
    long_radius_cm: float = 0.15
    short_radius_cm: float = 0.1
    center_z_cm: float = 1.0
    density_g_per_cm3: float = 1.1
    youngs_modulus_dyn_per_cm2: float = 1.0e6
    poisson_ratio: float = 0.5


@dataclass(frozen=True)
class InletSettings:
    """Axial inflow profile: parabolic in radius, scaled by a time factor.

    pulsatile: amplitude * (1 - cos(omega t)), peaking at twice the
    amplitude once per cycle. steady: a constant factor."""

    mode: str = "pulsatile"
    amplitude_cm_per_s: float = 10.0
    angular_frequency_rad_per_s: float = 2.0 * math.pi
    steady_value_cm_per_s: float = 20.0

    def factor(self):
        if self.mode == "steady":
            value = self.steady_value_cm_per_s
            return lambda ts: np.full_like(np.asarray(ts, dtype=np.float64), value)
        amp, omega = self.amplitude_cm_per_s, self.angular_frequency_rad_per_s
        return lambda ts: amp * (1.0 - np.cos(omega * np.asarray(ts, dtype=np.float64)))


@dataclass(frozen=True)
class WeightSettings:
    navier_stokes: float = LossWeights.ns  # must be 0: the training schedule sets alpha_ns
    fluid_boundary: float = LossWeights.fluid_bdr
    fluid_initial: float = LossWeights.fluid_init
    stress_continuity: float = LossWeights.stress
    harmonic_extension: float = LossWeights.harmonic
    solid_boundary: float = LossWeights.solid_bdr
    solid_initial: float = LossWeights.solid_init


@dataclass(frozen=True)
class TrainingSettings:
    interior_points: int = 1000
    wall_points: int = 1000
    port_points: int = 1000
    learning_rate: float = 1e-3
    velocity_learning_rate: "float | None" = None      # default: learning_rate
    pressure_learning_rate: "float | None" = None
    displacement_learning_rate: "float | None" = None
    fluid_epochs: int = 2000
    solid_epochs: int = 500
    velocity_epochs: int = 80
    pressure_epochs: int = 20
    ladder_steps: int = 5
    max_alternations: int = 6
    convergence_threshold: float = 0.1
    convergence_window: int = 100
    axis_clamp_fraction: float = 0.01
    rigid_wall: bool = False
    network_depth: int = 12
    velocity_width: int = 20
    pressure_width: int = 10
    displacement_width: int = 20


_SECTIONS = {
    "geometry": GeometrySettings,
    "fluid": FluidSettings,
    "wall": WallSettings,
    "plaque": PlaqueSettings,
    "inlet": InletSettings,
    "weights": WeightSettings,
    "training": TrainingSettings,
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "cylinder"
    geometry: GeometrySettings = field(default_factory=GeometrySettings)
    fluid: FluidSettings = field(default_factory=FluidSettings)
    wall: WallSettings = field(default_factory=WallSettings)
    plaque: PlaqueSettings | None = None
    inlet: InletSettings = field(default_factory=InletSettings)
    weights: WeightSettings = field(default_factory=WeightSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)

    def __post_init__(self):
        if self.weights.navier_stokes != 0.0:
            raise ConfigError("weights.navier_stokes must be 0.0: the training schedule "
                              "sets the momentum weight alpha_ns")
        # the geometry checks its own constants, plaque-in-lumen included
        self.vessel_geometry()
        for section, rules in _RULES.items():
            settings = getattr(self, section)
            for key, (holds, rule) in rules.items() if settings else ():
                if not holds(getattr(settings, key)):
                    _reject(f"{section}.{key}", getattr(settings, key), rule)
        t = self.training
        round_length = t.velocity_epochs + t.pressure_epochs
        if t.fluid_epochs % round_length != 0:
            _reject("training.fluid_epochs", t.fluid_epochs,
                    f"must divide into whole u/p rounds of {round_length} epochs")

    # -- derived objects ------------------------------------------------

    def vessel_geometry(self) -> VesselGeometry:
        plaque = None
        if self.plaque is not None:
            plaque = PlaqueShape(self.plaque.long_radius_cm,
                                 self.plaque.short_radius_cm,
                                 self.plaque.center_z_cm)
        try:
            return VesselGeometry(self.geometry.radius_cm, self.geometry.length_cm,
                                  self.geometry.wall_thickness_cm,
                                  self.geometry.horizon_s, plaque)
        except GeometryError as exc:
            raise ConfigError(f"{_GEOMETRY_KEYS[exc.field]} {exc.rule}") from None

    def fluid_properties(self) -> FluidProperties:
        return FluidProperties(self.fluid.density_g_per_cm3, self.fluid.viscosity_poise)

    def wall_segments(self) -> dict[RegionTag, WallProperties]:
        base = WallProperties(
            density=self.wall.density_g_per_cm3,
            youngs_modulus=self.wall.youngs_modulus_dyn_per_cm2,
            poisson_ratio=self.wall.poisson_ratio,
            thickness=self.geometry.wall_thickness_cm,
        )
        segments = {RegionTag.WALL: base}
        if self.plaque is not None:
            segments[RegionTag.WALL_PLAQUE] = replace(
                base,
                density=self.plaque.density_g_per_cm3,
                youngs_modulus=self.plaque.youngs_modulus_dyn_per_cm2,
                poisson_ratio=self.plaque.poisson_ratio,
            )
        return segments

    def loss_weights(self) -> LossWeights:
        w = self.weights
        return LossWeights(w.navier_stokes, w.fluid_boundary, w.fluid_initial,
                           w.stress_continuity, w.harmonic_extension,
                           w.solid_boundary, w.solid_initial)

    def inlet_factor(self):
        return self.inlet.factor()

    def learning_rates(self) -> dict[str, float]:
        """Per-network step lengths; unset entries fall back to the shared rate."""
        t = self.training
        rates = {"u": t.velocity_learning_rate, "p": t.pressure_learning_rate,
                 "d": t.displacement_learning_rate}
        return {name: t.learning_rate if rate is None else rate
                for name, rate in rates.items()}

    @property
    def eps_r(self) -> float:
        return self.training.axis_clamp_fraction * self.geometry.radius_cm

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = {"name": self.name}
        for section in _SECTIONS:
            value = getattr(self, section)
            if value is None:
                continue
            data[section] = asdict(value)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        unknown = set(data) - set(_SECTIONS) - {"name"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {"name": data.get("name", "custom")}
        _check_type("name", kwargs["name"], str)
        for section, section_cls in _SECTIONS.items():
            if section not in data:
                continue
            body = data[section]
            if not isinstance(body, dict):
                raise ConfigError(f"section {section!r} must be an object")
            allowed = set(section_cls.__dataclass_fields__)
            bad = set(body) - allowed
            if bad:
                raise ConfigError(
                    f"unknown keys in section {section!r}: {sorted(bad)} "
                    f"(allowed: {sorted(allowed)})")
            hints = typing.get_type_hints(section_cls)
            for key, value in body.items():
                _check_type(f"{section}.{key}", value, hints[key])
            kwargs[section] = section_cls(**body)
        return cls(**kwargs)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# the config key of each constant of a `VesselGeometry`
_GEOMETRY_KEYS = {
    "radius": "geometry.radius_cm", "length": "geometry.length_cm",
    "wall_thickness": "geometry.wall_thickness_cm", "horizon": "geometry.horizon_s",
    "plaque.long_radius": "plaque.long_radius_cm",
    "plaque.short_radius": "plaque.short_radius_cm", "plaque.center_z": "plaque.center_z_cm",
}
# the rule of each checked value, by section, in the order they are checked
_POSITIVE = (lambda value: value > 0, "must be positive")
_NON_NEGATIVE = (lambda value: value >= 0, "must be non-negative")
# a per-network learning rate: null falls back to the shared rate
_POSITIVE_OR_NULL = (lambda value: value is None or value > 0, "must be positive or null")
_WALL_RULES = {"density_g_per_cm3": _POSITIVE, "youngs_modulus_dyn_per_cm2": _POSITIVE,
               "poisson_ratio": (lambda value: abs(value) < 1, "must lie in (-1, 1)")}
_TRAINING_RULES = {
    "interior_points": _POSITIVE, "wall_points": _POSITIVE, "port_points": _POSITIVE,
    "learning_rate": _POSITIVE, "velocity_learning_rate": _POSITIVE_OR_NULL,
    "pressure_learning_rate": _POSITIVE_OR_NULL,
    "displacement_learning_rate": _POSITIVE_OR_NULL,
    "fluid_epochs": _POSITIVE, "solid_epochs": _POSITIVE, "velocity_epochs": _POSITIVE,
    "pressure_epochs": _POSITIVE, "ladder_steps": _NON_NEGATIVE,
    "max_alternations": _NON_NEGATIVE, "convergence_window": _POSITIVE,
    "axis_clamp_fraction": (lambda value: 0 < value < 1, "must lie in (0, 1)"),
    "network_depth": (lambda value: value >= 2, "must be at least 2 affine layers"),
    "velocity_width": _POSITIVE, "pressure_width": _POSITIVE,
    "displacement_width": _POSITIVE,
}
_RULES = {"fluid": {"density_g_per_cm3": _POSITIVE, "viscosity_poise": _POSITIVE},
          "wall": _WALL_RULES, "plaque": _WALL_RULES,
          "weights": dict.fromkeys(WeightSettings.__dataclass_fields__, _NON_NEGATIVE),
          "inlet": {"mode": (lambda value: value in ("pulsatile", "steady"),
                             "must be 'pulsatile' or 'steady'")},
          "training": _TRAINING_RULES}


def _reject(key: str, value, rule: str):
    raise ConfigError(f"{key} {rule}, got {value!r}")


# the JSON values each field type takes: a float key takes an integer too,
# and no number key takes true or false
_JSON_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _check_type(name: str, value, hint) -> None:
    """Refuse a config value of the wrong type for a field annotated `hint`,
    `kind` or `kind | None`; null is taken only by the latter. A number
    must be finite: JSON text read by Python may hold NaN or Infinity."""
    args = typing.get_args(hint)  # (kind, NoneType) for `kind | None`, else ()
    if value is None and args:
        return
    kind = args[0] if args else hint
    types, text = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {text}{' or null' if args else ''}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return ScenarioConfig.from_dict(data)


# ----------------------------------------------------------------------
# presets

def _plaque_preset(name: str, short_radius: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        plaque=PlaqueSettings(short_radius_cm=short_radius),
    )


_PRESETS = {
    "cylinder": lambda: ScenarioConfig(name="cylinder"),
    "plaque-mild": lambda: _plaque_preset("plaque-mild", 0.05),
    "plaque-moderate": lambda: _plaque_preset("plaque-moderate", 0.1),
    "plaque-severe": lambda: _plaque_preset("plaque-severe", 0.15),
    "one-pulse": lambda: ScenarioConfig(
        name="one-pulse",
        geometry=GeometrySettings(radius_cm=1.0, length_cm=25.0,
                                  wall_thickness_cm=0.2, horizon_s=0.2),
        wall=WallSettings(youngs_modulus_dyn_per_cm2=0.8e7),
        inlet=InletSettings(angular_frequency_rad_per_s=20.0 * math.pi),
    ),
    "poiseuille-rigid": lambda: ScenarioConfig(
        name="poiseuille-rigid",
        inlet=InletSettings(mode="steady", steady_value_cm_per_s=20.0),
        weights=WeightSettings(fluid_initial=0.0),
        training=TrainingSettings(
            interior_points=256, wall_points=128, port_points=128,
            rigid_wall=True, fluid_epochs=2000,
        ),
    ),
}

# the names `--preset` offers, in table order
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have: {sorted(_PRESETS)})")
    return _PRESETS[name]()
