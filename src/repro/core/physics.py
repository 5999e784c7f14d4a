"""Maglev physics models: cart mass, LIM, kinematics, drag and vacuum.

All formulas follow Section IV of the paper, with every constant cited to
its origin there.  Two trip-time models are provided:

* ``profile="paper"`` — the paper's accounting: the acceleration ramp is
  charged at ramp time, but the braking ramp is folded into cruise (the
  cart is assumed to cover the final LIM length at top speed).  This
  model reproduces Table VI's time column exactly.
* ``profile="exact"`` — a symmetric trapezoidal velocity profile charging
  both ramps, slightly slower (~0.1-0.3 s) than the paper's figures.

Both handle short tracks where the cart cannot reach top speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import PhysicsError
from ..units import GRAVITY, assert_fraction, assert_positive
from .params import BrakingMode, DhlParams

NEODYMIUM_DENSITY_G_CM3: float = 7.5
"""Density of the cart's neodymium magnets (Section IV-A)."""

MAGNET_MASS_FRACTION: float = 0.10
"""Magnets are 10% of cart mass for levitation at a 10 mm air gap."""

FIN_MASS_FRACTION: float = 0.15
"""The aluminium LIM fin is 15% of total cart mass."""

FRAME_MASS_KG: float = 0.030
"""Polyacetal frame mass bound (Section IV-A)."""

PESSIMISTIC_LIFT_TO_DRAG: float = 10.0
"""The paper's pessimistic c1; real inductrack exceeds 50 at speed."""


@dataclass(frozen=True)
class CartMass:
    """Mass breakdown of a cart following Section IV-A.

    Magnets and fin are fixed *fractions* of the total, so the total mass
    solves ``M = (m_ssd + m_frame) / (1 - f_magnets - f_fin)``.
    """

    ssd_mass_kg: float
    frame_mass_kg: float = FRAME_MASS_KG
    magnet_fraction: float = MAGNET_MASS_FRACTION
    fin_fraction: float = FIN_MASS_FRACTION
    total_kg: float = field(init=False)
    magnets_kg: float = field(init=False)
    fin_kg: float = field(init=False)

    def __post_init__(self) -> None:
        assert_positive("ssd_mass_kg", self.ssd_mass_kg)
        assert_positive("frame_mass_kg", self.frame_mass_kg)
        assert_fraction("magnet_fraction", self.magnet_fraction)
        assert_fraction("fin_fraction", self.fin_fraction)
        payload_fraction = 1.0 - self.magnet_fraction - self.fin_fraction
        if payload_fraction <= 0:
            raise PhysicsError(
                "magnet and fin fractions leave no mass budget for the payload"
            )
        total = (self.ssd_mass_kg + self.frame_mass_kg) / payload_fraction
        object.__setattr__(self, "total_kg", total)
        object.__setattr__(self, "magnets_kg", total * self.magnet_fraction)
        object.__setattr__(self, "fin_kg", total * self.fin_fraction)

    @property
    def total_grams(self) -> float:
        """Total cart mass in grams (Table V's unit)."""
        return self.total_kg * 1e3

    def magnet_volume_cm3(self) -> float:
        """Volume of neodymium on the cart, from its 7.5 g/cm^3 density."""
        return self.magnets_kg * 1e3 / NEODYMIUM_DENSITY_G_CM3


def cart_mass(params: DhlParams) -> CartMass:
    """Cart mass for a design point (161/282/524 g for 16/32/64 SSDs)."""
    return CartMass(ssd_mass_kg=params.ssds_per_cart * params.ssd_device.mass_kg)


# --------------------------------------------------------------------------
# Linear induction motor
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Lim:
    """A linear induction motor characterised by acceleration and efficiency."""

    acceleration: float
    efficiency: float

    def __post_init__(self) -> None:
        assert_positive("acceleration", self.acceleration)
        if not 0 < self.efficiency <= 1:
            raise PhysicsError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def length_for_speed(self, speed: float) -> float:
        """LIM length to reach ``speed``: v^2 / 2a (5/20/45 m at Table V speeds)."""
        assert_positive("speed", speed)
        # speed * speed (not speed**2): numpy squares arrays this way, and
        # libm pow() can differ by 1 ulp, which would break the guarantee
        # that the vectorised kernels reproduce this path bit-for-bit.
        return speed * speed / (2.0 * self.acceleration)

    def top_speed_for_length(self, length: float) -> float:
        """The speed reachable within a LIM of a given length."""
        assert_positive("length", length)
        return math.sqrt(2.0 * self.acceleration * length)

    def energy_to_accelerate(self, mass_kg: float, speed: float) -> float:
        """Electrical energy to bring a cart to ``speed``: 0.5 M v^2 / eta."""
        assert_positive("mass_kg", mass_kg)
        if speed < 0:
            raise PhysicsError(f"speed must be >= 0, got {speed}")
        return 0.5 * mass_kg * (speed * speed) / self.efficiency

    def peak_power(self, mass_kg: float, speed: float) -> float:
        """Peak electrical power, drawn at the end of the ramp: M a v / eta."""
        assert_positive("mass_kg", mass_kg)
        if speed < 0:
            raise PhysicsError(f"speed must be >= 0, got {speed}")
        return mass_kg * self.acceleration * speed / self.efficiency

    def ramp_time(self, speed: float) -> float:
        """Seconds spent accelerating to ``speed``."""
        if speed < 0:
            raise PhysicsError(f"speed must be >= 0, got {speed}")
        return speed / self.acceleration


def lim(params: DhlParams) -> Lim:
    """The LIM implied by a design point."""
    return Lim(acceleration=params.acceleration, efficiency=params.lim_efficiency)


# --------------------------------------------------------------------------
# Kinematics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MotionProfile:
    """A resolved cart motion over one track traversal."""

    track_length: float
    peak_speed: float
    accel_time: float
    cruise_time: float
    decel_time: float
    model: str

    @property
    def motion_time(self) -> float:
        """Rail time only — docking overheads are added by the trip model."""
        return self.accel_time + self.cruise_time + self.decel_time


def motion_profile(params: DhlParams, profile: str = "paper") -> MotionProfile:
    """Resolve the velocity profile for one traversal of the track.

    ``paper``: ``t = v/a + (x - L_LIM)/v`` — ramp charged, braking folded
    into cruise.  ``exact``: full trapezoid ``t = 2v/a + (x - v^2/a)/v``.
    Short tracks degrade to triangular profiles in both models.
    """
    if profile not in ("paper", "exact"):
        raise PhysicsError(f"unknown profile {profile!r}; expected 'paper' or 'exact'")
    motor = lim(params)
    x = params.track_length
    v = params.max_speed
    ramp_len = motor.length_for_speed(v)

    if profile == "paper":
        if x >= ramp_len:
            accel_time = motor.ramp_time(v)
            cruise_time = (x - ramp_len) / v
            peak = v
        else:
            # Track shorter than the LIM: the cart never reaches top speed.
            peak = motor.top_speed_for_length(x)
            accel_time = motor.ramp_time(peak)
            cruise_time = 0.0
        return MotionProfile(
            track_length=x,
            peak_speed=peak,
            accel_time=accel_time,
            cruise_time=cruise_time,
            decel_time=0.0,
            model=profile,
        )

    # exact trapezoid / triangle
    if x >= 2.0 * ramp_len:
        accel_time = decel_time = motor.ramp_time(v)
        cruise_time = (x - 2.0 * ramp_len) / v
        peak = v
    else:
        peak = motor.top_speed_for_length(x / 2.0)
        accel_time = decel_time = motor.ramp_time(peak)
        cruise_time = 0.0
    return MotionProfile(
        track_length=x,
        peak_speed=peak,
        accel_time=accel_time,
        cruise_time=cruise_time,
        decel_time=decel_time,
        model=profile,
    )


def trip_time(params: DhlParams, profile: str = "paper") -> float:
    """End-to-end one-way trip time: undock + motion + dock."""
    return params.handling_time + motion_profile(params, profile).motion_time


# --------------------------------------------------------------------------
# Energy
# --------------------------------------------------------------------------


def launch_energy(params: DhlParams, include_drag: bool = False) -> float:
    """Electrical energy for one launch-and-stop of a cart.

    The paper's pessimistic accounting: braking with the LIM costs as much
    as accelerating, so ``E = 2 * 0.5 M v^2 / eta``.  Eddy-current brakes
    remove the braking term; regenerative braking refunds a fraction of
    the cart's kinetic energy.  Drag loss (negligible at the paper's
    operating points) may be added for sensitivity studies.
    """
    mass = cart_mass(params).total_kg
    motor = lim(params)
    peak = motion_profile(params).peak_speed
    accel_energy = motor.energy_to_accelerate(mass, peak)
    kinetic = 0.5 * mass * (peak * peak)

    if params.braking == BrakingMode.LIM:
        brake_energy = accel_energy
    elif params.braking == BrakingMode.EDDY:
        brake_energy = 0.0
    else:  # regenerative
        brake_energy = accel_energy - params.regen_recovery * kinetic

    total = accel_energy + brake_energy
    if include_drag:
        total += drag_loss(mass, params.track_length)
    return total


def peak_launch_power(params: DhlParams) -> float:
    """Peak electrical power during a launch (Table VI's kW column)."""
    mass = cart_mass(params).total_kg
    return lim(params).peak_power(mass, motion_profile(params).peak_speed)


def average_trip_power(params: DhlParams, profile: str = "paper") -> float:
    """Launch energy averaged over the whole trip (incl. dock handling).

    For the default design this is ~1.75 kW, the power budget used in the
    paper's Table VII iso-power comparison.
    """
    return launch_energy(params) / trip_time(params, profile)


def drag_loss(
    mass_kg: float,
    track_length: float,
    lift_to_drag: float = PESSIMISTIC_LIFT_TO_DRAG,
    downward_force_accel: float = 0.0,
) -> float:
    """Energy lost to magnetic drag while coasting: L_d = (g + 2 c2) M x / c1.

    ``downward_force_accel`` is c2, the acceleration equivalent of the
    bottom Halbach array's downward force; the paper drives it to ~0 by
    riding the cart low on the rail.
    """
    assert_positive("mass_kg", mass_kg)
    assert_positive("track_length", track_length)
    assert_positive("lift_to_drag", lift_to_drag)
    if downward_force_accel < 0:
        raise PhysicsError(f"c2 must be >= 0, got {downward_force_accel}")
    return (GRAVITY + 2.0 * downward_force_accel) * mass_kg * track_length / lift_to_drag


def drag_fraction_of_launch(params: DhlParams) -> float:
    """Drag loss relative to launch energy — the paper argues this is
    negligible at high speed and short rail (validated in tests)."""
    return drag_loss(cart_mass(params).total_kg, params.track_length) / launch_energy(params)


# --------------------------------------------------------------------------
# Vacuum
# --------------------------------------------------------------------------

ROUGH_VACUUM_PRESSURE_PA: float = 100.0
"""1 millibar, the paper's rough-vacuum operating point."""

TUBE_CROSS_SECTION_M2: float = 0.04
"""A ~20 cm square bore — 'small cross-section area' per Section IV-B."""

PUMP_BASE_POWER_W_PER_M3: float = 50.0
"""Sustaining power per evacuated cubic metre at rough vacuum; roughing
pumps hold 1 mbar in a tight tube with tens of watts per m^3."""


def vacuum_sustain_power(track_length: float,
                         cross_section_m2: float = TUBE_CROSS_SECTION_M2) -> float:
    """Steady-state pump power to hold the tube at rough vacuum (watts).

    For the default 500 m tube this is ~1 kW — small next to the 75 kW
    launch peaks, supporting the paper's 'minimal power' claim.
    """
    assert_positive("track_length", track_length)
    assert_positive("cross_section_m2", cross_section_m2)
    return track_length * cross_section_m2 * PUMP_BASE_POWER_W_PER_M3


def air_drag_power(speed: float, pressure_pa: float = ROUGH_VACUUM_PRESSURE_PA,
                   frontal_area_m2: float = 0.01, drag_coefficient: float = 1.0) -> float:
    """Aerodynamic drag power at reduced pressure (watts).

    Density scales linearly with pressure from sea level (101325 Pa,
    1.225 kg/m^3).  At 1 mbar and 200 m/s this is tens of watts —
    negligible, as the paper assumes.
    """
    assert_positive("speed", speed)
    assert_positive("pressure_pa", pressure_pa)
    density = 1.225 * pressure_pa / 101325.0
    drag_force = 0.5 * density * speed**2 * frontal_area_m2 * drag_coefficient
    return drag_force * speed


# --------------------------------------------------------------------------
# Vectorised kernels
# --------------------------------------------------------------------------
#
# Array twins of the scalar models above, used by the design-point sweep
# and the batched analysis layers (``repro.core.model`` batch builders,
# ``repro.core.sensitivity``, ``repro.core.breakeven``,
# ``repro.core.optimizer``).  Every kernel performs the *same* floating-
# point operations in the *same* order as its scalar twin, so results
# are bit-identical element for element — a property the test suite
# asserts, and the reason every sweep may run the vectorised path in
# place of the scalar one.
#
# All kernels accept scalars or broadcastable numpy arrays and return
# ``numpy.ndarray`` (float64).

_BRAKE_CODES: dict[str, int] = {
    BrakingMode.LIM: 0,
    BrakingMode.EDDY: 1,
    BrakingMode.REGENERATIVE: 2,
}
"""Integer encoding of :class:`BrakingMode` for array-valued kernels."""


def brake_codes(modes) -> np.ndarray:
    """Encode a sequence of braking-mode strings for the energy kernel."""
    try:
        return np.asarray([_BRAKE_CODES[mode] for mode in modes], dtype=np.int64)
    except KeyError as exc:  # pragma: no cover - guarded upstream by DhlParams
        raise PhysicsError(f"unknown braking mode {exc.args[0]!r}") from exc


def cart_total_mass_kernel(
    ssd_mass_kg,
    frame_mass_kg: float = FRAME_MASS_KG,
    magnet_fraction: float = MAGNET_MASS_FRACTION,
    fin_fraction: float = FIN_MASS_FRACTION,
) -> np.ndarray:
    """Array twin of :class:`CartMass`: total cart mass from SSD payload mass."""
    ssd_mass_kg = np.asarray(ssd_mass_kg, dtype=np.float64)
    payload_fraction = 1.0 - magnet_fraction - fin_fraction
    if payload_fraction <= 0:
        raise PhysicsError(
            "magnet and fin fractions leave no mass budget for the payload"
        )
    return (ssd_mass_kg + frame_mass_kg) / payload_fraction


def motion_kernel(max_speed, track_length, acceleration, profile: str = "paper"):
    """Array twin of :func:`motion_profile`.

    Returns ``(peak_speed, accel_time, cruise_time, decel_time)`` arrays.
    Short tracks degrade to triangular profiles exactly as in the scalar
    model, resolved with ``np.where`` over both branches.
    """
    if profile not in ("paper", "exact"):
        raise PhysicsError(f"unknown profile {profile!r}; expected 'paper' or 'exact'")
    v = np.asarray(max_speed, dtype=np.float64)
    x = np.asarray(track_length, dtype=np.float64)
    a = np.asarray(acceleration, dtype=np.float64)
    ramp_len = v * v / (2.0 * a)

    with np.errstate(divide="ignore", invalid="ignore"):
        if profile == "paper":
            reaches_top = x >= ramp_len
            short_peak = np.sqrt(2.0 * a * x)
            peak = np.where(reaches_top, v, short_peak)
            accel_time = np.where(reaches_top, v / a, short_peak / a)
            cruise_time = np.where(reaches_top, (x - ramp_len) / v, 0.0)
            decel_time = np.zeros_like(peak)
        else:
            reaches_top = x >= 2.0 * ramp_len
            short_peak = np.sqrt(2.0 * a * (x / 2.0))
            peak = np.where(reaches_top, v, short_peak)
            accel_time = np.where(reaches_top, v / a, short_peak / a)
            cruise_time = np.where(reaches_top, (x - 2.0 * ramp_len) / v, 0.0)
            decel_time = accel_time
    return peak, accel_time, cruise_time, decel_time


def trip_time_kernel(
    max_speed, track_length, acceleration, handling_time, profile: str = "paper"
) -> np.ndarray:
    """Array twin of :func:`trip_time`: undock + motion + dock, per element."""
    _, accel_time, cruise_time, decel_time = motion_kernel(
        max_speed, track_length, acceleration, profile
    )
    return np.asarray(handling_time, dtype=np.float64) + (
        accel_time + cruise_time + decel_time
    )


def launch_energy_kernel(
    mass_kg,
    peak_speed,
    efficiency,
    brake_code=_BRAKE_CODES[BrakingMode.LIM],
    regen_recovery=0.0,
) -> np.ndarray:
    """Array twin of :func:`launch_energy` (drag excluded, as in Table VI).

    ``brake_code`` follows :func:`brake_codes`; ``regen_recovery`` is only
    read where the code selects regenerative braking.
    """
    mass_kg = np.asarray(mass_kg, dtype=np.float64)
    peak = np.asarray(peak_speed, dtype=np.float64)
    efficiency = np.asarray(efficiency, dtype=np.float64)
    code = np.asarray(brake_code, dtype=np.int64)
    regen = np.asarray(regen_recovery, dtype=np.float64)
    accel_energy = 0.5 * mass_kg * (peak * peak) / efficiency
    kinetic = 0.5 * mass_kg * (peak * peak)
    brake_energy = np.where(
        code == _BRAKE_CODES[BrakingMode.LIM],
        accel_energy,
        np.where(
            code == _BRAKE_CODES[BrakingMode.EDDY],
            0.0,
            accel_energy - regen * kinetic,
        ),
    )
    return accel_energy + brake_energy


def peak_power_kernel(mass_kg, acceleration, peak_speed, efficiency) -> np.ndarray:
    """Array twin of :func:`peak_launch_power`: M a v / eta at ramp end."""
    mass_kg = np.asarray(mass_kg, dtype=np.float64)
    return (
        mass_kg
        * np.asarray(acceleration, dtype=np.float64)
        * np.asarray(peak_speed, dtype=np.float64)
        / np.asarray(efficiency, dtype=np.float64)
    )
