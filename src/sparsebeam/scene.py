"""Array geometry, source scenarios, and exact (asymptotic) correlation matrices.

Conventions: DOAs are degrees in the open interval (0, 180), measured from the
array axis, so broadside is 90. Powers are linear inside the library; dB only
appears at file/CLI boundaries. The candidate sensor grid is uniform with
spacing d/lambda (default half wavelength).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear grid of candidate sensor locations."""

    n_grid: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if int(self.n_grid) != self.n_grid or self.n_grid < 2:
            raise ValueError(f"n_grid must be an integer >= 2, got {self.n_grid}")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")


@dataclass(frozen=True)
class SourceSpec:
    """A point source: direction of arrival in degrees, linear power."""

    doa_deg: float
    power: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.doa_deg < 180.0:
            raise ValueError(f"doa_deg must lie strictly inside (0, 180), got {self.doa_deg}")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"source power must be positive and finite, got {self.power}")


@dataclass(frozen=True)
class Scenario:
    """A desired source plus independent interferers in white noise."""

    desired: SourceSpec
    interferers: tuple[SourceSpec, ...] = ()
    noise_power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ValueError(f"noise_power must be positive and finite, got {self.noise_power}")
        doas = [self.desired.doa_deg] + [s.doa_deg for s in self.interferers]
        if len(set(doas)) != len(doas):
            raise ValueError(f"all DOAs must be distinct, got {doas}")

    @property
    def n_interferers(self) -> int:
        return len(self.interferers)


def phase_step(geom: ArrayGeometry, doa_deg: float) -> float:
    """Phase advance per grid step, 2pi * (d/lambda) * cos(theta), of a plane
    wave from `doa_deg`."""
    if not 0.0 < doa_deg < 180.0:
        raise ValueError(f"doa_deg must lie strictly inside (0, 180), got {doa_deg}")
    return 2.0 * np.pi * geom.spacing_wavelengths * math.cos(math.radians(doa_deg))


def steering_vector(geom: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """Unit-modulus array response for a plane wave from `doa_deg`.

    Entry k is exp(j * phase_step * k), k = 0..N-1, so the first entry is
    always 1.
    """
    return np.exp(1j * phase_step(geom, doa_deg) * np.arange(geom.n_grid))


def correlation_matrices(
    geom: ArrayGeometry, scn: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact correlation matrices (R_source, R_interference_plus_noise, R_total).

    R_source is the rank-1 outer product of the desired steering vector scaled
    by the source power; the interference-plus-noise matrix adds one rank-1
    term per interferer plus noise_power * I. The total is their sum, exactly.
    """
    s = steering_vector(geom, scn.desired.doa_deg)
    r_s = scn.desired.power * np.outer(s, s.conj())
    r_sn = scn.noise_power * np.eye(geom.n_grid, dtype=complex)
    for src in scn.interferers:
        v = steering_vector(geom, src.doa_deg)
        r_sn += src.power * np.outer(v, v.conj())
    return r_s, r_sn, r_s + r_sn


# --- scenario (de)serialization ------------------------------------------
#
# Human-readable JSON document; powers are stored in dB relative to
# noise_power (default 1.0):
#   {"desired_doa_deg": 60.0, "snr_db": 0.0,
#    "interferer_doas_deg": [154.0, 55.0], "inr_db": [12.0, 17.5],
#    "noise_power": 1.0}


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        "desired_doa_deg": scn.desired.doa_deg,
        "snr_db": 10.0 * math.log10(scn.desired.power / scn.noise_power),
        "interferer_doas_deg": [s.doa_deg for s in scn.interferers],
        "inr_db": [10.0 * math.log10(s.power / scn.noise_power) for s in scn.interferers],
        "noise_power": scn.noise_power,
    }


def db_power(noise_power: float, db) -> float:
    """Linear power `db` decibels above `noise_power`; ValueError on overflow."""
    try:
        return noise_power * 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"power of {db} dB overflows a float") from None


def scenario_from_dict(doc: dict) -> Scenario:
    noise_power = float(doc.get("noise_power", 1.0))
    doas = list(doc.get("interferer_doas_deg", []))
    inrs = list(doc.get("inr_db", []))
    if len(doas) != len(inrs):
        raise ValueError("interferer_doas_deg and inr_db must have equal length")
    desired = SourceSpec(
        doa_deg=float(doc["desired_doa_deg"]),
        power=db_power(noise_power, doc["snr_db"]),
    )
    interferers = tuple(
        SourceSpec(doa_deg=float(d), power=db_power(noise_power, i))
        for d, i in zip(doas, inrs)
    )
    return Scenario(desired=desired, interferers=interferers, noise_power=noise_power)


def save_scenario(path, scn: Scenario):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(scn), f, indent=2)
        f.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))
