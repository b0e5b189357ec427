"""Array geometry, source scenarios, and exact (asymptotic) correlation matrices.

Conventions: DOAs are degrees in the open interval (0, 180), measured from the
array axis, so broadside is 90. Powers are linear inside the library; dB only
appears at file/CLI boundaries. The candidate sensor grid is uniform with
spacing d/lambda (default half wavelength).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np


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


def steering_matrix(geom: ArrayGeometry, doas_deg) -> np.ndarray:
    """(S, N) unit-modulus array responses, row s for a plane wave from
    doas_deg[s], all in one np.exp.

    Entry k of a row is exp(j * phase_step * k), k = 0..N-1, so the first
    entry is always 1.
    """
    phases = np.array([phase_step(geom, doa) for doa in doas_deg], dtype=float)
    return np.exp(1j * phases[:, None] * np.arange(geom.n_grid))


def steering_vector(geom: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """The steering_matrix row of one plane wave from `doa_deg`."""
    return steering_matrix(geom, (doa_deg,))[0]


def correlation_matrices(
    geom: ArrayGeometry, scn: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact correlation matrices (R_source, R_interference_plus_noise, R_total).

    R_source is the rank-1 outer product of the desired steering vector scaled
    by the source power; the interference-plus-noise matrix adds one rank-1
    term per interferer plus noise_power * I. The total is their sum, exactly.
    """
    s, *vs = steering_matrix(geom, [scn.desired.doa_deg,
                                    *(src.doa_deg for src in scn.interferers)])
    r_s = scn.desired.power * np.outer(s, s.conj())
    r_sn = scn.noise_power * np.eye(geom.n_grid, dtype=complex)
    for src, v in zip(scn.interferers, vs):
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


def check_real(name: str, value) -> float:
    """`value` as a float; ValueError naming `name` unless it is a finite number."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) \
                and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{name}: expected a finite number, got {value!r}")


_SCENARIO_KEYS = ("desired_doa_deg", "snr_db", "interferer_doas_deg", "inr_db", "noise_power")


def scenario_from_dict(doc: dict) -> Scenario:
    """The Scenario of a scenario_to_dict document, checked like an experiment
    config: a malformed document is a ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError("a scenario must be a JSON object")
    unknown = set(doc) - set(_SCENARIO_KEYS)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    missing = [key for key in _SCENARIO_KEYS[:2] if key not in doc]
    if missing:
        raise ValueError(f"missing scenario keys: {missing}")
    doas, inrs = (doc.get(key, []) for key in _SCENARIO_KEYS[2:4])
    if not (isinstance(doas, list) and isinstance(inrs, list) and len(doas) == len(inrs)):
        raise ValueError("interferer_doas_deg and inr_db must be lists of equal length")
    noise_power = check_real("noise_power", doc.get("noise_power", 1.0))
    desired = SourceSpec(
        doa_deg=check_real("desired_doa_deg", doc["desired_doa_deg"]),
        power=db_power(noise_power, check_real("snr_db", doc["snr_db"])),
    )
    interferers = tuple(
        SourceSpec(doa_deg=check_real("interferer_doas_deg", d),
                   power=db_power(noise_power, check_real("inr_db", i)))
        for d, i in zip(doas, inrs)
    )
    return Scenario(desired=desired, interferers=interferers, noise_power=noise_power)


def load_scenario(path) -> Scenario:
    """scenario_from_dict of a JSON file; a ValueError names the file."""
    try:
        with open(path) as f:
            return scenario_from_dict(json.load(f))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
