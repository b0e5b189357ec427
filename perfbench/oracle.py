"""Independent references for the benchmark's output checks.

Nothing here imports the package. The scenes are re-drawn from an experiment
config by the harness's documented stream protocol, and every subset is scored
with its own P x P solve, so a check built on this module does not share code
with the program it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TIE_BAND = 1e-12
_PART_CODE = {"train": 0, "test": 1}
_DOA_CLAMP = (0.5, 179.5)


def steering(n: int, doa_deg: float, spacing: float = 0.5) -> np.ndarray:
    return np.exp(1j * 2.0 * np.pi * spacing * math.cos(math.radians(doa_deg)) * np.arange(n))


def drawn_scenes(cfg: dict, part: str):
    """Yield (desired_doa, desired_power, [(doa, power), ...], noise) per record.

    One stream per (seed, part, look): interferer count, angles from the grid
    without the look direction, INRs, then a perturbation seed (desired DOA
    first, then each interferer, Gaussian in degrees, clamped) and a feature
    seed, in that order.
    """
    noise = cfg["noise_power"]
    n_items = cfg["n_train_per_look"] if part == "train" else cfg["n_test_per_look"]
    lo, hi = cfg["n_interferers_range"]
    start, stop, step = cfg["interferer_grid_deg"]
    std = math.sqrt(cfg["doa_variance_deg2"])
    for look_idx, look in enumerate(cfg["look_doas_deg"]):
        rng = np.random.default_rng((cfg["seed"], _PART_CODE[part], look_idx))
        grid = np.arange(start, stop + 0.5 * step, step)
        grid = grid[np.abs(grid - look) > 1e-9]
        for _ in range(n_items):
            n_int = int(rng.integers(lo, hi + 1))
            doas = np.sort(rng.choice(grid, size=n_int, replace=False)) if n_int else []
            inrs = rng.uniform(*cfg["inr_db_range"], size=n_int)
            nominal = [float(look)] + [float(d) for d in doas]
            if std > 0:
                while True:
                    jitter = np.random.default_rng(int(rng.integers(0, 2**63)))
                    moved = [float(np.clip(d + float(jitter.normal(0.0, std)), *_DOA_CLAMP))
                             for d in nominal]
                    if len(set(moved)) == len(moved):
                        break
            else:
                moved = nominal
            rng.integers(0, 2**63)  # feature seed
            yield (moved[0], noise * 10.0 ** (cfg["snr_db"] / 10.0),
                   [(d, noise * 10.0 ** (float(i) / 10.0)) for d, i in zip(moved[1:], inrs)],
                   noise)


def matrices(n: int, desired_doa: float, desired_power: float, interferers, noise):
    """(steering vector, R_interference+noise, R_total) of one exact scene."""
    s = steering(n, desired_doa)
    r_sn = noise * np.eye(n, dtype=complex)
    for doa, power in interferers:
        v = steering(n, doa)
        r_sn = r_sn + power * np.outer(v, v.conj())
    return s, r_sn, r_sn + desired_power * np.outer(s, s.conj())


def all_subset_sinrs(n: int, p: int, scene) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every P-subset in lexicographic order with its optimum output SINR.

    SINR_J = sigma_d^2 * s_J^H (R_sn,J)^-1 s_J, one P x P solve per subset
    (stacked into a single batched call).
    """
    desired_doa, desired_power, interferers, noise = scene
    s, r_sn, _ = matrices(n, desired_doa, desired_power, interferers, noise)
    subsets = list(itertools.combinations(range(n), p))
    idx = np.array(subsets)
    s_j = s[idx]
    x = np.linalg.solve(r_sn[idx[:, :, None], idx[:, None, :]], s_j[:, :, None])[:, :, 0]
    return subsets, desired_power * np.sum(s_j.conj() * x, axis=1).real


def mask_subset(bits: str) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(bits) if c == "1")
