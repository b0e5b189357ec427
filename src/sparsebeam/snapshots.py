"""Finite-sample snapshot simulation and covariance estimation.

Sources transmit independent BPSK symbols (+/-1 scaled by the square root of
the source power); sensor noise is circular complex Gaussian. Snapshots are
always generated on the full N-element grid; selection happens downstream by
masking rows of the estimated covariance. Includes Toeplitz averaging of the
sample covariance and small Gaussian perturbation of scenario DOAs for
building training sets that do not sit exactly on the nominal look angles.
Snapshots live only in memory: there is no snapshot file format, and every
run re-simulates them from its seed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import scene

_DOA_CLAMP = (0.5, 179.5)


def simulate_snapshots(geom, scn, n_snapshots: int, seed: int) -> np.ndarray:
    """(T, N) complex snapshot matrix for one scenario.

    Draw order is fixed (desired symbols, then each interferer's in scenario
    order, then noise) so a given seed pins the exact realization regardless
    of downstream use.
    """
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be >= 1")
    rng = np.random.default_rng(seed)
    t, n = n_snapshots, geom.n_grid

    sources = [scn.desired, *scn.interferers]
    x = np.zeros((t, n), dtype=complex)
    for src in sources:
        symbols = rng.integers(0, 2, size=t) * 2 - 1
        amps = symbols * np.sqrt(src.power)
        x += amps[:, None] * scene.steering_vector(geom, src.doa_deg)[None, :]
    sigma = np.sqrt(scn.noise_power / 2.0)
    noise = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
    return x + sigma * noise


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Hermitian (N, N) estimate R = X^H X / T (outer products of snapshots)."""
    x = np.asarray(snapshots)
    if x.ndim != 2:
        raise ValueError("snapshots must be a (T, N) matrix")
    t = x.shape[0]
    r = x.T @ x.conj() / t
    return 0.5 * (r + r.conj().T)


def toeplitz_average(r: np.ndarray) -> np.ndarray:
    """Replace each diagonal by its mean, keeping the matrix Hermitian.

    Averages the k-th superdiagonal together with the conjugate of the k-th
    subdiagonal, writes the mean back to both. A matrix that is already
    Hermitian Toeplitz is returned bit-exactly unchanged.
    """
    r = np.asarray(r)
    n = r.shape[0]
    if r.shape != (n, n):
        raise ValueError("expected a square matrix")
    out = np.empty_like(r, dtype=complex)
    for k in range(n):
        upper = np.diagonal(r, offset=k)
        lower = np.diagonal(r, offset=-k)
        vals = np.concatenate([upper, lower.conj()])
        if np.all(vals == vals[0]):
            mean = vals[0]
        else:
            mean = np.mean(vals)
        if k == 0:
            mean = complex(mean.real, 0.0)
        idx = np.arange(n - k)
        out[idx, idx + k] = mean
        out[idx + k, idx] = np.conj(mean)
    return out


def perturb_scenario(scn, doa_variance_deg2: float, seed: int):
    """Scenario copy with Gaussian-jittered DOAs (variance in squared
    degrees), clamped to (0.5, 179.5) deg.

    Jitter is drawn for the desired source first, then each interferer in
    order.
    """
    if doa_variance_deg2 < 0:
        raise ValueError("variance must be >= 0")
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(doa_variance_deg2))

    def jitter(doa):
        return float(np.clip(doa + float(rng.normal(0.0, std)), *_DOA_CLAMP))

    desired = replace(scn.desired, doa_deg=jitter(scn.desired.doa_deg))
    interferers = tuple(replace(src, doa_deg=jitter(src.doa_deg)) for src in scn.interferers)
    return replace(scn, desired=desired, interferers=interferers)
