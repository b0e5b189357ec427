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

import functools

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
    steering = scene.steering_matrix(geom, [src.doa_deg for src in sources])
    x = np.zeros((t, n), dtype=complex)
    for src, v in zip(sources, steering):
        symbols = rng.integers(0, 2, size=t) * 2 - 1
        amps = symbols * np.sqrt(src.power)
        x += amps[:, None] * v[None, :]
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


@functools.lru_cache(maxsize=4)
def _diagonal_pairs(n: int):
    """Read-only index tables of toeplitz_average for an (n, n) matrix.

    gather: flat indices of every diagonal pair, k = 0 .. n-1, each the k-th
    superdiagonal and then the k-th subdiagonal (n(n+1) entries in all);
    lower: True on the subdiagonal half of each pair; first: the position
    in gather where each entry's pair starts; starts / lengths: where each
    pair starts and its 2(n-k) entries, also as slices; source: for every
    cell of the result, k on and above the diagonal and n + k below it.
    """
    lengths = 2 * np.arange(n, 0, -1, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    k = np.repeat(np.arange(n), lengths)
    first = starts[k]
    d = np.arange(k.size) - first
    lower = d >= n - k
    d = np.where(lower, d - (n - k), d)
    gather = np.where(lower, (d + k) * n + d, d * n + d + k)
    i, j = np.indices((n, n))
    source = np.where(j >= i, j - i, n + i - j)
    for t in (gather, lower, first, starts, lengths, source):
        t.flags.writeable = False
    slices = tuple(slice(a, a + m) for a, m in zip(starts.tolist(), lengths.tolist()))
    return gather, lower, first, starts, lengths, slices, source


def toeplitz_average(r: np.ndarray) -> np.ndarray:
    """Replace each diagonal by its mean, keeping the matrix Hermitian.

    Averages the k-th superdiagonal together with the conjugate of the k-th
    subdiagonal and writes the mean back to both (its conjugate below the
    diagonal; the main diagonal keeps the real part, with imaginary part
    -0.0). A pair whose entries all compare equal keeps its first entry, so
    a matrix that is already Hermitian Toeplitz is returned unchanged, bit
    for bit apart from the sign of its diagonal's zero imaginary parts.

    The input is cast to complex128 once. Every pair is gathered in one take
    through the cached flat index of _diagonal_pairs, and each mean is formed
    the way np.mean forms it, so its bits equal np.mean's: one np.add.reduce
    over the pair's contiguous entries, which is numpy's pairwise sum, then
    one division of all the sums by the pair lengths. np.add.reduceat is not
    used: it sums each segment left to right, not pairwise.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("expected a square matrix")
    n = r.shape[0]
    gather, lower, first, starts, lengths, slices, source = _diagonal_pairs(n)
    vals = r.take(gather)
    np.conjugate(vals, out=vals, where=lower)
    same = np.logical_and.reduceat(vals == vals[first], starts)
    sums = np.array([np.add.reduce(vals[s]) for s in slices])
    mean = np.where(same, vals[starts], sums / lengths)
    both = np.concatenate([mean, mean.conj()])
    both.imag[:1] = -0.0  # the diagonal holds conj(real mean)
    return both[source]


def perturb_scenario(scn, doa_variance_deg2: float, seed: int):
    """Scenario copy with Gaussian-jittered DOAs (variance in squared
    degrees), clamped to (0.5, 179.5) deg.

    Jitter is drawn for the desired source first, then each interferer in
    order, in one rng.normal call.
    """
    if doa_variance_deg2 < 0:
        raise ValueError("variance must be >= 0")
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(doa_variance_deg2))
    sources = (scn.desired, *scn.interferers)
    doas = np.array([src.doa_deg for src in sources]) + rng.normal(0.0, std, size=len(sources))
    moved = [scene.SourceSpec(doa, src.power)
             for doa, src in zip(np.clip(doas, *_DOA_CLAMP).tolist(), sources)]
    return scene.Scenario(moved[0], tuple(moved[1:]), scn.noise_power)
