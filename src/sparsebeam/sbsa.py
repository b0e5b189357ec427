"""Spectral-overlap sensor selection (greedy, multi-start).

A configuration is judged by how much the masked desired-source spatial
spectrum overlaps each masked interferer spectrum: the objective is the
bin-wise product of the two power spectra summed over DFT bins and
interferers, weighted by the source powers. The spectrum of a masked signal
z * v is the K-point DFT of its conjugate-symmetric deterministic
autocorrelation, which for DFT length K >= 2N-1 (no lag aliasing) equals
|DFT_K(z * v)|^2 (Wiener-Khinchin).

On a uniform grid with unit-modulus steering vectors v[n] = exp(j*psi*n)
that autocorrelation is c_d(z) * exp(j*psi*d), where c_d(z) is the mask's
integer lag count (`selection_autocorrelation`). Parseval then turns the
bin sum into a lag sum: for K >= 2N-1,

    sum_f |DFT_K(z*v_s)|^2 |DFT_K(z*v_l)|^2
        = K * sum_{|d|<N} c_d(z)^2 cos(d (psi_s - psi_l)),

so the objective is the squared lag counts of a mask times a length-N
per-scene weight vector; no spectrum is ever formed (the bin-by-bin
product is the test suite's reference). Two masks with equal lag counts
(a mask, its mirror image and its translations on the grid) therefore get
bit-identical objectives. K only scales the objective, so the greedy picks
and the sweep order are the same for every K >= 2N-1 (up to rounding of
the scaled values); the DFT length remains as that scale and as the check
that the spectra do not alias.

Greedy selection adds one sensor at a time, minimizing the objective over
the unselected grid locations; one pass is run per starting location and
the configuration with the best output SINR wins. Each step holds every
start's candidate masks at once, starts x (N-1) masks of N cells at the
first step, which the `sbsa` command charges to the enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import beamformer, scene
from .beamformer import REL_TIE_TOL, Sinr, validate_mask


def next_pow2(n: int) -> int:
    k = 1
    while k < n:
        k *= 2
    return k


def default_dft_length(n_grid: int) -> int:
    return 2 * next_pow2(n_grid)


def _check_dft_length(k: int, n_grid: int) -> int:
    """Return `k`, or raise ValueError when K < 2N-1 would alias the autocorrelation."""
    if k < 2 * n_grid - 1:
        raise ValueError(f"dft_length {k} < 2N-1 = {2 * n_grid - 1} aliases the autocorrelation")
    return k


@dataclass(frozen=True)
class SbsaConfig:
    """Knobs for the greedy search.

    dft_length None means 2 * next_pow2(N); n_starts None means one start per
    grid location (deterministic and exhaustive). When n_starts is below N the
    starts are drawn without replacement using rng_seed.
    """

    dft_length: int | None = None
    n_starts: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_starts is not None and self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")

    def resolve_dft_length(self, n_grid: int) -> int:
        k = self.dft_length if self.dft_length is not None else default_dft_length(n_grid)
        return _check_dft_length(k, n_grid)

    def resolve_starts(self, n_grid: int) -> list[int]:
        if self.n_starts is None or self.n_starts >= n_grid:
            return list(range(n_grid))
        rng = np.random.default_rng(self.rng_seed)
        return sorted(rng.choice(n_grid, size=self.n_starts, replace=False).tolist())


def selection_autocorrelation(mask) -> np.ndarray:
    """Lag redundancy of a selection mask: integer counts for lags -(N-1)..N-1.

    counts[N-1+k] is the number of active sensor pairs separated by k grid
    units; the center entry (lag 0) equals P and the counts sum to P^2.
    """
    z = validate_mask(mask)
    return np.correlate(z, z, mode="full")


def lag_counts(masks: np.ndarray) -> np.ndarray:
    """Lag counts c_0..c_{N-1} of each 0/1 mask row (float, exact integers).

    Row i equals the lags 0..N-1 half of `selection_autocorrelation(masks[i])`.
    """
    z = np.atleast_2d(np.asarray(masks, dtype=float))
    n = z.shape[1]
    counts = np.empty((z.shape[0], n))
    for d in range(n):
        counts[:, d] = np.einsum("ij,ij->i", z[:, d:], z[:, :n - d])
    return counts


def omega_batch(masks: np.ndarray, geom, scn, dft_length: int) -> np.ndarray:
    """Spectral-overlap objective for each mask row (shared scenario).

    Computed in the lag domain (see the module docstring), which assumes a
    uniform grid and unit-modulus steering vectors:
    K * p_s * sum_d c_d(z)^2 * w_d with w_0 = sum_l p_l and
    w_d = 2 * sum_l p_l * cos(d * (psi_s - psi_l)) for d >= 1, psi being
    each source's `scene.phase_step`. The result equals the K-bin spectral
    product for every K >= 2N-1, in which K is only a factor, and depends on
    a mask only through its lag counts, so mirrored and translated masks
    score bit-identically.
    """
    masks = np.atleast_2d(np.asarray(masks))
    m, n = masks.shape
    if n != geom.n_grid:
        raise ValueError("mask length must equal the grid size")
    k = _check_dft_length(dft_length, n)
    if scn.n_interferers == 0:
        return np.zeros(m)

    lags = np.arange(n)
    weights = np.zeros(n)
    psi_s = scene.phase_step(geom, scn.desired.doa_deg)
    for src in scn.interferers:
        weights += src.power * np.cos(lags * (psi_s - scene.phase_step(geom, src.doa_deg)))
    weights[1:] *= 2.0  # lags -d and +d
    weights *= k * scn.desired.power

    counts = lag_counts(masks)
    counts *= counts
    # one column at a time, so every row sums its lags in the same order and
    # equal lag counts give bit-equal objectives in any batch
    total = counts[:, 0] * weights[0]
    for d in range(1, n):
        total += counts[:, d] * weights[d]
    return total


def omega(mask, geom, scn, dft_length: int | None = None) -> float:
    """Spectral overlap of one configuration; zero when there is no interferer."""
    z = validate_mask(mask, n_grid=geom.n_grid)
    k = dft_length if dft_length is not None else default_dft_length(geom.n_grid)
    return float(omega_batch(z[None, :], geom, scn, k)[0])


@dataclass
class StartTrace:
    """One greedy pass: the start index, (chosen index, objective) per step,
    and the completed configuration with its SINR."""

    start: int
    steps: list[tuple[int, float]]
    mask: np.ndarray
    sinr: Sinr


@dataclass
class SbsaResult:
    mask: np.ndarray
    weights: np.ndarray
    sinr: Sinr
    starts: list[StartTrace] = field(default_factory=list)


def sbsa_select(geom, scn, p: int, cfg: SbsaConfig | None = None) -> SbsaResult:
    """Greedy spectral-overlap selection with multi-start SINR ranking.

    Every start places one seed sensor, then grows the set one location at a
    time, choosing the unselected grid point of minimum objective (ties to the
    lowest index). The completed configurations are ranked by exact output
    SINR and the winner's MaxSINR weights are computed on its subarray.
    """
    n = geom.n_grid
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= N, got P={p}, N={n}")
    cfg = cfg or SbsaConfig()
    k = cfg.resolve_dft_length(n)
    starts = cfg.resolve_starts(n)

    n_s = len(starts)
    rows = np.arange(n_s)
    chosen = np.zeros((n_s, n), dtype=bool)
    chosen[rows, starts] = True
    picks = np.empty((n_s, p - 1), dtype=np.intp)
    objs = np.empty((n_s, p - 1))
    for step in range(p - 1):
        n_cand = n - 1 - step
        # row-major nonzero keeps each start's candidates in ascending order
        cand = np.nonzero(~chosen)[1].reshape(n_s, n_cand)
        masks = np.repeat(chosen[:, None, :], n_cand, axis=1)
        masks[rows[:, None], np.arange(n_cand), cand] = True
        vals = omega_batch(masks.reshape(-1, n), geom, scn, k).reshape(n_s, n_cand)
        # tie band: mirror-symmetric candidates produce equal objectives up
        # to rounding; take the lowest grid index among near-ties
        floor = vals.min(axis=1, keepdims=True)
        j = np.argmax(vals <= floor + REL_TIE_TOL * np.maximum(np.abs(floor), 1.0), axis=1)
        picks[:, step] = cand[rows, j]
        objs[:, step] = vals[rows, j]
        chosen[rows, picks[:, step]] = True

    sinrs = beamformer.subset_sinr_batch(beamformer.scene_terms(geom, scn), chosen)

    best = 0
    for si in range(1, n_s):
        if sinrs[si] > sinrs[best] * (1.0 + REL_TIE_TOL):
            best = si

    traces = [
        StartTrace(start=starts[si], steps=list(zip(picks[si].tolist(), objs[si].tolist())),
                   mask=chosen[si].astype(int), sinr=Sinr(float(sinrs[si])))
        for si in range(n_s)
    ]
    best_mask = traces[best].mask
    r_s, _, r_xx = scene.correlation_matrices(geom, scn)
    weights = beamformer.max_sinr_weights(r_s, r_xx, mask=best_mask)
    return SbsaResult(mask=best_mask, weights=weights, sinr=traces[best].sinr, starts=traces)
