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
bit-identical objectives. K only scales the objective, so it is fixed at
K(N) = 2 * next_pow2(N) (`dft_length`), a power of two, which scales every
value exactly.

Greedy selection adds one sensor at a time, minimizing the objective over
the unselected grid locations; one pass is run from every grid location and
the exact subset scorer picks the configuration of best output SINR (its
MaxSINR weights are `beamformer.max_sinr_weights` on the mask). A step
builds no candidate mask: adding sensor j to a mask z raises its lag-d count
by z[j+d] + z[j-d] for d >= 1 and its lag-0 count by 1, so each candidate's
counts are its start's counts plus an increment read off the start's mask,
and `omega_batch` scores them against the scene's `overlap_weights`, built
once per scene. The counts are exact integers, so every objective is
bit-identical to scoring the candidate's mask through `lag_counts`. The first
step holds N starts x (N-1) candidates of N float64 lag counts and two int8
increment tables, 10 N bytes a candidate (160 MiB at N = 256), which
`sbsa_select` charges to the budget; `omega_batch` adds at most one
enumeration block (16 MiB) of scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import beamformer, enumeration, scene
from .beamformer import REL_TIE_TOL, Sinr, validate_mask

# bytes a greedy candidate holds per grid location: a float64 lag count and
# one cell of each int8 increment table
_STEP_BYTES_PER_LAG = 10


def dft_length(n_grid: int) -> int:
    """K(N) = 2 * next_pow2(N) >= 2N-1, the DFT length that scales the objective."""
    return 2 << (n_grid - 1).bit_length()


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
    The (rows, N) result is the transpose of a lag-major array, so each lag's
    column is contiguous.
    """
    z = np.atleast_2d(np.asarray(masks, dtype=float))
    n = z.shape[1]
    counts = np.empty((n, z.shape[0]))
    for d in range(n):
        counts[d] = np.einsum("ij,ij->i", z[:, d:], z[:, :n - d])
    return counts.T


def overlap_weights(geom, scn) -> np.ndarray:
    """Per-lag weights w_0..w_{N-1} of one scene's overlap objective.

    Built in the lag domain (see the module docstring), which assumes a
    uniform grid and unit-modulus steering vectors: K * p_s * w_d with
    w_0 = sum_l p_l and w_d = 2 * sum_l p_l * cos(d * (psi_s - psi_l)) for
    d >= 1, psi being each source's `scene.phase_step` and K = dft_length(N).
    All zero when there is no interferer.
    """
    n = geom.n_grid
    weights = np.zeros(n)
    if scn.n_interferers == 0:
        return weights
    lags = np.arange(n)
    psi_s = scene.phase_step(geom, scn.desired.doa_deg)
    for src in scn.interferers:
        weights += src.power * np.cos(lags * (psi_s - scene.phase_step(geom, src.doa_deg)))
    weights[1:] *= 2.0  # lags -d and +d
    weights *= dft_length(n) * scn.desired.power
    return weights


def omega_batch(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Spectral-overlap objective sum_d c_d^2 * w_d of each row of lag counts
    (`lag_counts`) under one scene's `overlap_weights`.

    The result equals the K-bin spectral product and depends on a mask only
    through its lag counts, so mirrored and translated masks score
    bit-identically. The lags are summed one column at a time, so every row
    adds them in the same order and equal counts give bit-equal objectives in
    any batch. Rows are weighted in blocks of at most one enumeration block
    of cells, so the scratch stays bounded.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    m, n = counts.shape
    if n != len(weights):
        raise ValueError(f"{n} lag counts per row, but {len(weights)} lag weights")
    total = np.empty(m)
    rows = max(1, enumeration._BLOCK_CELLS // n)
    scratch = np.empty((n, min(rows, m)))
    for lo in range(0, m, rows):
        block = counts[lo:lo + rows].T
        # lag-major: terms[d] is c_d^2 * w_d of every row in the block
        terms = scratch[:, :block.shape[1]]
        np.multiply(block, block, out=terms)
        terms *= weights[:, None]
        out = total[lo:lo + rows]
        out[:] = terms[0]
        for d in range(1, n):
            out += terms[d]
    return total


def omega(mask, geom, scn) -> float:
    """Spectral overlap of one configuration; zero when there is no interferer."""
    z = validate_mask(mask, n_grid=geom.n_grid)
    return float(omega_batch(lag_counts(z), overlap_weights(geom, scn))[0])


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
    sinr: Sinr
    starts: list[StartTrace] = field(default_factory=list)


def sbsa_select(geom, scn, p: int,
                budget: int = enumeration.DEFAULT_BUDGET) -> SbsaResult:
    """Greedy spectral-overlap selection with multi-start SINR ranking.

    One start per grid location places that seed sensor, then grows the set
    one location at a time, choosing the unselected grid point of minimum
    objective (ties to the lowest index). The completed configurations are
    ranked by exact output SINR. A step scores each candidate from its lag
    counts, the start's counts plus the candidate's increments (see the
    module docstring). The first step's N starts x (N-1) candidates, of
    _STEP_BYTES_PER_LAG * N bytes each, are charged to `budget` before any
    is built; BudgetExceededError if they do not fit.
    """
    n = geom.n_grid
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= N, got P={p}, N={n}")
    count = n * (n - 1)
    held = _STEP_BYTES_PER_LAG * n
    enumeration.charge_budget(held, count, budget, (
        f"{n} starts x {n - 1} = {count} candidates of {held} bytes "
        f"({n} float64 lag counts and {2 * n} int8 increments)"))
    weights = overlap_weights(geom, scn)
    rows = np.arange(n)
    # row s is start s: seed sensor s, grown one location a step
    chosen = np.eye(n, dtype=bool)
    # padded[s, n + i] is sensor i of start s, zero off the grid, and
    # window[k, s, j] = padded[s, k + j], so window[n + d] and window[n - d]
    # read z[j + d] and z[j - d] for every location j
    padded = np.zeros((n, 3 * n), dtype=np.int8)
    padded[rows, n + rows] = 1
    window = np.lib.stride_tricks.as_strided(padded, shape=(2 * n + 1, n, n),
                                             strides=(1, 3 * n, 1), writeable=False)
    ahead, behind = window[n + 1:2 * n], window[n - 1:0:-1]
    # lag-major: have[d, s] is lag d's count of start s's mask
    have = np.zeros((n, n))
    have[0] = 1.0
    inc = np.empty((n - 1, n, n), dtype=np.int8)
    buf = np.empty(n * count)
    picks = np.empty((n, p - 1), dtype=np.intp)
    objs = np.empty((n, p - 1))
    for step in range(p - 1):
        n_cand = n - 1 - step
        # row-major nonzero keeps each start's candidates in ascending order
        cand = np.nonzero(~chosen)[1].reshape(n, n_cand)
        # adding sensor j raises lag d >= 1 by z[j + d] + z[j - d], lag 0 by 1
        np.add(ahead, behind, out=inc)
        gain = inc[:, rows[:, None], cand]
        counts = buf[:n * n * n_cand].reshape(n, n, n_cand)
        np.add(have[0, :, None], 1.0, out=counts[0])
        np.add(gain, have[1:, :, None], out=counts[1:])
        vals = omega_batch(counts.reshape(n, -1).T, weights).reshape(n, n_cand)
        # tie band: mirror-symmetric candidates produce equal objectives up
        # to rounding; take the lowest grid index among near-ties
        floor = vals.min(axis=1, keepdims=True)
        j = np.argmax(vals <= floor + REL_TIE_TOL * np.maximum(np.abs(floor), 1.0), axis=1)
        picks[:, step] = cand[rows, j]
        objs[:, step] = vals[rows, j]
        have[0] += 1.0
        have[1:] += gain[:, rows, j]
        padded[rows, n + picks[:, step]] = 1
        chosen[rows, picks[:, step]] = True

    sinrs = beamformer.subset_sinr_batch(beamformer.scene_terms(geom, scn), chosen)

    best = 0
    for si in range(1, n):
        if sinrs[si] > sinrs[best] * (1.0 + REL_TIE_TOL):
            best = si

    masks = chosen.astype(int)
    traces = [
        StartTrace(start=si, steps=list(zip(picks[si].tolist(), objs[si].tolist())),
                   mask=masks[si], sinr=Sinr(float(sinrs[si])))
        for si in range(n)
    ]
    return SbsaResult(mask=traces[best].mask, sinr=traces[best].sinr, starts=traces)
